//! The counts a traced run reports must repeat exactly for one seed,
//! and a different seed must change what the cluster is asked.

use gred_perfbench::run::counted_run;
use gred_perfbench::workload::{Op, OpStream, Workload};

/// Short fixed-length phases: enough calls to cross every hop count.
fn calls(w: Workload) -> usize {
    match w {
        Workload::ForwardLockstep => 300,
        Workload::ForwardBurst => 4,
        Workload::HotWriteMix => 600,
    }
}

#[test]
fn one_seed_gives_identical_counts() {
    for w in Workload::ALL {
        let first = counted_run(w, 42, calls(w)).expect("first run");
        let second = counted_run(w, 42, calls(w)).expect("second run");
        assert_eq!(
            first,
            second,
            "{} counts differ between two runs of seed 42",
            w.name()
        );
        assert!(first.hops_per_read > 0.0, "{}: reads travel", w.name());
        assert!(
            first.frames_per_op > 0.0,
            "{}: frames are counted",
            w.name()
        );
        if w == Workload::HotWriteMix {
            assert_eq!(
                first.invalidations_per_write, 15.0,
                "n - 1 invalidations per write"
            );
        } else {
            assert_eq!(
                first.invalidations_per_write,
                0.0,
                "{}: no writes",
                w.name()
            );
        }
    }
}

#[test]
fn another_seed_changes_the_id_stream() {
    for w in Workload::ALL {
        let ids = |seed| {
            let mut s = OpStream::new(w, seed);
            (0..calls(w))
                .flat_map(|_| match s.next_op() {
                    Op::Read(i) | Op::Write(i) => vec![i],
                    Op::Burst(ids) => ids,
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(ids(42), ids(43), "{}", w.name());
    }
    let a = counted_run(Workload::ForwardLockstep, 42, 300).expect("seed 42");
    let b = counted_run(Workload::ForwardLockstep, 43, 300).expect("seed 43");
    assert_ne!(a, b, "a different id stream takes different paths");
}
