//! The three workloads and the seeded operation streams that drive them.
//!
//! Every workload runs on the same cluster shape (16 Waxman switches,
//! topology seed 2019, 2 servers per switch, 4096 preloaded ids with
//! 64-byte payloads) from one client at one access switch, closed loop.
//! They differ in which layer does the work:
//!
//! - `forward_lockstep`: cache off, one `retrieve` at a time. The Plain
//!   client path and per-hop peer RPCs do the work; the batch codec and
//!   the cache do none.
//! - `forward_burst`: cache off, one 256-id `retrieve_many` at a time.
//!   Batch frames and batched forwarding do the work; the Plain path and
//!   the cache do none.
//! - `hot_write_mix`: default 8 MiB cache, Zipf(1.1) ids, 90% `retrieve`
//!   and 10% `place` of a new version. Cached reads and invalidation
//!   broadcasts do the work; forwarding does little.

use crate::rng::{SplitMix64, Zipf};
use gred_cluster::NodeConfig;

/// Switches in the benchmark cluster.
pub const SWITCHES: usize = 16;
/// Seed of the Waxman topology and of the control-plane build.
pub const TOPOLOGY_SEED: u64 = 2019;
/// Servers attached to every switch.
pub const SERVERS_PER_SWITCH: usize = 2;
/// Ids preloaded before any timing.
pub const IDS: usize = 4096;
/// Bytes per stored payload.
pub const PAYLOAD_BYTES: usize = 64;
/// Ids per `retrieve_many` burst on `forward_burst`.
pub const BURST: usize = 256;
/// Zipf exponent of the `hot_write_mix` id stream.
pub const ZIPF_S: f64 = 1.1;
/// Share of `hot_write_mix` operations that are writes.
pub const WRITE_SHARE: f64 = 0.10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform lockstep reads, cache off.
    ForwardLockstep,
    /// Uniform 256-id read bursts, cache off.
    ForwardBurst,
    /// Zipf reads and writes against warm caches.
    HotWriteMix,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ForwardLockstep,
        Workload::ForwardBurst,
        Workload::HotWriteMix,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ForwardLockstep => "forward_lockstep",
            Workload::ForwardBurst => "forward_burst",
            Workload::HotWriteMix => "hot_write_mix",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Read-cache budget of every node.
    pub fn cache_bytes(self) -> usize {
        match self {
            Workload::HotWriteMix => NodeConfig::default().cache_bytes,
            Workload::ForwardLockstep | Workload::ForwardBurst => 0,
        }
    }

    /// Whether the nodes run with their read cache on.
    pub fn cached(self) -> bool {
        self.cache_bytes() > 0
    }

    /// Operations of the workload's own stream run during warm-up.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::ForwardLockstep => 400,
            Workload::ForwardBurst => 50,
            Workload::HotWriteMix => 1500,
        }
    }

    /// Operations of the fixed-length phase whose counters must repeat
    /// exactly for one seed.
    pub fn counted_ops(self) -> usize {
        match self {
            Workload::ForwardLockstep => 2000,
            Workload::ForwardBurst => 24,
            Workload::HotWriteMix => 4000,
        }
    }
}

/// One client call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `retrieve` of one id (index into the id table).
    Read(usize),
    /// `place` of a new version of one id.
    Write(usize),
    /// `retrieve_many` of [`BURST`] ids.
    Burst(Vec<usize>),
}

impl Op {
    /// Verified reads or writes this call stands for.
    pub fn weight(&self) -> u64 {
        match self {
            Op::Read(_) | Op::Write(_) => 1,
            Op::Burst(ids) => ids.len() as u64,
        }
    }
}

/// The seeded stream of client calls of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    rng: SplitMix64,
    zipf: Option<Zipf>,
}

impl OpStream {
    /// The stream for `workload` drawn from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let zipf = (workload == Workload::HotWriteMix).then(|| Zipf::new(IDS, ZIPF_S));
        OpStream {
            workload,
            rng: SplitMix64::new(seed),
            zipf,
        }
    }

    /// The next call.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::ForwardLockstep => Op::Read(self.rng.below(IDS)),
            Workload::ForwardBurst => Op::Burst((0..BURST).map(|_| self.rng.below(IDS)).collect()),
            Workload::HotWriteMix => {
                let zipf = self.zipf.as_ref().expect("hot stream has a Zipf table");
                let id = zipf.sample(&mut self.rng);
                if self.rng.unit() < WRITE_SHARE {
                    Op::Write(id)
                } else {
                    Op::Read(id)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("uniform_read"), None);
    }

    #[test]
    fn seed_fixes_the_stream() {
        for w in Workload::ALL {
            let take = |seed| {
                let mut s = OpStream::new(w, seed);
                (0..64).map(|_| s.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(take(3), take(3), "{}", w.name());
            assert_ne!(take(3), take(4), "{}", w.name());
        }
    }

    #[test]
    fn hot_mix_writes_about_a_tenth() {
        let mut s = OpStream::new(Workload::HotWriteMix, 11);
        let writes = (0..10_000)
            .filter(|_| matches!(s.next_op(), Op::Write(_)))
            .count();
        assert!((800..1200).contains(&writes), "{writes} writes");
    }
}
