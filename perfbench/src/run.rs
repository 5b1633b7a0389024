//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics, attribution and tracing overhead).

use crate::bench::{Bench, CallKind, Limit, Phase, SetupReport};
use crate::layers::{replay, LayerTimes};
use crate::measure::{
    context_switches, median, peak_rss_mb, quantile, sorted, thread_count, CpuTimes, MachineClock,
    Totals,
};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::workload::{Op, OpStream, Workload, SWITCHES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fresh clusters per untraced run. Each draws its own thread placement,
/// so a run averages over placements instead of drawing one, and
/// `setup_s` is the median of their set-ups.
pub const CLUSTERS: usize = 10;
/// Measured segments per cluster; the measured phase is split evenly
/// over all segments.
pub const SEGMENTS_PER_CLUSTER: usize = 3;
/// Segments the timings are taken from: the half in which the
/// hypervisor stole the least CPU time from this machine.
pub const KEPT_SEGMENTS: usize = CLUSTERS * SEGMENTS_PER_CLUSTER / 2;
/// Set-ups per traced run, for the `core.build_ms` and
/// `cluster.boot_ms` medians.
const TRACED_SETUPS: usize = 3;
/// `Client::scrape` round trips timed for `client.scrape_rtt_us`.
const SCRAPE_PROBES: usize = 300;
/// Fewest reads at one hop count for that count to enter the per-hop
/// slope.
const MIN_BUCKET: usize = 20;
/// Interval between full scrapes while the traced slices run (for
/// `node.queued_bytes_max`).
const QUEUE_SCRAPE_EVERY: Duration = Duration::from_millis(100);

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed of the measured id stream.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
}

/// The seed of the warm-up stream: derived from the run's seed but never
/// equal to it, so warm-up does not pre-play the measured calls.
fn warm_seed(seed: u64) -> u64 {
    seed.rotate_left(17) ^ 0x005e_ed0f_f00d_cafe
}

/// Sets the cluster up `count` times, shutting all but the last one
/// down, and returns the last one with every report.
fn repeated_setup(s: &Settings, count: usize) -> Result<(Bench, Vec<SetupReport>), String> {
    let mut reports = Vec::with_capacity(count);
    let mut kept: Option<Bench> = None;
    for _ in 0..count.max(1) {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let (bench, report) = Bench::setup(s.workload, warm_seed(s.seed))?;
        reports.push(report);
        kept = Some(bench);
    }
    Ok((kept.expect("at least one set-up"), reports))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn latencies_us(phase: &Phase, keep: impl Fn(CallKind) -> bool) -> Vec<f64> {
    sorted(
        phase
            .calls
            .iter()
            .filter(|c| keep(c.kind))
            .map(|c| us(c.ns))
            .collect(),
    )
}

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

/// The checks every measured phase must pass: the counters that show
/// each row measures what its label says, and the gauges that show no
/// set-up work leaked into timing.
fn check_phase(out: &mut Outcome, w: Workload, phase: &Phase, before: Totals, after: Totals) {
    let d = after.since(before);
    if let Some(why) = &phase.first_failure {
        out.violations
            .push(format!("{} failed operations, first: {why}", phase.failed));
    }
    if w.cached() {
        out.check(d.cache_hits > 0, || {
            "hot_write_mix scraped no cache hits".into()
        });
        let expected = (SWITCHES as u64 - 1) * phase.clean_writes;
        out.check(d.invalidations_rx == expected, || {
            format!(
                "{} invalidations received for {} clean writes, expected {expected}",
                d.invalidations_rx, phase.clean_writes
            )
        });
    } else {
        let probes = after.cache_hits + after.cache_misses;
        out.check(probes == 0, || {
            format!("cache is off but nodes report {probes} cache probes")
        });
    }
    for (name, moved) in [
        ("one-shot fallbacks", d.fallbacks),
        ("link reconnects", d.reconnects),
        ("detours", d.detours),
        ("redirects", d.redirects),
        ("node errors", d.errors),
    ] {
        out.check(moved == 0, || {
            format!("{name} moved by {moved} while measuring")
        });
    }
    out.check(after.links_connected == before.links_connected, || {
        format!(
            "connected peer links went from {} to {} while measuring",
            before.links_connected, after.links_connected
        )
    });
    out.check(after.open_connections == before.open_connections, || {
        format!(
            "open connections went from {} to {} while measuring",
            before.open_connections, after.open_connections
        )
    });
}

/// The untraced run: set up, measure for `seconds`, verify, and report
/// every end-to-end metric.
///
/// # Errors
///
/// A set-up or scrape failure (answers that fail a check are counted,
/// not returned as errors).
pub fn untraced(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(CLUSTERS);
    let mut segments: Vec<(Phase, CpuTimes, f64)> = Vec::new();
    let mut spawns = 0;
    // One seeded stream runs on across all segments.
    let mut stream = OpStream::new(s.workload, s.seed);
    let length = Duration::from_secs_f64(s.seconds / (CLUSTERS * SEGMENTS_PER_CLUSTER) as f64);
    for _ in 0..CLUSTERS {
        let (mut bench, report) = Bench::setup(s.workload, warm_seed(s.seed))?;
        setups.push(report);
        let before = bench.totals()?;
        let mut on_cluster = Phase::default();
        for _ in 0..SEGMENTS_PER_CLUSTER {
            let clock = MachineClock::now();
            let cpu_start = CpuTimes::now();
            let part = bench.drive(&mut stream, Limit::For(length), None);
            let cpu = CpuTimes::now().since(cpu_start);
            let steal = MachineClock::now().steal_share_since(clock);
            on_cluster.absorb(part.clone());
            segments.push((part, cpu, steal));
        }
        let after = bench.totals()?;
        bench.shutdown();
        check_phase(&mut out, s.workload, &on_cluster, before, after);
        spawns += after.dispatch_workers - before.dispatch_workers;
    }
    let mut phase = Phase::default();
    for (part, _, _) in &segments {
        phase.absorb(part.clone());
    }
    out.attempted = phase.attempted;
    out.failed = phase.failed;

    // Timings come from the segments with the least stolen CPU time:
    // rates and CPU per op as the median of the segments' figures,
    // latency percentiles over all their calls.
    let mut order: Vec<usize> = (0..segments.len()).collect();
    order.sort_by(|&a, &b| segments[a].2.total_cmp(&segments[b].2));
    let calm: Vec<&(Phase, CpuTimes, f64)> = order[..KEPT_SEGMENTS.min(order.len())]
        .iter()
        .map(|&i| &segments[i])
        .collect();
    let per_segment = |f: &dyn Fn(&Phase, CpuTimes) -> f64| -> Vec<f64> {
        calm.iter().map(|(p, cpu, _)| f(p, *cpu)).collect()
    };
    let mut kept = Phase::default();
    for (part, _, _) in &calm {
        kept.absorb(part.clone());
    }
    let quantile_of = |kind: Option<CallKind>, q: f64| {
        quantile(
            &latencies_us(&kept, |k| kind.is_none_or(|want| k == want)),
            q,
        )
    };
    let rates = per_segment(&|p: &Phase, _| p.verified() as f64 / p.elapsed.as_secs_f64());
    let cpu_per_op =
        per_segment(&|p: &Phase, cpu: CpuTimes| cpu.total_us() / p.verified().max(1) as f64);
    let setup_s: Vec<f64> = setups.iter().map(|r| r.total.as_secs_f64()).collect();
    out.push("setup_s", "s", median(&setup_s), setup_s.len() as u64);
    out.push("ops_per_s", "1/s", median(&rates), kept.verified());
    out.push(
        "call_p50_us",
        "us",
        quantile_of(None, 0.50),
        kept.calls.len() as u64,
    );
    out.push(
        "call_p99_us",
        "us",
        quantile_of(None, 0.99),
        kept.calls.len() as u64,
    );
    out.push("cpu_us_per_op", "us", median(&cpu_per_op), kept.verified());
    out.push(
        "hops_per_read",
        "hops",
        per_op(phase.read_hops, phase.reads),
        phase.reads,
    );
    out.push("peak_rss_mb", "MB", peak_rss_mb(), 1);

    // The same run broken down by call kind, for the text report.
    let mut detail = Outcome::default();
    for (kind, p50, p99, scale, unit) in [
        (CallKind::Read, "read_p50_us", "read_p99_us", 1.0, "us"),
        (CallKind::Write, "write_p50_us", "write_p99_us", 1.0, "us"),
        (CallKind::Burst, "burst_p50_ms", "burst_p99_ms", 1e-3, "ms"),
    ] {
        let n = kept.calls.iter().filter(|c| c.kind == kind).count() as u64;
        if n > 0 {
            detail.push(p50, unit, quantile_of(Some(kind), 0.50) * scale, n);
            detail.push(p99, unit, quantile_of(Some(kind), 0.99) * scale, n);
        }
    }
    let whole_rate = phase.verified() as f64 / phase.elapsed.as_secs_f64();
    detail.push("ops_per_s_whole_phase", "1/s", whole_rate, phase.verified());
    detail.push(
        "error_ratio",
        "ratio",
        per_op(phase.failed, phase.attempted),
        phase.attempted,
    );
    detail.push(
        "dispatch_spawns_while_measuring",
        "count",
        spawns as f64,
        CLUSTERS as u64,
    );
    let steal: Vec<f64> = segments.iter().map(|seg| seg.2).collect();
    detail.push(
        "steal_share_all",
        "ratio",
        median(&steal),
        steal.len() as u64,
    );
    let kept_steal: Vec<f64> = calm.iter().map(|seg| seg.2).collect();
    detail.push(
        "steal_share_kept",
        "ratio",
        median(&kept_steal),
        kept_steal.len() as u64,
    );
    println!(
        "{} seed {} untraced: {:.1} s measured in {} segments on {CLUSTERS} fresh clusters, closed loop, 1 client",
        s.workload.name(),
        s.seed,
        phase.elapsed.as_secs_f64(),
        segments.len()
    );
    println!(
        "(timings from the {KEPT_SEGMENTS} segments with the least stolen CPU: rates and CPU per op are the median segment, percentiles pool their calls)"
    );
    print!("{}", out.table());
    println!("breakdown:");
    print!("{}", detail.table());
    println!(
        "  ops/s of the kept segments: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    print!("{}", setup_breakdown(&setups));
    Ok(out)
}

/// Counters of a fixed-length phase, which repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counted {
    /// Reads and writes issued.
    pub ops: u64,
    /// Mean `Reply.hops` per read.
    pub hops_per_read: f64,
    /// Greedy forwards per read or write.
    pub forwarded_per_read: f64,
    /// Virtual-link relay legs per read or write.
    pub relayed_per_read: f64,
    /// Frames the nodes decoded, per read or write.
    pub frames_per_op: f64,
    /// Invalidations received per clean write (0 without writes).
    pub invalidations_per_write: f64,
}

/// Issues `calls` calls of the seed's stream on `bench`, with spans when
/// `tracer` is given, and returns the phase with the counter deltas.
///
/// # Errors
///
/// A scrape failure.
pub fn counted_phase(
    bench: &mut Bench,
    seed: u64,
    calls: usize,
    tracer: Option<&mut Tracer>,
) -> Result<(Phase, Totals, Totals), String> {
    let before = bench.totals()?;
    let mut stream = OpStream::new(bench.workload, seed);
    let phase = bench.drive(&mut stream, Limit::Calls(calls), tracer);
    let after = bench.totals()?;
    Ok((phase, before, after))
}

impl Counted {
    /// The exact counts of a phase and its scrape delta.
    pub fn of(phase: &Phase, d: &Totals) -> Counted {
        let ops = phase.reads + phase.writes;
        Counted {
            ops,
            hops_per_read: per_op(phase.read_hops, phase.reads),
            forwarded_per_read: per_op(d.forwarded, ops),
            relayed_per_read: per_op(d.relayed, ops),
            frames_per_op: per_op(d.frames, ops),
            invalidations_per_write: per_op(d.invalidations_rx, phase.clean_writes),
        }
    }
}

/// One fixed-length phase on a fresh cluster: the exact counts a seed
/// must reproduce.
///
/// # Errors
///
/// A set-up or scrape failure, or a failed answer.
pub fn counted_run(workload: Workload, seed: u64, calls: usize) -> Result<Counted, String> {
    let (mut bench, _) = Bench::setup(workload, warm_seed(seed))?;
    let (phase, before, after) = counted_phase(&mut bench, seed, calls, None)?;
    bench.shutdown();
    if let Some(why) = phase.first_failure {
        return Err(why);
    }
    Ok(Counted::of(&phase, &after.since(before)))
}

/// Weighted least-squares slope of median read latency (µs) against
/// `Reply.hops`, over hop counts with at least [`MIN_BUCKET`] reads.
fn per_hop_slope(buckets: &BTreeMap<u32, Vec<f64>>) -> f64 {
    let points: Vec<(f64, f64, f64)> = buckets
        .iter()
        .filter(|(_, v)| v.len() >= MIN_BUCKET)
        .map(|(&h, v)| (f64::from(h), median(v), v.len() as f64))
        .collect();
    if points.len() < 2 {
        return 0.0;
    }
    let w: f64 = points.iter().map(|p| p.2).sum();
    let mx = points.iter().map(|p| p.0 * p.2).sum::<f64>() / w;
    let my = points.iter().map(|p| p.1 * p.2).sum::<f64>() / w;
    let sxy: f64 = points.iter().map(|p| p.2 * (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| p.2 * (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

fn by_hops(phase: &Phase, kind: CallKind) -> BTreeMap<u32, Vec<f64>> {
    let mut m: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for c in phase.calls.iter().filter(|c| c.kind == kind) {
        m.entry(c.hops).or_default().push(us(c.ns));
    }
    m
}

/// Write p50 minus read p50 at equal hop counts, weighted by writes.
fn write_extra(phase: &Phase) -> f64 {
    let reads = by_hops(phase, CallKind::Read);
    let writes = by_hops(phase, CallKind::Write);
    let (mut sum, mut weight) = (0.0, 0.0);
    for (h, wv) in &writes {
        if let Some(rv) = reads.get(h).filter(|rv| rv.len() >= 5 && wv.len() >= 5) {
            sum += (median(wv) - median(rv)) * wv.len() as f64;
            weight += wv.len() as f64;
        }
    }
    if weight == 0.0 {
        0.0
    } else {
        sum / weight
    }
}

/// Where the trace of a run is written, relative to the working
/// directory (the checkout root).
pub fn trace_path(s: &Settings) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("trace-{}-seed{}.jsonl", s.workload.name(), s.seed))
}

/// The traced run: per-layer numbers measured from outside the program,
/// the attribution table and the tracing overhead.
///
/// # Errors
///
/// A set-up or scrape failure.
pub fn traced(s: &Settings) -> Result<Outcome, String> {
    let w = s.workload;
    let (mut bench, setups) = repeated_setup(s, TRACED_SETUPS)?;
    let mut tracer = Tracer::new();

    // Loopback and reactor floor: stats scrapes are served inline.
    let mut rtt = Vec::with_capacity(SCRAPE_PROBES);
    for _ in 0..SCRAPE_PROBES {
        let span = tracer.begin("client.scrape", 0, 0);
        rtt.push(us(bench.scrape_access_ns()?));
        tracer.end(span);
    }

    // Fixed-length phase: counters that repeat exactly for the seed.
    let cpu_start = CpuTimes::now();
    let ctx_start = context_switches();
    let (counted, before, after) =
        counted_phase(&mut bench, s.seed, w.counted_ops(), Some(&mut tracer))?;
    let cpu = CpuTimes::now().since(cpu_start);
    let ctx = context_switches().saturating_sub(ctx_start);
    let d = after.since(before);
    let exact = Counted::of(&counted, &d);
    let mut out = Outcome {
        attempted: counted.attempted,
        failed: counted.failed,
        ..Outcome::default()
    };
    check_phase(&mut out, w, &counted, before, after);

    // Alternating untraced and traced slices of the same stream, for the
    // tracing overhead; the traced ones also sample write queues.
    let slice = Duration::from_secs_f64((s.seconds / 10.0).clamp(0.1, 1.0));
    let slices = ((s.seconds / slice.as_secs_f64()).round() as usize).max(2);
    let mut stream = OpStream::new(w, s.seed ^ 0x0b5e_55ed);
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let mut queued_max = 0u64;
    let slices_before = bench.totals()?;
    for k in 0..slices {
        if k % 2 == 0 {
            plain.absorb(bench.drive(&mut stream, Limit::For(slice), None));
        } else {
            let end = Instant::now() + slice;
            while Instant::now() < end {
                let span = tracer.begin("client.scrape_all", 0, 0);
                let snaps = bench.scrape()?;
                tracer.end(span);
                queued_max = queued_max.max(Totals::of(&snaps).queued_bytes);
                let step = QUEUE_SCRAPE_EVERY.min(end.saturating_duration_since(Instant::now()));
                traced.absorb(bench.drive(&mut stream, Limit::For(step), Some(&mut tracer)));
            }
        }
    }
    let slices_after = bench.totals()?;
    let rate = |p: &Phase| p.verified() as f64 / p.elapsed.as_secs_f64().max(1e-9);
    let overhead = 1.0 - rate(&traced) / rate(&plain);
    let e2e_us_per_op = 1e6 / rate(&plain);
    let mut slices_all = plain;
    slices_all.absorb(traced.clone());
    check_phase(&mut out, w, &slices_all, slices_before, slices_after);
    out.attempted += slices_all.attempted;
    out.failed += slices_all.failed;

    // In-process replay of the counted phase's inputs.
    let inputs: Vec<usize> = {
        let mut st = OpStream::new(w, s.seed);
        (0..w.counted_ops())
            .flat_map(|_| match st.next_op() {
                Op::Read(i) | Op::Write(i) => vec![i],
                Op::Burst(ids) => ids,
            })
            .collect()
    };
    let span = tracer.begin("bench.replay", 0, 0);
    let layers = replay(&bench.net, bench.access, &bench.ids, &inputs);
    tracer.end(span);
    let threads = thread_count();
    let whole = slices_after.since(before);
    bench.shutdown();

    let ops = exact.ops;
    let local: Vec<f64> = counted
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Read && c.hops == 0)
        .map(|c| us(c.ns))
        .collect();
    let probes = d.cache_hits + d.cache_misses;
    let build_ms: Vec<f64> = setups.iter().map(|r| r.build.as_secs_f64() * 1e3).collect();
    let boot_ms: Vec<f64> = setups.iter().map(|r| r.boot.as_secs_f64() * 1e3).collect();
    let n = setups.len() as u64;

    out.push("client.scrape_rtt_us", "us", median(&rtt), rtt.len() as u64);
    out.push(
        "client.local_read_us",
        "us",
        if local.len() >= 5 {
            median(&local)
        } else {
            0.0
        },
        local.len() as u64,
    );
    out.push(
        "client.hops_per_read",
        "hops",
        exact.hops_per_read,
        counted.reads,
    );
    out.push(
        "node.per_hop_us",
        "us",
        per_hop_slope(&by_hops(&counted, CallKind::Read)),
        counted.reads,
    );
    out.push(
        "node.write_extra_us",
        "us",
        write_extra(&counted),
        counted.writes,
    );
    out.push(
        "node.requests_per_op",
        "per_op",
        per_op(d.requests, ops),
        ops,
    );
    out.push(
        "node.forwarded_per_read",
        "per_op",
        exact.forwarded_per_read,
        ops,
    );
    out.push(
        "node.relayed_per_read",
        "per_op",
        exact.relayed_per_read,
        ops,
    );
    out.push("frame.frames_per_op", "per_op", exact.frames_per_op, ops);
    out.push(
        "node.encode_reuse_per_op",
        "per_op",
        per_op(d.encode_reuses, ops),
        ops,
    );
    out.push(
        "shard.contention_per_op",
        "per_op",
        per_op(d.shard_contention, ops),
        ops,
    );
    out.push(
        "node.queued_bytes_max",
        "B",
        queued_max as f64,
        traced.calls.len() as u64,
    );
    out.push(
        "cache.hit_ratio",
        "ratio",
        per_op(d.cache_hits, probes),
        probes,
    );
    out.push(
        "cache.evictions_per_op",
        "per_op",
        per_op(d.evictions, ops),
        ops,
    );
    out.push(
        "cache.invalidations_per_write",
        "per_write",
        exact.invalidations_per_write,
        counted.clean_writes,
    );
    out.push("mux.fallbacks", "count", whole.fallbacks as f64, 1);
    out.push("mux.reconnects", "count", whole.reconnects as f64, 1);
    out.push("node.detours", "count", whole.detours as f64, 1);
    out.push("node.redirects", "count", whole.redirects as f64, 1);
    out.push("node.errors", "count", whole.errors as f64, 1);
    out.push(
        "node.dispatch_workers",
        "count",
        slices_after.dispatch_workers as f64,
        1,
    );
    out.push(
        "node.dispatch_spawns",
        "count",
        (slices_after.dispatch_workers - before.dispatch_workers) as f64,
        1,
    );
    out.push(
        "node.links_connected",
        "count",
        slices_after.links_connected as f64,
        1,
    );
    out.push("proc.threads", "count", threads as f64, 1);
    out.push("proc.ctx_switches_per_op", "per_op", per_op(ctx, ops), ops);
    out.push(
        "proc.sys_share",
        "ratio",
        cpu.sys_us / cpu.total_us().max(1.0),
        ops,
    );
    push_layers(&mut out, &layers, inputs.len() as u64);
    out.push("core.build_ms", "ms", median(&build_ms), n);
    out.push("cluster.boot_ms", "ms", median(&boot_ms), n);

    let table = attribution(w, &exact, &d, &counted, &layers, median(&rtt));
    let explained: f64 = table.iter().map(|r| r.3).sum();
    let residual = 1.0 - explained / e2e_us_per_op;
    out.push("attrib.residual_share", "ratio", residual, ops);
    out.push("trace.overhead_share", "ratio", overhead, traced.verified());
    out.push(
        "bench.error_ratio",
        "ratio",
        per_op(out.failed, out.attempted),
        out.attempted,
    );

    let path = trace_path(s);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {} failed: {e}", path.display()))?;

    println!(
        "{} seed {} traced: {} counted calls, {} spans written to {}",
        w.name(),
        s.seed,
        counted.calls.len(),
        tracer.spans().len(),
        path.display()
    );
    print!("{}", out.table());
    print!("{}", setup_breakdown(&setups));
    print!("{}", span_self_times(&tracer));
    print!(
        "{}",
        render_attribution(w, &table, e2e_us_per_op, residual, overhead)
    );
    Ok(out)
}

/// Median self time of each span name, for the text report.
fn span_self_times(tracer: &Tracer) -> String {
    let mut s = String::from("span self time (median us, count):\n");
    for name in [
        "op",
        "client.retrieve",
        "client.place",
        "client.retrieve_many",
        "bench.verify",
        "client.scrape",
        "client.scrape_all",
    ] {
        let own = tracer.self_times_ns(name);
        if !own.is_empty() {
            writeln!(
                s,
                "  {name:<42} {:>12.3} {:>12}",
                median(&own) / 1e3,
                own.len()
            )
            .expect("writing to a String cannot fail");
        }
    }
    s
}

/// Median set-up time by step, for the text report.
fn setup_breakdown(setups: &[SetupReport]) -> String {
    let ms = |f: &dyn Fn(&SetupReport) -> Duration| {
        median(
            &setups
                .iter()
                .map(|r| f(r).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let mut steps: Vec<(String, f64)> = vec![("build".into(), ms(&|r| r.build))];
    if let Some(first) = setups.first() {
        for (k, (name, _)) in first.build_phases.iter().enumerate() {
            steps.push((format!("  build: {name}"), ms(&|r| r.build_phases[k].1)));
        }
    }
    steps.push(("preload".into(), ms(&|r| r.preload)));
    steps.push(("boot".into(), ms(&|r| r.boot)));
    steps.push(("connect and warm-up".into(), ms(&|r| r.warmup)));
    steps.push(("total".into(), ms(&|r| r.total)));
    let mut s = format!("set-up (median of {} set-ups, ms):\n", setups.len());
    for (name, v) in steps {
        writeln!(s, "  {name:<42} {v:>12.3}").expect("writing to a String cannot fail");
    }
    s
}

fn push_layers(out: &mut Outcome, l: &LayerTimes, n: u64) {
    for (name, unit, v) in [
        ("hash.position_ns", "ns", l.position_ns),
        ("core.route_ns", "ns", l.route_ns),
        ("dataplane.decide_ns", "ns", l.decide_ns),
        ("wire.encode_ns", "ns", l.encode_ns),
        ("wire.parse_ns", "ns", l.parse_ns),
        ("wire.batch_encode_us", "us", l.batch_encode_us),
        ("wire.batch_parse_us", "us", l.batch_parse_us),
        ("frame.decode_ns", "ns", l.frame_decode_ns),
        ("cache.get_ns", "ns", l.cache_get_ns),
        ("cache.fill_ns", "ns", l.cache_fill_ns),
        ("cache.invalidate_ns", "ns", l.cache_invalidate_ns),
        ("shard.get_ns", "ns", l.shard_get_ns),
        ("shard.insert_ns", "ns", l.shard_insert_ns),
    ] {
        out.push(name, unit, v, n);
    }
}

/// One attribution row: layer, time per call (µs), calls per op, and
/// their product (µs per op).
type Row = (&'static str, f64, f64, f64);

/// Every layer's time per call times its calls per op. Calls per op
/// come from the counted phase's scrape delta:
/// - every socket round trip (client call, greedy forward, relay leg,
///   invalidation RPC) costs at least one inline-served scrape round
///   trip, and round trips = (frames the nodes decoded + client calls)
///   / 2, since each one decodes a request frame and a response frame;
/// - each leg moves one request and one response packet through the
///   codec (batched on `forward_burst`);
/// - each node visit that is not a relay leg runs one greedy decision.
fn attribution(
    w: Workload,
    exact: &Counted,
    d: &Totals,
    counted: &Phase,
    l: &LayerTimes,
    rtt_us: f64,
) -> Vec<Row> {
    let ops = exact.ops.max(1) as f64;
    let calls = counted.calls.len() as f64;
    let round_trips = (d.frames as f64 + calls) / 2.0 / ops;
    let legs = (d.forwarded + d.relayed + d.invalidations_rx) as f64 / ops + calls / ops;
    let packets = 2.0 * legs;
    let codec_us = if w == Workload::ForwardBurst {
        (l.batch_encode_us + l.batch_parse_us) / 256.0
    } else {
        (l.encode_ns + l.parse_ns) / 1e3
    };
    let decides = d.requests.saturating_sub(d.relayed) as f64 / ops;
    let probes = (d.cache_hits + d.cache_misses) as f64 / ops;
    let rows = vec![
        (
            "loopback round trip (client.scrape_rtt)",
            rtt_us,
            round_trips,
        ),
        ("hash.position", l.position_ns / 1e3, 1.0),
        ("dataplane.decide", l.decide_ns / 1e3, decides),
        ("wire codec (encode+parse per packet)", codec_us, packets),
        (
            "frame.decode",
            l.frame_decode_ns / 1e3,
            (d.frames as f64 + calls) / ops,
        ),
        ("cache.get", l.cache_get_ns / 1e3, probes),
        (
            "cache.fill",
            l.cache_fill_ns / 1e3,
            d.cache_misses as f64 / ops,
        ),
        (
            "cache.invalidate",
            l.cache_invalidate_ns / 1e3,
            d.invalidations_rx as f64 / ops,
        ),
        (
            "shard.get",
            l.shard_get_ns / 1e3,
            counted.reads as f64 / ops,
        ),
        (
            "shard.insert",
            l.shard_insert_ns / 1e3,
            counted.writes as f64 / ops,
        ),
    ];
    rows.into_iter().map(|(n, t, c)| (n, t, c, t * c)).collect()
}

fn render_attribution(
    w: Workload,
    rows: &[Row],
    e2e_us: f64,
    residual: f64,
    overhead: f64,
) -> String {
    let mut s = String::new();
    let mut line = |text: String| writeln!(s, "{text}").expect("writing to a String cannot fail");
    line(format!(
        "attribution for {} (us per verified op):",
        w.name()
    ));
    line(format!(
        "  {:<42} {:>12} {:>12} {:>12}",
        "layer", "us/call", "calls/op", "us/op"
    ));
    for (name, t, c, p) in rows {
        line(format!("  {name:<42} {t:>12.4} {c:>12.4} {p:>12.4}"));
    }
    let sum: f64 = rows.iter().map(|r| r.3).sum();
    line(format!(
        "  {:<42} {:>12} {:>12} {:>12.4}",
        "sum of layers", "", "", sum
    ));
    line(format!(
        "  {:<42} {:>12} {:>12} {:>12.4}",
        "end to end (untraced slices)", "", "", e2e_us
    ));
    line(format!("  attrib.residual_share = {residual:.4}"));
    line(format!("  trace.overhead_share = {overhead:.4}"));
    s
}
