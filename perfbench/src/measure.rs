//! Statistics over samples and readings taken from outside the
//! program: `/proc` for the process, stats-plane scrapes for the nodes.

use gred_dataplane::StatsSnapshot;
use std::fs;

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns them, for repeated quantile reads.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median (mean of the middle two for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// CPU time of the whole process, from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User time, µs.
    pub user_us: f64,
    /// System time, µs.
    pub sys_us: f64,
}

/// Microseconds per `/proc` clock tick. Linux reports process times in
/// USER_HZ, which its ABI fixes at 100 on every architecture the
/// benchmark targets.
const US_PER_TICK: f64 = 10_000.0;

impl CpuTimes {
    /// The process's user and system time so far, all threads included
    /// (exited ones too).
    pub fn now() -> CpuTimes {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // Fields after the parenthesised command name start at field 3.
        let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick field") };
        // utime and stime are fields 14 and 15, i.e. 11 and 12 here.
        CpuTimes {
            user_us: ticks(11) * US_PER_TICK,
            sys_us: ticks(12) * US_PER_TICK,
        }
    }

    /// Total CPU, µs.
    pub fn total_us(self) -> f64 {
        self.user_us + self.sys_us
    }

    /// `self - earlier`, field by field.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

/// Machine-wide CPU time from the first line of `/proc/stat`, for the
/// share the hypervisor gave to other guests (`steal`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineClock {
    steal: u64,
    /// Time the CPUs ran or wanted to run: everything but idle and
    /// iowait. Steal only accrues while a CPU wants to run, so this is
    /// the base that makes a busy probe and a half-idle run comparable.
    wanted: u64,
}

impl MachineClock {
    /// The counters now (zero when `/proc/stat` is unreadable).
    pub fn now() -> MachineClock {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal ...
        MachineClock {
            steal: at(7),
            wanted: at(0) + at(1) + at(2) + at(5) + at(6) + at(7),
        }
    }

    /// Share of the CPU time wanted since `earlier` that was stolen.
    pub fn steal_share_since(self, earlier: MachineClock) -> f64 {
        let wanted = self.wanted.saturating_sub(earlier.wanted);
        self.steal.saturating_sub(earlier.steal) as f64 / wanted.max(1) as f64
    }
}

/// A field of `/proc/self/status` in kB (e.g. `VmHWM`).
fn status_kb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// Threads in the process right now.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Voluntary plus involuntary context switches, summed over every
/// live thread of the process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Cluster-wide totals of one scrape round (one snapshot per node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Requests that entered routing.
    pub requests: u64,
    /// Greedy forwards to a peer.
    pub forwarded: u64,
    /// Virtual-link relay legs.
    pub relayed: u64,
    /// Error responses.
    pub errors: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Encodes into an already-warm buffer.
    pub encode_reuses: u64,
    /// Contended store-shard acquisitions.
    pub shard_contention: u64,
    /// One-shot TCP fallbacks.
    pub fallbacks: u64,
    /// Mux link rebuilds.
    pub reconnects: u64,
    /// Detoured forwarding decisions.
    pub detours: u64,
    /// Redirect responses.
    pub redirects: u64,
    /// Read-cache hits.
    pub cache_hits: u64,
    /// Read-cache misses.
    pub cache_misses: u64,
    /// Read-cache evictions.
    pub evictions: u64,
    /// Invalidation frames received.
    pub invalidations_rx: u64,
    /// Dispatch workers spawned since boot (gauge).
    pub dispatch_workers: u64,
    /// Peer links with a live mux connection (gauge).
    pub links_connected: u64,
    /// Sockets registered with the reactors (gauge).
    pub open_connections: u64,
    /// Bytes waiting in reactor write queues (gauge).
    pub queued_bytes: u64,
}

impl Totals {
    /// Sums one scrape round.
    pub fn of(snaps: &[StatsSnapshot]) -> Totals {
        let mut t = Totals::default();
        for s in snaps {
            t.requests += s.requests;
            t.forwarded += s.forwarded;
            t.relayed += s.relayed;
            t.errors += s.errors;
            t.frames += s.hot.frames_decoded;
            t.encode_reuses += s.hot.encode_buf_reuses;
            t.shard_contention += s.hot.store_shard_contention;
            t.fallbacks += s.hot.oneshot_fallbacks;
            t.reconnects += s.hot.link_reconnects;
            t.detours += s.hot.detour_forwards;
            t.redirects += s.hot.redirects_issued;
            t.cache_hits += s.hot.cache_hits;
            t.cache_misses += s.hot.cache_misses;
            t.evictions += s.hot.cache_evictions;
            t.invalidations_rx += s.hot.invalidations_rx;
            t.dispatch_workers += u64::from(s.dispatch_workers);
            t.links_connected += s.links.iter().filter(|l| l.connected).count() as u64;
            t.open_connections += u64::from(s.open_connections);
            t.queued_bytes += s.queued_bytes;
        }
        t
    }

    /// Counter growth from `earlier` to `self`; gauges keep `self`'s
    /// value.
    pub fn since(self, earlier: Totals) -> Totals {
        Totals {
            requests: self.requests - earlier.requests,
            forwarded: self.forwarded - earlier.forwarded,
            relayed: self.relayed - earlier.relayed,
            errors: self.errors - earlier.errors,
            frames: self.frames - earlier.frames,
            encode_reuses: self.encode_reuses - earlier.encode_reuses,
            shard_contention: self.shard_contention - earlier.shard_contention,
            fallbacks: self.fallbacks - earlier.fallbacks,
            reconnects: self.reconnects - earlier.reconnects,
            detours: self.detours - earlier.detours,
            redirects: self.redirects - earlier.redirects,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            evictions: self.evictions - earlier.evictions,
            invalidations_rx: self.invalidations_rx - earlier.invalidations_rx,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(CpuTimes::now().total_us() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        assert!(context_switches() > 0);
        let clock = MachineClock::now();
        assert!(clock.wanted > 0);
        let share = MachineClock::now().steal_share_since(clock);
        assert!((0.0..=1.0).contains(&share), "steal share {share}");
    }
}
