//! What the host says about this process and itself: CPU time, resident
//! memory, steal time, and the settings a result should be read with.
//! Linux `/proc` only; elsewhere every reader returns zero or "unknown".

use std::fs::read_to_string;

/// `/proc` reports CPU time in clock ticks; `USER_HZ` is 100 on Linux.
const NS_PER_TICK: u64 = 10_000_000;

/// User + system CPU time of this process, all threads, in ns.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    // Fields 14 and 15 of /proc/self/stat; the command (field 2) may
    // hold spaces, so count from its closing parenthesis.
    let ticks = read_to_string("/proc/self/stat").ok().and_then(|stat| {
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let utime: u64 = fields.next()?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    });
    ticks.unwrap_or(0) * NS_PER_TICK
}

/// Resident set size of this process, in bytes.
#[must_use]
pub fn rss_bytes() -> u64 {
    let kib = read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        line.split_ascii_whitespace().nth(1)?.parse::<u64>().ok()
    });
    kib.unwrap_or(0) * 1024
}

/// `(steal, total)` CPU ticks of the whole host since boot. The share
/// of a phase the hypervisor gave to someone else is the difference of
/// two readings: why a run was noisy.
#[must_use]
pub fn steal_ticks() -> (u64, u64) {
    let fields: Vec<u64> = read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_ascii_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal as a share of all CPU time, from the `(steal, total)`
/// difference of two [`steal_ticks`] readings.
#[must_use]
pub fn steal_frac((steal, total): (u64, u64)) -> f64 {
    if total == 0 {
        0.0
    } else {
        steal as f64 / total as f64
    }
}

#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The transparent-huge-page mode in force (`always`, `madvise`,
/// `never`), or `unknown`.
#[must_use]
pub fn thp_setting() -> String {
    read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .ok()
        .and_then(|modes| {
            let start = modes.find('[')? + 1;
            Some(modes[start..modes.find(']')?].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The readiness-poller backend `WidxServer` will pick on this host.
#[must_use]
pub fn poller_backend() -> &'static str {
    poller::Poller::new().map_or("unknown", |p| p.backend())
}

/// The counter backend a profiled service would get on this host.
#[must_use]
pub fn profiler_backend() -> &'static str {
    perf_event::CounterGroup::new().backend()
}
