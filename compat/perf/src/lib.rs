//! Offline stand-in for hardware performance-counter access.
//!
//! The workspace builds in environments without a crates.io mirror, so
//! external dependencies are vendored as minimal API-compatible
//! subsets; this crate is that subset for per-thread hardware counters
//! (in the spirit of the `perf-event` crate): open a counter group on
//! the calling thread, enable it around a region of interest, and read
//! back cycles / instructions / LLC misses / dTLB misses plus the
//! enabled and running times needed to scale multiplexed counts.
//!
//! Two backends, selected automatically (or forced through the
//! `WIDX_PROF` environment variable / [`CounterGroup::with_backend`]):
//!
//! * **`linux`** (Linux on x86_64/aarch64, the default there) — a real
//!   `perf_event_open(2)` counter group scoped to the calling thread,
//!   user-space only (`exclude_kernel`/`exclude_hv`), so it works at
//!   `perf_event_paranoid = 2`;
//! * **`soft`** (everywhere, the non-Linux default) — no kernel
//!   counters at all: hardware fields read zero and only the
//!   enabled/running wall-times advance. Consumers detect this via
//!   [`CounterGroup::has_hw_counters`] and fall back to software
//!   counters (e.g. walker `WalkCounters`) for their derived metrics.
//!
//! [`CounterGroup::new`] never fails: when the kernel refuses the
//! syscall (`perf_event_paranoid`, seccomp, a container profile — or
//! the `WIDX_PROF_DENY` test override), it degrades to `soft` and
//! records the reason in [`CounterGroup::fallback_reason`]. Forcing a
//! backend with `with_backend` stays strict and surfaces the error.
//!
//! `unsafe` is confined to `sys.rs` (raw syscalls the platform libc
//! already links); everything above it is safe code.

#![warn(missing_docs)]

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys;

use std::io;
use std::time::{Duration, Instant};

/// The hardware events a [`CounterGroup`] counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Core cycles (`PERF_COUNT_HW_CPU_CYCLES`).
    Cycles,
    /// Retired instructions (`PERF_COUNT_HW_INSTRUCTIONS`).
    Instructions,
    /// Last-level cache misses (`PERF_COUNT_HW_CACHE_MISSES`).
    LlcMisses,
    /// dTLB read misses (`PERF_TYPE_HW_CACHE`).
    DtlbMisses,
}

impl CounterKind {
    /// Every kind, in the order the hardware group opens them.
    pub const ALL: [CounterKind; 4] = [
        CounterKind::Cycles,
        CounterKind::Instructions,
        CounterKind::LlcMisses,
        CounterKind::DtlbMisses,
    ];

    /// Stable lower-snake name used in JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Cycles => "cycles",
            CounterKind::Instructions => "instructions",
            CounterKind::LlcMisses => "llc_misses",
            CounterKind::DtlbMisses => "dtlb_misses",
        }
    }
}

/// One point-in-time reading of a counter group. Hardware fields are
/// multiplex-scaled (`value × enabled ÷ running`) so concurrent perf
/// users don't silently shrink the counts; on the `soft` backend they
/// are all zero and only the times advance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Core cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Last-level cache misses.
    pub llc_misses: u64,
    /// dTLB read misses.
    pub dtlb_misses: u64,
    /// Nanoseconds the group has been enabled.
    pub time_enabled_ns: u64,
    /// Nanoseconds the group was actually on hardware (less than
    /// enabled time when the PMU multiplexes).
    pub time_running_ns: u64,
}

impl CounterSnapshot {
    /// Field-wise saturating difference: this snapshot minus an
    /// `earlier` one. The saturation matters because multiplex scaling
    /// rounds each absolute reading independently.
    #[must_use]
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
            dtlb_misses: self.dtlb_misses.saturating_sub(earlier.dtlb_misses),
            time_enabled_ns: self.time_enabled_ns.saturating_sub(earlier.time_enabled_ns),
            time_running_ns: self.time_running_ns.saturating_sub(earlier.time_running_ns),
        }
    }

    /// The value counted for `kind`.
    #[must_use]
    pub fn get(&self, kind: CounterKind) -> u64 {
        match kind {
            CounterKind::Cycles => self.cycles,
            CounterKind::Instructions => self.instructions,
            CounterKind::LlcMisses => self.llc_misses,
            CounterKind::DtlbMisses => self.dtlb_misses,
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct HwGroup {
    /// `fds[0]` is the leader (cycles); `members` names each fd's
    /// event in kernel read order. A follower the PMU cannot count
    /// (some machines lack the dTLB event) is simply absent and its
    /// snapshot field stays zero.
    fds: Vec<sys::OwnedFd>,
    members: Vec<CounterKind>,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl HwGroup {
    fn open() -> io::Result<HwGroup> {
        if std::env::var_os("WIDX_PROF_DENY").is_some() {
            // Test hook: behave exactly as a kernel refusal would, so
            // the fallback path can be exercised deterministically.
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "hardware counters denied by WIDX_PROF_DENY",
            ));
        }
        let leader_attr =
            sys::counting_attr(sys::PERF_TYPE_HARDWARE, sys::PERF_COUNT_HW_CPU_CYCLES, true);
        let leader = sys::perf_event_open(&leader_attr, -1)?;
        let mut fds = vec![leader];
        let mut members = vec![CounterKind::Cycles];
        let followers = [
            (
                CounterKind::Instructions,
                sys::PERF_TYPE_HARDWARE,
                sys::PERF_COUNT_HW_INSTRUCTIONS,
            ),
            (
                CounterKind::LlcMisses,
                sys::PERF_TYPE_HARDWARE,
                sys::PERF_COUNT_HW_CACHE_MISSES,
            ),
            (
                CounterKind::DtlbMisses,
                sys::PERF_TYPE_HW_CACHE,
                sys::PERF_HW_CACHE_DTLB_READ_MISS,
            ),
        ];
        for (kind, type_, config) in followers {
            let attr = sys::counting_attr(type_, config, false);
            if let Ok(fd) = sys::perf_event_open(&attr, fds[0].0) {
                fds.push(fd);
                members.push(kind);
            }
        }
        Ok(HwGroup { fds, members })
    }

    fn leader(&self) -> sys::RawFd {
        self.fds[0].0
    }

    fn read(&self) -> io::Result<CounterSnapshot> {
        // {nr, time_enabled, time_running, value[0..nr]}.
        let mut buf = [0u64; 3 + CounterKind::ALL.len()];
        let words = sys::read_group(self.leader(), &mut buf)?;
        if words < 3 + self.members.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short perf group read",
            ));
        }
        let (enabled, running) = (buf[1], buf[2]);
        let scale = |value: u64| -> u64 {
            if running == 0 || running >= enabled {
                value
            } else {
                u64::try_from(u128::from(value) * u128::from(enabled) / u128::from(running))
                    .unwrap_or(u64::MAX)
            }
        };
        let mut snap = CounterSnapshot {
            time_enabled_ns: enabled,
            time_running_ns: running,
            ..CounterSnapshot::default()
        };
        for (slot, kind) in self.members.iter().enumerate() {
            let value = scale(buf[3 + slot]);
            match kind {
                CounterKind::Cycles => snap.cycles = value,
                CounterKind::Instructions => snap.instructions = value,
                CounterKind::LlcMisses => snap.llc_misses = value,
                CounterKind::DtlbMisses => snap.dtlb_misses = value,
            }
        }
        Ok(snap)
    }
}

/// The software fallback: no kernel counters, just enabled-time
/// bookkeeping so windowed attribution still sees wall time.
struct SoftGroup {
    accumulated: Duration,
    running_since: Option<Instant>,
}

impl SoftGroup {
    fn new() -> SoftGroup {
        SoftGroup {
            accumulated: Duration::ZERO,
            running_since: None,
        }
    }

    fn enabled_time(&self) -> Duration {
        self.accumulated
            + self
                .running_since
                .map_or(Duration::ZERO, |since| since.elapsed())
    }
}

enum Backend {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Linux(HwGroup),
    Soft(SoftGroup),
}

/// A per-thread counter group. See the crate docs for backend
/// selection and degradation semantics.
///
/// The group is scoped to the thread that opened it (pid 0, any cpu),
/// so counts attribute cleanly to one worker — and a thread blocked in
/// the kernel accrues almost nothing, which is what makes coarse
/// enable/read windows around queue waits honest.
pub struct CounterGroup {
    backend: Backend,
    name: &'static str,
    fallback: Option<String>,
}

/// The platform's preferred backend.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub const DEFAULT_BACKEND: &str = "linux";
/// The platform's preferred backend.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub const DEFAULT_BACKEND: &str = "soft";

impl CounterGroup {
    /// Opens a counter group on the platform's best backend, honouring
    /// a `WIDX_PROF` environment override (`linux` / `soft`). Never
    /// fails: a refused or unavailable hardware backend degrades to
    /// `soft`, with the reason kept in
    /// [`fallback_reason`](CounterGroup::fallback_reason).
    #[must_use]
    pub fn new() -> CounterGroup {
        let requested = std::env::var("WIDX_PROF").unwrap_or_else(|_| DEFAULT_BACKEND.to_string());
        match CounterGroup::with_backend(&requested) {
            Ok(group) => group,
            Err(err) => CounterGroup {
                backend: Backend::Soft(SoftGroup::new()),
                name: "soft",
                fallback: Some(format!("{requested}: {err}")),
            },
        }
    }

    /// Opens a counter group on a named backend: `"linux"` or
    /// `"soft"`. Unlike [`new`](CounterGroup::new), this is strict —
    /// a denied syscall or unknown name is an error, which is what the
    /// forced-fallback tests assert on.
    ///
    /// # Errors
    ///
    /// The kernel refusing `perf_event_open` (paranoid level, seccomp),
    /// an unknown name, or a backend unavailable on this platform.
    pub fn with_backend(name: &str) -> io::Result<CounterGroup> {
        match name {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            "linux" => Ok(CounterGroup {
                backend: Backend::Linux(HwGroup::open()?),
                name: "linux",
                fallback: None,
            }),
            "soft" => Ok(CounterGroup {
                backend: Backend::Soft(SoftGroup::new()),
                name: "soft",
                fallback: None,
            }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown or unavailable prof backend {other:?}"),
            )),
        }
    }

    /// The active backend's name (`"linux"` or `"soft"`).
    #[must_use]
    pub fn backend(&self) -> &'static str {
        self.name
    }

    /// Whether reads carry real hardware counts. On `soft` the
    /// hardware fields are always zero and consumers should derive
    /// their metrics from software counters instead.
    #[must_use]
    pub fn has_hw_counters(&self) -> bool {
        !matches!(self.backend, Backend::Soft(_))
    }

    /// Why [`new`](CounterGroup::new) fell back to `soft`, if it did.
    #[must_use]
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// Starts counting (idempotent).
    ///
    /// # Errors
    ///
    /// OS-level ioctl failure (never errors on `soft`).
    pub fn enable(&mut self) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Linux(group) => sys::group_enable(group.leader()),
            Backend::Soft(group) => {
                if group.running_since.is_none() {
                    group.running_since = Some(Instant::now());
                }
                Ok(())
            }
        }
    }

    /// Stops counting; counts and times freeze until re-enabled.
    ///
    /// # Errors
    ///
    /// OS-level ioctl failure (never errors on `soft`).
    pub fn disable(&mut self) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Linux(group) => sys::group_disable(group.leader()),
            Backend::Soft(group) => {
                if let Some(since) = group.running_since.take() {
                    group.accumulated += since.elapsed();
                }
                Ok(())
            }
        }
    }

    /// Zeroes the counter values. The kernel does not rewind
    /// `time_enabled`/`time_running`, so windowed consumers should
    /// difference [`CounterSnapshot::since`] rather than reset.
    ///
    /// # Errors
    ///
    /// OS-level ioctl failure (never errors on `soft`).
    pub fn reset(&mut self) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Linux(group) => sys::group_reset(group.leader()),
            Backend::Soft(group) => {
                group.accumulated = Duration::ZERO;
                if group.running_since.is_some() {
                    group.running_since = Some(Instant::now());
                }
                Ok(())
            }
        }
    }

    /// Reads the group: one coherent, multiplex-scaled snapshot.
    ///
    /// # Errors
    ///
    /// OS-level read failure (never errors on `soft`).
    pub fn read(&mut self) -> io::Result<CounterSnapshot> {
        match &self.backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Linux(group) => group.read(),
            Backend::Soft(group) => {
                let enabled = u64::try_from(group.enabled_time().as_nanos()).unwrap_or(u64::MAX);
                Ok(CounterSnapshot {
                    time_enabled_ns: enabled,
                    time_running_ns: enabled,
                    ..CounterSnapshot::default()
                })
            }
        }
    }
}

impl Default for CounterGroup {
    fn default() -> CounterGroup {
        CounterGroup::new()
    }
}

impl std::fmt::Debug for CounterGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterGroup")
            .field("backend", &self.name)
            .field("fallback", &self.fallback)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every backend constructible in this environment. `linux` may be
    /// legitimately absent (non-Linux hosts, denied syscall) — the
    /// forced-fallback integration test pins the denial path instead.
    fn all_backends() -> Vec<CounterGroup> {
        let mut groups = Vec::new();
        for name in ["linux", "soft"] {
            if let Ok(group) = CounterGroup::with_backend(name) {
                assert_eq!(group.backend(), name);
                groups.push(group);
            }
        }
        assert!(!groups.is_empty());
        groups
    }

    fn spin() -> u64 {
        let mut x = 1u64;
        for i in 0..200_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x)
    }

    #[test]
    fn default_backend_never_fails_to_construct() {
        let group = CounterGroup::new();
        assert!(["linux", "soft"].contains(&group.backend()));
        // `new()` honors WIDX_PROF, so judge against what was actually
        // requested: serving the requested backend is not a fallback.
        let requested = std::env::var("WIDX_PROF").unwrap_or_else(|_| DEFAULT_BACKEND.to_string());
        if group.backend() == requested {
            assert!(group.fallback_reason().is_none());
        } else {
            // Degraded: the reason must say what was refused.
            assert!(group.fallback_reason().is_some());
        }
        assert_eq!(
            CounterGroup::with_backend("no-such-backend")
                .expect_err("unknown backend")
                .kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn enable_read_disable_cycle_counts_work() {
        for mut group in all_backends() {
            group.enable().unwrap();
            let _ = spin();
            let snap = group.read().unwrap();
            assert!(
                snap.time_enabled_ns > 0,
                "{}: enabled time must advance",
                group.backend()
            );
            if group.has_hw_counters() {
                assert!(snap.cycles > 0, "hw cycles must tick");
                assert!(snap.instructions > 0, "hw instructions must tick");
            } else {
                assert_eq!(snap.cycles, 0, "soft backend counts no hardware");
                assert_eq!(snap.time_enabled_ns, snap.time_running_ns);
            }
            group.disable().unwrap();
            let frozen = group.read().unwrap();
            let _ = spin();
            let again = group.read().unwrap();
            assert_eq!(
                frozen,
                again,
                "{}: a disabled group must freeze",
                group.backend()
            );
        }
    }

    #[test]
    fn windows_difference_cleanly_with_since() {
        for mut group in all_backends() {
            group.enable().unwrap();
            let _ = spin();
            let first = group.read().unwrap();
            let _ = spin();
            let second = group.read().unwrap();
            let delta = second.since(&first);
            assert!(delta.time_enabled_ns > 0, "{}", group.backend());
            assert!(delta.time_enabled_ns <= second.time_enabled_ns);
            if group.has_hw_counters() {
                assert!(delta.instructions > 0, "spin retires instructions");
            }
            // Differencing against a later snapshot saturates to zero
            // rather than wrapping.
            assert_eq!(first.since(&second).cycles, 0);
            assert_eq!(first.since(&second).time_enabled_ns, 0);
        }
    }

    #[test]
    fn reset_zeroes_counts() {
        for mut group in all_backends() {
            group.enable().unwrap();
            let _ = spin();
            group.disable().unwrap();
            let before = group.read().unwrap();
            group.reset().unwrap();
            let after = group.read().unwrap();
            assert!(
                after.cycles <= before.cycles,
                "{}: reset must not grow counts",
                group.backend()
            );
            if group.has_hw_counters() {
                assert_eq!(after.cycles, 0, "a disabled, reset counter reads zero");
                assert_eq!(after.instructions, 0);
            }
        }
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = CounterKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["cycles", "instructions", "llc_misses", "dtlb_misses"]
        );
        let snap = CounterSnapshot {
            cycles: 1,
            instructions: 2,
            llc_misses: 3,
            dtlb_misses: 4,
            ..CounterSnapshot::default()
        };
        for (i, kind) in CounterKind::ALL.into_iter().enumerate() {
            assert_eq!(snap.get(kind), i as u64 + 1);
        }
    }
}
