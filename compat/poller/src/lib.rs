//! Offline stand-in for a readiness-notification poller.
//!
//! The workspace builds in environments without a crates.io mirror, so
//! external dependencies are vendored as minimal API-compatible
//! subsets; this crate is that subset for an event poller (in the
//! spirit of the `polling` crate): register sockets for readability /
//! writability, block in [`Poller::wait`] until something is actually
//! ready, and ring a user-space wake handle ([`Poller::notify`]) from
//! any thread to cut a wait short.
//!
//! The crate is unix-only. Two backends, selected automatically (or
//! forced through the `WIDX_POLLER` environment variable /
//! [`Poller::with_backend`]):
//!
//! * **`epoll`** (Linux, the default there) — kernel interest list,
//!   level-triggered, an `eventfd` as the wake handle;
//! * **`poll`** (any unix) — a user-space interest list swept by
//!   `poll(2)`, a non-blocking self-pipe as the wake handle.
//!
//! # Semantics
//!
//! Level-triggered: a source that stays ready is reported by every
//! `wait`. Interest in *neither* direction parks the registration (the
//! source stays registered but is never reported — and never spins the
//! loop on a hung-up peer). The wake handle is edge-like and coalescing:
//! any number of `notify` calls between two waits produce exactly one
//! early return, and a notify that lands *before* `wait` is observed by
//! it — there is no window in which a wake can be lost.
//!
//! `unsafe` is confined to `sys.rs` (raw syscalls the platform libc
//! already links); everything above it is safe code.

#![warn(missing_docs)]

mod sys;

#[cfg(target_os = "linux")]
mod epoll;
mod poll;

use std::io;
use std::time::Duration;

/// The raw OS handle a [`Source`] exposes: a file descriptor.
pub type RawSource = std::os::unix::io::RawFd;

/// Anything registrable with a [`Poller`]. Blanket-implemented for all
/// `AsRawFd` types (sockets, listeners, pipes), so `TcpStream` and
/// `TcpListener` register directly.
pub trait Source {
    /// The raw OS handle to register.
    fn raw(&self) -> RawSource;
}

impl<T: std::os::unix::io::AsRawFd> Source for T {
    fn raw(&self) -> RawSource {
        self.as_raw_fd()
    }
}

/// Reserved internally for the wake handle; user keys must be smaller.
pub(crate) const WAKE_KEY: usize = usize::MAX;

/// A readiness interest or report: which source (by caller-chosen
/// `key`) and which directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier carried back by [`Poller::wait`]
    /// (anything below `usize::MAX`).
    pub key: usize,
    /// Interest in / readiness for reading (accept counts as a read).
    pub readable: bool,
    /// Interest in / readiness for writing.
    pub writable: bool,
}

impl Event {
    /// Read interest only.
    #[must_use]
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Write interest only.
    #[must_use]
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both directions.
    #[must_use]
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest: parks the registration (never reported, never
    /// spins on ERR/HUP) without deregistering it.
    #[must_use]
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::EpollPoller),
    Poll(poll::PollPoller),
}

/// Converts an optional wait bound into poll/epoll's millisecond
/// convention: `None` blocks (`-1`), sub-millisecond bounds round *up*
/// so a 100µs cap cannot degenerate into a hot zero-timeout spin.
pub(crate) fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            if ms == 0 && !t.is_zero() {
                1
            } else {
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        }
    }
}

/// A readiness poller with a user-space wake handle. See the crate
/// docs for backend selection and semantics.
///
/// `notify` rings the backend's wake source unconditionally — no
/// user-space "already notified" flag. Such a flag can be cleared by a
/// `wait` in the same instant a racing `notify` decides to skip the
/// ring, silently swallowing the wake; always ringing makes "no lost
/// wake" true by construction, and bursts still coalesce *at the wake
/// source* (an eventfd accumulates a counter, a pipe accumulates
/// bytes — each drained by one wait).
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a poller on the platform's best backend, honouring a
    /// `WIDX_POLLER` environment override (`epoll` / `poll`).
    ///
    /// # Errors
    ///
    /// Backend setup failure (fd exhaustion), an override naming an
    /// unknown backend, or one unavailable on this platform.
    pub fn new() -> io::Result<Poller> {
        match std::env::var("WIDX_POLLER") {
            Ok(name) => Poller::with_backend(&name),
            Err(_) => Poller::with_backend(DEFAULT_BACKEND),
        }
    }

    /// Creates a poller on a named backend: `"epoll"` or `"poll"`.
    ///
    /// # Errors
    ///
    /// Backend setup failure, an unknown name, or a backend unavailable
    /// on this platform.
    pub fn with_backend(name: &str) -> io::Result<Poller> {
        let backend = match name {
            #[cfg(target_os = "linux")]
            "epoll" => Backend::Epoll(epoll::EpollPoller::new()?),
            "poll" => Backend::Poll(poll::PollPoller::new()?),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown or unavailable poller backend {other:?}"),
                ))
            }
        };
        Ok(Poller { backend })
    }

    /// The active backend's name (`"epoll"` or `"poll"`).
    #[must_use]
    pub fn backend(&self) -> &'static str {
        match self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Registers `source` with an initial `interest`. The interest's
    /// `key` identifies the source in [`wait`](Poller::wait) reports.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the source is registered, or OS-level failure.
    pub fn add(&self, source: &impl Source, interest: Event) -> io::Result<()> {
        debug_assert!(interest.key != WAKE_KEY, "key usize::MAX is reserved");
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.add(source.raw(), interest),
            Backend::Poll(b) => b.add(source.raw(), interest),
        }
    }

    /// Replaces a registered source's interest (including its key).
    ///
    /// # Errors
    ///
    /// `NotFound` if the source is not registered, or OS-level failure.
    pub fn modify(&self, source: &impl Source, interest: Event) -> io::Result<()> {
        debug_assert!(interest.key != WAKE_KEY, "key usize::MAX is reserved");
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.modify(source.raw(), interest),
            Backend::Poll(b) => b.modify(source.raw(), interest),
        }
    }

    /// Deregisters `source`.
    ///
    /// # Errors
    ///
    /// `NotFound` if the source is not registered, or OS-level failure.
    pub fn delete(&self, source: &impl Source) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.delete(source.raw()),
            Backend::Poll(b) => b.delete(source.raw()),
        }
    }

    /// Blocks until a registered source is ready, the wake handle
    /// rings, or `timeout` passes (`None` blocks indefinitely). Clears
    /// and fills `events`; returns how many were reported. A return of
    /// zero events means timeout or wake — both are normal.
    ///
    /// # Errors
    ///
    /// OS-level failure (`EINTR` is retried internally).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let _woke = match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.wait(events, timeout)?,
            Backend::Poll(b) => b.wait(events, timeout)?,
        };
        Ok(events.len())
    }

    /// Rings the wake handle from any thread: a concurrent or
    /// subsequent [`wait`](Poller::wait) returns early (a burst of
    /// notifies between two waits coalesces into one early return at
    /// the wake source). State published before `notify` is visible to
    /// the woken thread after its `wait` returns.
    ///
    /// # Errors
    ///
    /// OS-level failure writing the wake fd.
    pub fn notify(&self) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.notify(),
            Backend::Poll(b) => b.notify(),
        }
    }
}

/// The platform's preferred backend.
#[cfg(target_os = "linux")]
pub const DEFAULT_BACKEND: &str = "epoll";
/// The platform's preferred backend.
#[cfg(not(target_os = "linux"))]
pub const DEFAULT_BACKEND: &str = "poll";

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Every backend constructible on this platform.
    fn all_backends() -> Vec<Poller> {
        let mut pollers = Vec::new();
        for name in ["epoll", "poll"] {
            if let Ok(p) = Poller::with_backend(name) {
                assert_eq!(p.backend(), name);
                pollers.push(p);
            }
        }
        assert!(!pollers.is_empty());
        pollers
    }

    #[test]
    fn default_backend_constructs() {
        let poller = Poller::new().expect("default backend");
        assert!(["epoll", "poll"].contains(&poller.backend()));
        assert!(Poller::with_backend("no-such-backend").is_err());
        assert!(Poller::with_backend("timeout").is_err());
    }

    #[test]
    fn registration_lifecycle_add_modify_delete() {
        for poller in all_backends() {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            poller.add(&listener, Event::readable(3)).unwrap();
            assert_eq!(
                poller
                    .add(&listener, Event::readable(3))
                    .expect_err("double add")
                    .kind(),
                io::ErrorKind::AlreadyExists,
                "{}",
                poller.backend()
            );
            poller.modify(&listener, Event::all(4)).unwrap();
            poller.modify(&listener, Event::none(4)).unwrap();
            poller.delete(&listener).unwrap();
            assert!(poller.delete(&listener).is_err(), "{}", poller.backend());
            assert!(
                poller.modify(&listener, Event::readable(3)).is_err(),
                "{}",
                poller.backend()
            );
            // Deleted sources can be re-registered.
            poller.add(&listener, Event::readable(5)).unwrap();
        }
    }

    #[test]
    fn listener_readability_tracks_pending_connections() {
        for poller in all_backends() {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            poller.add(&listener, Event::readable(7)).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(25)))
                .unwrap();
            assert!(events.is_empty(), "{}: nothing pending", poller.backend());

            let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 7 && e.readable),
                "{}: pending accept is readable, got {events:?}",
                poller.backend()
            );
        }
    }

    #[test]
    fn interest_toggle_parks_and_revives_a_source() {
        for poller in all_backends() {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            stream.set_nonblocking(true).unwrap();
            poller.add(&stream, Event::writable(1)).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 1 && e.writable),
                "{}: an idle connected socket is writable",
                poller.backend()
            );
            // Parked: still writable underneath, but never reported.
            poller.modify(&stream, Event::none(1)).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(25)))
                .unwrap();
            assert!(events.is_empty(), "{}: parked", poller.backend());
            poller.modify(&stream, Event::writable(2)).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 2 && e.writable),
                "{}: revived under the new key",
                poller.backend()
            );
        }
    }

    #[test]
    fn parked_source_with_hung_up_peer_stays_silent() {
        use std::io::Write as _;
        // Regression: epoll always reports ERR/HUP, even for an empty
        // interest mask — a parked fd with a dead peer must not storm
        // `wait` (the backend keeps parked fds out of the kernel set).
        for poller in all_backends() {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (served, _) = listener.accept().unwrap();
            poller.add(&served, Event::readable(5)).unwrap();
            poller.modify(&served, Event::none(5)).unwrap();
            // Unread data at hangup elicits an RST — the loudest form
            // of peer death (ERR and HUP both set).
            client.write_all(b"unread").unwrap();
            drop(client);
            std::thread::sleep(Duration::from_millis(30));
            let mut events = Vec::new();
            for _ in 0..3 {
                poller
                    .wait(&mut events, Some(Duration::from_millis(40)))
                    .unwrap();
                assert!(
                    events.is_empty(),
                    "{}: parked fd surfaced {events:?}",
                    poller.backend()
                );
            }
            // Reviving the interest surfaces the pending death again.
            poller.modify(&served, Event::all(6)).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 6),
                "{}: revived fd must report readiness",
                poller.backend()
            );
        }
    }

    #[test]
    fn wake_rung_before_wait_is_not_lost() {
        for poller in all_backends() {
            poller.notify().unwrap();
            let started = Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "{}: a pre-rung wake must cut the wait short (took {:?})",
                poller.backend(),
                started.elapsed()
            );
        }
    }

    #[test]
    fn wake_is_consumed_once_and_coalesced() {
        for poller in all_backends() {
            for _ in 0..5 {
                poller.notify().unwrap();
            }
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            // The burst coalesced into that one early return: the next
            // wait runs its full timeout.
            let started = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_millis(60)))
                .unwrap();
            assert!(
                started.elapsed() >= Duration::from_millis(40),
                "{}: no stale wake may linger (returned after {:?})",
                poller.backend(),
                started.elapsed()
            );
            // And the handle still works after the coalesced cycle.
            poller.notify().unwrap();
            let started = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(started.elapsed() < Duration::from_secs(2));
        }
    }

    #[test]
    fn wake_from_another_thread_cuts_a_blocked_wait_short() {
        for poller in all_backends() {
            let poller = std::sync::Arc::new(poller);
            let ringer = std::sync::Arc::clone(&poller);
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                ringer.notify().unwrap();
            });
            let started = Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{}: cross-thread wake must interrupt the wait",
                poller.backend()
            );
            handle.join().unwrap();
        }
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }
}
