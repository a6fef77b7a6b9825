//! Setting the stack up, and driving it: one client, one thread, a
//! closed loop at a fixed pipeline depth — over the wire
//! ([`NetTransport`]) or straight into the service ([`ServeTransport`]).

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use widx_db::epoch::EpochDomain;
use widx_db::hash::HashRecipe;
use widx_net::{ErrorCode, NetConfig, WidxClient, WidxServer};
use widx_serve::{
    NetStats, OrderedShardedIndex, PendingResponse, ProbeService, Request, Response, ServeConfig,
    ServiceStats, ShardedIndex,
};

use crate::host;
use crate::spans::{Clock, SpanBuf, SpanId, NO_SPAN};
use crate::stats::{self, Windows};
use crate::workload::{build_pairs, Spec, Traffic};

/// Shards of both tiers. Everything else in `ServeConfig` and
/// `NetConfig` stays at its default, so a later change of a default
/// shows in the numbers.
pub const SHARDS: usize = 2;

/// The whole system under test, in one process.
pub struct Stack {
    pub service: Arc<ProbeService>,
    pub server: WidxServer,
    pub client: WidxClient,
}

pub struct SetupTimes {
    /// Key generation + index build + service start + bind + connect.
    pub total_s: f64,
    /// The index builds alone (both tiers where the workload has two).
    pub build_s: f64,
}

impl Stack {
    /// Builds the workload's index from `seed` and starts serving it on
    /// a loopback port. `trace_sample` arms the service's own flight
    /// recorder (0 leaves it off, the default).
    ///
    /// # Errors
    ///
    /// Failure to bind or connect the loopback socket.
    pub fn setup(spec: &Spec, seed: u64, trace_sample: u64) -> io::Result<(Stack, SetupTimes)> {
        let started = Instant::now();
        let config = ServeConfig::default()
            .with_shards(SHARDS)
            .with_trace_sample(trace_sample);
        let pairs = build_pairs(spec, seed);
        let domain = EpochDomain::new();
        let build_started = Instant::now();
        let sharded = ShardedIndex::build(
            HashRecipe::robust64(),
            config.shards,
            config.min_buckets,
            config.load,
            &domain,
            pairs.iter().copied(),
        );
        let ordered = spec
            .ordered
            .then(|| OrderedShardedIndex::build(config.fanout, config.shards, &domain, pairs));
        let build_s = build_started.elapsed().as_secs_f64();
        let service = Arc::new(match ordered {
            Some(ordered) => ProbeService::start_with_ordered(sharded, ordered, &config),
            None => ProbeService::start(sharded, &config),
        });
        let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())?;
        let client = WidxClient::connect(server.local_addr())?;
        let times = SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            build_s,
        };
        Ok((
            Stack {
                service,
                server,
                client,
            },
            times,
        ))
    }

    /// Closes the connection, drains and joins every thread of the
    /// stack, and hands back the final counters.
    #[must_use]
    pub fn teardown(self) -> (ServiceStats, NetStats) {
        drop(self.client);
        let net = self.server.shutdown();
        let service = Arc::into_inner(self.service).expect("server threads joined");
        (service.shutdown(), net)
    }
}

/// Why a request got no usable reply.
pub struct Refusal {
    /// A typed `Busy` frame (backpressure) rather than an error.
    pub busy: bool,
    pub message: String,
}

/// One way of getting a request to the service and its reply back.
pub trait Transport {
    /// Span names: a request's root, and the two boundary calls.
    const REQUEST: &'static str;
    const SEND: &'static str;
    const RECV: &'static str;

    /// Hands one request over without waiting; returns its id.
    fn send(&mut self, request: &Request) -> io::Result<u64>;

    /// Blocks for the next completed request.
    fn recv(&mut self) -> io::Result<(u64, Result<Response, Refusal>)>;
}

/// `WidxClient::send` / `recv_any` over loopback TCP.
pub struct NetTransport<'a>(pub &'a mut WidxClient);

impl Transport for NetTransport<'_> {
    const REQUEST: &'static str = "net.request";
    const SEND: &'static str = "net.send";
    const RECV: &'static str = "net.recv";

    fn send(&mut self, request: &Request) -> io::Result<u64> {
        self.0.send(request)
    }

    fn recv(&mut self) -> io::Result<(u64, Result<Response, Refusal>)> {
        let (id, reply) = self.0.recv_any()?;
        let reply = reply.map_err(|e| Refusal {
            busy: e.code == ErrorCode::Busy,
            message: e.to_string(),
        });
        Ok((id, reply))
    }
}

/// `ProbeService::submit` / `PendingResponse::wait` from the caller's
/// own thread: the same stream with no codec, socket or reactor.
pub struct ServeTransport<'a> {
    service: &'a ProbeService,
    pending: VecDeque<(u64, PendingResponse)>,
    next_id: u64,
}

impl<'a> ServeTransport<'a> {
    #[must_use]
    pub fn new(service: &'a ProbeService) -> ServeTransport<'a> {
        ServeTransport {
            service,
            pending: VecDeque::new(),
            next_id: 0,
        }
    }
}

impl Transport for ServeTransport<'_> {
    const REQUEST: &'static str = "serve.request";
    const SEND: &'static str = "serve.submit";
    const RECV: &'static str = "serve.wait";

    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let pending = self
            .service
            .submit(request.clone())
            .map_err(io::Error::other)?;
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back((id, pending));
        Ok(id)
    }

    fn recv(&mut self) -> io::Result<(u64, Result<Response, Refusal>)> {
        let (id, pending) = self
            .pending
            .pop_front()
            .ok_or_else(|| io::Error::other("nothing in flight"))?;
        Ok((id, Ok(pending.wait())))
    }
}

/// What the closed loop asks of its caller: the next request to send,
/// and what to do with each reply.
pub trait Script {
    /// The next request and its read floor (see [`Traffic::next_request`]), or
    /// `None` to stop sending and let the pipeline drain.
    fn next(&mut self, now_ns: u64) -> Option<(Request, u32)>;

    /// A request sent at `sent_ns` completed at `now_ns`.
    fn done(
        &mut self,
        request: &Request,
        floor: u32,
        reply: Result<Response, Refusal>,
        sent_ns: u64,
        now_ns: u64,
    );
}

struct Flight {
    id: u64,
    request: Request,
    floor: u32,
    sent_ns: u64,
    root: SpanId,
}

/// Keeps `depth` requests of `script` in flight on `transport` until
/// the script ends and the pipeline has drained. With `spans`, records
/// a root span per request and one child per boundary call.
///
/// # Errors
///
/// A broken connection, or a reply to a request that was never sent.
pub fn closed_loop<T: Transport>(
    transport: &mut T,
    depth: usize,
    script: &mut impl Script,
    clock: Clock,
    mut spans: Option<&mut SpanBuf>,
) -> io::Result<()> {
    let mut flights: Vec<Flight> = Vec::with_capacity(depth);
    let mut feeding = true;
    loop {
        while feeding && flights.len() < depth {
            let sent_ns = clock.now_ns();
            let Some((request, floor)) = script.next(sent_ns) else {
                feeding = false;
                break;
            };
            let id = transport.send(&request)?;
            let mut root = NO_SPAN;
            if let Some(spans) = spans.as_deref_mut() {
                root = spans.push(T::REQUEST, sent_ns, sent_ns, NO_SPAN, id);
                spans.push(T::SEND, sent_ns, clock.now_ns(), root, id);
            }
            flights.push(Flight {
                id,
                request,
                floor,
                sent_ns,
                root,
            });
        }
        if flights.is_empty() {
            return Ok(());
        }
        let recv_ns = clock.now_ns();
        let (id, reply) = transport.recv()?;
        let now_ns = clock.now_ns();
        let at = flights.iter().position(|f| f.id == id).ok_or_else(|| {
            io::Error::other(format!("reply to request {id}, which is not in flight"))
        })?;
        let flight = flights.swap_remove(at);
        if let Some(spans) = spans.as_deref_mut() {
            if flight.root != NO_SPAN {
                spans.push(T::RECV, recv_ns, now_ns, flight.root, id);
                spans.set_end(flight.root, now_ns);
            }
        }
        script.done(&flight.request, flight.floor, reply, flight.sent_ns, now_ns);
    }
}

/// Requests sent, and those that got no correct reply.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// `Busy` or error frames, plus replies that failed verification.
    pub failed: u64,
    /// The `Busy` frames among `failed`.
    pub busy: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
    }

    /// Checks one reply and counts it; `true` when it was correct.
    fn count(
        &mut self,
        traffic: &mut Traffic,
        request: &Request,
        floor: u32,
        reply: &Result<Response, Refusal>,
    ) -> bool {
        self.attempted += 1;
        let ok = match reply {
            Ok(response) => traffic.check(request, floor, response),
            Err(refusal) => {
                self.busy += u64::from(refusal.busy);
                if self.failed == 0 {
                    eprintln!("bench_layers: first refused request: {}", refusal.message);
                }
                false
            }
        };
        if !ok {
            if self.failed == 0 && reply.is_ok() {
                let shown: String = format!("{request:?}").chars().take(120).collect();
                eprintln!("bench_layers: first wrong reply was to {shown}");
            }
            self.failed += 1;
        }
        ok
    }
}

/// Process and host readings taken at one instant.
#[derive(Clone, Copy)]
struct Mark {
    cpu_ns: u64,
    steal: (u64, u64),
}

impl Mark {
    fn take() -> Mark {
        Mark {
            cpu_ns: host::process_cpu_ns(),
            steal: host::steal_ticks(),
        }
    }
}

/// A warm-up followed by a timed phase cut into equal windows. Replies
/// are verified after their latency is stamped; only correct ones that
/// complete inside a window count toward it.
pub struct TimedPhase<'a> {
    traffic: &'a mut Traffic,
    /// Clock readings: the timed phase is `[begin_ns, end_ns)`.
    begin_ns: u64,
    end_ns: u64,
    windows: Windows,
    tally: Tally,
    begin: Option<Mark>,
    end: Option<(Mark, u64)>,
}

/// Length of one window of a timed phase.
pub const WINDOW_NS: u64 = 500_000_000;

impl<'a> TimedPhase<'a> {
    /// A phase starting now: `warmup_s` untimed, then `windows`.
    #[must_use]
    pub fn new(traffic: &'a mut Traffic, clock: Clock, warmup_s: f64, windows: Windows) -> Self {
        let begin_ns = clock.now_ns() + (warmup_s * 1e9) as u64;
        TimedPhase {
            traffic,
            begin_ns,
            end_ns: begin_ns + windows.span_ns(),
            windows,
            tally: Tally::default(),
            begin: None,
            end: None,
        }
    }

    /// The phase's raw record, once [`closed_loop`] has returned.
    #[must_use]
    pub fn finish(self) -> Phase {
        let begin = self.begin.expect("phase reached its timed part");
        let (end, rss_end) = self.end.expect("phase ran to its end");
        Phase {
            tally: self.tally,
            windows: self.windows,
            cpu_ns: end.cpu_ns - begin.cpu_ns,
            steal: (end.steal.0 - begin.steal.0, end.steal.1 - begin.steal.1),
            rss_end,
        }
    }
}

impl Script for TimedPhase<'_> {
    fn next(&mut self, now_ns: u64) -> Option<(Request, u32)> {
        // The marks land within one request of the phase's edges, which
        // is a ten-thousandth of its length.
        if self.begin.is_none() && now_ns >= self.begin_ns {
            self.begin = Some(Mark::take());
        }
        if now_ns >= self.end_ns {
            self.end
                .get_or_insert_with(|| (Mark::take(), host::rss_bytes()));
            return None;
        }
        Some(self.traffic.next_request())
    }

    fn done(
        &mut self,
        request: &Request,
        floor: u32,
        reply: Result<Response, Refusal>,
        sent_ns: u64,
        now_ns: u64,
    ) {
        let ok = self.tally.count(self.traffic, request, floor, &reply);
        if ok && now_ns >= self.begin_ns {
            let units = Traffic::units(request);
            self.windows
                .record(now_ns - self.begin_ns, now_ns - sent_ns, units);
        }
    }
}

/// One timed phase as recorded.
pub struct Phase {
    /// Every request of the phase, warm-up and drain included.
    pub tally: Tally,
    pub windows: Windows,
    /// Process CPU time over the timed part.
    pub cpu_ns: u64,
    /// `(steal, total)` host CPU ticks over the timed part.
    pub steal: (u64, u64),
    /// Resident bytes at the end of the timed part.
    pub rss_end: u64,
}

/// The figures of one or more phases of the same workload, their
/// windows pooled: throughput and latency are medians over all the
/// windows, CPU time is summed. Percentiles the phases were too short
/// for are NaN.
pub struct Summary {
    /// Every request of the phases, warm-up and drain included.
    pub tally: Tally,
    /// Latency samples, and units of work, inside the windows.
    pub samples: usize,
    pub units: u64,
    pub keys_per_s: f64,
    pub req_p50_us: f64,
    pub req_p90_us: f64,
    pub req_p99_us: f64,
    pub req_p999_us: f64,
    pub cpu_ns_per_key: f64,
    pub window_iqr_frac: f64,
    pub steal_frac: f64,
    pub window_rates: Vec<f64>,
}

impl Summary {
    #[must_use]
    pub fn of(phases: &[Phase]) -> Summary {
        let pooled = |per_window: fn(&Windows) -> Vec<f64>| -> Vec<f64> {
            phases.iter().flat_map(|p| per_window(&p.windows)).collect()
        };
        let rates = pooled(Windows::rates);
        let median_us = |picks: Vec<f64>| stats::median(&picks) / 1e3;
        let mut latencies: Vec<u64> = phases
            .iter()
            .flat_map(|p| p.windows.latencies_ns())
            .copied()
            .collect();
        latencies.sort_unstable();
        let tail_us =
            |q: f64| stats::percentile(&latencies, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        let units: u64 = phases.iter().map(|p| p.windows.total_units()).sum();
        let cpu_ns: u64 = phases.iter().map(|p| p.cpu_ns).sum();
        let steal = phases
            .iter()
            .fold((0, 0), |sum, p| (sum.0 + p.steal.0, sum.1 + p.steal.1));
        let mut tally = Tally::default();
        phases.iter().for_each(|p| tally.add(p.tally));
        Summary {
            tally,
            samples: latencies.len(),
            units,
            keys_per_s: stats::median(&rates),
            req_p50_us: median_us(pooled(|w| w.window_percentiles(0.50))),
            req_p90_us: median_us(pooled(|w| w.window_percentiles(0.90))),
            req_p99_us: tail_us(0.99),
            req_p999_us: tail_us(0.999),
            cpu_ns_per_key: cpu_ns as f64 / units as f64,
            window_iqr_frac: stats::iqr_frac(&rates),
            steal_frac: host::steal_frac(steal),
            window_rates: rates,
        }
    }
}

/// Runs one warm-up + timed phase of `traffic` on `transport`.
///
/// # Errors
///
/// As [`closed_loop`].
pub fn run_phase<T: Transport>(
    transport: &mut T,
    spec: &Spec,
    traffic: &mut Traffic,
    clock: Clock,
    warmup_s: f64,
    windows: Windows,
    spans: Option<&mut SpanBuf>,
) -> io::Result<Phase> {
    let mut phase = TimedPhase::new(traffic, clock, warmup_s, windows);
    closed_loop(transport, spec.depth, &mut phase, clock, spans)?;
    Ok(phase.finish())
}

/// After `rw_hot`: reads every key the run wrote and checks it holds
/// its last written value. (Nothing to read on the other workloads.)
struct Readback<'a> {
    traffic: &'a mut Traffic,
    next: usize,
    tally: Tally,
}

impl Script for Readback<'_> {
    fn next(&mut self, _now_ns: u64) -> Option<(Request, u32)> {
        let key = *self.traffic.oracle.touched().get(self.next)?;
        self.next += 1;
        Some(self.traffic.readback(key))
    }

    fn done(
        &mut self,
        request: &Request,
        floor: u32,
        reply: Result<Response, Refusal>,
        _: u64,
        _: u64,
    ) {
        self.tally.count(self.traffic, request, floor, &reply);
    }
}

/// Runs the read-back pass over the wire.
///
/// # Errors
///
/// As [`closed_loop`].
pub fn read_back(
    client: &mut WidxClient,
    spec: &Spec,
    traffic: &mut Traffic,
    clock: Clock,
) -> io::Result<Tally> {
    let mut script = Readback {
        traffic,
        next: 0,
        tally: Tally::default(),
    };
    closed_loop(
        &mut NetTransport(client),
        spec.depth,
        &mut script,
        clock,
        None,
    )?;
    Ok(script.tally)
}
