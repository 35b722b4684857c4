//! `gateway_mix`: the request path a tenant feels.
//!
//! An in-process `serve("127.0.0.1:0", …)` with the default `RouterConfig`
//! and two workers; 1024 registered tenants multiplexed over two TCP
//! connections, so every tenant stays under its 500 req/s quota. The mix
//! is the loadgen's: metrics windows, fetches, throttle signals and apply
//! acks 60:15:10:10. `Health` and `Stats` share the gateway-wide anonymous
//! admission bucket (500 req/s in all), so they are paced by the clock — one
//! `Health` per 20 ms and one `Stats` per 50 ms per connection — not by a
//! share of the traffic, or they would be shed at saturation.
//!
//! * Warm-up: a fixed 200k requests of the closed loop below, untimed; the
//!   peak resident set is read when it ends (the access log grows with every
//!   request, so memory only compares at equal work).
//! * Phase A, closed loop: sixteen tenant agents per connection, no pacing,
//!   driven by one polling generator thread; throughput per slice, the upper
//!   quartile of the slices is the ceiling.
//! * Phase B, open loop (tenant agents send when their windows close, not
//!   when the gateway answers): one sender thread on non-blocking sockets,
//!   a ladder of fixed rates, latency from the *intended* send time.
//! * Phase L, lone requests: one at a time from a blocking caller that
//!   shares the gateway's core; the round trip is the workload's latency.
//! * Phase C: one tenant far over quota must be shed with `Busy`.
//!
//! Server counters are read through the `Stats` request, as a tenant would.

use crate::affinity;
use crate::metrics::{Checks, Outcome, Values};
use crate::stats::{self, median, quantile_sorted, ratio, timed};
use crate::trace::{Recorder, Span, ROOT};
use crate::Args;
use autodbaas_gateway::{
    frame, serve, Admission, Decoded, GatewayHandle, GatewayState, Request, Response, RouterConfig,
    ServerConfig, WallClock,
};
use autodbaas_telemetry::MILLIS_PER_HOUR;
use autodbaas_workload::{ArrivalProcess, DiurnalProfile};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNS: usize = 2;
/// Open-loop ladder, requests per second.
const LADDER: [f64; 5] = [10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0];
/// The ladder rate whose median is the workload's `latency_ms`.
const LATENCY_RATE: f64 = 20_000.0;
/// A ladder step passes only with its p99 under this.
const P99_LIMIT_US: f64 = 1_000.0;
const HEALTH_EVERY: Duration = Duration::from_millis(20);
const STATS_EVERY: Duration = Duration::from_millis(50);

struct Sizes {
    tenants: usize,
    /// Requests of the untimed warm-up, after which memory is read.
    warm_requests: u64,
    /// Tenant agents with a request in flight on each connection in phase A.
    callers_per_conn: usize,
    /// Open-loop rates, requests per second.
    ladder: &'static [f64],
    /// Shares of `--seconds`.
    closed_s: f64,
    lone_s: f64,
    step_s: f64,
    overquota_s: f64,
    slices: usize,
}

fn sizes(args: &Args) -> Sizes {
    if args.quick {
        // Few enough tenants to register in a blink, and traffic that stays
        // under their combined quota.
        Sizes {
            tenants: 128,
            warm_requests: 2_000,
            callers_per_conn: 1,
            ladder: &LADDER[..2],
            closed_s: 0.4,
            lone_s: 0.1,
            step_s: 0.1,
            overquota_s: 0.1,
            slices: 4,
        }
    } else {
        Sizes {
            tenants: 1024,
            warm_requests: 200_000,
            callers_per_conn: 16,
            ladder: &LADDER,
            closed_s: args.seconds * 0.4,
            lone_s: args.seconds * 0.1,
            step_s: args.seconds * 0.08,
            overquota_s: args.seconds * 0.04,
            slices: 18,
        }
    }
}

// ------------------------------------------------------------ the traffic

/// Request kinds, for per-kind accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Metrics,
    Fetch,
    Throttle,
    Ack,
    Health,
    Stats,
    Register,
}

fn kind_of(req: &Request) -> Kind {
    match req {
        Request::RegisterService { .. } => Kind::Register,
        Request::PushMetricsWindow { .. } => Kind::Metrics,
        Request::ThrottleSignal { .. } => Kind::Throttle,
        Request::FetchRecommendation { .. } => Kind::Fetch,
        Request::ApplyAck { .. } => Kind::Ack,
        Request::Health => Kind::Health,
        Request::Stats => Kind::Stats,
    }
}

/// Does `resp` answer a request of `kind` (as opposed to shedding or
/// refusing it)?
fn answers(kind: Kind, resp: &Response) -> bool {
    matches!(
        (kind, resp),
        (Kind::Register, Response::Registered { .. })
            | (Kind::Metrics, Response::Classified { .. })
            | (Kind::Throttle, Response::ThrottleQueued { .. })
            | (Kind::Fetch, Response::Recommendation { .. })
            | (Kind::Ack, Response::ApplyRecorded)
            | (Kind::Health, Response::Healthy { .. })
            | (Kind::Stats, Response::StatsReply { .. })
    )
}

/// One connection's share of the tenants and its seeded request stream.
/// Each tenant keeps its own simulated clock, one hour per metrics window,
/// as the loadgen's tenants do.
struct Stream {
    rng: StdRng,
    tenants: Vec<u64>,
    sim_time: Vec<u64>,
    windows: Vec<u64>,
    arrival: ArrivalProcess,
    cursor: usize,
    next_health: Instant,
    next_stats: Instant,
}

impl Stream {
    fn new(seed: u64, tenants: Vec<u64>) -> Self {
        let n = tenants.len();
        let now = Instant::now();
        Self {
            rng: StdRng::seed_from_u64(seed),
            sim_time: (0..n as u64).map(|i| (i % 24) * MILLIS_PER_HOUR).collect(),
            windows: vec![0; n],
            tenants,
            arrival: ArrivalProcess::Diurnal(DiurnalProfile::default()),
            cursor: 0,
            next_health: now + HEALTH_EVERY,
            next_stats: now + STATS_EVERY,
        }
    }

    /// The next request of the mix, for the next tenant in turn.
    fn next_tenant_request(&mut self) -> Request {
        let slot = self.cursor;
        self.cursor = (self.cursor + 1) % self.tenants.len();
        let tenant = self.tenants[slot];
        let roll = self.rng.gen_range(0u32..95);
        if roll < 60 {
            const WINDOW_MS: u32 = MILLIS_PER_HOUR as u32;
            self.windows[slot] += 1;
            let mut class_counts = [0u64; 6];
            for c in &mut class_counts {
                *c = self.arrival.sample_count(
                    &mut self.rng,
                    self.sim_time[slot],
                    u64::from(WINDOW_MS),
                ) / 6;
            }
            self.sim_time[slot] += u64::from(WINDOW_MS);
            Request::PushMetricsWindow {
                tenant,
                window_start: self.sim_time[slot],
                window_ms: WINDOW_MS,
                class_counts,
                throttled: self.windows[slot].is_multiple_of(3),
                knob_at_cap: self.windows[slot].is_multiple_of(9),
            }
        } else if roll < 75 {
            Request::FetchRecommendation {
                tenant,
                now: self.sim_time[slot],
            }
        } else if roll < 85 {
            Request::ThrottleSignal {
                tenant,
                at: self.sim_time[slot],
                knob_class: (self.rng.next_u32() % 3) as u8,
                service_time_ms: 90_000 + self.rng.next_u32() % 40_000,
            }
        } else {
            Request::ApplyAck {
                tenant,
                at: self.sim_time[slot],
                ok: self.rng.gen_range(0u32..10) != 0,
            }
        }
    }

    /// The next request to send at wall time `now`: a probe when one is due,
    /// else the mix.
    fn next(&mut self, now: Instant) -> Request {
        if now >= self.next_health {
            self.next_health = now + HEALTH_EVERY;
            Request::Health
        } else if now >= self.next_stats {
            self.next_stats = now + STATS_EVERY;
            Request::Stats
        } else {
            self.next_tenant_request()
        }
    }
}

/// Tallies shared by every phase. A request of an in-quota tenant that is
/// shed, refused, answered with the wrong kind or never answered has failed.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    /// Requests sent by the over-quota tenant of phase C and how many were
    /// shed; neither counts as attempted or failed.
    overquota_sent: u64,
    overquota_busy: u64,
}

// ------------------------------------------------------------- the client

/// The benchmark's client: one TCP connection carrying frames both ways,
/// any number of requests in flight, replies matched to requests in order.
struct Pipe {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Send time (ns on the caller's clock; the *intended* one in the open
    /// loop) and kind of every request not yet answered, in order.
    inflight: VecDeque<(u64, Kind)>,
}

impl Pipe {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the loopback gateway");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set the read timeout");
        Self {
            stream,
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            inbuf: Vec::with_capacity(1 << 16),
            inflight: VecDeque::new(),
        }
    }

    fn set_nonblocking(&self, on: bool) {
        self.stream
            .set_nonblocking(on)
            .expect("switch the socket's blocking mode");
    }

    fn queue(&mut self, req: &Request, sent_ns: u64) {
        let bytes = frame::encode(&req.encode()).expect("a request fits a frame");
        self.out.extend_from_slice(&bytes);
        self.inflight.push_back((sent_ns, kind_of(req)));
    }

    /// Hand the kernel the pending output: all of it on a blocking socket,
    /// as much as it takes on a non-blocking one.
    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => break,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("write to the gateway failed: {e}"),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Read what has arrived (waiting for the first byte on a blocking
    /// socket) and call `on_reply(sent_ns, kind, response)` for every
    /// complete reply. Returns how many there were.
    fn drain(&mut self, mut on_reply: impl FnMut(u64, Kind, Response)) -> usize {
        let mut chunk = [0u8; 16_384];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("the gateway closed the connection"),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read from the gateway failed: {e}"),
            }
        }
        let (mut pos, mut replies) = (0, 0);
        while let Ok(Decoded::Frame { payload, consumed }) = frame::decode(&self.inbuf[pos..]) {
            pos += consumed;
            let (sent_ns, kind) = self
                .inflight
                .pop_front()
                .expect("a reply without a request in flight");
            let resp = Response::decode(&payload).expect("a reply that decodes");
            on_reply(sent_ns, kind, resp);
            replies += 1;
        }
        self.inbuf.drain(..pos);
        replies
    }

    /// One request, one reply (blocking socket, nothing else in flight).
    fn call(&mut self, req: &Request) -> Response {
        self.queue(req, 0);
        self.flush();
        let mut reply = None;
        while reply.is_none() {
            self.drain(|_, _, resp| reply = Some(resp));
        }
        reply.expect("the loop ends with a reply")
    }
}

// ------------------------------------------------------------ the gateway

/// A running gateway with its tenants registered and connections open.
struct Rig {
    handle: GatewayHandle,
    pipes: Vec<Pipe>,
    streams: Vec<Stream>,
    /// Requests this set-up sent (registrations, including shed ones).
    sent: u64,
}

impl Rig {
    /// Close the connections, drain the gateway, join its threads.
    fn shutdown(self) {
        drop(self.pipes);
        drop(self.handle.shutdown());
    }
}

/// Bind, connect and register. Registration carries no tenant id yet, so it
/// draws on the anonymous bucket: 64 at once, then 500/s. The loop stays
/// just under that and backs off when shed anyway.
fn setup(seed: u64, tenants: usize) -> Rig {
    // The gateway's threads inherit the mask in force when `serve` spawns
    // them: theirs is the last allowed CPU, the load generator's the first
    // (see `affinity`).
    let cpus = affinity::allowed();
    if let Some(&last) = cpus.last() {
        affinity::pin(last);
    }
    let handle = serve(
        "127.0.0.1:0",
        GatewayState::new(RouterConfig::default()),
        ServerConfig {
            workers: CONNS,
            ..ServerConfig::default()
        },
        Arc::new(WallClock::new()),
    )
    .expect("bind a loopback gateway");
    if let Some(&first) = cpus.first() {
        affinity::pin(first);
    }
    let mut pipes: Vec<Pipe> = (0..CONNS).map(|_| Pipe::open(handle.addr())).collect();
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); CONNS];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e9);
    let mut sent = 0u64;
    let started = Instant::now();
    for i in 0..tenants {
        if i >= 60 {
            // 480/s: 60 from the burst, the rest on the refill.
            let due = started + Duration::from_micros((i as u64 - 60) * 2_083);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let req = Request::RegisterService {
            flavor: (rng.next_u32() % 2) as u8,
            instance: (rng.next_u32() % 6) as u8,
            disk: (rng.next_u32() % 2) as u8,
            n_slaves: (rng.next_u32() % 3) as u8,
            seed: seed ^ i as u64,
        };
        let conn = i % CONNS;
        loop {
            sent += 1;
            match pipes[conn].call(&req) {
                Response::Registered { tenant } => {
                    ids[conn].push(tenant);
                    break;
                }
                Response::Busy { retry_after_ms } => {
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                other => panic!("registration answered {other:?}"),
            }
        }
    }
    let streams = ids
        .into_iter()
        .enumerate()
        .map(|(c, t)| Stream::new(seed ^ ((c as u64 + 1) * 0x9e37), t))
        .collect();
    Rig {
        handle,
        pipes,
        streams,
        sent,
    }
}

// --------------------------------------------------- phase A: closed loop

/// When a closed loop stops sending.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    /// A fixed amount of work, whatever time it takes.
    Sent(u64),
}

/// `callers` tenant agents per connection, each sending its next request
/// the moment its last is answered: `callers` requests in flight on every
/// connection until `until`, then the last replies are collected.
///
/// One generator thread drives every connection on non-blocking sockets and
/// never sleeps. A caller thread per connection that blocks in `read` is
/// woken once per reply; on a two-core host those wake-ups cost more than
/// the gateway's work and settle into one of several clumping patterns for
/// seconds at a time (slices of one run read 120k and 175k req/s). A
/// generator that polls keeps the gateway's core the busy one, so the
/// ceiling is the gateway's. Returns requests per second.
fn phase_a(rig: &mut Rig, callers: usize, until: Until, slices: usize, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    // A fixed amount of work is one slice, as long as it takes.
    let mut slice_ns = match until {
        Until::Elapsed(run) => (run.as_nanos() as u64 / slices as u64).max(1),
        Until::Sent(_) => u64::MAX,
    };
    let mut per_slice = vec![0u64; slices];
    let mut rtt_us: Vec<f64> = Vec::new();
    let (mut sent, mut failed) = (0u64, 0u64);
    loop {
        let now = Instant::now();
        let now_ns = now.duration_since(start).as_nanos() as u64;
        let over = match until {
            Until::Elapsed(run) => now.duration_since(start) >= run,
            Until::Sent(n) => sent >= n,
        };
        let mut idle = true;
        for (pipe, stream) in rig.pipes.iter_mut().zip(&mut rig.streams) {
            if !over {
                for _ in pipe.inflight.len()..callers {
                    pipe.queue(&stream.next(now), now_ns);
                    sent += 1;
                }
            }
            pipe.flush();
            let replies = pipe.drain(|sent_ns, kind, resp| {
                if answers(kind, &resp) {
                    let end = start.elapsed().as_nanos() as u64;
                    // Replies that land after the last slice are the drain.
                    if let Some(n) = per_slice.get_mut((end / slice_ns) as usize) {
                        *n += 1;
                    }
                    rtt_us.push((end - sent_ns) as f64 / 1e3);
                } else {
                    failed += 1;
                }
            });
            idle &= replies == 0;
        }
        if over && rig.pipes.iter().all(|p| p.inflight.is_empty()) {
            break;
        }
        if idle {
            std::hint::spin_loop();
        }
    }
    tally.sent += sent;
    tally.failed += failed;
    if let Until::Sent(_) = until {
        slice_ns = start.elapsed().as_nanos() as u64;
    }
    let mut rps: Vec<f64> = per_slice
        .iter()
        .map(|&n| n as f64 * 1e9 / slice_ns as f64)
        .collect();
    let q = stats::quartiles(&mut rps);
    rtt_us.sort_by(f64::total_cmp);
    println!(
        "# closed_loop callers {} sent {sent} rps per slice: max {:.0} q3 {:.0} median {:.0} q1 {:.0} min {:.0} n {}; rtt_us p50 {:.1} p99 {:.1}",
        callers * CONNS,
        rps.last().copied().unwrap_or(0.0),
        q.q3,
        q.median,
        q.q1,
        rps.first().copied().unwrap_or(0.0),
        q.n,
        quantile_sorted(&rtt_us, 0.5),
        quantile_sorted(&rtt_us, 0.99),
    );
    // The upper quartile of the slices: whatever else runs on a shared host
    // only ever takes throughput away, but the single best slice is also
    // the luckiest one.
    q.q3
}

// ----------------------------------------------------- phase B: open loop

/// What one ladder step measured.
struct Step {
    rate: f64,
    sent: u64,
    failed: u64,
    latency_us: Vec<f64>,
    /// The lowest median among the step's tenths: the median latency with
    /// the host's slow moments left out (they only ever add).
    p50_floor_us: f64,
    /// How late the generator reached each request, against its schedule.
    gen_lag_us_p50: f64,
    gen_lag_us_p99: f64,
    backlog_max: u64,
    backlog_growing: bool,
}

impl Step {
    fn p(&self, q: f64) -> f64 {
        quantile_sorted(&self.latency_us, q)
    }

    /// The generator kept its schedule: it typically reached a request
    /// within a tenth of the gap between sends. (Typically, not at the 99th
    /// percentile: on a shared two-core host the sender loses its core for
    /// tens of microseconds now and then at any rate, and those moments
    /// already count against the step through the latencies, which run from
    /// the intended send time.) A step the generator could not drive says
    /// nothing about the gateway.
    fn valid(&self) -> bool {
        self.gen_lag_us_p50 <= 0.1 * 1e6 / self.rate
    }

    fn passes(&self) -> bool {
        self.valid()
            && self.p(0.99) <= P99_LIMIT_US
            && !self.backlog_growing
            && ratio(self.failed as f64, self.sent as f64) <= 0.001
    }
}

/// Send at `rate` for `run`, every request due at `k / rate` whatever the
/// gateway is doing, then wait for the stragglers.
fn open_loop_step(
    pipes: &mut [Pipe],
    streams: &mut [Stream],
    rate: f64,
    run: Duration,
    mut spans: Option<&mut Recorder>,
) -> Step {
    let interval_ns = 1e9 / rate;
    let total = (rate * run.as_secs_f64()) as u64;
    let run_ns = run.as_nanos() as u64;
    let mut step = Step {
        rate,
        sent: 0,
        failed: 0,
        latency_us: Vec::with_capacity(total as usize),
        p50_floor_us: 0.0,
        gen_lag_us_p50: 0.0,
        gen_lag_us_p99: 0.0,
        backlog_max: 0,
        backlog_growing: false,
    };
    let mut lag_us: Vec<f64> = Vec::with_capacity(total as usize);
    let mut by_tenth: [Vec<f64>; 10] = Default::default();
    // Span ids of the requests in flight, per connection (traced runs).
    let mut wait_spans: Vec<VecDeque<u32>> = vec![VecDeque::new(); pipes.len()];
    let mut done = 0u64;
    let mut backlog_mid = None;
    let start = Instant::now();
    let mut k = 0u64;
    // Replies count from the first tenth on; before that connections and
    // caches are still warming to the new rate.
    let warm_ns = run_ns / 10;
    loop {
        let now_i = Instant::now();
        let now = now_i.duration_since(start).as_nanos() as u64;
        let due = ((now as f64 / interval_ns) as u64 + 1).min(total);
        // Send what is due, a few at most before looking at replies again.
        let mut burst = 0;
        while k < due && burst < 8 {
            let intended = (k as f64 * interval_ns) as u64;
            let c = (k % pipes.len() as u64) as usize;
            let reached = start.elapsed().as_nanos() as u64;
            lag_us.push(reached.saturating_sub(intended) as f64 / 1e3);
            let req = streams[c].next(now_i);
            pipes[c].queue(&req, intended);
            pipes[c].flush();
            let written = start.elapsed().as_nanos() as u64;
            if let Some(rec) = spans.as_deref_mut() {
                wait_spans[c].push_back(rec.push(Span {
                    name: "gateway.send_wait",
                    start_ns: rec.ns_at(start) + intended,
                    end_ns: rec.ns_at(start) + written,
                    parent: ROOT,
                    trace_id: k,
                    calls: 1,
                }));
            }
            k += 1;
            burst += 1;
        }
        let mut replies = 0;
        for (pipe, waits) in pipes.iter_mut().zip(&mut wait_spans) {
            pipe.flush();
            replies += pipe.drain(|intended, kind, resp| {
                done += 1;
                let end = start.elapsed().as_nanos() as u64;
                if !answers(kind, &resp) {
                    step.failed += 1;
                } else if intended >= warm_ns {
                    let us = end.saturating_sub(intended) as f64 / 1e3;
                    step.latency_us.push(us);
                    by_tenth[((intended * 10 / run_ns) as usize).min(9)].push(us);
                }
                if let Some(rec) = spans.as_deref_mut() {
                    let request = rec.push(Span {
                        name: "gateway.request",
                        start_ns: rec.ns_at(start) + intended,
                        end_ns: rec.ns_at(start) + end,
                        parent: ROOT,
                        trace_id: (intended as f64 / interval_ns).round() as u64,
                        calls: 1,
                    });
                    if let Some(wait) = waits.pop_front() {
                        rec.adopt(wait..wait + 1, request);
                    }
                }
            });
        }
        let backlog = due - done;
        step.backlog_max = step.backlog_max.max(backlog);
        if backlog_mid.is_none() && now >= run_ns / 2 {
            backlog_mid = Some(backlog);
        }
        if k == total {
            if now <= run_ns + 1_000_000 {
                // Outstanding when the schedule ends, against half way: a
                // backlog still growing means the rate is past the ceiling.
                let mid = backlog_mid.unwrap_or(0);
                step.backlog_growing = backlog > 2 * mid.max(1) && backlog as f64 > rate * 0.002;
            }
            if done == total {
                break;
            }
            if now > run_ns + 2_000_000_000 {
                step.failed += total - done; // never answered
                break;
            }
        }
        if replies == 0 && k >= due {
            std::hint::spin_loop();
        }
    }
    step.sent = total;
    lag_us.sort_by(f64::total_cmp);
    step.gen_lag_us_p50 = quantile_sorted(&lag_us, 0.5);
    step.gen_lag_us_p99 = quantile_sorted(&lag_us, 0.99);
    step.latency_us.sort_by(f64::total_cmp);
    step.p50_floor_us = by_tenth
        .iter_mut()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .fold(f64::INFINITY, f64::min);
    step
}

// ------------------------------------------------- phase L: lone requests

/// What a lone request's round trip takes, µs.
struct Lone {
    /// With the host's slow moments left out (see [`phase_l`]).
    rtt_us: f64,
    /// The plain median of every round trip.
    rtt_p50_us: f64,
}

/// One tenant agent, one request at a time, each sent when the last is
/// answered: the round trip of a request that waits for nothing. The caller
/// blocks in `read` and, for this phase, shares the gateway's core, so a
/// round trip is two context switches on one core and no more. Across cores
/// it is an inter-processor interrupt to a sleeping worker, which reads 26
/// to 40 µs on this virtual machine, changes every few seconds and would be
/// most of the number.
fn phase_l(rig: &mut Rig, run: Duration, tally: &mut Tally) -> Lone {
    let cpus = affinity::allowed();
    if let Some(&last) = cpus.last() {
        affinity::pin(last);
    }
    let (pipe, stream) = (&mut rig.pipes[0], &mut rig.streams[0]);
    let mut rtt_us = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        if t.duration_since(start) >= run {
            break;
        }
        let req = stream.next(t);
        let resp = pipe.call(&req);
        rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        tally.sent += 1;
        if !answers(kind_of(&req), &resp) {
            tally.failed += 1;
        }
    }
    if let Some(&first) = cpus.first() {
        affinity::pin(first);
    }
    // Medians of twenty runs of consecutive requests, then their lower
    // quartile: the counterpart of phase A's upper quartile. The host
    // interrupts for a tenth of a second at a time (round trips of 13 µs
    // among 9 µs ones), and only ever adds.
    let per_slice = (rtt_us.len() / 20).max(1);
    let mut medians: Vec<f64> = rtt_us
        .chunks_exact(per_slice)
        .map(|c| median(&mut c.to_vec()))
        .collect();
    let q = stats::quartiles(&mut medians);
    rtt_us.sort_by(f64::total_cmp);
    println!(
        "# lone_requests n {} rtt_us slice medians: min {:.2} q1 {:.2} median {:.2} q3 {:.2} n {}; all: p50 {:.2} p99 {:.1}",
        rtt_us.len(),
        medians.first().copied().unwrap_or(0.0),
        q.q1,
        q.median,
        q.q3,
        q.n,
        quantile_sorted(&rtt_us, 0.5),
        quantile_sorted(&rtt_us, 0.99),
    );
    Lone {
        rtt_us: q.q1,
        rtt_p50_us: quantile_sorted(&rtt_us, 0.5),
    }
}

// --------------------------------------------------- phase C: over quota

/// One tenant, closed loop, as fast as the connection goes: far past its
/// quota, so most of it must come back `Busy`.
fn phase_c(rig: &mut Rig, run: Duration, tally: &mut Tally) {
    let tenant = rig.streams[0].tenants[0];
    let start = Instant::now();
    let mut now = 0u64;
    while start.elapsed() < run {
        now += 1_000;
        tally.overquota_sent += 1;
        match rig.pipes[0].call(&Request::FetchRecommendation { tenant, now }) {
            Response::Busy { .. } => tally.overquota_busy += 1,
            Response::Recommendation { .. } => {}
            other => panic!("the over-quota tenant got {other:?}"),
        }
    }
}

// ------------------------------------------------------ in-process replay

/// The tenant requests of the mix, with the span and the metric that carry
/// each one's `route` time.
const ROUTED: [(Kind, &str, &str); 4] = [
    (
        Kind::Metrics,
        "gateway.route.metrics",
        "gateway.route_ns.metrics",
    ),
    (
        Kind::Throttle,
        "gateway.route.throttle",
        "gateway.route_ns.throttle",
    ),
    (Kind::Fetch, "gateway.route.fetch", "gateway.route_ns.fetch"),
    (Kind::Ack, "gateway.route.ack", "gateway.route_ns.ack"),
];

/// Per-request nanoseconds of the gateway's own layers.
struct Replay {
    codec_ns: f64,
    admit_ns: f64,
    route_ns: f64,
    /// In [`ROUTED`] order.
    route_ns_by_kind: [f64; 4],
    bytes_per_req: f64,
}

/// The same request stream, replayed without sockets or threads through the
/// calls the server's worker makes per request: frame and message codec
/// both ways, `admit`, then `route` with the metering and latency
/// bookkeeping the worker does under the same lock.
fn replay(seed: u64, tenants: usize, requests: usize, mut spans: Option<&mut Recorder>) -> Replay {
    let mut state = GatewayState::new(RouterConfig::default());
    let ids: Vec<u64> = (0..tenants)
        .map(|i| {
            let req = Request::RegisterService {
                flavor: 0,
                instance: 3,
                disk: 0,
                n_slaves: 0,
                seed: seed ^ i as u64,
            };
            match state.route(&req, 0) {
                Response::Registered { tenant } => tenant,
                other => panic!("in-process registration answered {other:?}"),
            }
        })
        .collect();
    let mut stream = Stream::new(seed ^ 0x9e37, ids);
    const BATCH: usize = 1_024;
    let (mut codec_ns, mut admit_ns) = (0u64, 0u64);
    let mut route_ns = [0u64; 4];
    let mut route_calls = [0u64; 4];
    let (mut bytes, mut total) = (0u64, 0u64);
    let mut now_ms = 0u64;
    let mut span = |name: &'static str, t: Instant, calls: usize, batch: u64| {
        if let Some(rec) = spans.as_deref_mut() {
            rec.push(Span {
                name,
                start_ns: rec.ns_at(t),
                end_ns: rec.now_ns(),
                parent: ROOT,
                trace_id: batch,
                calls: calls as u32,
            });
        }
    };
    for batch in 0..(requests / BATCH).max(1) as u64 {
        let reqs: Vec<Request> = (0..BATCH).map(|_| stream.next_tenant_request()).collect();
        // Codec, inbound: what the client encodes the server must decode.
        let t = Instant::now();
        let decoded: Vec<Request> = reqs
            .iter()
            .map(|r| {
                let framed = frame::encode(&r.encode()).expect("a request fits a frame");
                bytes += framed.len() as u64;
                match frame::decode(&framed) {
                    Ok(Decoded::Frame { payload, .. }) => {
                        Request::decode(&payload).expect("a request round-trips")
                    }
                    other => panic!("a whole frame decoded to {other:?}"),
                }
            })
            .collect();
        codec_ns += t.elapsed().as_nanos() as u64;
        span("gateway.codec", t, BATCH, batch);
        // One millisecond per request: every tenant's bucket refills long
        // before its turn comes round again.
        let t = Instant::now();
        for r in &decoded {
            now_ms += 1;
            assert_eq!(state.admit(r, now_ms), Admission::Admit);
        }
        admit_ns += t.elapsed().as_nanos() as u64;
        span("gateway.admit", t, BATCH, batch);
        let mut responses = Vec::with_capacity(BATCH);
        for (slot, &(kind, span_name, _)) in ROUTED.iter().enumerate() {
            let of_kind: Vec<&Request> = decoded.iter().filter(|r| kind_of(r) == kind).collect();
            let t = Instant::now();
            for r in &of_kind {
                let resp = state.route(r, now_ms);
                state.meter_bytes(r, 64, 32);
                state.observe_latency_us(10);
                assert!(answers(kind, &resp), "{kind:?} answered {resp:?}");
                responses.push(resp);
            }
            route_ns[slot] += t.elapsed().as_nanos() as u64;
            route_calls[slot] += of_kind.len() as u64;
            span(span_name, t, of_kind.len(), batch);
        }
        // Codec, outbound.
        let t = Instant::now();
        for resp in &responses {
            let framed = frame::encode(&resp.encode()).expect("a reply fits a frame");
            bytes += framed.len() as u64;
            match frame::decode(&framed) {
                Ok(Decoded::Frame { payload, .. }) => {
                    std::hint::black_box(Response::decode(&payload).expect("a reply round-trips"));
                }
                other => panic!("a whole frame decoded to {other:?}"),
            }
        }
        codec_ns += t.elapsed().as_nanos() as u64;
        span("gateway.codec", t, BATCH, batch);
        total += BATCH as u64;
    }
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    Replay {
        codec_ns: per(codec_ns, total),
        admit_ns: per(admit_ns, total),
        route_ns: per(route_ns.iter().sum(), total),
        route_ns_by_kind: std::array::from_fn(|i| per(route_ns[i], route_calls[i])),
        bytes_per_req: per(bytes, total),
    }
}

// ------------------------------------------------------------------ run

pub fn run(args: &Args) -> Outcome {
    let sz = sizes(args);
    let mut values = Values::default();
    let mut checks = Checks::default();
    let mut tally = Tally::default();

    // Set up three times (bind, connect, register); keep the last gateway.
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..if args.quick || args.trace { 1 } else { 3 } {
        if let Some(old) = rig.take() {
            old.shutdown();
        }
        let (r, s) = timed(|| setup(args.seed, sz.tenants));
        setup_s.push(s);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    println!(
        "# cpus allowed {:?}: gateway threads on the last, load generator on the first",
        affinity::allowed()
    );
    tally.sent += rig.sent;
    values.set("setup_s", median(&mut setup_s));

    for pipe in &rig.pipes {
        pipe.set_nonblocking(true);
    }
    // A fixed amount of traffic first. It warms connections, caches and the
    // allocator before anything is timed, and it is where memory is read:
    // the gateway keeps an access-log line per request, so the peak at the
    // end of a run is a multiple of that run's throughput, while the peak
    // after a fixed number of requests is the program's.
    phase_a(
        &mut rig,
        sz.callers_per_conn,
        Until::Sent(sz.warm_requests),
        1,
        &mut tally,
    );
    values.set("peak_rss_mb", stats::peak_rss_mb());

    let rps_sat = phase_a(
        &mut rig,
        sz.callers_per_conn,
        Until::Elapsed(Duration::from_secs_f64(sz.closed_s)),
        sz.slices,
        &mut tally,
    );
    values.set("work_per_s", rps_sat);
    values.set("gw_rps_sat", rps_sat);

    let run = Duration::from_secs_f64(sz.step_s);
    let mut rec = args.trace.then(Recorder::new);
    let mut max_rate_ok = 0.0;
    let mut at_latency_rate = None;
    for &rate in sz.ladder {
        let step = open_loop_step(&mut rig.pipes, &mut rig.streams, rate, run, None);
        println!(
            "# open_loop rate {rate} p50_floor_us {:.1} p50_us {:.1} p99_us {:.1} p999_us {:.1} gen_lag_us p50 {:.2} p99 {:.1} backlog_max {} growing {} failed {} n {} -> {}",
            step.p50_floor_us,
            step.p(0.5),
            step.p(0.99),
            step.p(0.999),
            step.gen_lag_us_p50,
            step.gen_lag_us_p99,
            step.backlog_max,
            step.backlog_growing,
            step.failed,
            step.latency_us.len(),
            if step.passes() {
                "ok"
            } else if step.valid() {
                "over the limit"
            } else {
                "invalid: the generator fell behind"
            }
        );
        tally.sent += step.sent;
        tally.failed += step.failed;
        if step.passes() {
            max_rate_ok = rate;
        }
        if rate == LATENCY_RATE {
            at_latency_rate = Some(step);
        }
    }
    let at_rate = at_latency_rate.expect("the ladder includes the latency rate");
    values.set("gw_p50_us", at_rate.p50_floor_us);
    values.set("gw_max_rate_ok", max_rate_ok);
    values.set("gateway.rtt_p99_us", at_rate.p(0.99));
    values.set("gateway.rtt_p999_us", at_rate.p(0.999));
    values.set("gateway.gen_lag_us_p99", at_rate.gen_lag_us_p99);
    values.set("gateway.backlog_max", at_rate.backlog_max as f64);

    if let Some(rec) = rec.as_mut() {
        // The same step again with a span per request: what recording costs
        // is the change in the median.
        let traced = open_loop_step(
            &mut rig.pipes,
            &mut rig.streams,
            LATENCY_RATE,
            run,
            Some(rec),
        );
        tally.sent += traced.sent;
        tally.failed += traced.failed;
        values.set(
            "trace_overhead_frac",
            traced.p50_floor_us / at_rate.p50_floor_us - 1.0,
        );
    }

    for pipe in &rig.pipes {
        pipe.set_nonblocking(false);
    }

    let lone = phase_l(&mut rig, Duration::from_secs_f64(sz.lone_s), &mut tally);
    values.set("latency_ms", lone.rtt_us / 1e3);

    phase_c(
        &mut rig,
        Duration::from_secs_f64(sz.overquota_s),
        &mut tally,
    );
    values.set(
        "gateway.busy_frac",
        ratio(tally.overquota_busy as f64, tally.overquota_sent as f64),
    );
    checks.require(tally.overquota_busy > 0, || {
        "the over-quota tenant was never shed".into()
    });

    // Conservation, through the front door: everything this process sent
    // was either served or shed, and nothing was malformed. (`served`
    // already counts the Stats request that reads it.)
    let sent_total = tally.sent + tally.overquota_sent + 1;
    match rig.pipes[1].call(&Request::Stats) {
        Response::StatsReply {
            served,
            busy,
            errors,
            active_tenants,
            ..
        } => {
            println!(
                "# stats served {served} busy {busy} errors {errors} tenants {active_tenants} sent {sent_total}"
            );
            checks.require(served + busy == sent_total && errors == 0, || {
                format!("served {served} + busy {busy} != sent {sent_total} (errors {errors})")
            });
            checks.require(active_tenants == sz.tenants as u64, || {
                format!("{active_tenants} tenants registered, not {}", sz.tenants)
            });
        }
        other => checks.fail(format!("the final Stats request got {other:?}")),
    }
    rig.shutdown();

    values.set("fail_frac", ratio(tally.failed as f64, tally.sent as f64));

    if let Some(rec) = rec.as_mut() {
        let r = replay(
            args.seed,
            sz.tenants,
            if args.quick { 4_096 } else { 65_536 },
            Some(rec),
        );
        values.set("gateway.codec_ns", r.codec_ns);
        values.set("gateway.admit_ns", r.admit_ns);
        values.set("gateway.route_ns", r.route_ns);
        for (&(_, _, metric), ns) in ROUTED.iter().zip(r.route_ns_by_kind) {
            values.set(metric, ns);
        }
        values.set("gateway.bytes_per_req", r.bytes_per_req);
        // What is left of a lone request's round trip once the gateway's
        // own layers are taken out: sockets, wake-ups, the wait for the lock.
        values.set(
            "gateway.transport_us",
            lone.rtt_p50_us - (r.codec_ns + r.admit_ns + r.route_ns) / 1e3,
        );
        rec.save(args, &mut checks);
    }
    Outcome {
        correct: checks.all_passed(),
        attempted: tally.sent,
        failed: tally.failed,
        values,
    }
}
