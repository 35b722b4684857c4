//! The TCP server shell: accept loop, fixed worker pool, bounded queues,
//! graceful drain.
//!
//! Concurrency model — deliberately boring:
//!
//! * one **acceptor** thread owns the listener and deals accepted
//!   connections to workers round-robin;
//! * a **fixed pool** of worker threads each owns a bounded queue of
//!   pending connections (`sync_channel(queue_depth)`). A worker serves
//!   one connection at a time, a **batch** at a time: every complete frame
//!   a `read` delivered is decoded, admitted and routed in arrival order
//!   (own lock acquisition, own clock read — as if it had arrived alone),
//!   the reply frames collect in one buffer, and one `write` ends the
//!   pass. The batch is whatever the peer pipelined (a lone request is a
//!   batch of one), so there is nothing to configure;
//! * when every worker queue is full the acceptor **sheds the
//!   connection**: it writes one `Busy` frame and closes, so overload
//!   surfaces as an explicit signal at the edge instead of an unbounded
//!   backlog;
//! * **shutdown** flips an atomic flag; the acceptor stops accepting,
//!   workers finish the request in flight on each connection, flush
//!   what they answered, close, and drain (queued-but-unserved
//!   connections get a `ShuttingDown` error frame). `Health` replies
//!   flip to `draining` the moment shutdown begins so load balancers
//!   stop routing here.
//!
//! Per-request backpressure (token buckets) lives in
//! [`GatewayState::admit`]; this module only adds the connection-level
//! bound. The connection loop (`serve_stream`) is generic over
//! `Read + Write` and takes the injected [`Clock`]: the tests below run
//! the code that serves `TcpStream` + `WallClock` single-threaded over a
//! scripted in-memory stream and a `ManualClock`.

use crate::admission::Admission;
use crate::clock::Clock;
use crate::frame::{self, Decoded};
use crate::proto::{ErrorCode, Request, Response};
use crate::router::GatewayState;
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// Server shell configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (fixed; the pool never grows).
    pub workers: usize,
    /// Pending connections each worker will queue before the acceptor
    /// sheds new ones.
    pub queue_depth: usize,
    /// Socket read timeout — also the shutdown-poll granularity.
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_depth: 2,
            read_timeout_ms: 25,
        }
    }
}

/// A running gateway; dropping it without [`GatewayHandle::shutdown`]
/// leaves the threads serving until process exit.
pub struct GatewayHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<GatewayState>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin draining: stop accepting, let in-flight requests finish,
    /// then join every thread. Returns the final state.
    pub fn shutdown(self) -> Arc<Mutex<GatewayState>> {
        self.state.lock().draining = true;
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads {
            // A worker that panicked already lost its connections; the
            // join error carries nothing actionable beyond that.
            let _ = t.join();
        }
        self.state
    }
}

/// Bind `addr` and serve `state` with `cfg`. `addr` may use port 0 to let
/// the OS pick (see [`GatewayHandle::addr`]).
pub fn serve(
    addr: &str,
    state: GatewayState,
    cfg: ServerConfig,
    clock: Arc<dyn Clock>,
) -> std::io::Result<GatewayHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let queue_depth = cfg.queue_depth.max(1);
    let state = Arc::new(Mutex::new(state));
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::with_capacity(workers + 1);
    let mut senders: Vec<SyncSender<TcpStream>> = Vec::with_capacity(workers);

    for _ in 0..workers {
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_depth);
        senders.push(tx);
        let state = Arc::clone(&state);
        let stop = Arc::clone(&shutdown);
        let clock = Arc::clone(&clock);
        let read_timeout = Duration::from_millis(cfg.read_timeout_ms.max(1));
        // detlint-allow: D005 fixed-size worker pool built once at startup, never per request
        threads.push(std::thread::spawn(move || {
            worker_loop(&rx, &state, &stop, clock.as_ref(), read_timeout);
        }));
    }

    {
        let stop = Arc::clone(&shutdown);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &senders, &stop);
        }));
    }

    Ok(GatewayHandle {
        addr: local,
        shutdown,
        state,
        threads,
    })
}

/// Deal connections to workers; shed with a `Busy` frame when every queue
/// is full.
fn accept_loop(listener: &TcpListener, senders: &[SyncSender<TcpStream>], stop: &AtomicBool) {
    let mut next = 0usize;
    loop {
        if stop.load(Ordering::SeqCst) {
            return; // senders drop here; workers drain and exit
        }
        match listener.accept() {
            Ok((conn, _peer)) => {
                let mut pending = Some(conn);
                for i in 0..senders.len() {
                    let idx = (next + i) % senders.len();
                    let Some(stream) = pending.take() else { break };
                    match senders[idx].try_send(stream) {
                        Ok(()) => {
                            next = idx + 1;
                        }
                        Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                            pending = Some(back);
                        }
                    }
                }
                if let Some(stream) = pending {
                    // Every queue is at depth: explicit connection-level
                    // shed.
                    let busy = Response::Busy {
                        retry_after_ms: 100,
                    };
                    turn_away(stream, &busy);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                // Transient accept errors (per-connection resets) — keep
                // listening rather than killing the gateway.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The whole conversation with a connection that gets no service: one
/// reply frame, then close. Best effort — the peer may already be gone.
fn turn_away(mut conn: TcpStream, resp: &Response) {
    let mut out = Vec::new();
    if push_frame(&mut out, &resp.encode()) {
        let _ = conn.write_all(&out);
    }
}

/// One worker: serve queued connections until the channel closes.
fn worker_loop(
    rx: &Receiver<TcpStream>,
    state: &Mutex<GatewayState>,
    stop: &AtomicBool,
    clock: &dyn Clock,
    read_timeout: Duration,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(conn) => {
                if stop.load(Ordering::SeqCst) {
                    let draining = Response::Error {
                        code: ErrorCode::ShuttingDown,
                        detail: "gateway is draining".to_string(),
                    };
                    turn_away(conn, &draining);
                    continue;
                }
                serve_connection(conn, state, stop, clock, read_timeout);
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    // Acceptor may still hold the sender briefly; only
                    // exit once it has dropped (Disconnected) or on stop
                    // with an empty queue — both land here eventually.
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serve one TCP connection until EOF, protocol error, or drain.
fn serve_connection(
    mut conn: TcpStream,
    state: &Mutex<GatewayState>,
    stop: &AtomicBool,
    clock: &dyn Clock,
    read_timeout: Duration,
) {
    if conn.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let _ = conn.set_nodelay(true);
    serve_stream(&mut conn, state, stop, clock);
}

/// The per-connection state machine, over any byte stream: read, answer
/// every complete frame buffered (in order, each as if it had arrived
/// alone), write the replies at once, repeat. Every way out of a pass —
/// more bytes needed, frame error, `stop`, an unencodable reply — goes
/// through the one `write_all`, so what was answered is delivered first.
fn serve_stream<S: Read + Write>(
    conn: &mut S,
    state: &Mutex<GatewayState>,
    stop: &AtomicBool,
    clock: &dyn Clock,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    loop {
        let mut pos = 0;
        let open = loop {
            match frame::decode(&buf[pos..]) {
                Ok(Decoded::Frame { payload, consumed }) => {
                    pos += consumed;
                    // Drain semantics: once the request in flight is
                    // answered, `stop` closes the connection.
                    if !push_frame(&mut out, &answer(&payload, state, clock))
                        || stop.load(Ordering::SeqCst)
                    {
                        break false;
                    }
                }
                Ok(Decoded::NeedMore(_)) => break true,
                Err(e) => {
                    push_frame(&mut out, &malformed(state, clock, e.to_string()));
                    break false;
                }
            }
        };
        // The one write of the pass (`write_all` of nothing is no call).
        let delivered = conn.write_all(&out).is_ok();
        out.clear();
        if !(open && delivered) {
            return;
        }
        buf.drain(..pos);
        match conn.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Decode, admit, route — one lock acquisition — and return the encoded
/// reply. The reply is encoded once: the bytes metered are the bytes sent.
fn answer(payload: &[u8], state: &Mutex<GatewayState>, clock: &dyn Clock) -> Vec<u8> {
    let t0_us = clock.now_us();
    match Request::decode(payload) {
        Ok(req) => {
            let now_ms = clock.now_ms();
            let mut s = state.lock();
            match s.admit(&req, now_ms) {
                Admission::Busy { retry_after_ms } => Response::Busy { retry_after_ms }.encode(),
                Admission::Admit => {
                    let reply = s.route(&req, now_ms).encode();
                    s.meter_bytes(&req, payload.len() as u64, reply.len() as u64);
                    s.observe_latency_us(clock.now_us().saturating_sub(t0_us));
                    reply
                }
            }
        }
        Err(e) => malformed(state, clock, e.to_string()),
    }
}

/// Count one undecodable frame or payload and build its `Error` reply.
fn malformed(state: &Mutex<GatewayState>, clock: &dyn Clock, detail: String) -> Vec<u8> {
    state.lock().record_error(clock.now_ms());
    Response::Error {
        code: ErrorCode::Malformed,
        detail,
    }
    .encode()
}

/// Append `reply` (an encoded `Response`) to `out` as one frame — the only
/// place a reply is framed. `false` if it does not fit a frame: unreachable
/// for gateway-built responses (encode caps strings and config vectors far
/// below MAX_PAYLOAD), but stay total anyway.
fn push_frame(out: &mut Vec<u8>, reply: &[u8]) -> bool {
    match frame::encode(reply) {
        Ok(bytes) => {
            out.extend_from_slice(&bytes);
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GatewayClient;
    use crate::clock::{ManualClock, WallClock};
    use crate::router::RouterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn start(cfg: ServerConfig) -> GatewayHandle {
        serve(
            "127.0.0.1:0",
            GatewayState::new(RouterConfig::default()),
            cfg,
            Arc::new(WallClock::new()),
        )
        .expect("bind loopback")
    }

    #[test]
    fn serves_health_and_stats_over_a_real_socket() {
        let handle = start(ServerConfig::default());
        let mut client = GatewayClient::connect(handle.addr()).expect("connect");
        assert_eq!(
            client.call(&Request::Health).expect("health"),
            Response::Healthy { draining: false }
        );
        match client.call(&Request::Stats).expect("stats") {
            Response::StatsReply { served, .. } => assert!(served >= 1),
            other => panic!("expected stats, got {other:?}"),
        }
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn garbage_bytes_get_a_typed_error_not_a_hang() {
        let handle = start(ServerConfig::default());
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        let mut buf = Vec::new();
        raw.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut chunk = [0u8; 1024];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Ok(Decoded::Frame { .. }) = frame::decode(&buf) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let Ok(Decoded::Frame { payload, .. }) = frame::decode(&buf) else {
            panic!("expected an error frame back, got {} bytes", buf.len());
        };
        match Response::decode(&payload) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Error response, got {other:?}"),
        }
        let (_, _, errors) = handle.shutdown().lock().counters();
        assert_eq!(errors, 1);
    }

    #[test]
    fn connection_shed_when_every_queue_is_full() {
        // 1 worker × queue depth 1: the worker serves conn A (held open),
        // conn B waits in the queue, conn C must be shed with Busy.
        let handle = start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout_ms: 10,
        });
        let mut a = GatewayClient::connect(handle.addr()).expect("a");
        assert!(a.call(&Request::Health).is_ok(), "worker is now serving A");
        let _b = TcpStream::connect(handle.addr()).expect("b queues");
        std::thread::sleep(Duration::from_millis(50));
        let mut c = GatewayClient::connect(handle.addr()).expect("c connects");
        match c.call(&Request::Health) {
            Ok(Response::Busy { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected connection-level Busy, got {other:?}"),
        }
        drop((a, c));
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_and_flips_health() {
        let handle = start(ServerConfig::default());
        let addr = handle.addr();
        let mut client = GatewayClient::connect(addr).expect("connect");
        assert!(client.call(&Request::Health).is_ok());
        let state = handle.shutdown();
        assert!(state.lock().draining);
        // New connections are refused or fail outright after drain.
        if let Ok(mut c) = GatewayClient::connect(addr) {
            assert!(c.call(&Request::Health).is_err());
        }
    }

    // ------------------------------------------------ deterministic transport
    //
    // `serve_stream` over a scripted in-memory peer and a `ManualClock`: no
    // sockets, no threads, no sleeps. The clock stands still, so a reply is
    // a function of the requests before it and of nothing else — however
    // the bytes were cut into reads.

    /// The scripted peer. `read` hands out `input` in pieces of the scripted
    /// sizes (once the script runs out, whatever is left and fits), then
    /// EOF; `write` keeps the bytes. Both count their calls.
    struct Script<'a> {
        input: &'a [u8],
        cuts: Vec<usize>,
        pos: usize,
        reads: usize,
        writes: usize,
        written: Vec<u8>,
        /// Raise the flag as the n-th `read` (from 1) delivers its bytes.
        stop_at_read: Option<(usize, &'a AtomicBool)>,
    }

    impl Read for Script<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let left = self.input.len() - self.pos;
            let want = self.cuts.get(self.reads).copied().unwrap_or(left);
            self.reads += 1;
            if let Some((n, flag)) = self.stop_at_read {
                if self.reads == n {
                    flag.store(true, Ordering::SeqCst);
                }
            }
            let n = want.min(left).min(buf.len());
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Script<'_> {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What one scripted connection left behind.
    struct Served {
        replies: Vec<u8>,
        reads: usize,
        writes: usize,
        state: GatewayState,
    }

    const NOW_US: u64 = 5_000_000;

    /// Serve `input`, cut into reads as `cuts` says, on a fresh gateway.
    fn serve_script(input: &[u8], cuts: Vec<usize>, stop_at_read: Option<usize>) -> Served {
        let state = Mutex::new(GatewayState::new(RouterConfig::default()));
        let stop = AtomicBool::new(false);
        let clock = ManualClock::new();
        clock.advance_us(NOW_US);
        let mut peer = Script {
            input,
            cuts,
            pos: 0,
            reads: 0,
            writes: 0,
            written: Vec::new(),
            stop_at_read: stop_at_read.map(|n| (n, &stop)),
        };
        serve_stream(&mut peer, &state, &stop, &clock);
        assert!(
            peer.writes <= peer.reads,
            "{} writes for {} reads: a pass wrote more than once",
            peer.writes,
            peer.reads
        );
        Served {
            replies: peer.written,
            reads: peer.reads,
            writes: peer.writes,
            state: state.into_inner(),
        }
    }

    /// A payload that frames but is no request (no such opcode).
    const NOT_A_REQUEST: &[u8] = &[0xee, 1, 2, 3];

    /// One connection's seeded traffic, `None` standing for
    /// [`NOT_A_REQUEST`]: eight registrations, then `n` requests of the
    /// loadgen mix (60:15:10:10 plus `Health`/`Stats` probes) in which the
    /// first tenant sends a third of everything — more than its burst at a
    /// clock that stands still — with one undecodable payload in the middle.
    fn traffic(seed: u64, n: usize) -> Vec<Option<Request>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let registrations: Vec<Request> = (0..8u64)
            .map(|i| Request::RegisterService {
                flavor: (i % 2) as u8,
                instance: (i % 6) as u8,
                disk: 0,
                n_slaves: 1,
                seed: seed ^ i,
            })
            .collect();
        // Tenant ids are the orchestrator's to hand out; ask a scratch one.
        let mut scratch = GatewayState::new(RouterConfig::default());
        let tenants: Vec<u64> = registrations
            .iter()
            .map(|r| match scratch.route(r, 0) {
                Response::Registered { tenant } => tenant,
                other => panic!("registration answered {other:?}"),
            })
            .collect();
        let mut reqs: Vec<Option<Request>> = registrations.into_iter().map(Some).collect();
        for i in 0..n {
            if i == n / 2 {
                reqs.push(None);
            }
            let tenant = if rng.gen_range(0u32..3) == 0 {
                tenants[0]
            } else {
                tenants[rng.gen_range(1..tenants.len())]
            };
            let at = i as u64 * 3_600_000;
            let roll = rng.gen_range(0u32..100);
            reqs.push(Some(if roll < 60 {
                Request::PushMetricsWindow {
                    tenant,
                    window_start: at,
                    window_ms: 3_600_000,
                    class_counts: std::array::from_fn(|_| rng.gen_range(0u64..2_000)),
                    throttled: i % 3 == 0,
                    knob_at_cap: i % 9 == 0,
                }
            } else if roll < 75 {
                Request::FetchRecommendation { tenant, now: at }
            } else if roll < 85 {
                Request::ThrottleSignal {
                    tenant,
                    at,
                    knob_class: rng.gen_range(0u8..3),
                    service_time_ms: 90_000 + rng.gen_range(0u32..40_000),
                }
            } else if roll < 95 {
                Request::ApplyAck {
                    tenant,
                    at,
                    ok: roll != 94,
                }
            } else if roll < 98 {
                Request::Health
            } else {
                Request::Stats
            }));
        }
        reqs
    }

    fn wire(reqs: &[Option<Request>]) -> Vec<u8> {
        reqs.iter()
            .flat_map(|r| {
                let payload = r
                    .as_ref()
                    .map_or_else(|| NOT_A_REQUEST.to_vec(), Request::encode);
                frame::encode(&payload).expect("a test payload fits a frame")
            })
            .collect()
    }

    /// The replies `admit`/`route` give request by request, with nothing
    /// of the transport involved, and the state they leave.
    fn reference(reqs: &[Option<Request>]) -> (Vec<Response>, GatewayState) {
        let now_ms = NOW_US / 1_000;
        let mut state = GatewayState::new(RouterConfig::default());
        let replies = reqs
            .iter()
            .map(|r| match r {
                Some(req) => match state.admit(req, now_ms) {
                    Admission::Busy { retry_after_ms } => Response::Busy { retry_after_ms },
                    Admission::Admit => {
                        let resp = state.route(req, now_ms);
                        let (bytes_in, bytes_out) = (req.encode().len(), resp.encode().len());
                        state.meter_bytes(req, bytes_in as u64, bytes_out as u64);
                        state.observe_latency_us(0);
                        resp
                    }
                },
                None => {
                    state.record_error(now_ms);
                    Response::Error {
                        code: ErrorCode::Malformed,
                        detail: Request::decode(NOT_A_REQUEST)
                            .expect_err("no request has this opcode")
                            .to_string(),
                    }
                }
            })
            .collect();
        (replies, state)
    }

    fn decode_replies(mut bytes: &[u8]) -> Vec<Response> {
        let mut replies = Vec::new();
        while !bytes.is_empty() {
            let Ok(Decoded::Frame { payload, consumed }) = frame::decode(bytes) else {
                panic!("the reply stream ends in {} stray bytes", bytes.len());
            };
            replies.push(Response::decode(&payload).expect("a reply that decodes"));
            bytes = &bytes[consumed..];
        }
        replies
    }

    /// Is `resp` what a request like `req` may be answered with?
    fn implied(req: Option<&Request>, resp: &Response) -> bool {
        match (req, resp) {
            (None, Response::Error { code, .. }) => *code == ErrorCode::Malformed,
            (Some(Request::Health), Response::Healthy { .. })
            | (Some(Request::Stats), Response::StatsReply { .. })
            | (Some(Request::RegisterService { .. }), Response::Registered { .. })
            | (Some(Request::PushMetricsWindow { .. }), Response::Classified { .. })
            | (Some(Request::ThrottleSignal { .. }), Response::ThrottleQueued { .. })
            | (Some(Request::FetchRecommendation { .. }), Response::Recommendation { .. })
            | (Some(Request::ApplyAck { .. }), Response::ApplyRecorded) => true,
            // Only a request that draws on a token bucket can be shed.
            (Some(req), Response::Busy { .. }) => !matches!(req, Request::Health | Request::Stats),
            _ => false,
        }
    }

    fn same_books(a: &GatewayState, b: &GatewayState) {
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.meter().gateway_totals(), b.meter().gateway_totals());
        assert_eq!(a.access_log.fingerprint(), b.access_log.fingerprint());
    }

    #[test]
    fn replies_do_not_depend_on_how_the_bytes_were_cut() {
        let reqs = traffic(0x5eed, 400);
        let input = wire(&reqs);
        let (expected, expected_state) = reference(&reqs);

        let whole = serve_script(&input, Vec::new(), None);
        let replies = decode_replies(&whole.replies);
        assert_eq!(replies, expected, "batched replies differ from admit/route");
        same_books(&whole.state, &expected_state);
        for (i, (req, resp)) in reqs.iter().zip(&replies).enumerate() {
            assert!(
                implied(req.as_ref(), resp),
                "request {i} {req:?} got {resp:?}"
            );
        }
        let (served, busy, errors) = whole.state.counters();
        assert_eq!(served + busy + errors, reqs.len() as u64);
        assert_eq!(errors, 1, "the one undecodable payload");
        let Response::Registered { tenant: hog } = expected[0] else {
            panic!("the first request registers the over-quota tenant");
        };
        let hog_shed = reqs.iter().zip(&replies).any(|(req, resp)| {
            req.as_ref().and_then(Request::tenant) == Some(hog)
                && matches!(resp, Response::Busy { .. })
        });
        assert!(hog_shed, "the over-quota tenant was never shed");

        let bytewise = serve_script(&input, vec![1; input.len()], None);
        assert_eq!(bytewise.replies, whole.replies, "one byte per read");
        same_books(&bytewise.state, &expected_state);

        for cut in 1..=wire(&reqs[..3]).len() {
            let split = serve_script(&input, vec![cut], None);
            assert_eq!(split.replies, whole.replies, "first read cut at byte {cut}");
        }
    }

    #[test]
    fn frames_one_read_delivers_leave_in_one_write() {
        let reqs = traffic(7, 8); // 8 registrations + 8 requests + the bad payload
        let input = wire(&reqs);
        assert!(input.len() < 4096, "the batch must fit one read");
        let served = serve_script(&input, Vec::new(), None);
        assert_eq!(decode_replies(&served.replies).len(), reqs.len());
        assert_eq!(served.reads, 2, "the batch, then EOF");
        assert_eq!(
            served.writes,
            1,
            "{} frames arrived in one read and must leave in one write",
            reqs.len()
        );
        // One frame per read is the other end: a write each, never more.
        let cuts: Vec<usize> = reqs
            .iter()
            .map(|r| wire(std::slice::from_ref(r)).len())
            .collect();
        let one_by_one = serve_script(&input, cuts, None);
        assert_eq!(one_by_one.replies, served.replies);
        assert_eq!(one_by_one.writes, reqs.len());
        assert_eq!(one_by_one.reads, reqs.len() + 1);
    }

    #[test]
    fn frame_error_mid_batch_delivers_earlier_replies_then_closes() {
        let reqs = traffic(11, 8);
        let (before, after) = reqs.split_at(12);
        let mut input = wire(before);
        input.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        input.extend_from_slice(&wire(after));
        let served = serve_script(&input, Vec::new(), None);
        let replies = decode_replies(&served.replies);
        assert_eq!(
            replies.len(),
            before.len() + 1,
            "earlier replies + the error"
        );
        assert_eq!(replies[..before.len()], reference(before).0[..]);
        assert!(matches!(
            replies.last(),
            Some(Response::Error {
                code: ErrorCode::Malformed,
                ..
            })
        ));
        assert_eq!(
            (served.reads, served.writes),
            (1, 1),
            "flushed, then closed"
        );
        let (done, busy, errors) = served.state.counters();
        assert_eq!((done + busy, errors), (before.len() as u64, 1));
    }

    #[test]
    fn stop_mid_batch_answers_the_request_in_flight_then_closes() {
        let reqs = traffic(13, 8);
        let input = wire(&reqs);
        let first_pass = wire(&reqs[..3]).len();
        // The second read delivers everything left, and the drain begins
        // while it does: one more request is answered, none after it.
        let served = serve_script(&input, vec![first_pass], Some(2));
        assert_eq!(
            decode_replies(&served.replies),
            reference(&reqs[..4]).0,
            "three answered before the drain, the one in flight after"
        );
        assert_eq!(
            (served.reads, served.writes),
            (2, 2),
            "flushed, then closed"
        );
    }
}
