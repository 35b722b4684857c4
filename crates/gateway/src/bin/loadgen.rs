//! `autodbaas-loadgen` — closed-loop load generator for the gateway.
//!
//! ```text
//! autodbaas-loadgen [--requests 50000] [--conns 8] [--seed 42]
//!                   [--workers 8] [--rate 2000] [--burst 64]
//!                   [--addr HOST:PORT] [--no-overquota]
//! ```
//!
//! Spins an in-process gateway on `127.0.0.1:0` (or targets `--addr`),
//! then drives it with `--conns` paced closed-loop tenant clients — each
//! replaying a seeded [`ArrivalProcess`] to shape its metrics windows —
//! plus one deliberately over-quota aggressor tenant that must observe
//! `Busy` replies, proving admission control sheds load. Every worker
//! waits for each reply before sending the next request (closed loop), so
//! a dropped reply deadlocks-by-timeout instead of vanishing silently.
//!
//! This is the operator's pass/fail smoke, not a benchmark (timings come
//! from `benchmark/`'s `gateway_mix` workload): it prints summary lines
//! (totals, client p50/p90/p99/max latency, throughput, server-side
//! counters) on stdout, and the exit code is non-zero if any protocol
//! error occurred, any reply was dropped, or — with the aggressor
//! enabled — no `Busy` reply was observed.

use autodbaas_gateway::{
    serve, AdmissionConfig, ClientError, GatewayClient, GatewayState, Request, Response,
    RouterConfig, ServerConfig, WallClock,
};
use autodbaas_telemetry::{percentile, MILLIS_PER_HOUR};
use autodbaas_workload::{ArrivalProcess, DiurnalProfile};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// detlint-allow: D001 loadgen measures real wall-clock latency by design; nothing here feeds sim state
use std::time::Instant;

use autodbaas_telemetry::outln;

/// What one client thread brings home.
#[derive(Debug, Default)]
struct WorkerReport {
    sent: u64,
    served: u64,
    busy: u64,
    protocol_errors: u64,
    latencies_us: Vec<u64>,
}

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(name: &str, default: T) -> Result<T, ExitCode> {
    match arg(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            eprintln!("error: {name} expects a number, got '{v}'");
            ExitCode::from(2)
        }),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(code) => code,
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<ExitCode, ExitCode> {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        outln!(
            "usage: autodbaas-loadgen [--requests N] [--conns N] [--seed N] \
             [--workers N] [--rate RPS] [--burst N] [--addr HOST:PORT] \
             [--no-overquota]"
        );
        return Ok(ExitCode::SUCCESS);
    }
    let requests: u64 = parsed("--requests", 50_000)?;
    let conns: usize = parsed("--conns", 8)?;
    let seed: u64 = parsed("--seed", 42)?;
    // Workers pin connections until EOF, so the in-process server needs a
    // worker per client (paced conns + the aggressor) or the surplus
    // connection starves in a queue for the whole run.
    let workers: usize = parsed("--workers", conns + 1)?;
    let rate: f64 = parsed("--rate", 2_000.0)?;
    let burst: f64 = parsed("--burst", 64.0)?;
    let overquota = !std::env::args().any(|a| a == "--no-overquota");
    if conns == 0 || requests == 0 || rate <= 0.0 || burst <= 0.0 {
        eprintln!("error: --requests/--conns/--rate/--burst must be positive");
        return Err(ExitCode::from(2));
    }

    // Either attach to an external gateway or host one in-process.
    let (addr, handle) = match arg("--addr") {
        Some(a) => {
            let addr: SocketAddr = a.parse().map_err(|_| {
                eprintln!("error: --addr expects HOST:PORT, got '{a}'");
                ExitCode::from(2)
            })?;
            (addr, None)
        }
        None => {
            let state = GatewayState::new(RouterConfig {
                admission: AdmissionConfig {
                    burst,
                    rate_per_sec: rate,
                },
                ..RouterConfig::default()
            });
            let cfg = ServerConfig {
                workers,
                ..ServerConfig::default()
            };
            let handle =
                serve("127.0.0.1:0", state, cfg, Arc::new(WallClock::new())).map_err(|e| {
                    eprintln!("error: cannot bind loopback gateway: {e}");
                    ExitCode::from(2)
                })?;
            (handle.addr(), Some(handle))
        }
    };

    outln!(
        "loadgen: {requests} requests over {conns} paced conns{} against {addr} \
         (admission {rate}/s, burst {burst})",
        if overquota { " + 1 aggressor" } else { "" }
    );

    // Paced clients stay safely under the per-tenant rate; the aggressor
    // runs unpaced and must trip the token bucket.
    let pace_us = (1_000_000.0 / (rate * 0.7)).ceil() as u64;
    let sent_total = Arc::new(AtomicU64::new(0));
    let t_start = Instant::now();

    let mut threads = Vec::new();
    for i in 0..conns {
        let sent_total = Arc::clone(&sent_total);
        // detlint-allow: D005 one client thread per configured connection, spawned once per run
        threads.push(std::thread::spawn(move || {
            paced_client(
                addr,
                seed ^ ((i as u64 + 1) * 0x9E37),
                requests,
                pace_us,
                &sent_total,
            )
        }));
    }
    let aggressor = overquota.then(|| {
        let sent_total = Arc::clone(&sent_total);
        std::thread::spawn(move || aggressor_client(addr, seed ^ 0xA66E, requests, &sent_total))
    });

    let mut reports: Vec<WorkerReport> = Vec::new();
    for t in threads {
        match t.join() {
            Ok(r) => reports.push(r),
            Err(_) => {
                eprintln!("error: a client thread panicked");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    let aggressor_report = match aggressor.map(std::thread::JoinHandle::join) {
        Some(Ok(r)) => Some(r),
        Some(Err(_)) => {
            eprintln!("error: the aggressor thread panicked");
            return Err(ExitCode::FAILURE);
        }
        None => None,
    };
    let elapsed = t_start.elapsed();

    // Aggregate.
    let mut all = reports;
    let aggressor_busy = aggressor_report.as_ref().map_or(0, |r| r.busy);
    if let Some(r) = aggressor_report {
        all.push(r);
    }
    let sent: u64 = all.iter().map(|r| r.sent).sum();
    let served: u64 = all.iter().map(|r| r.served).sum();
    let busy: u64 = all.iter().map(|r| r.busy).sum();
    let protocol_errors: u64 = all.iter().map(|r| r.protocol_errors).sum();
    let replies = served + busy;
    let dropped = sent.saturating_sub(replies + protocol_errors);
    let mut lat: Vec<f64> = all
        .iter()
        .flat_map(|r| r.latencies_us.iter().map(|&us| us as f64))
        .collect();
    lat.sort_by(f64::total_cmp);
    let p50 = percentile(&lat, 50.0);
    let p90 = percentile(&lat, 90.0);
    let p99 = percentile(&lat, 99.0);
    let max = lat.last().copied().unwrap_or(0.0);
    let throughput = sent as f64 / elapsed.as_secs_f64().max(1e-9);

    outln!(
        "loadgen: sent={sent} served={served} busy={busy} (aggressor {aggressor_busy}) \
         errors={protocol_errors} dropped={dropped}"
    );
    outln!(
        "loadgen: p50={:.0}us p90={:.0}us p99={:.0}us max={:.0}us throughput={:.0} req/s",
        p50,
        p90,
        p99,
        max,
        throughput
    );
    // Drain the in-process gateway and report what it counted.
    if let Some(h) = handle {
        let state = h.shutdown();
        let (srv_served, srv_busy, srv_errors) = state.lock().counters();
        outln!("loadgen: server served={srv_served} busy={srv_busy} errors={srv_errors}");
    }

    let mut failed = false;
    if protocol_errors > 0 {
        eprintln!("FAIL: {protocol_errors} protocol errors");
        failed = true;
    }
    if dropped > 0 {
        eprintln!("FAIL: {dropped} dropped replies");
        failed = true;
    }
    if overquota && aggressor_busy == 0 {
        eprintln!("FAIL: aggressor saw no Busy replies; admission control did not shed");
        failed = true;
    }
    if failed {
        return Err(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// A well-behaved tenant: registers, then replays a seeded arrival
/// process as metrics windows interleaved with fetches, acks, throttle
/// signals and health probes, pacing itself under the admission rate.
fn paced_client(
    addr: SocketAddr,
    seed: u64,
    target: u64,
    pace_us: u64,
    sent_total: &AtomicU64,
) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let arrival = if seed.is_multiple_of(2) {
        ArrivalProcess::Diurnal(DiurnalProfile::default())
    } else {
        ArrivalProcess::Constant(400.0 + (seed % 7) as f64 * 150.0)
    };
    let Some(mut client) = connect(addr) else {
        report.protocol_errors += 1;
        return report;
    };
    let Some(tenant) = register(&mut client, &mut rng, seed, &mut report, sent_total) else {
        return report;
    };

    // Tenant-local simulated timeline for metrics windows: one hour per
    // window keeps the TDE's workload classes moving through the day.
    let mut sim_time: u64 = (seed % 24) * MILLIS_PER_HOUR;
    let window_ms: u32 = MILLIS_PER_HOUR as u32;
    let mut window_idx: u64 = 0;

    while sent_total.load(Ordering::Relaxed) < target {
        let roll = rng.gen_range(0u32..100);
        let req = if roll < 60 {
            window_idx += 1;
            let mut class_counts = [0u64; 6];
            for c in class_counts.iter_mut() {
                // Independent thinned samples per class: same diurnal
                // shape, class mix varies with the tenant's RNG stream.
                *c = arrival.sample_count(&mut rng, sim_time, u64::from(window_ms)) / 6;
            }
            sim_time += u64::from(window_ms);
            Request::PushMetricsWindow {
                tenant,
                window_start: sim_time,
                window_ms,
                class_counts,
                throttled: window_idx.is_multiple_of(3),
                knob_at_cap: window_idx.is_multiple_of(9),
            }
        } else if roll < 75 {
            Request::FetchRecommendation {
                tenant,
                now: sim_time,
            }
        } else if roll < 85 {
            Request::ThrottleSignal {
                tenant,
                at: sim_time,
                knob_class: (rng.next_u32() % 3) as u8,
                service_time_ms: 90_000 + rng.next_u32() % 40_000,
            }
        } else if roll < 95 {
            Request::ApplyAck {
                tenant,
                at: sim_time,
                ok: rng.gen_range(0u32..10) != 0,
            }
        } else if roll < 98 {
            Request::Health
        } else {
            Request::Stats
        };
        call_once(&mut client, &req, &mut report, sent_total);
        std::thread::sleep(Duration::from_micros(pace_us));
    }
    report
}

/// The over-quota tenant: same protocol, no pacing. Its token bucket must
/// empty and the gateway must answer `Busy` — that is the signal this
/// client exists to provoke.
fn aggressor_client(
    addr: SocketAddr,
    seed: u64,
    target: u64,
    sent_total: &AtomicU64,
) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let Some(mut client) = connect(addr) else {
        report.protocol_errors += 1;
        return report;
    };
    let Some(tenant) = register(&mut client, &mut rng, seed, &mut report, sent_total) else {
        return report;
    };
    let mut sim_time: u64 = 0;
    while sent_total.load(Ordering::Relaxed) < target {
        sim_time += 1_000;
        let req = Request::FetchRecommendation {
            tenant,
            now: sim_time,
        };
        call_once(&mut client, &req, &mut report, sent_total);
        // Several-fold over any sane quota (~8–10k req/s effective) but
        // not a pure spin loop, so paced tenants keep a visible share of
        // the benchmark's traffic mix.
        std::thread::sleep(Duration::from_micros(100));
    }
    report
}

fn connect(addr: SocketAddr) -> Option<GatewayClient> {
    let mut client = GatewayClient::connect(addr).ok()?;
    client.set_timeout(Duration::from_secs(10)).ok()?;
    Some(client)
}

fn register(
    client: &mut GatewayClient,
    rng: &mut StdRng,
    seed: u64,
    report: &mut WorkerReport,
    sent_total: &AtomicU64,
) -> Option<u64> {
    let req = Request::RegisterService {
        flavor: (rng.next_u32() % 2) as u8,
        instance: (rng.next_u32() % 6) as u8,
        disk: (rng.next_u32() % 2) as u8,
        n_slaves: (rng.next_u32() % 3) as u8,
        seed,
    };
    match call_once(client, &req, report, sent_total) {
        Some(Response::Registered { tenant }) => Some(tenant),
        Some(Response::Busy { retry_after_ms }) => {
            // Registration raced the bucket; back off once and retry.
            std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
            match call_once(client, &req, report, sent_total) {
                Some(Response::Registered { tenant }) => Some(tenant),
                _ => None,
            }
        }
        _ => None,
    }
}

/// One closed-loop exchange: send, wait for the reply, classify it.
fn call_once(
    client: &mut GatewayClient,
    req: &Request,
    report: &mut WorkerReport,
    sent_total: &AtomicU64,
) -> Option<Response> {
    report.sent += 1;
    sent_total.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    match client.call(req) {
        Ok(Response::Busy { .. }) => {
            report.busy += 1;
            Some(Response::Busy { retry_after_ms: 0 })
        }
        Ok(Response::Error { .. }) => {
            // Any typed server error is a protocol failure for a
            // well-formed load-generator request.
            report.protocol_errors += 1;
            None
        }
        Ok(resp) => {
            report.served += 1;
            report
                .latencies_us
                .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
            Some(resp)
        }
        Err(ClientError::Io(_) | ClientError::Closed) => {
            // Connection died (e.g. shed); count as a protocol error —
            // the loadgen's contract is zero of these on loopback.
            report.protocol_errors += 1;
            None
        }
        Err(_) => {
            report.protocol_errors += 1;
            None
        }
    }
}
