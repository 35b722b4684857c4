//! The three fleet workloads: `fleet_write`, `fleet_read`, `fleet_idle`.
//!
//! A run sets a fleet up (build, warm up, snapshot), then repeats the same
//! work — restore the snapshot, step a fixed number of simulated minutes —
//! and reports the median repetition. Everything runs on this thread, on
//! the engine `FleetSim::new` returns.
//!
//! The traced run (`fleet_trace`) adds spans on top of the same set-up and
//! untraced repetitions.

use crate::metrics::{Checks, Outcome, Values};
use crate::stats::{self, median, quartiles, ratio, secs_since, timed};
use crate::Args;
use autodbaas_cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_simdb::{Backend, BackendKind, DbFlavor, DiskKind, InstanceType, MetricId};
use autodbaas_telemetry::{EventLog, Fingerprint, MILLIS_PER_MIN};
use autodbaas_tuner::WorkloadId;
use autodbaas_workload::{tpcc, tpch, wikipedia, ArrivalProcess, MixWorkload};
use std::hint::black_box;
use std::time::Instant;

/// Shape of one fleet workload.
pub struct Spec {
    pub nodes: usize,
    warm_min: u64,
    pub rep_min: u64,
    /// Node `i` of the fleet.
    node: fn(usize, u64) -> ManagedDatabase,
    /// `latency_ms` is the snapshot round trip (else the median TDE-round
    /// step).
    snapshot_latency: bool,
}

fn spec_for(name: &str, quick: bool) -> Spec {
    let (nodes, quick_nodes, rep_min, node): (_, _, _, fn(usize, u64) -> ManagedDatabase) =
        match name {
            "fleet_write" => (32, 8, 60, write_node),
            "fleet_read" => (32, 8, 30, read_node),
            "fleet_idle" => (4096, 256, 10, idle_node),
            other => unreachable!("not a fleet workload: {other}"),
        };
    let snapshot_latency = name == "fleet_idle";
    if quick {
        Spec {
            nodes: quick_nodes,
            warm_min: 2,
            rep_min: 3,
            node,
            snapshot_latency,
        }
    } else {
        Spec {
            nodes,
            warm_min: 10,
            rep_min,
            node,
            snapshot_latency,
        }
    }
}

fn managed(flavor: DbFlavor, wl: MixWorkload, qps: f64, seed: u64) -> ManagedDatabase {
    let catalog = wl.catalog().clone();
    ManagedDatabase::new(
        flavor,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        Box::new(wl),
        ArrivalProcess::Constant(qps),
        TuningPolicy::TdeDriven,
        WorkloadId(0),
        TdeConfig::default(),
        seed,
    )
}

fn node_seed(i: usize, seed: u64) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// TPC-C that fits the buffer pool, page heap and LSM alternating.
fn write_node(i: usize, seed: u64) -> ManagedDatabase {
    let flavor = if i.is_multiple_of(2) {
        DbFlavor::Postgres
    } else {
        DbFlavor::Lsm
    };
    managed(flavor, tpcc(0.5), 250.0, node_seed(i, seed))
}

/// Analytic scans and a read-mostly web mix over data far larger than the
/// buffer pool.
fn read_node(i: usize, seed: u64) -> ManagedDatabase {
    if i.is_multiple_of(2) {
        managed(DbFlavor::Postgres, tpch(24.0), 8.0, node_seed(i, seed))
    } else {
        managed(
            DbFlavor::Postgres,
            wikipedia(12.0),
            1000.0,
            node_seed(i, seed),
        )
    }
}

/// The long-tail tenant fleet: one service in 128 trickles TPC-C.
fn idle_node(i: usize, seed: u64) -> ManagedDatabase {
    let qps = if i.is_multiple_of(128) { 2.0 } else { 0.0 };
    managed(DbFlavor::Postgres, tpcc(0.5), qps, node_seed(i, seed))
}

fn build(spec: &Spec, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed,
            ..FleetConfig::default()
        },
        4,
    );
    for i in 0..spec.nodes {
        sim.add_node((spec.node)(i, seed), &format!("db-{i}"));
    }
    sim
}

/// Build, warm up, snapshot; also how long the snapshot alone took.
fn setup(spec: &Spec, seed: u64) -> (FleetSim, Vec<u8>, f64) {
    let mut sim = build(spec, seed);
    sim.run_for(spec.warm_min * MILLIS_PER_MIN);
    let (snap, encode_s) = timed(|| sim.snapshot_bytes());
    (sim, snap, encode_s)
}

pub fn restore(snap: &[u8]) -> FleetSim {
    FleetSim::from_snapshot_bytes(snap).expect("a snapshot this process just wrote decodes")
}

/// What a fleet did, reduced to numbers that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    pub events: u64,
    queries: u64,
    pub requests: u64,
    applies: u64,
    knobs: u64,
}

impl Digest {
    fn of(sim: &FleetSim) -> Self {
        let mut knobs = Fingerprint::new();
        for n in &sim.nodes {
            for v in Backend::knobs(n.service.master()).as_vec() {
                knobs.mix_u64(v.to_bits());
            }
        }
        Self {
            events: sim.events.fingerprint(),
            queries: sim.nodes.iter().map(|n| n.queries_submitted).sum(),
            requests: sim.director.total_requests() as u64,
            applies: sim.events.count("apply.ok") as u64,
            knobs: knobs.finish(),
        }
    }

    fn combined(&self) -> u64 {
        let mut f = Fingerprint::new();
        for v in [
            self.events,
            self.queries,
            self.requests,
            self.applies,
            self.knobs,
        ] {
            f.mix_u64(v);
        }
        f.finish()
    }
}

/// Fleet-wide sums of the counters the per-layer counts are deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub executed: f64,
    pub dropped: f64,
    pub blks_hit: f64,
    pub blks_read: f64,
    pub spills: f64,
    pub sorts_in_memory: f64,
    pub wal_bytes: f64,
    pub checkpoints: u64,
    pub compactions: u64,
    pub throttles: u64,
    pub tuning_requests: u64,
    pub suppressed: u64,
    pub requests: u64,
    pub events: usize,
    node_ticks: u64,
    down_ticks: u64,
}

impl Counters {
    fn of(sim: &FleetSim) -> Self {
        let mut c = Counters {
            requests: sim.director.total_requests() as u64,
            events: sim.events.len(),
            ..Counters::default()
        };
        for n in &sim.nodes {
            let db = n.service.master();
            let m = Backend::metrics(db);
            c.executed += m.get(MetricId::QueriesExecuted);
            c.dropped += m.get(MetricId::QueriesDropped);
            c.blks_hit += m.get(MetricId::BlksHit);
            c.blks_read += m.get(MetricId::BlksRead);
            c.spills += m.get(MetricId::SortSpills);
            c.sorts_in_memory += m.get(MetricId::SortsInMemory);
            c.wal_bytes += m.get(MetricId::WalBytes);
            match BackendKind::for_flavor(Backend::flavor(db)) {
                BackendKind::PageHeap => c.checkpoints += Backend::checkpoints_done(db),
                BackendKind::Lsm => c.compactions += Backend::checkpoints_done(db),
            }
            c.throttles += n.tde.throttle_counts().iter().sum::<u64>();
            c.tuning_requests += n.tde.tuning_requests();
            c.suppressed += n.tde.suppressed();
            c.node_ticks += n.total_ticks;
            c.down_ticks += n.down_ticks;
        }
        c
    }
}

/// One repetition: restored fleet, `ticks` steps, each step timed.
struct Rep {
    sim: FleetSim,
    decode_s: f64,
    /// Host seconds of every step.
    step_s: Vec<f64>,
    cpu_ns: f64,
}

fn run_rep(snap: &[u8], ticks: u64) -> Rep {
    let (mut sim, decode_s) = timed(|| restore(snap));
    let mut step_s = Vec::with_capacity(ticks as usize);
    let cpu0 = stats::thread_cpu_ns();
    for _ in 0..ticks {
        let t = Instant::now();
        sim.step();
        step_s.push(secs_since(t));
    }
    Rep {
        sim,
        decode_s,
        step_s,
        cpu_ns: stats::thread_cpu_ns() - cpu0,
    }
}

/// Results of the untraced repetitions of a run.
pub struct Measured {
    pub values: Values,
    pub checks: Checks,
    attempted: u64,
    failed: u64,
    pub snap: Vec<u8>,
    /// Host seconds of one repetition (the sum of its steps' noise floors).
    pub rep_s: f64,
    /// Counter deltas of one repetition (all repetitions are identical).
    pub delta: (Counters, Counters),
    pub events_in_rep: EventLog,
}

/// Set the fleet up `setups` times, then measure untraced repetitions for
/// `budget_s` seconds (at least `floor`).
fn measure(spec: &Spec, args: &Args, setups: usize, floor: usize, budget_s: f64) -> Measured {
    let mut checks = Checks::default();
    let mut values = Values::default();
    let ticks = spec.rep_min * 60;

    // Set-up, several times over: the median is what a later change that
    // moves work into set-up is held to.
    let mut setup_s = Vec::new();
    let mut encode_s = Vec::new();
    let mut kept: Option<(FleetSim, Vec<u8>)> = None;
    for _ in 0..setups {
        let ((sim, snap, encode), s) = timed(|| setup(spec, args.seed));
        setup_s.push(s);
        encode_s.push(encode);
        if let Some((_, prev)) = &kept {
            checks.require(*prev == snap, || {
                "two set-ups from one seed gave different snapshots".into()
            });
        }
        kept = Some((sim, snap));
    }
    println!("# setup_s samples {setup_s:.3?}");
    let (mut unbroken, snap) = kept.expect("at least one set-up");
    // Which steps close a TDE window is the same in every repetition.
    let period_ticks = unbroken.config().tde_period_ms / unbroken.config().tick_ms;
    let start = Counters::of(&unbroken);
    let events_at_start = unbroken.events.len();

    // The unbroken run is the reference every restored repetition must
    // equal; it doubles as the untimed first pass that fills host caches.
    unbroken.run_for(ticks * 1_000);
    let reference = Digest::of(&unbroken);
    let end = Counters::of(&unbroken);
    let mut events_in_rep = EventLog::new();
    for e in &unbroken.events.events()[events_at_start..] {
        events_in_rep.emit(e.at, e.kind, e.target);
    }
    drop(unbroken);
    println!(
        "# sim_digest {:016x} (events {:016x} queries {} requests {} applies {} knobs {:016x})",
        reference.combined(),
        reference.events,
        reference.queries,
        reference.requests,
        reference.applies,
        reference.knobs
    );

    let mut step_s: Vec<Vec<f64>> = Vec::new();
    let mut decode_s = Vec::new();
    let mut cpu_ns = Vec::new();
    let started = Instant::now();
    while args.keep_going(step_s.len(), floor, started, budget_s) {
        let rep = run_rep(&snap, ticks);
        let digest = Digest::of(&rep.sim);
        checks.require(digest == reference, || {
            format!(
                "repetition {} diverged from the unbroken run: {digest:?} vs {reference:?}",
                step_s.len()
            )
        });
        if spec.snapshot_latency {
            // The restore above and this encode are one round trip of a
            // fleet-sized snapshot.
            let (bytes, s) = timed(|| rep.sim.snapshot_bytes());
            black_box(bytes);
            encode_s.push(s);
        }
        step_s.push(rep.step_s);
        decode_s.push(rep.decode_s);
        cpu_ns.push(rep.cpu_ns);
    }

    let node_ticks = (spec.nodes as u64 * ticks) as f64;
    let q = quartiles(&mut step_s.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>());
    let step_floor = stats::noise_floor(&step_s);
    let rep_s: f64 = step_floor.iter().sum();
    println!(
        "# rep_s {rep_s:.4} = sum over steps of the fastest of {} repetitions; whole repetitions: median {:.4} q1 {:.4} q3 {:.4}",
        q.n, q.median, q.q1, q.q3
    );
    let mut round_step_s: Vec<f64> = step_floor
        .iter()
        .enumerate()
        .filter(|(k, _)| (*k as u64 + 1).is_multiple_of(period_ticks))
        .map(|(_, s)| *s)
        .collect();
    let node_ticks_per_s = node_ticks / rep_s;
    values.set("work_per_s", node_ticks_per_s);
    values.set("node_ticks_per_s", node_ticks_per_s);
    // A fleet-sized snapshot out and back in. The bytes are the same every
    // time, so each half costs its fastest sample (every set-up encodes,
    // every repetition decodes; `fleet_idle` encodes after each one too).
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let roundtrip_s = fastest(&decode_s) + fastest(&encode_s);
    println!("# snapshot decode_s {decode_s:.3?} encode_s {encode_s:.3?}");
    values.set("snap_roundtrip_s", roundtrip_s);
    values.set(
        "latency_ms",
        if spec.snapshot_latency {
            roundtrip_s * 1e3
        } else {
            median(&mut round_step_s) * 1e3
        },
    );
    values.set("setup_s", median(&mut setup_s));
    values.set("peak_rss_mb", stats::peak_rss_mb());
    let mb = snap.len() as f64 / 1e6;
    values.set("snapshot.encode_mb_s", ratio(mb, median(&mut encode_s)));
    values.set("snapshot.decode_mb_s", ratio(mb, median(&mut decode_s)));
    values.set(
        "snapshot.bytes_per_node",
        snap.len() as f64 / spec.nodes as f64,
    );
    values.set(
        "cloudsim.cpu_ns_per_node_tick",
        median(&mut cpu_ns) / node_ticks,
    );

    // The benchmark's operations are node-ticks; one fails when the node's
    // master is hard-down and refuses its traffic. Queries a *simulated*
    // instance sheds under load are the model's output, not the program's
    // failure: they are `simdb.dropped_frac` and part of the digest.
    let attempted = (end.node_ticks - start.node_ticks) * step_s.len() as u64;
    let failed = (end.down_ticks - start.down_ticks) * step_s.len() as u64;
    values.set("fail_frac", ratio(failed as f64, attempted as f64));
    Measured {
        values,
        checks,
        attempted,
        failed,
        snap,
        rep_s,
        delta: (start, end),
        events_in_rep,
    }
}

pub fn run(name: &str, args: &Args) -> Outcome {
    let spec = spec_for(name, args.quick);
    let mut m = if args.trace {
        // A third of the time for the untraced baseline, the rest traced.
        measure(
            &spec,
            args,
            1,
            if args.quick { 1 } else { 3 },
            args.seconds / 4.0,
        )
    } else {
        // Five set-ups of a small fleet, three of the 4096-node one.
        let setups = match (args.quick, spec.nodes > 1_000) {
            (true, _) => 2,
            (false, true) => 3,
            (false, false) => 5,
        };
        measure(
            &spec,
            args,
            setups,
            if args.quick { 2 } else { 3 },
            args.seconds,
        )
    };
    if args.trace {
        crate::fleet_trace::run(&spec, args, &mut m);
    }
    Outcome {
        correct: m.checks.all_passed(),
        attempted: m.attempted,
        failed: m.failed,
        values: m.values,
    }
}
