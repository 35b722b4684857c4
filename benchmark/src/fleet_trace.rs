//! The traced run of a fleet workload.
//!
//! The harness calls `FleetSim::step` itself, one span per step, classified
//! `drive` / `round` / `deliver`. What a step spends below `cloudsim` cannot
//! be timed from inside it without editing the program, so it is timed on
//! *twins*: a few nodes of each kind copied out of the fleet through the
//! `Snap` codec and driven, just before the real step, by
//! [`composed_drive`] — the calls `ManagedDatabase::drive` makes, rebuilt
//! from public fields with one timed block per layer. A twin that stops
//! matching its node fails the run; the trace would otherwise describe a
//! different program.

use crate::fleet::{restore, Measured, Spec};
use crate::metrics::{Checks, Values};
use crate::stats::{self, median, ratio, secs_since};
use crate::trace::{Recorder, Span, ROOT};
use crate::Args;
use autodbaas_cloudsim::{FleetSim, ManagedDatabase};
use autodbaas_ctrlplane::{
    ConfigDirector, RecommendationMeter, ReplicaSet, ServiceId, TunerKind, WindowStat,
};
use autodbaas_simdb::{
    ApplyMode, Backend, BackendKind, ConfigChange, DiskKind, QueryProfile, SubmitResult,
};
use autodbaas_telemetry::{EventLog, TimeSeries};
use std::hint::black_box;
use std::time::Instant;

/// Distinct query instances `ManagedDatabase::drive` materialises per tick
/// (a private constant there; the fidelity checks catch a drift).
const QUERY_SHAPES_PER_TICK: u64 = 24;

/// Host nanoseconds and call counts of one tick of a set of twins, by layer.
#[derive(Debug, Clone, Copy, Default)]
struct DriveCost {
    arrival_ns: u64,
    next_query_ns: u64,
    next_query_calls: u32,
    submit_ns: u64,
    submit_calls: u32,
    tick_ns: u64,
}

impl DriveCost {
    fn total_ns(&self) -> u64 {
        self.arrival_ns + self.next_query_ns + self.submit_ns + self.tick_ns
    }
}

/// Arrival counts and drawn queries of one tick, per twin.
#[derive(Default)]
struct Drawn {
    arrivals: Vec<u64>,
    queries: Vec<Vec<QueryProfile>>,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// One tick of `ManagedDatabase::drive` for every twin, layer by layer: all
/// arrivals, then all query draws, then all submits, then all ticks, each
/// timed as one block (five clock reads per tick, not per node, so a
/// ~200 ns idle node-tick is not buried under them). Nodes are independent
/// and each node's own calls keep their order, so every twin ends exactly
/// where `drive` would leave it.
fn composed_drive(twins: &mut [ManagedDatabase], tick_ms: u64, drawn: &mut Drawn) -> DriveCost {
    drawn.arrivals.clear();
    drawn.queries.resize_with(twins.len(), Vec::new);
    let mut cost = DriveCost::default();
    for node in twins.iter_mut() {
        node.total_ticks += 1;
        if Backend::is_down(node.service.master()) {
            node.down_ticks += 1;
        }
    }
    let t0 = Instant::now();
    for node in twins.iter_mut() {
        let now = Backend::now(node.service.master());
        drawn
            .arrivals
            .push(node.arrival.sample_count(&mut node.rng, now, tick_ms));
    }
    let t1 = Instant::now();
    for (node, (&n, queries)) in twins
        .iter_mut()
        .zip(drawn.arrivals.iter().zip(&mut drawn.queries))
    {
        queries.clear();
        for _ in 0..n.min(QUERY_SHAPES_PER_TICK) {
            queries.push(node.workload.next_query(&mut node.rng));
        }
        cost.next_query_calls += queries.len() as u32;
    }
    let t2 = Instant::now();
    for (node, (&n, queries)) in twins
        .iter_mut()
        .zip(drawn.arrivals.iter().zip(&drawn.queries))
    {
        if n == 0 {
            continue;
        }
        let shapes = queries.len() as u64;
        let per_shape = n / shapes;
        let remainder = n - per_shape * shapes;
        let mut submitted = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let count = per_shape + u64::from((i as u64) < remainder);
            if count > 0 {
                cost.submit_calls += 1;
                match Backend::submit(node.service.master_mut(), q, count) {
                    SubmitResult::Done(_) | SubmitResult::Queued => submitted += count,
                    SubmitResult::Refused | SubmitResult::Saturated { .. } => {}
                }
            }
        }
        node.queries_submitted += submitted;
    }
    let t3 = Instant::now();
    for node in twins.iter_mut() {
        node.service.tick(tick_ms);
    }
    let t4 = Instant::now();
    cost.arrival_ns = ns_between(t0, t1);
    cost.next_query_ns = ns_between(t1, t2);
    cost.submit_ns = ns_between(t2, t3);
    cost.tick_ns = ns_between(t3, t4);
    cost
}

/// Deep copy of a node through its `Snap` codec.
fn clone_node(node: &ManagedDatabase) -> ManagedDatabase {
    autodbaas_snapshot::decode_from_slice(&autodbaas_snapshot::encode_to_vec(node))
        .expect("a node this process just encoded decodes")
}

fn same_state(a: &ManagedDatabase, b: &ManagedDatabase) -> bool {
    let (ma, mb) = (
        Backend::metrics_snapshot(a.service.master()),
        Backend::metrics_snapshot(b.service.master()),
    );
    let bits = |v: &f64| v.to_bits();
    a.queries_submitted == b.queries_submitted
        && ma
            .as_vec()
            .iter()
            .map(bits)
            .eq(mb.as_vec().iter().map(bits))
}

/// Probe fidelity: over `ticks` ticks, [`composed_drive`] must leave twins
/// exactly where `ManagedDatabase::drive` leaves copies of the same nodes.
fn check_fidelity(sim: &FleetSim, groups: &[Group], ticks: u64, checks: &mut Checks) {
    let tick_ms = sim.config().tick_ms;
    let mut drawn = Drawn::default();
    for g in groups {
        let copies = || -> Vec<ManagedDatabase> {
            g.probes
                .iter()
                .map(|&i| clone_node(&sim.nodes[i]))
                .collect()
        };
        let (mut by_drive, mut by_probe) = (copies(), copies());
        for _ in 0..ticks {
            for node in &mut by_drive {
                node.drive(tick_ms);
            }
            composed_drive(&mut by_probe, tick_ms, &mut drawn);
        }
        for ((a, b), idx) in by_drive.iter().zip(&by_probe).zip(&g.probes) {
            checks.require(same_state(a, b), || {
                format!("composed drive diverged from ManagedDatabase::drive on node {idx}")
            });
        }
    }
}

/// Nodes that share engine, workload and load; a few of them are probed
/// and stand for the rest.
struct Group {
    kind: BackendKind,
    active: bool,
    size: usize,
    probes: Vec<usize>,
}

/// Twins per group. A loaded node is ~0.5 MB to copy and costs microseconds
/// a tick, so two suffice; an idle one is small and costs ~200 ns, so more
/// of them are run back to back to keep cold-cache starts out of the mean.
fn probes_wanted(active: bool) -> usize {
    if active {
        2
    } else {
        32
    }
}

fn groups_of(sim: &FleetSim) -> Vec<Group> {
    let mut groups: Vec<(String, Group)> = Vec::new();
    for (idx, n) in sim.nodes.iter().enumerate() {
        let kind = BackendKind::for_flavor(Backend::flavor(n.service.master()));
        let active = n.arrival.rate_at(sim.now()) > 0.0;
        let key = format!("{}/{}/{active}", kind.name(), n.workload.source_name());
        let pos = groups
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                groups.push((
                    key,
                    Group {
                        kind,
                        active,
                        size: 0,
                        probes: Vec::new(),
                    },
                ));
                groups.len() - 1
            });
        let g = &mut groups[pos].1;
        g.size += 1;
        if g.probes.len() < probes_wanted(active) {
            g.probes.push(idx);
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StepClass {
    Drive,
    Round,
    Deliver,
}

const STEP_SPAN: [&str; 3] = [
    "cloudsim.step.drive",
    "cloudsim.step.round",
    "cloudsim.step.deliver",
];

fn kind_slot(kind: BackendKind) -> usize {
    match kind {
        BackendKind::PageHeap => 0,
        BackendKind::Lsm => 1,
    }
}

/// Sums over the traced repetitions.
#[derive(Default)]
struct TraceSums {
    step_ns: [u64; 3],
    step_us: [Vec<f64>; 3],
    /// Every step's seconds, per repetition.
    step_s: Vec<Vec<f64>>,
    /// Fleet-wide cost the twins predict for what runs below the steps.
    children_ns: f64,
    drive_steps_ns: u64,
    /// The part of `drive_steps_ns` the active groups' twins account for.
    drive_active_ns: f64,
    idle_node_ticks: u64,
    active_ns: u64,
    active_node_ticks: u64,
    arrival_ns: u64,
    node_ticks_probed: u64,
    next_query_ns: u64,
    next_query_calls: u64,
    submit_ns: [u64; 2],
    submit_calls: [u64; 2],
    tick_ns: [u64; 2],
    tick_calls: [u64; 2],
    plan_ns: u64,
    plan_calls: u64,
    tde_us: Vec<f64>,
    request_to_apply_ms: Vec<f64>,
    wall_s: Vec<f64>,
}

/// What the twins of all groups cost in one step, by child span.
#[derive(Default)]
struct StepChildren {
    arrival: (u64, u32),
    next_query: (u64, u32),
    submit: [(u64, u32); 2],
    tick: [(u64, u32); 2],
    plan: (u64, u32),
    tde: (u64, u32),
}

/// One traced repetition: restore, then `ticks` steps, twins first.
fn traced_rep(
    snap: &[u8],
    ticks: u64,
    rep: u64,
    rec: &mut Recorder,
    sums: &mut TraceSums,
    checks: &mut Checks,
) -> FleetSim {
    let mut sim = restore(snap);
    let tick_ms = sim.config().tick_ms;
    let period = sim.config().tde_period_ms;
    let groups = groups_of(&sim);
    // `None` marks a twin its node has moved away from (a TDE round or a
    // delivered recommendation touched the node); it is copied afresh.
    let mut twins: Vec<Vec<Option<ManagedDatabase>>> = groups
        .iter()
        .map(|g| g.probes.iter().map(|_| None).collect())
        .collect();
    let mut live: Vec<ManagedDatabase> = Vec::new();
    let mut drawn = Drawn::default();
    let mut step_s = Vec::with_capacity(ticks as usize);
    let t_rep = Instant::now();
    for tick in 0..ticks {
        let trace_id = rep * ticks + tick;
        let will_round = (sim.now() + tick_ms).is_multiple_of(period);
        let first_child = rec.len() as u32;
        let children_start = Instant::now();
        let mut ch = StepChildren::default();
        let mut fleet_children_ns = 0.0;
        let mut fleet_active_ns = 0.0;
        for (g, slots) in groups.iter().zip(&mut twins) {
            live.clear();
            for (slot, &idx) in slots.iter_mut().zip(&g.probes) {
                live.push(slot.take().unwrap_or_else(|| clone_node(&sim.nodes[idx])));
            }
            let cost = composed_drive(&mut live, tick_ms, &mut drawn);
            let k = kind_slot(g.kind);
            let n = live.len() as u32;
            ch.arrival.0 += cost.arrival_ns;
            ch.arrival.1 += n;
            ch.next_query.0 += cost.next_query_ns;
            ch.next_query.1 += cost.next_query_calls;
            ch.submit[k].0 += cost.submit_ns;
            ch.submit[k].1 += cost.submit_calls;
            ch.tick[k].0 += cost.tick_ns;
            ch.tick[k].1 += n;
            let mut group_ns = cost.total_ns();
            if tick % 16 == 0 {
                // `plan` is what `submit` does first; sampled, read-only.
                let t = Instant::now();
                for (node, queries) in live.iter().zip(&drawn.queries) {
                    for q in queries {
                        black_box(Backend::plan(node.service.master(), q));
                        ch.plan.1 += 1;
                    }
                }
                ch.plan.0 += t.elapsed().as_nanos() as u64;
            }
            if will_round {
                for node in live.iter_mut() {
                    let t = Instant::now();
                    black_box(node.tde.run(node.service.master_mut(), Some(&sim.repo)));
                    let ns = t.elapsed().as_nanos() as u64;
                    sums.tde_us.push(ns as f64 / 1e3);
                    ch.tde.0 += ns;
                    ch.tde.1 += 1;
                    group_ns += ns;
                }
            }
            // The probed nodes stand for their whole group.
            let scaled = group_ns as f64 * g.size as f64 / live.len() as f64;
            fleet_children_ns += scaled;
            if g.active {
                fleet_active_ns += scaled;
                sums.active_ns += cost.total_ns();
                sums.active_node_ticks += u64::from(n);
            }
            for (slot, node) in slots.iter_mut().zip(live.drain(..)) {
                *slot = Some(node);
            }
        }
        // One child span per layer: the twins' blocks for it laid end to
        // end from where the twins' work began.
        let mut at = rec.ns_at(children_start);
        let mut child = |name: &'static str, (ns, calls): (u64, u32)| {
            if calls > 0 {
                rec.push(Span {
                    name,
                    start_ns: at,
                    end_ns: at + ns,
                    parent: ROOT,
                    trace_id,
                    calls,
                });
                at += ns;
            }
        };
        child("workload.arrival", ch.arrival);
        child("workload.next_query", ch.next_query);
        child("simdb.pageheap.submit", ch.submit[0]);
        child("simdb.lsm.submit", ch.submit[1]);
        child("simdb.pageheap.tick", ch.tick[0]);
        child("simdb.lsm.tick", ch.tick[1]);
        child("simdb.plan", ch.plan);
        child("core.tde_run", ch.tde);

        // The step itself, on the real fleet.
        let events_before = sim.events.len();
        let requests_before = sim.director.total_requests();
        let t0 = Instant::now();
        sim.step();
        let t1 = Instant::now();
        let new_events = &sim.events.events()[events_before..];
        let class = if will_round {
            StepClass::Round
        } else if !new_events.is_empty() || sim.director.total_requests() != requests_before {
            StepClass::Deliver
        } else {
            StepClass::Drive
        };
        let step_ns = ns_between(t0, t1);
        let parent = rec.push(Span {
            name: STEP_SPAN[class as usize],
            start_ns: rec.ns_at(t0),
            end_ns: rec.ns_at(t1),
            parent: ROOT,
            trace_id,
            calls: 1,
        });
        rec.adopt(first_child..parent, parent);

        step_s.push(step_ns as f64 / 1e9);
        sums.step_ns[class as usize] += step_ns;
        sums.step_us[class as usize].push(step_ns as f64 / 1e3);
        sums.children_ns += fleet_children_ns;
        sums.arrival_ns += ch.arrival.0;
        sums.node_ticks_probed += u64::from(ch.arrival.1);
        sums.next_query_ns += ch.next_query.0;
        sums.next_query_calls += u64::from(ch.next_query.1);
        sums.plan_ns += ch.plan.0;
        sums.plan_calls += u64::from(ch.plan.1);
        for k in 0..2 {
            sums.submit_ns[k] += ch.submit[k].0;
            sums.submit_calls[k] += u64::from(ch.submit[k].1);
            sums.tick_ns[k] += ch.tick[k].0;
            sums.tick_calls[k] += u64::from(ch.tick[k].1);
        }
        if class == StepClass::Drive {
            sums.drive_steps_ns += step_ns;
            sums.drive_active_ns += fleet_active_ns;
            sums.idle_node_ticks += groups
                .iter()
                .filter(|g| !g.active)
                .map(|g| g.size as u64)
                .sum::<u64>();
        }
        for e in new_events {
            if e.kind == "apply.ok" {
                let asked = sim.nodes[e.target as usize].last_request_at;
                sums.request_to_apply_ms
                    .push(e.at.saturating_sub(asked) as f64);
            }
        }
        // A TDE round changes every node and a delivery the node it names,
        // in ways the twins do not follow: those twins are dropped. Every
        // other twin saw only the drive and must equal its node.
        for (g, slots) in groups.iter().zip(&mut twins) {
            for (slot, &idx) in slots.iter_mut().zip(&g.probes) {
                if will_round || new_events.iter().any(|e| e.target == idx as u64) {
                    *slot = None;
                } else if let Some(twin) = slot {
                    checks.require(same_state(twin, &sim.nodes[idx]), || {
                        format!("twin of node {idx} left the fleet's state at tick {tick}")
                    });
                }
            }
        }
    }
    sums.step_s.push(step_s);
    sums.wall_s.push(secs_since(t_rep));
    sim
}

pub fn run(spec: &Spec, args: &Args, m: &mut Measured) {
    let ticks = spec.rep_min * 60;
    let snap = std::mem::take(&mut m.snap);
    let mut rec = Recorder::new();
    let mut sums = TraceSums::default();

    let probe_sim = restore(&snap);
    let groups = groups_of(&probe_sim);
    check_fidelity(&probe_sim, &groups, 120, &mut m.checks);
    let probe_node = clone_node(&probe_sim.nodes[groups[0].probes[0]]);
    drop(probe_sim);

    // Three traced repetitions, fewer when the first ones used the time up.
    let started = Instant::now();
    let mut reps = 0u64;
    let mut sim = traced_rep(&snap, ticks, reps, &mut rec, &mut sums, &mut m.checks);
    reps += 1;
    while reps < 3 && !args.quick && secs_since(started) < args.seconds * 0.5 {
        sim = traced_rep(&snap, ticks, reps, &mut rec, &mut sums, &mut m.checks);
        reps += 1;
    }

    let v = &mut m.values;
    let total_ns = sums.step_ns.iter().sum::<u64>() as f64;
    let step_metrics = [
        ("cloudsim.step_drive_us", "cloudsim.drive_share"),
        ("cloudsim.step_round_us", "cloudsim.round_share"),
        ("cloudsim.step_deliver_us", "cloudsim.deliver_share"),
    ];
    for (class, (us, share)) in step_metrics.into_iter().enumerate() {
        v.set(us, median(&mut sums.step_us[class]));
        v.set(share, ratio(sums.step_ns[class] as f64, total_ns));
    }
    // What a step spends in `cloudsim` itself: its span minus what the
    // twins say the layers below cost. Clamped at 0 — twins run colder than
    // the fleet's own loop, so they can overstate the children.
    v.set(
        "cloudsim.engine_self_frac",
        (1.0 - ratio(sums.children_ns, total_ns)).max(0.0),
    );
    v.set(
        "cloudsim.active_node_tick_ns",
        ratio(sums.active_ns as f64, sums.active_node_ticks as f64),
    );
    v.set(
        "cloudsim.idle_node_tick_ns",
        ratio(
            (sums.drive_steps_ns as f64 - sums.drive_active_ns).max(0.0),
            sums.idle_node_ticks as f64,
        ),
    );
    let (start, end) = m.delta;
    let untraced_wall = m.rep_s;
    v.set(
        "cloudsim.ns_per_query",
        ratio(untraced_wall * 1e9, end.executed - start.executed),
    );
    v.set("cloudsim.requests", (end.requests - start.requests) as f64);
    v.set("cloudsim.applies", m.events_in_rep.count("apply.ok") as f64);
    v.set(
        "cloudsim.rollbacks",
        m.events_in_rep.count("tune.rollback") as f64,
    );
    v.set(
        "cloudsim.request_to_apply_sim_s",
        stats::mean(&sums.request_to_apply_ms) / 1e3,
    );
    // Tracing leaves `step` alone but the twins' work evicts the fleet's
    // cache lines; this is by how much the timed steps slowed (both sides
    // as the sum of each step's fastest repetition).
    let traced_s: f64 = stats::noise_floor(&sums.step_s).iter().sum();
    v.set("trace_overhead_frac", traced_s / untraced_wall - 1.0);
    println!(
        "# traced reps {reps} wall_s_per_rep {:.3} (untraced {untraced_wall:.3})",
        median(&mut sums.wall_s),
    );

    v.set(
        "workload.next_query_ns",
        ratio(sums.next_query_ns as f64, sums.next_query_calls as f64),
    );
    v.set(
        "workload.arrival_ns",
        ratio(sums.arrival_ns as f64, sums.node_ticks_probed as f64),
    );
    v.set(
        "simdb.plan_ns",
        ratio(sums.plan_ns as f64, sums.plan_calls as f64),
    );
    let by_kind = [
        ("simdb.pageheap.submit_ns", "simdb.pageheap.tick_ns"),
        ("simdb.lsm.submit_ns", "simdb.lsm.tick_ns"),
    ];
    for (k, (submit, tick)) in by_kind.into_iter().enumerate() {
        v.set(
            submit,
            ratio(sums.submit_ns[k] as f64, sums.submit_calls[k] as f64),
        );
        v.set(
            tick,
            ratio(sums.tick_ns[k] as f64, sums.tick_calls[k] as f64),
        );
    }
    let hit = end.blks_hit - start.blks_hit;
    v.set(
        "simdb.buffer_hit_ratio",
        ratio(hit, hit + end.blks_read - start.blks_read),
    );
    let spills = end.spills - start.spills;
    v.set(
        "simdb.spill_frac",
        ratio(spills, spills + end.sorts_in_memory - start.sorts_in_memory),
    );
    v.set(
        "simdb.checkpoints",
        (end.checkpoints - start.checkpoints) as f64,
    );
    v.set(
        "simdb.lsm.compactions",
        (end.compactions - start.compactions) as f64,
    );
    v.set("simdb.wal_mb", (end.wal_bytes - start.wal_bytes) / 1e6);
    let dropped = end.dropped - start.dropped;
    v.set(
        "simdb.dropped_frac",
        ratio(dropped, dropped + end.executed - start.executed),
    );
    v.set("core.tde_run_us", stats::mean(&sums.tde_us));
    sums.tde_us.sort_by(f64::total_cmp);
    v.set(
        "core.tde_run_us_p99",
        stats::quantile_sorted(&sums.tde_us, 0.99),
    );
    v.set("core.throttles", (end.throttles - start.throttles) as f64);
    v.set(
        "core.tuning_requests",
        (end.tuning_requests - start.tuning_requests) as f64,
    );
    v.set(
        "core.suppressed",
        (end.suppressed - start.suppressed) as f64,
    );
    v.set(
        "core.requests_per_window",
        (end.requests - start.requests) as f64 / spec.rep_min as f64,
    );
    v.set("telemetry.events", (end.events - start.events) as f64);

    layer_probes(v, &sim, probe_node, spec.nodes);

    rec.save(args, &mut m.checks);
}

/// Calls the fleet makes too rarely, or too deep inside `step`, for the
/// twins to see: timed here in isolation, on copies.
fn layer_probes(v: &mut Values, sim: &FleetSim, mut node: ManagedDatabase, fleet_nodes: usize) {
    const N: usize = 20_000;
    v.set(
        "simdb.metrics_snapshot_ns",
        stats::ns_per_call(N, |_| {
            black_box(Backend::metrics_snapshot(node.service.master()));
        }),
    );
    // Re-applying the live values of every reloadable knob: the apply
    // path's own cost, with no change in behaviour to confound it.
    let changes: Vec<ConfigChange> = {
        let db = node.service.master();
        Backend::profile(db)
            .iter()
            .filter(|(_, spec)| !spec.restart_required)
            .map(|(knob, _)| ConfigChange {
                knob,
                value: Backend::knobs(db).get(knob),
            })
            .collect()
    };
    v.set(
        "simdb.apply_config_us",
        stats::ns_per_call(200, |_| {
            black_box(Backend::apply_config(
                node.service.master_mut(),
                &changes,
                ApplyMode::Reload,
            ));
        }) / 1e3,
    );
    v.set(
        "ctrlplane.apply_reload_us",
        stats::ns_per_call(200, |_| {
            black_box(node.service.apply(&changes, ApplyMode::Reload).is_ok());
        }) / 1e3,
    );
    let db = node.service.master();
    let mut ha = ReplicaSet::new(
        Backend::flavor(db),
        Backend::instance(db),
        DiskKind::Ssd,
        Backend::catalog(db).clone(),
        1,
        7,
    );
    v.set(
        "ctrlplane.replica_tick_ns",
        stats::ns_per_call(N, |_| ha.tick(1_000)),
    );
    let mut director = ConfigDirector::new(&[TunerKind::Bo; 4]);
    v.set(
        "ctrlplane.submit_request_ns",
        stats::ns_per_call(N, |i| {
            black_box(director.submit_request(ServiceId(i as u64 % 64), i as u64 * 1_000, 50.0));
        }),
    );
    let windows: Vec<WindowStat> = (0..fleet_nodes)
        .map(|i| WindowStat {
            service: ServiceId(i as u64),
            objective: 100.0 + i as f64,
        })
        .collect();
    v.set(
        "ctrlplane.ingest_windows_ns",
        stats::ns_per_call(2_000, |i| director.ingest_windows(i as u64, &windows)),
    );
    let mut meter = RecommendationMeter::default();
    v.set(
        "ctrlplane.meter_record_ns",
        stats::ns_per_call(N, |i| meter.record(ServiceId(i as u64 % 64), 50.0)),
    );
    let mut log = EventLog::new();
    v.set(
        "telemetry.emit_ns",
        stats::ns_per_call(200_000, |i| log.emit(i as u64, "apply.ok", i as u64 % 64)),
    );
    v.set(
        "telemetry.fingerprint_us",
        stats::ns_per_call(20, |_| {
            black_box(sim.events.fingerprint());
        }) / 1e3,
    );
    let mut series = TimeSeries::with_capacity(4_096);
    v.set(
        "telemetry.series_push_ns",
        stats::ns_per_call(200_000, |i| series.push(i as u64, i as f64)),
    );
    black_box((
        log.len(),
        series.len(),
        meter.totals(),
        director.total_requests(),
    ));
}
