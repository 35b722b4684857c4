//! Fleet-level integration: the §5 behaviours the figure harnesses measure,
//! asserted at small scale so they run in CI time.

use autodbaas::cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
use autodbaas::prelude::*;
use autodbaas::tde::TdeConfig;
use autodbaas::telemetry::MILLIS_PER_MIN;
use autodbaas::tuner::WorkloadId;
use autodbaas_snapshot::encode_to_vec;

fn node(policy: TuningPolicy, adulterated: bool, seed: u64) -> ManagedDatabase {
    let base = tpcc(0.5);
    let catalog = base.catalog().clone();
    let workload: Box<dyn QuerySource + Send> = if adulterated {
        Box::new(AdulteratedWorkload::new(base, 0.4))
    } else {
        Box::new(base)
    };
    ManagedDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        workload,
        ArrivalProcess::Constant(150.0),
        policy,
        WorkloadId(0),
        TdeConfig::default(),
        seed,
    )
}

fn fleet(policy: TuningPolicy, gate: bool, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            gate_samples_with_tde: gate,
            seed,
            ..FleetConfig::default()
        },
        3,
    );
    sim.seed_offline_training(&tpcc(0.5), DbFlavor::Postgres, 10);
    for i in 0..6 {
        sim.add_node(
            node(policy, i % 3 == 0, seed ^ (i * 101) as u64),
            &format!("db-{i}"),
        );
    }
    sim
}

#[test]
fn tde_policy_undercuts_periodic_polling() {
    // Two hours: the first is tuning burn-in (TDE requests legitimately
    // spike while databases are untuned), the second is steady state.
    let mut tde_sim = fleet(TuningPolicy::TdeDriven, true, 42);
    tde_sim.run_for(120 * MILLIS_PER_MIN);
    let tde_reqs = tde_sim.director.total_requests();

    let mut periodic_sim = fleet(TuningPolicy::Periodic(5 * MILLIS_PER_MIN), true, 42);
    periodic_sim.run_for(120 * MILLIS_PER_MIN);
    let periodic_reqs = periodic_sim.director.total_requests();

    assert!(
        tde_reqs < periodic_reqs,
        "TDE-driven ({tde_reqs}) must undercut 5-min periodic ({periodic_reqs})"
    );
    // And the TDE fleet's tuner queue stays shorter.
    assert!(
        tde_sim.director.backlog_ms(tde_sim.now())
            <= periodic_sim.director.backlog_ms(periodic_sim.now())
    );
}

#[test]
fn gated_sampling_keeps_repository_clean() {
    let mut gated = fleet(TuningPolicy::TdeDriven, true, 7);
    gated.run_for(45 * MILLIS_PER_MIN);
    let mut ungated = fleet(TuningPolicy::Periodic(5 * MILLIS_PER_MIN), false, 7);
    ungated.run_for(45 * MILLIS_PER_MIN);

    // Ungated capture records every window; gated only throttle windows.
    let gated_live: usize = gated
        .repo
        .iter()
        .filter(|w| !w.offline)
        .map(|w| w.samples.len())
        .sum();
    let ungated_live: usize = ungated
        .repo
        .iter()
        .filter(|w| !w.offline)
        .map(|w| w.samples.len())
        .sum();
    assert!(
        gated_live < ungated_live,
        "gating must reduce sample volume ({gated_live} vs {ungated_live})"
    );
    // And everything the gate admits is certified high quality.
    for w in gated.repo.iter().filter(|w| !w.offline) {
        for s in &w.samples {
            assert_eq!(s.quality, autodbaas::tuner::SampleQuality::High);
        }
    }
}

#[test]
fn recommendations_move_struggling_databases_forward() {
    let mut sim = fleet(TuningPolicy::TdeDriven, true, 21);
    // Capture the struggling node's default throughput first.
    sim.run_for(10 * MILLIS_PER_MIN);
    let early = sim.nodes[0].prev_objective;
    sim.run_for(80 * MILLIS_PER_MIN);
    let late = sim.nodes[0].prev_objective;
    // The adulterated node 0 should at least hold its ground (and usually
    // improve) once recommendations land.
    assert!(
        late >= early * 0.8,
        "tuning must not regress the struggling node ({early:.0} -> {late:.0} qps)"
    );
    assert!(
        sim.nodes[0].prev_action.is_some(),
        "a recommendation should have been applied"
    );
}

#[test]
fn fleet_simulation_is_deterministic_under_seed() {
    let run = |seed| {
        let mut sim = fleet(TuningPolicy::TdeDriven, true, seed);
        sim.run_for(20 * MILLIS_PER_MIN);
        (
            sim.director.total_requests(),
            sim.nodes
                .iter()
                .map(|n| n.queries_submitted)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).1, run(6).1, "different seeds must differ");
}

/// Snapshot bytes split into (every node, the rest), read off a restored
/// copy so a deferred idle node counts as the snapshot writes it: caught up.
fn snapshot_split(sim: &FleetSim) -> (usize, usize) {
    let bytes = sim.snapshot_bytes();
    let restored = FleetSim::from_snapshot_bytes(&bytes).expect("a fresh snapshot restores");
    let nodes: usize = restored.nodes.iter().map(|n| encode_to_vec(n).len()).sum();
    (nodes, bytes.len() - nodes)
}

/// Largest growth of the non-node snapshot bytes allowed per tuning request.
/// The rest of the snapshot is fleet-wide history that grows with the
/// requests the fleet issues: the director's request log, the samples each
/// throttled window adds to the repository (one or two per request), the
/// tuner fitted on them (whose share per request rises with the samples it
/// holds), and the event log. ROADMAP item 8 owns that per-request growth;
/// this bound only keeps it per request. It is taken from the layout before
/// the query window, where the rest was measured over 33 stretches (three
/// seeds, 42, 1337 and 7, of this file's loaded, mixed and idle fleets, at
/// minutes 1, 10, 30, 60, 90, and 120 and 240 when idle): the largest growth
/// per request in any stretch was 3,292 B (one request that added two
/// samples), the pooled mean 1,508 B. The bound rounds the largest up to
/// 4 KiB.
const REST_BYTES_PER_REQUEST: usize = 4_096;

/// Stretch over which the rest of the snapshot is held to its requests.
const STRETCH_MIN: u64 = 10;

/// Run `sim` to minute `from`, then on to minute `to` in [`STRETCH_MIN`]
/// stretches. The nodes' bytes must stay within 1 % of their size at
/// `from`; the rest may grow by at most [`REST_BYTES_PER_REQUEST`] per
/// tuning request issued in the stretch, so a stretch without requests may
/// not grow at all, and growth with time rather than requests fails.
fn assert_snapshot_flat_between(sim: &mut FleetSim, from: u64, to: u64) {
    sim.run_for(from * MILLIS_PER_MIN);
    let (nodes0, mut rest) = snapshot_split(sim);
    let mut requests = sim.director.total_requests();
    for minute in (from + STRETCH_MIN..=to).step_by(STRETCH_MIN as usize) {
        sim.run_for(STRETCH_MIN * MILLIS_PER_MIN);
        let (nodes1, rest1) = snapshot_split(sim);
        let requests1 = sim.director.total_requests();
        let moved = (nodes1 as f64 / nodes0 as f64 - 1.0).abs();
        assert!(
            moved < 0.01,
            "nodes went from {nodes0} B at minute {from} to {nodes1} B at minute {minute}"
        );
        let issued = requests1 - requests;
        assert!(
            rest1 <= rest + REST_BYTES_PER_REQUEST * issued,
            "the rest went from {rest} B to {rest1} B by minute {minute} \
             with {issued} tuning requests"
        );
        (rest, requests) = (rest1, requests1);
    }
}

#[test]
fn loaded_fleet_snapshot_size_is_flat() {
    // Leak gate: a loaded node runs a few hundred queries per window, and
    // any per-query state in the engines or the TDE grows its bytes by
    // kilobytes per node-minute forever. Everything a loaded node
    // legitimately keeps is a ring or a summary, and the monitoring ring
    // holds only the window the TDE has not read, so the nodes stand still
    // from the first half hour on.
    let mut sim = FleetSim::new(FleetConfig::default(), 2);
    for i in 0..4 {
        sim.add_node(
            node(TuningPolicy::TdeDriven, false, 900 + i),
            &format!("db-{i}"),
        );
    }
    assert_snapshot_flat_between(&mut sim, 30, 90);
}

#[test]
fn idle_fleet_snapshot_size_is_flat() {
    // The long tail, seeded as the `fleet_idle` benchmark seeds it: one
    // tenant trickles queries, seven send none. An idle node still ticks
    // its disk every second, and what it keeps of that must not grow with
    // the hours it has been idle. The trickling tenant's throttled windows
    // add tuning requests, which the rest of the snapshot may grow by.
    let mut sim = FleetSim::new(
        FleetConfig {
            seed: 42,
            ..FleetConfig::default()
        },
        2,
    );
    for i in 0..8u64 {
        let base = tpcc(0.5);
        sim.add_node(
            ManagedDatabase::new(
                DbFlavor::Postgres,
                InstanceType::M4Large,
                DiskKind::Ssd,
                base.catalog().clone(),
                Box::new(base),
                ArrivalProcess::Constant(if i == 0 { 2.0 } else { 0.0 }),
                TuningPolicy::TdeDriven,
                WorkloadId(0),
                TdeConfig::default(),
                42 ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            &format!("db-{i}"),
        );
    }
    assert_snapshot_flat_between(&mut sim, 30, 240);
}

#[test]
fn master_latency_ring_holds_one_unread_window() {
    // The bgwriter detector drops the latency samples it has read, so
    // after any number of TDE windows a master keeps at most the window
    // since the last run plus the sample taken at that run.
    let mut sim = fleet(TuningPolicy::TdeDriven, true, 42);
    let cfg = FleetConfig::default();
    let window = (cfg.tde_period_ms / cfg.tick_ms) as usize;
    for minute in 1..=20 {
        sim.run_for(MILLIS_PER_MIN);
        for (i, n) in sim.nodes.iter().enumerate() {
            let held = n.service.master().disks().data().latency_series().len();
            assert!(
                held <= window + 1,
                "db-{i} holds {held} latency samples at minute {minute}, window is {window}"
            );
        }
    }
}

/// FNV-1a over every stored sample's config, metrics, objective and
/// quality, workload by workload.
fn repo_samples_hash(sim: &FleetSim) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for w in sim.repo.iter() {
        eat(w.id.0);
        for s in &w.samples {
            for v in s.config.iter().chain(&s.metrics) {
                eat(v.to_bits());
            }
            eat(s.objective.to_bits());
            eat((s.quality == autodbaas::tuner::SampleQuality::High) as u64);
        }
    }
    h
}

#[test]
fn guarded_rl_fleet_with_rollback_is_pinned() {
    // Every reader of a closed window at once: the safety governor's SLO,
    // the rollback guard, ungated capture (quality assessed from the
    // delta vector) and the RL transitions built from it. The pins move
    // only if a simulated value does.
    use autodbaas::cloudsim::{RollbackPolicy, SafetyConfig};
    let mut sim = FleetSim::new(
        FleetConfig {
            gate_samples_with_tde: false,
            tuner: TunerKind::Rl,
            rollback: Some(RollbackPolicy::default()),
            seed: 29,
            ..FleetConfig::default()
        },
        3,
    );
    sim.seed_offline_training(&tpcc(0.5), DbFlavor::Postgres, 10);
    for i in 0..6 {
        sim.add_node(
            node(TuningPolicy::TdeDriven, i % 3 == 0, 29 ^ (i * 101) as u64),
            &format!("db-{i}"),
        );
    }
    sim.enable_safety(SafetyConfig::default());
    sim.run_for(40 * MILLIS_PER_MIN);
    let online = sim.repo.total_samples() - 10;
    assert!(
        online >= 6 * 30,
        "ungated capture kept only {online} windows"
    );
    assert!(sim.events.count("tune.rollback") > 0, "no rollback fired");
    assert!(
        sim.events.count("safe.slo_breach") > 0,
        "no SLO breach seen"
    );
    assert_eq!(
        (sim.events.fingerprint(), repo_samples_hash(&sim)),
        (0xb7d1_5a61_b3cb_4cf5, 0x489c_ff36_0832_123f)
    );
}
