//! Chaos-recovery integration tests: the self-healing control plane under
//! deterministic fault injection.
//!
//! Each test pins one recovery path with an explicit [`InteractionPlan`] schedule
//! (so the failure lands at a known tick) and asserts the control plane
//! drives the service back to health: lost responses time out into
//! backoff-retries, tuner outages end in stale-response drops rather than
//! double-applies, VM crashes fail over (HA) or restart (single node),
//! lag-refused applies park and land later, and regressions roll back to
//! the pre-apply config. A final smoke runs the standard fault plan twice
//! and requires the event logs to match bit-for-bit — chaos here is
//! replayable, so any failure these tests ever find is debuggable.

use autodbaas::cloudsim::{
    FaultKind, FleetConfig, FleetSim, InteractionPlan, ManagedDatabase, PlanEvent, RollbackGuard,
    RollbackPolicy,
};
use autodbaas::prelude::*;
use autodbaas::telemetry::MILLIS_PER_MIN;
use autodbaas::tuner::WorkloadId;

/// A fleet tuned for fast, deterministic chaos tests: 1 s ticks, 1-minute
/// TDE windows, and a request timeout tight enough that a single lost
/// response is detected within the run.
fn chaos_config(seed: u64) -> FleetConfig {
    FleetConfig {
        tick_ms: 1_000,
        tde_period_ms: MILLIS_PER_MIN,
        tuner: TunerKind::Rl, // fixed 50 ms service time: request timing is exact
        seed,
        request_timeout_ms: 30_000,
        retry_base_ms: 5_000,
        ..FleetConfig::default()
    }
}

fn managed_node(seed: u64, policy: TuningPolicy, qps: f64) -> ManagedDatabase {
    let wl = tpcc(1.0);
    let catalog = wl.catalog().clone();
    ManagedDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        Box::new(wl),
        ArrivalProcess::Constant(qps),
        policy,
        WorkloadId(0),
        TdeConfig::default(),
        seed,
    )
}

/// Regression test for the stuck-flag hazard: before the in-flight
/// deadline existed, a recommendation lost in transit left the old
/// `pending_request` flag set forever and the node never tuned again. Now
/// the deadline expires the request, backoff schedules a retry, and the
/// retried request completes.
#[test]
fn lost_response_times_out_retries_and_recovers() {
    let mut sim = FleetSim::new(chaos_config(11), 4);
    sim.add_node(
        managed_node(11, TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 200.0),
        "db-0",
    );
    // The periodic policy submits at t=120 s; the response is promised
    // ~50 ms later and would be delivered at t=121 s — where this fault
    // intercepts it.
    sim.enable_plan(InteractionPlan::new(vec![PlanEvent::fault(
        121_000,
        0,
        FaultKind::RequestLoss,
    )]));
    sim.run_for(5 * MILLIS_PER_MIN);

    assert_eq!(sim.events.count("fault.request_loss"), 1);
    assert_eq!(
        sim.events.count("request.timeout"),
        1,
        "the lost response must expire via the deadline"
    );
    assert_eq!(
        sim.events.count("request.retry"),
        1,
        "the expired request must be retried"
    );
    assert_eq!(sim.events.count("request.stale_dropped"), 0);
    assert!(
        sim.events.count("apply.ok") >= 1,
        "the retried request must complete and apply: events {:?}",
        sim.events.events()
    );
    assert!(
        sim.wedged_nodes().is_empty(),
        "a lost response must never wedge the control loop"
    );
}

/// A tuner-service outage holds responses while nodes time out and retry;
/// when the service returns, the late responses for already-retried
/// requests must be dropped as stale (never double-applied) and the loop
/// must end healthy.
#[test]
fn tuner_outage_drops_stale_responses_without_wedging() {
    let mut sim = FleetSim::new(chaos_config(23), 4);
    sim.add_node(
        managed_node(23, TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 200.0),
        "db-0",
    );
    // Outage lands right after the t=120 s request is submitted and lasts
    // 2 minutes: the node times out and retries into the dead service
    // several times before it returns.
    sim.enable_plan(InteractionPlan::new(vec![PlanEvent::fault(
        121_000,
        0,
        FaultKind::TunerOutage {
            duration_ms: 2 * MILLIS_PER_MIN,
        },
    )]));
    sim.run_for(6 * MILLIS_PER_MIN);

    assert_eq!(sim.events.count("fault.tuner_outage"), 1);
    assert!(
        sim.events.count("request.timeout") >= 2,
        "requests into the outage must keep timing out: events {:?}",
        sim.events.events()
    );
    assert!(
        sim.events.count("request.stale_dropped") >= 1,
        "held responses for retried requests must be dropped as stale"
    );
    assert!(sim.wedged_nodes().is_empty());
}

/// VM crash, both service shapes at once: the HA service fails over to
/// its most-caught-up slave (and the demoted master rejoins after WAL
/// recovery), the single-node service restarts through crash recovery.
#[test]
fn vm_crash_fails_over_with_ha_and_restarts_without() {
    let mut sim = FleetSim::new(chaos_config(37), 4);
    sim.add_node(managed_node(37, TuningPolicy::TdeDriven, 200.0), "solo");
    sim.add_node(
        managed_node(38, TuningPolicy::TdeDriven, 200.0).with_slaves(2),
        "ha",
    );
    sim.enable_plan(InteractionPlan::new(vec![
        PlanEvent::fault(30_000, 0, FaultKind::VmCrash),
        PlanEvent::fault(30_000, 1, FaultKind::VmCrash),
    ]));
    sim.run_for(3 * MILLIS_PER_MIN);

    assert_eq!(sim.events.count("fault.vm_crash"), 2);
    assert_eq!(
        sim.events.count("recover.failover"),
        1,
        "the HA service must promote a slave"
    );
    assert_eq!(
        sim.events.count("recover.rejoined"),
        1,
        "the demoted master must rejoin as a replica"
    );
    assert_eq!(
        sim.events.count("recover.restarted"),
        1,
        "the single node must come back through crash recovery"
    );
    assert!(!sim.nodes[0].db().is_down());
    assert!(!sim.nodes[1].db().is_down());
    // Failover is instantaneous for the HA service, so only the solo
    // node's recovery window costs availability.
    assert!((sim.nodes[1].availability() - 1.0).abs() < 1e-12);
    assert!(sim.nodes[0].availability() < 1.0);
    assert!(sim.availability() > 0.9, "{}", sim.availability());
    assert!(sim.wedged_nodes().is_empty());
    assert!(sim.drifted_nodes().is_empty());
}

/// A replica-lag spike makes the HA guard refuse the apply; the
/// recommendation parks for a backoff-retry and lands once the replica
/// catches up — it is not thrown away and it does not wedge the loop.
#[test]
fn lagging_replica_defers_apply_until_caught_up() {
    let mut cfg = chaos_config(53);
    cfg.max_apply_lag_bytes = 1; // any visible lag refuses the apply
    let mut sim = FleetSim::new(cfg, 4);
    sim.add_node(
        managed_node(53, TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 250.0).with_slaves(1),
        "ha",
    );
    // Pause replay just before the t=120 s recommendation arrives: WAL
    // accumulates on the paused slave, the lag guard refuses the apply.
    sim.enable_plan(InteractionPlan::new(vec![PlanEvent::fault(
        110_000,
        0,
        FaultKind::ReplicaLagSpike { pause_ms: 60_000 },
    )]));
    sim.run_for(6 * MILLIS_PER_MIN);

    assert_eq!(sim.events.count("fault.replica_lag_spike"), 1);
    assert!(
        sim.events.count("apply.lag_deferred") >= 1,
        "the lag guard must park the apply: events {:?}",
        sim.events.events()
    );
    assert!(
        sim.events.count("apply.ok") >= 1,
        "the parked apply must land after the replica catches up"
    );
    assert!(sim.wedged_nodes().is_empty());
    assert!(sim.drifted_nodes().is_empty());
}

/// The safe-tuning guard: a config whose observation windows regress the
/// objective beyond the policy threshold is rolled back to the pre-apply
/// config (and re-persisted); a config that holds its baseline is accepted
/// after the configured number of clean windows.
#[test]
fn rollback_guard_restores_pre_apply_config_and_accepts_clean_ones() {
    let mut cfg = chaos_config(71);
    cfg.apply_recommendations = false; // only the guard moves knobs here
    cfg.rollback = Some(RollbackPolicy {
        regression_frac: 0.25,
        observe_windows: 3,
    });
    let mut sim = FleetSim::new(cfg, 4);
    sim.add_node(managed_node(71, TuningPolicy::TdeDriven, 200.0), "db-0");
    sim.run_for(2 * MILLIS_PER_MIN + 5_000);

    // Simulate a freshly applied bad recommendation: the live config moved
    // away from `original` and the window baseline is far above anything
    // this workload can produce, so the next window is a clear regression.
    let profile = sim.nodes[0].db().profile().clone();
    let wm = profile.lookup("work_mem").unwrap();
    let original = sim.nodes[0].db().knobs().clone();
    sim.nodes[0]
        .db_mut()
        .set_knob_direct(wm, original.get(wm) * 4.0);
    sim.nodes[0].guard = Some(RollbackGuard {
        baseline: 1e9,
        revert_to: original.clone(),
        windows_left: 3,
    });
    sim.run_for(MILLIS_PER_MIN);

    assert_eq!(
        sim.events.count("tune.rollback"),
        1,
        "the regressed window must trigger a rollback"
    );
    assert!(
        (sim.nodes[0].db().knobs().get(wm) - original.get(wm)).abs() < 1e-9,
        "rollback must restore the pre-apply config"
    );
    assert!(sim.nodes[0].guard.is_none());
    assert!(
        sim.drifted_nodes().is_empty(),
        "the rolled-back config must be the persisted config of record"
    );

    // Acceptance path: a guard whose baseline any window clears is
    // disarmed after its clean observation windows, with no rollback.
    sim.nodes[0].guard = Some(RollbackGuard {
        baseline: 0.0,
        revert_to: original,
        windows_left: 2,
    });
    sim.run_for(3 * MILLIS_PER_MIN + 5_000);
    assert_eq!(sim.events.count("tune.rollback"), 1, "no second rollback");
    assert!(
        sim.nodes[0].guard.is_none(),
        "a clean config must be accepted and the guard disarmed"
    );
}

/// Fast chaos smoke over the standard fault plan: the fleet must absorb
/// the full rotation and end with every service serving, no drift and no
/// wedged loop — and the run must be bit-for-bit reproducible (same seed,
/// same plan, same event-log fingerprint) while a different plan perturbs
/// the log. The full-size version of this run is the Fig. 16 harness.
#[test]
fn standard_fault_plan_is_survivable_and_replayable() {
    let run = |seed: u64, plan: InteractionPlan| -> FleetSim {
        let mut sim = FleetSim::new(chaos_config(seed), 4);
        sim.add_node(
            managed_node(seed, TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 150.0),
            "solo",
        );
        sim.add_node(
            managed_node(
                seed ^ 0x9e37,
                TuningPolicy::Periodic(2 * MILLIS_PER_MIN),
                150.0,
            )
            .with_slaves(1),
            "ha",
        );
        sim.enable_plan(plan);
        sim.run_for(8 * MILLIS_PER_MIN);
        // Quiet-down: covers the watcher timeout and every pending retry.
        sim.run_for(4 * MILLIS_PER_MIN);
        sim
    };

    let plan = InteractionPlan::standard_faults(2, 8 * MILLIS_PER_MIN);
    let a = run(5, plan.clone());
    let b = run(5, plan);
    let c = run(
        5,
        InteractionPlan::random_faults(99, 2, 8 * MILLIS_PER_MIN, 12),
    );

    assert!(a.events.count_prefix("fault.") > 0);
    assert!(
        a.wedged_nodes().is_empty() && a.drifted_nodes().is_empty(),
        "standard plan: wedged {:?} drifted {:?}",
        a.wedged_nodes(),
        a.drifted_nodes()
    );
    assert!(a.availability() > 0.9, "{}", a.availability());
    assert_eq!(
        a.events.fingerprint(),
        b.events.fingerprint(),
        "same seed + same plan must replay bit-for-bit"
    );
    assert_ne!(
        a.events.fingerprint(),
        c.events.fingerprint(),
        "a different plan must perturb the event log"
    );
    assert!(
        c.wedged_nodes().is_empty() && c.drifted_nodes().is_empty(),
        "seeded random plan: wedged {:?} drifted {:?}",
        c.wedged_nodes(),
        c.drifted_nodes()
    );
}
