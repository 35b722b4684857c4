//! A narrative operations scenario: everything §2/§4 describe happening to
//! one service over a "day", in order — provision, tune, survive a slave
//! crash, reconcile, hit the maintenance window, redeploy — with the
//! invariants checked at each step. This is the closest thing to the
//! paper's Fig. 1 exercised end to end.

use autodbaas::ctrlplane::{
    apply_recommendation, plan_buffer_update, ApplyError, ConfigDirector, MaintenanceSchedule,
    RecommendationMeter, ReconcileOutcome, Reconciler, ServiceOrchestrator, ServiceSpec, TunerKind,
};
use autodbaas::prelude::*;
use autodbaas::tde::{Tde, TdeConfig};
use autodbaas::telemetry::MILLIS_PER_HOUR;
use autodbaas::tuner::{normalize_config, BoTuner, Sample, SampleQuality, WorkloadRepository};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// The fleet's default replica-lag guard (`FleetConfig::max_apply_lag_bytes`).
const MAX_APPLY_LAG: u64 = 64 * 1024 * 1024;

#[test]
fn a_day_in_the_life_of_a_managed_service() {
    // --- 08:00 — provision -------------------------------------------------
    let workload = AdulteratedWorkload::new(tpcc(1.0), 0.35);
    let mut orch = ServiceOrchestrator::new();
    let (service, mut rs) = orch.provision(ServiceSpec {
        flavor: DbFlavor::Postgres,
        instance: InstanceType::M4XLarge,
        disk: DiskKind::Ssd,
        catalog: workload.base().catalog().clone(),
        n_slaves: 2,
        seed: 2024,
    });
    let profile = rs.master().profile().clone();
    let mut director = ConfigDirector::new(&[TunerKind::Bo; 2]);
    let mut meter = RecommendationMeter::default();
    let mut reconciler = Reconciler::new(service, 30_000);
    let mut tde = Tde::new(&profile, TdeConfig::default(), 1);
    let mut repo = WorkloadRepository::new();
    let wid = repo.register("svc", false);
    let mut tuner = BoTuner::new(
        BoConfig {
            kappa: 0.2,
            ..BoConfig::default()
        },
        3,
    );
    let mut rng: StdRng = SeedableRng::seed_from_u64(4);

    let drive = |rs: &mut autodbaas::ctrlplane::ReplicaSet, rng: &mut StdRng, secs: u64| {
        for _ in 0..secs {
            for _ in 0..8 {
                let q = workload.next_query(rng);
                let _ = rs.master_mut().submit(&q, 20);
            }
            rs.tick(1_000);
        }
    };

    // --- 08:05 — the TDE notices the starved work areas --------------------
    drive(&mut rs, &mut rng, 120);
    let report = tde.run(rs.master_mut(), Some(&repo));
    assert!(
        report.tuning_request,
        "the adulterated workload must throttle"
    );
    let focus: Vec<usize> = report.throttles.iter().map(|t| t.knob.0 as usize).collect();

    // --- 08:06..09:00 — tuning loop with samples flowing through the gate --
    let mut applied_any = false;
    for _ in 0..10 {
        let before = rs.master().metrics_snapshot();
        drive(&mut rs, &mut rng, 60);
        let delta = rs.master().metrics_snapshot().delta(&before);
        let r = tde.run(rs.master_mut(), Some(&repo));
        if r.tuning_request {
            let qps = delta[autodbaas::simdb::MetricId::QueriesExecuted.index()] / 60.0;
            repo.add_sample(
                wid,
                Sample {
                    config: normalize_config(&profile, rs.master().knobs().as_vec()),
                    metrics: delta,
                    objective: qps,
                    quality: SampleQuality::High,
                },
            );
            let service_ms = BoTuner::train_cost_ms(repo.total_samples());
            let assignment = director.submit_request(service, rs.master().now(), service_ms);
            meter.record(service, service_ms);
            assert!(assignment.ready_at >= rs.master().now());
            if let Some(rec) = tuner.recommend_focused(&repo, wid, &focus) {
                apply_caught_up(&mut rs, &rec.config).expect("healthy apply");
                orch.persist_config(service, rs.master().knobs().clone());
                director.record_recommendation(service, rs.master().now(), rec.config);
                applied_any = true;
            }
        }
    }
    assert!(applied_any, "at least one recommendation must land");
    assert!(director.total_requests() >= 1);
    assert!(
        meter.tenant_cost(service) > 0.0,
        "tuning compute is metered"
    );
    // Config is consistent across the service and persisted.
    let wm = profile.lookup("work_mem").unwrap();
    for s in rs.slaves() {
        assert_eq!(s.knobs().get(wm), rs.master().knobs().get(wm));
    }
    assert_eq!(
        orch.persisted_config(service).unwrap().get(wm),
        rs.master().knobs().get(wm)
    );

    // --- 14:00 — a slave crashes during the next apply ---------------------
    rs.inject_slave_crash(1);
    let bad = vec![0.9; profile.len()];
    assert!(apply_caught_up(&mut rs, &bad).is_err());
    // The master still matches the persisted config (the rejected
    // recommendation never reached it).
    assert_eq!(
        rs.master().knobs().get(wm),
        orch.persisted_config(service).unwrap().get(wm)
    );

    // --- 14:01 — drift (half-applied slave) is reconciled -------------------
    // Slave 0 did apply before the crash; force the watcher path by also
    // perturbing the master out-of-band, then let the reconciler restore.
    let persisted_wm = orch.persisted_config(service).unwrap().get(wm);
    rs.master_mut().set_knob_direct(wm, persisted_wm * 2.0);
    let now = rs.master().now();
    assert!(matches!(
        reconciler.check(&orch, &mut rs, now),
        ReconcileOutcome::DriftObserved { .. }
    ));
    assert_eq!(
        reconciler.check(&orch, &mut rs, now + 31_000),
        ReconcileOutcome::Reconciled
    );
    assert_eq!(rs.master().knobs().get(wm), persisted_wm);
    for s in rs.slaves() {
        assert_eq!(s.knobs().get(wm), persisted_wm);
    }

    // --- 02:00 next day — maintenance window: the buffer knob moves --------
    let schedule = MaintenanceSchedule {
        every_ms: 24 * MILLIS_PER_HOUR,
        duration_ms: MILLIS_PER_HOUR / 2,
        first_at: 0,
    };
    assert!(schedule.in_window(schedule.next_window(rs.master().now())));
    let shared = profile.lookup("shared_buffers").unwrap();
    let ws = rs.master_mut().working_set_bytes(true) as f64;
    let current = rs.master().knobs().get(shared);
    let target = plan_buffer_update(current, ws, 6.0 * GIB, &[], 0).unwrap_or(current);
    let report = rs
        .apply_with_lag_guard(
            &[ConfigChange {
                knob: shared,
                value: target,
            }],
            ApplyMode::Restart,
            u64::MAX,
        )
        .expect("maintenance apply");
    assert!(report.downtime_ms > 0, "restart-class apply costs downtime");
    orch.persist_config(service, rs.master().knobs().clone());

    // --- 03:00 — security patch forces a redeploy; nothing is lost ---------
    let redeployed = orch.redeploy(service).expect("service exists");
    assert_eq!(
        redeployed.master().knobs().get(shared),
        rs.master().knobs().get(shared),
        "the maintenance-window buffer survives redeployment"
    );
    assert_eq!(
        redeployed.master().knobs().get(wm),
        rs.master().knobs().get(wm),
        "the tuned work_mem survives redeployment"
    );
}

/// Land a recommendation the way the fleet does. The adulterated workload
/// writes WAL in bursts that leave the slaves hundreds of MB behind, and the
/// lag guard refuses the apply until they replay them: tick and retry.
fn apply_caught_up(
    rs: &mut autodbaas::ctrlplane::ReplicaSet,
    unit: &[f64],
) -> Result<autodbaas::simdb::ApplyReport, ApplyError> {
    loop {
        match apply_recommendation(rs, unit, MAX_APPLY_LAG) {
            Err(ApplyError::ReplicaLagging { .. }) => rs.tick(1_000),
            done => return done,
        }
    }
}
