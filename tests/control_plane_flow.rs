//! Control-plane integration: the §4 apply pipeline end-to-end —
//! orchestrator provisioning, DFA apply, slave-first ordering with
//! fault injection, reconciliation, and the maintenance-window flow for
//! restart-bound knobs.

use autodbaas::ctrlplane::{
    apply_recommendation, plan_buffer_update, MaintenanceSchedule, ReconcileOutcome, Reconciler,
    ServiceOrchestrator, ServiceSpec,
};
use autodbaas::prelude::*;
use autodbaas::simdb::Catalog;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

fn spec(flavor: DbFlavor) -> ServiceSpec {
    ServiceSpec {
        flavor,
        instance: InstanceType::M4XLarge,
        disk: DiskKind::Ssd,
        catalog: Catalog::synthetic(8, 500_000_000, 150, 2),
        n_slaves: 2,
        seed: 77,
    }
}

#[test]
fn recommendation_applies_to_whole_service_and_persists() {
    let mut orch = ServiceOrchestrator::new();
    let (id, mut rs) = orch.provision(spec(DbFlavor::Postgres));
    let profile = rs.master().profile().clone();

    // A mid-range recommendation for every knob.
    let unit = vec![0.5; profile.len()];
    let (creds, report) = apply_recommendation(&orch, id, &mut rs, &unit, false).expect("apply ok");
    assert!(creds.user.starts_with("admin-"));
    assert!(!report.applied.is_empty());

    // Success: the director would now persist.
    orch.persist_config(id, rs.master().knobs().clone());

    // All nodes agree.
    let wm = profile.lookup("work_mem").unwrap();
    let master_v = rs.master().knobs().get(wm);
    for s in rs.slaves() {
        assert_eq!(s.knobs().get(wm), master_v);
    }

    // A redeploy (security patch) keeps the tuned value.
    let redeployed = orch.redeploy(id).unwrap();
    assert_eq!(redeployed.master().knobs().get(wm), master_v);
}

#[test]
fn slave_crash_rejects_recommendation_and_reconciler_restores_consistency() {
    let mut orch = ServiceOrchestrator::new();
    let (id, mut rs) = orch.provision(spec(DbFlavor::Postgres));
    let profile = rs.master().profile().clone();
    let wm = profile.lookup("work_mem").unwrap();
    let persisted_value = orch.persisted_config(id).unwrap().get(wm);

    // The next apply crashes slave 1 — the recommendation must be rejected
    // and the master untouched.
    rs.inject_slave_crash(1);
    let unit = vec![0.9; profile.len()];
    assert!(apply_recommendation(&orch, id, &mut rs, &unit, false).is_err());
    assert_eq!(rs.master().knobs().get(wm), persisted_value);

    // Slave 0 applied before the crash → drift. The reconciler (watcher
    // timeout 5 s) pulls everyone back to the persisted config.
    let mut rec = Reconciler::new(id, 5_000);
    // Simulate the drift the half-applied change left on slave 0 by
    // re-checking over time; drift on slaves only is healed through a full
    // apply once the master deviates too. Force master drift to trigger:
    rs.master_mut().set_knob_direct(wm, persisted_value * 3.0);
    assert!(matches!(
        rec.check(&orch, &mut rs, 1_000),
        ReconcileOutcome::DriftObserved { .. }
    ));
    assert_eq!(
        rec.check(&orch, &mut rs, 7_000),
        ReconcileOutcome::Reconciled
    );
    assert_eq!(rs.master().knobs().get(wm), persisted_value);
    for s in rs.slaves() {
        assert_eq!(s.knobs().get(wm), persisted_value);
    }
}

#[test]
fn restart_bound_knob_flows_through_maintenance_window() {
    let mut orch = ServiceOrchestrator::new();
    let (id, mut rs) = orch.provision(spec(DbFlavor::Postgres));
    let profile = rs.master().profile().clone();
    let shared = profile.lookup("shared_buffers").unwrap();

    // Outside the window: the DFA must not restart, so the buffer change is
    // staged (deferred), not applied.
    let mut unit = autodbaas::tuner::normalize_config(&profile, rs.master().knobs().as_vec());
    let spec_sb = profile.spec(shared);
    unit[shared.0 as usize] = (2.0 * GIB - spec_sb.min) / (spec_sb.max - spec_sb.min);
    let before = rs.master().knobs().get(shared);
    let (_, report) = apply_recommendation(&orch, id, &mut rs, &unit, false).unwrap();
    assert!(report.deferred.contains(&shared));
    assert_eq!(
        rs.master().knobs().get(shared),
        before,
        "no live change outside the window"
    );

    // Window opens: the §4 buffer rule computes the value, the apply runs
    // restart-class, staged values land.
    let schedule = MaintenanceSchedule {
        every_ms: 86_400_000,
        duration_ms: 1_800_000,
        first_at: 0,
    };
    assert!(schedule.in_window(rs.master().now()));
    let target = plan_buffer_update(before, 3.0 * GIB, 6.0 * GIB, &[], 0).unwrap_or(before);
    let report = rs
        .apply(
            &[ConfigChange {
                knob: shared,
                value: target,
            }],
            ApplyMode::Restart,
        )
        .expect("maintenance apply");
    assert!(report.downtime_ms > 0);
    assert!((rs.master().knobs().get(shared) - target).abs() < 1.0);
    orch.persist_config(id, rs.master().knobs().clone());
    assert!((orch.persisted_config(id).unwrap().get(shared) - target).abs() < 1.0);
}

#[test]
fn mysql_services_flow_through_the_same_control_plane() {
    let mut orch = ServiceOrchestrator::new();
    let (id, mut rs) = orch.provision(spec(DbFlavor::MySql));
    let profile = rs.master().profile().clone();
    let unit = vec![0.4; profile.len()];
    let (_, report) = apply_recommendation(&orch, id, &mut rs, &unit, false).unwrap();
    assert!(!report.applied.is_empty());
    let sort_buf = profile.lookup("sort_buffer_size").unwrap();
    let spec_sb = profile.spec(sort_buf);
    let expected = spec_sb.min + 0.4 * (spec_sb.max - spec_sb.min);
    assert!((rs.master().knobs().get(sort_buf) - expected).abs() < 1.0);
}

#[test]
fn director_load_balances_and_the_request_log_feeds_fig9() {
    use autodbaas::ctrlplane::{ConfigDirector, ServiceId, TunerKind};
    let mut d = ConfigDirector::new(&[TunerKind::Bo; 3]);
    // Twelve requests of 60 s each over three tuners: makespan 4 minutes.
    let mut latest_ready = 0;
    for i in 0..12 {
        let a = d.submit_request(ServiceId(i), 0, 60_000.0);
        latest_ready = latest_ready.max(a.ready_at);
    }
    assert_eq!(latest_ready, 240_000);
    assert_eq!(d.total_requests(), 12);
    let per_min = d.requests_per_minute(0, 60_000);
    assert_eq!(per_min.len(), 1);
    assert_eq!(per_min[0], 12.0);
}
