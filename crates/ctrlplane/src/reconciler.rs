//! Config reconciler (§4).
//!
//! The apply pipeline is not atomic; a crash can leave the master, slaves
//! and persistence storage disagreeing. "A reconciler process is defined
//! that keeps a watch on config of the database system running on the
//! Master node. If the difference in config is observed for a threshold
//! time-period (watcher timeout), the reconciliation occurs and the config
//! stored in the persistence storage is applied to all nodes" — i.e. a
//! failed recommendation is eventually *rejected* back to the persisted
//! state.

use crate::apply::ReplicaSet;
use crate::orchestrator::{ServiceId, ServiceOrchestrator};
use autodbaas_simdb::{ApplyMode, Backend, ConfigChange};
use autodbaas_telemetry::SimTime;

/// What a reconciler check concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconcileOutcome {
    /// Configs agree; nothing to do.
    InSync,
    /// Drift seen, watcher timer running.
    DriftObserved {
        /// How long the drift has persisted, ms.
        for_ms: u64,
    },
    /// Watcher timeout elapsed: persisted config re-applied to all nodes.
    Reconciled,
}

/// Watches one service's live config — master and slaves — against the
/// persisted config.
#[derive(Debug, Clone)]
pub struct Reconciler {
    service: ServiceId,
    watcher_timeout_ms: u64,
    drift_since: Option<SimTime>,
    reconciliations: u64,
}

impl Reconciler {
    /// Reconciler for `service` with the given watcher timeout.
    pub fn new(service: ServiceId, watcher_timeout_ms: u64) -> Self {
        Self {
            service,
            watcher_timeout_ms,
            drift_since: None,
            reconciliations: 0,
        }
    }

    /// Total reconciliations performed.
    pub fn reconciliations(&self) -> u64 {
        self.reconciliations
    }

    /// One watch iteration at time `now`.
    pub fn check(
        &mut self,
        orchestrator: &ServiceOrchestrator,
        rs: &mut ReplicaSet,
        now: SimTime,
    ) -> ReconcileOutcome {
        let Some(persisted) = orchestrator.persisted_config(self.service) else {
            return ReconcileOutcome::InSync; // unmanaged: nothing to enforce
        };
        // Compare only reloadable knobs: restart-bound knobs legitimately
        // lag behind the persisted value until the next maintenance window.
        // Every node in the set is watched — after a failover or a partial
        // slave-first apply the master can be clean while a slave drifts.
        let profile = rs.master().profile();
        let drifted = std::iter::once(rs.master())
            .chain(rs.slaves().iter())
            .any(|node| {
                let live = node.knobs();
                profile.iter().any(|(id, spec)| {
                    !spec.restart_required && (live.get(id) - persisted.get(id)).abs() > 1e-9
                })
            });

        if !drifted {
            self.drift_since = None;
            return ReconcileOutcome::InSync;
        }
        let since = *self.drift_since.get_or_insert(now);
        let for_ms = now.saturating_sub(since);
        if for_ms < self.watcher_timeout_ms {
            return ReconcileOutcome::DriftObserved { for_ms };
        }
        // Timeout: enforce persisted config on all nodes.
        let changes: Vec<ConfigChange> = rs
            .master()
            .profile()
            .iter()
            .filter(|(_, spec)| !spec.restart_required)
            .map(|(id, _)| ConfigChange {
                knob: id,
                value: persisted.get(id),
            })
            .collect();
        // Reconciliation must succeed even if a crash was injected for the
        // *recommendation* path; a second attempt next tick is fine, so
        // ignore one-shot errors here.
        let _ = rs.apply(&changes, ApplyMode::Reload);
        self.drift_since = None;
        self.reconciliations += 1;
        ReconcileOutcome::Reconciled
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(Reconciler {
    service,
    watcher_timeout_ms,
    drift_since,
    reconciliations
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::ServiceSpec;
    use autodbaas_simdb::{Catalog, DbFlavor, DiskKind, InstanceType};

    fn setup() -> (ServiceOrchestrator, ServiceId, ReplicaSet) {
        let mut orch = ServiceOrchestrator::new();
        let (id, rs) = orch.provision(ServiceSpec {
            flavor: DbFlavor::Postgres,
            instance: InstanceType::M4Large,
            disk: DiskKind::Ssd,
            catalog: Catalog::synthetic(3, 100_000_000, 150, 1),
            n_slaves: 1,
            seed: 11,
        });
        (orch, id, rs)
    }

    #[test]
    fn in_sync_stays_quiet() {
        let (orch, id, mut rs) = setup();
        let mut rec = Reconciler::new(id, 10_000);
        assert_eq!(rec.check(&orch, &mut rs, 1_000), ReconcileOutcome::InSync);
        assert_eq!(rec.reconciliations(), 0);
    }

    #[test]
    fn drift_is_observed_then_reconciled_after_timeout() {
        let (orch, id, mut rs) = setup();
        let wm = rs.master().profile().lookup("work_mem").unwrap();
        let persisted_value = orch.persisted_config(id).unwrap().get(wm);
        // A half-applied recommendation drifts the master without being
        // persisted.
        rs.master_mut().set_knob_direct(wm, persisted_value * 2.0);

        let mut rec = Reconciler::new(id, 10_000);
        assert!(matches!(
            rec.check(&orch, &mut rs, 1_000),
            ReconcileOutcome::DriftObserved { .. }
        ));
        assert!(matches!(
            rec.check(&orch, &mut rs, 5_000),
            ReconcileOutcome::DriftObserved { for_ms: 4_000 }
        ));
        assert_eq!(
            rec.check(&orch, &mut rs, 11_001),
            ReconcileOutcome::Reconciled
        );
        assert_eq!(rs.master().knobs().get(wm), persisted_value);
        assert_eq!(rec.reconciliations(), 1);
    }

    #[test]
    fn drift_healing_itself_resets_the_watcher() {
        let (orch, id, mut rs) = setup();
        let wm = rs.master().profile().lookup("work_mem").unwrap();
        let persisted_value = orch.persisted_config(id).unwrap().get(wm);
        rs.master_mut().set_knob_direct(wm, persisted_value * 2.0);
        let mut rec = Reconciler::new(id, 10_000);
        let _ = rec.check(&orch, &mut rs, 1_000);
        // The recommendation completes (persist catches up): set back.
        rs.master_mut().set_knob_direct(wm, persisted_value);
        assert_eq!(rec.check(&orch, &mut rs, 5_000), ReconcileOutcome::InSync);
        // New drift later needs its own full timeout.
        rs.master_mut().set_knob_direct(wm, persisted_value * 3.0);
        assert!(matches!(
            rec.check(&orch, &mut rs, 6_000),
            ReconcileOutcome::DriftObserved { for_ms: 0 }
        ));
    }

    #[test]
    fn staged_restart_knobs_do_not_count_as_drift() {
        let (mut orch, id, mut rs) = setup();
        let sb = rs.master().profile().lookup("shared_buffers").unwrap();
        // Persist a bigger buffer (e.g. decided for the next maintenance
        // window) while the live value lags.
        let mut persisted = rs.master().knobs().clone();
        persisted.set(&rs.master().profile().clone(), sb, 1024.0 * 1024.0 * 1024.0);
        orch.persist_config(id, persisted);
        let mut rec = Reconciler::new(id, 1_000);
        assert_eq!(rec.check(&orch, &mut rs, 5_000), ReconcileOutcome::InSync);
    }

    #[test]
    fn reconciler_fixes_slave_only_drift_via_full_apply() {
        let (orch, id, mut rs) = setup();
        let wm = rs.master().profile().lookup("work_mem").unwrap();
        let persisted_value = orch.persisted_config(id).unwrap().get(wm);
        // Master crashed mid-apply: slaves drifted, master clean.
        rs.master_mut().set_knob_direct(wm, persisted_value * 2.0);
        let mut rec = Reconciler::new(id, 0);
        assert_eq!(rec.check(&orch, &mut rs, 1), ReconcileOutcome::Reconciled);
        for s in rs.slaves() {
            assert_eq!(s.knobs().get(wm), persisted_value);
        }
    }

    #[test]
    fn slave_drift_with_clean_master_is_detected_and_reconciled() {
        let (orch, id, mut rs) = setup();
        let wm = rs.master().profile().lookup("work_mem").unwrap();
        let persisted_value = orch.persisted_config(id).unwrap().get(wm);
        // Only the slave drifts (e.g. a slave-side apply that the master
        // crash then aborted): the master watch alone would never see it.
        rs.slave_mut(0).set_knob_direct(wm, persisted_value * 4.0);
        assert_eq!(rs.master().knobs().get(wm), persisted_value);

        let mut rec = Reconciler::new(id, 10_000);
        assert!(matches!(
            rec.check(&orch, &mut rs, 1_000),
            ReconcileOutcome::DriftObserved { .. }
        ));
        assert_eq!(
            rec.check(&orch, &mut rs, 11_001),
            ReconcileOutcome::Reconciled
        );
        assert_eq!(rs.slaves()[0].knobs().get(wm), persisted_value);
        assert_eq!(rs.master().knobs().get(wm), persisted_value);
    }

    #[test]
    fn drift_promoted_by_failover_is_reconciled() {
        let (orch, id, mut rs) = setup();
        let wm = rs.master().profile().lookup("work_mem").unwrap();
        let persisted_value = orch.persisted_config(id).unwrap().get(wm);
        // The slave drifts, then a failover makes the drifted node master.
        rs.slave_mut(0).set_knob_direct(wm, persisted_value * 2.0);
        rs.failover().unwrap();
        assert_eq!(rs.master().knobs().get(wm), persisted_value * 2.0);

        let mut rec = Reconciler::new(id, 0);
        assert_eq!(rec.check(&orch, &mut rs, 1), ReconcileOutcome::Reconciled);
        assert_eq!(rs.master().knobs().get(wm), persisted_value);
        for s in rs.slaves() {
            assert_eq!(s.knobs().get(wm), persisted_value);
        }
    }
}
