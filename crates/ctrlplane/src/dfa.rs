//! Data Federation Agent (§2).
//!
//! "The DFA fetches the credentials from Service Orchestrator layer and
//! hits the APIs of TDE to apply configs to all nodes of the database
//! service … The DFA has multiple adapter implementations to get connected
//! to various kinds of database services."
//!
//! Here the flavor's [`KnobProfile`](autodbaas_simdb::KnobProfile) is the adapter: it already carries the
//! knob vocabulary and which knobs are restart-bound, so one function
//! serves PostgreSQL-, MySQL- and LSM-style services alike. A tuner emits a
//! *normalised* config vector; [`apply_recommendation`] is the only path
//! that lands one: it denormalises the vector over the master's profile,
//! vets the §4 memory budget, and reloads the reloadable knobs slave-first
//! behind the replica-lag guard (§4 measures reload signals as the
//! low-jitter option). Restart-bound knobs are dropped, not staged: §4
//! sizes them at the maintenance window. Simulated services hold no
//! credentials, so none are fetched.

use crate::apply::{ApplyError, ReplicaSet};
use autodbaas_simdb::instance::enforce_memory_cap;
use autodbaas_simdb::{ApplyMode, ApplyReport, Backend, ConfigChange};
use autodbaas_tuner::denormalize_config;

/// Vet a normalised (`[0,1]` per knob) recommendation and land it on every
/// node of a service, slave-first.
///
/// §4 budget vetting: the config director checks `A+B+C+D < X` before
/// shipping a recommendation — an oversubscribed config would swap the
/// instance to death, so memory knobs are rescaled to fit. The vetted
/// budget is the config *as it will run*: reloadable knobs take the
/// recommended values, restart-bound ones keep their live values (they
/// wait for the maintenance window). The apply is refused with
/// [`ApplyError::ReplicaLagging`] while any slave trails the master by more
/// than `max_lag_bytes` of WAL.
pub fn apply_recommendation(
    rs: &mut ReplicaSet,
    unit: &[f64],
    max_lag_bytes: u64,
) -> Result<ApplyReport, ApplyError> {
    let master = rs.master();
    let profile = master.profile();
    let raw = denormalize_config(profile, unit);
    let mut vetted = master.knobs().clone();
    for (i, (kid, spec)) in profile.iter().enumerate() {
        if !spec.restart_required {
            vetted.set(profile, kid, raw[i]);
        }
    }
    enforce_memory_cap(profile, &mut vetted, master.instance());
    let changes: Vec<ConfigChange> = profile
        .iter()
        .filter(|(_, spec)| !spec.restart_required)
        .map(|(kid, _)| ConfigChange {
            knob: kid,
            value: vetted.get(kid),
        })
        .collect();
    rs.apply_with_lag_guard(&changes, ApplyMode::Reload, max_lag_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{ServiceOrchestrator, ServiceSpec};
    use autodbaas_simdb::{Catalog, DbFlavor, DiskKind, InstanceType, KnobSet};

    /// The fleet's default lag guard.
    const MAX_LAG: u64 = 64 * 1024 * 1024;

    fn provision(flavor: DbFlavor) -> ReplicaSet {
        let mut orch = ServiceOrchestrator::new();
        let (_, rs) = orch.provision(ServiceSpec {
            flavor,
            instance: InstanceType::M4XLarge,
            disk: DiskKind::Ssd,
            catalog: Catalog::synthetic(4, 200_000_000, 150, 1),
            n_slaves: 1,
            seed: 9,
        });
        rs
    }

    fn all_knobs(rs: &ReplicaSet) -> Vec<KnobSet> {
        std::iter::once(rs.master())
            .chain(rs.slaves())
            .map(|db| db.knobs().clone())
            .collect()
    }

    #[test]
    fn full_config_vectors_land_at_their_denormalized_values() {
        let mut rs = provision(DbFlavor::Postgres);
        let profile = rs.master().profile().clone();
        let boot = rs.master().knobs().clone();
        let unit = vec![0.5; profile.len()];
        let report = apply_recommendation(&mut rs, &unit, MAX_LAG).unwrap();
        let reloadable = profile.iter().filter(|(_, s)| !s.restart_required);
        assert_eq!(report.applied.len(), reloadable.count());
        for (knob, spec) in profile.iter() {
            let v = rs.master().knobs().get(knob);
            if spec.restart_required {
                assert_eq!(v, boot.get(knob));
            } else {
                assert!((v - (spec.min + 0.5 * (spec.max - spec.min))).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn apply_recommendation_happy_path() {
        let mut rs = provision(DbFlavor::Postgres);
        let unit = vec![0.5; rs.master().profile().len()];
        let report = apply_recommendation(&mut rs, &unit, MAX_LAG).unwrap();
        assert!(!report.applied.is_empty());
        assert_eq!(report.downtime_ms, 0);
        // Restart-bound knobs are dropped, not staged.
        assert!(report.deferred.is_empty());
    }

    #[test]
    fn lsm_services_take_recommendations() {
        let mut rs = provision(DbFlavor::Lsm);
        let unit = vec![0.5; rs.master().profile().len()];
        let report = apply_recommendation(&mut rs, &unit, MAX_LAG).unwrap();
        assert!(!report.applied.is_empty());
    }

    #[test]
    fn slave_crash_propagates_as_apply_error() {
        let mut rs = provision(DbFlavor::Postgres);
        rs.inject_slave_crash(0);
        let unit = vec![0.5; rs.master().profile().len()];
        let err = apply_recommendation(&mut rs, &unit, MAX_LAG).unwrap_err();
        assert!(matches!(err, ApplyError::SlaveCrashed { .. }));
    }

    #[test]
    fn a_full_vector_lands_inside_the_memory_cap() {
        let mut rs = provision(DbFlavor::Postgres);
        let unit = vec![1.0; rs.master().profile().len()];
        apply_recommendation(&mut rs, &unit, MAX_LAG).unwrap();
        let master = rs.master();
        let used = master.knobs().memory_budget_used(master.profile());
        assert!(
            used <= master.instance().db_mem_cap(),
            "{used} > {}",
            master.instance().db_mem_cap()
        );
    }

    #[test]
    fn restart_bound_knobs_are_dropped_not_staged() {
        let mut rs = provision(DbFlavor::Postgres);
        let profile = rs.master().profile().clone();
        let boot = all_knobs(&rs);
        let unit = vec![0.5; profile.len()];
        apply_recommendation(&mut rs, &unit, MAX_LAG).unwrap();
        // A later restart-class apply has nothing staged to land.
        rs.apply(&[], ApplyMode::Restart).unwrap();
        let after = all_knobs(&rs);
        for (kid, spec) in profile.iter().filter(|(_, s)| s.restart_required) {
            for (b, a) in boot.iter().zip(&after) {
                assert_eq!(a.get(kid), b.get(kid), "{} moved", spec.name);
            }
        }
        assert!(rs.master().staged_changes().is_empty());
        for s in rs.slaves() {
            assert!(s.staged_changes().is_empty());
        }
    }

    #[test]
    fn a_lagging_replica_refuses_the_apply_and_nothing_moves() {
        use autodbaas_simdb::{QueryKind, QueryProfile};
        let mut rs = provision(DbFlavor::Postgres);
        rs.pause_slave_replay(0, 60_000);
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = 50;
        for _ in 0..10 {
            let _ = rs.master_mut().submit(&q, 500);
            rs.tick(1_000);
        }
        let before = all_knobs(&rs);
        let unit = vec![0.5; rs.master().profile().len()];
        let err = apply_recommendation(&mut rs, &unit, 1024).unwrap_err();
        assert!(matches!(err, ApplyError::ReplicaLagging { slave: 0, .. }));
        assert_eq!(all_knobs(&rs), before);
    }
}
