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
//! *normalised* config vector; [`apply_recommendation`] denormalises it
//! over the master's profile and picks the apply mode (reload when
//! possible — §4 measures reload signals as the low-jitter option).

use crate::apply::{ApplyError, ReplicaSet};
use crate::orchestrator::{Credentials, ServiceId, ServiceOrchestrator};
use autodbaas_simdb::{ApplyMode, ApplyReport, Backend, ConfigChange};
use autodbaas_tuner::denormalize_config;

/// Errors surfaced by the DFA.
#[derive(Debug, PartialEq, Eq)]
pub enum DfaError {
    /// No credentials for the service (not provisioned / deprovisioned).
    NoCredentials,
    /// The replica-set apply failed.
    Apply(ApplyError),
}

impl std::fmt::Display for DfaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfaError::NoCredentials => write!(f, "no credentials for service"),
            DfaError::Apply(e) => write!(f, "apply failed: {e}"),
        }
    }
}

impl std::error::Error for DfaError {}

/// Apply a normalised (`[0,1]` per knob) recommendation to every node of a
/// service: fetch credentials, denormalise over the master's
/// [`KnobProfile`](autodbaas_simdb::KnobProfile), apply slave-first, and return the credentials used plus
/// the report so the director can persist on success. The apply reloads
/// unless a restart-bound knob moves off the master's live value *and* the
/// caller allows restarts; a reload stages restart-bound knobs.
pub fn apply_recommendation(
    orchestrator: &ServiceOrchestrator,
    service: ServiceId,
    rs: &mut ReplicaSet,
    unit_config: &[f64],
    allow_restart: bool,
) -> Result<(Credentials, ApplyReport), DfaError> {
    let creds = orchestrator
        .credentials(service)
        .cloned()
        .ok_or(DfaError::NoCredentials)?;
    let master = rs.master();
    let profile = master.profile();
    let changes: Vec<ConfigChange> = profile
        .iter()
        .zip(denormalize_config(profile, unit_config))
        .map(|((knob, _), value)| ConfigChange { knob, value })
        .collect();
    let restart_knob_moves = changes
        .iter()
        .any(|c| profile.spec(c.knob).restart_required && c.value != master.knobs().get(c.knob));
    let mode = if restart_knob_moves && allow_restart {
        ApplyMode::Restart
    } else {
        ApplyMode::Reload
    };
    let report = rs.apply(&changes, mode).map_err(DfaError::Apply)?;
    Ok((creds, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::ServiceSpec;
    use autodbaas_simdb::{Catalog, DbFlavor, DiskKind, InstanceType};

    fn provision(flavor: DbFlavor) -> (ServiceOrchestrator, ServiceId, ReplicaSet) {
        let mut orch = ServiceOrchestrator::new();
        let (id, rs) = orch.provision(ServiceSpec {
            flavor,
            instance: InstanceType::M4XLarge,
            disk: DiskKind::Ssd,
            catalog: Catalog::synthetic(4, 200_000_000, 150, 1),
            n_slaves: 1,
            seed: 9,
        });
        (orch, id, rs)
    }

    #[test]
    fn full_config_vectors_land_at_their_denormalized_values() {
        let (orch, id, mut rs) = provision(DbFlavor::Postgres);
        let profile = rs.master().profile().clone();
        let unit = vec![0.5; profile.len()];
        let (_, report) = apply_recommendation(&orch, id, &mut rs, &unit, true).unwrap();
        assert_eq!(report.applied.len(), profile.len());
        for (knob, spec) in profile.iter() {
            let v = rs.master().knobs().get(knob);
            assert!((v - (spec.min + 0.5 * (spec.max - spec.min))).abs() < 1e-6);
        }
    }

    #[test]
    fn mode_prefers_reload() {
        let (orch, id, mut rs) = provision(DbFlavor::Postgres);
        let profile = rs.master().profile().clone();
        let wm = profile.lookup("work_mem").unwrap().0 as usize;
        let base = vec![0.5; profile.len()];
        apply_recommendation(&orch, id, &mut rs, &base, true).unwrap();

        // Only a reloadable knob moves: reload even when restarts are allowed.
        let mut reloadable = base.clone();
        reloadable[wm] = 0.9;
        let (_, report) = apply_recommendation(&orch, id, &mut rs, &reloadable, true).unwrap();
        assert_eq!(report.downtime_ms, 0);

        // A restart-bound knob moves: reload (staging the knob) outside
        // maintenance...
        let shared_buffers = profile.lookup("shared_buffers").unwrap();
        let mut restarty = base;
        restarty[shared_buffers.0 as usize] = 0.9;
        let (_, report) = apply_recommendation(&orch, id, &mut rs, &restarty, false).unwrap();
        assert_eq!(report.downtime_ms, 0);
        assert!(report.deferred.contains(&shared_buffers));
        // ...and restart when allowed.
        let (_, report) = apply_recommendation(&orch, id, &mut rs, &restarty, true).unwrap();
        assert!(report.downtime_ms > 0);
    }

    #[test]
    fn apply_recommendation_happy_path() {
        let (orch, id, mut rs) = provision(DbFlavor::Postgres);
        let unit = vec![0.5; rs.master().profile().len()];
        let (creds, report) = apply_recommendation(&orch, id, &mut rs, &unit, false).unwrap();
        assert!(creds.user.starts_with("admin-"));
        assert!(!report.applied.is_empty());
        // Restart-bound knobs were staged, not applied.
        assert!(!report.deferred.is_empty());
    }

    #[test]
    fn lsm_services_take_recommendations() {
        let (orch, id, mut rs) = provision(DbFlavor::Lsm);
        let unit = vec![0.5; rs.master().profile().len()];
        let (_, report) = apply_recommendation(&orch, id, &mut rs, &unit, false).unwrap();
        assert!(!report.applied.is_empty());
    }

    #[test]
    fn missing_credentials_is_an_error() {
        let (mut orch, id, mut rs) = provision(DbFlavor::Postgres);
        orch.deprovision(id);
        let unit = vec![0.5; rs.master().profile().len()];
        let err = apply_recommendation(&orch, id, &mut rs, &unit, false).unwrap_err();
        assert_eq!(err, DfaError::NoCredentials);
    }

    #[test]
    fn slave_crash_propagates_as_apply_error() {
        let (orch, id, mut rs) = provision(DbFlavor::Postgres);
        rs.inject_slave_crash(0);
        let unit = vec![0.5; rs.master().profile().len()];
        let err = apply_recommendation(&orch, id, &mut rs, &unit, false).unwrap_err();
        assert!(matches!(
            err,
            DfaError::Apply(ApplyError::SlaveCrashed { .. })
        ));
    }
}
