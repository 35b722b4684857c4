//! Data Federation Agent (§2).
//!
//! "The DFA fetches the credentials from Service Orchestrator layer and
//! hits the APIs of TDE to apply configs to all nodes of the database
//! service … The DFA has multiple adapter implementations to get connected
//! to various kinds of database services."
//!
//! The adapter boundary is what lets one control plane speak to PostgreSQL
//! and MySQL services alike: a tuner emits a *normalised* config vector;
//! the flavor's adapter translates it into concrete knob changes and picks
//! the apply mode (reload when possible — §4 measures reload signals as the
//! low-jitter option).

use crate::apply::{ApplyError, ReplicaSet};
use crate::orchestrator::{Credentials, ServiceId, ServiceOrchestrator};
use autodbaas_simdb::{ApplyMode, ApplyReport, Backend, ConfigChange, DbFlavor, KnobProfile};
use autodbaas_tuner::denormalize_config;

/// Errors surfaced by the DFA.
#[derive(Debug, PartialEq, Eq)]
pub enum DfaError {
    /// No credentials for the service (not provisioned / deprovisioned).
    NoCredentials,
    /// No adapter registered for the flavor.
    NoAdapter(DbFlavor),
    /// The replica-set apply failed.
    Apply(ApplyError),
}

impl std::fmt::Display for DfaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfaError::NoCredentials => write!(f, "no credentials for service"),
            DfaError::NoAdapter(fl) => write!(f, "no adapter for flavor {fl}"),
            DfaError::Apply(e) => write!(f, "apply failed: {e}"),
        }
    }
}

impl std::error::Error for DfaError {}

/// A flavor-specific adapter: translates a normalised config vector into
/// concrete knob changes.
pub trait DbAdapter: Send + Sync {
    /// The flavor this adapter speaks.
    fn flavor(&self) -> DbFlavor;

    /// Translate a normalised (`[0,1]` per knob) config vector.
    fn translate(&self, profile: &KnobProfile, unit_config: &[f64]) -> Vec<ConfigChange>;

    /// Preferred apply mode for a set of changes: reload unless a
    /// restart-bound knob changed *and* the caller allows restarts.
    fn pick_mode(
        &self,
        profile: &KnobProfile,
        changes: &[ConfigChange],
        allow_restart: bool,
    ) -> ApplyMode {
        let needs_restart = changes
            .iter()
            .any(|c| profile.spec(c.knob).restart_required);
        if needs_restart && allow_restart {
            ApplyMode::Restart
        } else {
            ApplyMode::Reload
        }
    }
}

/// PostgreSQL adapter.
#[derive(Debug, Default)]
pub struct PostgresAdapter;

/// MySQL adapter.
#[derive(Debug, Default)]
pub struct MySqlAdapter;

fn translate_common(profile: &KnobProfile, unit_config: &[f64]) -> Vec<ConfigChange> {
    let raw = denormalize_config(profile, unit_config);
    profile
        .iter()
        .zip(raw)
        .map(|((id, _), value)| ConfigChange { knob: id, value })
        .collect()
}

impl DbAdapter for PostgresAdapter {
    fn flavor(&self) -> DbFlavor {
        DbFlavor::Postgres
    }
    fn translate(&self, profile: &KnobProfile, unit_config: &[f64]) -> Vec<ConfigChange> {
        assert_eq!(profile.flavor(), DbFlavor::Postgres);
        translate_common(profile, unit_config)
    }
}

impl DbAdapter for MySqlAdapter {
    fn flavor(&self) -> DbFlavor {
        DbFlavor::MySql
    }
    fn translate(&self, profile: &KnobProfile, unit_config: &[f64]) -> Vec<ConfigChange> {
        assert_eq!(profile.flavor(), DbFlavor::MySql);
        translate_common(profile, unit_config)
    }
}

/// The DFA: adapter registry + apply entry point.
pub struct DataFederationAgent {
    adapters: Vec<Box<dyn DbAdapter>>,
}

impl Default for DataFederationAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DataFederationAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DataFederationAgent({} adapters)", self.adapters.len())
    }
}

impl DataFederationAgent {
    /// DFA with both built-in adapters registered.
    pub fn new() -> Self {
        Self {
            adapters: vec![Box::new(PostgresAdapter), Box::new(MySqlAdapter)],
        }
    }

    /// DFA with no adapters (register explicitly).
    pub fn empty() -> Self {
        Self {
            adapters: Vec::new(),
        }
    }

    /// Register an adapter.
    pub fn register(&mut self, adapter: Box<dyn DbAdapter>) {
        self.adapters.push(adapter);
    }

    fn adapter_for(&self, flavor: DbFlavor) -> Option<&dyn DbAdapter> {
        self.adapters
            .iter()
            .find(|a| a.flavor() == flavor)
            .map(|b| b.as_ref())
    }

    /// Apply a normalised recommendation to every node of a service:
    /// fetch credentials, translate via the flavor adapter, apply
    /// slave-first, and return the credentials used plus the report so the
    /// director can persist on success.
    pub fn apply_recommendation(
        &self,
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
        let flavor = rs.master().flavor();
        let adapter = self
            .adapter_for(flavor)
            .ok_or(DfaError::NoAdapter(flavor))?;
        let profile = rs.master().profile().clone();
        let changes = adapter.translate(&profile, unit_config);
        let mode = adapter.pick_mode(&profile, &changes, allow_restart);
        let report = rs.apply(&changes, mode).map_err(DfaError::Apply)?;
        Ok((creds, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::ServiceSpec;
    use autodbaas_simdb::{Catalog, DiskKind, InstanceType};

    fn provision() -> (ServiceOrchestrator, ServiceId, ReplicaSet) {
        let mut orch = ServiceOrchestrator::new();
        let (id, rs) = orch.provision(ServiceSpec {
            flavor: DbFlavor::Postgres,
            instance: InstanceType::M4XLarge,
            disk: DiskKind::Ssd,
            catalog: Catalog::synthetic(4, 200_000_000, 150, 1),
            n_slaves: 1,
            seed: 9,
        });
        (orch, id, rs)
    }

    #[test]
    fn adapters_translate_full_config_vectors() {
        let profile = KnobProfile::postgres();
        let unit = vec![0.5; profile.len()];
        let changes = PostgresAdapter.translate(&profile, &unit);
        assert_eq!(changes.len(), profile.len());
        for c in &changes {
            let spec = profile.spec(c.knob);
            assert!((c.value - (spec.min + 0.5 * (spec.max - spec.min))).abs() < 1e-6);
        }
    }

    #[test]
    fn pick_mode_prefers_reload() {
        let profile = KnobProfile::postgres();
        let wm = profile.lookup("work_mem").unwrap();
        let sb = profile.lookup("shared_buffers").unwrap();
        let a = PostgresAdapter;
        let reloadable = [ConfigChange {
            knob: wm,
            value: 1e6,
        }];
        assert_eq!(a.pick_mode(&profile, &reloadable, true), ApplyMode::Reload);
        let restarty = [ConfigChange {
            knob: sb,
            value: 1e9,
        }];
        assert_eq!(a.pick_mode(&profile, &restarty, true), ApplyMode::Restart);
        // Restart disallowed outside maintenance: reload (staging the knob).
        assert_eq!(a.pick_mode(&profile, &restarty, false), ApplyMode::Reload);
    }

    #[test]
    fn apply_recommendation_happy_path() {
        let (orch, id, mut rs) = provision();
        let dfa = DataFederationAgent::new();
        let unit = vec![0.5; rs.master().profile().len()];
        let (creds, report) = dfa
            .apply_recommendation(&orch, id, &mut rs, &unit, false)
            .unwrap();
        assert!(creds.user.starts_with("admin-"));
        assert!(!report.applied.is_empty());
        // Restart-bound knobs were staged, not applied.
        assert!(!report.deferred.is_empty());
    }

    #[test]
    fn missing_credentials_is_an_error() {
        let (mut orch, id, mut rs) = provision();
        orch.deprovision(id);
        let dfa = DataFederationAgent::new();
        let unit = vec![0.5; rs.master().profile().len()];
        let err = dfa
            .apply_recommendation(&orch, id, &mut rs, &unit, false)
            .unwrap_err();
        assert_eq!(err, DfaError::NoCredentials);
    }

    #[test]
    fn missing_adapter_is_an_error() {
        let (orch, id, mut rs) = provision();
        let dfa = DataFederationAgent::empty();
        let unit = vec![0.5; rs.master().profile().len()];
        let err = dfa
            .apply_recommendation(&orch, id, &mut rs, &unit, false)
            .unwrap_err();
        assert_eq!(err, DfaError::NoAdapter(DbFlavor::Postgres));
    }

    #[test]
    fn slave_crash_propagates_as_apply_error() {
        let (orch, id, mut rs) = provision();
        rs.inject_slave_crash(0);
        let dfa = DataFederationAgent::new();
        let unit = vec![0.5; rs.master().profile().len()];
        let err = dfa
            .apply_recommendation(&orch, id, &mut rs, &unit, false)
            .unwrap_err();
        assert!(matches!(
            err,
            DfaError::Apply(ApplyError::SlaveCrashed { .. })
        ));
    }
}
