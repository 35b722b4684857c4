//! Service orchestrator (§2, §4).
//!
//! "The Service Orchestrator agent … is responsible for performing all
//! life-cycle operations of service instances and maintains credentials."
//! For the apply path it owns the *persistence storage*: the authoritative
//! config per service, re-applied on every redeployment so "a database
//! reset or re-deployment doesn't over-write the settings".

use crate::apply::ReplicaSet;
use autodbaas_simdb::{
    ApplyMode, Backend, Catalog, ConfigChange, DbFlavor, DiskKind, InstanceType, KnobSet,
};
use std::collections::HashMap;

/// Identifier of a managed service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u64);

/// Access credentials for a service (the DFA fetches these before hitting
/// the TDE apply API).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Admin user.
    pub user: String,
    /// Token/password (opaque).
    pub secret: String,
}

/// Descriptor used to (re)provision a service.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Database flavor.
    pub flavor: DbFlavor,
    /// VM plan.
    pub instance: InstanceType,
    /// Disk technology.
    pub disk: DiskKind,
    /// Dataset.
    pub catalog: Catalog,
    /// HA replicas.
    pub n_slaves: usize,
    /// Determinism seed.
    pub seed: u64,
}

/// The orchestrator: lifecycle + credentials + persisted configs.
#[derive(Debug, Default)]
pub struct ServiceOrchestrator {
    specs: HashMap<ServiceId, ServiceSpec>,
    credentials: HashMap<ServiceId, Credentials>,
    persisted: HashMap<ServiceId, KnobSet>,
    next_id: u64,
}

impl ServiceOrchestrator {
    /// Empty orchestrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provision a new service: spawns the replica set with vendor-default
    /// (instance-capped) knobs and mints credentials.
    pub fn provision(&mut self, spec: ServiceSpec) -> (ServiceId, ReplicaSet) {
        let id = ServiceId(self.next_id);
        self.next_id += 1;
        let rs = ReplicaSet::new(
            spec.flavor,
            spec.instance,
            spec.disk,
            spec.catalog.clone(),
            spec.n_slaves,
            spec.seed,
        );
        self.persisted.insert(id, rs.master().knobs().clone());
        self.credentials.insert(
            id,
            Credentials {
                user: format!("admin-{}", id.0),
                secret: format!("s3cr3t-{}", id.0),
            },
        );
        self.specs.insert(id, spec);
        (id, rs)
    }

    /// Credentials for a service (what the DFA fetches).
    pub fn credentials(&self, id: ServiceId) -> Option<&Credentials> {
        self.credentials.get(&id)
    }

    /// The persisted (authoritative) config.
    pub fn persisted_config(&self, id: ServiceId) -> Option<&KnobSet> {
        self.persisted.get(&id)
    }

    /// Persist a successfully applied config (the final step of §4's apply
    /// protocol).
    pub fn persist_config(&mut self, id: ServiceId, knobs: KnobSet) {
        self.persisted.insert(id, knobs);
    }

    /// Redeploy a service (system update, security patch, …): a fresh
    /// replica set is spawned and the *persisted* config applied to it, so
    /// tuning survives redeployment.
    pub fn redeploy(&mut self, id: ServiceId) -> Option<ReplicaSet> {
        let spec = self.specs.get(&id)?.clone();
        let mut rs = ReplicaSet::new(
            spec.flavor,
            spec.instance,
            spec.disk,
            spec.catalog,
            spec.n_slaves,
            spec.seed.wrapping_add(1),
        );
        if let Some(knobs) = self.persisted.get(&id) {
            let profile = rs.master().profile().clone();
            let changes: Vec<ConfigChange> = profile
                .iter()
                .map(|(kid, _)| ConfigChange {
                    knob: kid,
                    value: knobs.get(kid),
                })
                .collect();
            // A redeploy is a restart by definition, so restart-bound knobs
            // land too.
            let _ = rs.apply(&changes, ApplyMode::Restart);
        }
        Some(rs)
    }

    /// Deprovision: drop all records.
    pub fn deprovision(&mut self, id: ServiceId) {
        self.specs.remove(&id);
        self.credentials.remove(&id);
        self.persisted.remove(&id);
    }

    /// Number of managed services.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is managed.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

use autodbaas_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

impl Snap for ServiceId {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(ServiceId(u64::decode(r)?))
    }
}

snap_struct!(Credentials { user, secret });

snap_struct!(ServiceSpec {
    flavor,
    instance,
    disk,
    catalog,
    n_slaves,
    seed
});

snap_struct!(ServiceOrchestrator {
    specs,
    credentials,
    persisted,
    next_id
});

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServiceSpec {
        ServiceSpec {
            flavor: DbFlavor::Postgres,
            instance: InstanceType::M4Large,
            disk: DiskKind::Ssd,
            catalog: Catalog::synthetic(4, 200_000_000, 150, 1),
            n_slaves: 1,
            seed: 5,
        }
    }

    #[test]
    fn provision_assigns_unique_ids_and_credentials() {
        let mut orch = ServiceOrchestrator::new();
        let (a, _) = orch.provision(spec());
        let (b, _) = orch.provision(spec());
        assert_ne!(a, b);
        assert_ne!(orch.credentials(a), orch.credentials(b));
        assert_eq!(orch.len(), 2);
    }

    #[test]
    fn persisted_config_survives_redeploy() {
        let mut orch = ServiceOrchestrator::new();
        let (id, mut rs) = orch.provision(spec());
        let profile = rs.master().profile().clone();
        let wm = profile.lookup("work_mem").unwrap();
        let sb = profile.lookup("shared_buffers").unwrap();
        // Tune, then persist (as the director would after a good apply).
        let changes = [
            ConfigChange {
                knob: wm,
                value: 64.0 * 1024.0 * 1024.0,
            },
            ConfigChange {
                knob: sb,
                value: 512.0 * 1024.0 * 1024.0,
            },
        ];
        rs.apply(&changes, ApplyMode::Restart).unwrap();
        orch.persist_config(id, rs.master().knobs().clone());

        let redeployed = orch.redeploy(id).unwrap();
        assert_eq!(redeployed.master().knobs().get(wm), 64.0 * 1024.0 * 1024.0);
        assert_eq!(redeployed.master().knobs().get(sb), 512.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn redeploy_without_persist_restores_defaults() {
        let mut orch = ServiceOrchestrator::new();
        let (id, mut rs) = orch.provision(spec());
        let wm = rs.master().profile().lookup("work_mem").unwrap();
        let default = rs.master().knobs().get(wm);
        // Tune but do NOT persist.
        rs.apply(
            &[ConfigChange {
                knob: wm,
                value: 99.0 * 1024.0 * 1024.0,
            }],
            ApplyMode::Reload,
        )
        .unwrap();
        let redeployed = orch.redeploy(id).unwrap();
        assert_eq!(redeployed.master().knobs().get(wm), default);
    }

    #[test]
    fn deprovision_forgets_everything() {
        let mut orch = ServiceOrchestrator::new();
        let (id, _) = orch.provision(spec());
        orch.deprovision(id);
        assert!(orch.credentials(id).is_none());
        assert!(orch.persisted_config(id).is_none());
        assert!(orch.redeploy(id).is_none());
        assert!(orch.is_empty());
    }
}
