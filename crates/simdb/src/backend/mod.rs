//! Backend substrate: the engine surface every upstream consumer talks to.
//!
//! The paper's central multiplier claim is that *one* AutoDBaaS deployment
//! tunes a heterogeneous fleet. This module makes that claim testable in
//! the reproduction: [`Backend`] is the typed trait API the TDE, control
//! plane, fleet sim and benches consume, and the only method surface of
//! the engines behind it. [`crate::SimDatabase`] is the page-heap engine
//! (checkpoint write bursts) and implements the trait in its own module;
//! [`LsmDatabase`] is a genuinely different engine (memtable flushes +
//! levelled compaction, write-stall back-pressure) that still produces the
//! same observable vocabulary — spills, latency peaks, metric deltas — so
//! the same detectors and tuners close the loop over both.
//!
//! [`AnyBackend`] is the enum dispatcher fleets hold: static dispatch, no
//! boxing, and mixed fleets host both adapters simultaneously. Knob and
//! metric identifiers stay backend-scoped through [`BackendDescriptor`]:
//! a `KnobId` is only meaningful with its profile, and every backend names
//! the same 31 metric-vector slots in its own vocabulary (the vector
//! *layout* is shared so tuners transfer across engines).

mod lsm;

pub use lsm::LsmDatabase;

use crate::catalog::Catalog;
use crate::disk::DiskSet;
use crate::engine::{
    ApplyMode, ApplyReport, ConfigChange, RecoveryReport, SimDatabase, SubmitResult,
};
use crate::instance::{DiskKind, InstanceType};
use crate::knobs::{DbFlavor, KnobId, KnobProfile, KnobSet};
use crate::metrics::{MetricId, Metrics, MetricsSnapshot};
use crate::planner::{Plan, Planner};
use crate::query::QueryProfile;
use crate::query_window::QueryWindow;
use crate::wal::Wal;
use autodbaas_telemetry::SimTime;

/// Which engine family a backend belongs to. One kind can serve several
/// [`DbFlavor`]s (the page heap backs both the PostgreSQL- and MySQL-style
/// profiles); the kind is what decides physics, the flavor what decides
/// knob vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-place page heap with checkpoint write bursts (`SimDatabase`).
    PageHeap,
    /// Memtable + levelled SSTables with compaction write-amplification
    /// (`LsmDatabase`).
    Lsm,
}

impl BackendKind {
    /// Engine kind serving a flavor.
    pub fn for_flavor(flavor: DbFlavor) -> Self {
        match flavor {
            DbFlavor::Postgres | DbFlavor::MySql => BackendKind::PageHeap,
            DbFlavor::Lsm => BackendKind::Lsm,
        }
    }

    /// Stable engine name for reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::PageHeap => "pageheap",
            BackendKind::Lsm => "lsm",
        }
    }

    /// The backend's own name for a metric-vector slot. The *layout* of the
    /// 31-slot vector is shared across backends (that is what lets one
    /// tuner train on both); the *names* are backend-scoped because the
    /// physical process behind a slot differs: what the page heap counts as
    /// checkpoints, the LSM engine counts as compactions.
    pub fn metric_name(self, id: MetricId) -> &'static str {
        match self {
            BackendKind::PageHeap => id.name(),
            BackendKind::Lsm => match id {
                MetricId::CheckpointsTimed => "compactions_routine",
                MetricId::CheckpointsReq => "compactions_forced",
                MetricId::BuffersCheckpoint => "buffers_compaction",
                MetricId::BuffersClean => "buffers_flush",
                MetricId::VacuumRuns => "tombstone_gc_runs",
                other => other.name(),
            },
        }
    }

    /// All 31 slot names in [`MetricId::ALL`] order.
    pub fn metric_catalog(self) -> [&'static str; MetricId::ALL.len()] {
        let mut names = [""; MetricId::ALL.len()];
        for (i, &id) in MetricId::ALL.iter().enumerate() {
            names[i] = self.metric_name(id);
        }
        names
    }
}

/// Self-description of a backend: engine kind, knob profile and the
/// backend-scoped metric catalog. Everything a control plane needs to host
/// a backend it has never seen before.
#[derive(Debug, Clone)]
pub struct BackendDescriptor {
    /// Engine family.
    pub kind: BackendKind,
    /// Knob vocabulary flavor.
    pub flavor: DbFlavor,
    /// The knob profile (ids in this profile are scoped to this backend).
    pub knob_profile: KnobProfile,
    /// Backend-scoped names for the shared 31-slot metric vector.
    pub metric_names: [&'static str; MetricId::ALL.len()],
}

impl BackendDescriptor {
    /// Descriptor for a flavor.
    pub fn for_flavor(flavor: DbFlavor) -> Self {
        let kind = BackendKind::for_flavor(flavor);
        Self {
            kind,
            flavor,
            knob_profile: KnobProfile::for_flavor(flavor),
            metric_names: kind.metric_catalog(),
        }
    }
}

/// The engine surface the TDE, control plane, fleet sim and benches
/// consume. Implemented directly by [`SimDatabase`] (the page-heap engine,
/// in `engine.rs`) and [`LsmDatabase`], and by [`AnyBackend`] through
/// dispatch; a concrete engine has no inherent copy of these methods, so
/// callers holding one import this trait.
///
/// The contract the conformance suite (`tests/backend_conformance.rs`)
/// pins for every adapter:
///
/// * knob writes clamp to spec bounds; restart-bound knobs are staged by
///   reload-class applies and land on restart-class ones;
/// * counter metrics are monotone across ticks (gauges may move freely);
/// * ticking is deterministic from a fixed seed;
/// * [`Backend::crash`] costs downtime proportional to the un-durable WAL
///   window and lands staged knobs.
pub trait Backend {
    /// Knob vocabulary flavor.
    fn flavor(&self) -> DbFlavor;
    /// VM plan.
    fn instance(&self) -> InstanceType;
    /// Knob profile.
    fn profile(&self) -> &KnobProfile;
    /// Current configuration.
    fn knobs(&self) -> &KnobSet;
    /// The planner (the TDE re-plans sampled queries through this).
    fn planner(&self) -> &Planner;
    /// Catalog served.
    fn catalog(&self) -> &Catalog;
    /// Live metrics.
    fn metrics(&self) -> &Metrics;
    /// Snapshot the metric vector.
    fn metrics_snapshot(&self) -> MetricsSnapshot;
    /// Disk set (latency and IOPS for the monitoring agent).
    fn disks(&self) -> &DiskSet;
    /// Mutable disk set: the bgwriter detector drops the latency samples
    /// it has read.
    fn disks_mut(&mut self) -> &mut DiskSet;
    /// Durability log: LSN accounting for replication and crash recovery.
    fn wal(&self) -> &Wal;
    /// Write-burst cycles completed: checkpoints on the page heap,
    /// compactions on the LSM engine. The bgwriter detector's cadence
    /// reading.
    fn checkpoints_done(&self) -> u64;
    /// Current sim time.
    fn now(&self) -> SimTime;
    /// Hand over the window of queries executed since the last take and
    /// start a new one sampling at most `capacity` queries from `seed`.
    fn take_query_window(&mut self, capacity: usize, seed: u64) -> QueryWindow;
    /// Working-set gauge; `reset` starts a new epoch.
    fn working_set_bytes(&mut self, reset: bool) -> u64;
    /// Active connection count.
    fn active_connections(&self) -> u32;
    /// Set the active connection count.
    fn set_active_connections(&mut self, n: u32);
    /// True while the instance is hard-down.
    fn is_down(&self) -> bool;
    /// Plan a query without executing it (the `EXPLAIN` path).
    fn plan(&self, q: &QueryProfile) -> Plan;
    /// Submit `count` identical queries.
    fn submit(&mut self, q: &QueryProfile, count: u64) -> SubmitResult;
    /// Latency multiplier from memory oversubscription.
    fn swap_factor(&self) -> f64;
    /// Advance the instance by `dt_ms`.
    fn tick(&mut self, dt_ms: u64);
    /// Advance the instance by `ticks` ticks of `dt_ms` with nothing
    /// submitted in between. Must leave the backend exactly where `ticks`
    /// calls of [`Backend::tick`] would; this loop is the reference an
    /// adapter's closed form is held to.
    fn tick_many(&mut self, ticks: u64, dt_ms: u64) {
        for _ in 0..ticks {
            self.tick(dt_ms);
        }
    }
    /// Apply a configuration with §4 semantics.
    fn apply_config(&mut self, changes: &[ConfigChange], mode: ApplyMode) -> ApplyReport;
    /// Crash the process now and run WAL crash recovery.
    fn crash(&mut self) -> RecoveryReport;
    /// Degrade performance for `duration_ms` by latency factor `factor`.
    fn degrade(&mut self, duration_ms: u64, factor: f64);
    /// Knob values currently staged for the next restart.
    fn staged_changes(&self) -> &[ConfigChange];
    /// Direct knob write for test/bench setup.
    fn set_knob_direct(&mut self, knob: KnobId, value: f64);
    /// Switch to the split WAL/stats disk layout.
    fn use_split_disks(&mut self);
    /// Self-description: kind, knob profile, metric catalog.
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor::for_flavor(self.flavor())
    }
}

/// Enum dispatcher over the concrete adapters: static dispatch, `Sized`,
/// and a fleet can host both kinds side by side.
#[derive(Debug)]
pub enum AnyBackend {
    /// The page-heap adapter (PostgreSQL-/MySQL-style flavors).
    PageHeap(SimDatabase),
    /// The LSM adapter.
    Lsm(LsmDatabase),
}

/// Forward a call to whichever adapter is inside.
macro_rules! dispatch {
    ($self:ident, $db:ident => $e:expr) => {
        match $self {
            AnyBackend::PageHeap($db) => $e,
            AnyBackend::Lsm($db) => $e,
        }
    };
}

impl AnyBackend {
    /// Build the adapter serving `flavor`. Page-heap flavors construct
    /// `SimDatabase` with exactly the arguments the pre-trait code used —
    /// same RNG stream, bit-identical behavior.
    pub fn new(
        flavor: DbFlavor,
        instance: InstanceType,
        disk_kind: DiskKind,
        catalog: Catalog,
        seed: u64,
    ) -> Self {
        match flavor {
            DbFlavor::Postgres | DbFlavor::MySql => {
                AnyBackend::PageHeap(SimDatabase::new(flavor, instance, disk_kind, catalog, seed))
            }
            DbFlavor::Lsm => AnyBackend::Lsm(LsmDatabase::new(instance, disk_kind, catalog, seed)),
        }
    }

    /// Engine kind inside.
    pub fn kind(&self) -> BackendKind {
        match self {
            AnyBackend::PageHeap(_) => BackendKind::PageHeap,
            AnyBackend::Lsm(_) => BackendKind::Lsm,
        }
    }
}

impl Backend for AnyBackend {
    fn flavor(&self) -> DbFlavor {
        dispatch!(self, db => db.flavor())
    }
    fn instance(&self) -> InstanceType {
        dispatch!(self, db => db.instance())
    }
    fn profile(&self) -> &KnobProfile {
        dispatch!(self, db => db.profile())
    }
    fn knobs(&self) -> &KnobSet {
        dispatch!(self, db => db.knobs())
    }
    fn planner(&self) -> &Planner {
        dispatch!(self, db => db.planner())
    }
    fn catalog(&self) -> &Catalog {
        dispatch!(self, db => db.catalog())
    }
    fn metrics(&self) -> &Metrics {
        dispatch!(self, db => db.metrics())
    }
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        dispatch!(self, db => db.metrics_snapshot())
    }
    fn disks(&self) -> &DiskSet {
        dispatch!(self, db => db.disks())
    }
    fn disks_mut(&mut self) -> &mut DiskSet {
        dispatch!(self, db => db.disks_mut())
    }
    fn wal(&self) -> &Wal {
        dispatch!(self, db => Backend::wal(db))
    }
    fn checkpoints_done(&self) -> u64 {
        dispatch!(self, db => Backend::checkpoints_done(db))
    }
    fn now(&self) -> SimTime {
        dispatch!(self, db => db.now())
    }
    fn take_query_window(&mut self, capacity: usize, seed: u64) -> QueryWindow {
        dispatch!(self, db => db.take_query_window(capacity, seed))
    }
    fn working_set_bytes(&mut self, reset: bool) -> u64 {
        dispatch!(self, db => db.working_set_bytes(reset))
    }
    fn active_connections(&self) -> u32 {
        dispatch!(self, db => db.active_connections())
    }
    fn set_active_connections(&mut self, n: u32) {
        dispatch!(self, db => db.set_active_connections(n))
    }
    fn is_down(&self) -> bool {
        dispatch!(self, db => db.is_down())
    }
    fn plan(&self, q: &QueryProfile) -> Plan {
        dispatch!(self, db => db.plan(q))
    }
    fn submit(&mut self, q: &QueryProfile, count: u64) -> SubmitResult {
        dispatch!(self, db => db.submit(q, count))
    }
    fn swap_factor(&self) -> f64 {
        dispatch!(self, db => db.swap_factor())
    }
    fn tick(&mut self, dt_ms: u64) {
        dispatch!(self, db => db.tick(dt_ms))
    }
    fn tick_many(&mut self, ticks: u64, dt_ms: u64) {
        dispatch!(self, db => db.tick_many(ticks, dt_ms))
    }
    fn apply_config(&mut self, changes: &[ConfigChange], mode: ApplyMode) -> ApplyReport {
        dispatch!(self, db => db.apply_config(changes, mode))
    }
    fn crash(&mut self) -> RecoveryReport {
        dispatch!(self, db => db.crash())
    }
    fn degrade(&mut self, duration_ms: u64, factor: f64) {
        dispatch!(self, db => db.degrade(duration_ms, factor))
    }
    fn staged_changes(&self) -> &[ConfigChange] {
        dispatch!(self, db => db.staged_changes())
    }
    fn set_knob_direct(&mut self, knob: KnobId, value: f64) {
        dispatch!(self, db => db.set_knob_direct(knob, value))
    }
    fn use_split_disks(&mut self) {
        dispatch!(self, db => db.use_split_disks())
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_enum!(BackendKind { PageHeap = 0, Lsm = 1 });

impl autodbaas_snapshot::Snap for AnyBackend {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        match self {
            AnyBackend::PageHeap(db) => {
                w.put_u16(0);
                db.encode(w);
            }
            AnyBackend::Lsm(db) => {
                w.put_u16(1);
                db.encode(w);
            }
        }
    }
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        use autodbaas_snapshot::Snap;
        match r.get_u16()? {
            0 => Ok(AnyBackend::PageHeap(Snap::decode(r)?)),
            1 => Ok(AnyBackend::Lsm(Snap::decode(r)?)),
            tag => Err(autodbaas_snapshot::SnapError::UnknownTag {
                what: "AnyBackend",
                tag: u32::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_flavors() {
        assert_eq!(
            BackendKind::for_flavor(DbFlavor::Postgres),
            BackendKind::PageHeap
        );
        assert_eq!(
            BackendKind::for_flavor(DbFlavor::MySql),
            BackendKind::PageHeap
        );
        assert_eq!(BackendKind::for_flavor(DbFlavor::Lsm), BackendKind::Lsm);
    }

    #[test]
    fn metric_catalogs_share_layout_but_scope_names() {
        let ph = BackendKind::PageHeap.metric_catalog();
        let lsm = BackendKind::Lsm.metric_catalog();
        assert_eq!(ph.len(), MetricId::ALL.len());
        assert_eq!(lsm.len(), MetricId::ALL.len());
        // The page heap uses the pg_stat names verbatim.
        assert_eq!(ph[MetricId::CheckpointsTimed.index()], "checkpoints_timed");
        // The LSM engine renames the write-burst slots…
        assert_eq!(
            lsm[MetricId::CheckpointsTimed.index()],
            "compactions_routine"
        );
        assert_eq!(lsm[MetricId::VacuumRuns.index()], "tombstone_gc_runs");
        // …but shares everything workload-shaped.
        assert_eq!(lsm[MetricId::BlksHit.index()], "blks_hit");
        assert_eq!(lsm[MetricId::QueriesExecuted.index()], "queries_executed");
    }

    #[test]
    fn any_backend_constructs_the_right_adapter() {
        let cat = || Catalog::synthetic(4, 100_000_000, 150, 1);
        for (flavor, kind) in [
            (DbFlavor::Postgres, BackendKind::PageHeap),
            (DbFlavor::MySql, BackendKind::PageHeap),
            (DbFlavor::Lsm, BackendKind::Lsm),
        ] {
            let b = AnyBackend::new(flavor, InstanceType::M4Large, DiskKind::Ssd, cat(), 7);
            assert_eq!(b.kind(), kind);
            assert_eq!(b.flavor(), flavor);
            assert_eq!(b.descriptor().kind, kind);
            assert_eq!(b.descriptor().knob_profile.flavor(), flavor);
        }
    }

    #[test]
    fn pageheap_adapter_is_the_same_construction_as_simdatabase() {
        // Bit-identity: AnyBackend::new for a page-heap flavor must hand
        // SimDatabase::new exactly the same arguments the pre-trait code
        // did, so the RNG stream (and thus every downstream fingerprint)
        // is unchanged.
        use crate::query::{QueryKind, QueryProfile};
        let cat = Catalog::synthetic(6, 500_000_000, 120, 2);
        let mut direct = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            cat.clone(),
            42,
        );
        let mut wrapped = AnyBackend::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            cat,
            42,
        );
        let mut q = QueryProfile::new(QueryKind::RangeSelect, 0);
        q.rows_examined = 50_000;
        for _ in 0..20 {
            let a = direct.submit(&q, 25);
            let b = wrapped.submit(&q, 25);
            match (a, b) {
                (SubmitResult::Done(x), SubmitResult::Done(y)) => {
                    assert_eq!(x.latency_ms.to_bits(), y.latency_ms.to_bits());
                    assert_eq!(x.hit_ratio.to_bits(), y.hit_ratio.to_bits());
                }
                (x, y) => panic!("divergent submit results {x:?} vs {y:?}"),
            }
            direct.tick(1_000);
            wrapped.tick(1_000);
        }
        assert_eq!(
            direct.metrics_snapshot().as_vec(),
            wrapped.metrics_snapshot().as_vec()
        );
    }
}
