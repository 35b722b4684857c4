//! Backend substrate: the engine surface every upstream consumer talks to.
//!
//! The paper's central multiplier claim is that *one* AutoDBaaS deployment
//! tunes a heterogeneous fleet. This module makes that claim testable in
//! the reproduction: [`SimDatabase`](crate::SimDatabase) is the one
//! database type, and it runs either storage engine — the page heap
//! (checkpoint write bursts) or the LSM tree in [`lsm`] (memtable flushes +
//! levelled compaction, write-stall back-pressure) — under one service
//! shell. Both produce the same observable vocabulary — spills, latency
//! peaks, metric deltas — so the same detectors and tuners close the loop
//! over both, and mixed fleets host both side by side. Metric identifiers
//! stay backend-scoped through [`BackendKind::metric_catalog`]: every
//! engine names the same 31 metric-vector slots in its own vocabulary (the
//! vector *layout* is shared so tuners transfer across engines), and a
//! `KnobId` is only meaningful with its flavor's profile.
//!
//! [`Backend`] keeps exactly the 13 methods the frozen benchmark
//! (`benchmark/`) calls as `Backend::method(db)`; every other engine call
//! is an inherent method of `SimDatabase`.

pub(crate) mod lsm;

use crate::catalog::Catalog;
use crate::engine::{ApplyMode, ApplyReport, ConfigChange, SubmitResult};
use crate::instance::InstanceType;
use crate::knobs::{DbFlavor, KnobProfile, KnobSet};
use crate::metrics::{MetricId, Metrics, MetricsSnapshot};
use crate::planner::Plan;
use crate::query::QueryProfile;
use autodbaas_telemetry::SimTime;

/// Which engine family a backend belongs to. One kind can serve several
/// [`DbFlavor`]s (the page heap backs both the PostgreSQL- and MySQL-style
/// profiles); the kind is what decides physics, the flavor what decides
/// knob vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-place page heap with checkpoint write bursts.
    PageHeap,
    /// Memtable + levelled SSTables with compaction write-amplification.
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

/// The 13 engine methods the frozen benchmark names as
/// `Backend::method(db)` (its README's "API surface" list), implemented by
/// [`SimDatabase`](crate::SimDatabase) for every flavor. It has no
/// inherent copy of these methods, so callers of them import this trait;
/// the rest of the engine surface (`tick`, `crash`, `wal`, …) is inherent.
///
/// The contract the conformance suite (`tests/backend_conformance.rs`)
/// pins for every flavor:
///
/// * knob writes clamp to spec bounds; restart-bound knobs are staged by
///   reload-class applies and land on restart-class ones;
/// * counter metrics are monotone across ticks (gauges may move freely);
/// * ticking is deterministic from a fixed seed;
/// * a socket-activation stall queues batches and drains them after it,
///   and a full socket backlog sheds the batch as dropped;
/// * [`SimDatabase::crash`](crate::SimDatabase::crash) costs downtime proportional to the un-durable WAL
///   window, drops the socket backlog and lands staged knobs.
pub trait Backend {
    /// Knob vocabulary flavor.
    fn flavor(&self) -> DbFlavor;
    /// VM plan.
    fn instance(&self) -> InstanceType;
    /// Knob profile.
    fn profile(&self) -> &KnobProfile;
    /// Current configuration.
    fn knobs(&self) -> &KnobSet;
    /// Catalog served.
    fn catalog(&self) -> &Catalog;
    /// Live metrics.
    fn metrics(&self) -> &Metrics;
    /// Snapshot the metric vector.
    fn metrics_snapshot(&self) -> MetricsSnapshot;
    /// Write-burst cycles completed: checkpoints on the page heap,
    /// compactions on the LSM engine. The bgwriter detector's cadence
    /// reading.
    fn checkpoints_done(&self) -> u64;
    /// Current sim time.
    fn now(&self) -> SimTime;
    /// True while the instance is hard-down.
    fn is_down(&self) -> bool;
    /// Plan a query without executing it (the `EXPLAIN` path).
    fn plan(&self, q: &QueryProfile) -> Plan;
    /// Submit `count` identical queries.
    fn submit(&mut self, q: &QueryProfile, count: u64) -> SubmitResult;
    /// Apply a configuration with §4 semantics.
    fn apply_config(&mut self, changes: &[ConfigChange], mode: ApplyMode) -> ApplyReport;
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_enum!(BackendKind { PageHeap = 0, Lsm = 1 });

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
    fn the_flavor_picks_the_engine() {
        use crate::instance::DiskKind;
        use crate::SimDatabase;
        for (flavor, kind) in [
            (DbFlavor::Postgres, BackendKind::PageHeap),
            (DbFlavor::MySql, BackendKind::PageHeap),
            (DbFlavor::Lsm, BackendKind::Lsm),
        ] {
            let cat = Catalog::synthetic(4, 100_000_000, 150, 1);
            let db = SimDatabase::new(flavor, InstanceType::M4Large, DiskKind::Ssd, cat, 7);
            assert_eq!(db.kind(), kind);
            assert_eq!(db.flavor(), flavor);
            assert_eq!(db.profile().flavor(), flavor);
            assert_eq!(db.write_stalled_ms().is_some(), kind == BackendKind::Lsm);
        }
    }
}
