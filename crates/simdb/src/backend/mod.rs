//! Backend substrate: the engine surface every upstream consumer talks to.
//!
//! The paper's central multiplier claim is that *one* AutoDBaaS deployment
//! tunes a heterogeneous fleet. This module makes that claim testable in
//! the reproduction: [`Backend`] is the typed trait API the TDE, control
//! plane, fleet sim and benches consume, and the only method surface of
//! [`SimDatabase`](crate::SimDatabase), the one database type. A `SimDatabase` runs either
//! storage engine — the page heap (checkpoint write bursts) or the LSM
//! tree in [`lsm`] (memtable flushes + levelled compaction, write-stall
//! back-pressure) — under one service shell, and both produce the same
//! observable vocabulary — spills, latency peaks, metric deltas — so the
//! same detectors and tuners close the loop over both, and mixed fleets
//! host both side by side. Metric identifiers stay backend-scoped through
//! [`BackendKind::metric_catalog`]: every engine names the same 31
//! metric-vector slots in its own vocabulary (the vector *layout* is
//! shared so tuners transfer across engines), and a `KnobId` is only
//! meaningful with its flavor's profile.

pub(crate) mod lsm;

use crate::catalog::Catalog;
use crate::disk::DiskSet;
use crate::engine::{ApplyMode, ApplyReport, ConfigChange, RecoveryReport, SubmitResult};
use crate::instance::InstanceType;
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

/// The engine surface the TDE, control plane, fleet sim and benches
/// consume, implemented by [`SimDatabase`](crate::SimDatabase) for every
/// flavor. It has no inherent copy of these methods, so callers holding
/// one import this trait.
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
/// * [`Backend::crash`] costs downtime proportional to the un-durable WAL
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
    /// calls of [`Backend::tick`] would.
    fn tick_many(&mut self, ticks: u64, dt_ms: u64);
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
