//! Internal runtime metrics, modelled on `pg_stat_*`.
//!
//! Tuners (OtterTune/CDBTune styles) train on *delta* metric vectors — the
//! change in every counter over an observation window, captured after a
//! workload executes. [`Metrics`] is the live counter store,
//! [`MetricsSnapshot`] a point-in-time copy, and
//! [`MetricsSnapshot::delta`] the training-sample vector.

/// Identifier for one metric. Order defines the metric-vector layout that
/// tuners consume, so variants must only be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricId {
    /// Committed transactions.
    XactCommit,
    /// Rolled-back transactions.
    XactRollback,
    /// Buffer-pool misses that hit the disk.
    BlksRead,
    /// Buffer-pool hits.
    BlksHit,
    /// Rows read by queries.
    TupReturned,
    /// Rows inserted.
    TupInserted,
    /// Rows updated.
    TupUpdated,
    /// Rows deleted.
    TupDeleted,
    /// Work-area spills: sort/hash stages that overflowed to disk.
    SortSpills,
    /// Sorts completed fully in memory.
    SortsInMemory,
    /// Maintenance-memory spills (index builds, deletes).
    MaintenanceSpills,
    /// Temp-table spills (temp_buffers overflow).
    TempTableSpills,
    /// Temp files created (any spill category).
    TempFiles,
    /// Bytes written to temp files.
    TempBytes,
    /// Checkpoints triggered by timeout.
    CheckpointsTimed,
    /// Checkpoints triggered by WAL volume.
    CheckpointsReq,
    /// Buffers written by checkpoints.
    BuffersCheckpoint,
    /// Buffers written by the background writer.
    BuffersClean,
    /// Buffers written inline by backends (the bad case).
    BuffersBackend,
    /// WAL bytes generated.
    WalBytes,
    /// Vacuum / GC runs completed.
    VacuumRuns,
    /// Parallel workers granted to queries.
    ParallelWorkersLaunched,
    /// Parallel worker requests denied (pool exhausted).
    ParallelWorkersDenied,
    /// Queries executed.
    QueriesExecuted,
    /// Total query execution time, ms.
    QueryTimeMs,
    /// Gauge: current data-disk write latency, ms.
    DiskWriteLatencyMs,
    /// Gauge: current data-disk IOPS.
    DiskIops,
    /// Gauge: active connections.
    ActiveConnections,
    /// Gauge: database size in bytes.
    DbSizeBytes,
    /// Gauge: last measured working-set bytes.
    WorkingSetBytes,
    /// Queries dropped because the instance was saturated (capacity model).
    QueriesDropped,
}

impl MetricId {
    /// Every metric, in vector order.
    pub const ALL: [MetricId; 31] = [
        MetricId::XactCommit,
        MetricId::XactRollback,
        MetricId::BlksRead,
        MetricId::BlksHit,
        MetricId::TupReturned,
        MetricId::TupInserted,
        MetricId::TupUpdated,
        MetricId::TupDeleted,
        MetricId::SortSpills,
        MetricId::SortsInMemory,
        MetricId::MaintenanceSpills,
        MetricId::TempTableSpills,
        MetricId::TempFiles,
        MetricId::TempBytes,
        MetricId::CheckpointsTimed,
        MetricId::CheckpointsReq,
        MetricId::BuffersCheckpoint,
        MetricId::BuffersClean,
        MetricId::BuffersBackend,
        MetricId::WalBytes,
        MetricId::VacuumRuns,
        MetricId::ParallelWorkersLaunched,
        MetricId::ParallelWorkersDenied,
        MetricId::QueriesExecuted,
        MetricId::QueryTimeMs,
        MetricId::DiskWriteLatencyMs,
        MetricId::DiskIops,
        MetricId::ActiveConnections,
        MetricId::DbSizeBytes,
        MetricId::WorkingSetBytes,
        MetricId::QueriesDropped,
    ];

    /// Position in the metric vector. Variants carry no explicit
    /// discriminants and `ALL` lists them in declaration order, so the cast
    /// is the index (pinned by `all_indices_dense_and_names_unique`) — this
    /// is on the per-query counter path, where the old linear scan over
    /// `ALL` showed up in profiles.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// `pg_stat`-style name.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::XactCommit => "xact_commit",
            MetricId::XactRollback => "xact_rollback",
            MetricId::BlksRead => "blks_read",
            MetricId::BlksHit => "blks_hit",
            MetricId::TupReturned => "tup_returned",
            MetricId::TupInserted => "tup_inserted",
            MetricId::TupUpdated => "tup_updated",
            MetricId::TupDeleted => "tup_deleted",
            MetricId::SortSpills => "sort_spills",
            MetricId::SortsInMemory => "sorts_in_memory",
            MetricId::MaintenanceSpills => "maintenance_spills",
            MetricId::TempTableSpills => "temp_table_spills",
            MetricId::TempFiles => "temp_files",
            MetricId::TempBytes => "temp_bytes",
            MetricId::CheckpointsTimed => "checkpoints_timed",
            MetricId::CheckpointsReq => "checkpoints_req",
            MetricId::BuffersCheckpoint => "buffers_checkpoint",
            MetricId::BuffersClean => "buffers_clean",
            MetricId::BuffersBackend => "buffers_backend",
            MetricId::WalBytes => "wal_bytes",
            MetricId::VacuumRuns => "vacuum_runs",
            MetricId::ParallelWorkersLaunched => "parallel_workers_launched",
            MetricId::ParallelWorkersDenied => "parallel_workers_denied",
            MetricId::QueriesExecuted => "queries_executed",
            MetricId::QueryTimeMs => "query_time_ms",
            MetricId::DiskWriteLatencyMs => "disk_write_latency_ms",
            MetricId::DiskIops => "disk_iops",
            MetricId::ActiveConnections => "active_connections",
            MetricId::DbSizeBytes => "db_size_bytes",
            MetricId::WorkingSetBytes => "working_set_bytes",
            MetricId::QueriesDropped => "queries_dropped",
        }
    }

    /// Gauges are sampled, not accumulated; deltas copy the newer value
    /// instead of subtracting.
    pub fn is_gauge(self) -> bool {
        matches!(
            self,
            MetricId::DiskWriteLatencyMs
                | MetricId::DiskIops
                | MetricId::ActiveConnections
                | MetricId::DbSizeBytes
                | MetricId::WorkingSetBytes
        )
    }
}

/// Live metric store.
#[derive(Debug, Clone)]
pub struct Metrics {
    values: Vec<f64>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// All-zero counters.
    pub fn new() -> Self {
        Self {
            values: vec![0.0; MetricId::ALL.len()],
        }
    }

    /// Add to a counter.
    pub fn inc(&mut self, id: MetricId, by: f64) {
        self.values[id.index()] += by;
    }

    /// Overwrite a gauge.
    pub fn set(&mut self, id: MetricId, value: f64) {
        self.values[id.index()] = value;
    }

    /// Current value.
    pub fn get(&self, id: MetricId) -> f64 {
        self.values[id.index()]
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            values: self.values.clone(),
        }
    }

    /// [`snapshot`](Metrics::snapshot) into an existing snapshot, reusing
    /// its buffer: the per-window paths that run every TDE round.
    pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
        out.values.clone_from(&self.values);
    }
}

/// A frozen copy of the metric vector. The default is empty: a buffer for
/// [`Metrics::snapshot_into`] to fill, with no metric to read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    values: Vec<f64>,
}

impl MetricsSnapshot {
    /// Value of one metric.
    pub fn get(&self, id: MetricId) -> f64 {
        self.values[id.index()]
    }

    /// Raw vector in [`MetricId::ALL`] order.
    pub fn as_vec(&self) -> &[f64] {
        &self.values
    }

    /// The training-sample vector for the window `earlier → self`:
    /// counters are differenced, gauges take the newer reading.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> Vec<f64> {
        MetricId::ALL
            .iter()
            .map(|&id| self.delta_of(earlier, id))
            .collect()
    }

    /// The delta of a single metric over the window `earlier → self` —
    /// saves materialising the whole vector when only one value is needed
    /// (e.g. the per-window throughput objective).
    pub fn delta_of(&self, earlier: &MetricsSnapshot, id: MetricId) -> f64 {
        let i = id.index();
        if id.is_gauge() {
            self.values[i]
        } else {
            self.values[i] - earlier.values[i]
        }
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(Metrics { values });
autodbaas_snapshot::snap_struct!(MetricsSnapshot { values });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_indices_dense_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, m) in MetricId::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert!(names.insert(m.name()), "duplicate metric name {}", m.name());
        }
    }

    #[test]
    fn inc_and_get() {
        let mut m = Metrics::new();
        m.inc(MetricId::XactCommit, 3.0);
        m.inc(MetricId::XactCommit, 2.0);
        assert_eq!(m.get(MetricId::XactCommit), 5.0);
    }

    #[test]
    fn delta_differences_counters() {
        let mut m = Metrics::new();
        m.inc(MetricId::BlksRead, 10.0);
        let s0 = m.snapshot();
        m.inc(MetricId::BlksRead, 7.0);
        let s1 = m.snapshot();
        let d = s1.delta(&s0);
        assert_eq!(d[MetricId::BlksRead.index()], 7.0);
    }

    #[test]
    fn delta_passes_gauges_through() {
        let mut m = Metrics::new();
        m.set(MetricId::DiskWriteLatencyMs, 5.0);
        let s0 = m.snapshot();
        m.set(MetricId::DiskWriteLatencyMs, 9.0);
        let s1 = m.snapshot();
        let d = s1.delta(&s0);
        assert_eq!(d[MetricId::DiskWriteLatencyMs.index()], 9.0);
    }

    #[test]
    fn delta_of_matches_full_delta() {
        let mut m = Metrics::new();
        m.inc(MetricId::QueriesExecuted, 12.0);
        m.set(MetricId::DiskIops, 3.0);
        let s0 = m.snapshot();
        m.inc(MetricId::QueriesExecuted, 30.0);
        m.set(MetricId::DiskIops, 8.0);
        let s1 = m.snapshot();
        let full = s1.delta(&s0);
        for &id in &MetricId::ALL {
            assert_eq!(s1.delta_of(&s0, id), full[id.index()], "{}", id.name());
        }
    }

    #[test]
    fn snapshot_into_overwrites_what_the_buffer_held() {
        let mut m = Metrics::new();
        m.inc(MetricId::QueriesExecuted, 12.0);
        let mut buf = MetricsSnapshot::default();
        m.snapshot_into(&mut buf);
        assert_eq!(buf, m.snapshot());
        m.inc(MetricId::QueriesExecuted, 30.0);
        m.set(MetricId::DiskIops, 8.0);
        m.snapshot_into(&mut buf);
        assert_eq!(buf, m.snapshot());
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        let mut m = Metrics::new();
        let s = m.snapshot();
        m.inc(MetricId::WalBytes, 100.0);
        assert_eq!(s.get(MetricId::WalBytes), 0.0);
        assert_eq!(m.get(MetricId::WalBytes), 100.0);
    }

    #[test]
    fn vector_length_matches_all() {
        let m = Metrics::new();
        assert_eq!(m.snapshot().as_vec().len(), MetricId::ALL.len());
    }
}
