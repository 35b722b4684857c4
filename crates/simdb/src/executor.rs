//! Plan execution against the simulated storage.
//!
//! The executor turns a [`Plan`] into buffer-pool traffic, disk I/O, worker
//! consumption, metric increments, and a latency figure. It supports
//! *batched* execution (`count > 1`): the access pattern is simulated once
//! and the side effects scaled, which is what lets a fleet simulation push
//! millions of queries per simulated day at laptop speed without changing
//! any observable ratio the TDE or the tuners read.

use crate::bufferpool::BufferPool;
use crate::catalog::{Catalog, PAGE_BYTES};
use crate::disk::{DiskSet, WriteSource};
use crate::metrics::{MetricId, Metrics};
use crate::planner::{AccessPath, Plan, Planner, SpillKind};
use crate::query::QueryProfile;
use rand::Rng;

/// Pool of parallel workers shared by all queries in a tick.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    total: u32,
    in_use: u32,
}

impl WorkerPool {
    /// A pool of `total` workers.
    pub fn new(total: u32) -> Self {
        Self { total, in_use: 0 }
    }

    /// Release all workers at the start of a new tick.
    pub fn begin_tick(&mut self) {
        self.in_use = 0;
    }

    /// Grant up to `requested` workers; returns how many were granted.
    pub fn acquire(&mut self, requested: u32) -> u32 {
        let granted = requested.min(self.total.saturating_sub(self.in_use));
        self.in_use += granted;
        granted
    }

    /// Workers currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Pool size.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Replace the pool size (restart-bound worker knob).
    pub fn resize(&mut self, total: u32) {
        self.total = total;
        self.in_use = self.in_use.min(total);
    }
}

/// What executing one query (or one batch) produced.
#[derive(Debug, Clone, Copy)]
pub struct ExecOutcome {
    /// Wall latency of one query instance, ms.
    pub latency_ms: f64,
    /// Spill that occurred, if any.
    pub spilled: Option<SpillKind>,
    /// Parallel workers actually granted.
    pub workers_granted: u32,
    /// Buffer hit ratio observed for this query's accesses.
    pub hit_ratio: f64,
}

/// How many buffer chunks a single query simulation touches at most; the
/// remainder is accounted statistically. Bounds per-query CPU cost.
const MAX_SIMULATED_CHUNKS: u64 = 48;

/// Cost-unit → millisecond conversion. One sequential page ≈ 20 µs of wall
/// time on the modelled hardware.
const MS_PER_COST_UNIT: f64 = 0.02;

/// Fixed per-query overhead (parse, plan, protocol round trip) in ms. This
/// is what makes thousands of requests/second genuinely consume backend
/// capacity, as on the paper's m4-class instances.
pub const BASE_QUERY_OVERHEAD_MS: f64 = 1.5;

/// WAL write amplification over raw row bytes.
const WAL_AMPLIFICATION: f64 = 1.5;

/// Executes plans. Holds only the chunk-address layout derived from the
/// catalog (table → base chunk), rebuilt when the catalog changes shape.
#[derive(Debug, Clone)]
pub struct Executor {
    chunk_base: Vec<u64>,
    chunk_pages: u64,
}

impl Executor {
    /// Build an executor for `catalog`, addressing the pool in
    /// `chunk_bytes` units.
    pub fn new(catalog: &Catalog, chunk_bytes: u64) -> Self {
        let chunk_pages = (chunk_bytes / PAGE_BYTES).max(1);
        let mut chunk_base = Vec::with_capacity(catalog.len());
        let mut next = 0u64;
        for t in catalog.iter() {
            chunk_base.push(next);
            next += t.pages().div_ceil(chunk_pages) + 1;
        }
        Self {
            chunk_base,
            chunk_pages,
        }
    }

    /// Execute `count` instances of `q` whose plan is `plan`.
    ///
    /// All side effects (metrics, disk, WAL) are scaled by `count`; the
    /// buffer pool sees one instance's access pattern (a batch of identical
    /// queries re-touches the same pages anyway).
    #[allow(clippy::too_many_arguments)]
    pub fn execute<R: Rng + ?Sized>(
        &self,
        q: &QueryProfile,
        plan: &Plan,
        count: u64,
        planner: &Planner,
        catalog: &Catalog,
        pool: &mut BufferPool,
        disk: &mut DiskSet,
        workers: &mut WorkerPool,
        metrics: &mut Metrics,
        rng: &mut R,
    ) -> ExecOutcome {
        assert!(count > 0, "executing zero queries is a caller bug");
        let table = catalog.table(q.table);
        let base = self.chunk_base[q.table as usize];
        let table_chunks = (table.pages().div_ceil(self.chunk_pages)).max(1);

        // --- Buffer traffic ------------------------------------------------
        let want_chunks = plan.est_pages.div_ceil(self.chunk_pages).max(1);
        let touched = want_chunks.min(MAX_SIMULATED_CHUNKS);
        let scale = want_chunks as f64 / touched as f64;
        let is_write = q.kind.is_write();
        let mut hits = 0u64;
        for i in 0..touched {
            let chunk = match plan.path {
                // Sequential scans walk the table from a random start.
                AccessPath::SeqScan => base + (i + rng.gen_range(0..table_chunks)) % table_chunks,
                // Index scans touch skewed random chunks (hot keys first);
                // the skew strength is the query's locality exponent.
                AccessPath::IndexScan => {
                    let r: f64 = rng.gen::<f64>();
                    let skewed = r.powf(q.locality.max(1.0));
                    base + ((skewed * table_chunks as f64) as u64).min(table_chunks - 1)
                }
            };
            if pool.access(chunk, is_write) {
                hits += 1;
            }
        }
        let hit_ratio = hits as f64 / touched as f64;
        // I/O is charged at the *page* need of the plan, scaled by the
        // observed miss fraction — a chunk miss does not read the whole
        // chunk, only the pages the query touches within it.
        let miss_pages = plan.est_pages as f64 * (1.0 - hit_ratio) * count as f64;
        if miss_pages > 0.0 {
            disk.submit_read(miss_pages * PAGE_BYTES as f64);
        }
        metrics.inc(
            MetricId::BlksHit,
            plan.est_pages as f64 * hit_ratio * count as f64,
        );
        metrics.inc(MetricId::BlksRead, miss_pages);

        // --- Workers --------------------------------------------------------
        let workers_granted = workers.acquire(plan.workers_requested);
        if plan.workers_requested > 0 {
            metrics.inc(
                MetricId::ParallelWorkersLaunched,
                workers_granted as f64 * count as f64,
            );
            metrics.inc(
                MetricId::ParallelWorkersDenied,
                (plan.workers_requested - workers_granted) as f64 * count as f64,
            );
        }

        // --- Spills ----------------------------------------------------------
        if let Some(kind) = plan.spill {
            let id = match kind {
                SpillKind::WorkMem => MetricId::SortSpills,
                SpillKind::MaintenanceMem => MetricId::MaintenanceSpills,
                SpillKind::TempBuffers => MetricId::TempTableSpills,
            };
            metrics.inc(id, count as f64);
            metrics.inc(MetricId::TempFiles, count as f64);
            metrics.inc(MetricId::TempBytes, plan.spill_bytes as f64 * count as f64);
            disk.submit_write(
                plan.spill_bytes as f64 * count as f64,
                WriteSource::TempSpill,
            );
        } else if q.sort_bytes > 0 {
            metrics.inc(MetricId::SortsInMemory, count as f64);
        }

        // --- Writes / WAL -----------------------------------------------------
        let row_bytes_written = q.rows_written * table.row_bytes as u64;
        if row_bytes_written > 0 {
            let wal = row_bytes_written as f64 * WAL_AMPLIFICATION * count as f64;
            disk.submit_write(wal, WriteSource::Wal);
            metrics.inc(MetricId::WalBytes, wal);
        }
        match q.kind {
            crate::query::QueryKind::Insert => {
                metrics.inc(MetricId::TupInserted, q.rows_written as f64 * count as f64)
            }
            crate::query::QueryKind::Update => {
                metrics.inc(MetricId::TupUpdated, q.rows_written as f64 * count as f64)
            }
            crate::query::QueryKind::Delete => {
                metrics.inc(MetricId::TupDeleted, q.rows_written as f64 * count as f64)
            }
            _ => {}
        }
        metrics.inc(MetricId::TupReturned, q.rows_examined as f64 * count as f64);

        // --- Latency ------------------------------------------------------------
        // A degraded plan (spills, wrong path, cold cache) costs more; the
        // worker shortfall re-inflates a plan that banked on parallelism.
        let mut effective_plan = *plan;
        effective_plan.workers_requested = workers_granted;
        let cost = planner.true_cost(q, &effective_plan, hit_ratio, catalog);
        let io_wait = (touched - hits) as f64 * scale * disk.data().current_latency_ms() * 0.2;
        let latency_ms = BASE_QUERY_OVERHEAD_MS + cost * MS_PER_COST_UNIT + io_wait;

        metrics.inc(MetricId::QueriesExecuted, count as f64);
        metrics.inc(MetricId::QueryTimeMs, latency_ms * count as f64);
        metrics.inc(MetricId::XactCommit, count as f64);

        ExecOutcome {
            latency_ms,
            spilled: plan.spill,
            workers_granted,
            hit_ratio,
        }
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(WorkerPool { total, in_use });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::DEFAULT_CHUNK_BYTES;
    use crate::instance::DiskKind;
    use crate::knobs::KnobProfile;
    use crate::query::QueryKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MIB: u64 = 1024 * 1024;

    struct Rig {
        planner: Planner,
        catalog: Catalog,
        pool: BufferPool,
        disk: DiskSet,
        workers: WorkerPool,
        metrics: Metrics,
        exec: Executor,
        rng: StdRng,
    }

    fn rig() -> Rig {
        let profile = KnobProfile::postgres();
        let planner = Planner::new(profile);
        let mut catalog = Catalog::new();
        catalog.add_table("t", 2_000_000, 100, 2); // ~200 MB
        let pool = BufferPool::new(64 * MIB, DEFAULT_CHUNK_BYTES);
        let exec = Executor::new(&catalog, DEFAULT_CHUNK_BYTES);
        Rig {
            planner,
            catalog,
            pool,
            disk: DiskSet::shared(DiskKind::Ssd),
            workers: WorkerPool::new(4),
            metrics: Metrics::new(),
            exec,
            rng: StdRng::seed_from_u64(7),
        }
    }

    fn run(
        r: &mut Rig,
        q: &QueryProfile,
        knobs: &crate::knobs::KnobSet,
        count: u64,
    ) -> ExecOutcome {
        let plan = r.planner.plan(q, knobs, &r.catalog);
        r.exec.execute(
            q,
            &plan,
            count,
            &r.planner,
            &r.catalog,
            &mut r.pool,
            &mut r.disk,
            &mut r.workers,
            &mut r.metrics,
            &mut r.rng,
        )
    }

    #[test]
    fn execution_updates_metrics() {
        let mut r = rig();
        let knobs = r.planner.profile().defaults();
        let q = QueryProfile::new(QueryKind::PointSelect, 0);
        run(&mut r, &q, &knobs, 10);
        assert_eq!(r.metrics.get(MetricId::QueriesExecuted), 10.0);
        assert_eq!(r.metrics.get(MetricId::XactCommit), 10.0);
        assert!(r.metrics.get(MetricId::TupReturned) >= 10.0);
    }

    #[test]
    fn spilling_query_writes_temp_and_counts() {
        let mut r = rig();
        let knobs = r.planner.profile().defaults();
        let mut q = QueryProfile::new(QueryKind::OrderBy, 0);
        q.rows_examined = 50_000;
        q.sort_bytes = 64 * MIB;
        let out = run(&mut r, &q, &knobs, 1);
        assert!(out.spilled.is_some());
        assert_eq!(r.metrics.get(MetricId::SortSpills), 1.0);
        assert!(r.disk.data().written_by(WriteSource::TempSpill) > 0.0);
    }

    #[test]
    fn spill_latency_exceeds_in_memory_latency() {
        let mut r = rig();
        let profile = r.planner.profile().clone();
        let mut knobs = profile.defaults();
        let mut q = QueryProfile::new(QueryKind::OrderBy, 0);
        q.rows_examined = 50_000;
        q.sort_bytes = 64 * MIB;
        let spilled = run(&mut r, &q, &knobs, 1);
        knobs.set_named(&profile, "work_mem", (256 * MIB) as f64);
        let in_mem = run(&mut r, &q, &knobs, 1);
        assert!(spilled.latency_ms > in_mem.latency_ms * 2.0);
    }

    #[test]
    fn repeated_execution_warms_cache() {
        let mut r = rig();
        let knobs = r.planner.profile().defaults();
        let mut q = QueryProfile::new(QueryKind::PointSelect, 0);
        q.rows_examined = 100;
        let cold = run(&mut r, &q, &knobs, 1);
        let mut warm = cold;
        for _ in 0..50 {
            warm = run(&mut r, &q, &knobs, 1);
        }
        assert!(warm.hit_ratio >= cold.hit_ratio);
    }

    #[test]
    fn worker_pool_grants_are_bounded() {
        let mut p = WorkerPool::new(3);
        assert_eq!(p.acquire(2), 2);
        assert_eq!(p.acquire(2), 1);
        assert_eq!(p.acquire(2), 0);
        p.begin_tick();
        assert_eq!(p.acquire(5), 3);
    }

    #[test]
    fn denied_workers_show_in_metrics() {
        let mut r = rig();
        let profile = r.planner.profile().clone();
        let mut knobs = profile.defaults();
        knobs.set_named(&profile, "max_parallel_workers_per_gather", 8.0);
        r.workers = WorkerPool::new(2);
        let mut q = QueryProfile::new(QueryKind::Aggregate, 0);
        q.rows_examined = 2_000_000;
        q.parallelizable = true;
        run(&mut r, &q, &knobs, 1);
        assert!(r.metrics.get(MetricId::ParallelWorkersDenied) > 0.0);
    }

    #[test]
    fn writes_generate_wal() {
        let mut r = rig();
        let knobs = r.planner.profile().defaults();
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = 5;
        run(&mut r, &q, &knobs, 100);
        assert!(r.metrics.get(MetricId::WalBytes) > 0.0);
        assert!(r.disk.data().written_by(WriteSource::Wal) > 0.0);
        assert_eq!(r.metrics.get(MetricId::TupInserted), 500.0);
    }

    #[test]
    fn batch_scales_side_effects_linearly() {
        let mut a = rig();
        let mut b = rig();
        let knobs = a.planner.profile().defaults();
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = 1;
        run(&mut a, &q, &knobs, 1);
        run(&mut b, &q, &knobs, 1000);
        let wal_a = a.metrics.get(MetricId::WalBytes);
        let wal_b = b.metrics.get(MetricId::WalBytes);
        assert!((wal_b / wal_a - 1000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_count_is_rejected() {
        let mut r = rig();
        let knobs = r.planner.profile().defaults();
        let q = QueryProfile::new(QueryKind::PointSelect, 0);
        run(&mut r, &q, &knobs, 0);
    }
}
