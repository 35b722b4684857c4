//! `SimDatabase`: one simulated database-service instance, on either
//! storage engine.
//!
//! This is the object everything upstream talks to: workload generators
//! submit queries, the TDE reads plans / metrics / disk series / the
//! working-set gauge, and the control plane applies configuration changes
//! with the §4 semantics (reload signal, socket activation, restart;
//! restart-bound knobs staged until a restart-class apply). Those
//! semantics, the capacity model and the tick skeleton belong to the
//! service manager, so they are written once here; the flavor's storage
//! engine — the page heap's background writer or the LSM tree in
//! `backend/lsm.rs` — is a private `Storage` the shell reaches only
//! through its methods.

use crate::backend::lsm::LsmTree;
use crate::backend::{Backend, BackendKind};
use crate::bgwriter::{stats_drip_bytes, BgWriter};
use crate::bufferpool::{BufferPool, DEFAULT_CHUNK_BYTES};
use crate::catalog::Catalog;
use crate::disk::DiskSet;
use crate::executor::{ExecOutcome, Executor, WorkerPool};
use crate::instance::{enforce_memory_cap, DiskKind, InstanceType};
use crate::knobs::{DbFlavor, KnobId, KnobProfile, KnobSet};
use crate::metrics::{MetricId, Metrics, MetricsSnapshot};
use crate::planner::{KnobRoles, Plan, Planner};
use crate::query::{QueryKind, QueryProfile};
use crate::query_window::QueryWindow;
use crate::wal::Wal;
use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use autodbaas_telemetry::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One knob change proposed by a tuner or operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigChange {
    /// Which knob.
    pub knob: KnobId,
    /// New value (clamped to the spec and the instance memory cap).
    pub value: f64,
}

/// How a configuration is pushed onto the running process (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyMode {
    /// SIGHUP-style reload: reloadable knobs change live with minimal
    /// jitter; restart-bound knobs are *staged*.
    Reload,
    /// systemd socket activation: the process restarts while the socket
    /// buffers requests — no hard downtime but heavy jitter and a backlog
    /// burst (§4 observes "a lot of jitter and performance degradation").
    SocketActivation,
    /// Full restart: hard downtime, cold cache; applies staged knobs.
    Restart,
}

/// Outcome of an apply.
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Knobs changed live.
    pub applied: Vec<KnobId>,
    /// Restart-bound knobs staged for the next restart-class apply.
    pub deferred: Vec<KnobId>,
    /// Hard downtime incurred, ms.
    pub downtime_ms: u64,
    /// True if the instance memory cap forced values down.
    pub capped_by_instance: bool,
}

/// What a crash cost and what recovery did — returned by
/// [`SimDatabase::crash`] so the control plane can schedule the rejoin.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// WAL bytes replayed: `insert_lsn − redo_lsn` at crash time.
    pub redo_bytes: u64,
    /// Total downtime: base restart cost plus redo replay time. The
    /// instance refuses queries until this has elapsed.
    pub recovery_ms: u64,
    /// Restart-bound knobs that landed because the crash restart applied
    /// the staged set (a crash is a restart, just not a graceful one).
    pub staged_applied: usize,
}

/// Result of submitting queries.
#[derive(Debug, Clone, Copy)]
pub enum SubmitResult {
    /// Executed (possibly partially — see [`ExecOutcome`] and the
    /// `queries_dropped` metric); outcome of a single instance of the batch.
    Done(ExecOutcome),
    /// Buffered by the listening socket during a socket-activation restart.
    Queued,
    /// Dropped: the database is down (restart window).
    Refused,
    /// Dropped: the instance is saturated this tick (capacity model), or
    /// the socket backlog is full during a socket-activation stall.
    Saturated {
        /// Queries shed.
        dropped: u64,
    },
}

/// How long a reload perturbs performance, and by how much.
const RELOAD_JITTER_MS: u64 = 2_000;
const RELOAD_JITTER_FACTOR: f64 = 1.03;
/// Socket-activation stall and post-stall jitter.
const SOCKET_STALL_MS: u64 = 4_000;
const SOCKET_JITTER_MS: u64 = 12_000;
const SOCKET_JITTER_FACTOR: f64 = 1.9;
/// Batches the listening socket buffers during a stall; a full backlog
/// sheds what arrives.
const SOCKET_BACKLOG: usize = 4_096;
/// Hard restart downtime.
const RESTART_DOWNTIME_MS: u64 = 8_000;
/// Floor on crash-recovery downtime: process restart, shared-memory init,
/// control-file read — paid even with an empty redo window.
pub const RECOVERY_BASE_MS: u64 = 2_000;
/// REDO replay bandwidth during crash recovery. Replay is random-read-bound,
/// so it is slower than the streaming replication rate.
pub const REDO_REPLAY_BYTES_PER_MS: u64 = 96 * 1024;

/// The storage engine under the service shell. The flavor decides it:
/// PostgreSQL- and MySQL-style flavors run the page heap, `Lsm` the tree.
///
/// The methods on the tick path are named apart from the engines' own,
/// and the page heap's tick is called by path, so detlint's call graph
/// (which has no type inference) follows each call into the engine
/// rather than back into this file, and R003 walks both engines' ticks.
#[derive(Debug)]
enum Storage {
    /// In-place page heap: background writer, checkpointer and vacuum,
    /// which own its WAL.
    PageHeap(BgWriter),
    /// Memtable + levelled SSTables with compaction write-amplification.
    Lsm(LsmTree),
}

impl Storage {
    fn new(flavor: DbFlavor, profile: &KnobProfile) -> Self {
        match BackendKind::for_flavor(flavor) {
            BackendKind::PageHeap => Storage::PageHeap(BgWriter::new(flavor, 60_000)),
            BackendKind::Lsm => Storage::Lsm(LsmTree::new(profile)),
        }
    }

    fn wal(&self) -> &Wal {
        match self {
            Storage::PageHeap(bg) => bg.wal(),
            Storage::Lsm(tree) => tree.wal(),
        }
    }

    fn checkpoints_done(&self) -> u64 {
        match self {
            Storage::PageHeap(bg) => bg.checkpoints_done(),
            Storage::Lsm(tree) => tree.compactions_done(),
        }
    }

    /// `(write stall, read amplification)` latency factors; the page heap
    /// has neither, and multiplying by an exact `1.0` changes no bit.
    fn query_factors(&self, is_write: bool, knobs: &KnobSet) -> (f64, f64) {
        match self {
            Storage::PageHeap(_) => (1.0, 1.0),
            Storage::Lsm(tree) => tree.latency_factors(is_write, knobs),
        }
    }

    /// An executed batch wrote `bytes` of rows.
    fn absorb_write(&mut self, kind: QueryKind, bytes: f64) {
        match self {
            Storage::PageHeap(bg) => {
                bg.note_wal(bytes * 1.5);
                if matches!(kind, QueryKind::Update | QueryKind::Delete) {
                    bg.note_dead_tuples(bytes);
                }
            }
            Storage::Lsm(tree) => tree.note_write(kind, bytes),
        }
    }

    /// One tick of the background processes while the instance is up.
    #[allow(clippy::too_many_arguments)]
    fn background_tick(
        &mut self,
        now: SimTime,
        dt_ms: u64,
        knobs: &KnobSet,
        roles: &KnobRoles,
        catalog: &Catalog,
        pool: &mut BufferPool,
        disk: &mut DiskSet,
        metrics: &mut Metrics,
    ) {
        match self {
            Storage::PageHeap(bg) => {
                BgWriter::tick(bg, now, dt_ms, knobs, roles, pool, disk, metrics)
            }
            Storage::Lsm(tree) => tree.background(dt_ms, knobs, roles, catalog, disk, metrics),
        }
    }

    /// A graceful (restart-class) shutdown: the LSM tree flushes its
    /// memtable, so only a crash loses it. The page heap models no
    /// shutdown checkpoint.
    fn shutdown(&mut self, disk: &mut DiskSet, metrics: &mut Metrics) {
        if let Storage::Lsm(tree) = self {
            tree.flush_memtable(disk, metrics);
        }
    }

    /// Crash the engine and run its recovery, ending in a durability point;
    /// returns the redo bytes replayed (`insert_lsn − redo_lsn` at the
    /// crash).
    fn crash_recover(&mut self, disk: &mut DiskSet) -> u64 {
        match self {
            Storage::PageHeap(bg) => {
                // The in-flight checkpoint dies with the process; REDO
                // replays from the last completed one, and the
                // end-of-recovery checkpoint makes it durable.
                bg.abort_checkpoint_run();
                let wal = bg.wal_mut();
                let redo_bytes = wal.insert_lsn() - wal.redo_lsn();
                wal.begin_checkpoint();
                wal.complete_checkpoint();
                redo_bytes
            }
            Storage::Lsm(tree) => tree.crash_recover(disk),
        }
    }

    /// True when the engine's next background step writes nothing but the
    /// page heap's statistics drip (see [`SimDatabase::quiet`]). The LSM
    /// tree has no closed form for quiet ticks, so it is never idle.
    fn is_idle(&self) -> bool {
        match self {
            Storage::PageHeap(bg) => bg.is_idle(),
            Storage::Lsm(_) => false,
        }
    }

    fn encode(&self, w: &mut SnapWriter) {
        match self {
            Storage::PageHeap(bg) => bg.encode(w),
            Storage::Lsm(tree) => tree.encode(w),
        }
    }

    fn decode(
        flavor: DbFlavor,
        profile: &KnobProfile,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        Ok(match BackendKind::for_flavor(flavor) {
            BackendKind::PageHeap => Storage::PageHeap(BgWriter::decode(r)?),
            BackendKind::Lsm => Storage::Lsm(LsmTree::decode(profile, r)?),
        })
    }
}

/// One simulated database-service instance.
///
/// # Examples
///
/// ```
/// use autodbaas_simdb::{
///     ApplyMode, Backend, Catalog, ConfigChange, DbFlavor, DiskKind,
///     InstanceType, QueryKind, QueryProfile, SimDatabase, SubmitResult,
/// };
///
/// let catalog = Catalog::synthetic(4, 100_000_000, 150, 1);
/// let mut db = SimDatabase::new(
///     DbFlavor::Postgres, InstanceType::M4Large, DiskKind::Ssd, catalog, 42,
/// );
/// // Serve a query and advance time.
/// let q = QueryProfile::new(QueryKind::PointSelect, 0);
/// assert!(matches!(db.submit(&q, 10), SubmitResult::Done(_)));
/// db.tick(1_000);
/// // Reload a knob live; restart-bound knobs would be staged instead.
/// let wm = db.profile().lookup("work_mem").unwrap();
/// let report = db.apply_config(&[ConfigChange { knob: wm, value: 64e6 }], ApplyMode::Reload);
/// assert_eq!(report.downtime_ms, 0);
/// ```
#[derive(Debug)]
pub struct SimDatabase {
    flavor: DbFlavor,
    instance: InstanceType,
    profile: KnobProfile,
    knobs: KnobSet,
    planner: Planner,
    catalog: Catalog,
    /// The buffer pool; the LSM engine's block cache.
    pool: BufferPool,
    storage: Storage,
    disk: DiskSet,
    metrics: Metrics,
    workers: WorkerPool,
    exec: Executor,
    rng: StdRng,
    now: SimTime,
    // Apply-disruption state.
    jitter_until: SimTime,
    jitter_factor: f64,
    stall_until: SimTime,
    down_until: SimTime,
    backlog: Vec<(QueryProfile, u64)>,
    staged: Vec<ConfigChange>,
    // Capacity model: work-milliseconds available per tick. When the
    // submitted load's total service time exceeds it, the excess is dropped
    // — that is how a badly tuned configuration (spills, wrong plans)
    // translates into *lower completed throughput*, the effect Figs. 12/13
    // measure.
    tick_busy_ms: f64,
    tick_capacity_ms: f64,
    // Observability.
    query_window: QueryWindow,
    active_connections: u32,
}

/// Concurrent backends per vCPU the capacity model assumes.
const CAPACITY_CONCURRENCY: f64 = 3.0;

impl SimDatabase {
    /// Build an instance of `flavor` on `instance` hardware serving
    /// `catalog`, deterministic under `seed`. The flavor picks the storage
    /// engine (see [`BackendKind::for_flavor`]).
    pub fn new(
        flavor: DbFlavor,
        instance: InstanceType,
        disk_kind: DiskKind,
        catalog: Catalog,
        seed: u64,
    ) -> Self {
        let profile = KnobProfile::for_flavor(flavor);
        let mut knobs = profile.defaults();
        enforce_memory_cap(&profile, &mut knobs, instance);
        let planner = Planner::new(profile.clone());
        let pool_bytes = knobs.get(planner.roles().buffer_pool) as u64;
        let pool = BufferPool::new(pool_bytes, DEFAULT_CHUNK_BYTES);
        let exec = Executor::new(&catalog, DEFAULT_CHUNK_BYTES);
        let mut metrics = Metrics::new();
        metrics.set(MetricId::DbSizeBytes, catalog.total_bytes() as f64);
        let storage = Storage::new(flavor, &profile);
        Self {
            flavor,
            instance,
            profile,
            knobs,
            planner,
            catalog,
            pool,
            storage,
            disk: DiskSet::shared(disk_kind),
            metrics,
            workers: WorkerPool::new(instance.vcpus() * 2),
            exec,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            jitter_until: 0,
            jitter_factor: 1.0,
            stall_until: 0,
            down_until: 0,
            backlog: Vec::new(),
            staged: Vec::new(),
            tick_busy_ms: 0.0,
            tick_capacity_ms: instance.vcpus() as f64 * 1_000.0 * CAPACITY_CONCURRENCY,
            query_window: QueryWindow::first(seed),
            active_connections: 16,
        }
    }

    /// Storage-engine family: what decides physics (the flavor decides the
    /// knob vocabulary).
    pub fn kind(&self) -> BackendKind {
        BackendKind::for_flavor(self.flavor)
    }

    /// Cumulative time the LSM engine has spent in write-stall (L0 at or
    /// past `write_stall_l0` while the instance was up); `None` on the page
    /// heap. The write-availability reading the scenario simulator's
    /// compaction-stall oracle judges.
    pub fn write_stalled_ms(&self) -> Option<u64> {
        match &self.storage {
            Storage::PageHeap(_) => None,
            Storage::Lsm(tree) => Some(tree.write_stalled_ms()),
        }
    }

    /// The planner (the TDE re-plans sampled queries through this).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Disk set (latency and IOPS for the monitoring agent).
    pub fn disks(&self) -> &DiskSet {
        &self.disk
    }

    /// Mutable disk set: the bgwriter detector drops the latency samples
    /// it has read.
    pub fn disks_mut(&mut self) -> &mut DiskSet {
        &mut self.disk
    }

    /// Durability log: LSN accounting for replication and crash recovery.
    pub fn wal(&self) -> &Wal {
        self.storage.wal()
    }

    /// Hand over the window of queries executed since the last take and
    /// start a new one sampling at most `capacity` queries from `seed`.
    pub fn take_query_window(&mut self, capacity: usize, seed: u64) -> QueryWindow {
        std::mem::replace(&mut self.query_window, QueryWindow::new(capacity, seed))
    }

    /// Working-set gauge; `reset` starts a new epoch.
    pub fn working_set_bytes(&mut self, reset: bool) -> u64 {
        self.pool.working_set_bytes(reset)
    }

    /// Latency multiplier from memory oversubscription: a configuration
    /// whose §4 budget `A+B+C+D` exceeds the instance cap pushes the OS
    /// into swap — §3.1's reason that "increasing working memory
    /// continuously" forces "decreasing other knobs (to make room)". The
    /// control plane does *not* silently rescale a tuner's recommendation;
    /// a bad recommendation is allowed to hurt, which is what the tuners
    /// must learn (and what corrupted tuners get wrong).
    pub fn swap_factor(&self) -> f64 {
        let budget = self.knobs.memory_budget_used(&self.profile);
        let cap = self.instance.db_mem_cap();
        if budget <= cap {
            1.0
        } else {
            (1.0 + 4.0 * (budget / cap - 1.0)).min(12.0)
        }
    }

    /// Advance the instance by `dt_ms`: background processes run, the disk
    /// settles, gauges update, the per-tick worker pool resets, and any
    /// socket-activation backlog drains.
    pub fn tick(&mut self, dt_ms: u64) {
        self.now += dt_ms;
        self.workers.begin_tick();
        self.tick_busy_ms = 0.0;
        self.tick_capacity_ms = self.instance.vcpus() as f64 * dt_ms as f64 * CAPACITY_CONCURRENCY;
        if self.now >= self.down_until {
            self.storage.background_tick(
                self.now,
                dt_ms,
                &self.knobs,
                self.planner.roles(),
                &self.catalog,
                &mut self.pool,
                &mut self.disk,
                &mut self.metrics,
            );
            // Drain socket backlog once the stall clears — the burst the
            // paper observes after socket-activation restarts.
            if self.now >= self.stall_until && !self.backlog.is_empty() {
                let backlog = std::mem::take(&mut self.backlog);
                for (q, count) in backlog {
                    let _ = self.run_now(&q, count);
                }
            }
        }
        self.disk.tick(self.now, dt_ms);

        // Gauges.
        self.metrics.set(
            MetricId::DiskWriteLatencyMs,
            self.disk.data().current_latency_ms(),
        );
        self.metrics
            .set(MetricId::DiskIops, self.disk.data().current_iops());
        self.metrics
            .set(MetricId::ActiveConnections, self.active_connections as f64);
        self.metrics
            .set(MetricId::DbSizeBytes, self.catalog.total_bytes() as f64);
    }

    /// `ticks` ticks with nothing submitted. A tick that starts *quiet*
    /// (see [`SimDatabase::quiet`]) runs the background processes for the
    /// statistics drip alone and leaves the instance quiet, so after one
    /// ordinary quiet tick every further one changes only the clock, the
    /// drip's byte count and one latency sample per disk (the value the
    /// first tick left). Those are repeated here, the samples appended as
    /// one run per disk; ticks before the instance is quiet — every tick of
    /// an LSM instance — run in full.
    pub fn tick_many(&mut self, ticks: u64, dt_ms: u64) {
        let mut left = ticks;
        while left > 0 && !self.quiet() {
            self.tick(dt_ms);
            left -= 1;
        }
        if left == 0 {
            return;
        }
        self.tick(dt_ms);
        let repeats = left - 1;
        self.disk.repeat_quiet_ticks(
            self.now + dt_ms,
            dt_ms,
            repeats as usize,
            stats_drip_bytes(dt_ms),
        );
        self.now += dt_ms * repeats;
    }

    /// Crash the process now and run WAL crash recovery.
    ///
    /// Models the PostgreSQL/InnoDB/RocksDB recovery sequence: everything
    /// volatile dies with the process (socket backlog, stall/jitter state,
    /// the in-flight checkpoint or compaction, the memtable), REDO replays
    /// from the last durability point at a finite rate — so recovery time
    /// is proportional to un-durable WAL — and the instance comes back with
    /// a cold buffer pool. Staged restart-bound knobs land, exactly as on a
    /// graceful restart.
    pub fn crash(&mut self) -> RecoveryReport {
        // Volatile state dies with the process. The socket backlog was
        // counted as submitted when it queued, so its batches count as
        // dropped.
        let lost: u64 = self.backlog.drain(..).map(|(_, count)| count).sum();
        if lost > 0 {
            self.metrics.inc(MetricId::QueriesDropped, lost as f64);
        }
        self.stall_until = 0;
        self.jitter_until = 0;
        self.jitter_factor = 1.0;

        let redo_bytes = self.storage.crash_recover(&mut self.disk);
        let recovery_ms = RECOVERY_BASE_MS + redo_bytes / REDO_REPLAY_BYTES_PER_MS;

        // The crash restart lands staged restart-bound knobs.
        let staged = std::mem::take(&mut self.staged);
        let staged_applied = staged.len();
        for ch in &staged {
            self.knobs.set(&self.profile, ch.knob, ch.value);
        }

        // Cold start: fresh (possibly resized) buffer pool, fresh workers.
        let pool_bytes = self.knobs.get(self.planner.roles().buffer_pool) as u64;
        self.pool.resize(pool_bytes);
        self.workers.resize(self.instance.vcpus() * 2);

        self.down_until = self.now + recovery_ms;
        RecoveryReport {
            redo_bytes,
            recovery_ms,
            staged_applied,
        }
    }

    /// Degrade performance for `duration_ms` by latency factor `factor`
    /// (≥ 1.0) — the disk-stall / noisy-neighbor fault model. Overlapping
    /// degradations max-merge rather than stack.
    pub fn degrade(&mut self, duration_ms: u64, factor: f64) {
        let until = self.now + duration_ms;
        if self.now < self.jitter_until {
            self.jitter_factor = self.jitter_factor.max(factor.max(1.0));
            self.jitter_until = self.jitter_until.max(until);
        } else {
            self.jitter_factor = factor.max(1.0);
            self.jitter_until = until;
        }
    }

    /// Knob values currently staged for the next restart.
    pub fn staged_changes(&self) -> &[ConfigChange] {
        &self.staged
    }

    /// Direct knob write for test/bench setup (bypasses apply semantics but
    /// keeps clamping and the instance cap).
    pub fn set_knob_direct(&mut self, knob: KnobId, value: f64) {
        self.knobs.set(&self.profile, knob, value);
        if self.profile.spec(knob).restart_required {
            let pool_bytes = self.knobs.get(self.planner.roles().buffer_pool) as u64;
            self.pool.resize(pool_bytes);
        }
    }

    /// Switch to the split WAL/stats disk layout (§3.2's attribution
    /// workaround). Loses no data; takes effect immediately.
    pub fn use_split_disks(&mut self) {
        self.disk = DiskSet::split(self.disk.data().kind());
    }

    fn run_now(&mut self, q: &QueryProfile, count: u64) -> Option<ExecOutcome> {
        let plan = self.planner.plan(q, &self.knobs, &self.catalog);
        let is_write = q.rows_written > 0;
        let swap = self.swap_factor();
        let (stall, amp) = self.storage.query_factors(is_write, &self.knobs);

        // Capacity admission: estimate per-query service time from the
        // plan and the pool's running hit ratio, shed what doesn't fit.
        let est_latency_ms = (crate::executor::BASE_QUERY_OVERHEAD_MS
            + (self
                .planner
                .true_cost(q, &plan, self.pool.hit_ratio(), &self.catalog)
                * 0.02)
                .max(0.0))
            * swap
            * stall
            * amp;
        let remaining = (self.tick_capacity_ms - self.tick_busy_ms).max(0.0);
        // Work-conserving: while any budget remains, at least one instance
        // runs (a long analytic query overdraws the tick, like a backend
        // spanning scheduler quanta).
        let affordable = if remaining <= 0.0 {
            0
        } else {
            ((remaining / est_latency_ms) as u64).max(1)
        };
        let exec_count = count.min(affordable);
        let dropped = count - exec_count;
        if dropped > 0 {
            self.metrics.inc(MetricId::QueriesDropped, dropped as f64);
        }
        if exec_count == 0 {
            return None;
        }

        let mut outcome = self.exec.execute(
            q,
            &plan,
            exec_count,
            &self.planner,
            &self.catalog,
            &mut self.pool,
            &mut self.disk,
            &mut self.workers,
            &mut self.metrics,
            &mut self.rng,
        );
        outcome.latency_ms *= swap * stall * amp;
        if self.now < self.jitter_until {
            outcome.latency_ms *= self.jitter_factor;
        }
        self.tick_busy_ms += outcome.latency_ms * exec_count as f64;
        if is_write {
            let row_bytes = self.catalog.table(q.table).row_bytes as u64;
            let bytes = (q.rows_written * row_bytes * exec_count) as f64;
            self.storage.absorb_write(q.kind, bytes);
        }
        self.query_window.push(q);
        Some(outcome)
    }

    /// Whether a tick from here is quiet: the instance is up, no socket
    /// backlog waits, the pool holds no dirty page, the storage engine is
    /// idle (a page heap with no checkpoint flushing and no dead tuples for
    /// vacuum) and no IO is queued on either disk. Each term is one the
    /// tick's code branches on; a quiet tick leaves the instance quiet.
    fn quiet(&self) -> bool {
        self.now >= self.down_until
            && self.backlog.is_empty()
            && self.pool.dirty_count() == 0
            && self.storage.is_idle()
            && self.disk.is_idle()
    }
}

impl Backend for SimDatabase {
    fn flavor(&self) -> DbFlavor {
        self.flavor
    }
    fn instance(&self) -> InstanceType {
        self.instance
    }
    fn profile(&self) -> &KnobProfile {
        &self.profile
    }
    fn knobs(&self) -> &KnobSet {
        &self.knobs
    }
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
    fn checkpoints_done(&self) -> u64 {
        self.storage.checkpoints_done()
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn is_down(&self) -> bool {
        self.now < self.down_until
    }
    fn plan(&self, q: &QueryProfile) -> Plan {
        self.planner.plan(q, &self.knobs, &self.catalog)
    }
    fn submit(&mut self, q: &QueryProfile, count: u64) -> SubmitResult {
        if self.now < self.down_until {
            return SubmitResult::Refused;
        }
        if self.now < self.stall_until {
            // Socket holds the connection; request executes after restart.
            if self.backlog.len() < SOCKET_BACKLOG {
                self.backlog.push((q.clone(), count));
                return SubmitResult::Queued;
            }
            self.metrics.inc(MetricId::QueriesDropped, count as f64);
            return SubmitResult::Saturated { dropped: count };
        }
        match self.run_now(q, count) {
            Some(outcome) => SubmitResult::Done(outcome),
            None => SubmitResult::Saturated { dropped: count },
        }
    }
    fn apply_config(&mut self, changes: &[ConfigChange], mode: ApplyMode) -> ApplyReport {
        let mut applied = Vec::new();
        let mut deferred = Vec::new();
        let restart_class = matches!(mode, ApplyMode::Restart | ApplyMode::SocketActivation);

        // A restart-class apply also lands previously staged knobs.
        let staged = if restart_class {
            std::mem::take(&mut self.staged)
        } else {
            Vec::new()
        };
        for ch in staged.iter().chain(changes) {
            let spec = self.profile.spec(ch.knob);
            if spec.restart_required && !restart_class {
                // Keep only the latest staged value per knob.
                self.staged.retain(|s| s.knob != ch.knob);
                self.staged.push(*ch);
                deferred.push(ch.knob);
                continue;
            }
            self.knobs.set(&self.profile, ch.knob, ch.value);
            applied.push(ch.knob);
        }
        // The recommendation lands as-is; oversubscription shows up as a
        // swap penalty (see `swap_factor`), not a silent rescale.
        let capped = self.knobs.memory_budget_used(&self.profile) > self.instance.db_mem_cap();

        // Structural effects of restart-bound knobs.
        if restart_class {
            self.storage.shutdown(&mut self.disk, &mut self.metrics);
            let pool_bytes = self.knobs.get(self.planner.roles().buffer_pool) as u64;
            self.pool.resize(pool_bytes);
            self.workers.resize(self.instance.vcpus() * 2);
        }

        let downtime_ms = match mode {
            ApplyMode::Reload => {
                self.jitter_until = self.now + RELOAD_JITTER_MS;
                self.jitter_factor = RELOAD_JITTER_FACTOR;
                0
            }
            ApplyMode::SocketActivation => {
                self.stall_until = self.now + SOCKET_STALL_MS;
                self.jitter_until = self.now + SOCKET_STALL_MS + SOCKET_JITTER_MS;
                self.jitter_factor = SOCKET_JITTER_FACTOR;
                0
            }
            ApplyMode::Restart => {
                self.down_until = self.now + RESTART_DOWNTIME_MS;
                RESTART_DOWNTIME_MS
            }
        };
        ApplyReport {
            applied,
            deferred,
            downtime_ms,
            capped_by_instance: capped,
        }
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(ConfigChange { knob, value });

/// The knob profile, planner and executor are pure functions of
/// `(flavor, catalog)`, so decode rebuilds them instead of persisting the
/// spec tables; the flavor comes first because it also decides how the
/// storage engine decodes. Everything observable — RNG position included —
/// is persisted exactly.
impl Snap for SimDatabase {
    fn encode(&self, w: &mut SnapWriter) {
        self.flavor.encode(w);
        self.instance.encode(w);
        self.knobs.encode(w);
        self.catalog.encode(w);
        self.pool.encode(w);
        self.storage.encode(w);
        self.disk.encode(w);
        self.metrics.encode(w);
        self.workers.encode(w);
        self.rng.encode(w);
        self.now.encode(w);
        self.jitter_until.encode(w);
        self.jitter_factor.encode(w);
        self.stall_until.encode(w);
        self.down_until.encode(w);
        self.backlog.encode(w);
        self.staged.encode(w);
        self.tick_busy_ms.encode(w);
        self.tick_capacity_ms.encode(w);
        self.query_window.encode(w);
        self.active_connections.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let flavor = DbFlavor::decode(r)?;
        let instance = InstanceType::decode(r)?;
        let knobs = KnobSet::decode(r)?;
        let catalog = Catalog::decode(r)?;
        let profile = KnobProfile::for_flavor(flavor);
        let planner = Planner::new(profile.clone());
        let exec = Executor::new(&catalog, DEFAULT_CHUNK_BYTES);
        let pool = Snap::decode(r)?;
        let storage = Storage::decode(flavor, &profile, r)?;
        Ok(Self {
            flavor,
            instance,
            profile,
            knobs,
            planner,
            catalog,
            pool,
            storage,
            disk: Snap::decode(r)?,
            metrics: Snap::decode(r)?,
            workers: Snap::decode(r)?,
            exec,
            rng: Snap::decode(r)?,
            now: Snap::decode(r)?,
            jitter_until: Snap::decode(r)?,
            jitter_factor: Snap::decode(r)?,
            stall_until: Snap::decode(r)?,
            down_until: Snap::decode(r)?,
            backlog: Snap::decode(r)?,
            staged: Snap::decode(r)?,
            tick_busy_ms: Snap::decode(r)?,
            tick_capacity_ms: Snap::decode(r)?,
            query_window: Snap::decode(r)?,
            active_connections: Snap::decode(r)?,
        })
    }
}

#[cfg(test)]
impl SimDatabase {
    /// The LSM tree of an LSM instance, for the engine's unit tests.
    pub(crate) fn lsm(&self) -> &LsmTree {
        match &self.storage {
            Storage::Lsm(tree) => tree,
            Storage::PageHeap(_) => panic!("{} is a page-heap instance", self.flavor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    fn db() -> SimDatabase {
        let catalog = Catalog::synthetic(10, 500_000_000, 120, 2);
        SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            99,
        )
    }

    fn point_query() -> QueryProfile {
        let mut q = QueryProfile::new(QueryKind::PointSelect, 0);
        q.rows_examined = 10;
        q
    }

    #[test]
    fn submit_and_tick_basic_flow() {
        let mut d = db();
        for _ in 0..10 {
            assert!(matches!(
                d.submit(&point_query(), 100),
                SubmitResult::Done(_)
            ));
            d.tick(1_000);
        }
        assert!(d.metrics().get(MetricId::QueriesExecuted) >= 1_000.0);
    }

    #[test]
    fn reload_applies_reloadable_and_stages_restart_knobs() {
        let mut d = db();
        let p = d.profile().clone();
        let work_mem = p.lookup("work_mem").unwrap();
        let shared = p.lookup("shared_buffers").unwrap();
        let report = d.apply_config(
            &[
                ConfigChange {
                    knob: work_mem,
                    value: 64.0 * MIB,
                },
                ConfigChange {
                    knob: shared,
                    value: 512.0 * MIB,
                },
            ],
            ApplyMode::Reload,
        );
        assert_eq!(report.applied, vec![work_mem]);
        assert_eq!(report.deferred, vec![shared]);
        assert_eq!(report.downtime_ms, 0);
        assert_eq!(d.knobs().get(work_mem), 64.0 * MIB);
        assert_ne!(d.knobs().get(shared), 512.0 * MIB);
        assert_eq!(d.staged_changes().len(), 1);
    }

    #[test]
    fn restart_lands_staged_knobs_and_costs_downtime() {
        let mut d = db();
        let p = d.profile().clone();
        let shared = p.lookup("shared_buffers").unwrap();
        d.apply_config(
            &[ConfigChange {
                knob: shared,
                value: 512.0 * MIB,
            }],
            ApplyMode::Reload,
        );
        let report = d.apply_config(&[], ApplyMode::Restart);
        assert!(report.applied.contains(&shared));
        assert!(report.downtime_ms > 0);
        assert_eq!(d.knobs().get(shared), 512.0 * MIB);
        // During downtime, queries are refused.
        assert!(matches!(d.submit(&point_query(), 1), SubmitResult::Refused));
        // After downtime passes, service resumes.
        for _ in 0..20 {
            d.tick(1_000);
        }
        assert!(matches!(d.submit(&point_query(), 1), SubmitResult::Done(_)));
    }

    #[test]
    fn oversubscribed_memory_swaps_instead_of_silently_rescaling() {
        let catalog = Catalog::synthetic(4, 100_000_000, 120, 1);
        let mut d = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::T2Small,
            DiskKind::Ssd,
            catalog,
            3,
        );
        let p = d.profile().clone();
        let work_mem = p.lookup("work_mem").unwrap();
        assert!(
            (d.swap_factor() - 1.0).abs() < 1e-9,
            "defaults must not swap"
        );

        // 4 GiB of work_mem on a 2 GiB instance busts the A+B+C+D budget:
        // the value lands (no silent rescale) and the instance thrashes.
        let report = d.apply_config(
            &[ConfigChange {
                knob: work_mem,
                value: 4.0 * 1024.0 * MIB,
            }],
            ApplyMode::Reload,
        );
        assert!(report.capped_by_instance, "oversubscription is reported");
        assert_eq!(
            d.knobs().get(work_mem),
            4.0 * 1024.0 * MIB,
            "no silent rescale"
        );
        assert!(d.swap_factor() > 2.0, "swap factor {}", d.swap_factor());

        // And queries genuinely slow down.
        let fast = {
            let mut clean = SimDatabase::new(
                DbFlavor::Postgres,
                InstanceType::T2Small,
                DiskKind::Ssd,
                Catalog::synthetic(4, 100_000_000, 120, 1),
                3,
            );
            match clean.submit(&point_query(), 1) {
                SubmitResult::Done(o) => o.latency_ms,
                _ => panic!(),
            }
        };
        let slow = match d.submit(&point_query(), 1) {
            SubmitResult::Done(o) => o.latency_ms,
            _ => panic!(),
        };
        assert!(
            slow > fast * 2.0,
            "swapping must hurt ({slow:.2} vs {fast:.2} ms)"
        );
    }

    #[test]
    fn take_query_window_hands_over_the_window_and_starts_a_new_one() {
        let mut d = db();
        let mut q = QueryProfile::new(QueryKind::OrderBy, 0);
        q.rows_examined = 10_000;
        q.sort_bytes = 512 * 1024 * 1024;
        d.submit(&q, 1);
        let w = d.take_query_window(8, 1);
        assert_eq!(w.seen(), 1);
        assert_eq!(w.sample(), [q]);
        assert_eq!(w.counts()[crate::QueryClass::WorkMem.index()], 1);
        assert_eq!(d.take_query_window(8, 2).seen(), 0);
    }

    #[test]
    fn plan_is_side_effect_free() {
        let d = db();
        let before = d.metrics_snapshot();
        let _ = d.plan(&point_query());
        assert_eq!(d.metrics_snapshot(), before);
    }

    #[test]
    fn executed_queries_track_offered_load_changes() {
        let mut d = db();
        let q = point_query();
        let executed = |d: &SimDatabase| d.metrics().get(MetricId::QueriesExecuted);
        for _ in 0..10 {
            d.submit(&q, 500);
            d.tick(1_000);
        }
        let high = executed(&d);
        for _ in 0..10 {
            d.submit(&q, 50);
            d.tick(1_000);
        }
        let low = executed(&d) - high;
        assert!(
            high > low * 3.0,
            "throughput must reflect the load drop ({high:.0} vs {low:.0} queries per 10 s)"
        );
    }

    #[test]
    fn crash_recovery_time_scales_with_uncheckpointed_wal() {
        let mut cold = db();
        let quick = cold.crash();
        assert_eq!(quick.redo_bytes, 0, "no writes, empty redo window");
        assert_eq!(quick.recovery_ms, RECOVERY_BASE_MS);

        let mut busy = db();
        let Storage::PageHeap(bg) = &mut busy.storage else {
            unreachable!("a Postgres instance runs the page heap")
        };
        bg.note_wal(96.0 * 1024.0 * 10_000.0); // 10 s of replay
        let slow = busy.crash();
        assert_eq!(slow.recovery_ms, RECOVERY_BASE_MS + 10_000);
        assert!(busy.is_down());
        assert!(matches!(
            busy.submit(&point_query(), 1),
            SubmitResult::Refused
        ));
        // Recovery checkpointed the replayed WAL: a second immediate crash
        // has an empty redo window again.
        assert_eq!(busy.wal().bytes_since_checkpoint(), 0);
        for _ in 0..15 {
            busy.tick(1_000);
        }
        assert!(!busy.is_down());
        assert!(matches!(
            busy.submit(&point_query(), 1),
            SubmitResult::Done(_)
        ));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_under_further_load() {
        let mut d = db();
        let q = point_query();
        let mut wq = QueryProfile::new(QueryKind::Update, 1);
        wq.rows_examined = 100;
        wq.rows_written = 100;
        for _ in 0..20 {
            d.submit(&q, 50);
            d.submit(&wq, 5);
            d.tick(500);
        }
        let bytes = autodbaas_snapshot::encode_to_vec(&d);
        let mut restored: SimDatabase = autodbaas_snapshot::decode_from_slice(&bytes)
            .expect("snapshot of a live engine decodes");
        // Restored state re-encodes byte-identically (canonical form).
        assert_eq!(autodbaas_snapshot::encode_to_vec(&restored), bytes);
        // Both timelines continue identically: same outcomes, same RNG
        // stream, same metrics, and byte-identical state afterwards.
        for i in 0..20 {
            let a = format!("{:?}", d.submit(&q, 30 + i));
            let b = format!("{:?}", restored.submit(&q, 30 + i));
            assert_eq!(a, b, "divergence at step {i}");
            d.submit(&wq, 3);
            restored.submit(&wq, 3);
            d.tick(500);
            restored.tick(500);
        }
        assert_eq!(d.metrics_snapshot(), restored.metrics_snapshot());
        assert_eq!(
            autodbaas_snapshot::encode_to_vec(&d),
            autodbaas_snapshot::encode_to_vec(&restored)
        );
    }

    #[test]
    fn hostile_catalog_restores_to_a_typed_error() {
        use autodbaas_snapshot::{encode_to_vec, SnapError};
        let d = db();
        let mut bytes = encode_to_vec(&d);
        // The catalog follows flavor, instance and knobs; table 0's `rows`
        // follows the table count, its id and its length-prefixed name.
        let catalog_at = encode_to_vec(&d.flavor).len()
            + encode_to_vec(&d.instance).len()
            + encode_to_vec(&d.knobs).len();
        let rows_at = catalog_at + 8 + 4 + 8 + d.catalog.table(0).name.len();
        assert_eq!(
            bytes[rows_at..rows_at + 8],
            d.catalog.table(0).rows.to_le_bytes(),
            "offset must land on table 0's row count"
        );
        // One edited high byte: `rows * row_bytes` no longer fits in u64.
        bytes[rows_at + 7] = 0xff;
        let restored = autodbaas_snapshot::decode_from_slice::<SimDatabase>(&bytes);
        assert_eq!(
            restored.err(),
            Some(SnapError::Malformed("table size")),
            "a hostile catalog must restore to a typed error"
        );
    }

    #[test]
    fn split_disk_mode_reroutes_wal() {
        let mut d = db();
        d.use_split_disks();
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = 10;
        d.submit(&q, 100);
        d.tick(1_000);
        assert_eq!(
            d.disks().data().written_by(crate::disk::WriteSource::Wal),
            0.0
        );
        assert!(
            d.disks()
                .aux()
                .unwrap()
                .written_by(crate::disk::WriteSource::Wal)
                > 0.0
        );
    }

    /// A starting state for the `tick_many` property, built through the
    /// backend surface so every flavour gets one.
    type Recipe = fn(&mut SimDatabase);

    /// Forty writes of `kind` across the four tables, each touching a
    /// skewed-random chunk.
    fn submit_writes(db: &mut SimDatabase, kind: QueryKind) {
        for i in 0..40 {
            let mut q = QueryProfile::new(kind, i % 4);
            q.rows_examined = 10;
            q.rows_written = 20;
            db.submit(&q, 5);
        }
    }

    fn set_role(db: &mut SimDatabase, role: fn(&KnobRoles) -> KnobId, value: f64) {
        let knob = role(db.planner().roles());
        db.set_knob_direct(knob, value);
    }

    /// The starting states, each with the quiet terms it breaks on the
    /// page heap (so dropping any one term from `quiet` fails on some
    /// state).
    fn tick_many_states() -> Vec<(&'static str, Recipe, &'static [&'static str])> {
        vec![
            ("fresh", |_| {}, &[]),
            (
                "reads queued on the disk",
                |db| {
                    db.submit(&point_query(), 50);
                },
                &["pending_io"],
            ),
            (
                "WAL queued, no page dirtied",
                |db| {
                    // Cache the smallest table whole, then log from a read
                    // of it that dirties no page (a locking read): on the
                    // split layout only the log disk has IO queued.
                    let mut q = QueryProfile::new(QueryKind::PointSelect, 3);
                    q.rows_examined = db.catalog().table(3).rows;
                    db.submit(&q, 1);
                    db.tick(1_000);
                    q.rows_examined = 1;
                    q.rows_written = 20;
                    db.submit(&q, 50);
                },
                &["pending_io"],
            ),
            (
                "reads served in a quarter-second tick",
                |db| {
                    db.submit(&point_query(), 50);
                    db.tick(250);
                },
                &[],
            ),
            (
                "dirty pages",
                |db| {
                    set_role(db, |r| r.bg_clean_rate, 0.0);
                    submit_writes(db, QueryKind::Insert);
                    db.tick(1_000);
                },
                &["dirty"],
            ),
            (
                "checkpoint flushing a clean pool",
                |db| {
                    set_role(db, |r| r.bg_clean_rate, 0.0);
                    set_role(db, |r| r.checkpoint_interval, 0.0);
                    set_role(db, |r| r.checkpoint_spread, 0.95);
                    // A small pool, so the dirty-fraction trigger fires.
                    set_role(db, |r| r.buffer_pool, 0.0);
                    set_role(db, |r| r.wal_trigger, f64::MAX);
                    let started = |db: &SimDatabase| {
                        db.metrics().get(MetricId::CheckpointsTimed)
                            + db.metrics().get(MetricId::CheckpointsReq)
                            > 0.0
                    };
                    submit_writes(db, QueryKind::Insert);
                    // The checkpoint timeout's floor is 30 s; the LSM
                    // engine may never start one here.
                    for _ in 0..40 {
                        if started(db) {
                            break;
                        }
                        db.tick(1_000);
                    }
                    set_role(db, |r| r.bg_clean_rate, f64::MAX);
                    db.tick(1_000);
                },
                &["checkpoint"],
            ),
            (
                "dead tuples pending vacuum",
                |db| {
                    set_role(db, |r| r.bg_clean_rate, f64::MAX);
                    set_role(db, |r| r.checkpoint_interval, f64::MAX);
                    set_role(db, |r| r.wal_trigger, f64::MAX);
                    submit_writes(db, QueryKind::Update);
                    for _ in 0..3 {
                        db.tick(1_000);
                    }
                },
                &["dead_tuples"],
            ),
            (
                "restart downtime",
                |db| {
                    db.apply_config(&[], ApplyMode::Restart);
                },
                &["down"],
            ),
            (
                "socket-activation stall with a backlog",
                |db| {
                    db.apply_config(&[], ApplyMode::SocketActivation);
                    db.submit(&point_query(), 50);
                },
                &["backlog"],
            ),
        ]
    }

    /// The terms of `SimDatabase::quiet` that `db` breaks, by name.
    fn broken_quiet_terms(db: &SimDatabase) -> Vec<&'static str> {
        let mut out = Vec::new();
        if db.now < db.down_until {
            out.push("down");
        }
        if !db.backlog.is_empty() {
            out.push("backlog");
        }
        if db.pool.dirty_count() > 0 {
            out.push("dirty");
        }
        let Storage::PageHeap(bg) = &db.storage else {
            unreachable!("the quiet terms are the page heap's")
        };
        if bg.checkpoint_in_progress() {
            out.push("checkpoint");
        } else if !bg.is_idle() {
            out.push("dead_tuples");
        }
        if !db.disk.is_idle() {
            out.push("pending_io");
        }
        out
    }

    /// `tick_many(k, dt)` leaves every backend byte-for-byte where `k`
    /// calls of `tick(dt)` do, from every starting state, for tick lengths
    /// below, at and above one second (1 ms drips a non-integer 2.048 B)
    /// and run lengths around a TDE window; from the quiet page-heap
    /// states, also for runs around the latency ring's capacity, which the
    /// closed form appends in one call.
    #[test]
    fn tick_many_is_byte_identical_to_ticking_one_by_one() {
        use autodbaas_snapshot::{decode_from_slice, encode_to_vec};
        let catalog = Catalog::synthetic(4, 8_000_000, 150, 3);
        let mut checked = 0;
        for flavor in [DbFlavor::Postgres, DbFlavor::MySql, DbFlavor::Lsm] {
            for split in [false, true] {
                for (name, recipe, broken) in tick_many_states() {
                    let mut db = SimDatabase::new(
                        flavor,
                        InstanceType::M4Large,
                        DiskKind::Ssd,
                        catalog.clone(),
                        7,
                    );
                    if split {
                        db.use_split_disks();
                    }
                    recipe(&mut db);
                    if db.kind() == BackendKind::PageHeap {
                        assert_eq!(
                            broken_quiet_terms(&db),
                            broken.to_vec(),
                            "{flavor:?} split={split} {name}: the state breaks other terms"
                        );
                        assert_eq!(db.quiet(), broken.is_empty());
                    }
                    let start = encode_to_vec(&db);
                    let closed_form = db.kind() == BackendKind::PageHeap && broken.is_empty();
                    let ring_runs: &[u64] = if closed_form {
                        &[16_383, 16_384, 16_385]
                    } else {
                        &[]
                    };
                    for dt in [1, 250, 1_000, 1_500] {
                        for &k in [0, 1, 2, 59, 60, 61].iter().chain(ring_runs) {
                            let mut many: SimDatabase = decode_from_slice(&start).unwrap();
                            let mut one: SimDatabase = decode_from_slice(&start).unwrap();
                            many.tick_many(k, dt);
                            for _ in 0..k {
                                one.tick(dt);
                            }
                            assert!(
                                encode_to_vec(&many) == encode_to_vec(&one),
                                "{flavor:?} split={split} {name}: tick_many({k}, {dt}) diverged"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        // Two flavours' two quiet states on both layouts add three runs
        // per tick length.
        assert_eq!(checked, 3 * 2 * 9 * 4 * 6 + 2 * 2 * 2 * 4 * 3);
    }
}
