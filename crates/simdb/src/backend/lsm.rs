//! `LsmDatabase`: the LSM/embedded-style adapter behind [`Backend`].
//!
//! A genuinely different engine family from the page heap, not a reskin:
//!
//! * Writes land in a **memtable**; when it fills (the `memtable_bytes`
//!   knob), it flushes as one sequential burst into an **L0 SSTable**.
//!   The WAL is truncated at each flush, so the crash-recovery window is
//!   "WAL since last flush" — the same law as "WAL since last checkpoint"
//!   on the page heap, with a different physical driver.
//! * Accumulated L0 files trigger **levelled compaction**: the engine
//!   rewrites the L0 input (times a write-amplification factor that grows
//!   as `level_fanout` shrinks) spread over a window shaped by
//!   `compaction_spread` and `compaction_parallelism`. Compaction I/O is
//!   attributed to [`WriteSource::Checkpoint`] — it *is* this engine's
//!   periodic write burst, and the TDE's bgwriter detector reads its
//!   cadence through the same `checkpoints_done()` counter and
//!   disk-latency peaks it uses on the page heap.
//! * When L0 piles past `write_stall_l0`, writes **stall** — the
//!   RocksDB-style back-pressure cliff. Stalls surface as write-latency
//!   inflation and shed throughput: the observable vocabulary the fleet
//!   oracles already speak.
//! * Point reads probe every L0 file a bloom filter fails to exclude, so
//!   low `bloom_bits_per_key` plus a deep L0 inflates read latency — the
//!   read-amplification signal the tuner can trade against write-amp.
//!
//! Everything workload-shaped is reused from the shared substrate: the
//! [`Planner`] (so sort/hash spills produce the same TDE findings), the
//! [`Executor`], a [`BufferPool`] serving as block cache, the M/M/1
//! [`DiskSet`], [`Wal`] and [`Metrics`]. Same physics, different engine
//! on top — which is exactly the claim the fig. 17 bench tests.

use super::Backend;
use crate::bufferpool::{BufferPool, DEFAULT_CHUNK_BYTES};
use crate::catalog::{Catalog, PAGE_BYTES};
use crate::disk::{DiskSet, WriteSource};
use crate::engine::{
    ApplyMode, ApplyReport, ConfigChange, RecoveryReport, SubmitResult, RECOVERY_BASE_MS,
    REDO_REPLAY_BYTES_PER_MS,
};
use crate::executor::{ExecOutcome, Executor, WorkerPool};
use crate::instance::{enforce_memory_cap, DiskKind, InstanceType};
use crate::knobs::{DbFlavor, KnobId, KnobProfile, KnobSet};
use crate::metrics::{MetricId, Metrics, MetricsSnapshot};
use crate::planner::{Plan, Planner};
use crate::query::{QueryKind, QueryProfile};
use crate::query_window::QueryWindow;
use crate::wal::Wal;
use autodbaas_telemetry::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Same apply-disruption constants as the page heap: the §4 semantics are
/// a property of the *service manager*, not the engine.
const RELOAD_JITTER_MS: u64 = 2_000;
const RELOAD_JITTER_FACTOR: f64 = 1.03;
const SOCKET_STALL_MS: u64 = 4_000;
const SOCKET_JITTER_MS: u64 = 12_000;
const SOCKET_JITTER_FACTOR: f64 = 1.9;
const RESTART_DOWNTIME_MS: u64 = 8_000;
const CAPACITY_CONCURRENCY: f64 = 3.0;

/// Base compaction window at `compaction_spread = 1.0`, divided by the
/// effective parallelism. Shorter window = burstier disk peaks.
const COMPACTION_WINDOW_BASE_MS: f64 = 24_000.0;

/// One in-flight compaction: `remaining` bytes to rewrite at `per_ms`,
/// with sub-milli `carry` so slow drips don't round to zero.
#[derive(Debug)]
struct CompactionRun {
    remaining: f64,
    per_ms: f64,
    carry: f64,
}

/// One simulated LSM-engine instance.
#[derive(Debug)]
pub struct LsmDatabase {
    instance: InstanceType,
    profile: KnobProfile,
    knobs: KnobSet,
    planner: Planner,
    catalog: Catalog,
    /// Block cache (the restart-bound `block_cache_bytes` knob).
    cache: BufferPool,
    disk: DiskSet,
    wal: Wal,
    metrics: Metrics,
    workers: WorkerPool,
    exec: Executor,
    rng: StdRng,
    now: SimTime,
    // LSM state.
    memtable_fill: f64,
    l0_files: u64,
    l0_bytes: f64,
    dead_bytes: f64,
    compaction: Option<CompactionRun>,
    compactions_done: u64,
    flushes_done: u64,
    write_stalled_ms: u64,
    // Cached knob ids outside the shared role set.
    k_fanout: KnobId,
    k_stall: KnobId,
    k_bloom: KnobId,
    k_threads: KnobId,
    // Apply-disruption state (same shape as the page heap).
    jitter_until: SimTime,
    jitter_factor: f64,
    stall_until: SimTime,
    down_until: SimTime,
    backlog: Vec<(QueryProfile, u64)>,
    staged: Vec<ConfigChange>,
    tick_busy_ms: f64,
    tick_capacity_ms: f64,
    // Observability.
    query_window: QueryWindow,
    active_connections: u32,
}

impl LsmDatabase {
    /// Build an LSM instance on `instance` hardware serving `catalog`,
    /// deterministic under `seed`.
    pub fn new(instance: InstanceType, disk_kind: DiskKind, catalog: Catalog, seed: u64) -> Self {
        let profile = KnobProfile::lsm();
        let mut knobs = profile.defaults();
        enforce_memory_cap(&profile, &mut knobs, instance);
        let planner = Planner::new(profile.clone());
        let cache_bytes = knobs.get(planner.roles().buffer_pool) as u64;
        let cache = BufferPool::new(cache_bytes, DEFAULT_CHUNK_BYTES);
        let exec = Executor::new(&catalog, DEFAULT_CHUNK_BYTES);
        let mut metrics = Metrics::new();
        metrics.set(MetricId::DbSizeBytes, catalog.total_bytes() as f64);
        let role = |name: &str| {
            profile
                .lookup(name)
                // detlint-allow: R003 the built-in LSM profile always carries its own role knobs; failing at construction is the contract, as in KnobRoles::resolve
                .unwrap_or_else(|| panic!("lsm profile lacks knob {name}"))
        };
        let k_fanout = role("level_fanout");
        let k_stall = role("write_stall_l0");
        let k_bloom = role("bloom_bits_per_key");
        let k_threads = role("background_threads");
        Self {
            instance,
            profile,
            knobs,
            planner,
            catalog,
            cache,
            disk: DiskSet::shared(disk_kind),
            wal: Wal::new(),
            metrics,
            workers: WorkerPool::new(instance.vcpus() * 2),
            exec,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            memtable_fill: 0.0,
            l0_files: 0,
            l0_bytes: 0.0,
            dead_bytes: 0.0,
            compaction: None,
            compactions_done: 0,
            flushes_done: 0,
            write_stalled_ms: 0,
            k_fanout,
            k_stall,
            k_bloom,
            k_threads,
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

    /// SSTable files currently in level 0.
    pub fn l0_files(&self) -> u64 {
        self.l0_files
    }

    /// Memtable flushes completed.
    pub fn flushes_done(&self) -> u64 {
        self.flushes_done
    }

    /// Compactions completed (surfaced as `checkpoints_done` through the
    /// trait — this engine's write-burst cycle).
    pub fn compactions_done(&self) -> u64 {
        self.compactions_done
    }

    /// True while a compaction is rewriting data.
    pub fn compaction_active(&self) -> bool {
        self.compaction.is_some()
    }

    /// Cumulative time the engine has spent in write-stall (L0 at or past
    /// `write_stall_l0` while the instance was up). The write-availability
    /// reading the scenario simulator's compaction-stall oracle judges.
    pub fn write_stalled_ms(&self) -> u64 {
        self.write_stalled_ms
    }

    /// Current memtable fill, bytes.
    pub fn memtable_fill(&self) -> f64 {
        self.memtable_fill
    }

    /// Write-stall multiplier from L0 back-pressure: past `write_stall_l0`
    /// files, every additional file steepens the cliff (capped — RocksDB
    /// stalls, it does not halt).
    pub fn write_stall_factor(&self) -> f64 {
        let stall_at = self.knobs.get(self.k_stall).max(1.0);
        let l0 = self.l0_files as f64;
        if l0 < stall_at {
            1.0
        } else {
            (1.0 + 0.75 * (l0 - stall_at + 1.0)).min(8.0)
        }
    }

    /// Read-amplification multiplier: each L0 file a bloom probe fails to
    /// exclude costs an extra SSTable touch. `fp ≈ 0.6185^bits` is the
    /// standard bloom false-positive curve at optimal hash count.
    pub fn read_amp_factor(&self) -> f64 {
        let bits = self.knobs.get(self.k_bloom).max(0.0);
        let fp = 0.6185_f64.powf(bits);
        1.0 + self.l0_files as f64 * fp * 0.35
    }

    fn run_now(&mut self, q: &QueryProfile, count: u64) -> Option<ExecOutcome> {
        let plan = self.planner.plan(q, &self.knobs, &self.catalog);
        let is_write = q.rows_written > 0;
        let swap = self.swap_factor();
        let stall = if is_write {
            self.write_stall_factor()
        } else {
            1.0
        };
        let amp = if is_write {
            1.0
        } else {
            self.read_amp_factor()
        };

        // Capacity admission, identical in shape to the page heap: a
        // stalled write really does occupy a backend slot for longer, so
        // stalls shed throughput as well as inflating latency.
        let est_latency_ms = (crate::executor::BASE_QUERY_OVERHEAD_MS
            + (self
                .planner
                .true_cost(q, &plan, self.cache.hit_ratio(), &self.catalog)
                * 0.02)
                .max(0.0))
            * swap
            * stall
            * amp;
        let remaining = (self.tick_capacity_ms - self.tick_busy_ms).max(0.0);
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
            &mut self.cache,
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

        // Write path: WAL append + memtable accounting (the executor has
        // already charged the physical WAL write to the disk model).
        if is_write {
            let row_bytes = self.catalog.table(q.table).row_bytes as u64;
            let bytes = (q.rows_written * row_bytes * exec_count) as f64;
            self.wal.append((bytes * 1.5) as u64);
            self.memtable_fill += bytes;
            if matches!(q.kind, QueryKind::Update | QueryKind::Delete) {
                // Overwrites and deletes are tombstones until a compaction
                // garbage-collects them.
                self.dead_bytes += bytes;
            }
        }
        self.query_window.push(q);
        Some(outcome)
    }

    /// Flush the memtable as one L0 SSTable: a sequential write burst, a
    /// durability point (WAL truncates), one more file for compaction to
    /// worry about.
    fn flush_memtable(&mut self) {
        if self.memtable_fill <= 0.0 {
            return;
        }
        let bytes = self.memtable_fill;
        self.memtable_fill = 0.0;
        self.l0_files += 1;
        self.l0_bytes += bytes;
        self.flushes_done += 1;
        self.disk.submit_write(bytes, WriteSource::BgWriter);
        self.metrics
            .inc(MetricId::BuffersClean, bytes / PAGE_BYTES as f64);
        // Everything in the flushed memtable is durable in the SSTable;
        // the WAL window restarts here.
        self.wal.begin_checkpoint();
        self.wal.complete_checkpoint();
    }

    /// Background engine: flush on memtable pressure, trigger and drive
    /// levelled compaction.
    fn background(&mut self, dt_ms: u64) {
        let roles = self.planner.roles().clone();
        let memtable_cap = self.knobs.get(roles.checkpoint_interval).max(1.0);
        if self.memtable_fill >= memtable_cap {
            self.flush_memtable();
        }

        // Trigger: enough L0 files. "Routine" when the normal trigger
        // fires; "forced" when L0 already reached the stall threshold —
        // the two flavors of this engine's CheckpointsTimed/Req slots.
        if self.compaction.is_none() {
            let trigger = self.knobs.get(roles.wal_trigger).max(1.0);
            let stall_at = self.knobs.get(self.k_stall).max(1.0);
            let l0 = self.l0_files as f64;
            if l0 >= trigger {
                let forced = l0 >= stall_at;
                let input = self.l0_bytes;
                // Write amplification of a levelled merge: the input is
                // rewritten once per level it trickles through, and each
                // merge rewrites ~fanout/(fanout−1) bytes per input byte.
                // Smaller fanout ⇒ deeper tree ⇒ more amplification.
                let fanout = self.knobs.get(self.k_fanout).max(2.0);
                let data = self.catalog.total_bytes() as f64;
                let depth = ((data / memtable_cap).max(1.0).ln() / fanout.ln()).max(0.0);
                let write_amp = 1.0 + depth * fanout / (fanout - 1.0).max(1.0);
                let total = input * write_amp;
                // Compaction reads its inputs back before rewriting them.
                self.disk.submit_read(input);

                let spread = self.knobs.get(roles.checkpoint_spread).clamp(0.05, 1.0);
                let par = self.knobs.get(roles.bg_clean_rate).max(1.0);
                let threads = self.knobs.get(self.k_threads).max(1.0);
                let eff_par = par.min(threads);
                let window_ms = (COMPACTION_WINDOW_BASE_MS * spread / eff_par).max(500.0);
                self.compaction = Some(CompactionRun {
                    remaining: total,
                    per_ms: total / window_ms,
                    carry: 0.0,
                });
                self.l0_files = 0;
                self.l0_bytes = 0.0;
                self.metrics.inc(
                    if forced {
                        MetricId::CheckpointsReq
                    } else {
                        MetricId::CheckpointsTimed
                    },
                    1.0,
                );
            }
        }

        // Drive the in-flight compaction: a paced write burst attributed
        // to WriteSource::Checkpoint, so its disk-latency peaks look to
        // the bgwriter detector exactly like checkpoint bursts do.
        if let Some(run) = &mut self.compaction {
            let step = (run.per_ms * dt_ms as f64 + run.carry).min(run.remaining);
            run.carry = 0.0;
            if step > 0.0 {
                self.disk.submit_write(step, WriteSource::Checkpoint);
                self.metrics
                    .inc(MetricId::BuffersCheckpoint, step / PAGE_BYTES as f64);
                run.remaining -= step;
            }
            if run.remaining <= f64::EPSILON {
                self.compaction = None;
                self.compactions_done += 1;
                if self.dead_bytes > 0.0 {
                    // Tombstone GC rides the merge: this engine's vacuum.
                    self.metrics.inc(MetricId::VacuumRuns, 1.0);
                    self.dead_bytes = 0.0;
                }
            }
        }
    }
}

impl Backend for LsmDatabase {
    fn flavor(&self) -> DbFlavor {
        DbFlavor::Lsm
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
    fn planner(&self) -> &Planner {
        &self.planner
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
    fn disks(&self) -> &DiskSet {
        &self.disk
    }
    fn disks_mut(&mut self) -> &mut DiskSet {
        &mut self.disk
    }
    fn wal(&self) -> &Wal {
        &self.wal
    }
    fn checkpoints_done(&self) -> u64 {
        self.compactions_done
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn take_query_window(&mut self, capacity: usize, seed: u64) -> QueryWindow {
        std::mem::replace(&mut self.query_window, QueryWindow::new(capacity, seed))
    }
    fn working_set_bytes(&mut self, reset: bool) -> u64 {
        self.cache.working_set_bytes(reset)
    }
    fn active_connections(&self) -> u32 {
        self.active_connections
    }
    fn set_active_connections(&mut self, n: u32) {
        self.active_connections = n.max(1);
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
            if self.backlog.len() < 4_096 {
                self.backlog.push((q.clone(), count));
            }
            return SubmitResult::Queued;
        }
        match self.run_now(q, count) {
            Some(outcome) => SubmitResult::Done(outcome),
            None => SubmitResult::Saturated { dropped: count },
        }
    }

    fn swap_factor(&self) -> f64 {
        let budget = self.knobs.memory_budget_used(&self.profile);
        let cap = self.instance.db_mem_cap();
        if budget <= cap {
            1.0
        } else {
            (1.0 + 4.0 * (budget / cap - 1.0)).min(12.0)
        }
    }

    fn tick(&mut self, dt_ms: u64) {
        self.now += dt_ms;
        self.workers.begin_tick();
        self.tick_busy_ms = 0.0;
        self.tick_capacity_ms = self.instance.vcpus() as f64 * dt_ms as f64 * CAPACITY_CONCURRENCY;
        if self.now >= self.down_until {
            self.background(dt_ms);
            if self.write_stall_factor() > 1.0 {
                self.write_stalled_ms += dt_ms;
            }
            if self.now >= self.stall_until && !self.backlog.is_empty() {
                let backlog = std::mem::take(&mut self.backlog);
                for (q, count) in backlog {
                    let _ = self.run_now(&q, count);
                }
            }
        }
        self.disk.tick(self.now, dt_ms);

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

    fn apply_config(&mut self, changes: &[ConfigChange], mode: ApplyMode) -> ApplyReport {
        let mut applied = Vec::new();
        let mut deferred = Vec::new();
        let restart_class = matches!(mode, ApplyMode::Restart | ApplyMode::SocketActivation);

        let staged = if restart_class {
            std::mem::take(&mut self.staged)
        } else {
            Vec::new()
        };
        for ch in staged.iter().chain(changes) {
            let spec = self.profile.spec(ch.knob);
            if spec.restart_required && !restart_class {
                self.staged.retain(|s| s.knob != ch.knob);
                self.staged.push(*ch);
                deferred.push(ch.knob);
                continue;
            }
            self.knobs.set(&self.profile, ch.knob, ch.value);
            applied.push(ch.knob);
        }
        let capped = self.knobs.memory_budget_used(&self.profile) > self.instance.db_mem_cap();

        if restart_class {
            // A graceful restart flushes the memtable on shutdown — only a
            // crash loses it.
            self.flush_memtable();
            let cache_bytes = self.knobs.get(self.planner.roles().buffer_pool) as u64;
            self.cache.resize(cache_bytes);
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

    /// Crash: the memtable dies with the process; recovery replays the WAL
    /// since the last flush and writes the reconstructed memtable out as
    /// an L0 file (RocksDB's recovery flush).
    fn crash(&mut self) -> RecoveryReport {
        self.backlog.clear();
        self.stall_until = 0;
        self.jitter_until = 0;
        self.jitter_factor = 1.0;
        self.compaction = None;

        let redo_bytes = self.wal.insert_lsn() - self.wal.redo_lsn();
        let recovery_ms = RECOVERY_BASE_MS + redo_bytes / REDO_REPLAY_BYTES_PER_MS;

        let staged = std::mem::take(&mut self.staged);
        let staged_applied = staged.len();
        for ch in &staged {
            self.knobs.set(&self.profile, ch.knob, ch.value);
        }

        let cache_bytes = self.knobs.get(self.planner.roles().buffer_pool) as u64;
        self.cache.resize(cache_bytes);
        self.workers.resize(self.instance.vcpus() * 2);

        // The recovery flush: replayed writes (WAL carries a 1.5×
        // amplification over the logical bytes) land as one L0 SSTable.
        if redo_bytes > 0 {
            let logical = redo_bytes as f64 / 1.5;
            self.l0_files += 1;
            self.l0_bytes += logical;
            self.flushes_done += 1;
            self.disk.submit_write(logical, WriteSource::BgWriter);
        }
        self.memtable_fill = 0.0;
        if self.wal.checkpoint_in_progress() {
            self.wal.abort_checkpoint();
        }
        self.wal.begin_checkpoint();
        self.wal.complete_checkpoint();

        self.down_until = self.now + recovery_ms;
        RecoveryReport {
            redo_bytes,
            recovery_ms,
            staged_applied,
        }
    }

    fn degrade(&mut self, duration_ms: u64, factor: f64) {
        let until = self.now + duration_ms;
        if self.now < self.jitter_until {
            self.jitter_factor = self.jitter_factor.max(factor.max(1.0));
            self.jitter_until = self.jitter_until.max(until);
        } else {
            self.jitter_factor = factor.max(1.0);
            self.jitter_until = until;
        }
    }

    fn staged_changes(&self) -> &[ConfigChange] {
        &self.staged
    }

    fn set_knob_direct(&mut self, knob: KnobId, value: f64) {
        self.knobs.set(&self.profile, knob, value);
        if self.profile.spec(knob).restart_required {
            let cache_bytes = self.knobs.get(self.planner.roles().buffer_pool) as u64;
            self.cache.resize(cache_bytes);
        }
    }

    fn use_split_disks(&mut self) {
        self.disk = DiskSet::split(self.disk.data().kind());
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(CompactionRun {
    remaining,
    per_ms,
    carry
});

/// Mirrors [`SimDatabase`]'s snapshot layout: profile/planner/executor and
/// the cached role-knob ids are rebuilt from the LSM profile; live LSM
/// state (memtable fill, L0 shape, in-flight compaction) is persisted.
///
/// [`SimDatabase`]: crate::SimDatabase
impl autodbaas_snapshot::Snap for LsmDatabase {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        self.instance.encode(w);
        self.knobs.encode(w);
        self.catalog.encode(w);
        self.cache.encode(w);
        self.disk.encode(w);
        self.wal.encode(w);
        self.metrics.encode(w);
        self.workers.encode(w);
        self.rng.encode(w);
        self.now.encode(w);
        self.memtable_fill.encode(w);
        self.l0_files.encode(w);
        self.l0_bytes.encode(w);
        self.dead_bytes.encode(w);
        self.compaction.encode(w);
        self.compactions_done.encode(w);
        self.flushes_done.encode(w);
        self.write_stalled_ms.encode(w);
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
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        use autodbaas_snapshot::Snap;
        let instance = InstanceType::decode(r)?;
        let knobs = KnobSet::decode(r)?;
        let catalog = Catalog::decode(r)?;
        let profile = KnobProfile::lsm();
        let planner = Planner::new(profile.clone());
        let exec = Executor::new(&catalog, DEFAULT_CHUNK_BYTES);
        let role = |name: &str| {
            profile
                .lookup(name)
                .ok_or(autodbaas_snapshot::SnapError::Malformed("lsm role knob"))
        };
        Ok(Self {
            instance,
            profile: profile.clone(),
            knobs,
            planner,
            catalog,
            cache: Snap::decode(r)?,
            disk: Snap::decode(r)?,
            wal: Snap::decode(r)?,
            metrics: Snap::decode(r)?,
            workers: Snap::decode(r)?,
            exec,
            rng: Snap::decode(r)?,
            now: Snap::decode(r)?,
            memtable_fill: Snap::decode(r)?,
            l0_files: Snap::decode(r)?,
            l0_bytes: Snap::decode(r)?,
            dead_bytes: Snap::decode(r)?,
            compaction: Snap::decode(r)?,
            compactions_done: Snap::decode(r)?,
            flushes_done: Snap::decode(r)?,
            write_stalled_ms: Snap::decode(r)?,
            k_fanout: role("level_fanout")?,
            k_stall: role("write_stall_l0")?,
            k_bloom: role("bloom_bits_per_key")?,
            k_threads: role("background_threads")?,
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
mod tests {
    use super::*;
    use crate::query::QueryKind;

    const MIB: f64 = 1024.0 * 1024.0;

    fn db() -> LsmDatabase {
        let catalog = Catalog::synthetic(6, 500_000_000, 120, 2);
        let mut d = LsmDatabase::new(InstanceType::M4Large, DiskKind::Ssd, catalog, 17);
        // Small memtable so tests exercise flush/compaction cheaply.
        let memtable = d.profile().lookup("memtable_bytes").unwrap();
        d.set_knob_direct(memtable, 4.0 * MIB);
        d
    }

    fn insert_query() -> QueryProfile {
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = 200;
        q
    }

    fn point_query() -> QueryProfile {
        let mut q = QueryProfile::new(QueryKind::PointSelect, 0);
        q.rows_examined = 10;
        q
    }

    /// Drive enough writes through to fill the (4 MiB) memtable repeatedly.
    fn pump_writes(d: &mut LsmDatabase, ticks: usize) {
        let q = insert_query();
        for _ in 0..ticks {
            d.submit(&q, 50);
            d.tick(1_000);
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_under_further_load() {
        let mut d = db();
        pump_writes(&mut d, 60); // mid-compaction state, L0 populated
        let bytes = autodbaas_snapshot::encode_to_vec(&d);
        let mut restored: LsmDatabase = autodbaas_snapshot::decode_from_slice(&bytes)
            .expect("snapshot of a live LSM engine decodes");
        assert_eq!(autodbaas_snapshot::encode_to_vec(&restored), bytes);
        let rq = point_query();
        let wq = insert_query();
        for i in 0..40 {
            let a = format!("{:?}", d.submit(&rq, 20));
            let b = format!("{:?}", restored.submit(&rq, 20));
            assert_eq!(a, b, "divergence at step {i}");
            d.submit(&wq, 40);
            restored.submit(&wq, 40);
            d.tick(1_000);
            restored.tick(1_000);
        }
        assert_eq!(d.metrics_snapshot(), restored.metrics_snapshot());
        assert_eq!(
            autodbaas_snapshot::encode_to_vec(&d),
            autodbaas_snapshot::encode_to_vec(&restored)
        );
    }

    #[test]
    fn writes_flush_to_l0_and_compactions_follow() {
        let mut d = db();
        pump_writes(&mut d, 120);
        assert!(d.flushes_done() > 4, "flushes: {}", d.flushes_done());
        assert!(
            d.compactions_done() > 0,
            "L0 accumulation must trigger compaction"
        );
        let m = d.metrics();
        assert!(
            m.get(MetricId::CheckpointsTimed) + m.get(MetricId::CheckpointsReq) > 0.0,
            "compactions must count in the write-burst slots"
        );
        assert!(m.get(MetricId::BuffersCheckpoint) > 0.0);
        assert!(
            m.get(MetricId::BuffersClean) > 0.0,
            "flush bursts count too"
        );
    }

    #[test]
    fn compaction_write_amplifies() {
        let mut d = db();
        pump_writes(&mut d, 200);
        let flush_bytes = d.disks().data().written_by(WriteSource::BgWriter);
        let compaction_bytes = d.disks().data().written_by(WriteSource::Checkpoint);
        assert!(flush_bytes > 0.0);
        assert!(
            compaction_bytes > flush_bytes,
            "levelled compaction rewrites more than it flushed \
             ({compaction_bytes:.0} vs {flush_bytes:.0})"
        );
    }

    #[test]
    fn smaller_fanout_amplifies_more() {
        let run = |fanout: f64| {
            let mut d = db();
            let k = d.profile().lookup("level_fanout").unwrap();
            d.set_knob_direct(k, fanout);
            pump_writes(&mut d, 200);
            d.disks().data().written_by(WriteSource::Checkpoint)
        };
        let deep = run(2.0);
        let shallow = run(16.0);
        assert!(
            deep > shallow * 1.3,
            "fanout 2 must rewrite well more than fanout 16 ({deep:.0} vs {shallow:.0})"
        );
    }

    #[test]
    fn l0_pileup_stalls_writes() {
        let mut d = db();
        // Disable compaction (trigger above what we accumulate) and make
        // the stall threshold low, so L0 piles up and writes hit the cliff.
        let trigger = d.profile().lookup("l0_compaction_trigger").unwrap();
        let stall = d.profile().lookup("write_stall_l0").unwrap();
        d.set_knob_direct(trigger, 32.0);
        d.set_knob_direct(stall, 4.0);

        let before = match d.submit(&insert_query(), 1) {
            SubmitResult::Done(o) => o.latency_ms,
            other => panic!("{other:?}"),
        };
        pump_writes(&mut d, 60);
        assert!(d.l0_files() >= 4, "l0: {}", d.l0_files());
        assert!(d.write_stall_factor() > 1.0);
        let after = match d.submit(&insert_query(), 1) {
            SubmitResult::Done(o) => o.latency_ms,
            other => panic!("{other:?}"),
        };
        assert!(
            after > before * 1.5,
            "stalled write latency {after:.2} vs {before:.2}"
        );
        // Reads are not stalled (only read-amplified, and bloom filters
        // keep that small at default bits).
        assert!(d.read_amp_factor() < 1.2);
        // Stall exposure accrues tick by tick while the cliff holds.
        let stalled_before = d.write_stalled_ms();
        d.tick(1_000);
        d.tick(1_000);
        assert_eq!(d.write_stalled_ms(), stalled_before + 2_000);
    }

    #[test]
    fn weak_bloom_filters_amplify_reads() {
        let mut d = db();
        let trigger = d.profile().lookup("l0_compaction_trigger").unwrap();
        d.set_knob_direct(trigger, 32.0); // let L0 pile up
        pump_writes(&mut d, 60);
        let l0 = d.l0_files();
        assert!(l0 >= 4);
        let strong = d.read_amp_factor();
        let bloom = d.profile().lookup("bloom_bits_per_key").unwrap();
        d.set_knob_direct(bloom, 0.0);
        let weak = d.read_amp_factor();
        assert!(
            weak > strong * 2.0,
            "no bloom bits must hurt point reads ({weak:.2} vs {strong:.2})"
        );
    }

    #[test]
    fn flush_truncates_the_wal_window() {
        let mut d = db();
        pump_writes(&mut d, 30);
        assert!(d.flushes_done() > 0);
        // The WAL window only holds what arrived since the last flush —
        // far less than everything ever written.
        let window = Backend::wal(&d).bytes_since_checkpoint();
        let total = Backend::wal(&d).insert_lsn();
        assert!(window < total, "window {window} vs total {total}");
    }

    #[test]
    fn crash_replays_since_last_flush_and_recovery_flushes_l0() {
        let mut d = db();
        // Write below the flush threshold so everything is memtable-only.
        let q = insert_query();
        d.submit(&q, 20);
        d.tick(1_000);
        assert!(d.memtable_fill() > 0.0);
        let l0_before = d.l0_files();
        let report = d.crash();
        assert!(report.redo_bytes > 0);
        assert!(report.recovery_ms > RECOVERY_BASE_MS);
        assert!(d.is_down());
        assert!(matches!(d.submit(&q, 1), SubmitResult::Refused));
        assert_eq!(d.l0_files(), l0_before + 1, "recovery flush lands in L0");
        assert_eq!(d.memtable_fill(), 0.0);
        assert_eq!(Backend::wal(&d).bytes_since_checkpoint(), 0);
        for _ in 0..60 {
            d.tick(1_000);
        }
        assert!(!d.is_down());
        assert!(matches!(d.submit(&q, 1), SubmitResult::Done(_)));
    }

    #[test]
    fn restart_flushes_memtable_gracefully() {
        let mut d = db();
        d.submit(&insert_query(), 20);
        d.tick(1_000);
        assert!(d.memtable_fill() > 0.0);
        let flushes = d.flushes_done();
        d.apply_config(&[], ApplyMode::Restart);
        assert_eq!(d.memtable_fill(), 0.0);
        assert_eq!(d.flushes_done(), flushes + 1);
        assert_eq!(Backend::wal(&d).bytes_since_checkpoint(), 0);
    }

    #[test]
    fn reload_stages_block_cache_and_restart_lands_it() {
        let mut d = db();
        let cache = d.profile().lookup("block_cache_bytes").unwrap();
        let report = d.apply_config(
            &[ConfigChange {
                knob: cache,
                value: 512.0 * MIB,
            }],
            ApplyMode::Reload,
        );
        assert_eq!(report.deferred, vec![cache]);
        assert_ne!(d.knobs().get(cache), 512.0 * MIB);
        let report = d.apply_config(&[], ApplyMode::Restart);
        assert!(report.applied.contains(&cache));
        assert_eq!(d.knobs().get(cache), 512.0 * MIB);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mk = || {
            let catalog = Catalog::synthetic(6, 500_000_000, 120, 2);
            LsmDatabase::new(InstanceType::M4Large, DiskKind::Ssd, catalog, 99)
        };
        let (mut a, mut b) = (mk(), mk());
        let w = insert_query();
        let r = point_query();
        for i in 0..50 {
            let (qa, qb) = if i % 3 == 0 { (&r, &r) } else { (&w, &w) };
            let (x, y) = (a.submit(qa, 30), b.submit(qb, 30));
            match (x, y) {
                (SubmitResult::Done(p), SubmitResult::Done(q)) => {
                    assert_eq!(p.latency_ms.to_bits(), q.latency_ms.to_bits());
                }
                (p, q) => panic!("divergence: {p:?} vs {q:?}"),
            }
            a.tick(1_000);
            b.tick(1_000);
        }
        assert_eq!(a.metrics_snapshot().as_vec(), b.metrics_snapshot().as_vec());
        assert_eq!(a.compactions_done(), b.compactions_done());
    }

    #[test]
    fn compaction_peaks_register_on_the_disk_latency_series() {
        let mut d = db();
        // Burst compactions: minimal spread, high parallelism.
        let spread = d.planner.roles().checkpoint_spread;
        let par = d.planner.roles().bg_clean_rate;
        d.set_knob_direct(spread, 0.1);
        d.set_knob_direct(par, 8.0);
        pump_writes(&mut d, 200);
        let peak = d
            .disks()
            .data()
            .latency_series()
            .iter()
            .map(|s| s.value)
            .fold(0.0f64, f64::max);
        let base = DiskKind::Ssd.base_latency_ms();
        assert!(
            peak > base * 2.0,
            "compaction bursts must show as latency peaks ({peak:.3} vs base {base:.3})"
        );
    }
}
