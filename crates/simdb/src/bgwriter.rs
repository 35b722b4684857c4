//! Background writer, checkpointer, and vacuum simulation (§3.2's cast).
//!
//! Dirty buffers accumulate from writes; three processes push them back:
//!
//! * the **background writer** cleans a knob-bounded number of pages per
//!   round — cheap, steady I/O;
//! * the **checkpointer** fires on a timeout (PostgreSQL style) or a
//!   dirty-fraction threshold (MySQL style), or early when WAL volume
//!   exceeds its trigger knob, and then flushes the whole dirty set spread
//!   over a knob-controlled window — this is what produces the disk-latency
//!   *peaks* the bgwriter throttle detector measures;
//! * **vacuum** periodically rewrites dead-tuple space.
//!
//! Badly tuned knobs (long timeouts, small WAL triggers, low clean rates)
//! concentrate writes into bursts; well-tuned ones spread them — the exact
//! contrast Fig. 5 plots.

use crate::bufferpool::BufferPool;
use crate::disk::{DiskSet, WriteSource};
use crate::knobs::{DbFlavor, KnobSet};
use crate::metrics::{MetricId, Metrics};
use crate::planner::KnobRoles;
use crate::wal::Wal;
use autodbaas_telemetry::SimTime;

/// An in-flight checkpoint: `remaining` chunks to flush by `deadline`.
#[derive(Debug, Clone, Copy)]
struct CheckpointRun {
    remaining: u64,
    per_ms: f64,
    carry: f64,
}

/// The background-process bundle for one database.
#[derive(Debug, Clone)]
pub struct BgWriter {
    flavor: DbFlavor,
    last_checkpoint_at: SimTime,
    wal: Wal,
    dead_tuple_bytes: f64,
    vacuum_interval_ms: u64,
    last_vacuum_at: SimTime,
    run: Option<CheckpointRun>,
    /// Count of checkpoints completed (exposed for the detector's
    /// checkpoints-per-unit-time reading).
    checkpoints_done: u64,
}

impl BgWriter {
    /// New bundle; `vacuum_interval_ms` follows the paper's observation that
    /// vacuum frequency is easy to control (they raise it to clear
    /// monitoring slots).
    pub fn new(flavor: DbFlavor, vacuum_interval_ms: u64) -> Self {
        Self {
            flavor,
            last_checkpoint_at: 0,
            wal: Wal::new(),
            dead_tuple_bytes: 0.0,
            vacuum_interval_ms: vacuum_interval_ms.max(1),
            last_vacuum_at: 0,
            run: None,
            checkpoints_done: 0,
        }
    }

    /// Executor feedback: WAL bytes generated since the last tick.
    pub fn note_wal(&mut self, bytes: f64) {
        self.wal.append(bytes.max(0.0) as u64);
    }

    /// The write-ahead log's LSN/segment accounting.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Mutable WAL access (crash recovery aborts/forces checkpoints).
    pub fn wal_mut(&mut self) -> &mut Wal {
        &mut self.wal
    }

    /// Crash handling for the flush machinery: an in-flight checkpoint run
    /// dies with the process.
    pub fn abort_checkpoint_run(&mut self) {
        self.run = None;
        self.wal.abort_checkpoint();
    }

    /// Executor feedback: dead-tuple bytes from updates/deletes.
    pub fn note_dead_tuples(&mut self, bytes: f64) {
        self.dead_tuple_bytes += bytes.max(0.0);
    }

    /// Total checkpoints completed since startup.
    pub fn checkpoints_done(&self) -> u64 {
        self.checkpoints_done
    }

    /// True while a checkpoint is flushing.
    pub fn checkpoint_in_progress(&self) -> bool {
        self.run.is_some()
    }

    /// Advance all three processes by `dt_ms`.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: SimTime,
        dt_ms: u64,
        knobs: &KnobSet,
        roles: &KnobRoles,
        pool: &mut BufferPool,
        disk: &mut DiskSet,
        metrics: &mut Metrics,
    ) {
        let chunk_bytes = pool.chunk_bytes() as f64;

        // --- Background writer: steady cleaning -------------------------
        // The clean-rate knob is in pages (PG) or IOPS (MySQL); both reduce
        // to "pages per second" for the model.
        let pages_per_sec = knobs.get(roles.bg_clean_rate).max(0.0);
        let chunks_per_tick =
            (pages_per_sec * dt_ms as f64 / 1000.0 * 8.0 * 1024.0 / chunk_bytes).max(0.0);
        let cleaned = pool.clean_dirty(chunks_per_tick as usize);
        if cleaned > 0 {
            disk.submit_write(cleaned as f64 * chunk_bytes, WriteSource::BgWriter);
            metrics.inc(
                MetricId::BuffersClean,
                cleaned as f64 * chunk_bytes / (8.0 * 1024.0),
            );
        }

        // --- Checkpoint trigger -----------------------------------------
        if self.run.is_none() {
            let dirty = pool.dirty_count() as u64;
            let wal_trigger = knobs.get(roles.wal_trigger);
            // Only the page-heap flavors build a `BgWriter`: an LSM instance
            // runs its own flush/compaction engine.
            let (timed, requested) = if self.flavor == DbFlavor::MySql {
                let pct = knobs.get(roles.checkpoint_interval);
                let dirty_frac = dirty as f64 / pool.capacity().max(1) as f64 * 100.0;
                (
                    dirty_frac >= pct,
                    self.wal.bytes_since_checkpoint() as f64 >= wal_trigger,
                )
            } else {
                let timeout = knobs.get(roles.checkpoint_interval) as u64;
                (
                    now.saturating_sub(self.last_checkpoint_at) >= timeout.max(1),
                    self.wal.bytes_since_checkpoint() as f64 >= wal_trigger,
                )
            };
            if (timed || requested) && dirty > 0 {
                // Spread the flush across the completion window. PostgreSQL
                // spreads over `completion_target × the checkpoint
                // interval` — and when WAL volume triggers checkpoints early
                // the *actual* interval, not the timeout knob, is what the
                // spread is based on.
                let window_ms = if self.flavor == DbFlavor::MySql {
                    // innodb_flush_neighbors ∈ {0,1,2}: higher = burstier.
                    10_000.0 / (1.0 + knobs.get(roles.checkpoint_spread)).max(1.0)
                } else {
                    let timeout = knobs.get(roles.checkpoint_interval);
                    let elapsed = now.saturating_sub(self.last_checkpoint_at) as f64;
                    let interval = if requested && !timed {
                        elapsed.min(timeout)
                    } else {
                        timeout
                    };
                    (interval * knobs.get(roles.checkpoint_spread)).max(1_000.0)
                };
                self.run = Some(CheckpointRun {
                    remaining: dirty,
                    per_ms: dirty as f64 / window_ms,
                    carry: 0.0,
                });
                self.wal.begin_checkpoint();
                self.last_checkpoint_at = now;
                metrics.inc(
                    if timed {
                        MetricId::CheckpointsTimed
                    } else {
                        MetricId::CheckpointsReq
                    },
                    1.0,
                );
            }
        }

        // --- Checkpoint progress -----------------------------------------
        if let Some(run) = &mut self.run {
            let want = run.per_ms * dt_ms as f64 + run.carry;
            let flush = (want as u64).min(run.remaining);
            run.carry = want - flush as f64;
            if flush > 0 {
                let actually = pool.clean_dirty(flush as usize) as u64;
                disk.submit_write(
                    actually.max(flush) as f64 * chunk_bytes,
                    WriteSource::Checkpoint,
                );
                metrics.inc(
                    MetricId::BuffersCheckpoint,
                    flush as f64 * chunk_bytes / (8.0 * 1024.0),
                );
                run.remaining = run.remaining.saturating_sub(flush);
            }
            if run.remaining == 0 {
                self.run = None;
                self.checkpoints_done += 1;
                // Segments below the redo point become recyclable.
                self.wal.complete_checkpoint();
            }
        }

        // --- Vacuum --------------------------------------------------------
        if now.saturating_sub(self.last_vacuum_at) >= self.vacuum_interval_ms
            && self.dead_tuple_bytes > 0.0
        {
            disk.submit_write(self.dead_tuple_bytes, WriteSource::Vacuum);
            metrics.inc(MetricId::VacuumRuns, 1.0);
            self.dead_tuple_bytes = 0.0;
            self.last_vacuum_at = now;
        }

        // Statistics writer: a small constant drip (isolated by the split-
        // disk layout when enabled).
        disk.submit_write(stats_drip_bytes(dt_ms), WriteSource::Stats);
    }

    /// True when the next [`BgWriter::tick`] writes nothing but the
    /// statistics drip, given a clean pool: no checkpoint is flushing and
    /// vacuum has no dead tuples to rewrite. (A checkpoint cannot start
    /// while the pool holds no dirty page.)
    pub(crate) fn is_idle(&self) -> bool {
        self.run.is_none() && self.dead_tuple_bytes == 0.0
    }
}

/// Bytes the statistics writer drips per tick of `dt_ms`.
pub(crate) fn stats_drip_bytes(dt_ms: u64) -> f64 {
    2.0 * 1024.0 * dt_ms as f64 / 1000.0
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(CheckpointRun {
    remaining,
    per_ms,
    carry
});
autodbaas_snapshot::snap_struct!(BgWriter {
    flavor,
    last_checkpoint_at,
    wal,
    dead_tuple_bytes,
    vacuum_interval_ms,
    last_vacuum_at,
    run,
    checkpoints_done,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::DEFAULT_CHUNK_BYTES;
    use crate::instance::DiskKind;
    use crate::knobs::KnobProfile;
    use crate::planner::KnobRoles;

    struct Rig {
        bg: BgWriter,
        knobs: KnobSet,
        roles: KnobRoles,
        profile: KnobProfile,
        pool: BufferPool,
        disk: DiskSet,
        metrics: Metrics,
    }

    fn rig() -> Rig {
        let profile = KnobProfile::postgres();
        let roles = KnobRoles::resolve(&profile);
        let knobs = profile.defaults();
        let pool = BufferPool::new(256 * DEFAULT_CHUNK_BYTES, DEFAULT_CHUNK_BYTES);
        Rig {
            bg: BgWriter::new(DbFlavor::Postgres, 60_000),
            knobs,
            roles,
            profile,
            pool,
            disk: DiskSet::shared(DiskKind::Ssd),
            metrics: Metrics::new(),
        }
    }

    fn dirty_n(pool: &mut BufferPool, n: u64) {
        for c in 0..n {
            pool.access(c, true);
        }
    }

    #[test]
    fn bgwriter_cleans_steadily() {
        let mut r = rig();
        dirty_n(&mut r.pool, 100);
        r.bg.tick(
            1_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert!(r.pool.dirty_count() < 100);
        assert!(r.disk.data().written_by(WriteSource::BgWriter) > 0.0);
    }

    #[test]
    fn timed_checkpoint_fires_after_timeout() {
        let mut r = rig();
        r.knobs.set_named(&r.profile, "bgwriter_lru_maxpages", 0.0); // isolate checkpointer
        dirty_n(&mut r.pool, 50);
        // Default timeout 300 s: at t=301 s a checkpoint must have started.
        r.bg.tick(
            301_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert!(r.bg.checkpoint_in_progress() || r.bg.checkpoints_done() > 0);
        assert_eq!(r.metrics.get(MetricId::CheckpointsTimed), 1.0);
    }

    #[test]
    fn wal_volume_requests_early_checkpoint() {
        let mut r = rig();
        r.knobs.set_named(&r.profile, "bgwriter_lru_maxpages", 0.0);
        dirty_n(&mut r.pool, 50);
        r.bg.note_wal(2e9); // 2 GB > default max_wal_size of 1 GiB
        r.bg.tick(
            10_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert_eq!(r.metrics.get(MetricId::CheckpointsReq), 1.0);
    }

    #[test]
    fn checkpoint_spreads_over_completion_window() {
        let mut r = rig();
        r.knobs.set_named(&r.profile, "bgwriter_lru_maxpages", 0.0);
        r.knobs
            .set_named(&r.profile, "checkpoint_timeout", 60_000.0);
        r.knobs
            .set_named(&r.profile, "checkpoint_completion_target", 0.9);
        dirty_n(&mut r.pool, 200);
        r.bg.tick(
            61_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert!(r.bg.checkpoint_in_progress());
        // After one second of a 54 s window only a fraction is flushed.
        assert!(r.pool.dirty_count() > 150, "dirty={}", r.pool.dirty_count());
        // Run it long enough and the checkpoint completes.
        for s in 62..130u64 {
            r.bg.tick(
                s * 1_000,
                1_000,
                &r.knobs,
                &r.roles,
                &mut r.pool,
                &mut r.disk,
                &mut r.metrics,
            );
        }
        assert_eq!(r.bg.checkpoints_done(), 1);
        assert!(!r.bg.checkpoint_in_progress());
    }

    #[test]
    fn mysql_dirty_fraction_triggers() {
        let profile = KnobProfile::mysql();
        let roles = KnobRoles::resolve(&profile);
        let mut knobs = profile.defaults();
        knobs.set_named(&profile, "innodb_max_dirty_pages_pct", 10.0);
        knobs.set_named(&profile, "innodb_io_capacity", 100.0);
        let mut pool = BufferPool::new(100 * DEFAULT_CHUNK_BYTES, DEFAULT_CHUNK_BYTES);
        let mut bg = BgWriter::new(DbFlavor::MySql, 60_000);
        let mut disk = DiskSet::shared(DiskKind::Ssd);
        let mut metrics = Metrics::new();
        // Dirty 30% of the pool — above the 10% threshold.
        for c in 0..30u64 {
            pool.access(c, true);
        }
        bg.tick(
            1_000,
            1_000,
            &knobs,
            &roles,
            &mut pool,
            &mut disk,
            &mut metrics,
        );
        assert!(bg.checkpoint_in_progress() || bg.checkpoints_done() > 0);
    }

    #[test]
    fn vacuum_runs_on_interval_and_clears_dead_bytes() {
        let mut r = rig();
        r.bg.note_dead_tuples(1e6);
        r.bg.tick(
            59_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert_eq!(r.metrics.get(MetricId::VacuumRuns), 0.0);
        r.bg.tick(
            61_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert_eq!(r.metrics.get(MetricId::VacuumRuns), 1.0);
        assert!(r.disk.data().written_by(WriteSource::Vacuum) >= 1e6);
    }

    #[test]
    fn stats_writes_drip_constantly() {
        let mut r = rig();
        r.bg.tick(
            1_000,
            1_000,
            &r.knobs,
            &r.roles,
            &mut r.pool,
            &mut r.disk,
            &mut r.metrics,
        );
        assert!(r.disk.data().written_by(WriteSource::Stats) > 0.0);
    }
}
