//! The LSM storage engine behind [`SimDatabase`] for [`DbFlavor::Lsm`].
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
//! Everything else is the shared service shell in `engine.rs`: the
//! [`Planner`](crate::Planner) (so sort/hash spills produce the same TDE
//! findings), the executor, a buffer pool serving as block cache, the
//! M/M/1 [`DiskSet`], the §4 apply semantics and the capacity model. This
//! module holds only the tree and its WAL — which is exactly the claim the
//! fig. 17 bench tests: same physics, different engine on top.
//!
//! [`SimDatabase`]: crate::SimDatabase
//! [`DbFlavor::Lsm`]: crate::DbFlavor::Lsm

use crate::catalog::{Catalog, PAGE_BYTES};
use crate::disk::{DiskSet, WriteSource};
use crate::knobs::{KnobId, KnobProfile, KnobSet};
use crate::metrics::{MetricId, Metrics};
use crate::planner::KnobRoles;
use crate::query::QueryKind;
use crate::wal::Wal;
use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

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

/// Memtable, level 0 and compaction state of one LSM instance, with the
/// WAL the memtable flushes truncate.
#[derive(Debug)]
pub(crate) struct LsmTree {
    wal: Wal,
    memtable_fill: f64,
    l0_files: u64,
    l0_bytes: f64,
    dead_bytes: f64,
    compaction: Option<CompactionRun>,
    compactions_done: u64,
    flushes_done: u64,
    /// Cumulative time in write-stall (L0 at or past `write_stall_l0`
    /// while the instance was up).
    write_stalled_ms: u64,
    // Cached knob ids outside the shared role set.
    k_fanout: KnobId,
    k_stall: KnobId,
    k_bloom: KnobId,
    k_threads: KnobId,
}

/// The LSM profile's own role knobs, in `LsmTree` field order.
const ROLE_KNOBS: [&str; 4] = [
    "level_fanout",
    "write_stall_l0",
    "bloom_bits_per_key",
    "background_threads",
];

impl LsmTree {
    /// An empty tree; `None` if `profile` lacks one of the LSM role knobs.
    fn with_roles(profile: &KnobProfile, wal: Wal) -> Option<Self> {
        let [k_fanout, k_stall, k_bloom, k_threads] = ROLE_KNOBS.map(|name| profile.lookup(name));
        Some(Self {
            wal,
            memtable_fill: 0.0,
            l0_files: 0,
            l0_bytes: 0.0,
            dead_bytes: 0.0,
            compaction: None,
            compactions_done: 0,
            flushes_done: 0,
            write_stalled_ms: 0,
            k_fanout: k_fanout?,
            k_stall: k_stall?,
            k_bloom: k_bloom?,
            k_threads: k_threads?,
        })
    }

    /// An empty tree over the LSM knob profile.
    pub(crate) fn new(profile: &KnobProfile) -> Self {
        Self::with_roles(profile, Wal::new())
            // detlint-allow: R003 the built-in LSM profile always carries its own role knobs; failing at construction is the contract, as in KnobRoles::resolve
            .unwrap_or_else(|| panic!("lsm profile lacks one of {ROLE_KNOBS:?}"))
    }

    pub(crate) fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Compactions completed: this engine's write-burst cycle.
    pub(crate) fn compactions_done(&self) -> u64 {
        self.compactions_done
    }

    pub(crate) fn write_stalled_ms(&self) -> u64 {
        self.write_stalled_ms
    }

    /// Write-stall multiplier from L0 back-pressure: past `write_stall_l0`
    /// files, every additional file steepens the cliff (capped — RocksDB
    /// stalls, it does not halt).
    fn write_stall_factor(&self, knobs: &KnobSet) -> f64 {
        let stall_at = knobs.get(self.k_stall).max(1.0);
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
    fn read_amp_factor(&self, knobs: &KnobSet) -> f64 {
        let bits = knobs.get(self.k_bloom).max(0.0);
        let fp = 0.6185_f64.powf(bits);
        1.0 + self.l0_files as f64 * fp * 0.35
    }

    /// `(write stall, read amplification)` latency factors for a query: a
    /// write pays the stall, a read the amplification. A stalled write
    /// really does occupy a backend slot for longer, so stalls shed
    /// throughput through the capacity model as well as inflating latency.
    pub(crate) fn latency_factors(&self, is_write: bool, knobs: &KnobSet) -> (f64, f64) {
        if is_write {
            (self.write_stall_factor(knobs), 1.0)
        } else {
            (1.0, self.read_amp_factor(knobs))
        }
    }

    /// Write path: WAL append + memtable accounting (the executor has
    /// already charged the physical WAL write to the disk model).
    pub(crate) fn note_write(&mut self, kind: QueryKind, bytes: f64) {
        self.wal.append((bytes * 1.5) as u64);
        self.memtable_fill += bytes;
        if matches!(kind, QueryKind::Update | QueryKind::Delete) {
            // Overwrites and deletes are tombstones until a compaction
            // garbage-collects them.
            self.dead_bytes += bytes;
        }
    }

    /// Flush the memtable as one L0 SSTable: a sequential write burst, a
    /// durability point (WAL truncates), one more file for compaction to
    /// worry about. A graceful restart runs it on shutdown — only a crash
    /// loses the memtable.
    pub(crate) fn flush_memtable(&mut self, disk: &mut DiskSet, metrics: &mut Metrics) {
        if self.memtable_fill <= 0.0 {
            return;
        }
        let bytes = self.memtable_fill;
        self.memtable_fill = 0.0;
        self.l0_files += 1;
        self.l0_bytes += bytes;
        self.flushes_done += 1;
        disk.submit_write(bytes, WriteSource::BgWriter);
        metrics.inc(MetricId::BuffersClean, bytes / PAGE_BYTES as f64);
        // Everything in the flushed memtable is durable in the SSTable;
        // the WAL window restarts here.
        self.wal.begin_checkpoint();
        self.wal.complete_checkpoint();
    }

    /// Background engine for one tick of `dt_ms` while the instance is up:
    /// flush on memtable pressure, trigger and drive levelled compaction,
    /// and account write-stall time.
    pub(crate) fn background(
        &mut self,
        dt_ms: u64,
        knobs: &KnobSet,
        roles: &KnobRoles,
        catalog: &Catalog,
        disk: &mut DiskSet,
        metrics: &mut Metrics,
    ) {
        let memtable_cap = knobs.get(roles.checkpoint_interval).max(1.0);
        if self.memtable_fill >= memtable_cap {
            self.flush_memtable(disk, metrics);
        }

        // Trigger: enough L0 files. "Routine" when the normal trigger
        // fires; "forced" when L0 already reached the stall threshold —
        // the two flavors of this engine's CheckpointsTimed/Req slots.
        if self.compaction.is_none() {
            let trigger = knobs.get(roles.wal_trigger).max(1.0);
            let stall_at = knobs.get(self.k_stall).max(1.0);
            let l0 = self.l0_files as f64;
            if l0 >= trigger {
                let forced = l0 >= stall_at;
                let input = self.l0_bytes;
                // Write amplification of a levelled merge: the input is
                // rewritten once per level it trickles through, and each
                // merge rewrites ~fanout/(fanout−1) bytes per input byte.
                // Smaller fanout ⇒ deeper tree ⇒ more amplification.
                let fanout = knobs.get(self.k_fanout).max(2.0);
                let data = catalog.total_bytes() as f64;
                let depth = ((data / memtable_cap).max(1.0).ln() / fanout.ln()).max(0.0);
                let write_amp = 1.0 + depth * fanout / (fanout - 1.0).max(1.0);
                let total = input * write_amp;
                // Compaction reads its inputs back before rewriting them.
                disk.submit_read(input);

                let spread = knobs.get(roles.checkpoint_spread).clamp(0.05, 1.0);
                let par = knobs.get(roles.bg_clean_rate).max(1.0);
                let threads = knobs.get(self.k_threads).max(1.0);
                let eff_par = par.min(threads);
                let window_ms = (COMPACTION_WINDOW_BASE_MS * spread / eff_par).max(500.0);
                self.compaction = Some(CompactionRun {
                    remaining: total,
                    per_ms: total / window_ms,
                    carry: 0.0,
                });
                self.l0_files = 0;
                self.l0_bytes = 0.0;
                metrics.inc(
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
                disk.submit_write(step, WriteSource::Checkpoint);
                metrics.inc(MetricId::BuffersCheckpoint, step / PAGE_BYTES as f64);
                run.remaining -= step;
            }
            if run.remaining <= f64::EPSILON {
                self.compaction = None;
                self.compactions_done += 1;
                if self.dead_bytes > 0.0 {
                    // Tombstone GC rides the merge: this engine's vacuum.
                    metrics.inc(MetricId::VacuumRuns, 1.0);
                    self.dead_bytes = 0.0;
                }
            }
        }

        if self.write_stall_factor(knobs) > 1.0 {
            self.write_stalled_ms += dt_ms;
        }
    }

    /// Crash and recover the tree; returns the redo bytes replayed. The
    /// memtable and any in-flight compaction die with the process;
    /// recovery replays the WAL since the last flush and writes the
    /// reconstructed memtable out as an L0 file (RocksDB's recovery flush).
    pub(crate) fn crash_recover(&mut self, disk: &mut DiskSet) -> u64 {
        self.compaction = None;
        let redo_bytes = self.wal.insert_lsn() - self.wal.redo_lsn();
        // The replayed writes (WAL carries a 1.5× amplification over the
        // logical bytes) land as one L0 SSTable.
        if redo_bytes > 0 {
            let logical = redo_bytes as f64 / 1.5;
            self.l0_files += 1;
            self.l0_bytes += logical;
            self.flushes_done += 1;
            disk.submit_write(logical, WriteSource::BgWriter);
        }
        self.memtable_fill = 0.0;
        self.wal.abort_checkpoint();
        self.wal.begin_checkpoint();
        self.wal.complete_checkpoint();
        redo_bytes
    }

    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        self.wal.encode(w);
        self.memtable_fill.encode(w);
        self.l0_files.encode(w);
        self.l0_bytes.encode(w);
        self.dead_bytes.encode(w);
        self.compaction.encode(w);
        self.compactions_done.encode(w);
        self.flushes_done.encode(w);
        self.write_stalled_ms.encode(w);
    }

    /// Decode the live state; the role-knob ids are rebuilt from `profile`.
    pub(crate) fn decode(profile: &KnobProfile, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut tree = Self::with_roles(profile, Wal::decode(r)?)
            .ok_or(SnapError::Malformed("lsm role knob"))?;
        tree.memtable_fill = Snap::decode(r)?;
        tree.l0_files = Snap::decode(r)?;
        tree.l0_bytes = Snap::decode(r)?;
        tree.dead_bytes = Snap::decode(r)?;
        tree.compaction = Snap::decode(r)?;
        tree.compactions_done = Snap::decode(r)?;
        tree.flushes_done = Snap::decode(r)?;
        tree.write_stalled_ms = Snap::decode(r)?;
        Ok(tree)
    }
}

autodbaas_snapshot::snap_struct!(CompactionRun {
    remaining,
    per_ms,
    carry
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ApplyMode, ConfigChange, SubmitResult, RECOVERY_BASE_MS};
    use crate::instance::{DiskKind, InstanceType};
    use crate::query::QueryProfile;
    use crate::{Backend, DbFlavor, SimDatabase};

    const MIB: f64 = 1024.0 * 1024.0;

    fn lsm(catalog: Catalog, seed: u64) -> SimDatabase {
        SimDatabase::new(
            DbFlavor::Lsm,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            seed,
        )
    }

    fn db() -> SimDatabase {
        let catalog = Catalog::synthetic(6, 500_000_000, 120, 2);
        let mut d = lsm(catalog, 17);
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
    fn pump_writes(d: &mut SimDatabase, ticks: usize) {
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
        let mut restored: SimDatabase = autodbaas_snapshot::decode_from_slice(&bytes)
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
        assert!(
            d.lsm().flushes_done > 4,
            "flushes: {}",
            d.lsm().flushes_done
        );
        assert!(
            d.lsm().compactions_done > 0,
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
        assert!(d.lsm().l0_files >= 4, "l0: {}", d.lsm().l0_files);
        assert!(d.lsm().write_stall_factor(d.knobs()) > 1.0);
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
        assert!(d.lsm().read_amp_factor(d.knobs()) < 1.2);
        // Stall exposure accrues tick by tick while the cliff holds.
        let stalled_before = d.lsm().write_stalled_ms;
        d.tick(1_000);
        d.tick(1_000);
        assert_eq!(d.lsm().write_stalled_ms, stalled_before + 2_000);
    }

    #[test]
    fn weak_bloom_filters_amplify_reads() {
        let mut d = db();
        let trigger = d.profile().lookup("l0_compaction_trigger").unwrap();
        d.set_knob_direct(trigger, 32.0); // let L0 pile up
        pump_writes(&mut d, 60);
        let l0 = d.lsm().l0_files;
        assert!(l0 >= 4);
        let strong = d.lsm().read_amp_factor(d.knobs());
        let bloom = d.profile().lookup("bloom_bits_per_key").unwrap();
        d.set_knob_direct(bloom, 0.0);
        let weak = d.lsm().read_amp_factor(d.knobs());
        assert!(
            weak > strong * 2.0,
            "no bloom bits must hurt point reads ({weak:.2} vs {strong:.2})"
        );
    }

    #[test]
    fn flush_truncates_the_wal_window() {
        let mut d = db();
        pump_writes(&mut d, 30);
        assert!(d.lsm().flushes_done > 0);
        // The WAL window only holds what arrived since the last flush —
        // far less than everything ever written.
        let window = d.wal().bytes_since_checkpoint();
        let total = d.wal().insert_lsn();
        assert!(window < total, "window {window} vs total {total}");
    }

    #[test]
    fn crash_replays_since_last_flush_and_recovery_flushes_l0() {
        let mut d = db();
        // Write below the flush threshold so everything is memtable-only.
        let q = insert_query();
        d.submit(&q, 20);
        d.tick(1_000);
        assert!(d.lsm().memtable_fill > 0.0);
        let l0_before = d.lsm().l0_files;
        let report = d.crash();
        assert!(report.redo_bytes > 0);
        assert!(report.recovery_ms > RECOVERY_BASE_MS);
        assert!(d.is_down());
        assert!(matches!(d.submit(&q, 1), SubmitResult::Refused));
        assert_eq!(
            d.lsm().l0_files,
            l0_before + 1,
            "recovery flush lands in L0"
        );
        assert_eq!(d.lsm().memtable_fill, 0.0);
        assert_eq!(d.wal().bytes_since_checkpoint(), 0);
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
        assert!(d.lsm().memtable_fill > 0.0);
        let flushes = d.lsm().flushes_done;
        d.apply_config(&[], ApplyMode::Restart);
        assert_eq!(d.lsm().memtable_fill, 0.0);
        assert_eq!(d.lsm().flushes_done, flushes + 1);
        assert_eq!(d.wal().bytes_since_checkpoint(), 0);
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
            lsm(catalog, 99)
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
        assert_eq!(a.lsm().compactions_done, b.lsm().compactions_done);
    }

    #[test]
    fn compaction_peaks_register_on_the_disk_latency_series() {
        let mut d = db();
        // Burst compactions: minimal spread, high parallelism.
        let spread = d.planner().roles().checkpoint_spread;
        let par = d.planner().roles().bg_clean_rate;
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
