//! The sharded fleet tick engine: persistent worker shards behind a
//! generation-counter barrier.
//!
//! The original parallel drive spawned one `std::thread::scope` fan-out per
//! tick — a thread spawn, a stack, and a join for every shard on every tick
//! of the run. At fleet scale that overhead dominates idle nodes. This
//! module replaces it with a [`ShardPool`]: the fleet is partitioned *once*
//! into `W` contiguous shards; shards `1..W` are owned by long-lived worker
//! threads that park between ticks, and shard `0` is driven by the calling
//! thread itself, so `W = 1` is the plain loop with zero synchronisation.
//!
//! # Barrier protocol
//!
//! Per tick the caller publishes the node and deferral bases, the tick
//! length and whether nodes may be deferred, resets the `done`
//! counter, bumps the `generation` counter (Release) and unparks every
//! worker. A worker wakes, Acquire-loads the generation, drives its node
//! range, writes its [`ShardOutput`] into its slot, and announces with
//! `done.fetch_add(1, Release)`. The caller drives shard 0 meanwhile, then
//! waits for `done == W - 1` (Acquire) — that pairing makes every worker
//! write happen-before the caller's merge. Outputs are merged in ascending
//! shard order; since shards are contiguous ascending index ranges, the
//! merged order equals the one-shard drive order and the fleet is
//! bit-identical for any shard count.
//!
//! # Determinism witness
//!
//! Every shard owns an RNG seeded with
//! `master_seed ^ (shard × 0x9e3779b97f4a7c15)` (see
//! [`derived_shard_seed`]). The stream never touches simulation state; each
//! epoch draws one probe value that the caller checks against a mirrored
//! stream, so a worker that ever missed or replayed an epoch — a barrier
//! protocol violation — fails loudly instead of silently diverging.
//!
//! # Deferred nodes
//!
//! A node whose [`HotState`] deferral entry is not [`DRIVEN`] is not
//! visited: the shard bumps the entry (one more owed tick) and moves on,
//! without touching the node struct. The fleet replays owed ticks before
//! anything next reads or writes the node (see `FleetSim::catch_up`).

use crate::node::ManagedDatabase;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Golden-ratio increment decorrelating per-shard seed streams.
const SEED_GAMMA: u64 = 0x9e3779b97f4a7c15;

/// The seed of shard `shard`'s private RNG stream under `master_seed`.
/// Shard 0 (the calling thread) gets the master seed itself.
pub fn derived_shard_seed(master_seed: u64, shard: usize) -> u64 {
    master_seed ^ (shard as u64).wrapping_mul(SEED_GAMMA)
}

/// Cumulative fleet drive statistics, merged from per-shard outputs in
/// shard order every tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Node-ticks driven (nodes × ticks).
    pub node_ticks: u64,
    /// Queries accepted across the fleet.
    pub submitted: u64,
    /// Node-ticks spent hard-down.
    pub down_ticks: u64,
}

impl DriveStats {
    /// Fold one tick's merged stats into a running total.
    pub fn accumulate(&mut self, tick: &DriveStats) {
        self.node_ticks += tick.node_ticks;
        self.submitted += tick.submitted;
        self.down_ticks += tick.down_ticks;
    }
}

/// What one worker shard produced in one epoch.
#[derive(Debug, Clone, Copy, Default)]
struct ShardOutput {
    submitted: u64,
    down: u64,
    probe: u64,
}

/// Shared control block between the caller and the workers.
struct Ctl {
    /// Epoch counter; a change is the "go" signal.
    generation: AtomicU64,
    /// Workers finished with the current epoch.
    done: AtomicU64,
    /// Terminal: workers exit instead of driving.
    shutdown: AtomicBool,
    /// A worker panicked mid-epoch; the caller re-raises.
    poisoned: AtomicBool,
    /// Tick length for the current epoch.
    tick_ms: AtomicU64,
    /// Whether driven nodes may be deferred this epoch.
    defer: AtomicBool,
    /// Base of the fleet's node slice for the current epoch. Only valid
    /// between the generation bump and the matching `done` barrier.
    base: AtomicPtr<ManagedDatabase>,
    /// Base of the fleet's deferral entries, valid exactly like `base`.
    deferral: AtomicPtr<u64>,
}

/// One worker's output slot. The `done` Release/Acquire pairing already
/// orders the write before the caller's read; the mutex is belt and braces
/// that keeps the slot access trivially race-free.
struct Slot {
    out: Mutex<ShardOutput>,
}

/// Persistent sharded tick engine over a fleet of [`ManagedDatabase`]s.
pub struct ShardPool {
    ctl: Arc<Ctl>,
    slots: Vec<Arc<Slot>>,
    handles: Vec<JoinHandle<()>>,
    /// Contiguous ascending node ranges, one per shard (shard 0 first).
    ranges: Vec<Range<usize>>,
    /// Caller-side mirrors of the worker shards' RNG streams (shards
    /// `1..W`), used to verify the per-epoch probes.
    mirrors: Vec<StdRng>,
    n_nodes: usize,
    generation: u64,
}

impl ShardPool {
    /// Build a pool of `shards` shards (clamped to `[1, n_nodes]`) over a
    /// fleet of `n_nodes` nodes. Spawns `shards − 1` worker threads; the
    /// caller drives shard 0 inside [`ShardPool::drive_tick`].
    pub fn new(shards: usize, n_nodes: usize, master_seed: u64) -> Self {
        let shards = shards.clamp(1, n_nodes.max(1));
        let chunk = n_nodes.div_ceil(shards).max(1);
        let ranges: Vec<Range<usize>> = (0..shards)
            .map(|i| (i * chunk).min(n_nodes)..((i + 1) * chunk).min(n_nodes))
            .collect();
        let ctl = Arc::new(Ctl {
            generation: AtomicU64::new(0),
            done: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            tick_ms: AtomicU64::new(0),
            defer: AtomicBool::new(false),
            base: AtomicPtr::new(std::ptr::null_mut()),
            deferral: AtomicPtr::new(std::ptr::null_mut()),
        });
        let mut slots = Vec::with_capacity(shards - 1);
        let mut handles = Vec::with_capacity(shards - 1);
        let mut mirrors = Vec::with_capacity(shards - 1);
        // One worker per shard, built once and parked between ticks — this
        // loop is what replaces the old per-tick spawn fan-out.
        for (shard, range) in ranges.iter().enumerate().skip(1) {
            let slot = Arc::new(Slot {
                out: Mutex::new(ShardOutput::default()),
            });
            let seed = derived_shard_seed(master_seed, shard);
            mirrors.push(StdRng::seed_from_u64(seed));
            let handle = std::thread::Builder::new()
                .name(format!("fleet-shard-{shard}"))
                // detlint-allow: D005 one-time pool build; workers persist across every tick
                .spawn({
                    let ctl = Arc::clone(&ctl);
                    let slot = Arc::clone(&slot);
                    let range = range.clone();
                    move || worker_main(&ctl, &slot, range, seed)
                })
                // detlint-allow: R003 spawn failure at pool construction is unrecoverable; fires once at startup, never in the tick path
                .expect("spawn fleet shard worker");
            slots.push(slot);
            handles.push(handle);
        }
        Self {
            ctl,
            slots,
            handles,
            ranges,
            mirrors,
            n_nodes,
            generation: 0,
        }
    }

    /// Shard count (including the caller's shard 0).
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Drive one tick across every shard and merge the outputs in shard
    /// order. `nodes` must be the same fleet (same length) the pool was
    /// built for, and `deferral` its [`HotState`] deferral entries, one per
    /// node. A deferred node only owes the tick; with `defer` set, a driven
    /// node that [`ManagedDatabase::may_defer`] allows is deferred from the
    /// next tick on. A deferred tick submits nothing and is not down, so
    /// the returned stats count it exactly as driving it would.
    pub fn drive_tick(
        &mut self,
        nodes: &mut [ManagedDatabase],
        deferral: &mut [u64],
        defer: bool,
        tick_ms: u64,
    ) -> DriveStats {
        assert_eq!(
            nodes.len(),
            self.n_nodes,
            "pool partitioned for a different fleet size"
        );
        assert_eq!(deferral.len(), self.n_nodes, "one deferral entry per node");
        let mut total = DriveStats {
            node_ticks: self.n_nodes as u64,
            ..DriveStats::default()
        };
        if self.handles.is_empty() {
            // Single shard: the plain loop, no synchronisation.
            let out = drive_shard(nodes, deferral, defer, tick_ms);
            total.submitted = out.submitted;
            total.down_ticks = out.down;
            return total;
        }

        // Publish the epoch. The Release on `generation` orders the
        // base/tick/done stores before any worker's Acquire load.
        let base = nodes.as_mut_ptr();
        let deferral = deferral.as_mut_ptr();
        self.ctl.base.store(base, Ordering::Relaxed);
        self.ctl.deferral.store(deferral, Ordering::Relaxed);
        self.ctl.tick_ms.store(tick_ms, Ordering::Relaxed);
        self.ctl.defer.store(defer, Ordering::Relaxed);
        self.ctl.done.store(0, Ordering::Relaxed);
        self.generation += 1;
        self.ctl
            .generation
            .store(self.generation, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }

        let mine = self.ranges[0].clone();
        // SAFETY: `base` and `deferral` point at entry 0 of the fleet's
        // node and deferral slices for this whole epoch, and `ranges[0]`
        // is in bounds and disjoint from every worker shard's range;
        // neither slice is reborrowed until the barrier below retires the
        // epoch, so these are the only live references to this range.
        let (nodes, deferral) = unsafe {
            (
                std::slice::from_raw_parts_mut(base.add(mine.start), mine.len()),
                std::slice::from_raw_parts_mut(deferral.add(mine.start), mine.len()),
            )
        };
        let out = drive_shard(nodes, deferral, defer, tick_ms);
        total.submitted += out.submitted;
        total.down_ticks += out.down;

        // Barrier: every worker's `done` increment (Release) pairs with
        // this Acquire, so their node mutations and slot writes are visible.
        let workers = self.handles.len() as u64;
        let mut spins = 0u32;
        while self.ctl.done.load(Ordering::Acquire) < workers {
            spins = spins.wrapping_add(1);
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if self.ctl.poisoned.load(Ordering::Acquire) {
            // detlint-allow: R003 deliberately re-raises a worker panic on the driver thread; swallowing it would hand back a corrupt fleet state
            panic!("a fleet shard worker panicked while driving its nodes");
        }

        // Merge in ascending shard order — the one-shard drive order.
        for (w, slot) in self.slots.iter().enumerate() {
            let out = *slot.out.lock();
            let expected = self.mirrors[w].gen::<u64>();
            assert_eq!(
                out.probe,
                expected,
                "shard {} epoch probe mismatch: missed or replayed a tick",
                w + 1
            );
            total.submitted += out.submitted;
            total.down_ticks += out.down;
        }
        total
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.ctl.shutdown.store(true, Ordering::Release);
        // Bump the generation too, so a worker that just observed the old
        // value and is about to park still wakes and sees the shutdown.
        self.ctl.generation.fetch_add(1, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Entry of a node driven every tick; any other value is a deferred node's
/// owed-tick count.
pub(crate) const DRIVEN: u64 = u64::MAX;

/// Drive one shard's nodes one tick (see [`ShardPool::drive_tick`]). The
/// output's `probe` is left for the caller.
fn drive_shard(
    nodes: &mut [ManagedDatabase],
    deferral: &mut [u64],
    defer: bool,
    tick_ms: u64,
) -> ShardOutput {
    let mut out = ShardOutput::default();
    for (node, owed) in nodes.iter_mut().zip(deferral) {
        if *owed != DRIVEN {
            *owed += 1;
            continue;
        }
        let t = node.drive(tick_ms);
        out.submitted += t.submitted;
        out.down += u64::from(t.down);
        if defer && node.may_defer() {
            *owed = 0;
        }
    }
    out
}

/// Worker loop for one shard: park until the generation moves, drive the
/// owned node range, publish the output, announce on the barrier.
fn worker_main(ctl: &Ctl, slot: &Slot, range: Range<usize>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = 0u64;
    loop {
        loop {
            if ctl.shutdown.load(Ordering::Acquire) {
                return;
            }
            let g = ctl.generation.load(Ordering::Acquire);
            if g != seen {
                seen = g;
                break;
            }
            std::thread::park();
        }
        let base = ctl.base.load(Ordering::Relaxed);
        let deferral = ctl.deferral.load(Ordering::Relaxed);
        let tick_ms = ctl.tick_ms.load(Ordering::Relaxed);
        let defer = ctl.defer.load(Ordering::Relaxed);
        let probe = rng.gen::<u64>();
        let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: `range` is in bounds and disjoint from every other
            // shard's range, and `base` and `deferral` stay valid for the
            // whole epoch because the caller blocks on the barrier before
            // touching either slice again — so these are the only live
            // references to this range.
            let (nodes, deferral) = unsafe {
                (
                    std::slice::from_raw_parts_mut(base.add(range.start), range.len()),
                    std::slice::from_raw_parts_mut(deferral.add(range.start), range.len()),
                )
            };
            drive_shard(nodes, deferral, defer, tick_ms)
        }));
        match driven {
            Ok(out) => {
                *slot.out.lock() = ShardOutput { probe, ..out };
            }
            Err(_) => ctl.poisoned.store(true, Ordering::Release),
        }
        let poisoned = ctl.poisoned.load(Ordering::Relaxed);
        ctl.done.fetch_add(1, Ordering::Release);
        if poisoned {
            return;
        }
    }
}

/// Structure-of-arrays hot state for the fleet's per-tick scans.
///
/// The control-plane scan and the recovery flush each need one question
/// answered per tick — "is anything due yet?" — but answering it out of the
/// node structs means touching every node's cache-cold control fields every
/// tick. This keeps the earliest due time per node in one dense array (and
/// the earliest pending recovery as a single scalar), so the scans are
/// gated by a linear walk over `8 × n` bytes instead of `n` scattered
/// struct reads.
///
/// Every entry is a *lower bound*: it must never exceed the node's true
/// earliest due time (a too-early entry costs one no-op scan; a too-late
/// one would skip real work). The fleet refreshes a node's entry after
/// every mutation of its control fields.
///
/// Beside them sits one deferral entry per node: [`DRIVEN`], or the ticks
/// a deferred node owes. The drive loop reads it before the node struct,
/// so a deferred node costs one dense `u64` increment per tick. Deferral
/// entries are scheduling state, not fleet state: they are not encoded,
/// and a restored fleet starts with every node driven.
#[derive(Debug, Clone, Default)]
pub struct HotState {
    control_due: Vec<u64>,
    next_recovery_at: u64,
    deferral: Vec<u64>,
}

impl HotState {
    /// Empty hot state (no nodes, no pending recoveries).
    pub fn new() -> Self {
        Self {
            control_due: Vec::new(),
            next_recovery_at: u64::MAX,
            deferral: Vec::new(),
        }
    }

    /// Register one more node (nothing due, driven every tick).
    pub fn push_node(&mut self) {
        self.control_due.push(u64::MAX);
        self.deferral.push(DRIVEN);
    }

    /// Ticks node `idx` owes (0 for a node driven every tick).
    pub(crate) fn owed(&self, idx: usize) -> u64 {
        match self.deferral[idx] {
            DRIVEN => 0,
            owed => owed,
        }
    }

    /// Clear node `idx`'s owed ticks and return them; a deferred node
    /// stays deferred.
    pub(crate) fn take_owed(&mut self, idx: usize) -> u64 {
        let owed = self.owed(idx);
        if owed > 0 {
            self.deferral[idx] = 0;
        }
        owed
    }

    /// Drive node `idx` every tick again. Whatever it owed is dropped, so
    /// the caller replays it first.
    pub(crate) fn lower_deferral(&mut self, idx: usize) {
        self.deferral[idx] = DRIVEN;
    }

    /// The deferral entries, in node order, for the drive loop.
    pub(crate) fn deferral_mut(&mut self) -> &mut [u64] {
        &mut self.deferral
    }

    /// Earliest time node `idx`'s control scan can act (`u64::MAX` = never).
    pub fn control_due(&self, idx: usize) -> u64 {
        self.control_due[idx]
    }

    /// Record node `idx`'s recomputed earliest control-due time.
    pub fn set_control_due(&mut self, idx: usize, at: u64) {
        self.control_due[idx] = at;
    }

    /// A crash recovery will complete at `at`.
    pub fn note_recovery(&mut self, at: u64) {
        self.next_recovery_at = self.next_recovery_at.min(at);
    }

    /// Earliest pending recovery completion (`u64::MAX` = none).
    pub fn next_recovery_at(&self) -> u64 {
        self.next_recovery_at
    }

    /// Replace the earliest-recovery bound after a flush.
    pub fn set_next_recovery(&mut self, at: u64) {
        self.next_recovery_at = at;
    }
}

use autodbaas_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(DriveStats {
    node_ticks,
    submitted,
    down_ticks
});

impl Snap for HotState {
    fn encode(&self, w: &mut SnapWriter) {
        self.control_due.encode(w);
        self.next_recovery_at.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let control_due = Vec::<u64>::decode(r)?;
        let deferral = vec![DRIVEN; control_due.len()];
        Ok(Self {
            control_due,
            next_recovery_at: Snap::decode(r)?,
            deferral,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_core::{TdeConfig, TuningPolicy};
    use autodbaas_simdb::{Backend, DbFlavor, DiskKind, InstanceType};
    use autodbaas_tuner::WorkloadId;
    use autodbaas_workload::{tpcc, ArrivalProcess};

    fn fleet(n: usize) -> Vec<ManagedDatabase> {
        fleet_at(n, |_| 80.0)
    }

    fn fleet_at(n: usize, qps: impl Fn(usize) -> f64) -> Vec<ManagedDatabase> {
        (0..n)
            .map(|i| {
                let wl = tpcc(0.5);
                let catalog = wl.catalog().clone();
                ManagedDatabase::new(
                    DbFlavor::Postgres,
                    InstanceType::M4Large,
                    DiskKind::Ssd,
                    catalog,
                    Box::new(wl),
                    ArrivalProcess::Constant(qps(i)),
                    TuningPolicy::TdeDriven,
                    WorkloadId(0),
                    TdeConfig::default(),
                    100 + i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn derived_seeds_are_distinct_and_shard0_is_master() {
        assert_eq!(derived_shard_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..16).map(|i| derived_shard_seed(42, i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// Every third node is loaded, the rest zero-rate. With deferral on,
    /// a zero-rate node is driven once and then only owes ticks; replaying
    /// what it owes leaves it where the serial drive does.
    #[test]
    fn any_shard_count_matches_the_serial_drive_bit_for_bit() {
        let ticks = 30u64;
        let qps = |i: usize| if i.is_multiple_of(3) { 80.0 } else { 0.0 };
        let state = |nodes: &[ManagedDatabase]| -> Vec<(u64, u64, Vec<u64>)> {
            nodes
                .iter()
                .map(|n| {
                    let snap = n.db().metrics_snapshot();
                    let bits = snap.as_vec().iter().map(|v| v.to_bits()).collect();
                    (n.queries_submitted, n.total_ticks, bits)
                })
                .collect()
        };
        let mut serial = fleet_at(13, qps);
        let mut serial_stats = DriveStats::default();
        for _ in 0..ticks {
            serial_stats.node_ticks += serial.len() as u64;
            for node in &mut serial {
                let t = node.drive(1_000);
                serial_stats.submitted += t.submitted;
                serial_stats.down_ticks += u64::from(t.down);
            }
        }
        let reference = state(&serial);
        for defer in [false, true] {
            for shards in [1usize, 2, 3, 5, 13, 64] {
                let mut nodes = fleet_at(13, qps);
                let mut pool = ShardPool::new(shards, nodes.len(), 0x5eed ^ 7);
                let mut deferral = vec![DRIVEN; nodes.len()];
                let mut stats = DriveStats::default();
                for _ in 0..ticks {
                    stats.accumulate(&pool.drive_tick(&mut nodes, &mut deferral, defer, 1_000));
                }
                assert_eq!(stats, serial_stats, "defer={defer} shards={shards}");
                for (i, (node, &owed)) in nodes.iter_mut().zip(&deferral).enumerate() {
                    let quiet = defer && qps(i) == 0.0;
                    assert_eq!(owed, if quiet { ticks - 1 } else { DRIVEN }, "node {i}");
                    if quiet {
                        node.replay(owed, 1_000);
                    }
                }
                assert_eq!(state(&nodes), reference, "defer={defer} shards={shards}");
            }
        }
    }

    #[test]
    fn pool_survives_many_epochs_and_rebuild() {
        let mut nodes = fleet(6);
        {
            let mut pool = ShardPool::new(3, 6, 9);
            assert_eq!(pool.shards(), 3);
            for _ in 0..200 {
                pool.drive_tick(&mut nodes, &mut [DRIVEN; 6], false, 250);
            }
        } // drop joins the workers
        let mut pool = ShardPool::new(2, 6, 9);
        let stats = pool.drive_tick(&mut nodes, &mut [DRIVEN; 6], false, 250);
        assert_eq!(stats.node_ticks, 6);
    }

    #[test]
    fn shard_count_is_clamped_to_fleet_size() {
        let pool = ShardPool::new(64, 3, 1);
        assert!(pool.shards() <= 3);
        let pool = ShardPool::new(0, 3, 1);
        assert_eq!(pool.shards(), 1);
    }

    #[test]
    #[should_panic(expected = "different fleet size")]
    fn driving_a_resized_fleet_is_rejected() {
        let mut nodes = fleet(4);
        let mut pool = ShardPool::new(2, 5, 1);
        pool.drive_tick(&mut nodes, &mut [DRIVEN; 4], false, 1_000);
    }

    #[test]
    fn hot_state_tracks_lower_bounds() {
        let mut hot = HotState::new();
        hot.push_node();
        hot.push_node();
        assert_eq!(hot.control_due(0), u64::MAX);
        hot.set_control_due(1, 5_000);
        assert_eq!(hot.control_due(1), 5_000);
        assert_eq!(hot.next_recovery_at(), u64::MAX);
        hot.note_recovery(9_000);
        hot.note_recovery(7_000);
        assert_eq!(hot.next_recovery_at(), 7_000);
        hot.set_next_recovery(u64::MAX);
        assert_eq!(hot.next_recovery_at(), u64::MAX);

        // Deferral entries count owed ticks and are never encoded.
        let bytes = autodbaas_snapshot::encode_to_vec(&hot);
        hot.deferral_mut()[1] = 3;
        assert_eq!((hot.owed(0), hot.owed(1)), (0, 3));
        assert_eq!(autodbaas_snapshot::encode_to_vec(&hot), bytes);
        assert_eq!((hot.take_owed(0), hot.take_owed(1)), (0, 3));
        assert_eq!(hot.deferral_mut(), [DRIVEN, 0], "still deferred");
        hot.lower_deferral(1);
        let restored: HotState = autodbaas_snapshot::decode_from_slice(&bytes).unwrap();
        assert_eq!(restored.deferral, [DRIVEN, DRIVEN]);
        assert_eq!(restored.deferral, hot.deferral);
    }
}
