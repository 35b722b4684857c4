//! Clock-sweep buffer pool with working-set gauging.
//!
//! The pool operates on fixed-size *chunks* (default 256 KiB) rather than
//! raw 8 KiB pages so that an 80-database fleet simulation holds a constant,
//! small amount of state per instance while still producing realistic hit
//! ratios, dirty-page backlogs, and working-set estimates.
//!
//! Working-set gauging follows the approach the paper adopts from
//! Curino et al. \[5\]: count the distinct pages (chunks) touched during an
//! observation epoch; that is the "actual working page set" the config
//! director compares against the buffer-pool knob during maintenance
//! windows.
//!
//! The epoch set is kept as 64-chunk bitmap words (`chunk / 64` → mask) with
//! a running count of set bits: every access inserts into it, and a scan's
//! adjacent chunks share one word, so the set stays small enough to sit in
//! cache instead of holding one hashed entry per chunk.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Default chunk granularity.
pub const DEFAULT_CHUNK_BYTES: u64 = 256 * 1024;

/// Multiply-fold hasher for chunk ids (FxHash-style). [`BufferPool::access`]
/// runs once per chunk per query execution, and the default SipHash
/// dominates it; chunk ids are dense integers that don't need DoS-resistant
/// hashing.
#[derive(Default)]
struct ChunkHasher(u64);

impl std::hash::Hasher for ChunkHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type ChunkBuild = BuildHasherDefault<ChunkHasher>;

/// Identifies a chunk of the database's address space. The executor maps
/// `(table, page range)` onto this flat space.
pub type ChunkId = u64;

#[derive(Debug, Clone, Copy)]
struct Frame {
    chunk: ChunkId,
    referenced: bool,
    dirty: bool,
}

/// Counters the metrics layer exports (`blks_hit`, `blks_read`,
/// `buffers_backend`, …).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Accesses satisfied in the pool.
    pub hits: u64,
    /// Accesses that had to read from disk.
    pub misses: u64,
    /// Dirty frames written back by *backends* during eviction (the
    /// overloaded case the background writer exists to prevent).
    pub backend_writes: u64,
    /// Frames evicted in total.
    pub evictions: u64,
}

/// A clock-sweep (second-chance) buffer pool over chunks.
#[derive(Debug, Clone)]
pub struct BufferPool {
    chunk_bytes: u64,
    /// Frames the pool may hold.
    capacity: usize,
    /// Resident frames only. A frame is never invalidated (only `resize`
    /// rebuilds the pool), so they fill `[0, capacity)` in order, and the
    /// clock sweep starts once the last one is taken.
    frames: Vec<Frame>,
    map: HashMap<ChunkId, u32, ChunkBuild>,
    hand: usize,
    stats: PoolStats,
    /// Dirty-frame count maintained incrementally — the background writer
    /// polls it every tick, so it must not cost a frame scan.
    dirty_frames: usize,
    /// Lower bound on the smallest dirty frame index (`capacity` when
    /// none): [`BufferPool::clean_dirty`] cleans in ascending frame order,
    /// so starting the scan here skips the long clean prefix a mostly-idle
    /// pool accumulates. Every frame below this index is clean.
    dirty_low: usize,
    /// Chunks touched this epoch as bitmap words: key `chunk / 64`, bit
    /// `chunk % 64`.
    epoch_words: HashMap<u64, u64, ChunkBuild>,
    /// Set bits across `epoch_words` — the distinct chunks touched this
    /// epoch. Rises only when a bit goes from 0 to 1.
    epoch_touched: u64,
}

impl BufferPool {
    /// A pool of `capacity_bytes`, managed in `chunk_bytes` units. Capacity
    /// below one chunk still gets one frame — a database can't run with a
    /// zero buffer.
    pub fn new(capacity_bytes: u64, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0);
        let n = (capacity_bytes / chunk_bytes).max(1) as usize;
        Self {
            chunk_bytes,
            capacity: n,
            // Frames and map grow with residency: a pool that is never
            // queried must not carry an array or a table sized for every
            // frame.
            frames: Vec::new(),
            map: HashMap::default(),
            hand: 0,
            stats: PoolStats::default(),
            dirty_frames: 0,
            dirty_low: n,
            epoch_words: HashMap::default(),
            epoch_touched: 0,
        }
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Chunk granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Access one chunk; returns `true` on a hit. A `write` access marks the
    /// frame dirty. Misses evict via clock sweep; evicting a dirty frame
    /// counts as a backend write (it stalls a real query in a real DBMS,
    /// which is exactly what bgwriter knobs are tuned to avoid).
    pub fn access(&mut self, chunk: ChunkId, write: bool) -> bool {
        self.touch(chunk);
        if let Some(&idx) = self.map.get(&chunk) {
            let f = &mut self.frames[idx as usize];
            f.referenced = true;
            if write && !f.dirty {
                f.dirty = true;
                self.dirty_frames += 1;
                self.dirty_low = self.dirty_low.min(idx as usize);
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // New frames start unreferenced (PostgreSQL-style usage counting):
        // only a *re*-access earns a second chance, so one-shot scans don't
        // flush the hot set.
        let frame = Frame {
            chunk,
            referenced: false,
            dirty: write,
        };
        let victim = if self.frames.len() < self.capacity {
            // Filling: the hand always rests on the next free frame, which
            // is where the sweep would stop.
            self.frames.push(frame);
            self.hand = self.frames.len() % self.capacity;
            self.frames.len() - 1
        } else {
            let victim = self.find_victim();
            let old = std::mem::replace(&mut self.frames[victim], frame);
            self.map.remove(&old.chunk);
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.backend_writes += 1;
                self.dirty_frames -= 1;
            }
            victim
        };
        self.map.insert(chunk, victim as u32);
        if write {
            self.dirty_frames += 1;
            self.dirty_low = self.dirty_low.min(victim);
        }
        debug_assert!(
            self.map.len() <= self.frames.len(),
            "mapped chunks exceed frame capacity"
        );
        debug_assert!(
            self.dirty_frames <= self.frames.len(),
            "dirty counter exceeds frame capacity"
        );
        false
    }

    /// Add `chunk` to the epoch set; a repeat touch changes nothing.
    #[inline]
    fn touch(&mut self, chunk: ChunkId) {
        let word = self.epoch_words.entry(chunk >> 6).or_insert(0);
        let bit = 1u64 << (chunk & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.epoch_touched += 1;
        }
    }

    fn find_victim(&mut self) -> usize {
        // Clock sweep over a full pool: clear reference bits until an
        // unreferenced frame is found. Bounded by 2 full sweeps.
        for _ in 0..self.frames.len() * 2 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[idx];
            if f.referenced {
                f.referenced = false;
            } else {
                return idx;
            }
        }
        // Every frame referenced twice in a row — take the current hand.
        let idx = self.hand;
        self.hand = (self.hand + 1) % self.frames.len();
        idx
    }

    /// Number of dirty frames awaiting writeback (O(1); maintained on every
    /// access/clean/evict).
    pub fn dirty_count(&self) -> usize {
        self.dirty_frames
    }

    /// Clean up to `max` dirty frames (oldest-position first), returning how
    /// many were cleaned. The background writer and checkpointer call this;
    /// the *disk traffic* for the writes is accounted by the caller.
    ///
    /// The scan starts at the first possibly-dirty frame and exits O(1)
    /// when nothing is dirty — the background writer polls every tick, and
    /// a mostly-clean pool must not pay a full frame sweep for it. The
    /// cleaning order (ascending frame index) is unchanged.
    pub fn clean_dirty(&mut self, max: usize) -> usize {
        if self.dirty_frames == 0 || max == 0 {
            return 0;
        }
        let mut cleaned = 0;
        let mut idx = self.dirty_low;
        while idx < self.frames.len() && cleaned < max {
            let f = &mut self.frames[idx];
            if f.dirty {
                f.dirty = false;
                cleaned += 1;
            }
            idx += 1;
        }
        self.dirty_frames -= cleaned;
        self.dirty_low = if self.dirty_frames == 0 {
            self.capacity
        } else {
            idx
        };
        // This path already paid for a frame scan, so it is the cheap place
        // to re-check the incrementally-maintained counter against truth.
        debug_assert_eq!(
            self.dirty_frames,
            self.frames.iter().filter(|f| f.dirty).count(),
            "incremental dirty counter diverged from frame state"
        );
        cleaned
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Hit ratio over the pool's lifetime (1.0 when no accesses yet, so an
    /// idle database doesn't look like it's thrashing).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            1.0
        } else {
            self.stats.hits as f64 / total as f64
        }
    }

    /// Distinct chunks touched since the last epoch reset, in bytes — the
    /// working-set gauge. `reset` starts a new epoch.
    pub fn working_set_bytes(&mut self, reset: bool) -> u64 {
        let ws = self.epoch_touched * self.chunk_bytes;
        if reset {
            self.epoch_words.clear();
            self.epoch_touched = 0;
        }
        ws
    }

    /// Replace the pool with a new capacity (models a restart that applies
    /// a new `shared_buffers`). All cached state is lost — cold cache.
    pub fn resize(&mut self, capacity_bytes: u64) {
        *self = BufferPool::new(capacity_bytes, self.chunk_bytes);
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(Frame {
    chunk,
    referenced,
    dirty
});
autodbaas_snapshot::snap_struct!(PoolStats {
    hits,
    misses,
    backend_writes,
    evictions
});

/// The chunk map and the epoch words use a custom hasher, so the blanket
/// hash-container impls don't apply: the map is rebuilt from the resident
/// frames (it is a pure index), and the epoch set encodes as the ascending
/// list of touched chunk ids — words sorted by key, bits expanded low to
/// high — the same bytes a sorted `Vec<ChunkId>` encodes to.
impl autodbaas_snapshot::Snap for BufferPool {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        self.chunk_bytes.encode(w);
        self.capacity.encode(w);
        self.frames.encode(w);
        self.hand.encode(w);
        self.stats.encode(w);
        self.dirty_frames.encode(w);
        self.dirty_low.encode(w);
        // detlint-allow: D003 collected then sorted before any byte is written
        let mut words: Vec<_> = self.epoch_words.iter().collect();
        words.sort_unstable_by_key(|&(&key, _)| key);
        w.put_u64(self.epoch_touched);
        for (&key, &word) in words {
            let mut mask = word;
            while mask != 0 {
                w.put_u64(key << 6 | u64::from(mask.trailing_zeros()));
                mask &= mask - 1;
            }
        }
    }
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        let chunk_bytes = u64::decode(r)?;
        let capacity = usize::decode(r)?;
        let frames = Vec::<Frame>::decode(r)?;
        let hand = usize::decode(r)?;
        let stats = PoolStats::decode(r)?;
        let dirty_frames = usize::decode(r)?;
        let dirty_low = usize::decode(r)?;
        let touched = Vec::<ChunkId>::decode(r)?;
        // `new`, the fill, the clock sweep and `clean_dirty` trust these
        // scalars; one no pool could hold is refused here, not at the next
        // access.
        use autodbaas_snapshot::SnapError::Malformed;
        if chunk_bytes == 0 || capacity == 0 {
            return Err(Malformed("buffer pool geometry"));
        }
        if frames.len() > capacity {
            return Err(Malformed("buffer pool frames past capacity"));
        }
        if hand >= capacity {
            return Err(Malformed("buffer pool clock hand past capacity"));
        }
        if frames.len() < capacity && hand != frames.len() {
            return Err(Malformed("buffer pool clock hand off the fill point"));
        }
        let mut map = HashMap::with_capacity_and_hasher(frames.len(), ChunkBuild::default());
        let (mut dirty, mut first_dirty) = (0, capacity);
        for (idx, f) in frames.iter().enumerate() {
            // A chunk two frames hold would map to only one of them, and
            // evicting the other would unmap it.
            if map.insert(f.chunk, idx as u32).is_some() {
                return Err(Malformed("buffer pool chunk held by two frames"));
            }
            if f.dirty {
                dirty += 1;
                first_dirty = first_dirty.min(idx);
            }
        }
        if dirty_frames != dirty || dirty_low > first_dirty {
            return Err(Malformed("buffer pool dirty tracking"));
        }
        // Key changes along the list: the exact word count for an encoded
        // (sorted) list, and at most its length for any other.
        let keys = touched
            .windows(2)
            .filter(|p| p[0] >> 6 != p[1] >> 6)
            .count()
            + 1;
        let epoch_words =
            HashMap::with_capacity_and_hasher(keys.min(touched.len()), ChunkBuild::default());
        let mut pool = Self {
            chunk_bytes,
            capacity,
            frames,
            map,
            hand,
            stats,
            dirty_frames,
            dirty_low,
            epoch_words,
            epoch_touched: 0,
        };
        for chunk in touched {
            pool.touch(chunk);
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(frames as u64 * DEFAULT_CHUNK_BYTES, DEFAULT_CHUNK_BYTES)
    }

    #[test]
    fn repeat_access_hits() {
        let mut p = pool(4);
        assert!(!p.access(1, false));
        assert!(p.access(1, false));
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut p = pool(2);
        p.access(1, false);
        p.access(2, false);
        p.access(3, false); // evicts something
        assert_eq!(p.stats().evictions, 1);
        let resident = [1u64, 2, 3]
            .iter()
            .filter(|&&c| p.map.contains_key(&c))
            .count();
        assert_eq!(resident, 2);
    }

    #[test]
    fn clock_gives_second_chance_to_hot_chunk() {
        let mut p = pool(2);
        p.access(1, false);
        p.access(2, false);
        p.access(1, false); // re-reference 1
        p.access(3, false); // should evict 2, not the re-referenced 1
        assert!(p.map.contains_key(&1), "hot chunk evicted");
        assert!(!p.map.contains_key(&2));
    }

    #[test]
    fn writes_mark_dirty_and_cleaning_clears() {
        let mut p = pool(8);
        for c in 0..5u64 {
            p.access(c, true);
        }
        assert_eq!(p.dirty_count(), 5);
        assert_eq!(p.clean_dirty(3), 3);
        assert_eq!(p.dirty_count(), 2);
        assert_eq!(p.clean_dirty(100), 2);
        assert_eq!(p.dirty_count(), 0);
    }

    #[test]
    fn evicting_dirty_frame_counts_backend_write() {
        let mut p = pool(1);
        p.access(1, true);
        p.access(2, false); // evicts dirty chunk 1
        assert_eq!(p.stats().backend_writes, 1);
    }

    #[test]
    fn working_set_counts_distinct_chunks() {
        let mut p = pool(2); // pool smaller than WS — gauge must still see all
        for c in 0..10u64 {
            p.access(c, false);
        }
        for _ in 0..5 {
            p.access(0, false);
        }
        assert_eq!(p.working_set_bytes(true), 10 * DEFAULT_CHUNK_BYTES);
        assert_eq!(p.working_set_bytes(false), 0);
    }

    #[test]
    fn hit_ratio_idle_is_one() {
        let p = pool(2);
        assert_eq!(p.hit_ratio(), 1.0);
    }

    #[test]
    fn resize_cold_starts() {
        let mut p = pool(4);
        p.access(1, true);
        p.resize(8 * DEFAULT_CHUNK_BYTES);
        assert_eq!(p.capacity(), 8);
        assert_eq!(p.dirty_count(), 0);
        assert!(!p.access(1, false), "cache must be cold after resize");
    }

    #[test]
    fn dirty_counter_matches_frame_scan() {
        let scan = |p: &BufferPool| p.frames.iter().filter(|f| f.dirty).count();
        let mut p = pool(4);
        // Misses (some evicting dirty frames), hits, re-dirtying hits.
        for c in 0..10u64 {
            p.access(c, c % 2 == 0);
            assert_eq!(p.dirty_count(), scan(&p), "after miss {c}");
        }
        p.access(8, true);
        p.access(8, true); // double-dirty on the hit path must count once
        assert_eq!(p.dirty_count(), scan(&p));
        p.clean_dirty(1);
        assert_eq!(p.dirty_count(), scan(&p));
        p.clean_dirty(100);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(scan(&p), 0);
    }

    #[test]
    fn minimum_one_frame() {
        let p = BufferPool::new(0, DEFAULT_CHUNK_BYTES);
        assert_eq!(p.capacity(), 1);
    }

    use autodbaas_snapshot::{decode_from_slice, encode_to_vec, SnapError};

    /// Encode a full four-frame pool (frames 1 and 3 dirty, `dirty_low` 1,
    /// or nothing dirty) after `edit` set its scalars, and restore it:
    /// decode must refuse it as `Malformed(what)`. A pool that decodes
    /// anyway is driven through what a restored database does first, so
    /// each edit fails where it used to: at the operation it breaks, or at
    /// the closing panic.
    fn assert_restore_is_malformed(dirty: bool, what: &str, edit: impl FnOnce(&mut BufferPool)) {
        let mut p = pool(4);
        for c in 0..4u64 {
            p.access(c, dirty && c % 2 == 1);
        }
        edit(&mut p);
        match decode_from_slice::<BufferPool>(&encode_to_vec(&p)) {
            Err(e) => assert!(matches!(e, SnapError::Malformed(m) if m == what), "{e:?}"),
            Ok(mut back) => {
                back.clean_dirty(usize::MAX);
                assert_eq!(back.dirty_count(), 0, "a full clean left dirty frames");
                back.access(9, true);
                back.resize(8 * DEFAULT_CHUNK_BYTES);
                panic!("an impossible pool decoded");
            }
        }
    }

    #[test]
    fn legitimate_scalars_round_trip() {
        // Filling (2 of 4 frames), just full, and wrapped.
        for accesses in [2, 4, 6u64] {
            for dirty in [false, true] {
                let mut p = pool(4);
                for c in 0..accesses {
                    p.access(c, dirty && c % 2 == 1);
                }
                let bytes = encode_to_vec(&p);
                let back: BufferPool = decode_from_slice(&bytes).unwrap();
                assert_eq!(encode_to_vec(&back), bytes);
            }
        }
    }

    #[test]
    fn a_never_queried_pool_encodes_no_frames() {
        let small = encode_to_vec(&pool(1));
        let large = encode_to_vec(&pool(10_000));
        assert_eq!(small.len(), large.len());
        let back: BufferPool = decode_from_slice(&large).unwrap();
        assert_eq!(back.capacity(), 10_000);
        assert_eq!(encode_to_vec(&back), large);
    }

    #[test]
    fn zero_chunk_bytes_is_malformed() {
        assert_restore_is_malformed(true, "buffer pool geometry", |p| p.chunk_bytes = 0);
    }

    #[test]
    fn zero_capacity_is_malformed() {
        assert_restore_is_malformed(false, "buffer pool geometry", |p| {
            p.capacity = 0;
            p.frames.clear();
            p.dirty_low = 0;
        });
    }

    #[test]
    fn more_frames_than_capacity_is_malformed() {
        assert_restore_is_malformed(true, "buffer pool frames past capacity", |p| p.capacity = 3);
    }

    #[test]
    fn clock_hand_past_the_end_is_malformed() {
        assert_restore_is_malformed(true, "buffer pool clock hand past capacity", |p| p.hand = 4);
    }

    #[test]
    fn filling_pool_hand_off_the_fill_point_is_malformed() {
        // Four frames of five: the next miss takes frame 4, so the hand
        // must rest there.
        assert_restore_is_malformed(true, "buffer pool clock hand off the fill point", |p| {
            p.capacity = 5
        });
    }

    #[test]
    fn dirty_count_unlike_the_frames_is_malformed() {
        for n in [1, 3] {
            assert_restore_is_malformed(true, "buffer pool dirty tracking", |p| p.dirty_frames = n);
        }
    }

    #[test]
    fn dirty_bound_past_a_dirty_frame_or_the_end_is_malformed() {
        let what = "buffer pool dirty tracking";
        assert_restore_is_malformed(true, what, |p| p.dirty_low = 2);
        assert_restore_is_malformed(false, what, |p| p.dirty_low = 5);
    }

    #[test]
    fn two_valid_frames_on_one_chunk_is_malformed() {
        for dirty in [false, true] {
            assert_restore_is_malformed(dirty, "buffer pool chunk held by two frames", |p| {
                p.frames[1].chunk = p.frames[0].chunk
            });
        }
    }
}

/// Reference oracle for the working-set gauge and the lazy frame array: the
/// clock pool with an up-front array of `capacity` frames (an empty one is
/// `None`) and the epoch set held as a plain set of touched chunk ids. The
/// set is a `BTreeSet` (detlint's D003 covers test code too), so its
/// encoding needs no sort. Random access streams (chunk ids across word
/// boundaries, reads and writes, cleaning, epoch resets, snapshot round
/// trips, while the pool fills and after it wraps) must give the same
/// hit/miss results, the same `working_set_bytes` and the same encoded
/// bytes at every step.
#[cfg(test)]
mod gauge_oracle {
    use super::*;
    use autodbaas_snapshot::{
        decode_from_slice, encode_to_vec, Snap, SnapError, SnapReader, SnapWriter,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The pool with a full frame array and a set-of-chunks epoch set.
    struct RefPool {
        chunk_bytes: u64,
        frames: Vec<Option<Frame>>,
        map: HashMap<ChunkId, u32>,
        hand: usize,
        stats: PoolStats,
        dirty_frames: usize,
        dirty_low: usize,
        epoch_touched: BTreeSet<ChunkId>,
    }

    impl RefPool {
        fn new(capacity_bytes: u64, chunk_bytes: u64) -> Self {
            let n = (capacity_bytes / chunk_bytes).max(1) as usize;
            Self {
                chunk_bytes,
                frames: vec![None; n],
                map: HashMap::new(),
                hand: 0,
                stats: PoolStats::default(),
                dirty_frames: 0,
                dirty_low: n,
                epoch_touched: BTreeSet::new(),
            }
        }

        fn access(&mut self, chunk: ChunkId, write: bool) -> bool {
            self.epoch_touched.insert(chunk);
            if let Some(&idx) = self.map.get(&chunk) {
                let f = self.frames[idx as usize]
                    .as_mut()
                    .expect("mapped frame is valid");
                f.referenced = true;
                if write && !f.dirty {
                    f.dirty = true;
                    self.dirty_frames += 1;
                    self.dirty_low = self.dirty_low.min(idx as usize);
                }
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let victim = self.find_victim();
            if let Some(old) = self.frames[victim] {
                self.map.remove(&old.chunk);
                self.stats.evictions += 1;
                if old.dirty {
                    self.stats.backend_writes += 1;
                    self.dirty_frames -= 1;
                }
            }
            self.frames[victim] = Some(Frame {
                chunk,
                referenced: false,
                dirty: write,
            });
            self.map.insert(chunk, victim as u32);
            if write {
                self.dirty_frames += 1;
                self.dirty_low = self.dirty_low.min(victim);
            }
            false
        }

        fn find_victim(&mut self) -> usize {
            for _ in 0..self.frames.len() * 2 {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let Some(f) = &mut self.frames[idx] else {
                    return idx;
                };
                if f.referenced {
                    f.referenced = false;
                } else {
                    return idx;
                }
            }
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            idx
        }

        fn clean_dirty(&mut self, max: usize) -> usize {
            if self.dirty_frames == 0 || max == 0 {
                return 0;
            }
            let mut cleaned = 0;
            let mut idx = self.dirty_low;
            while idx < self.frames.len() && cleaned < max {
                if let Some(f) = &mut self.frames[idx] {
                    if f.dirty {
                        f.dirty = false;
                        cleaned += 1;
                    }
                }
                idx += 1;
            }
            self.dirty_frames -= cleaned;
            self.dirty_low = if self.dirty_frames == 0 {
                self.frames.len()
            } else {
                idx
            };
            cleaned
        }

        fn working_set_bytes(&mut self, reset: bool) -> u64 {
            let ws = self.epoch_touched.len() as u64 * self.chunk_bytes;
            if reset {
                self.epoch_touched.clear();
            }
            ws
        }

        fn resident(&self) -> usize {
            self.frames.iter().filter(|f| f.is_some()).count()
        }

        /// Everything the encoding holds before the epoch list: the valid
        /// frames are written as a prefix, so they must be one.
        fn encode_head(&self, w: &mut SnapWriter) {
            let prefix: Vec<Frame> = self.frames.iter().map_while(|f| *f).collect();
            assert_eq!(
                prefix.len(),
                self.resident(),
                "valid frames are not a prefix"
            );
            self.chunk_bytes.encode(w);
            self.frames.len().encode(w);
            prefix.encode(w);
            self.hand.encode(w);
            self.stats.encode(w);
            self.dirty_frames.encode(w);
            self.dirty_low.encode(w);
        }
    }

    impl Snap for RefPool {
        fn encode(&self, w: &mut SnapWriter) {
            self.encode_head(w);
            let touched: Vec<ChunkId> = self.epoch_touched.iter().copied().collect();
            touched.encode(w);
        }
        fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let chunk_bytes = u64::decode(r)?;
            let capacity = usize::decode(r)?;
            let prefix = Vec::<Frame>::decode(r)?;
            let hand = usize::decode(r)?;
            let stats = PoolStats::decode(r)?;
            let dirty_frames = usize::decode(r)?;
            let dirty_low = usize::decode(r)?;
            let touched = Vec::<ChunkId>::decode(r)?;
            let map = prefix
                .iter()
                .enumerate()
                .map(|(idx, f)| (f.chunk, idx as u32))
                .collect();
            let mut frames: Vec<Option<Frame>> = prefix.into_iter().map(Some).collect();
            frames.resize(capacity, None);
            Ok(Self {
                chunk_bytes,
                frames,
                map,
                hand,
                stats,
                dirty_frames,
                dirty_low,
                epoch_touched: touched.into_iter().collect(),
            })
        }
    }

    /// Chunk ids on and around word boundaries, at both ends of the id space.
    const EDGES: [ChunkId; 10] = [
        0,
        1,
        63,
        64,
        65,
        127,
        128,
        u64::MAX - 64,
        u64::MAX - 63,
        u64::MAX,
    ];

    /// Mostly a few words' worth of small ids (repeats and evictions), some
    /// word-boundary ids, now and then one anywhere in the id space.
    fn draw_chunk(rng: &mut StdRng) -> ChunkId {
        match rng.gen_range(0..10) {
            0..=1 => EDGES[rng.gen_range(0..EDGES.len())],
            2 => rng.gen(),
            _ => rng.gen_range(0..256),
        }
    }

    /// Round-trip both pools through their bytes.
    fn round_trip(pool: &mut BufferPool, reference: &mut RefPool) {
        *pool = decode_from_slice(&encode_to_vec(&*pool)).expect("pool bytes decode");
        *reference =
            decode_from_slice(&encode_to_vec(&*reference)).expect("reference bytes decode");
    }

    /// Drive `pool` and `reference` through `steps` random operations,
    /// asserting agreement after every one. Accesses draw their chunk from
    /// `chunks` when it is given (a step with an empty list round-trips
    /// instead), else from [`draw_chunk`].
    fn drive(
        pool: &mut BufferPool,
        reference: &mut RefPool,
        rng: &mut StdRng,
        steps: usize,
        chunks: Option<&[ChunkId]>,
    ) {
        for step in 0..steps {
            match rng.gen_range(0..100) {
                0..=74 if chunks != Some(&[]) => {
                    let chunk = match chunks {
                        Some(few) => few[rng.gen_range(0..few.len())],
                        None => draw_chunk(rng),
                    };
                    let write = rng.gen_bool(0.3);
                    assert_eq!(
                        pool.access(chunk, write),
                        reference.access(chunk, write),
                        "hit/miss of chunk {chunk} at step {step}"
                    );
                }
                75..=84 => assert_eq!(
                    pool.working_set_bytes(true),
                    reference.working_set_bytes(true),
                    "working set at the reset of step {step}"
                ),
                85..=89 => {
                    let max = rng.gen_range(0..4);
                    assert_eq!(
                        pool.clean_dirty(max),
                        reference.clean_dirty(max),
                        "frames cleaned at step {step}"
                    );
                }
                _ => round_trip(pool, reference),
            }
            assert_eq!(
                pool.working_set_bytes(false),
                reference.working_set_bytes(false),
                "working set after step {step}"
            );
            assert_eq!(
                encode_to_vec(&*pool),
                encode_to_vec(&*reference),
                "encoded pool after step {step}"
            );
        }
    }

    proptest! {
        #[test]
        fn word_gauge_matches_set_reference(seed in 0u64..u64::MAX, frames in 1u64..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = frames * DEFAULT_CHUNK_BYTES;
            let mut pool = BufferPool::new(capacity, DEFAULT_CHUNK_BYTES);
            let mut reference = RefPool::new(capacity, DEFAULT_CHUNK_BYTES);
            // Fill partway: at most `frames - 1` distinct chunks can never
            // fill the pool, so every round trip here is of a filling one.
            let few: Vec<ChunkId> = (1..frames).map(|_| draw_chunk(&mut rng)).collect();
            drive(&mut pool, &mut reference, &mut rng, 60, Some(&few));
            round_trip(&mut pool, &mut reference);
            prop_assert!(reference.resident() < reference.frames.len());
            prop_assert_eq!(pool.frames.len(), reference.resident());
            // Then the open stream, which fills the pool and wraps it.
            drive(&mut pool, &mut reference, &mut rng, 200, None);
            prop_assert_eq!(pool.frames.len(), pool.capacity());
            prop_assert!(pool.stats().evictions > 0, "the clock never wrapped");
        }

        #[test]
        fn unsorted_epoch_list_decodes_like_reference(seed in 0u64..u64::MAX, len in 0usize..150) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = RefPool::new(4 * DEFAULT_CHUNK_BYTES, DEFAULT_CHUNK_BYTES);
            for _ in 0..20 {
                reference.access(draw_chunk(&mut rng), rng.gen_bool(0.3));
            }
            // A hand-written epoch list: any order, ids repeated.
            let mut list: Vec<ChunkId> = (0..len).map(|_| draw_chunk(&mut rng)).collect();
            if let Some(&first) = list.first() {
                list.push(first);
            }
            let mut w = SnapWriter::new();
            reference.encode_head(&mut w);
            list.encode(&mut w);
            let bytes = w.into_bytes();
            let mut pool: BufferPool = decode_from_slice(&bytes).expect("unsorted list decodes");
            let mut reference: RefPool = decode_from_slice(&bytes).expect("unsorted list decodes");
            prop_assert_eq!(pool.working_set_bytes(false), reference.working_set_bytes(false));
            prop_assert_eq!(encode_to_vec(&pool), encode_to_vec(&reference));
            drive(&mut pool, &mut reference, &mut rng, 50, None);
        }
    }
}
