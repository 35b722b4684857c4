//! Configuration-knob registry.
//!
//! §3 of the paper categorises relational-database knobs into three classes —
//! memory, background-writer, and async/planner-estimate knobs — and the TDE
//! runs a different detector per class. This module defines the knob
//! metadata ([`KnobSpec`]), the per-flavor profiles (PostgreSQL-like and
//! MySQL-like, matching the knobs named in §3.1), and the value container
//! ([`KnobSet`]) that a [`crate::engine::SimDatabase`] runs with.

use std::fmt;

/// Which database flavor a knob profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbFlavor {
    /// PostgreSQL 9.6-style knobs (`work_mem`, `maintenance_work_mem`, …).
    Postgres,
    /// MySQL 5.6-style knobs (`sort_buffer_size`, `key_buffer_size`, …).
    MySql,
    /// LSM/embedded-style knobs (`memtable_bytes`, `level_fanout`,
    /// `bloom_bits_per_key`, …) for the compaction-driven backend.
    Lsm,
}

impl fmt::Display for DbFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbFlavor::Postgres => write!(f, "postgresql"),
            DbFlavor::MySql => write!(f, "mysql"),
            DbFlavor::Lsm => write!(f, "lsm"),
        }
    }
}

/// The paper's three knob classes (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KnobClass {
    /// Knobs bounded by instance memory: buffer pool, work areas.
    Memory,
    /// Knobs controlling dirty-page writeback and checkpoints.
    BackgroundWriter,
    /// Parallel-worker and planner cost-estimate knobs.
    AsyncPlanner,
}

impl KnobClass {
    /// All classes, in a stable order used by histograms and reports.
    pub const ALL: [KnobClass; 3] = [
        KnobClass::Memory,
        KnobClass::BackgroundWriter,
        KnobClass::AsyncPlanner,
    ];

    /// Stable index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            KnobClass::Memory => 0,
            KnobClass::BackgroundWriter => 1,
            KnobClass::AsyncPlanner => 2,
        }
    }
}

impl fmt::Display for KnobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobClass::Memory => write!(f, "memory"),
            KnobClass::BackgroundWriter => write!(f, "background-writer"),
            KnobClass::AsyncPlanner => write!(f, "async/planner"),
        }
    }
}

/// Unit of a knob value, used for display and for the memory-budget
/// constraint `A + B + C + D < X` in §4 (only `Bytes` knobs participate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobUnit {
    /// Bytes of memory.
    Bytes,
    /// Milliseconds.
    Millis,
    /// Dimensionless scalar (cost factors, ratios, percentages).
    Scalar,
    /// A count (pages, workers, connections).
    Count,
}

/// Metadata for one tunable knob.
#[derive(Debug, Clone)]
pub struct KnobSpec {
    /// Canonical knob name (e.g. `work_mem`).
    pub name: &'static str,
    /// Which detector class owns it.
    pub class: KnobClass,
    /// Unit of the value.
    pub unit: KnobUnit,
    /// Minimum legal value.
    pub min: f64,
    /// Maximum legal value *before* instance caps are applied.
    pub max: f64,
    /// Vendor default.
    pub default: f64,
    /// True for "non-tunable" knobs (§4): changing them needs a restart.
    pub restart_required: bool,
}

/// Index of a knob within its profile. Only meaningful together with the
/// [`KnobProfile`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KnobId(pub u16);

/// Checked construction from a profile index: profiles hold ~15 knobs, but
/// the bound lives here instead of in silent `as u16` truncations.
fn knob_id(index: usize) -> KnobId {
    // detlint-allow: R003 profiles are static tables of ~15 knobs; the checked construction exists to keep `as u16` truncation out, not because overflow can happen
    KnobId(u16::try_from(index).expect("knob profile exceeds the u16 id space"))
}

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// The set of knobs a flavor exposes, with stable ids.
#[derive(Debug, Clone)]
pub struct KnobProfile {
    flavor: DbFlavor,
    specs: Vec<KnobSpec>,
}

impl KnobProfile {
    /// The PostgreSQL-style profile with the knobs §3.1 names.
    pub fn postgres() -> Self {
        use KnobClass::*;
        use KnobUnit::*;
        let specs = vec![
            // Memory class. shared_buffers is the §4 "non-tunable" example.
            KnobSpec {
                name: "shared_buffers",
                class: Memory,
                unit: Bytes,
                min: 16.0 * MIB,
                max: 64.0 * GIB,
                default: 128.0 * MIB,
                restart_required: true,
            },
            KnobSpec {
                name: "work_mem",
                class: Memory,
                unit: Bytes,
                min: 64.0 * KIB,
                max: 4.0 * GIB,
                default: 4.0 * MIB,
                restart_required: false,
            },
            KnobSpec {
                name: "maintenance_work_mem",
                class: Memory,
                unit: Bytes,
                min: 1.0 * MIB,
                max: 8.0 * GIB,
                default: 64.0 * MIB,
                restart_required: false,
            },
            KnobSpec {
                name: "temp_buffers",
                class: Memory,
                unit: Bytes,
                min: 800.0 * KIB,
                max: 4.0 * GIB,
                default: 8.0 * MIB,
                restart_required: false,
            },
            KnobSpec {
                name: "wal_buffers",
                class: Memory,
                unit: Bytes,
                min: 32.0 * KIB,
                max: 1.0 * GIB,
                default: 16.0 * MIB,
                restart_required: true,
            },
            // Background-writer class.
            KnobSpec {
                name: "checkpoint_timeout",
                class: BackgroundWriter,
                unit: Millis,
                min: 30_000.0,
                max: 3_600_000.0,
                default: 300_000.0,
                restart_required: false,
            },
            KnobSpec {
                name: "checkpoint_completion_target",
                class: BackgroundWriter,
                unit: Scalar,
                min: 0.1,
                max: 0.95,
                default: 0.5,
                restart_required: false,
            },
            KnobSpec {
                name: "bgwriter_delay",
                class: BackgroundWriter,
                unit: Millis,
                min: 10.0,
                max: 10_000.0,
                default: 200.0,
                restart_required: false,
            },
            KnobSpec {
                name: "bgwriter_lru_maxpages",
                class: BackgroundWriter,
                unit: Count,
                min: 0.0,
                max: 1000.0,
                default: 100.0,
                restart_required: false,
            },
            KnobSpec {
                name: "max_wal_size",
                class: BackgroundWriter,
                unit: Bytes,
                min: 32.0 * MIB,
                max: 64.0 * GIB,
                default: 1.0 * GIB,
                restart_required: false,
            },
            // Async / planner-estimate class.
            KnobSpec {
                name: "max_parallel_workers_per_gather",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 16.0,
                default: 0.0,
                restart_required: false,
            },
            KnobSpec {
                name: "max_worker_processes",
                class: AsyncPlanner,
                unit: Count,
                min: 1.0,
                max: 64.0,
                default: 8.0,
                restart_required: true,
            },
            KnobSpec {
                name: "random_page_cost",
                class: AsyncPlanner,
                unit: Scalar,
                min: 1.0,
                max: 10.0,
                default: 4.0,
                restart_required: false,
            },
            KnobSpec {
                name: "effective_cache_size",
                class: AsyncPlanner,
                unit: Bytes,
                min: 8.0 * MIB,
                max: 128.0 * GIB,
                default: 4.0 * GIB,
                restart_required: false,
            },
            KnobSpec {
                name: "effective_io_concurrency",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 256.0,
                default: 1.0,
                restart_required: false,
            },
        ];
        Self {
            flavor: DbFlavor::Postgres,
            specs,
        }
    }

    /// The MySQL-style profile (§3.1 maps PG knobs to `sort_buffer_size`,
    /// `key_buffer_size`, `tmp_table_size`, …).
    pub fn mysql() -> Self {
        use KnobClass::*;
        use KnobUnit::*;
        let specs = vec![
            // Memory class. The buffer pool is restart-bound on 5.6.
            KnobSpec {
                name: "innodb_buffer_pool_size",
                class: Memory,
                unit: Bytes,
                min: 64.0 * MIB,
                max: 64.0 * GIB,
                default: 128.0 * MIB,
                restart_required: true,
            },
            KnobSpec {
                name: "sort_buffer_size",
                class: Memory,
                unit: Bytes,
                min: 32.0 * KIB,
                max: 1.0 * GIB,
                default: 256.0 * KIB,
                restart_required: false,
            },
            KnobSpec {
                name: "join_buffer_size",
                class: Memory,
                unit: Bytes,
                min: 128.0 * KIB,
                max: 1.0 * GIB,
                default: 256.0 * KIB,
                restart_required: false,
            },
            KnobSpec {
                name: "key_buffer_size",
                class: Memory,
                unit: Bytes,
                min: 8.0 * MIB,
                max: 4.0 * GIB,
                default: 8.0 * MIB,
                restart_required: false,
            },
            KnobSpec {
                name: "tmp_table_size",
                class: Memory,
                unit: Bytes,
                min: 1.0 * MIB,
                max: 4.0 * GIB,
                default: 16.0 * MIB,
                restart_required: false,
            },
            // Background-writer class.
            KnobSpec {
                name: "innodb_io_capacity",
                class: BackgroundWriter,
                unit: Count,
                min: 100.0,
                max: 20_000.0,
                default: 200.0,
                restart_required: false,
            },
            KnobSpec {
                name: "innodb_max_dirty_pages_pct",
                class: BackgroundWriter,
                unit: Scalar,
                min: 5.0,
                max: 99.0,
                default: 75.0,
                restart_required: false,
            },
            KnobSpec {
                name: "innodb_log_file_size",
                class: BackgroundWriter,
                unit: Bytes,
                min: 4.0 * MIB,
                max: 16.0 * GIB,
                default: 48.0 * MIB,
                restart_required: true,
            },
            KnobSpec {
                name: "innodb_flush_log_at_trx_commit",
                class: BackgroundWriter,
                unit: Scalar,
                min: 0.0,
                max: 2.0,
                default: 1.0,
                restart_required: false,
            },
            KnobSpec {
                name: "innodb_flush_neighbors",
                class: BackgroundWriter,
                unit: Scalar,
                min: 0.0,
                max: 2.0,
                default: 1.0,
                restart_required: false,
            },
            // Async / planner class.
            KnobSpec {
                name: "innodb_read_io_threads",
                class: AsyncPlanner,
                unit: Count,
                min: 1.0,
                max: 64.0,
                default: 4.0,
                restart_required: true,
            },
            KnobSpec {
                name: "innodb_write_io_threads",
                class: AsyncPlanner,
                unit: Count,
                min: 1.0,
                max: 64.0,
                default: 4.0,
                restart_required: true,
            },
            KnobSpec {
                name: "optimizer_search_depth",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 62.0,
                default: 62.0,
                restart_required: false,
            },
            KnobSpec {
                name: "thread_concurrency",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 64.0,
                default: 10.0,
                restart_required: false,
            },
            KnobSpec {
                name: "read_rnd_buffer_size",
                class: AsyncPlanner,
                unit: Bytes,
                min: 64.0 * KIB,
                max: 512.0 * MIB,
                default: 256.0 * KIB,
                restart_required: false,
            },
        ];
        Self {
            flavor: DbFlavor::MySql,
            specs,
        }
    }

    /// The LSM/embedded-style profile for the compaction-driven backend.
    /// Same three-class split, different physics: the memory class sizes
    /// the block cache, memtable and per-query areas; the background class
    /// steers flush/compaction cadence (the LSM analogue of checkpoints);
    /// the async class holds planner-estimate knobs (bloom bits stand in
    /// for random-cost pessimism).
    pub fn lsm() -> Self {
        use KnobClass::*;
        use KnobUnit::*;
        let specs = vec![
            // Memory class. The block cache is the restart-bound buffer.
            KnobSpec {
                name: "block_cache_bytes",
                class: Memory,
                unit: Bytes,
                min: 16.0 * MIB,
                max: 64.0 * GIB,
                default: 128.0 * MIB,
                restart_required: true,
            },
            KnobSpec {
                name: "scan_buffer_bytes",
                class: Memory,
                unit: Bytes,
                min: 64.0 * KIB,
                max: 4.0 * GIB,
                default: 4.0 * MIB,
                restart_required: false,
            },
            KnobSpec {
                name: "compaction_buffer_bytes",
                class: Memory,
                unit: Bytes,
                min: 1.0 * MIB,
                max: 8.0 * GIB,
                default: 64.0 * MIB,
                restart_required: false,
            },
            KnobSpec {
                name: "temp_buffer_bytes",
                class: Memory,
                unit: Bytes,
                min: 800.0 * KIB,
                max: 4.0 * GIB,
                default: 8.0 * MIB,
                restart_required: false,
            },
            // The memtable budget plays the checkpoint-interval role: a
            // bigger memtable flushes less often, exactly as a longer
            // checkpoint_timeout spaces out checkpoint bursts.
            KnobSpec {
                name: "memtable_bytes",
                class: Memory,
                unit: Bytes,
                min: 4.0 * MIB,
                max: 2.0 * GIB,
                default: 64.0 * MIB,
                restart_required: false,
            },
            // Background (flush/compaction) class.
            KnobSpec {
                name: "level_fanout",
                class: BackgroundWriter,
                unit: Scalar,
                min: 2.0,
                max: 20.0,
                default: 10.0,
                restart_required: false,
            },
            KnobSpec {
                name: "l0_compaction_trigger",
                class: BackgroundWriter,
                unit: Count,
                min: 2.0,
                max: 32.0,
                default: 4.0,
                restart_required: false,
            },
            KnobSpec {
                name: "compaction_spread",
                class: BackgroundWriter,
                unit: Scalar,
                min: 0.1,
                max: 0.95,
                default: 0.5,
                restart_required: false,
            },
            KnobSpec {
                name: "compaction_parallelism",
                class: BackgroundWriter,
                unit: Count,
                min: 1.0,
                max: 16.0,
                default: 2.0,
                restart_required: false,
            },
            KnobSpec {
                name: "write_stall_l0",
                class: BackgroundWriter,
                unit: Count,
                min: 4.0,
                max: 64.0,
                default: 20.0,
                restart_required: false,
            },
            // Async / planner-estimate class.
            KnobSpec {
                name: "bloom_bits_per_key",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 20.0,
                default: 10.0,
                restart_required: false,
            },
            KnobSpec {
                name: "parallel_scan_workers",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 16.0,
                default: 0.0,
                restart_required: false,
            },
            KnobSpec {
                name: "background_threads",
                class: AsyncPlanner,
                unit: Count,
                min: 1.0,
                max: 64.0,
                default: 8.0,
                restart_required: true,
            },
            KnobSpec {
                name: "cache_size_estimate_bytes",
                class: AsyncPlanner,
                unit: Bytes,
                min: 8.0 * MIB,
                max: 128.0 * GIB,
                default: 4.0 * GIB,
                restart_required: false,
            },
            KnobSpec {
                name: "read_ahead_ios",
                class: AsyncPlanner,
                unit: Count,
                min: 0.0,
                max: 256.0,
                default: 1.0,
                restart_required: false,
            },
        ];
        Self {
            flavor: DbFlavor::Lsm,
            specs,
        }
    }

    /// Profile for a flavor.
    pub fn for_flavor(flavor: DbFlavor) -> Self {
        match flavor {
            DbFlavor::Postgres => Self::postgres(),
            DbFlavor::MySql => Self::mysql(),
            DbFlavor::Lsm => Self::lsm(),
        }
    }

    /// The flavor this profile models.
    pub fn flavor(&self) -> DbFlavor {
        self.flavor
    }

    /// Number of knobs in the profile.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the profile has no knobs (never for built-in profiles).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Spec for a knob id. Panics on a foreign id, which is a caller bug.
    pub fn spec(&self, id: KnobId) -> &KnobSpec {
        &self.specs[id.0 as usize]
    }

    /// Look a knob up by name.
    pub fn lookup(&self, name: &str) -> Option<KnobId> {
        self.specs.iter().position(|s| s.name == name).map(knob_id)
    }

    /// Iterate over `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (KnobId, &KnobSpec)> {
        self.specs.iter().enumerate().map(|(i, s)| (knob_id(i), s))
    }

    /// Ids of all knobs in a class.
    pub fn ids_in_class(&self, class: KnobClass) -> Vec<KnobId> {
        self.iter()
            .filter(|(_, s)| s.class == class)
            .map(|(id, _)| id)
            .collect()
    }

    /// A [`KnobSet`] holding every knob at its vendor default.
    pub fn defaults(&self) -> KnobSet {
        KnobSet {
            values: self.specs.iter().map(|s| s.default).collect(),
        }
    }
}

/// Concrete values for every knob of a profile, kept parallel to the
/// profile's spec vector. The default is empty: a buffer for
/// [`Clone::clone_from`] to fill, with no knob to read.
#[derive(Debug, Default, PartialEq)]
pub struct KnobSet {
    values: Vec<f64>,
}

impl Clone for KnobSet {
    fn clone(&self) -> Self {
        Self {
            values: self.values.clone(),
        }
    }

    /// Reuses this set's buffer: the TDE round copies a node's knobs
    /// every window.
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

impl KnobSet {
    /// Value of a knob.
    pub fn get(&self, id: KnobId) -> f64 {
        self.values[id.0 as usize]
    }

    /// Set a knob, clamping into the spec's `[min, max]` range. Returns the
    /// clamped value actually stored.
    pub fn set(&mut self, profile: &KnobProfile, id: KnobId, value: f64) -> f64 {
        let spec = profile.spec(id);
        let v = value.clamp(spec.min, spec.max);
        self.values[id.0 as usize] = v;
        v
    }

    /// Convenience: value by name (panics if the name is unknown — test and
    /// harness code only).
    pub fn get_named(&self, profile: &KnobProfile, name: &str) -> f64 {
        let id = profile
            .lookup(name)
            .unwrap_or_else(|| panic!("unknown knob {name}"));
        self.get(id)
    }

    /// Convenience: set by name with clamping.
    pub fn set_named(&mut self, profile: &KnobProfile, name: &str, value: f64) -> f64 {
        let id = profile
            .lookup(name)
            .unwrap_or_else(|| panic!("unknown knob {name}"));
        self.set(profile, id, value)
    }

    /// All values, in profile order — the configuration vector the tuners
    /// train on.
    pub fn as_vec(&self) -> &[f64] {
        &self.values
    }

    /// Build from a raw vector (must match the profile length), clamping
    /// each entry. Used when a tuner proposes a new configuration.
    pub fn from_vec(profile: &KnobProfile, raw: &[f64]) -> Self {
        assert_eq!(raw.len(), profile.len(), "config vector length mismatch");
        let mut set = profile.defaults();
        for (i, &v) in raw.iter().enumerate() {
            set.set(profile, knob_id(i), v);
        }
        set
    }

    /// Sum of all `Bytes`-unit memory-class knob values: the left-hand side
    /// of the §4 budget `A + B + C + D < X`, with each knob counted once
    /// exactly as the paper writes it (`A` = buffer pool, `B`/`C`/`D` =
    /// the work-area knobs).
    pub fn memory_budget_used(&self, profile: &KnobProfile) -> f64 {
        profile
            .iter()
            .filter(|(_, spec)| spec.class == KnobClass::Memory && spec.unit == KnobUnit::Bytes)
            .map(|(id, _)| self.get(id))
            .sum()
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_enum!(DbFlavor { Postgres = 0, MySql = 1, Lsm = 2 });

autodbaas_snapshot::snap_enum!(KnobClass {
    Memory = 0,
    BackgroundWriter = 1,
    AsyncPlanner = 2
});

impl autodbaas_snapshot::Snap for KnobId {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        w.put_u16(self.0);
    }
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        Ok(Self(r.get_u16()?))
    }
}

autodbaas_snapshot::snap_struct!(KnobSet { values });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_three_classes() {
        for profile in [
            KnobProfile::postgres(),
            KnobProfile::mysql(),
            KnobProfile::lsm(),
        ] {
            for class in KnobClass::ALL {
                assert!(
                    !profile.ids_in_class(class).is_empty(),
                    "{} profile missing class {class}",
                    profile.flavor()
                );
            }
        }
    }

    #[test]
    fn lookup_roundtrips() {
        let p = KnobProfile::postgres();
        let id = p.lookup("work_mem").unwrap();
        assert_eq!(p.spec(id).name, "work_mem");
        assert_eq!(p.spec(id).class, KnobClass::Memory);
        assert!(p.lookup("no_such_knob").is_none());
    }

    #[test]
    fn defaults_are_within_bounds() {
        for profile in [
            KnobProfile::postgres(),
            KnobProfile::mysql(),
            KnobProfile::lsm(),
        ] {
            for (_, spec) in profile.iter() {
                assert!(
                    spec.min <= spec.default && spec.default <= spec.max,
                    "{} default out of range",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn set_clamps_to_spec_range() {
        let p = KnobProfile::postgres();
        let mut k = p.defaults();
        let id = p.lookup("work_mem").unwrap();
        let stored = k.set(&p, id, 1e18);
        assert_eq!(stored, p.spec(id).max);
        let stored = k.set(&p, id, 0.0);
        assert_eq!(stored, p.spec(id).min);
    }

    #[test]
    fn restart_required_knobs_exist_in_both_flavors() {
        let pg = KnobProfile::postgres();
        assert!(
            pg.spec(pg.lookup("shared_buffers").unwrap())
                .restart_required
        );
        let my = KnobProfile::mysql();
        assert!(
            my.spec(my.lookup("innodb_buffer_pool_size").unwrap())
                .restart_required
        );
        let lsm = KnobProfile::lsm();
        assert!(
            lsm.spec(lsm.lookup("block_cache_bytes").unwrap())
                .restart_required
        );
    }

    #[test]
    fn from_vec_roundtrips_and_clamps() {
        let p = KnobProfile::postgres();
        let mut raw: Vec<f64> = p.defaults().as_vec().to_vec();
        raw[1] = f64::MAX; // work_mem index
        let set = KnobSet::from_vec(&p, &raw);
        assert_eq!(set.get(KnobId(1)), p.spec(KnobId(1)).max);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_wrong_length() {
        let p = KnobProfile::postgres();
        let _ = KnobSet::from_vec(&p, &[1.0, 2.0]);
    }

    #[test]
    fn memory_budget_sums_each_byte_knob_once() {
        let p = KnobProfile::postgres();
        let mut k = p.defaults();
        k.set_named(&p, "shared_buffers", 1024.0 * 1024.0 * 1024.0); // 1 GiB
        let base = k.memory_budget_used(&p);
        assert!(base > 1024.0 * 1024.0 * 1024.0);
        k.set_named(
            &p,
            "work_mem",
            k.get_named(&p, "work_mem") + 10.0 * 1024.0 * 1024.0,
        );
        let bumped = k.memory_budget_used(&p);
        assert!((bumped - base - 10.0 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn class_indices_are_stable() {
        assert_eq!(KnobClass::Memory.index(), 0);
        assert_eq!(KnobClass::BackgroundWriter.index(), 1);
        assert_eq!(KnobClass::AsyncPlanner.index(), 2);
    }
}
