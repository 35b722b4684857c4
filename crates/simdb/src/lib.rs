//! Simulated relational-DBMS substrate for the AutoDBaaS reproduction.
//!
//! The paper (EDBT 2021) evaluates on real PostgreSQL 9.6 / MySQL 5.6 fleets
//! on AWS. This crate replaces the DBMS with a simulator that preserves the
//! causal structure every other component observes:
//!
//! * a [`knobs`] registry with the paper's three knob classes for both
//!   flavors,
//! * a clock-sweep [`bufferpool`] with working-set gauging,
//! * a cost-based [`planner`] whose work-area grants spill and whose path
//!   choices respond to planner-estimate knobs,
//! * an [`executor`] that turns plans into buffer traffic, disk I/O and
//!   latency,
//! * [`bgwriter`] checkpoint/background-writer/vacuum processes that shape
//!   disk-latency peaks,
//! * a queueing [`disk`] model with per-process write attribution,
//! * `pg_stat`-style [`metrics`], and
//! * the [`engine::SimDatabase`] facade with §4 apply semantics
//!   (reload / socket-activation / restart, staged restart-only knobs).
//!
//! `SimDatabase` is the one database type, for every flavor: the flavor
//! picks its storage engine — the page heap above, or the LSM tree
//! (memtable + levelled compaction) in `backend/lsm.rs` — and the §4
//! service shell around it is written once. The [`backend::Backend`] trait
//! is the surface every upstream layer consumes, and
//! [`backend::BackendKind`] names the engine family.

pub mod backend;
pub mod bgwriter;
pub mod bufferpool;
pub mod catalog;
pub mod disk;
pub mod engine;
pub mod executor;
pub mod instance;
pub mod knobs;
pub mod metrics;
pub mod planner;
pub mod query;
pub mod query_window;
pub mod replication;
pub mod wal;

pub use backend::{Backend, BackendKind};
pub use catalog::{Catalog, Table, PAGE_BYTES};
pub use engine::{
    ApplyMode, ApplyReport, ConfigChange, RecoveryReport, SimDatabase, SubmitResult,
    RECOVERY_BASE_MS, REDO_REPLAY_BYTES_PER_MS,
};
pub use instance::{DiskKind, InstanceType};
pub use knobs::{DbFlavor, KnobClass, KnobId, KnobProfile, KnobSet, KnobSpec, KnobUnit};
pub use metrics::{MetricId, Metrics, MetricsSnapshot};
pub use planner::{AccessPath, KnobRoles, Plan, Planner, SpillKind};
pub use query::{classify, QueryClass, QueryKind, QueryProfile};
pub use query_window::QueryWindow;
pub use replication::ReplicationSlot;
pub use wal::{Lsn, Wal};
