//! The page-heap adapter: [`SimDatabase`] behind the [`Backend`] trait.
//!
//! This is a pure forwarding impl — `SimDatabase` keeps every inherent
//! method and every line of its physics, so call sites that hold a
//! concrete `SimDatabase` (core unit tests, figure rigs, examples) and
//! the RNG streams behind the pinned fleet/bugbase fingerprints are
//! untouched. The only two methods that are not one-line forwards reach
//! through the background-writer engine, which owns the WAL and the
//! checkpoint counter on this engine family.

use super::Backend;
use crate::catalog::Catalog;
use crate::disk::DiskSet;
use crate::engine::{
    ApplyMode, ApplyReport, ConfigChange, RecoveryReport, SimDatabase, SubmitResult,
};
use crate::instance::InstanceType;
use crate::knobs::{DbFlavor, KnobId, KnobProfile, KnobSet};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::planner::{Plan, Planner};
use crate::query::QueryProfile;
use crate::query_log::QueryLog;
use crate::wal::Wal;
use autodbaas_telemetry::{SimTime, TimeSeries};

impl Backend for SimDatabase {
    fn flavor(&self) -> DbFlavor {
        SimDatabase::flavor(self)
    }
    fn instance(&self) -> InstanceType {
        SimDatabase::instance(self)
    }
    fn profile(&self) -> &KnobProfile {
        SimDatabase::profile(self)
    }
    fn knobs(&self) -> &KnobSet {
        SimDatabase::knobs(self)
    }
    fn planner(&self) -> &Planner {
        SimDatabase::planner(self)
    }
    fn catalog(&self) -> &Catalog {
        SimDatabase::catalog(self)
    }
    fn metrics(&self) -> &Metrics {
        SimDatabase::metrics(self)
    }
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        SimDatabase::metrics_snapshot(self)
    }
    fn disks(&self) -> &DiskSet {
        SimDatabase::disks(self)
    }
    fn wal(&self) -> &Wal {
        self.bg().wal()
    }
    fn checkpoints_done(&self) -> u64 {
        self.bg().checkpoints_done()
    }
    fn now(&self) -> SimTime {
        SimDatabase::now(self)
    }
    fn query_log(&self) -> &QueryLog {
        SimDatabase::query_log(self)
    }
    fn throughput_series(&self) -> &TimeSeries {
        SimDatabase::throughput_series(self)
    }
    fn working_set_bytes(&mut self, reset: bool) -> u64 {
        SimDatabase::working_set_bytes(self, reset)
    }
    fn active_connections(&self) -> u32 {
        SimDatabase::active_connections(self)
    }
    fn set_active_connections(&mut self, n: u32) {
        SimDatabase::set_active_connections(self, n)
    }
    fn is_down(&self) -> bool {
        SimDatabase::is_down(self)
    }
    fn plan(&self, q: &QueryProfile) -> Plan {
        SimDatabase::plan(self, q)
    }
    fn submit(&mut self, q: &QueryProfile, count: u64) -> SubmitResult {
        SimDatabase::submit(self, q, count)
    }
    fn swap_factor(&self) -> f64 {
        SimDatabase::swap_factor(self)
    }
    fn tick(&mut self, dt_ms: u64) {
        SimDatabase::tick(self, dt_ms)
    }
    fn apply_config(&mut self, changes: &[ConfigChange], mode: ApplyMode) -> ApplyReport {
        SimDatabase::apply_config(self, changes, mode)
    }
    fn crash(&mut self) -> RecoveryReport {
        SimDatabase::crash(self)
    }
    fn degrade(&mut self, duration_ms: u64, factor: f64) {
        SimDatabase::degrade(self, duration_ms, factor)
    }
    fn staged_changes(&self) -> &[ConfigChange] {
        SimDatabase::staged_changes(self)
    }
    fn set_knob_direct(&mut self, knob: KnobId, value: f64) {
        SimDatabase::set_knob_direct(self, knob, value)
    }
    fn use_split_disks(&mut self) {
        SimDatabase::use_split_disks(self)
    }
}
