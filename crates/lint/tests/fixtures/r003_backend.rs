//! Known-bad R003 fixture, engine half. Fed to `lint_sources` by
//! `tests/lint_clean.rs` under the synthetic path
//! `crates/simdb/src/backend/fixture_engine.rs` — the `fixtures`
//! directory is excluded from the real workspace walk, so this file
//! never fails the gate on its own.
//!
//! `SimDatabase::tick` (an inherent method) and `SimDatabase::apply_config`
//! (a trait impl) are R003 entry points wherever their simdb file lives:
//! the per-tick hot path of a fleet node. Each chain crosses a private
//! helper before reaching a panic. `FixtureWal::tick` has the same name
//! and the same shape on another receiver, so it must NOT be an entry,
//! and its private panic helper is reachable from nowhere.

pub struct SimDatabase {
    pending: Option<u64>,
    staged: Option<u64>,
}

impl SimDatabase {
    pub fn tick(&mut self, dt_ms: u64) -> u64 {
        advance_clock(self, dt_ms)
    }
}

impl Backend for SimDatabase {
    fn apply_config(&mut self) -> u64 {
        land_staged(self)
    }
}

fn advance_clock(db: &mut SimDatabase, dt_ms: u64) -> u64 {
    db.pending.unwrap() + dt_ms
}

fn land_staged(db: &mut SimDatabase) -> u64 {
    db.staged.expect("staged knob")
}

pub struct FixtureWal {
    segment: Option<u64>,
}

impl FixtureWal {
    pub fn tick(&mut self, dt_ms: u64) -> u64 {
        roll_segment(self, dt_ms)
    }
}

fn roll_segment(wal: &mut FixtureWal, dt_ms: u64) -> u64 {
    wal.segment.unwrap() + dt_ms
}
