//! Known-bad R003 fixture, backend-adapter half. Fed to `lint_sources`
//! by `tests/lint_clean.rs` under the synthetic path
//! `crates/simdb/src/backend/fixture_adapter.rs` — the `fixtures`
//! directory is excluded from the real workspace walk, so this file
//! never fails the gate on its own.
//!
//! `tick` here is a `Backend` trait impl inside the `simdb` crate, i.e.
//! an R003 entry point wherever its file lives: the per-tick hot path of
//! a fleet node. Its chain crosses a private helper before
//! reaching a panic; the plain inherent method with the same body must
//! NOT be treated as an entry on its own.

pub struct FixtureEngine {
    pending: Option<u64>,
}

impl Backend for FixtureEngine {
    fn tick(&mut self, dt_ms: u64) {
        advance_clock(self, dt_ms)
    }
}

fn advance_clock(db: &mut FixtureEngine, dt_ms: u64) -> u64 {
    db.pending.unwrap() + dt_ms
}

impl FixtureEngine {
    /// Same shape, but an ordinary inherent method: not an entry point,
    /// so its private panic helper is only reachable via the trait impl.
    pub fn helper_only(&mut self) -> u64 {
        advance_clock(self, 1)
    }
}
