//! The TDE round's host cost on an idle fleet: closing a window that
//! captures no sample allocates nothing per node. Its own test binary,
//! because it counts allocations with a `#[global_allocator]`.

use autodbaas::cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
use autodbaas::prelude::*;
use autodbaas::tde::TdeConfig;
use autodbaas::telemetry::MILLIS_PER_MIN;
use autodbaas::tuner::WorkloadId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s contract is the caller's; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged from the caller, who upholds
        // `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `n` zero-arrival page-heap nodes over a repository seeded offline, so
/// every round maps a bgwriter baseline and the detector reads and trims
/// each master's latency ring. One shard: the fleet runs on this thread,
/// whose allocations the counter sees.
fn idle_fleet(n: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed: 42,
            shards: 1,
            ..FleetConfig::default()
        },
        3,
    );
    sim.seed_offline_training(&tpcc(0.5), DbFlavor::Postgres, 10);
    for i in 0..n {
        let base = tpcc(0.5);
        let catalog = base.catalog().clone();
        sim.add_node(
            ManagedDatabase::new(
                DbFlavor::Postgres,
                InstanceType::M4Large,
                DiskKind::Ssd,
                catalog,
                Box::new(base),
                ArrivalProcess::Constant(0.0),
                TuningPolicy::TdeDriven,
                WorkloadId(0),
                TdeConfig::default(),
                42 ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            &format!("db-{i}"),
        );
    }
    sim
}

/// Allocations of the step that closes the fleet's fifth window, after
/// four windows that grew every buffer the round reuses.
fn round_step_allocations(n: u64) -> u64 {
    let mut sim = idle_fleet(n);
    sim.run_for(4 * MILLIS_PER_MIN);
    let cfg = sim.config();
    let ticks = cfg.tde_period_ms / cfg.tick_ms;
    for _ in 1..ticks {
        sim.step();
    }
    let before = allocations();
    sim.step();
    let during = allocations() - before;
    assert_eq!(
        sim.now(),
        5 * MILLIS_PER_MIN,
        "the measured step closes a window"
    );
    // An idle node that throttled would request tuning, which allocates
    // for reasons of its own.
    assert_eq!(sim.director.total_requests(), 0, "an idle node throttled");
    assert!(
        sim.nodes
            .iter()
            .all(|node| node.tde.throttle_counts() == [0; 3]),
        "an idle node throttled"
    );
    during
}

#[test]
fn closing_an_idle_window_allocates_nothing_per_node() {
    let small = round_step_allocations(64);
    let large = round_step_allocations(256);
    assert_eq!(
        small, large,
        "the window-closing step allocates {small} times at 64 idle nodes and {large} at 256"
    );
}
