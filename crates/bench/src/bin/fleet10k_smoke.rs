//! 10k-fleet smoke gate for the sharded tick engine (ROADMAP item 1).
//!
//! Two legs, both fast enough for the verify recipe:
//!
//! 1. **Determinism** — a long-tail 10k-service fleet driven 90 simulated
//!    seconds (covering one TDE round) on one shard and with the shard
//!    count pinned wide (8), so the cross-thread barrier and merge actually
//!    run even on a small host. Event-log fingerprints and per-node
//!    counters must be bit-identical, and both must account for every
//!    node-tick.
//! 2. **Throughput floor** — the auto-resolved shard count must sustain
//!    ≥1M node-ticks/s over its fastest 15-second chunk, raced against a
//!    one-shard fleet in interleaved chunks. A shared host's noise stalls
//!    can span minutes and tax every chunk, so the one-shard fleet racing
//!    through the same window is the control: the gate fires only when the
//!    auto-sharded fleet misses the floor AND loses to one shard — an
//!    engine regression fails both, a noisy host neither.
//!
//! Flags: `--nodes 10000 --floor 1000000` (defaults shown).

use autodbaas_bench::{arg_value, longtail_fleet, race_shard_counts};
use autodbaas_simdb::MetricId;
use autodbaas_telemetry::{outln, MILLIS_PER_MIN};
use std::time::Instant;

fn main() {
    let nodes: usize = arg_value("--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let floor: f64 = arg_value("--floor")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000.0);

    // Leg 1: determinism at a forced-wide shard count.
    let smoke_ms = 90_000u64;
    let mut one_shard = longtail_fleet(nodes, 1, 0xabcd);
    let mut sharded = longtail_fleet(nodes, 8, 0xabcd);
    let t = Instant::now();
    one_shard.run_for(smoke_ms);
    let one_shard_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sharded.run_for(smoke_ms);
    let sharded_s = t.elapsed().as_secs_f64();
    assert_eq!(
        one_shard.events.fingerprint(),
        sharded.events.fingerprint(),
        "event-log fingerprints diverged between one-shard and sharded drives"
    );
    let counters = |sim: &autodbaas_cloudsim::FleetSim| -> Vec<(u64, f64)> {
        sim.nodes
            .iter()
            .map(|n| {
                (
                    n.queries_submitted,
                    n.db().metrics().get(MetricId::QueriesExecuted),
                )
            })
            .collect()
    };
    assert_eq!(
        counters(&one_shard),
        counters(&sharded),
        "per-node counters diverged between one-shard and sharded drives"
    );
    let expected_ticks = nodes as u64 * (smoke_ms / 1000);
    for sim in [&one_shard, &sharded] {
        assert_eq!(
            sim.drive_stats().node_ticks,
            expected_ticks,
            "{}-shard drive lost node-ticks",
            sim.shard_count()
        );
    }
    outln!(
        "determinism: {nodes} nodes x {}s, one-shard={one_shard_s:.2}s sharded({} shards)={sharded_s:.2}s — \
         fingerprints, per-node counters and {expected_ticks} node-ticks all match",
        smoke_ms / 1000,
        sharded.shard_count(),
    );

    // Leg 2: throughput floor on auto shard resolution, raced against a
    // one-shard fleet in interleaved 15-second chunks. The absolute floor
    // is the headline gate, but a shared host's noise stalls can span whole
    // minutes and tax every chunk; the one-shard fleet racing through the
    // same window is the control that tells a slow host apart from a slow
    // engine. The gate fires only when the auto-sharded fleet misses the
    // floor AND loses to one shard — a genuine engine regression fails
    // both, a noisy host fails neither test of the engine itself.
    let chunk_ms = MILLIS_PER_MIN / 4;
    let mut one_shard = longtail_fleet(nodes, 1, 0xf1ee7);
    let mut sharded = longtail_fleet(nodes, 0, 0xf1ee7);
    one_shard.run_for(chunk_ms); // warm both to the same sim time
    sharded.run_for(chunk_ms);
    let mut one_shard_ms = f64::MAX;
    let mut sharded_ms = f64::MAX;
    let mut rounds = 0;
    for round in 0..8 {
        let (s, p) = race_shard_counts(&mut one_shard, &mut sharded, chunk_ms, 2);
        one_shard_ms = one_shard_ms.min(s);
        sharded_ms = sharded_ms.min(p);
        rounds = round + 1;
        let tps = (nodes as u64 * chunk_ms) as f64 / sharded_ms;
        if round >= 2 && tps >= floor {
            break; // six clean chunk-pairs are enough
        }
    }
    let chunk_ticks = (nodes as u64 * chunk_ms / 1000) as f64;
    let tps = chunk_ticks * 1e3 / sharded_ms;
    let one_shard_tps = chunk_ticks * 1e3 / one_shard_ms;
    outln!(
        "throughput: fastest {}s-chunk over {rounds} interleaved rounds — \
         sharded {tps:.0} node-ticks/s vs one-shard {one_shard_tps:.0} \
         ({} shard(s), floor {floor:.0})",
        chunk_ms / 1000,
        sharded.shard_count()
    );
    assert!(
        tps >= floor || tps >= one_shard_tps,
        "sharded 10k fleet below the throughput floor AND behind the one-shard \
         fleet in the same window: sharded {tps:.0} < floor {floor:.0}, \
         one-shard {one_shard_tps:.0} — engine regression, not host noise"
    );
    outln!("fleet10k_smoke: OK");
}
