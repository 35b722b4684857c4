//! The snapshot contract (ROADMAP item 5): for any split point `k`, any
//! backend mix, and any shard count, `run(0..T)` and
//! `run(0..k); save; restore; run(k..T)` produce bit-identical fleets —
//! same event-log fingerprint, same serialized state, same counters.

use autodbaas::cloudsim::{
    FaultKind, FleetConfig, FleetSim, InteractionPlan, ManagedDatabase, PlanAction, PlanEvent,
};
use autodbaas::prelude::*;
use autodbaas::tde::TdeConfig;
use autodbaas::telemetry::MILLIS_PER_MIN;
use autodbaas::tuner::WorkloadId;

fn node(flavor: DbFlavor, adulterated: bool, seed: u64) -> ManagedDatabase {
    let base = tpcc(0.4);
    let catalog = base.catalog().clone();
    let workload: Box<dyn QuerySource + Send> = if adulterated {
        Box::new(AdulteratedWorkload::new(base, 0.3))
    } else {
        Box::new(base)
    };
    ManagedDatabase::new(
        flavor,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        workload,
        ArrivalProcess::Constant(120.0),
        TuningPolicy::TdeDriven,
        WorkloadId(0),
        TdeConfig::default(),
        seed,
    )
    .with_slaves(if seed.is_multiple_of(2) { 1 } else { 0 })
}

/// A mixed-backend chaos fleet: page-heap and LSM masters side by side,
/// rollback guard armed, standard fault rotation running.
fn fleet(shards: usize, seed: u64) -> FleetSim {
    fleet_with(shards, seed, standard_faults())
}

fn standard_faults() -> InteractionPlan {
    InteractionPlan::standard_faults(4, 30 * MILLIS_PER_MIN)
}

fn fleet_with(shards: usize, seed: u64, plan: InteractionPlan) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed,
            shards,
            rollback: Some(Default::default()),
            ..FleetConfig::default()
        },
        2,
    );
    for i in 0..4u64 {
        let flavor = if i % 2 == 0 {
            DbFlavor::Postgres
        } else {
            DbFlavor::Lsm
        };
        sim.add_node(node(flavor, i == 2, seed ^ (i * 131)), &format!("db-{i}"));
    }
    sim.enable_plan(plan);
    sim
}

const TOTAL: u64 = 30 * MILLIS_PER_MIN;

/// Drive `sim` from its current time up to absolute fleet time `until`.
fn run_until(sim: &mut FleetSim, until: u64) {
    let now = sim.now();
    assert!(until >= now);
    sim.run_for(until - now);
}

#[test]
fn save_restore_is_bit_identical_to_uninterrupted_run() {
    for shards in 1usize..=8 {
        // Reference: one uninterrupted run.
        let mut reference = fleet(shards, 42);
        run_until(&mut reference, TOTAL);

        // Interrupted: run to k, serialize, restore, continue to T.
        for &k in &[1u64, 7 * MILLIS_PER_MIN, 29 * MILLIS_PER_MIN] {
            let mut first = fleet(shards, 42);
            run_until(&mut first, k);
            let bytes = first.snapshot_bytes();
            drop(first);
            let mut resumed = FleetSim::from_snapshot_bytes(&bytes).expect("restore");
            run_until(&mut resumed, TOTAL);

            assert_eq!(
                reference.events.fingerprint(),
                resumed.events.fingerprint(),
                "event-log fingerprint diverged (shards={shards}, k={k})"
            );
            assert_eq!(
                reference.snapshot_bytes(),
                resumed.snapshot_bytes(),
                "serialized fleet state diverged (shards={shards}, k={k})"
            );
        }
    }
}

#[test]
fn restore_rebuilds_scratch_and_keeps_counters() {
    let mut sim = fleet(1, 7);
    run_until(&mut sim, 10 * MILLIS_PER_MIN);
    let submitted: u64 = sim.nodes.iter().map(|n| n.queries_submitted).sum();
    assert!(submitted > 0);
    let bytes = sim.snapshot_bytes();
    let restored = FleetSim::from_snapshot_bytes(&bytes).expect("restore");
    assert_eq!(restored.now(), sim.now());
    assert_eq!(
        restored
            .nodes
            .iter()
            .map(|n| n.queries_submitted)
            .sum::<u64>(),
        submitted
    );
    assert_eq!(restored.events.fingerprint(), sim.events.fingerprint());
}

#[test]
fn corruption_is_detected_never_garbage() {
    let mut sim = fleet(1, 3);
    run_until(&mut sim, 2 * MILLIS_PER_MIN);
    let bytes = sim.snapshot_bytes();
    // Flip one bit somewhere in the middle of the fleet frame payload.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(
        FleetSim::from_snapshot_bytes(&corrupt).is_err(),
        "flipped bit must surface as SnapError"
    );
    // Truncation too.
    assert!(FleetSim::from_snapshot_bytes(&bytes[..bytes.len() - 9]).is_err());
    // An image stamped with an earlier format version (4: the fleet still
    // carried a second schedule field then) is refused by name.
    let mut stale = bytes.clone();
    stale[8..12].copy_from_slice(&4u32.to_le_bytes());
    let err = FleetSim::from_snapshot_bytes(&stale).err();
    assert_eq!(format!("{err:?}"), "Some(UnsupportedVersion(4))");
}

/// The layout pin: a fixed 4-node mixed-backend fleet serializes to these
/// exact bytes. Any change to the file layout moves the length or the
/// hash, and such a change needs a `VERSION` bump (and a new pin).
#[test]
fn snapshot_layout_is_pinned() {
    let mut sim = fleet(1, 42);
    run_until(&mut sim, 3 * MILLIS_PER_MIN);
    let bytes = sim.snapshot_bytes();
    let hash = autodbaas_snapshot::fnv1a(autodbaas_snapshot::fnv1a_start(), &bytes);
    assert_eq!(
        (bytes.len(), hash),
        (101_182, 0x276c_ec59_10a8_ab25),
        "snapshot layout moved without a VERSION bump"
    );
}

/// A valid seal proves nothing about the payload: the seal is not a MAC, so
/// anyone can re-seal edited bytes. Overwrite 1–3 payload bytes of a
/// page-heap + LSM fleet, re-seal, and restore: every outcome must be a
/// fleet or a typed `SnapError`, never a panic or an abort.
#[test]
fn resealed_nonsense_restores_or_errors_never_panics() {
    use autodbaas::prelude::SeedableRng;
    use autodbaas_snapshot::{FrameReader, FrameWriter};
    use rand::Rng;

    let mut sim = FleetSim::new(
        FleetConfig {
            seed: 5,
            ..FleetConfig::default()
        },
        2,
    );
    for (i, flavor) in [DbFlavor::Postgres, DbFlavor::Lsm, DbFlavor::Postgres]
        .into_iter()
        .enumerate()
    {
        sim.add_node(node(flavor, i == 1, 5 + i as u64), &format!("db-{i}"));
    }
    run_until(&mut sim, 2 * MILLIS_PER_MIN);
    let bytes = sim.snapshot_bytes();
    let frames = FrameReader::new(&bytes).and_then(|fr| fr.read_all());
    let (tag, payload) = frames.expect("fresh snapshot")[0];

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    let mut typed_errors = 0;
    for trial in 0..300 {
        let mut edited = payload.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..edited.len());
            edited[at] = rng.gen_range(0..=255u8);
        }
        let mut fw = FrameWriter::new();
        fw.frame(tag, &edited);
        let resealed = fw.finish();
        match std::panic::catch_unwind(|| FleetSim::from_snapshot_bytes(&resealed)) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) => typed_errors += 1,
            Err(_) => panic!("trial {trial}: restoring resealed nonsense panicked"),
        }
    }
    assert!(typed_errors > 0, "no edit was ever rejected");
}

/// The standard fault rotation plus bursts, knob pushes, maintenance and
/// replica changes, spread over the run — every [`PlanAction`] payload
/// shape crosses the snapshot.
fn mixed_plan() -> InteractionPlan {
    let mut events = standard_faults().events().to_vec();
    events.extend([
        PlanEvent {
            at: 4 * MILLIS_PER_MIN,
            node: 0,
            action: PlanAction::Burst {
                rate_qps: 400.0,
                duration_ms: 3 * MILLIS_PER_MIN,
            },
        },
        PlanEvent {
            at: 9 * MILLIS_PER_MIN,
            node: 1,
            action: PlanAction::KnobPush { value: 0.95 },
        },
        PlanEvent {
            at: 15 * MILLIS_PER_MIN,
            node: 2,
            action: PlanAction::Maintenance,
        },
        PlanEvent {
            at: 18 * MILLIS_PER_MIN,
            node: 3,
            action: PlanAction::AddReplica,
        },
        PlanEvent::fault(
            22 * MILLIS_PER_MIN,
            0,
            FaultKind::DiskStall {
                duration_ms: 2 * MILLIS_PER_MIN,
                factor: 4.0,
            },
        ),
        PlanEvent {
            at: 26 * MILLIS_PER_MIN,
            node: 3,
            action: PlanAction::RemoveReplica,
        },
    ]);
    InteractionPlan::new(events)
}

#[test]
fn interaction_plan_cursor_survives_restore() {
    let mut reference = fleet_with(1, 11, mixed_plan());
    run_until(&mut reference, TOTAL);
    for label in ["fault.vm_crash", "plan.burst_end", "plan.knob_push"] {
        assert!(reference.events.count(label) > 0, "{label} never fired");
    }

    // 5 min falls between the burst (4 min) and its revert (7 min): the
    // saved arrival process has to cross the snapshot too.
    for (k, open_bursts) in [(5 * MILLIS_PER_MIN, 1), (13 * MILLIS_PER_MIN, 0)] {
        let mut sim = fleet_with(1, 11, mixed_plan());
        run_until(&mut sim, k);
        assert_eq!(
            sim.events.count("plan.burst") - sim.events.count("plan.burst_end"),
            open_bursts,
            "k={k}"
        );
        let bytes = sim.snapshot_bytes();
        let mut resumed = FleetSim::from_snapshot_bytes(&bytes).expect("restore");
        run_until(&mut resumed, TOTAL);
        assert_eq!(
            reference.events.fingerprint(),
            resumed.events.fingerprint(),
            "k={k}"
        );
        assert!(
            reference.snapshot_bytes() == resumed.snapshot_bytes(),
            "k={k}"
        );
    }
}
