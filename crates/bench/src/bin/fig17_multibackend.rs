//! Fig. 17 (repo extension) — differential tuning across backend engines.
//!
//! The paper's multiplier claim is that one AutoDBaaS deployment tunes a
//! *heterogeneous* fleet (PostgreSQL 9.6 and MySQL 5.6 behind the same
//! TDE). The backend substrate pushes that further: the page-heap adapter
//! (checkpoint write bursts) and the LSM adapter (compaction write-amp,
//! write stalls, bloom-governed read-amp) expose entirely different
//! physics through the same observable vocabulary, and the same TDE +
//! ConfigDirector must tune both.
//!
//! Three runs:
//!   1. per-backend convergence — the same production workload on each
//!      backend alone, hourly throughput from defaults onward;
//!   2. a mixed fleet — both adapters hosted *simultaneously* under one
//!      ConfigDirector, per-backend curves recorded side by side;
//!   3. the mixed fleet repeated at the same seed — the event-log
//!      fingerprints must match bit-for-bit (heterogeneity does not cost
//!      determinism).
//!
//! Flags: `--hours 6 --seed 42` (defaults shown). With
//! `--resume <snapshot>` the first mixed-fleet run crosses a save/reload
//! boundary at the halfway hour and must still match the uninterrupted
//! replay bit-for-bit.

use autodbaas_bench::{arg_value, checkpoint_roundtrip, header, resume_arg, sparkline, NodeSpec};
use autodbaas_cloudsim::{FleetConfig, FleetSim};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_ctrlplane::{ServiceId, TunerKind};
use autodbaas_simdb::{Backend, BackendKind, DbFlavor, InstanceType, MetricId};
use autodbaas_telemetry::outln;
use autodbaas_telemetry::{MILLIS_PER_HOUR, MILLIS_PER_MIN};
use autodbaas_workload::{tpcc, AdulteratedWorkload, ArrivalProcess};

/// The two engine profiles under test (the MySQL flavor shares the
/// page-heap adapter, so the interesting contrast is these two).
const BACKENDS: [DbFlavor; 2] = [DbFlavor::Postgres, DbFlavor::Lsm];

fn fleet(seed: u64) -> FleetSim {
    FleetSim::new(
        FleetConfig {
            tick_ms: 2_000,
            tde_period_ms: 5 * MILLIS_PER_MIN,
            gate_samples_with_tde: true,
            tuner: TunerKind::Bo,
            seed,
            ..FleetConfig::default()
        },
        4,
    )
}

/// Add one demanding production service of `flavor`; returns its index.
fn add_service(sim: &mut FleetSim, flavor: DbFlavor, name: &str, seed: u64) -> usize {
    let wl = AdulteratedWorkload::new(tpcc(2.0), 0.25);
    let catalog = wl.base().catalog().clone();
    let id = sim.seed_offline_training(&tpcc(1.0), flavor, 8);
    let node = NodeSpec::new(flavor, InstanceType::M4XLarge).managed(
        catalog,
        Box::new(wl),
        ArrivalProcess::Constant(120.0),
        TuningPolicy::Periodic(10 * MILLIS_PER_MIN),
        id,
        TdeConfig::default(),
        seed ^ 0xdead,
    );
    sim.add_node(node, name)
}

/// Hourly throughput (queries/s) of node `idx` over `hours`.
fn hourly_qps(sim: &mut FleetSim, idx: usize, hours: u64) -> Vec<f64> {
    let mut out = Vec::new();
    for _ in 0..hours {
        let before = sim.nodes[idx].db().metrics_snapshot();
        sim.run_for(MILLIS_PER_HOUR);
        let delta = sim.nodes[idx].db().metrics_snapshot().delta(&before);
        out.push(delta[MetricId::QueriesExecuted.index()] / 3_600.0);
    }
    out
}

/// Per-backend convergence, each backend alone under its own fleet.
fn solo_convergence(flavor: DbFlavor, hours: u64, seed: u64) -> (Vec<f64>, usize) {
    let mut sim = fleet(seed);
    let idx = add_service(&mut sim, flavor, "measured", seed);
    let curve = hourly_qps(&mut sim, idx, hours);
    let recs = sim
        .director
        .recommendation_history(ServiceId(idx as u64))
        .len();
    (curve, recs)
}

struct MixedOutcome {
    curves: Vec<(DbFlavor, Vec<f64>)>,
    recs: Vec<(DbFlavor, usize)>,
    fingerprint: u64,
    availability: f64,
}

/// Both adapters simultaneously under one ConfigDirector. With a
/// `checkpoint` path the fleet round-trips through the snapshot file at
/// the halfway hour — the replay assertion downstream then doubles as a
/// snapshot-identity check.
fn mixed_fleet(hours: u64, seed: u64, checkpoint: Option<&std::path::Path>) -> MixedOutcome {
    let mut sim = fleet(seed);
    let idxs: Vec<(DbFlavor, usize)> = BACKENDS
        .iter()
        .map(|&flavor| {
            let name = format!("mixed-{}", BackendKind::for_flavor(flavor).name());
            (flavor, add_service(&mut sim, flavor, &name, seed))
        })
        .collect();
    let mut curves: Vec<(DbFlavor, Vec<f64>)> =
        idxs.iter().map(|&(f, _)| (f, Vec::new())).collect();
    for hour in 0..hours {
        if hour == hours / 2 {
            if let Some(path) = checkpoint {
                sim = checkpoint_roundtrip(sim, path);
            }
        }
        let before: Vec<_> = idxs
            .iter()
            .map(|&(_, i)| sim.nodes[i].db().metrics_snapshot())
            .collect();
        sim.run_for(MILLIS_PER_HOUR);
        for (k, &(_, i)) in idxs.iter().enumerate() {
            let delta = sim.nodes[i].db().metrics_snapshot().delta(&before[k]);
            curves[k]
                .1
                .push(delta[MetricId::QueriesExecuted.index()] / 3_600.0);
        }
    }
    let recs = idxs
        .iter()
        .map(|&(f, i)| {
            (
                f,
                sim.director
                    .recommendation_history(ServiceId(i as u64))
                    .len(),
            )
        })
        .collect();
    MixedOutcome {
        curves,
        recs,
        fingerprint: sim.events.fingerprint(),
        availability: sim.availability(),
    }
}

fn main() {
    let hours: u64 = arg_value("--hours")
        .map(|v| v.parse().unwrap())
        .unwrap_or(6);
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().unwrap())
        .unwrap_or(42);
    header(
        "Fig. 17",
        "one TDE + ConfigDirector tuning heterogeneous backend engines",
        "both the page-heap and LSM adapters converge from defaults under \
         the same control plane; a mixed fleet hosts both at once, \
         deterministically",
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    outln!("\nper-backend convergence (hourly queries/s, each backend alone):");
    for &flavor in &BACKENDS {
        let kind = BackendKind::for_flavor(flavor);
        let (curve, recs) = solo_convergence(flavor, hours, seed);
        sparkline(&format!("{} ({})", kind.name(), flavor), &curve);
        let early = curve[0];
        let late = mean(&curve[curve.len().saturating_sub(2)..]);
        outln!(
            "  {:<9} hour0 = {early:.0} qps, final = {late:.0} qps ({:+.1}%), {recs} recommendation(s)",
            kind.name(),
            (late / early.max(1e-9) - 1.0) * 100.0
        );
        assert!(
            recs > 0,
            "the director must issue recommendations for the {} backend",
            kind.name()
        );
        assert!(
            late >= early * 0.9,
            "{} must not regress materially under tuning (hour0 {early:.0} vs final {late:.0})",
            kind.name()
        );
    }

    outln!("\nmixed fleet: both adapters under one ConfigDirector:");
    let resume = resume_arg();
    if let Some(path) = &resume {
        outln!("  (checkpointing through {})", path.display());
    }
    let mixed = mixed_fleet(hours, seed, resume.as_deref());
    for (flavor, curve) in &mixed.curves {
        let kind = BackendKind::for_flavor(*flavor);
        sparkline(&format!("mixed {}", kind.name()), curve);
    }
    for (flavor, recs) in &mixed.recs {
        let kind = BackendKind::for_flavor(*flavor);
        outln!(
            "  {:<9} {recs} recommendation(s) in the shared queue",
            kind.name()
        );
        assert!(
            *recs > 0,
            "mixed fleet: the {} service must receive recommendations",
            kind.name()
        );
    }
    outln!("  availability = {:.4}", mixed.availability);
    assert!(
        mixed.availability > 0.97,
        "mixed fleet availability floor (got {:.4})",
        mixed.availability
    );

    // Replay: heterogeneity (and a --resume checkpoint crossing) must
    // not cost determinism.
    let replay = mixed_fleet(hours, seed, None);
    assert_eq!(
        mixed.fingerprint, replay.fingerprint,
        "mixed-fleet replay must be bit-identical"
    );
    outln!(
        "\nreplay fingerprint {:#018x} matches — mixed fleet is deterministic.",
        mixed.fingerprint
    );
    outln!("\nresult: one control plane tunes both engine profiles — claim extended.");
}
