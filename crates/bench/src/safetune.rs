//! The rig for the safe-online-tuning experiment: the two arms the fig18
//! harness drives, in its 1-day smoke and in the 33-day headline figure.
//!
//! One arm is **guarded** — the [`SafetyGovernor`] clamps every BO
//! candidate into a learned safe region around the booted config; the
//! other is **observe-only** — identical window accounting (same baseline
//! EWMA, same SLO floor, same regret ledger) over a region spanning the
//! whole unit cube, so nothing is ever clamped. Identical fleets, seeds
//! and acquisition settings; only the region geometry differs.
//!
//! [`SafetyGovernor`]: autodbaas_cloudsim::SafetyGovernor

use crate::NodeSpec;
use autodbaas_cloudsim::{FleetConfig, FleetSim, SafetyConfig};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_ctrlplane::TunerKind;
use autodbaas_simdb::{DbFlavor, InstanceType};
use autodbaas_telemetry::MILLIS_PER_MIN;
use autodbaas_tuner::{BoConfig, WorkloadId};
use autodbaas_workload::{production, AdulteratedWorkload};

/// The guarded arm's config: library defaults, with the SLO floor pulled
/// up to 82% of baseline — a window serving less than 82% of what the
/// rolling baseline says this service can serve is a violation. The
/// floor is calibrated from the ledger's worst-shortfall diagnostic over
/// the full 33-day trace: the guarded arm's deepest clamped excursion
/// bottoms out near 16% below baseline while the unguarded arm's reach
/// past 40%, so 18% of headroom separates "exploring inside the region"
/// from "the region failed". Both arms judge windows identically; only
/// the region geometry differs.
pub fn guarded_config() -> SafetyConfig {
    SafetyConfig {
        slo_floor_frac: 0.82,
        ..SafetyConfig::default()
    }
}

/// Observe-only safety config: the whole unit cube is "safe", so no
/// candidate is ever clamped — but every window is still scored with the
/// same baseline EWMA and SLO floor as the guarded arm, which is what
/// makes the two regret ledgers comparable.
pub fn observe_only() -> SafetyConfig {
    SafetyConfig {
        initial_radius: 1.0,
        expand_step: 0.0,
        shrink_factor: 1.0,
        min_radius: 1.0,
        max_radius: 1.0,
        ..guarded_config()
    }
}

/// One arm of the experiment: `dbs` production services (page-heap and
/// LSM alternating) under a cold-started BO tuner — no offline training,
/// so early candidates are genuine exploration. That cold start is the
/// situation a safety layer exists for.
pub fn production_arm(guarded: bool, dbs: usize, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            tick_ms: 1_000,
            tde_period_ms: 5 * MILLIS_PER_MIN,
            gate_samples_with_tde: true,
            tuner: TunerKind::Bo,
            // An aggressively exploratory acquisition (high UCB kappa,
            // no anchoring to the best-known config) — the adversary the
            // OnlineTune framing worries about: an optimizer happy to
            // probe far-out configs against live traffic. Identical in
            // both arms; only the safe region differs.
            bo: BoConfig {
                kappa: 4.0,
                anchored_candidates: false,
                ..BoConfig::default()
            },
            seed,
            ..FleetConfig::default()
        },
        4,
    );
    for i in 0..dbs {
        // The production trace with its documented analytic tail
        // emphasized (workload::production keeps the §3.1 reporting
        // queries at trace proportions; the adulteration mixes more of
        // them in) — a config surface the tuner can actually win or lose
        // on, per the fig12 sizing rationale.
        let wl = AdulteratedWorkload::new(production(), 0.05);
        let catalog = wl.base().catalog().clone();
        let arrival = wl.base().default_arrival().clone();
        let flavor = if i % 2 == 0 {
            DbFlavor::Postgres
        } else {
            DbFlavor::Lsm
        };
        let node = NodeSpec::new(flavor, InstanceType::M4XLarge).managed(
            catalog,
            Box::new(wl),
            arrival,
            TuningPolicy::Periodic(10 * MILLIS_PER_MIN),
            WorkloadId(0),
            TdeConfig::default(),
            seed ^ (i as u64).wrapping_mul(0x9e37),
        );
        sim.add_node(node, &format!("prod-{i}"));
    }
    sim.enable_safety(if guarded {
        guarded_config()
    } else {
        observe_only()
    });
    sim
}
