//! Seeded plan generation: `(profile, seed)` → one interaction plan.
//!
//! All randomness is drawn up front from one seeded RNG, so the same
//! `(profile, seed)` pair produces a byte-identical plan on every machine
//! — the property that makes bug-base entries replayable and the explore
//! smoke bit-deterministic.

use crate::profile::Profile;
use autodbaas_cloudsim::{FaultKind, InteractionPlan, PlanAction, PlanEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate the interaction plan for `(profile, seed)`.
///
/// Events land at uniform times in the first 75% of the profile's run
/// (mirroring [`InteractionPlan::random_faults`]), on uniform nodes, with
/// action classes drawn from the profile's weighted dice. The plan is sorted by `(at, node, action)` like every plan in the
/// workspace, so generation order never leaks into injection order.
pub fn generate(profile: &Profile, seed: u64) -> InteractionPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce2a410);
    let window = (profile.duration_ms * 3 / 4).max(1);
    let events = (0..profile.n_events)
        .map(|_| PlanEvent {
            at: rng.gen_range(0..window),
            node: rng.gen_range(0..profile.n_nodes),
            action: gen_action(profile, &mut rng),
        })
        .collect();
    InteractionPlan::new(events)
}

/// Roll the profile's weighted dice for one action.
fn gen_action(profile: &Profile, rng: &mut StdRng) -> PlanAction {
    let w = profile.weights;
    let mut roll = rng.gen_range(0..w.total());
    if roll < w.fault {
        return PlanAction::Fault(gen_fault(rng));
    }
    roll -= w.fault;
    if roll < w.burst {
        // 2–6× the steady rate, long enough to straddle a TDE window.
        let mult = 2.0 + rng.gen::<f64>() * 4.0;
        return PlanAction::Burst {
            rate_qps: (profile.base_qps * mult).round(),
            duration_ms: rng.gen_range(30..=120) * 1_000,
        };
    }
    roll -= w.burst;
    if roll < w.knob_push {
        // The unit-cube corners are the adversarial pushes (a 0.5 push is
        // close to a sane config); snap to one of five coordinates so
        // shrinking has few distinct values to walk through.
        let value = [0.0, 0.25, 0.5, 0.75, 1.0][rng.gen_range(0..5)];
        return PlanAction::KnobPush { value };
    }
    roll -= w.knob_push;
    if roll < w.maintenance {
        return PlanAction::Maintenance;
    }
    roll -= w.maintenance;
    if roll < w.add_replica {
        return PlanAction::AddReplica;
    }
    PlanAction::RemoveReplica
}

/// Uniform pick over the eight fault kinds with profile-independent,
/// shrink-friendly parameter grids.
fn gen_fault(rng: &mut StdRng) -> FaultKind {
    match rng.gen_range(0..8u32) {
        0 => FaultKind::VmCrash,
        1 => FaultKind::MasterCrashMidApply,
        2 => FaultKind::SlaveCrashMidApply,
        3 => FaultKind::TunerOutage {
            duration_ms: rng.gen_range(1..=4) * 30_000,
        },
        4 => FaultKind::TelemetryDrop {
            duration_ms: rng.gen_range(1..=3) * 60_000,
        },
        5 => FaultKind::DiskStall {
            duration_ms: rng.gen_range(1..=4) * 15_000,
            factor: [2.0, 4.0, 8.0][rng.gen_range(0..3)],
        },
        6 => FaultKind::ReplicaLagSpike {
            pause_ms: rng.gen_range(1..=3) * 30_000,
        },
        _ => FaultKind::RequestLoss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile, PROFILES};

    #[test]
    fn generation_is_deterministic_per_seed_and_profile() {
        for p in PROFILES {
            for seed in 0..20u64 {
                let a = generate(p, seed);
                let b = generate(p, seed);
                assert_eq!(a, b, "{} seed {seed}", p.name);
                assert_eq!(a.fingerprint(), b.fingerprint());
                assert_eq!(a.len(), p.n_events);
                let window = p.duration_ms * 3 / 4;
                assert!(a.events().iter().all(|e| e.at < window), "quiet tail");
                assert!(a.events().iter().all(|e| e.node < p.n_nodes));
            }
            assert_ne!(
                generate(p, 1).fingerprint(),
                generate(p, 2).fingerprint(),
                "{}: different seeds must differ",
                p.name
            );
        }
    }

    #[test]
    fn profiles_shape_the_action_mix() {
        let storm = profile("failover-storm").unwrap();
        let quiet = profile("quiet").unwrap();
        let count = |p: &Profile, pred: fn(&PlanAction) -> bool| {
            (0..40u64)
                .flat_map(|s| generate(p, s).events().to_vec())
                .filter(|e| pred(&e.action))
                .count()
        };
        let is_fault = |a: &PlanAction| matches!(a, PlanAction::Fault(_));
        assert_eq!(count(quiet, is_fault), 0, "quiet profile draws no faults");
        assert!(count(storm, is_fault) > 40, "storm is fault-dominated");
        let is_burst = |a: &PlanAction| matches!(a, PlanAction::Burst { .. });
        assert!(count(quiet, is_burst) > count(storm, is_burst));
    }
}
