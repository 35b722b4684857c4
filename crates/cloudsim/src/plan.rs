//! Interaction plans: the fleet's one adversarial schedule.
//!
//! An [`InteractionPlan`] schedules everything that can happen to a managed
//! fleet — every [`FaultKind`], workload bursts, operator knob pushes,
//! maintenance windows, replica churn — as one immutable, time-sorted
//! script decided *before* the run. [`FleetSim`](crate::FleetSim) delivers
//! it through [`FleetSim::enable_plan`](crate::FleetSim::enable_plan). The
//! chaos figure and tests use the fault-only generators
//! ([`InteractionPlan::standard_faults`], [`InteractionPlan::random_faults`]);
//! the scenario crate generates mixed plans from weighted profiles and
//! shrinks the failing ones. Nothing draws randomness at delivery time, so
//! a plan replays bit-for-bit.

use crate::faults::{FaultKind, STANDARD_ROTATION};
use autodbaas_telemetry::{Fingerprint, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One thing that can happen to a fleet node at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanAction {
    /// Inject one fault (the [`FaultKind`] vocabulary).
    Fault(FaultKind),
    /// The tenant's traffic jumps to `rate_qps` for `duration_ms`, then
    /// reverts to whatever arrival process was running before the burst.
    Burst {
        /// Burst arrival rate, queries/second.
        rate_qps: f64,
        /// Burst length.
        duration_ms: u64,
    },
    /// An operator (or a buggy tuner) pushes every reloadable knob to the
    /// same unit-cube coordinate `value` through the normal vetted apply
    /// path — the adversarial input the rollback guard exists for.
    KnobPush {
        /// Unit-cube coordinate in `[0, 1]` for every knob dimension.
        value: f64,
    },
    /// A maintenance window: rolling restart of the master (failover when
    /// the service has replicas, full crash recovery otherwise).
    Maintenance,
    /// Grow the service by one caught-up replica.
    AddReplica,
    /// Shrink the service by one replica (no-op on a replica-less service).
    RemoveReplica,
}

impl PlanAction {
    /// Total order for stable plan sorting, extending
    /// [`FaultKind::sort_key`]: discriminant rank plus parameter bits
    /// (`f64` via `to_bits`; no generator produces NaN or negatives).
    fn sort_key(&self) -> (u8, u64, u64, u64) {
        match *self {
            PlanAction::Fault(kind) => {
                let (r, a, b) = kind.sort_key();
                (0, r as u64, a, b)
            }
            PlanAction::Burst {
                rate_qps,
                duration_ms,
            } => (1, rate_qps.to_bits(), duration_ms, 0),
            PlanAction::KnobPush { value } => (2, value.to_bits(), 0, 0),
            PlanAction::Maintenance => (3, 0, 0, 0),
            PlanAction::AddReplica => (4, 0, 0, 0),
            PlanAction::RemoveReplica => (5, 0, 0, 0),
        }
    }

    /// Static dotted label, used for event logs and fingerprints.
    pub fn label(&self) -> &'static str {
        match self {
            PlanAction::Fault(kind) => match kind {
                FaultKind::VmCrash => "fault.vm_crash",
                FaultKind::MasterCrashMidApply => "fault.master_crash_mid_apply",
                FaultKind::SlaveCrashMidApply => "fault.slave_crash_mid_apply",
                FaultKind::TunerOutage { .. } => "fault.tuner_outage",
                FaultKind::TelemetryDrop { .. } => "fault.telemetry_drop",
                FaultKind::DiskStall { .. } => "fault.disk_stall",
                FaultKind::ReplicaLagSpike { .. } => "fault.replica_lag_spike",
                FaultKind::RequestLoss => "fault.request_loss",
            },
            PlanAction::Burst { .. } => "plan.burst",
            PlanAction::KnobPush { .. } => "plan.knob_push",
            PlanAction::Maintenance => "plan.maintenance",
            PlanAction::AddReplica => "plan.replica_add",
            PlanAction::RemoveReplica => "plan.replica_remove",
        }
    }
}

/// A scheduled interaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEvent {
    /// When it happens.
    pub at: SimTime,
    /// Which fleet node (index into `FleetSim::nodes`).
    pub node: usize,
    /// What happens.
    pub action: PlanAction,
}

impl PlanEvent {
    /// `kind` injected into `node` at `at`.
    pub fn fault(at: SimTime, node: usize, kind: FaultKind) -> Self {
        Self {
            at,
            node,
            action: PlanAction::Fault(kind),
        }
    }
}

/// A time-sorted interaction schedule.
///
/// # Examples
///
/// ```
/// use autodbaas_cloudsim::{FaultKind, InteractionPlan, PlanAction, PlanEvent};
///
/// let plan = InteractionPlan::new(vec![
///     PlanEvent { at: 60_000, node: 0, action: PlanAction::Maintenance },
///     PlanEvent::fault(30_000, 1, FaultKind::VmCrash),
/// ]);
/// assert_eq!(plan.events()[0].at, 30_000);
/// assert_eq!(plan.fingerprint(), plan.clone().fingerprint());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InteractionPlan {
    events: Vec<PlanEvent>,
}

impl InteractionPlan {
    /// A plan from explicit events; sorted by `(at, node, action)` so
    /// delivery order never depends on construction order — even for
    /// events landing on the same node at the same tick, which matters when
    /// the shrinker removes events and re-sorts the remainder.
    pub fn new(mut events: Vec<PlanEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.node, e.action.sort_key()));
        Self { events }
    }

    /// The canonical chaos mix used by fig16 and the smoke tests: two
    /// rotations of the eight fault kinds dealt round-robin across the
    /// fleet, evenly spaced over the first 75% of the run so the tail is
    /// quiet enough for every recovery and reconciliation to land. Fully
    /// deterministic — no RNG.
    pub fn standard_faults(n_nodes: usize, duration_ms: u64) -> Self {
        assert!(n_nodes > 0);
        let n_events = STANDARD_ROTATION.len() * 2;
        let window = duration_ms * 3 / 4;
        let events = (0..n_events)
            .map(|i| {
                PlanEvent::fault(
                    window * (i as u64 + 1) / (n_events as u64 + 1),
                    i % n_nodes,
                    STANDARD_ROTATION[i % STANDARD_ROTATION.len()],
                )
            })
            .collect();
        Self::new(events)
    }

    /// A seeded random fault schedule: `n_events` faults at uniform times
    /// in the first 75% of the run, uniform nodes, kinds drawn from the
    /// standard rotation. Same `(seed, n_nodes, duration_ms, n_events)` ⇒
    /// same plan.
    pub fn random_faults(seed: u64, n_nodes: usize, duration_ms: u64, n_events: usize) -> Self {
        assert!(n_nodes > 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa017);
        let window = (duration_ms * 3 / 4).max(1);
        let events = (0..n_events)
            .map(|_| {
                let at = rng.gen_range(0..window);
                let node = rng.gen_range(0..n_nodes);
                let kind = STANDARD_ROTATION[rng.gen_range(0..STANDARD_ROTATION.len())];
                PlanEvent::fault(at, node, kind)
            })
            .collect();
        Self::new(events)
    }

    /// The schedule, time-sorted.
    pub fn events(&self) -> &[PlanEvent] {
        &self.events
    }

    /// Number of scheduled interactions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last scheduled interaction (0 for an empty plan).
    pub fn last_at(&self) -> SimTime {
        self.events.last().map_or(0, |e| e.at)
    }

    /// FNV-1a fingerprint of the whole schedule — the identity a bug-base
    /// entry records so a replayed plan can prove it is the same plan.
    /// Shares [`Fingerprint`] with the telemetry event log.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        for e in &self.events {
            h.mix_u64(e.at);
            h.mix_u64(e.node as u64);
            h.mix(e.action.label().as_bytes());
            let (r, a, b, c) = e.action.sort_key();
            h.mix_u64(r as u64);
            h.mix_u64(a);
            h.mix_u64(b);
            h.mix_u64(c);
        }
        h.finish()
    }
}

/// Cursor over an [`InteractionPlan`] during a run.
#[derive(Debug, Clone)]
pub struct PlanEngine {
    plan: InteractionPlan,
    cursor: usize,
}

impl PlanEngine {
    /// Engine over `plan`.
    pub fn new(plan: InteractionPlan) -> Self {
        Self { plan, cursor: 0 }
    }

    /// Drain the events that have come due by `now`, in schedule order, into
    /// a caller-owned scratch buffer. Each event is handed out exactly once.
    /// `out` is cleared first; the per-tick caller reuses one buffer so the
    /// hot path never allocates after warm-up, and because nothing borrows
    /// from `self` at return the caller is free to deliver against the same
    /// struct that owns this engine.
    pub fn take_due_into(&mut self, now: SimTime, out: &mut Vec<PlanEvent>) {
        out.clear();
        let start = self.cursor;
        while self.cursor < self.plan.events.len() && self.plan.events[self.cursor].at <= now {
            self.cursor += 1;
        }
        out.extend_from_slice(&self.plan.events[start..self.cursor]);
    }

    /// Interactions not yet delivered.
    pub fn remaining(&self) -> usize {
        self.plan.events.len() - self.cursor
    }

    /// The full plan.
    pub fn plan(&self) -> &InteractionPlan {
        &self.plan
    }
}

use autodbaas_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

impl Snap for PlanAction {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            PlanAction::Fault(kind) => {
                0u16.encode(w);
                kind.encode(w);
            }
            PlanAction::Burst {
                rate_qps,
                duration_ms,
            } => {
                1u16.encode(w);
                rate_qps.encode(w);
                duration_ms.encode(w);
            }
            PlanAction::KnobPush { value } => {
                2u16.encode(w);
                value.encode(w);
            }
            PlanAction::Maintenance => 3u16.encode(w),
            PlanAction::AddReplica => 4u16.encode(w),
            PlanAction::RemoveReplica => 5u16.encode(w),
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match u16::decode(r)? {
            0 => PlanAction::Fault(Snap::decode(r)?),
            1 => PlanAction::Burst {
                rate_qps: f64::decode(r)?,
                duration_ms: u64::decode(r)?,
            },
            2 => PlanAction::KnobPush {
                value: f64::decode(r)?,
            },
            3 => PlanAction::Maintenance,
            4 => PlanAction::AddReplica,
            5 => PlanAction::RemoveReplica,
            t => {
                return Err(SnapError::UnknownTag {
                    what: "PlanAction",
                    tag: t.into(),
                })
            }
        })
    }
}

snap_struct!(PlanEvent { at, node, action });
snap_struct!(InteractionPlan { events });
snap_struct!(PlanEngine { plan, cursor });

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: SimTime, node: usize, action: PlanAction) -> PlanEvent {
        PlanEvent { at, node, action }
    }

    #[test]
    fn plans_sort_stably_regardless_of_insertion_order() {
        let actions = [
            PlanAction::Maintenance,
            PlanAction::Fault(FaultKind::VmCrash),
            PlanAction::Burst {
                rate_qps: 900.0,
                duration_ms: 60_000,
            },
            PlanAction::KnobPush { value: 1.0 },
        ];
        let a = InteractionPlan::new(actions.iter().map(|&x| ev(500, 1, x)).collect());
        let b = InteractionPlan::new(actions.iter().rev().map(|&x| ev(500, 1, x)).collect());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Faults rank before non-fault interactions at the same instant.
        assert_eq!(a.events()[0].action, PlanAction::Fault(FaultKind::VmCrash));
        // Time dominates node dominates action.
        let c = InteractionPlan::new(vec![
            ev(600, 0, PlanAction::Maintenance),
            ev(500, 2, PlanAction::Maintenance),
            ev(500, 1, PlanAction::AddReplica),
        ]);
        assert_eq!(c.events()[0].node, 1);
        assert_eq!(c.events()[2].at, 600);
        assert_eq!(c.last_at(), 600);
        // Fault kinds rank VmCrash < DiskStall < RequestLoss; the same kind
        // with different parameters sorts by parameter bits.
        let stall = |factor| FaultKind::DiskStall {
            duration_ms: 10_000,
            factor,
        };
        let kinds = [
            FaultKind::RequestLoss,
            stall(8.0),
            FaultKind::VmCrash,
            stall(2.0),
        ];
        let d = InteractionPlan::new(kinds.iter().map(|&k| PlanEvent::fault(500, 1, k)).collect());
        let e = InteractionPlan::new(
            kinds
                .iter()
                .rev()
                .map(|&k| PlanEvent::fault(500, 1, k))
                .collect(),
        );
        assert_eq!(d.events(), e.events());
        let sorted: Vec<_> = d.events().iter().map(|e| e.action).collect();
        let expect = [
            FaultKind::VmCrash,
            stall(2.0),
            stall(8.0),
            FaultKind::RequestLoss,
        ];
        assert_eq!(sorted, expect.map(PlanAction::Fault));
        // Node is a stronger tiebreak than kind.
        let n = InteractionPlan::new(vec![
            PlanEvent::fault(500, 2, FaultKind::VmCrash),
            PlanEvent::fault(500, 0, FaultKind::RequestLoss),
        ]);
        assert_eq!(n.events()[0].node, 0);
    }

    fn kinds(plan: &InteractionPlan) -> Vec<FaultKind> {
        plan.events()
            .iter()
            .map(|e| match e.action {
                PlanAction::Fault(kind) => kind,
                other => panic!("fault generators emit only faults, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn standard_plan_is_deterministic_and_covers_all_kinds() {
        let a = InteractionPlan::standard_faults(4, 1_000_000);
        let b = InteractionPlan::standard_faults(4, 1_000_000);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 16);
        let dealt = kinds(&a);
        assert!(STANDARD_ROTATION.iter().all(|kind| dealt.contains(kind)));
        // A quiet tail: nothing in the last quarter of the run.
        assert!(a.last_at() <= 750_000);
        // Every node gets hit.
        for n in 0..4 {
            assert!(a.events().iter().any(|e| e.node == n));
        }
    }

    #[test]
    fn generated_plans_reproduce_under_the_same_seed() {
        let a = InteractionPlan::random_faults(7, 3, 600_000, 20);
        let b = InteractionPlan::random_faults(7, 3, 600_000, 20);
        let c = InteractionPlan::random_faults(8, 3, 600_000, 20);
        assert_eq!(a.events(), b.events());
        assert_ne!(a.events(), c.events());
        assert_eq!(kinds(&a).len(), 20);
        assert!(a.events().iter().all(|e| e.node < 3 && e.at < 450_000));
    }

    /// The generators' arithmetic, the `seed ^ 0xfa017` stream and the draw
    /// order (`at`, `node`, kind) are part of every pinned chaos
    /// fingerprint (fig16, EXPERIMENTS.md), so the schedules are goldens.
    #[test]
    fn fault_generators_match_their_goldens() {
        const MIN: u64 = 60_000;
        let standard = InteractionPlan::standard_faults(5, 45 * MIN);
        assert_eq!(standard.len(), 16);
        for (got, want) in [
            (standard, 0x322add7bbef5b3e1u64),
            (
                InteractionPlan::random_faults(43, 5, 45 * MIN, 16),
                0x754056d60dd2d1ee,
            ),
            (
                InteractionPlan::standard_faults(2, 8 * MIN),
                0x4f7cc9a343596298,
            ),
            (
                InteractionPlan::random_faults(99, 2, 8 * MIN, 12),
                0x4e6c4c58ce45ca14,
            ),
        ] {
            assert_eq!(got.fingerprint(), want, "{:016x}", got.fingerprint());
        }
    }

    #[test]
    fn fingerprint_distinguishes_parameters_and_order() {
        let base = InteractionPlan::new(vec![ev(100, 0, PlanAction::KnobPush { value: 0.5 })]);
        let other = InteractionPlan::new(vec![ev(100, 0, PlanAction::KnobPush { value: 0.9 })]);
        assert_ne!(base.fingerprint(), other.fingerprint());
        let moved = InteractionPlan::new(vec![ev(200, 0, PlanAction::KnobPush { value: 0.5 })]);
        assert_ne!(base.fingerprint(), moved.fingerprint());
        let renoded = InteractionPlan::new(vec![ev(100, 1, PlanAction::KnobPush { value: 0.5 })]);
        assert_ne!(base.fingerprint(), renoded.fingerprint());
        assert_eq!(
            InteractionPlan::default().fingerprint(),
            InteractionPlan::new(Vec::new()).fingerprint()
        );
    }

    #[test]
    fn engine_hands_out_each_event_once_in_order() {
        let plan = InteractionPlan::new(
            (0..10)
                .map(|i| ev(i * 1_000, i as usize % 3, PlanAction::Maintenance))
                .collect(),
        );
        let mut engine = PlanEngine::new(plan);
        let mut due = vec![ev(0, 9, PlanAction::Maintenance)];
        engine.take_due_into(4_000, &mut due);
        assert_eq!(due.len(), 5, "events at 0..=4000 inclusive");
        assert!(due.windows(2).all(|w| w[0].at <= w[1].at));
        engine.take_due_into(4_000, &mut due);
        assert!(due.is_empty(), "events must not repeat");
        assert_eq!(engine.remaining(), 5);
        engine.take_due_into(u64::MAX, &mut due);
        assert_eq!(due.len(), 5);
        assert_eq!(engine.remaining(), 0);
    }
}
