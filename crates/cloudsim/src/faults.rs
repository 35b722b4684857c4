//! The fault vocabulary of the fleet simulator.
//!
//! A [`FaultKind`] names one injected failure and carries its parameters.
//! Faults are scheduled as [`PlanAction::Fault`](crate::PlanAction::Fault)
//! events of an [`InteractionPlan`](crate::InteractionPlan) — the canonical
//! mix is [`InteractionPlan::standard_faults`](crate::InteractionPlan::standard_faults)
//! — and injected by [`crate::FleetSim`] as simulation time passes them.
//! Nothing draws randomness at injection time, so the same plan against
//! the same fleet seed produces a bit-for-bit identical run (pinned by the
//! chaos tests via the telemetry event-log fingerprint).

use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The master VM dies now: failover if the service has slaves, WAL
    /// crash recovery either way.
    VmCrash,
    /// Arm the §4 mid-apply master crash: the *next* apply on this service
    /// fails after the slaves succeeded, leaving drift for the reconciler.
    MasterCrashMidApply,
    /// Arm a slave crash during the next apply: the recommendation is
    /// rejected slave-first, master untouched.
    SlaveCrashMidApply,
    /// The tuner service is unreachable; recommendation deliveries stall
    /// until the window ends (in-flight requests may time out and retry).
    TunerOutage {
        /// Outage length.
        duration_ms: u64,
    },
    /// The monitoring agent goes dark on this node: TDE windows during the
    /// blackout are skipped and never become samples.
    TelemetryDrop {
        /// Blackout length.
        duration_ms: u64,
    },
    /// Disk latency inflates by `factor` for `duration_ms` (noisy
    /// neighbor / EBS degradation).
    DiskStall {
        /// Stall length.
        duration_ms: u64,
        /// Latency multiplier, ≥ 1.
        factor: f64,
    },
    /// Replication replay stalls on every slave for `pause_ms` — lag builds
    /// and the apply lag-guard starts refusing.
    ReplicaLagSpike {
        /// Replay pause.
        pause_ms: u64,
    },
    /// The in-flight tuning request's response is lost in transit; only the
    /// deadline/retry machinery can recover the node's tuning loop.
    RequestLoss,
}

impl FaultKind {
    /// Total order over fault kinds for stable plan sorting: a discriminant
    /// rank plus the kind's parameters (`f64`s via `to_bits`, which is a
    /// total order here because no generator produces NaN or negative
    /// factors). Two equal-`(at, node)` events therefore sort the same way
    /// on every run, which is what keeps shrinking reproducible.
    pub(crate) fn sort_key(&self) -> (u8, u64, u64) {
        match *self {
            FaultKind::VmCrash => (0, 0, 0),
            FaultKind::MasterCrashMidApply => (1, 0, 0),
            FaultKind::SlaveCrashMidApply => (2, 0, 0),
            FaultKind::TunerOutage { duration_ms } => (3, duration_ms, 0),
            FaultKind::TelemetryDrop { duration_ms } => (4, duration_ms, 0),
            FaultKind::DiskStall {
                duration_ms,
                factor,
            } => (5, duration_ms, factor.to_bits()),
            FaultKind::ReplicaLagSpike { pause_ms } => (6, pause_ms, 0),
            FaultKind::RequestLoss => (7, 0, 0),
        }
    }
}

/// One of each kind: the rotation the plan generators deal faults from.
pub(crate) const STANDARD_ROTATION: [FaultKind; 8] = [
    FaultKind::VmCrash,
    FaultKind::DiskStall {
        duration_ms: 30_000,
        factor: 4.0,
    },
    FaultKind::RequestLoss,
    FaultKind::MasterCrashMidApply,
    FaultKind::TelemetryDrop {
        duration_ms: 90_000,
    },
    FaultKind::ReplicaLagSpike { pause_ms: 45_000 },
    FaultKind::SlaveCrashMidApply,
    FaultKind::TunerOutage {
        duration_ms: 120_000,
    },
];

impl Snap for FaultKind {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            FaultKind::VmCrash => 0u16.encode(w),
            FaultKind::MasterCrashMidApply => 1u16.encode(w),
            FaultKind::SlaveCrashMidApply => 2u16.encode(w),
            FaultKind::TunerOutage { duration_ms } => {
                3u16.encode(w);
                duration_ms.encode(w);
            }
            FaultKind::TelemetryDrop { duration_ms } => {
                4u16.encode(w);
                duration_ms.encode(w);
            }
            FaultKind::DiskStall {
                duration_ms,
                factor,
            } => {
                5u16.encode(w);
                duration_ms.encode(w);
                factor.encode(w);
            }
            FaultKind::ReplicaLagSpike { pause_ms } => {
                6u16.encode(w);
                pause_ms.encode(w);
            }
            FaultKind::RequestLoss => 7u16.encode(w),
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match u16::decode(r)? {
            0 => FaultKind::VmCrash,
            1 => FaultKind::MasterCrashMidApply,
            2 => FaultKind::SlaveCrashMidApply,
            3 => FaultKind::TunerOutage {
                duration_ms: u64::decode(r)?,
            },
            4 => FaultKind::TelemetryDrop {
                duration_ms: u64::decode(r)?,
            },
            5 => FaultKind::DiskStall {
                duration_ms: u64::decode(r)?,
                factor: f64::decode(r)?,
            },
            6 => FaultKind::ReplicaLagSpike {
                pause_ms: u64::decode(r)?,
            },
            7 => FaultKind::RequestLoss,
            t => {
                return Err(SnapError::UnknownTag {
                    what: "FaultKind",
                    tag: t.into(),
                })
            }
        })
    }
}
