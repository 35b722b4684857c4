//! The property catalog: named invariants every scenario run is judged
//! against.
//!
//! Each property is a *terminal* check over a [`RunOutcome`] — the run
//! finishes (including its quiet tail) and then the oracles ask whether
//! the control plane ended where it promised to. Names are stable: bug-base
//! entries record them, so renaming a property orphans its bugs.

use crate::profile::Profile;
use crate::run::RunOutcome;

/// One named invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Fleet availability stayed at or above the profile's floor.
    AvailabilityFloor,
    /// No node ended the run with stalled control-plane work (a master
    /// still down, a request past deadline, a retry or parked apply past
    /// due) — every request terminates or retries within deadline.
    NoWedgedServices,
    /// Bad configs never survive: after the quiet tail every rollback
    /// guard has resolved and no live config drifts from the config of
    /// record.
    RollbackGuardCorrectness,
    /// No quarantined (low-quality) sample leaked into online training
    /// while capture was TDE-gated.
    SampleHygiene,
    /// The one-shard and wide-shard drives produced bit-identical runs
    /// (event-log fingerprints and per-node query counters).
    ShardedIdentity,
    /// A mid-plan save/restore round trip did not change the run: the
    /// interrupted twin ends with the same event-log fingerprint and
    /// per-node query counters as the uninterrupted run (ROADMAP item 5's
    /// bit-identity contract). Abstains when no save/restore twin ran.
    SnapshotIdentity,
    /// LSM-only write-availability floor: no LSM master may spend more
    /// than [`MAX_LSM_STALL_FRAC`] of the run in compaction write-stall
    /// (L0 at or past `write_stall_l0`). Abstains on fleets with no LSM
    /// nodes — the compaction-debt failure mode does not exist on the
    /// page heap.
    CompactionStallFloor,
}

/// Largest tolerable write-stall fraction for the
/// [`Property::CompactionStallFloor`] oracle. Generated bursts (≤6× base
/// rate for ≤2 min) leave LSM stall exposure well under this; a service
/// past it has effectively lost write availability for a quarter of the
/// run, which no tuning outcome justifies.
pub const MAX_LSM_STALL_FRAC: f64 = 0.25;

impl Property {
    /// Every property, in check order.
    pub const ALL: [Property; 7] = [
        Property::AvailabilityFloor,
        Property::NoWedgedServices,
        Property::RollbackGuardCorrectness,
        Property::SampleHygiene,
        Property::ShardedIdentity,
        Property::SnapshotIdentity,
        Property::CompactionStallFloor,
    ];

    /// Stable snake_case name (the bug-base vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            Property::AvailabilityFloor => "availability_floor",
            Property::NoWedgedServices => "no_wedged_services",
            Property::RollbackGuardCorrectness => "rollback_guard_correctness",
            Property::SampleHygiene => "sample_hygiene",
            Property::ShardedIdentity => "sharded_identity",
            Property::SnapshotIdentity => "snapshot_identity",
            Property::CompactionStallFloor => "compaction_stall_floor",
        }
    }

    /// Inverse of [`Property::name`].
    pub fn from_name(name: &str) -> Option<Property> {
        Property::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Check this property against one finished run. `None` means it held;
    /// `Some(detail)` describes the violation.
    pub fn check(&self, profile: &Profile, out: &RunOutcome) -> Option<String> {
        match self {
            Property::AvailabilityFloor => {
                (out.availability < profile.availability_floor).then(|| {
                    format!(
                        "availability {:.4} below floor {:.4}",
                        out.availability, profile.availability_floor
                    )
                })
            }
            Property::NoWedgedServices => (!out.wedged.is_empty())
                .then(|| format!("nodes wedged after quiet tail: {:?}", out.wedged)),
            Property::RollbackGuardCorrectness => {
                if !out.guards_armed.is_empty() {
                    Some(format!(
                        "rollback guards still armed after quiet tail: {:?}",
                        out.guards_armed
                    ))
                } else if !out.drifted.is_empty() {
                    Some(format!(
                        "live config drifts from config of record: {:?}",
                        out.drifted
                    ))
                } else {
                    None
                }
            }
            Property::SampleHygiene => (out.online_low_samples > 0).then(|| {
                format!(
                    "{} low-quality samples leaked into online training",
                    out.online_low_samples
                )
            }),
            Property::ShardedIdentity => {
                let sharded_fp = out.fingerprint_sharded?;
                if sharded_fp != out.fingerprint_serial {
                    Some(format!(
                        "event-log fingerprints diverge: one-shard {:016x} vs sharded {:016x}",
                        out.fingerprint_serial, sharded_fp
                    ))
                } else if out.queries_sharded.as_ref() != Some(&out.queries_serial) {
                    Some("per-node query counters diverge between shard counts".to_string())
                } else {
                    None
                }
            }
            Property::SnapshotIdentity => {
                let resumed_fp = out.fingerprint_resumed?;
                if resumed_fp != out.fingerprint_serial {
                    Some(format!(
                        "event-log fingerprints diverge: uninterrupted {:016x} vs save/restore {:016x}",
                        out.fingerprint_serial, resumed_fp
                    ))
                } else if out.queries_resumed.as_ref() != Some(&out.queries_serial) {
                    Some(
                        "per-node query counters diverge across the snapshot round trip"
                            .to_string(),
                    )
                } else {
                    None
                }
            }
            Property::CompactionStallFloor => {
                let over: Vec<String> = out
                    .lsm_stall_frac
                    .iter()
                    .filter(|(_, frac)| *frac > MAX_LSM_STALL_FRAC)
                    .map(|(i, frac)| format!("node {i} stalled {:.1}% of the run", frac * 100.0))
                    .collect();
                (!over.is_empty()).then(|| {
                    format!(
                        "LSM write-stall budget {:.0}% exceeded: {}",
                        MAX_LSM_STALL_FRAC * 100.0,
                        over.join(", ")
                    )
                })
            }
        }
    }
}

/// A property that failed, with its evidence.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub property: Property,
    /// Human-readable evidence.
    pub detail: String,
}

/// Judge one finished run against the whole catalog, in catalog order.
pub fn check_all(profile: &Profile, out: &RunOutcome) -> Vec<Violation> {
    Property::ALL
        .iter()
        .filter_map(|p| {
            p.check(profile, out).map(|detail| Violation {
                property: *p,
                detail,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;

    fn healthy() -> RunOutcome {
        RunOutcome {
            availability: 1.0,
            wedged: vec![],
            drifted: vec![],
            guards_armed: vec![],
            online_low_samples: 0,
            fingerprint_serial: 7,
            fingerprint_sharded: Some(7),
            queries_serial: vec![10, 20],
            queries_sharded: Some(vec![10, 20]),
            rollbacks: 0,
            lsm_stall_frac: vec![(1, 0.02)],
            fingerprint_resumed: Some(7),
            queries_resumed: Some(vec![10, 20]),
        }
    }

    #[test]
    fn names_round_trip() {
        for p in Property::ALL {
            assert_eq!(Property::from_name(p.name()), Some(p));
        }
        assert_eq!(Property::from_name("bogus"), None);
    }

    #[test]
    fn healthy_outcome_passes_every_property() {
        let p = profile("quiet").unwrap();
        assert!(check_all(p, &healthy()).is_empty());
    }

    #[test]
    fn each_defect_trips_exactly_its_property() {
        let p = profile("quiet").unwrap();
        let cases: Vec<(Property, RunOutcome)> = vec![
            (
                Property::AvailabilityFloor,
                RunOutcome {
                    availability: 0.5,
                    ..healthy()
                },
            ),
            (
                Property::NoWedgedServices,
                RunOutcome {
                    wedged: vec![2],
                    ..healthy()
                },
            ),
            (
                Property::RollbackGuardCorrectness,
                RunOutcome {
                    drifted: vec![0],
                    ..healthy()
                },
            ),
            (
                Property::RollbackGuardCorrectness,
                RunOutcome {
                    guards_armed: vec![1],
                    ..healthy()
                },
            ),
            (
                Property::SampleHygiene,
                RunOutcome {
                    online_low_samples: 3,
                    ..healthy()
                },
            ),
            (
                Property::ShardedIdentity,
                RunOutcome {
                    fingerprint_sharded: Some(8),
                    ..healthy()
                },
            ),
            (
                Property::ShardedIdentity,
                RunOutcome {
                    queries_sharded: Some(vec![10, 21]),
                    ..healthy()
                },
            ),
            (
                Property::SnapshotIdentity,
                RunOutcome {
                    fingerprint_resumed: Some(9),
                    ..healthy()
                },
            ),
            (
                Property::SnapshotIdentity,
                RunOutcome {
                    queries_resumed: Some(vec![10, 19]),
                    ..healthy()
                },
            ),
            (
                Property::CompactionStallFloor,
                RunOutcome {
                    lsm_stall_frac: vec![(1, 0.02), (3, MAX_LSM_STALL_FRAC + 0.1)],
                    ..healthy()
                },
            ),
        ];
        for (want, out) in cases {
            let violations = check_all(p, &out);
            assert_eq!(violations.len(), 1, "{want:?}");
            assert_eq!(violations[0].property, want);
        }
        // Without the doublecheck twins both identity oracles abstain.
        let solo = RunOutcome {
            fingerprint_sharded: None,
            queries_sharded: None,
            fingerprint_resumed: None,
            queries_resumed: None,
            ..healthy()
        };
        assert!(check_all(p, &solo).is_empty());
        // Without LSM nodes the compaction-stall oracle abstains.
        let all_pageheap = RunOutcome {
            lsm_stall_frac: vec![],
            ..healthy()
        };
        assert!(check_all(p, &all_pageheap).is_empty());
    }
}
