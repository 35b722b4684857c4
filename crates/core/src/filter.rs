//! Entropy-based throttle filtration (§3.1).
//!
//! Repeated memory throttles can mean two very different things:
//!
//! 1. one query class keeps exhausting one knob — the tuner can fix it, so
//!    throttles should keep flowing to the config director; or
//! 2. every class fires evenly and the memory knobs are already at the
//!    instance cap — no knob recommendation will ever help, and the right
//!    signal is a *plan upgrade* request to the customer, while tuning
//!    requests are suppressed.
//!
//! The paper's rule: after more than 8 consecutive throttles, evaluate the
//! entropy of the class-frequency table; "if the entropy value is higher
//! along-with the memory-knobs reaching maximum cap value, the TDE triggers
//! a plan update … and recommendation requests are not sent". We use the
//! paper's orientation of the score (concentration-high, see
//! `autodbaas_telemetry::entropy::paper_entropy_score`); the "cap" test is
//! [`crate::memory::knob_at_cap`].
//!
//! The rule's values are constants, not options: the 8-throttle count is
//! §3.1's; the paper gives no number for "higher" entropy, so the 0.35
//! concentration threshold is this reproduction's fixed choice.

use crate::classify::ClassHistogram;
use autodbaas_telemetry::entropy::paper_entropy_score;

/// What the filter decided about a throttle stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// Forward throttles to the config director (tuning can help).
    Forward,
    /// Suppress tuning and request a hardware plan upgrade.
    PlanUpgrade,
    /// Suppress tuning without an upgrade: §3.1's first rule-based case —
    /// one query class keeps exhausting a knob that is already pinned at
    /// its cap, so no recommendation can help until the maintenance window
    /// re-budgets memory (the entropy hit feeds that §4 rule).
    Suppress,
    /// Keep counting; not enough consecutive throttles yet.
    Hold,
}

/// Consecutive throttles before the entropy is evaluated (§3.1's 8).
const CONSECUTIVE_THRESHOLD: u32 = 8;

/// Paper-orientation entropy score above which the class distribution
/// counts as "concentrated".
const ENTROPY_THRESHOLD: f64 = 0.35;

/// Per-knob-class consecutive-throttle tracker + entropy evaluation.
#[derive(Debug, Clone, Default)]
pub struct EntropyFilter {
    consecutive: u32,
    /// Count of entropy evaluations that concluded "cap-limited" — §4 calls
    /// these "entropy hits" and uses them in the buffer-shrink rule.
    entropy_hits: u32,
}

impl EntropyFilter {
    /// Record that a detector window produced a throttle (`true`) or ran
    /// clean (`false`), then decide. `knob_at_cap` is whether the throttled
    /// knob is pinned at its maximum; `hist` is the current class table.
    pub fn observe(
        &mut self,
        throttled: bool,
        knob_at_cap: bool,
        hist: &ClassHistogram,
    ) -> FilterDecision {
        if !throttled {
            self.consecutive = 0;
            return FilterDecision::Forward; // nothing to suppress
        }
        self.consecutive += 1;
        if self.consecutive <= CONSECUTIVE_THRESHOLD {
            return FilterDecision::Forward;
        }
        // More than 8 consecutive throttles: evaluate entropy.
        let score = paper_entropy_score(hist.counts());
        // Restart the 8-count either way ("the same job waits for next 8
        // throttles before calculating the next entropy value").
        self.consecutive = 0;
        if knob_at_cap && score < ENTROPY_THRESHOLD {
            // Low concentration = all classes firing evenly while the knob
            // is pinned: the instance is undersized — ask the customer for
            // a bigger plan and stop wasting the tuner's time.
            self.entropy_hits += 1;
            FilterDecision::PlanUpgrade
        } else if knob_at_cap && score >= ENTROPY_THRESHOLD {
            // Concentrated on one class with the knob pinned: §3.1's first
            // rule-based case — "throttles can be filtered". The entropy
            // hit lets the §4 maintenance window shrink the buffer to make
            // room for the starved work-area knob.
            self.entropy_hits += 1;
            FilterDecision::Suppress
        } else {
            FilterDecision::Forward
        }
    }

    /// Consecutive throttles currently counted.
    pub fn consecutive(&self) -> u32 {
        self.consecutive
    }

    /// Entropy-hit count (§4's buffer-shrink precondition).
    pub fn entropy_hits(&self) -> u32 {
        self.entropy_hits
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(EntropyFilter {
    consecutive,
    entropy_hits
});

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::{QueryKind, QueryProfile};

    fn hist_even() -> ClassHistogram {
        let mut h = ClassHistogram::new();
        // One query in every class: maximum evenness.
        let kinds = [
            QueryKind::OrderBy,     // WorkMem
            QueryKind::CreateIndex, // Maintenance
            QueryKind::TempTable,   // TempBuf
            QueryKind::Insert,      // WriteHeavy
            QueryKind::PointSelect, // Other
        ];
        for k in kinds {
            for _ in 0..10 {
                h.record(&QueryProfile::new(k, 0));
            }
        }
        let mut par = QueryProfile::new(QueryKind::RangeSelect, 0);
        par.parallelizable = true;
        for _ in 0..10 {
            h.record(&par);
        }
        h
    }

    fn hist_concentrated() -> ClassHistogram {
        let mut h = ClassHistogram::new();
        for _ in 0..95 {
            h.record(&QueryProfile::new(QueryKind::OrderBy, 0));
        }
        for _ in 0..5 {
            h.record(&QueryProfile::new(QueryKind::PointSelect, 0));
        }
        h
    }

    #[test]
    fn below_threshold_everything_forwards() {
        let mut f = EntropyFilter::default();
        let h = hist_even();
        for _ in 0..8 {
            assert_eq!(f.observe(true, true, &h), FilterDecision::Forward);
        }
        assert_eq!(f.consecutive(), 8);
    }

    #[test]
    fn ninth_consecutive_throttle_with_even_classes_and_cap_upgrades_plan() {
        let mut f = EntropyFilter::default();
        let h = hist_even();
        for _ in 0..8 {
            f.observe(true, true, &h);
        }
        assert_eq!(f.observe(true, true, &h), FilterDecision::PlanUpgrade);
        assert_eq!(f.entropy_hits(), 1);
        assert_eq!(f.consecutive(), 0, "count restarts after evaluation");
    }

    #[test]
    fn concentrated_classes_at_cap_are_suppressed_not_upgraded() {
        let mut f = EntropyFilter::default();
        let h = hist_concentrated();
        for _ in 0..8 {
            f.observe(true, true, &h);
        }
        assert_eq!(f.observe(true, true, &h), FilterDecision::Suppress);
        // Still an entropy hit — §4 uses it for the buffer-shrink rule.
        assert_eq!(f.entropy_hits(), 1);
    }

    #[test]
    fn no_cap_means_never_upgrade() {
        let mut f = EntropyFilter::default();
        let h = hist_even();
        for _ in 0..20 {
            let d = f.observe(true, false, &h);
            assert_ne!(d, FilterDecision::PlanUpgrade);
        }
        assert_eq!(f.entropy_hits(), 0);
    }

    #[test]
    fn clean_window_resets_consecutive_count() {
        let mut f = EntropyFilter::default();
        let h = hist_even();
        for _ in 0..7 {
            f.observe(true, true, &h);
        }
        f.observe(false, true, &h);
        assert_eq!(f.consecutive(), 0);
        // 8 more throttles needed before the next evaluation.
        for _ in 0..8 {
            assert_eq!(f.observe(true, true, &h), FilterDecision::Forward);
        }
    }
}
