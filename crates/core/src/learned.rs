//! Learned throttle detection — the paper's stated future work.
//!
//! §7: "In the coming future, we would like to explore more on using
//! reinforcement learning methods to capture the performance throttles and
//! making the current TDE free from static rules."
//!
//! [`LearnedDetector`] is that exploration: a small neural classifier
//! (reusing the tuner crate's MLP) trained online, by distillation, from
//! the rule-based TDE's own decisions. Each observation window yields a
//! feature vector (normalised delta metrics plus knob positions); the
//! rule-based detectors' verdict (throttle per class, or clean) is the
//! label. Once its running agreement with the rules is high enough, the
//! learned detector can *shadow* or *replace* the rules — and, unlike
//! them, it produces a calibrated score that degrades gracefully on
//! workloads the rules were never written for.
//!
//! Ablation 5 of the `ablations` bench binary distils it online over an
//! adulterated TPC-C run and asserts that its recent agreement with the
//! rule engine climbs above 0.6.

use crate::engine::TdeReport;
use autodbaas_simdb::{KnobClass, KnobProfile, KnobSet};
use autodbaas_tuner::Mlp;

/// Feature layout: one entry per metric (log-scaled delta) plus one per
/// knob (normalised position).
fn features(profile: &KnobProfile, knobs: &KnobSet, window_delta: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = window_delta
        .iter()
        .map(|&x| (1.0 + x.abs()).ln() / 20.0)
        .collect();
    for (id, spec) in profile.iter() {
        let v = knobs.get(id);
        out.push(if spec.max > spec.min {
            (v - spec.min) / (spec.max - spec.min)
        } else {
            0.0
        });
    }
    out
}

/// Per-class throttle probabilities from the learned model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedScores {
    /// P(memory throttle this window).
    pub memory: f64,
    /// P(background-writer throttle).
    pub bgwriter: f64,
    /// P(async/planner throttle).
    pub async_planner: f64,
}

impl LearnedScores {
    /// Classes whose score clears `threshold`.
    pub fn classes_over(&self, threshold: f64) -> Vec<KnobClass> {
        let mut out = Vec::new();
        if self.memory >= threshold {
            out.push(KnobClass::Memory);
        }
        if self.bgwriter >= threshold {
            out.push(KnobClass::BackgroundWriter);
        }
        if self.async_planner >= threshold {
            out.push(KnobClass::AsyncPlanner);
        }
        out
    }
}

/// Online-distilled throttle classifier.
#[derive(Debug)]
pub struct LearnedDetector {
    net: Mlp,
    profile: KnobProfile,
    observations: u64,
    agreement_sum: f64,
    recent: std::collections::VecDeque<f64>,
    replay: Vec<(Vec<f64>, Vec<f64>)>,
    threshold: f64,
}

/// Sliding window for [`LearnedDetector::recent_agreement`].
const RECENT_WINDOW: usize = 40;
/// Replay-buffer capacity for distillation.
const REPLAY_CAP: usize = 256;

impl LearnedDetector {
    /// A detector for one database's knob profile. `seed` fixes the
    /// network initialisation.
    pub fn new(profile: &KnobProfile, seed: u64) -> Self {
        let dim = autodbaas_simdb::MetricId::ALL.len() + profile.len();
        Self {
            net: Mlp::new(&[dim, 32, 16, 3], seed),
            profile: profile.clone(),
            observations: 0,
            agreement_sum: 0.0,
            recent: std::collections::VecDeque::with_capacity(RECENT_WINDOW),
            replay: Vec::with_capacity(REPLAY_CAP),
            threshold: 0.5,
        }
    }

    /// Decision threshold (default 0.5).
    pub fn set_threshold(&mut self, t: f64) {
        self.threshold = t.clamp(0.0, 1.0);
    }

    /// Observation windows seen.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Lifetime per-class agreement with the rule engine, in `[0, 1]`
    /// (mean fraction of the three classes predicted correctly per window;
    /// includes the early learning phase, so it under-reports a trained
    /// detector).
    pub fn agreement(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.agreement_sum / self.observations as f64
        }
    }

    /// Per-class agreement over the most recent window of observations —
    /// what the operator watches before promoting the learned detector.
    pub fn recent_agreement(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().sum::<f64>() / self.recent.len() as f64
    }

    /// Score one window *before* learning from it.
    pub fn score(&self, knobs: &KnobSet, window_delta: &[f64]) -> LearnedScores {
        let x = features(&self.profile, knobs, window_delta);
        let raw = self.net.forward(&x);
        let squash = |v: f64| 1.0 / (1.0 + (-v).exp());
        LearnedScores {
            memory: squash(raw[0]),
            bgwriter: squash(raw[1]),
            async_planner: squash(raw[2]),
        }
    }

    /// Distil one window: predict, compare against the rule-based TDE's
    /// report, take a gradient step toward the rules' labels. Returns the
    /// pre-update prediction.
    pub fn observe(
        &mut self,
        knobs: &KnobSet,
        window_delta: &[f64],
        rule_report: &TdeReport,
    ) -> LearnedScores {
        let scores = self.score(knobs, window_delta);

        // Labels from the rule engine.
        let mut label = [0.0f64; 3];
        for t in &rule_report.throttles {
            label[t.class.index()] = 1.0;
        }

        // Agreement bookkeeping (exact per-class match at the threshold).
        let predicted = [
            scores.memory >= self.threshold,
            scores.bgwriter >= self.threshold,
            scores.async_planner >= self.threshold,
        ];
        let truth = [label[0] > 0.5, label[1] > 0.5, label[2] > 0.5];
        self.observations += 1;
        // Per-class (Hamming) agreement: fraction of the three classes the
        // prediction got right this window.
        let correct = predicted.iter().zip(&truth).filter(|(p, t)| p == t).count() as f64 / 3.0;
        self.agreement_sum += correct;
        if self.recent.len() == RECENT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(correct);

        // Distil via a small replay buffer (±2 logit targets map through
        // the sigmoid to ~0.88/0.12 — soft targets keep the net from
        // saturating).
        let x = features(&self.profile, knobs, window_delta);
        let y: Vec<f64> = label
            .iter()
            .map(|&l| if l > 0.5 { 2.0 } else { -2.0 })
            .collect();
        if self.replay.len() == REPLAY_CAP {
            self.replay.remove(self.observations as usize % REPLAY_CAP);
        }
        self.replay.push((x, y));
        // A few passes over a recent slice each window.
        let take = self.replay.len().min(16);
        let start = self.replay.len() - take;
        let xs: Vec<Vec<f64>> = self.replay[start..]
            .iter()
            .map(|(x, _)| x.clone())
            .collect();
        let ys: Vec<Vec<f64>> = self.replay[start..]
            .iter()
            .map(|(_, y)| y.clone())
            .collect();
        for _ in 0..3 {
            self.net.train_batch(&xs, &ys, 0.05);
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ThrottleReason, ThrottleSignal};
    use autodbaas_simdb::{KnobId, MetricId, SpillKind};

    fn profile() -> KnobProfile {
        KnobProfile::postgres()
    }

    fn delta_with(spills: f64, checkpoints: f64) -> Vec<f64> {
        let mut d = vec![0.0; MetricId::ALL.len()];
        d[MetricId::SortSpills.index()] = spills;
        d[MetricId::TempBytes.index()] = spills * 1e6;
        d[MetricId::CheckpointsReq.index()] = checkpoints;
        d[MetricId::QueriesExecuted.index()] = 10_000.0;
        d
    }

    fn report_with_memory_throttle(on: bool) -> TdeReport {
        let mut r = TdeReport::default();
        if on {
            r.throttles.push(ThrottleSignal {
                knob: KnobId(1),
                class: KnobClass::Memory,
                reason: ThrottleReason::MemorySpill(SpillKind::WorkMem),
                at: 0,
            });
            r.tuning_request = true;
        }
        r
    }

    #[test]
    fn scores_are_probabilities() {
        let p = profile();
        let det = LearnedDetector::new(&p, 1);
        let s = det.score(&p.defaults(), &delta_with(5.0, 1.0));
        for v in [s.memory, s.bgwriter, s.async_planner] {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn distillation_learns_the_spill_signature() {
        let p = profile();
        let knobs = p.defaults();
        let mut det = LearnedDetector::new(&p, 2);
        // Train: spiky windows are memory throttles, quiet windows clean.
        for i in 0..400 {
            let spills = if i % 2 == 0 {
                20.0 + (i % 7) as f64
            } else {
                0.0
            };
            let d = delta_with(spills, 0.0);
            det.observe(&knobs, &d, &report_with_memory_throttle(spills > 0.0));
        }
        let hot = det.score(&knobs, &delta_with(25.0, 0.0));
        let cold = det.score(&knobs, &delta_with(0.0, 0.0));
        assert!(
            hot.memory > cold.memory + 0.3,
            "learned detector must separate spiky from quiet windows ({:.2} vs {:.2})",
            hot.memory,
            cold.memory
        );
        assert!(det.agreement() > 0.7, "agreement {:.2}", det.agreement());
    }

    #[test]
    fn classes_over_threshold() {
        let s = LearnedScores {
            memory: 0.9,
            bgwriter: 0.2,
            async_planner: 0.6,
        };
        assert_eq!(
            s.classes_over(0.5),
            vec![KnobClass::Memory, KnobClass::AsyncPlanner]
        );
        assert!(s.classes_over(0.95).is_empty());
    }

    #[test]
    fn agreement_starts_at_zero_and_is_bounded() {
        let p = profile();
        let mut det = LearnedDetector::new(&p, 3);
        assert_eq!(det.agreement(), 0.0);
        let knobs = p.defaults();
        for _ in 0..10 {
            det.observe(&knobs, &delta_with(0.0, 0.0), &TdeReport::default());
        }
        assert!(det.agreement() <= 1.0);
        assert_eq!(det.observations(), 10);
    }

    #[test]
    fn feature_vector_covers_metrics_and_knobs() {
        let p = profile();
        let x = features(&p, &p.defaults(), &vec![0.0; MetricId::ALL.len()]);
        assert_eq!(x.len(), MetricId::ALL.len() + p.len());
        assert!(x.iter().all(|v| v.is_finite()));
    }
}
