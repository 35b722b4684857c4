//! The Bayesian-optimization tuner (OtterTune-style).
//!
//! Pipeline per recommendation request (§2.1, \[4\]):
//! 1. read the target workload's samples from the repository (optionally
//!    gated to TDE-certified high-quality samples — the ablation Fig. 12
//!    turns on and off),
//! 2. map the target onto the most similar stored workload and merge that
//!    workload's samples in (experience transfer),
//! 3. fit a GP over (normalised config → objective),
//! 4. pick the configuration maximising the UCB acquisition over a random
//!    candidate sweep seeded with perturbations of the best-known config.
//!
//! Step 3 does **not** refit from scratch on every request: the tuner keeps
//! the previous fit (with its Cholesky factor) and brings it to the new
//! training set in O(n²) per sample. Three outcomes, all one code path:
//! the set is unchanged (*reuse*); it grew at the tail (*extend* — rank-1
//! appends); or it is at `max_train_samples` and the window moved on by a
//! few samples (*slide* — the oldest rows are deleted from the factor, the
//! new ones appended, so a recommendation at the cap pays for the sweep,
//! not for a fit). The cache invalidates — falling back to a full O(n³)
//! refit — when the target or the mapped workload changes, when what is
//! left of the cached set is not a prefix of the requested one (the
//! mapped block changed, gating dropped something in the middle), when a
//! bulk arrival would slide further than a refit costs, or when an append
//! goes numerically indefinite. Step 4 scores the whole candidate sweep
//! through [`GaussianProcess::predict_batch_into`] with reusable buffers
//! instead of per-candidate solves.
//!
//! The O(n³) GPR training time is also *modelled* ([`BoTuner::train_cost_ms`])
//! at the paper's reported scale (100–120 s for a production-sized
//! workload) so the fleet simulator can reproduce the Fig. 9 scalability
//! argument without actually burning 100 s per request.

use crate::gp::{GaussianProcess, GpParams, GpScratch};
use crate::mapping::map_workload;
use crate::repo::{SampleQuality, WorkloadId, WorkloadRepository};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuner configuration.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Random candidates evaluated per recommendation.
    pub candidates: usize,
    /// UCB exploration weight (Fig. 15 uses a near-zero value).
    pub kappa: f64,
    /// GP hyper-parameters.
    pub gp: GpParams,
    /// When true, train only on high-quality samples (the TDE-gated mode).
    pub gate_low_quality: bool,
    /// Cap on training samples (most recent wins) — keeps the GP solvable.
    pub max_train_samples: usize,
    /// Number of top-ranked knobs the acquisition actually varies
    /// (OtterTune's Lasso knob selection); the rest keep their best-known
    /// values. Keeps the search sane when samples are scarce.
    pub tune_top_k: usize,
    /// When true (default), half the candidate sweep perturbs the
    /// best-known configuration — a robustness hardening this crate adds.
    /// Set false for a vanilla acquisition (pure random restarts over the
    /// GP surface, as OtterTune's gradient search behaves when the model
    /// is flat or misled).
    pub anchored_candidates: bool,
}

impl Default for BoConfig {
    fn default() -> Self {
        Self {
            candidates: 400,
            kappa: 0.8,
            gp: GpParams::default(),
            gate_low_quality: false,
            max_train_samples: 300,
            tune_top_k: 6,
            anchored_candidates: true,
        }
    }
}

/// A recommendation produced by the tuner.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Proposed knob vector, normalised to `[0, 1]` per dimension.
    pub config: Vec<f64>,
    /// GP-predicted objective at that configuration.
    pub expected_objective: f64,
    /// Samples the GP was trained on.
    pub train_samples: usize,
    /// Modelled wall-clock training cost, ms (see module docs).
    pub modeled_train_cost_ms: f64,
    /// The workload the target was mapped to, if any.
    pub mapped_from: Option<WorkloadId>,
}

/// Counters for how the surrogate model has been maintained — lets tests
/// and the benchmark verify the O(n²) path is actually taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoStats {
    /// Full O(n³) GP fits performed.
    pub full_fits: u64,
    /// Samples appended in O(n²), by an extend or a window slide.
    pub incremental_extends: u64,
}

/// Most samples one window slide may evict plus append. At n = 300 a
/// delete costs ~0.12 ms, an append ~0.03 ms and the closing `α` solve
/// ~0.03 ms against 3.1 ms for the fit: eight steps stay well under it,
/// and a bulk arrival — where the refit is the cheaper way — is far past.
const MAX_SLIDE_STEPS: usize = 8;

/// The cached surrogate: the training set it was fitted on (for the
/// overlap check) plus the fitted GP with its Cholesky factor.
#[derive(Debug, Clone)]
struct FitCache {
    target: WorkloadId,
    mapped: Option<WorkloadId>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    gp: GaussianProcess,
}

/// OtterTune-style BO tuner instance.
///
/// # Examples
///
/// ```
/// use autodbaas_tuner::{BoConfig, BoTuner, Sample, SampleQuality, WorkloadRepository};
///
/// let mut repo = WorkloadRepository::new();
/// let id = repo.register("live", false);
/// for i in 0..20 {
///     let x = i as f64 / 19.0;
///     repo.add_sample(id, Sample {
///         config: vec![x],
///         metrics: vec![1.0],
///         objective: 100.0 - (x - 0.7) * (x - 0.7) * 400.0, // peak at 0.7
///         quality: SampleQuality::High,
///     });
/// }
/// let mut tuner = BoTuner::new(BoConfig { kappa: 0.1, ..BoConfig::default() }, 1);
/// let rec = tuner.recommend(&repo, id).unwrap();
/// assert!((rec.config[0] - 0.7).abs() < 0.2, "should land near the peak");
/// ```
#[derive(Debug)]
pub struct BoTuner {
    cfg: BoConfig,
    rng: StdRng,
    cache: Option<FitCache>,
    stats: BoStats,
    // Reusable sweep buffers: candidate configs, batched GP outputs and the
    // GP's own kernel-row scratch. Recommendations allocate nothing new
    // once these reach steady-state size.
    cands: Vec<Vec<f64>>,
    means: Vec<f64>,
    vars: Vec<f64>,
    scratch: GpScratch,
}

impl BoTuner {
    /// New tuner with deterministic seed.
    pub fn new(cfg: BoConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            cache: None,
            stats: BoStats::default(),
            cands: Vec::new(),
            means: Vec::new(),
            vars: Vec::new(),
            scratch: GpScratch::new(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &BoConfig {
        &self.cfg
    }

    /// Surrogate-maintenance counters (full fits vs O(n²) appends).
    pub fn stats(&self) -> BoStats {
        self.stats
    }

    /// Training-set size of the cached surrogate, if one is live.
    pub fn cached_train_len(&self) -> Option<usize> {
        self.cache.as_ref().map(|c| c.xs.len())
    }

    /// The §1 training-cost model: a GPR over `n` samples costs
    /// `~110 s · (n/1000)³` (cubic solve), floored at 50 ms. At the paper's
    /// production workload sizes this lands in the reported 100–120 s band.
    pub fn train_cost_ms(n: usize) -> f64 {
        let x = n as f64 / 1000.0;
        (110_000.0 * x * x * x).max(50.0)
    }

    /// Produce a recommendation for `target`. Returns `None` when no
    /// training data survives gating (the caller falls back to defaults).
    pub fn recommend(
        &mut self,
        repo: &WorkloadRepository,
        target: WorkloadId,
    ) -> Option<Recommendation> {
        self.recommend_focused(repo, target, &[])
    }

    /// Like [`BoTuner::recommend`], but guarantees the given knob
    /// dimensions are part of the tuned subset. The TDE's tuning requests
    /// carry the throttled knobs; forwarding them here lets the tuner act
    /// on the indicted knob even when the ranking hasn't surfaced it yet.
    pub fn recommend_focused(
        &mut self,
        repo: &WorkloadRepository,
        target: WorkloadId,
        focus_dims: &[usize],
    ) -> Option<Recommendation> {
        let tw = repo.workload(target);
        let usable = |q: SampleQuality| !self.cfg.gate_low_quality || q == SampleQuality::High;

        // Experience transfer from the mapped workload FIRST, then the
        // target's own samples: the live workload is the one that grows
        // between calls, so putting its samples at the tail keeps earlier
        // training sets a strict prefix of later ones — which is what lets
        // the fit cache extend or slide instead of refitting.
        let mapped = tw
            .metric_signature()
            .and_then(|sig| map_workload(repo, &sig, Some(target)))
            .map(|m| m.workload);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        if let Some(mid) = mapped {
            for s in repo
                .workload(mid)
                .samples
                .iter()
                .filter(|s| usable(s.quality))
            {
                xs.push(s.config.clone());
                ys.push(s.objective);
            }
        }
        for s in tw.samples.iter().filter(|s| usable(s.quality)) {
            xs.push(s.config.clone());
            ys.push(s.objective);
        }
        if xs.is_empty() {
            return None;
        }
        // Keep the most recent window; the front of the vector is the
        // mapped (transfer) block, so the borrowed experience is what gets
        // evicted first.
        if xs.len() > self.cfg.max_train_samples {
            let cut = xs.len() - self.cfg.max_train_samples;
            xs.drain(..cut);
            ys.drain(..cut);
        }
        let dim = xs[0].len();
        if xs.iter().any(|x| x.len() != dim) {
            return None;
        }

        let n = xs.len();
        self.refresh_cache(target, mapped, &xs, &ys)?;

        // Knob selection: vary only the top-ranked knobs (plus any the
        // caller explicitly focuses on); the rest keep their best-known
        // values. This is OtterTune's Lasso-selection idea — without it a
        // handful of samples cannot steer a 15-dimensional acquisition.
        let mut dims: Vec<usize> = crate::ranking::top_k_xy(&xs, &ys, self.cfg.tune_top_k);
        for &d in focus_dims {
            if d < dim && !dims.contains(&d) {
                dims.push(d);
            }
        }
        if dims.is_empty() {
            dims = (0..dim).collect();
        }

        // Candidate sweep over the selected dims: half pure random, half
        // perturbations of the best known configuration. All candidates are
        // generated up front (in the same RNG call order as the historical
        // scalar loop), then scored through one batched GP evaluation.
        let best_known = &xs[ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN objective"))
            .map(|(i, _)| i)
            .unwrap_or(0)];
        let anchored = self.cfg.anchored_candidates;
        let total = self.cfg.candidates + usize::from(anchored);
        self.cands.resize_with(total.max(1), Vec::new);
        self.cands.truncate(total.max(1));
        let mut slots = self.cands.iter_mut();
        if anchored || total == 0 {
            // Slot 0 is the anchor (or, with an empty sweep, the fallback
            // recommendation): the best-known config itself.
            let slot = slots.next().expect("at least one slot");
            slot.clear();
            slot.extend_from_slice(best_known);
        }
        for c in 0..self.cfg.candidates {
            let slot = slots.next().expect("sized above");
            slot.clear();
            slot.extend_from_slice(best_known);
            for &d in &dims {
                slot[d] = if c % 2 == 0 || !anchored {
                    self.rng.gen::<f64>()
                } else {
                    (best_known[d] + self.rng.gen_range(-0.15..0.15)).clamp(0.0, 1.0)
                };
            }
        }

        let gp = &self.cache.as_ref().expect("cache refreshed above").gp;
        gp.predict_batch_into(
            &self.cands,
            &mut self.means,
            &mut self.vars,
            &mut self.scratch,
        );
        let mut best_i = 0;
        let mut best_ucb = f64::NEG_INFINITY;
        for (i, (&m, &v)) in self.means.iter().zip(&self.vars).enumerate() {
            let u = m + self.cfg.kappa * v.sqrt();
            if u > best_ucb {
                best_ucb = u;
                best_i = i;
            }
        }
        Some(Recommendation {
            config: self.cands[best_i].clone(),
            expected_objective: self.means[best_i],
            train_samples: n,
            modeled_train_cost_ms: Self::train_cost_ms(repo.total_samples()),
            mapped_from: mapped,
        })
    }

    /// Make the cached surrogate match `(xs, ys)` in O(n²) per sample when
    /// the cached training set (same target, same mapped workload), less
    /// its oldest few samples, is a prefix of the requested one — reuse,
    /// extend or slide, see [`FitCache::shift_to`] — otherwise refit from
    /// scratch. `None` only when the full fit itself fails.
    fn refresh_cache(
        &mut self,
        target: WorkloadId,
        mapped: Option<WorkloadId>,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Option<()> {
        if let Some(c) = self.cache.as_mut() {
            if let Some(evict) = c.shift_to(target, mapped, xs, ys) {
                let keep = c.xs.len() - evict;
                if evict == 0 && keep == xs.len() {
                    return Some(());
                }
                if c.gp.slide(evict, &xs[keep..], &ys[keep..]) {
                    c.xs.drain(..evict);
                    c.ys.drain(..evict);
                    c.xs.extend_from_slice(&xs[keep..]);
                    c.ys.extend_from_slice(&ys[keep..]);
                    self.stats.incremental_extends += (xs.len() - keep) as u64;
                    return Some(());
                }
                // A failed rank-1 append leaves the model half-slid; fall
                // through to the full refit (which escalates jitter).
            }
        }
        // Drop the stale (possibly half-slid) model before fitting anew.
        self.cache = None;
        self.stats.full_fits += 1;
        let gp = GaussianProcess::fit(xs, ys, self.cfg.gp)?;
        self.cache = Some(FitCache {
            target,
            mapped,
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            gp,
        });
        Some(())
    }
}

impl FitCache {
    /// How many of the oldest cached samples to evict so that the rest is a
    /// prefix of `(xs, ys)`: 0 when the set only grew, more once the capped
    /// window has moved on. `None` when no shift of at most
    /// [`MAX_SLIDE_STEPS`] evictions plus appends gets there. Every
    /// candidate shift is verified over the whole overlap, on inputs and
    /// targets — the anchored sweep recommends the best-known configuration
    /// verbatim, so identical samples sit in the window and matching the
    /// head alone would pick the wrong shift.
    fn shift_to(
        &self,
        target: WorkloadId,
        mapped: Option<WorkloadId>,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Option<usize> {
        if self.target != target || self.mapped != mapped {
            return None;
        }
        let len = self.xs.len();
        (0..len.min(MAX_SLIDE_STEPS + 1)).find(|&evict| {
            let keep = len - evict;
            keep <= xs.len()
                && (evict == 0 || evict + xs.len() - keep <= MAX_SLIDE_STEPS)
                && self.xs[evict..] == xs[..keep]
                && self.ys[evict..] == ys[..keep]
        })
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(BoConfig {
    candidates,
    kappa,
    gp,
    gate_low_quality,
    max_train_samples,
    tune_top_k,
    anchored_candidates
});

snap_struct!(BoStats {
    full_fits,
    incremental_extends
});

snap_struct!(FitCache {
    target,
    mapped,
    xs,
    ys,
    gp
});

// Sweep buffers are pure scratch; only the surrogate state persists.
snap_struct!(BoTuner {
    cfg,
    rng,
    cache,
    stats
} defaults {
    cands: Vec::new(),
    means: Vec::new(),
    vars: Vec::new(),
    scratch: GpScratch::new()
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::Sample;

    /// Synthetic objective with a known optimum at (0.7, 0.3).
    fn objective(c: &[f64]) -> f64 {
        let dx = c[0] - 0.7;
        let dy = c[1] - 0.3;
        1000.0 * (-(dx * dx + dy * dy) * 8.0).exp()
    }

    fn seeded_repo(n: usize, quality: SampleQuality) -> (WorkloadRepository, WorkloadId) {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("target", false);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..n {
            let c = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let o = objective(&c);
            repo.add_sample(
                id,
                Sample {
                    config: c,
                    metrics: vec![100.0, 50.0, 10.0],
                    objective: o,
                    quality,
                },
            );
        }
        (repo, id)
    }

    #[test]
    fn recommendation_approaches_known_optimum() {
        let (repo, id) = seeded_repo(60, SampleQuality::High);
        let mut tuner = BoTuner::new(
            BoConfig {
                kappa: 0.1,
                ..BoConfig::default()
            },
            1,
        );
        let rec = tuner.recommend(&repo, id).unwrap();
        let achieved = objective(&rec.config);
        // A decent recommendation should be in the top region of the bowl.
        assert!(achieved > 700.0, "achieved {achieved} at {:?}", rec.config);
    }

    #[test]
    fn empty_workload_yields_none() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("empty", false);
        let mut tuner = BoTuner::new(BoConfig::default(), 1);
        assert!(tuner.recommend(&repo, id).is_none());
    }

    #[test]
    fn gating_drops_low_quality_samples() {
        let (repo, id) = seeded_repo(40, SampleQuality::Low);
        let mut gated = BoTuner::new(
            BoConfig {
                gate_low_quality: true,
                ..BoConfig::default()
            },
            1,
        );
        assert!(
            gated.recommend(&repo, id).is_none(),
            "all samples are low quality"
        );
        let mut ungated = BoTuner::new(
            BoConfig {
                gate_low_quality: false,
                ..BoConfig::default()
            },
            1,
        );
        assert!(ungated.recommend(&repo, id).is_some());
    }

    #[test]
    fn experience_transfers_from_mapped_workload() {
        // Target has a single mediocre sample; a similar offline workload
        // has the real knowledge.
        let mut repo = WorkloadRepository::new();
        let offline = repo.register("tpcc-offline", true);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let c = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            repo.add_sample(
                offline,
                Sample {
                    config: c.clone(),
                    metrics: vec![100.0, 50.0, 10.0],
                    objective: objective(&c),
                    quality: SampleQuality::High,
                },
            );
        }
        let target = repo.register("live", false);
        repo.add_sample(
            target,
            Sample {
                config: vec![0.1, 0.9],
                metrics: vec![98.0, 51.0, 9.0],
                objective: objective(&[0.1, 0.9]),
                quality: SampleQuality::High,
            },
        );
        let mut tuner = BoTuner::new(
            BoConfig {
                kappa: 0.1,
                ..BoConfig::default()
            },
            2,
        );
        let rec = tuner.recommend(&repo, target).unwrap();
        assert_eq!(rec.mapped_from, Some(offline));
        assert!(rec.train_samples > 10, "mapped samples must join training");
        assert!(
            objective(&rec.config) > 500.0,
            "transfer should find the bowl"
        );
    }

    #[test]
    fn train_cost_model_matches_paper_band() {
        // Production-scale sample counts land in the 100–120 s band.
        let cost = BoTuner::train_cost_ms(1_000);
        assert!((100_000.0..=120_000.0).contains(&cost), "cost {cost}");
        // Small repos are fast.
        assert!(BoTuner::train_cost_ms(10) < 1_000.0);
        // And the growth is superlinear.
        assert!(BoTuner::train_cost_ms(2_000) > 4.0 * cost);
    }

    #[test]
    fn train_window_is_capped() {
        let (repo, id) = seeded_repo(1_000, SampleQuality::High);
        let mut tuner = BoTuner::new(
            BoConfig {
                max_train_samples: 100,
                ..BoConfig::default()
            },
            3,
        );
        let rec = tuner.recommend(&repo, id).unwrap();
        assert!(rec.train_samples <= 100);
    }

    #[test]
    fn focused_dims_are_actually_tuned() {
        // All samples share the same value in dim 1; an unfocused subset
        // ranking scores it zero and never moves it. Focusing must.
        let mut repo = WorkloadRepository::new();
        let id = repo.register("w", false);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            let c = vec![rng.gen::<f64>(), 0.2, rng.gen::<f64>()];
            let o = 100.0 * c[0];
            repo.add_sample(
                id,
                Sample {
                    config: c,
                    metrics: vec![1.0],
                    objective: o,
                    quality: SampleQuality::High,
                },
            );
        }
        let cfg = BoConfig {
            tune_top_k: 1,
            kappa: 2.0,
            candidates: 200,
            ..BoConfig::default()
        };
        let unfocused = BoTuner::new(cfg.clone(), 5).recommend(&repo, id).unwrap();
        assert!(
            (unfocused.config[1] - 0.2).abs() < 1e-9,
            "constant dim must stay at the best-known value without focus"
        );
        let focused = BoTuner::new(cfg, 5)
            .recommend_focused(&repo, id, &[1])
            .unwrap();
        // The focused acquisition explored dim 1 (UCB loves the unexplored
        // direction at kappa=2).
        assert!(
            (focused.config[1] - 0.2).abs() > 1e-6,
            "focused dim must be explored ({})",
            focused.config[1]
        );
    }

    #[test]
    fn focus_dims_out_of_range_are_ignored() {
        let (repo, id) = seeded_repo(20, SampleQuality::High);
        let mut tuner = BoTuner::new(BoConfig::default(), 6);
        let rec = tuner.recommend_focused(&repo, id, &[999]).unwrap();
        assert_eq!(rec.config.len(), 2);
    }

    #[test]
    fn recommendations_are_deterministic_per_seed() {
        let (repo, id) = seeded_repo(40, SampleQuality::High);
        let r1 = BoTuner::new(BoConfig::default(), 42)
            .recommend(&repo, id)
            .unwrap();
        let r2 = BoTuner::new(BoConfig::default(), 42)
            .recommend(&repo, id)
            .unwrap();
        assert_eq!(r1.config, r2.config);
    }

    #[test]
    fn repeated_recommendations_extend_instead_of_refitting() {
        let (mut repo, id) = seeded_repo(40, SampleQuality::High);
        let mut tuner = BoTuner::new(BoConfig::default(), 7);
        tuner.recommend(&repo, id).unwrap();
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 1,
                incremental_extends: 0
            }
        );
        assert_eq!(tuner.cached_train_len(), Some(40));
        // New observations arrive; the next recommendation must extend.
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let c = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let o = objective(&c);
            repo.add_sample(
                id,
                Sample {
                    config: c,
                    metrics: vec![100.0, 50.0, 10.0],
                    objective: o,
                    quality: SampleQuality::High,
                },
            );
        }
        tuner.recommend(&repo, id).unwrap();
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 1,
                incremental_extends: 5
            }
        );
        assert_eq!(tuner.cached_train_len(), Some(45));
        // No new samples: the cached fit is reused as-is.
        tuner.recommend(&repo, id).unwrap();
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 1,
                incremental_extends: 5
            }
        );
    }

    fn sample_at(c: Vec<f64>) -> Sample {
        Sample {
            objective: objective(&c),
            config: c,
            metrics: vec![100.0, 50.0, 10.0],
            quality: SampleQuality::High,
        }
    }

    fn add_random(repo: &mut WorkloadRepository, id: WorkloadId, rng: &mut StdRng, n: usize) {
        repo.add_samples(
            id,
            (0..n).map(|_| sample_at(vec![rng.gen::<f64>(), rng.gen::<f64>()])),
        );
    }

    /// The oracle the retired refit-every-time mode used to be: the cached
    /// surrogate must predict what a fresh fit of its own window predicts.
    fn assert_cache_matches_fresh_fit(tuner: &BoTuner) {
        let c = tuner.cache.as_ref().expect("a live cache");
        let fresh = GaussianProcess::fit(&c.xs, &c.ys, tuner.cfg.gp).expect("window fits");
        assert_eq!(c.gp.len(), c.xs.len());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..25 {
            let q = [rng.gen::<f64>(), rng.gen::<f64>()];
            let (mc, vc) = c.gp.predict(&q);
            let (mf, vf) = fresh.predict(&q);
            assert!((mc - mf).abs() < 1e-9, "mean {mc} vs {mf}");
            // The variance carries y_scale² (~1e5 here): relative to that.
            assert!((vc - vf).abs() < 1e-9 * (1.0 + vf), "var {vc} vs {vf}");
        }
    }

    #[test]
    fn cached_surrogate_matches_a_fresh_fit_after_every_call() {
        // Grow a repo across recommend calls, through the cap: reuse, extend
        // and slide must each leave the surrogate a fresh fit would build.
        let (mut repo, id) = seeded_repo(30, SampleQuality::High);
        let mut tuner = BoTuner::new(
            BoConfig {
                max_train_samples: 50,
                ..BoConfig::default()
            },
            11,
        );
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..16 {
            let rec = tuner.recommend(&repo, id).unwrap();
            assert_cache_matches_fresh_fit(&tuner);
            assert_eq!(rec.train_samples, (30 + 4 * (round / 2)).min(50));
            // Every other round adds nothing: the fit is reused as it is.
            if round % 2 == 1 {
                add_random(&mut repo, id, &mut rng, 3);
                repo.add_sample(id, sample_at(rec.config));
            }
        }
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 1,
                incremental_extends: 28
            }
        );
    }

    #[test]
    fn sliding_window_slides_the_cache() {
        // Once the training window starts sliding, the cached factor drops
        // its oldest rows and appends the new ones — no second fit.
        let (mut repo, id) = seeded_repo(99, SampleQuality::High);
        let mut tuner = BoTuner::new(
            BoConfig {
                max_train_samples: 100,
                ..BoConfig::default()
            },
            13,
        );
        tuner.recommend(&repo, id).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..10 {
            add_random(&mut repo, id, &mut rng, 1);
            let rec = tuner.recommend(&repo, id).unwrap();
            assert_eq!(rec.train_samples, 100, "window must cap");
        }
        assert_eq!(tuner.cached_train_len(), Some(100));
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 1,
                incremental_extends: 10
            }
        );
        assert_cache_matches_fresh_fit(&tuner);
    }

    #[test]
    fn slide_finds_its_shift_past_identical_samples() {
        // The anchored sweep re-recommends the best-known config verbatim,
        // so runs of identical samples reach the window's head. The shift
        // must come from the whole overlap, not from the first sample that
        // looks like the new head.
        let mut repo = WorkloadRepository::new();
        let id = repo.register("target", false);
        for _ in 0..3 {
            repo.add_sample(id, sample_at(vec![0.4, 0.6]));
        }
        let mut rng = StdRng::seed_from_u64(21);
        add_random(&mut repo, id, &mut rng, 17);
        let mut tuner = BoTuner::new(
            BoConfig {
                max_train_samples: 20,
                ..BoConfig::default()
            },
            17,
        );
        tuner.recommend(&repo, id).unwrap();
        // One, then two at once: each slide evicts from the identical run.
        for (round, arrivals) in [1, 2, 1].into_iter().enumerate() {
            add_random(&mut repo, id, &mut rng, arrivals);
            tuner.recommend(&repo, id).unwrap();
            assert_eq!(tuner.stats().full_fits, 1, "round {round} refitted");
            assert_cache_matches_fresh_fit(&tuner);
        }
        assert_eq!(tuner.stats().incremental_extends, 4);
    }

    #[test]
    fn bulk_arrival_at_the_cap_refits() {
        // A hundred samples between two calls would be a hundred deletes and
        // a hundred appends; one fit is cheaper, so the slide is refused.
        let (mut repo, id) = seeded_repo(300, SampleQuality::High);
        let mut tuner = BoTuner::new(BoConfig::default(), 19);
        tuner.recommend(&repo, id).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        add_random(&mut repo, id, &mut rng, 100);
        let rec = tuner.recommend(&repo, id).unwrap();
        assert_eq!(rec.train_samples, 300);
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 2,
                incremental_extends: 0
            }
        );
        // The largest slide still taken: MAX_SLIDE_STEPS / 2 new samples.
        add_random(&mut repo, id, &mut rng, MAX_SLIDE_STEPS / 2);
        tuner.recommend(&repo, id).unwrap();
        add_random(&mut repo, id, &mut rng, MAX_SLIDE_STEPS / 2 + 1);
        tuner.recommend(&repo, id).unwrap();
        assert_eq!(
            tuner.stats(),
            BoStats {
                full_fits: 3,
                incremental_extends: (MAX_SLIDE_STEPS / 2) as u64
            }
        );
    }

    #[test]
    fn snapshot_after_slides_resumes_bit_identically() {
        use autodbaas_snapshot::{decode_from_slice, encode_to_vec};
        let (mut repo, id) = seeded_repo(38, SampleQuality::High);
        let cfg = BoConfig {
            max_train_samples: 40,
            ..BoConfig::default()
        };
        let mut live = BoTuner::new(cfg, 29);
        // Close the loop as the benchmark does: every recommendation is
        // evaluated and fed back, so the window slides each round.
        for _ in 0..12 {
            let rec = live.recommend(&repo, id).unwrap();
            repo.add_sample(id, sample_at(rec.config));
        }
        assert_eq!(live.stats().full_fits, 1);
        assert_eq!(live.stats().incremental_extends, 11);
        let bytes = encode_to_vec(&live);
        let mut restored: BoTuner = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(encode_to_vec(&restored), bytes, "re-encoding is stable");
        for round in 0..20 {
            let a = live.recommend(&repo, id).unwrap();
            let b = restored.recommend(&repo, id).unwrap();
            assert_eq!(a.config, b.config, "round {round}");
            assert_eq!(
                a.expected_objective.to_bits(),
                b.expected_objective.to_bits(),
                "round {round}"
            );
            repo.add_sample(id, sample_at(a.config));
        }
        assert_eq!(live.stats(), restored.stats());
    }
}
