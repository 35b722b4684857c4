//! Gaussian-process regression — the surrogate model of the BO-style tuner.
//!
//! OtterTune's pipeline trains a GP over (configuration → objective) pairs
//! of the mapped workload and picks the next configuration by maximising an
//! upper-confidence acquisition. This is a standard RBF-kernel GP with a
//! Cholesky solve; inputs are expected pre-normalised to `[0, 1]` per
//! dimension (the tuner does that).
//!
//! Training from scratch is O(n³) in the sample count, which is precisely
//! the scalability pain §1 describes ("a GPR training takes 100 to 120
//! seconds"). Three things keep the steady-state tuner off that curve:
//!
//! * [`GaussianProcess::extend`] appends one training sample in O(n²) by
//!   growing the cached Cholesky factor with a rank-1 border update instead
//!   of refactoring — the kernel matrix does not depend on the targets, so
//!   re-standardising `y` only costs two triangular solves.
//! * `GaussianProcess::slide` moves a capped "most recent n" window on in
//!   O(n²) per sample: the oldest rows leave the factor through
//!   [`Matrix::cholesky_delete_first`] (a rank-1 *update*, so it cannot
//!   fail and does not drift), the new ones are appended, and the targets
//!   are re-standardised once per call.
//! * [`GaussianProcess::predict_batch_into`] scores a whole candidate batch
//!   against shared kernel-row buffers (one matrix product + one batched
//!   triangular solve), instead of per-candidate allocation and solves.
//!
//! The benchmark times the first at n = 300 against the fit it replaces:
//! `tuner.gp_fit_ms_n300` is the full fit, `tuner.gp_extend_ms_n300` the
//! extend path.

use crate::linalg::{dot, Matrix};

/// Hyper-parameters of the RBF kernel.
#[derive(Debug, Clone, Copy)]
pub struct GpParams {
    /// Kernel length scale (in normalised input units).
    pub length_scale: f64,
    /// Signal variance.
    pub signal_variance: f64,
    /// Observation-noise variance (jitter added to the diagonal).
    pub noise: f64,
}

impl Default for GpParams {
    fn default() -> Self {
        Self {
            length_scale: 0.3,
            signal_variance: 1.0,
            noise: 1e-3,
        }
    }
}

/// A fitted Gaussian process.
///
/// Keeps the Cholesky factor of the (jittered) kernel matrix and the raw
/// targets alive so the model can be *extended* with new samples, or slid
/// along a capped window, in O(n²) — see [`GaussianProcess::extend`].
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    params: GpParams,
    /// Training inputs, one row per sample (n × d).
    x: Matrix,
    /// Cached squared norms of the training rows (for batched kernels).
    x_sq_norms: Vec<f64>,
    /// Raw (unstandardised) targets; kept so `extend`/`slide` can
    /// re-standardise.
    y_raw: Vec<f64>,
    alpha: Vec<f64>,
    chol: Matrix,
    /// Diagonal jitter the factorisation actually succeeded with (≥ noise).
    jitter: f64,
    y_mean: f64,
    y_scale: f64,
}

/// Reusable buffers for [`GaussianProcess::predict_batch_into`]. Create once
/// and pass to every call; allocations happen only when batch shape grows.
#[derive(Debug, Default, Clone)]
pub struct GpScratch {
    /// Candidate batch, stored *transposed* (dim × m) so the kernel GEMM's
    /// inner loop runs along the contiguous candidate axis.
    qt: Matrix,
    kstar: Matrix,
    q_sq_norms: Vec<f64>,
}

impl GpScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl GaussianProcess {
    /// Fit a GP to `(x, y)`. Targets are internally standardised. Returns
    /// `None` for empty input or if the kernel matrix resists factorisation
    /// even after jitter escalation (pathological duplicate-heavy data).
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: GpParams) -> Option<Self> {
        if x.is_empty() || x.len() != y.len() {
            return None;
        }
        let n = x.len();
        let mut xm = Matrix::zeros(0, 0);
        for xi in x {
            xm.push_row(xi);
        }
        let x_sq_norms: Vec<f64> = (0..n).map(|i| dot(xm.row(i), xm.row(i))).collect();

        let (y_mean, y_scale) = standardisation(y);
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        let mut jitter = params.noise.max(1e-9);
        for _ in 0..6 {
            let mut k = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = rbf_sq(sq_dist(xm.row(i), xm.row(j)), params);
                    k[(i, j)] = v;
                    k[(j, i)] = v;
                }
                k[(i, i)] += jitter;
            }
            if k.cholesky_in_place() {
                let mut alpha = yn.clone();
                k.solve_lower_in_place(&mut alpha);
                k.solve_lower_transpose_in_place(&mut alpha);
                return Some(Self {
                    params,
                    x: xm,
                    x_sq_norms,
                    y_raw: y.to_vec(),
                    alpha,
                    chol: k,
                    jitter,
                    y_mean,
                    y_scale,
                });
            }
            jitter *= 10.0;
        }
        None
    }

    /// Append one training sample in O(n²), reusing the cached Cholesky
    /// factor via a rank-1 border update instead of the O(n³) refit.
    ///
    /// The kernel matrix depends only on the inputs, so the new targets'
    /// re-standardisation costs just two triangular solves for a fresh
    /// `α = K⁻¹ỹ`. Numerically this matches a from-scratch [`fit`] (with
    /// the same jitter) to ~1e-9 — pinned by `extend_matches_full_refit`.
    ///
    /// Returns `false` — leaving the model untouched — if the bordered
    /// kernel matrix is not numerically positive definite (the caller
    /// should fall back to a full refit, which escalates jitter).
    ///
    /// [`fit`]: GaussianProcess::fit
    pub fn extend(&mut self, x_new: &[f64], y_new: f64) -> bool {
        let ok = self.append_sample(x_new, y_new);
        if ok {
            self.solve_alpha();
        }
        ok
    }

    /// Slide the training window in O(n²) per sample: forget the `evict`
    /// oldest samples ([`Matrix::cholesky_delete_first`] each), append
    /// `(xs, ys)`, then re-standardise and re-solve `α` once for the whole
    /// call. Matches a from-scratch fit of the slid window (same jitter) to
    /// ~1e-9 — pinned by `slide_matches_full_refit`.
    ///
    /// Returns `false` when an append is not numerically positive definite;
    /// the model is then half-slid and must be discarded for a full refit.
    pub(crate) fn slide(&mut self, evict: usize, xs: &[Vec<f64>], ys: &[f64]) -> bool {
        assert!(evict < self.len(), "a slide keeps at least one sample");
        for _ in 0..evict {
            self.chol.cholesky_delete_first();
        }
        self.x.remove_first_rows(evict);
        self.x_sq_norms.drain(..evict);
        self.y_raw.drain(..evict);
        let ok = xs.iter().zip(ys).all(|(x, &y)| self.append_sample(x, y));
        if ok {
            self.solve_alpha();
        }
        ok
    }

    /// Grow the factor, inputs and raw targets by one sample; `α` is stale
    /// until [`Self::solve_alpha`]. `false` leaves everything untouched.
    fn append_sample(&mut self, x_new: &[f64], y_new: f64) -> bool {
        assert_eq!(x_new.len(), self.x.cols(), "input dimension mismatch");
        let n = self.x.rows();
        let mut border = vec![0.0; n];
        let q_norm = dot(x_new, x_new);
        for (i, b) in border.iter_mut().enumerate() {
            let d2 = self.x_sq_norms[i] + q_norm - 2.0 * dot(self.x.row(i), x_new);
            *b = rbf_sq(d2.max(0.0), self.params);
        }
        let diag = self.params.signal_variance + self.jitter;
        if !self.chol.cholesky_update_append(&border, diag) {
            return false;
        }
        self.x.push_row(x_new);
        self.x_sq_norms.push(q_norm);
        self.y_raw.push(y_new);
        true
    }

    /// Re-standardise the targets and recompute `α` against the current
    /// factor: two O(n²) triangular solves.
    fn solve_alpha(&mut self) {
        let (y_mean, y_scale) = standardisation(&self.y_raw);
        self.y_mean = y_mean;
        self.y_scale = y_scale;
        self.alpha.clear();
        self.alpha
            .extend(self.y_raw.iter().map(|v| (v - y_mean) / y_scale));
        self.chol.solve_lower_in_place(&mut self.alpha);
        self.chol.solve_lower_transpose_in_place(&mut self.alpha);
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when fitted on no points (unreachable via `fit`, kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Predictive mean and variance at `q`.
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        let n = self.x.rows();
        let q_norm = dot(q, q);
        let mut kstar = vec![0.0; n];
        for (i, k) in kstar.iter_mut().enumerate() {
            let d2 = self.x_sq_norms[i] + q_norm - 2.0 * dot(self.x.row(i), q);
            *k = rbf_sq(d2.max(0.0), self.params);
        }
        let mean_n = dot(&kstar, &self.alpha);
        // var = k(q,q) - vᵀv with v = L⁻¹ k*.
        self.chol.solve_lower_in_place(&mut kstar);
        let kqq = self.params.signal_variance + self.params.noise;
        let var_n = (kqq - dot(&kstar, &kstar)).max(1e-12);
        (
            mean_n * self.y_scale + self.y_mean,
            var_n * self.y_scale * self.y_scale,
        )
    }

    /// Predictive means and variances for a whole candidate batch, written
    /// into `means`/`vars` (resized to the batch length). All kernel rows
    /// share one `n × m` buffer in `scratch`: the cross-covariance block is
    /// one [`Matrix::matmul_transpose_into`] (via ‖a−b‖² = |a|²+|b|²−2a·b),
    /// and the variance term one batched forward solve. Equivalent to
    /// calling [`predict`](GaussianProcess::predict) per candidate, without
    /// the per-candidate allocations — this is the UCB sweep's hot path.
    pub fn predict_batch_into(
        &self,
        queries: &[Vec<f64>],
        means: &mut Vec<f64>,
        vars: &mut Vec<f64>,
        scratch: &mut GpScratch,
    ) {
        let n = self.x.rows();
        let d = self.x.cols();
        let m = queries.len();
        means.clear();
        means.resize(m, 0.0);
        vars.clear();
        let kqq = self.params.signal_variance + self.params.noise;
        vars.resize(m, kqq);
        if m == 0 {
            return;
        }
        scratch.qt.reset_stale(d, m);
        scratch.q_sq_norms.clear();
        for (j, q) in queries.iter().enumerate() {
            assert_eq!(q.len(), d, "query dimension mismatch");
            for (t, &v) in q.iter().enumerate() {
                scratch.qt[(t, j)] = v;
            }
            scratch.q_sq_norms.push(dot(q, q));
        }
        // Cross-covariance block K* (n × m): row-major so the per-candidate
        // axis is contiguous for every pass below, including the GEMM
        // against the transposed batch.
        scratch.kstar.reset_stale(n, m);
        self.x.matmul_into(&scratch.qt, &mut scratch.kstar);
        // One fused pass per row: dot products → kernel values, and the
        // means accumulation K*ᵀα, while the row is still cache-hot.
        for i in 0..n {
            let xn = self.x_sq_norms[i];
            let a = self.alpha[i];
            let row = scratch.kstar.row_mut(i);
            for ((v, &qn), mj) in row
                .iter_mut()
                .zip(&scratch.q_sq_norms)
                .zip(means.iter_mut())
            {
                let d2 = (xn + qn - 2.0 * *v).max(0.0);
                let k = rbf_sq(d2, self.params);
                *v = k;
                *mj += a * k;
            }
        }
        // Variances: V = L⁻¹ K* in place, then subtract column norms.
        self.chol.solve_lower_batch_in_place(&mut scratch.kstar);
        for i in 0..n {
            for (vj, &v) in vars.iter_mut().zip(scratch.kstar.row(i)) {
                *vj -= v * v;
            }
        }
        let s2 = self.y_scale * self.y_scale;
        for (mj, vj) in means.iter_mut().zip(vars.iter_mut()) {
            *mj = *mj * self.y_scale + self.y_mean;
            *vj = vj.max(1e-12) * s2;
        }
    }

    /// Upper-confidence-bound acquisition at `q` with exploration weight
    /// `kappa` (OtterTune-style; the Fig. 15 setup "minimises exploration by
    /// setting appropriate hyper parameters", i.e. a small kappa).
    pub fn ucb(&self, q: &[f64], kappa: f64) -> f64 {
        let (m, v) = self.predict(q);
        m + kappa * v.sqrt()
    }
}

impl GaussianProcess {
    /// Log marginal likelihood of the training data under the fitted
    /// hyper-parameters: `-½ ỹᵀα − Σ log Lᵢᵢ − n/2 log 2π` (standardised
    /// targets ỹ). Higher is better; used by [`fit_auto`] for model
    /// selection.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.y_raw.len();
        let data_fit: f64 = self
            .y_raw
            .iter()
            .zip(&self.alpha)
            .map(|(y, a)| (y - self.y_mean) / self.y_scale * a)
            .sum();
        let log_det: f64 = (0..n).map(|i| self.chol[(i, i)].ln()).sum();
        -0.5 * data_fit - log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// Fit a GP selecting the length scale by log marginal likelihood over a
/// small grid — OtterTune's "appropriate hyper parameters" step (§5, the
/// Fig. 15 setup tunes them manually; this automates it).
pub fn fit_auto(x: &[Vec<f64>], y: &[f64], base: GpParams) -> Option<GaussianProcess> {
    const GRID: [f64; 5] = [0.1, 0.2, 0.3, 0.5, 1.0];
    let mut best: Option<(f64, GaussianProcess)> = None;
    for &ls in &GRID {
        let params = GpParams {
            length_scale: ls,
            ..base
        };
        if let Some(gp) = GaussianProcess::fit(x, y, params) {
            let lml = gp.log_marginal_likelihood();
            if best.as_ref().is_none_or(|(b, _)| lml > *b) {
                best = Some((lml, gp));
            }
        }
    }
    best.map(|(_, gp)| gp)
}

/// Target standardisation constants: mean and (floored) standard deviation.
fn standardisation(y: &[f64]) -> (f64, f64) {
    let n = y.len() as f64;
    let mean = y.iter().sum::<f64>() / n;
    let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt().max(1e-9))
}

/// RBF kernel from a squared distance (the batched paths already have d²,
/// so the kernel never recomputes it — and never needs the sqrt).
#[inline]
fn rbf_sq(d2: f64, p: GpParams) -> f64 {
    // Multiply by the reciprocal rather than divide: the factor is loop
    // invariant in the batched sweeps, so this trades a vdivpd per element
    // for one division hoisted out of the loop.
    let scale = -0.5 / (p.length_scale * p.length_scale);
    p.signal_variance * exp_neg(d2 * scale)
}

/// `exp(x)` for non-positive `x`, accurate to ~1e-14 relative error.
///
/// The RBF kernel evaluates exp tens of thousands of times per candidate
/// sweep (n training points × m candidates) and libm's `exp` dominates the
/// whole recommend hot path. This branch-light polynomial form (argument
/// reduction x = k·ln2 + r, degree-11 Taylor on |r| ≤ ln2/2, bit-shift
/// scaling by 2^k) is several times cheaper per call and simple enough for
/// LLVM to vectorise inside the elementwise kernel loops.
#[inline]
fn exp_neg(x: f64) -> f64 {
    debug_assert!(x <= 0.0, "exp_neg wants a non-positive argument, got {x}");
    // Saturate instead of branching to zero: exp(−708) ≈ 3e−308 is already
    // indistinguishable from zero for a covariance, and keeping the body
    // branch-free lets the batched kernel loops auto-vectorise it.
    let x = x.max(-708.0);
    // Split the high/low parts of ln2 so r = x − k·ln2 stays accurate
    // through the cancellation.
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // Round-to-nearest-integer via the 1.5·2^52 shift trick (|x·log₂e| is
    // far below 2^51 here).
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let kf = x * std::f64::consts::LOG2_E + SHIFT;
    let k = kf - SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // exp(r) on r ∈ [−0.347, 0.347]: Taylor to r¹¹ (max rel. err ≈ 6e-15).
    let p = 1.0 / 39_916_800.0;
    let p = p * r + 1.0 / 3_628_800.0;
    let p = p * r + 1.0 / 362_880.0;
    let p = p * r + 1.0 / 40_320.0;
    let p = p * r + 1.0 / 5_040.0;
    let p = p * r + 1.0 / 720.0;
    let p = p * r + 1.0 / 120.0;
    let p = p * r + 1.0 / 24.0;
    let p = p * r + 1.0 / 6.0;
    let p = p * r + 0.5;
    let p = p * r + 1.0;
    let p = p * r + 1.0;
    // Scale by 2^k: k ∈ [−1021, 0], so the biased exponent never leaves
    // the normal range and the bit shift is exact. The integer k is read
    // straight out of `kf`'s mantissa (kf = 1.5·2⁵² + k exactly, so its low
    // 52 bits hold 2⁵¹ + k) — a saturating `as i64` cast here would stop
    // LLVM from vectorising the kernel loops this sits inside.
    let ki = (kf.to_bits() & 0x000F_FFFF_FFFF_FFFF) as i64 - (1 << 51);
    p * f64::from_bits(((ki + 1023) as u64) << 52)
}

/// Squared Euclidean distance between two rows.
#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    crate::linalg::sq_euclidean(a, b)
}

use autodbaas_snapshot::snap_struct;

snap_struct!(GpParams {
    length_scale,
    signal_variance,
    noise
});

// The Cholesky factor is persisted, not refit: `extend` and `slide` modify
// it row by row, and a from-scratch refactorisation would not be
// bit-identical.
snap_struct!(GaussianProcess {
    params,
    x,
    x_sq_norms,
    y_raw,
    alpha,
    chol,
    jitter,
    y_mean,
    y_scale
});

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exp_neg_matches_libm_across_the_kernel_range() {
        // Dense linear sweep over the range the RBF kernel actually
        // produces, plus the extremes.
        for i in 0..=400_000 {
            let x = -(i as f64) * 2e-4; // 0 down to −80
            let want = x.exp();
            let got = exp_neg(x);
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(
                rel < 1e-13,
                "x={x}: got {got:e}, want {want:e}, rel {rel:e}"
            );
        }
        assert_eq!(exp_neg(0.0), 1.0);
        // Saturated tail: anything below −708 pins to exp(−708) ≈ 3.3e−308.
        assert!(exp_neg(-800.0) < 1e-300);
        assert!((exp_neg(-700.0) / (-700.0f64).exp() - 1.0).abs() < 1e-12);
    }

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn fit_rejects_empty_and_mismatched() {
        assert!(GaussianProcess::fit(&[], &[], GpParams::default()).is_none());
        assert!(GaussianProcess::fit(&[vec![0.0]], &[1.0, 2.0], GpParams::default()).is_none());
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid_1d(9);
        let y: Vec<f64> = x
            .iter()
            .map(|v| (v[0] * std::f64::consts::PI).sin())
            .collect();
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi);
            assert!((m - yi).abs() < 0.05, "at {xi:?}: {m} vs {yi}");
        }
    }

    #[test]
    fn predicts_between_points() {
        let x = grid_1d(17);
        let y: Vec<f64> = x
            .iter()
            .map(|v| (v[0] * std::f64::consts::PI).sin())
            .collect();
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.05, "sin peak prediction {m}");
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![1.0, 2.0, 3.0];
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let (_, v_near) = gp.predict(&[0.1]);
        let (_, v_far) = gp.predict(&[1.0]);
        assert!(v_far > v_near * 10.0, "near {v_near} far {v_far}");
    }

    #[test]
    fn ucb_prefers_uncertainty_under_large_kappa() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![1.0, 1.0, 1.0];
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let near = gp.ucb(&[0.1], 10.0);
        let far = gp.ucb(&[1.0], 10.0);
        assert!(far > near);
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let x = vec![vec![0.5]; 8];
        let y = vec![2.0; 8];
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 2.0).abs() < 0.2);
    }

    #[test]
    fn standardisation_handles_large_targets() {
        let x = grid_1d(5);
        let y: Vec<f64> = x.iter().map(|v| 1e6 + 1e5 * v[0]).collect();
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.05e6).abs() < 2e4, "prediction {m}");
    }

    #[test]
    fn log_marginal_likelihood_prefers_sane_length_scales() {
        // Smooth data: a too-small length scale must score worse.
        let x = grid_1d(17);
        let y: Vec<f64> = x
            .iter()
            .map(|v| (v[0] * std::f64::consts::PI).sin())
            .collect();
        let lml = |ls: f64| {
            GaussianProcess::fit(
                &x,
                &y,
                GpParams {
                    length_scale: ls,
                    ..GpParams::default()
                },
            )
            .unwrap()
            .log_marginal_likelihood()
        };
        assert!(
            lml(0.3) > lml(0.02),
            "smooth data should prefer a wide kernel"
        );
    }

    #[test]
    fn fit_auto_beats_or_matches_a_bad_fixed_scale() {
        let x = grid_1d(17);
        let y: Vec<f64> = x
            .iter()
            .map(|v| (v[0] * std::f64::consts::PI).sin())
            .collect();
        let auto = fit_auto(&x, &y, GpParams::default()).unwrap();
        let bad = GaussianProcess::fit(
            &x,
            &y,
            GpParams {
                length_scale: 0.02,
                ..GpParams::default()
            },
        )
        .unwrap();
        // Generalisation check off-grid.
        let (m_auto, _) = auto.predict(&[0.47]);
        let (m_bad, _) = bad.predict(&[0.47]);
        let truth = (0.47f64 * std::f64::consts::PI).sin();
        assert!((m_auto - truth).abs() <= (m_bad - truth).abs() + 1e-9);
    }

    #[test]
    fn multidimensional_inputs_work() {
        let x: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 / 4.0, (i / 5) as f64 / 4.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] + 2.0 * v[1]).collect();
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5, 0.5]);
        assert!((m - 1.5).abs() < 0.1, "prediction {m}");
    }

    /// Random training set in [0,1]^d with a smooth target.
    fn random_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| {
                v.iter()
                    .enumerate()
                    .map(|(i, t)| (i as f64 + 1.0) * t)
                    .sum::<f64>()
            })
            .collect();
        (x, y)
    }

    #[test]
    fn extend_matches_full_refit() {
        // The tentpole parity pin: incremental extends must agree with a
        // from-scratch fit on the full data to 1e-9 — predictions AND the
        // internal factor-derived quantities (via lml).
        let (x, y) = random_data(60, 4, 42);
        let head = 40;
        let mut inc = GaussianProcess::fit(&x[..head], &y[..head], GpParams::default()).unwrap();
        for i in head..x.len() {
            assert!(inc.extend(&x[i], y[i]), "extend failed at {i}");
        }
        let full = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        assert_eq!(inc.len(), full.len());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            let (mi, vi) = inc.predict(&q);
            let (mf, vf) = full.predict(&q);
            assert!((mi - mf).abs() < 1e-9, "mean {mi} vs {mf}");
            assert!((vi - vf).abs() < 1e-9, "var {vi} vs {vf}");
        }
        let (li, lf) = (
            inc.log_marginal_likelihood(),
            full.log_marginal_likelihood(),
        );
        assert!((li - lf).abs() < 1e-9, "lml {li} vs {lf}");
    }

    #[test]
    fn extend_restandardises_targets() {
        // Feed targets whose mean/scale shift dramatically mid-stream; the
        // incremental path must track the full refit regardless.
        let (x, _) = random_data(30, 2, 3);
        let y: Vec<f64> = (0..30)
            .map(|i| {
                if i < 20 {
                    1.0 + i as f64 * 0.01
                } else {
                    100.0 + i as f64
                }
            })
            .collect();
        let mut inc = GaussianProcess::fit(&x[..20], &y[..20], GpParams::default()).unwrap();
        for i in 20..30 {
            assert!(inc.extend(&x[i], y[i]));
        }
        let full = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let (mi, _) = inc.predict(&[0.5, 0.5]);
        let (mf, _) = full.predict(&[0.5, 0.5]);
        assert!((mi - mf).abs() < 1e-9, "{mi} vs {mf}");
    }

    /// Largest disagreement between two models over `probes` random
    /// queries: (mean, variance, lml) — the last two relative to 1 + their
    /// magnitude, since they scale with y_scale² and the sample count.
    fn disagreement(a: &GaussianProcess, b: &GaussianProcess, probes: usize) -> (f64, f64, f64) {
        assert_eq!(a.len(), b.len());
        let d = a.x.cols();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut dm, mut dv) = (0.0f64, 0.0f64);
        for _ in 0..probes {
            let q: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
            let (ma, va) = a.predict(&q);
            let (mb, vb) = b.predict(&q);
            dm = dm.max((ma - mb).abs());
            dv = dv.max((va - vb).abs() / (1.0 + vb));
        }
        let (la, lb) = (a.log_marginal_likelihood(), b.log_marginal_likelihood());
        (dm, dv, (la - lb).abs() / (1.0 + lb.abs()))
    }

    #[test]
    fn slide_matches_full_refit() {
        // 3·n slides of an n-sample window — one or two samples at a time,
        // exact duplicates of samples still in the window among them, and
        // targets whose mean and scale jump mid-stream — must track a
        // from-scratch fit of the same window at every step.
        let n = 40;
        let (mut x, _) = random_data(n + 3 * n + 2, 4, 42);
        for i in (n..x.len()).step_by(7) {
            x[i] = x[i - 5].clone();
        }
        let y: Vec<f64> = (0..x.len())
            .map(|i| {
                if i < 2 * n {
                    1.0 + i as f64 * 0.01
                } else {
                    100.0 + i as f64
                }
            })
            .collect();
        let mut slid = GaussianProcess::fit(&x[..n], &y[..n], GpParams::default()).unwrap();
        let mut lo = 0;
        while lo < 3 * n {
            let step = 1 + lo % 2;
            let hi = lo + n;
            assert!(slid.slide(step, &x[hi..hi + step], &y[hi..hi + step]));
            lo += step;
            let full =
                GaussianProcess::fit(&x[lo..lo + n], &y[lo..lo + n], GpParams::default()).unwrap();
            let (dm, dv, dl) = disagreement(&slid, &full, 20);
            assert!(dm < 1e-9, "mean off by {dm:e} after {lo} slides");
            assert!(dv < 1e-9, "variance off by {dv:e} after {lo} slides");
            assert!(dl < 1e-9, "lml off by {dl:e} after {lo} slides");
        }
    }

    /// 3,000 slides at the benchmark's size (n = 300, d = 15, every ninth
    /// sample an exact duplicate): the Givens delete is backward stable, so
    /// the distance to a fresh fit must not grow with the slide count —
    /// which is why the tuner keeps no periodic refit. Release-only: a
    /// debug build needs minutes for it (`cargo test --release -p
    /// autodbaas-tuner slides_do_not_drift`).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes in a debug build; run with --release"
    )]
    fn slides_do_not_drift() {
        let (n, d, slides) = (300, 15, 3_000);
        let (mut x, y) = random_data(n + slides, d, 11);
        for i in (n..x.len()).step_by(9) {
            x[i] = x[i - 100].clone();
        }
        let mut slid = GaussianProcess::fit(&x[..n], &y[..n], GpParams::default()).unwrap();
        let mut worst_early = 0.0f64;
        for lo in 1..=slides {
            let hi = lo + n - 1;
            assert!(slid.slide(1, &x[hi..=hi], &y[hi..=hi]));
            if lo % 500 == 0 {
                let full =
                    GaussianProcess::fit(&x[lo..lo + n], &y[lo..lo + n], GpParams::default())
                        .unwrap();
                let (dm, dv, dl) = disagreement(&slid, &full, 50);
                let worst = dm.max(dv).max(dl);
                eprintln!("after {lo} slides: mean {dm:e} var {dv:e} lml {dl:e}");
                assert!(worst < 1e-9, "off by {worst:e} after {lo} slides");
                if lo <= 1_000 {
                    worst_early = worst_early.max(worst);
                } else {
                    assert!(
                        worst <= 4.0 * worst_early + 1e-12,
                        "error grew: {worst:e} after {lo} slides vs {worst_early:e} early"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_batch_matches_single_predictions() {
        let (x, y) = random_data(50, 3, 9);
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let queries: Vec<Vec<f64>> = (0..33)
            .map(|_| (0..3).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let mut means = Vec::new();
        let mut vars = Vec::new();
        let mut scratch = GpScratch::new();
        gp.predict_batch_into(&queries, &mut means, &mut vars, &mut scratch);
        // Second call with the same scratch must be identical (buffer reuse
        // must not leak state).
        let mut means2 = Vec::new();
        let mut vars2 = Vec::new();
        gp.predict_batch_into(&queries, &mut means2, &mut vars2, &mut scratch);
        assert_eq!(means, means2);
        assert_eq!(vars, vars2);
        for (j, q) in queries.iter().enumerate() {
            let (m, v) = gp.predict(q);
            assert!((means[j] - m).abs() < 1e-9, "mean[{j}] {} vs {m}", means[j]);
            assert!((vars[j] - v).abs() < 1e-9, "var[{j}] {} vs {v}", vars[j]);
        }
    }

    #[test]
    fn predict_batch_handles_empty_batch() {
        let (x, y) = random_data(10, 2, 5);
        let gp = GaussianProcess::fit(&x, &y, GpParams::default()).unwrap();
        let mut means = vec![1.0];
        let mut vars = vec![1.0];
        gp.predict_batch_into(&[], &mut means, &mut vars, &mut GpScratch::new());
        assert!(means.is_empty());
        assert!(vars.is_empty());
    }
}
