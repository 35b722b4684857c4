//! Property tests for the dense linear algebra under the GP tuner.
//!
//! The incremental-training fast path rests on three algebraic identities:
//! the blocked Cholesky must agree with the textbook factorisation; a
//! rank-1 `cholesky_update_append` followed by the in-place triangular
//! solves must be indistinguishable (to solver tolerance) from factoring
//! the bordered matrix from scratch; and `cholesky_delete_first` must
//! leave the factor of the trailing principal submatrix, so that delete
//! then append is the factor of the slid window. These run over randomly
//! generated SPD matrices across a range of jitter levels, not just the
//! seeded fixtures the unit tests use.

use autodbaas_tuner::linalg::Matrix;
use proptest::prelude::*;

/// Kernel-like SPD matrix from random points: `K[i][j] = exp(-‖pᵢ-pⱼ‖²) +
/// jitter·δᵢⱼ`, the exact shape the GP feeds the factorisation.
fn kernel_matrix(points: &[Vec<f64>], jitter: f64) -> Matrix {
    let n = points.len();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let d2: f64 = points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            k[(i, j)] = (-d2).exp();
        }
        k[(i, i)] += jitter;
    }
    k
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    let mut worst = 0.0f64;
    for i in 0..a.rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

/// Textbook delete-first, column by column on a copy: the rank-1 update of
/// `L₂₂` by `l₂₁`. With `rotate_x` off it is the mutant that forgets to
/// carry `x[i]` through each rotation — what the oracle below must reject.
fn delete_first_textbook(l: &Matrix, rotate_x: bool) -> Matrix {
    let m = l.rows() - 1;
    let mut out = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..=i {
            out[(i, j)] = l[(i + 1, j + 1)];
        }
    }
    let mut x: Vec<f64> = (0..m).map(|i| l[(i + 1, 0)]).collect();
    for k in 0..m {
        let r = out[(k, k)].hypot(x[k]);
        let (c, s) = (r / out[(k, k)], x[k] / out[(k, k)]);
        out[(k, k)] = r;
        for i in k + 1..m {
            out[(i, k)] = (out[(i, k)] + s * x[i]) / c;
            if rotate_x {
                x[i] = c * x[i] - s * out[(i, k)];
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn delete_first_leaves_the_factor_of_the_trailing_submatrix(
        flat in prop::collection::vec(0.0f64..1.0, 3 * 48),
        n in 2usize..=48,
        jitter_exp in -6.0f64..-1.0,
    ) {
        let jitter = 10.0f64.powf(jitter_exp);
        let points: Vec<Vec<f64>> = flat.chunks(3).take(n).map(|c| c.to_vec()).collect();
        let l_full = kernel_matrix(&points, jitter).cholesky().expect("jittered kernel is SPD");
        // The oracle: factor the kernel of all points but the first.
        let want = kernel_matrix(&points[1..], jitter)
            .cholesky_naive()
            .expect("jittered kernel is SPD");
        let mut l = l_full.clone();
        l.cholesky_delete_first();
        prop_assert!(
            max_abs_diff(&l, &want) < 1e-9,
            "delete-first diverged from the trailing factor: {:e}",
            max_abs_diff(&l, &want)
        );
        // The oracle has teeth: it accepts the textbook update and rejects
        // the one that drops the x[i] rotation (n = 2 has no x[i] to drop).
        prop_assert!(max_abs_diff(&delete_first_textbook(&l_full, true), &want) < 1e-9);
        if n >= 3 {
            prop_assert!(max_abs_diff(&delete_first_textbook(&l_full, false), &want) > 1e-6);
        }
    }

    #[test]
    fn delete_then_append_is_the_factor_of_the_slid_window(
        flat in prop::collection::vec(0.0f64..1.0, 3 * 50),
        n in 2usize..=48,
        jitter_exp in -6.0f64..-1.0,
    ) {
        let jitter = 10.0f64.powf(jitter_exp);
        let points: Vec<Vec<f64>> = flat.chunks(3).take(n + 2).map(|c| c.to_vec()).collect();
        let mut l = kernel_matrix(&points[..n], jitter).cholesky().expect("jittered kernel is SPD");
        // Two slides: the second runs on the spare capacity the first left.
        for lo in 1..=2 {
            let window = kernel_matrix(&points[lo..lo + n], jitter);
            l.cholesky_delete_first();
            prop_assert!(
                l.cholesky_update_append(&window.row(n - 1)[..n - 1], window[(n - 1, n - 1)]),
                "append refused a positive-definite border"
            );
            let want = window.cholesky_naive().expect("jittered kernel is SPD");
            prop_assert!(
                max_abs_diff(&l, &want) < 1e-9,
                "slide {lo} diverged from scratch refactorisation: {:e}",
                max_abs_diff(&l, &want)
            );
        }
    }

    #[test]
    fn blocked_cholesky_matches_naive(
        flat in prop::collection::vec(0.0f64..1.0, 3 * 40),
        n in 2usize..=40,
        jitter_exp in -6.0f64..-1.0,
    ) {
        let jitter = 10.0f64.powf(jitter_exp);
        let points: Vec<Vec<f64>> = flat.chunks(3).take(n).map(|c| c.to_vec()).collect();
        let k = kernel_matrix(&points, jitter);
        let blocked = k.cholesky().expect("jittered kernel is SPD");
        let naive = k.cholesky_naive().expect("jittered kernel is SPD");
        prop_assert!(
            max_abs_diff(&blocked, &naive) < 1e-10,
            "blocked vs naive diverged: {:e}",
            max_abs_diff(&blocked, &naive)
        );
    }

    #[test]
    fn rank1_append_matches_from_scratch_factorisation(
        flat in prop::collection::vec(0.0f64..1.0, 3 * 24),
        n in 1usize..=23,
        jitter_exp in -6.0f64..-1.0,
    ) {
        let jitter = 10.0f64.powf(jitter_exp);
        let points: Vec<Vec<f64>> = flat.chunks(3).take(n + 1).map(|c| c.to_vec()).collect();
        // Factor of the full (n+1)-point kernel, from scratch.
        let k_full = kernel_matrix(&points, jitter);
        let l_full = k_full.cholesky().expect("jittered kernel is SPD");
        // Factor of the leading n-point kernel, grown by one border row.
        let k_head = kernel_matrix(&points[..n], jitter);
        let mut l_inc = k_head.cholesky().expect("jittered kernel is SPD");
        let border: Vec<f64> = (0..n).map(|i| k_full[(n, i)]).collect();
        prop_assert!(
            l_inc.cholesky_update_append(&border, k_full[(n, n)]),
            "append refused a positive-definite border"
        );
        prop_assert!(
            max_abs_diff(&l_inc, &l_full) < 1e-9,
            "appended factor diverged from scratch refactorisation: {:e}",
            max_abs_diff(&l_inc, &l_full)
        );
    }

    #[test]
    fn in_place_solves_invert_the_factorisation(
        flat in prop::collection::vec(0.0f64..1.0, 3 * 24),
        rhs in prop::collection::vec(-10.0f64..10.0, 24),
        n in 2usize..=24,
        jitter_exp in -5.0f64..-1.0,
    ) {
        let jitter = 10.0f64.powf(jitter_exp);
        let points: Vec<Vec<f64>> = flat.chunks(3).take(n).map(|c| c.to_vec()).collect();
        let k = kernel_matrix(&points, jitter);
        let l = k.cholesky().expect("jittered kernel is SPD");
        // α = K⁻¹y via the two in-place triangular solves the GP uses.
        let mut alpha = rhs[..n].to_vec();
        l.solve_lower_in_place(&mut alpha);
        l.solve_lower_transpose_in_place(&mut alpha);
        // Residual ‖Kα − y‖∞ scaled by the conditioning-driven magnitude.
        let scale = 1.0 + alpha.iter().fold(0.0f64, |m, a| m.max(a.abs()));
        for (i, want) in rhs.iter().enumerate().take(n) {
            let kx: f64 = k.row(i).iter().zip(&alpha).map(|(a, b)| a * b).sum();
            prop_assert!(
                (kx - want).abs() < 1e-7 * scale,
                "row {i}: K·α = {kx}, want {want}, α-scale {scale}"
            );
        }
        // The batched solve agrees with the vector solve column-by-column.
        let mut batch = Matrix::zeros(n, 2);
        for i in 0..n {
            batch[(i, 0)] = rhs[i];
            batch[(i, 1)] = rhs[n - 1 - i];
        }
        l.solve_lower_batch_in_place(&mut batch);
        let mut col0: Vec<f64> = (0..n).map(|i| rhs[i]).collect();
        l.solve_lower_in_place(&mut col0);
        for i in 0..n {
            prop_assert!(
                (batch[(i, 0)] - col0[i]).abs() < 1e-9 * scale,
                "batched vs vector solve diverged at row {i}"
            );
        }
    }
}
