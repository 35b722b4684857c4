//! Minimal dense linear algebra for the Gaussian-process tuner.
//!
//! Just what GP regression needs: a row-major matrix, multiplication,
//! Cholesky factorisation (blocked, plus the two O(n²) modifications that
//! keep a sliding training window incremental: *append* a border row and
//! *delete* the first row/column, both in place) and triangular solves with
//! in-place variants that reuse caller buffers. Kernel matrices here are a
//! few hundred rows and the tuner touches its factor on every
//! recommendation, so the hot paths are written for cache locality and no
//! per-call allocation beyond O(n).

/// Block edge for the blocked Cholesky factorisation. 32×32 f64 tiles
/// (8 KiB) keep the three active tiles resident in L1.
const CHOL_BLOCK: usize = 32;

/// Row-major dense matrix.
#[derive(Debug, Clone, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Distance between row starts in `data` (≥ `cols`). Equal to `cols`
    /// except for a Cholesky factor that [`Matrix::cholesky_update_append`]
    /// has grown: it keeps spare columns so the next append re-pitches
    /// nothing. The spare is storage only — never compared or persisted.
    stride: usize,
    data: Vec<f64>,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            stride: cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a nested slice (test/doc convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.row_mut(i).copy_from_slice(row);
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.stride..][..self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.stride..][..self.cols]
    }

    /// Matrix product `self * other`. Straight fused inner loop over
    /// contiguous rows — no zero-skip branch: GP kernel matrices are dense,
    /// so the branch only cost a misprediction per element.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] written into a caller-owned output (previous
    /// contents ignored) — the allocation-free form the batched GP
    /// prediction uses every sweep.
    /// i-k-j loop order: the inner axpy runs over contiguous rows of both
    /// `other` and `out`, unrolled 4-wide over `k` so each `out` row is
    /// touched once per four `other` rows.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "dimension mismatch in matmul");
        assert_eq!(out.rows, self.rows, "bad output rows");
        assert_eq!(out.cols, other.cols, "bad output cols");
        let m = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * out.stride..][..m];
            // Zero the row here, while it is about to be written anyway —
            // callers can hand over stale scratch (`reset_stale`) without a
            // separate cache-evicting zeroing pass over the whole buffer.
            out_row.fill(0.0);
            axpy4(1.0, a_row, &other.data, 0, other.stride, out_row);
        }
    }

    /// Product with the second operand transposed: `self * otherᵀ`, written
    /// into `out` without allocating. Both operands stream row-contiguously
    /// (each output element is a dot of two rows), which is the
    /// cache-friendly orientation for the GP's candidate-batch kernel
    /// cross-covariances.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "dimension mismatch in matmul_transpose"
        );
        assert_eq!(out.rows, self.rows, "bad output rows");
        assert_eq!(out.cols, other.rows, "bad output cols");
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * out.stride..][..other.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        }
    }

    /// Allocating convenience wrapper over [`Matrix::matmul_transpose_into`].
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// Append one row (amortised O(cols)). An empty matrix adopts the row's
    /// length as its column count.
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 {
            self.cols = row.len();
            self.stride = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
        self.data.resize(self.rows * self.stride, 0.0);
    }

    /// Drop the first `k` rows (one `memmove` of the rest).
    pub(crate) fn remove_first_rows(&mut self, k: usize) {
        self.data.drain(..k * self.stride);
        self.rows -= k;
    }

    /// Reshape to `rows × cols`, zero-filled, reusing the existing
    /// allocation when it is large enough. Lets scratch matrices survive
    /// across calls without reallocating.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.stride = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`Matrix::reset`] without the zero-fill: contents are unspecified
    /// (stale values from earlier use). Only for buffers the next operation
    /// overwrites in full — e.g. [`Matrix::matmul_into`] output — where the
    /// streaming zero pass would only evict cache.
    pub fn reset_stale(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.stride = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Cholesky factorisation of a symmetric positive-definite matrix:
    /// returns lower-triangular `L` with `L Lᵀ = self`. Returns `None` when
    /// the matrix is not (numerically) positive definite — the GP retries
    /// with more jitter in that case.
    ///
    /// Blocked right-looking algorithm: the trailing update — where all the
    /// O(n³) work lives — runs as dot products over contiguous row slices
    /// in [`CHOL_BLOCK`]-wide panels, so the active tiles stay in L1.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let mut l = self.clone();
        if !l.cholesky_in_place() {
            return None;
        }
        Some(l)
    }

    /// Reference (unblocked) Cholesky: the property tests' oracle for the
    /// blocked factorization.
    pub fn cholesky_naive(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// In-place blocked Cholesky over `self` (must hold the SPD matrix;
    /// on success holds `L` with the strict upper triangle zeroed).
    /// Returns `false` when the matrix is not numerically positive definite,
    /// leaving `self` in an unspecified state.
    pub fn cholesky_in_place(&mut self) -> bool {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let c = self.stride;
        let mut k = 0;
        while k < n {
            let kb = (k + CHOL_BLOCK).min(n);
            // 1. Factor the diagonal block A[k..kb, k..kb] unblocked.
            for i in k..kb {
                for j in k..=i {
                    let (li, lj) = row_pair(&self.data, c, i, j);
                    let mut sum = li[j];
                    sum -= dot(&li[k..j], &lj[k..j]);
                    if i == j {
                        if sum <= 0.0 {
                            return false;
                        }
                        self.data[i * c + j] = sum.sqrt();
                    } else {
                        self.data[i * c + j] = sum / lj[j];
                    }
                }
            }
            // 2. Panel solve: rows below the block against the factored
            //    diagonal block (forward substitution per row).
            for i in kb..n {
                for j in k..kb {
                    let (li, lj) = row_pair(&self.data, c, i, j);
                    let sum = li[j] - dot(&li[k..j], &lj[k..j]);
                    self.data[i * c + j] = sum / lj[j];
                }
            }
            // 3. Trailing update: A[i][j] -= L[i][k..kb] · L[j][k..kb] for
            //    the lower triangle of the trailing square. Contiguous row
            //    slices — this is where the cache-friendliness pays.
            for i in kb..n {
                for j in kb..=i {
                    let (li, lj) = row_pair(&self.data, c, i, j);
                    let upd = dot(&li[k..kb], &lj[k..kb]);
                    self.data[i * c + j] -= upd;
                }
            }
            k = kb;
        }
        // Zero the strict upper triangle (the input's upper half is stale).
        for i in 0..n {
            for v in &mut self.data[i * c + i + 1..i * c + n] {
                *v = 0.0;
            }
        }
        true
    }

    /// Grow a Cholesky factor by one row/column in O(n²): given `self = L`
    /// with `L Lᵀ = K`, rebuild it as the factor of the bordered matrix
    /// `[[K, k_new], [k_newᵀ, diag]]`. This is what makes appending one GP
    /// training sample cost O(n²) instead of a fresh O(n³) factorisation.
    ///
    /// In place: the new row is solved where it will live, and the rows keep
    /// a pitch with spare columns (grown by half when it runs out), so an
    /// append moves O(n) memory, not the whole factor.
    ///
    /// Returns `false` (leaving `self` untouched) when the bordered matrix
    /// is not numerically positive definite — the caller falls back to a
    /// full refit with escalated jitter.
    pub fn cholesky_update_append(&mut self, k_new: &[f64], diag: f64) -> bool {
        assert_eq!(self.rows, self.cols, "factor must be square");
        assert_eq!(k_new.len(), self.rows, "border length mismatch");
        let n = self.rows;
        if n == self.stride {
            self.repitch(n + n / 2 + 1);
        }
        let s = self.stride;
        self.data.resize((n + 1) * s, 0.0);
        let (l, b) = self.data.split_at_mut(n * s);
        // Solve L b = k_new (forward substitution) in the new row's slot.
        b[..n].copy_from_slice(k_new);
        forward_substitute(l, s, &mut b[..n]);
        let d2 = diag - b[..n].iter().map(|x| x * x).sum::<f64>();
        if d2 <= 0.0 {
            self.data.truncate(n * s);
            return false;
        }
        b[n] = d2.sqrt();
        for i in 0..n {
            l[i * s + n] = 0.0;
        }
        self.rows = n + 1;
        self.cols = n + 1;
        true
    }

    /// Shrink a Cholesky factor by its *first* row/column in O(n²): given
    /// `self = L = [[l₁₁, 0], [l₂₁, L₂₂]]` with `L Lᵀ = K`, make it the
    /// factor of the trailing principal submatrix `K[1.., 1..] =
    /// L₂₂L₂₂ᵀ + l₂₁l₂₁ᵀ`. That is a rank-1 *update* — the sum of a
    /// positive-definite matrix and a positive-semidefinite one — so unlike
    /// a downdate it cannot fail, and it is carried out as Givens rotations
    /// of `[L₂₂ | l₂₁]` that zero the `l₂₁` column, which is backward
    /// stable: evicting the oldest GP sample thousands of times in a row
    /// does not drift (pinned by `slides_do_not_drift` in `gp.rs`).
    ///
    /// In place: row `i+1` is rotated into row `i`'s storage, one column to
    /// the left, as it is read.
    pub fn cholesky_delete_first(&mut self) {
        assert_eq!(self.rows, self.cols, "factor must be square");
        assert!(self.rows > 0, "no row to delete");
        let m = self.rows - 1;
        let s = self.stride;
        // Rotation `k` = (cos, sin) that folded `x[k]` into diagonal `k`.
        let mut rot = vec![(0.0, 0.0); m];
        for i in 0..m {
            let (above, below) = self.data.split_at_mut((i + 1) * s);
            let (new, old) = (&mut above[i * s..i * s + i + 1], &below[..i + 2]);
            // `x` is this row's entry of the l₂₁ column, rotated through
            // every earlier diagonal on its way to this row's own.
            let mut x = old[0];
            for ((d, &l), &(c, sn)) in new.iter_mut().zip(&old[1..=i]).zip(&rot) {
                *d = c * l + sn * x;
                x = c * x - sn * l;
            }
            let l = old[i + 1];
            let r = (l * l + x * x).sqrt();
            rot[i] = (l / r, x / r);
            new[i] = r;
        }
        self.rows = m;
        self.cols = m;
        self.data.truncate(m * s);
    }

    /// Re-pitch the rows `stride` apart in a fresh buffer with room for
    /// `stride` rows (a square factor never outgrows it before its columns
    /// do). Only reserved, not touched: resident memory follows the rows.
    fn repitch(&mut self, stride: usize) {
        let mut data = Vec::with_capacity(stride * stride);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.resize((i + 1) * stride, 0.0);
        }
        self.stride = stride;
        self.data = data;
    }

    /// Solve `L y = b` for lower-triangular `L` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_lower_in_place(&mut y);
        y
    }

    /// Forward substitution in place: `x` enters holding `b`, exits holding
    /// the solution of `L x' = b`. No allocation.
    pub fn solve_lower_in_place(&self, x: &mut [f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(x.len(), self.rows);
        forward_substitute(&self.data, self.stride, x);
    }

    /// Solve `Lᵀ x = b` for lower-triangular `L` (backward substitution).
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_lower_transpose_in_place(&mut x);
        x
    }

    /// Backward substitution in place against `Lᵀ`: `x` enters holding `b`,
    /// exits holding the solution. No allocation.
    ///
    /// Uses a column-oriented (outer-product) sweep so every inner loop
    /// walks one contiguous row of `L` instead of striding down a column.
    pub fn solve_lower_transpose_in_place(&self, x: &mut [f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(x.len(), self.rows);
        let n = self.rows;
        for i in (0..n).rev() {
            let row = self.row(i);
            let xi = x[i] / row[i];
            x[i] = xi;
            // Eliminate x[i] from all earlier equations: x[k] -= L[i][k]·xi.
            for (k, &lik) in row[..i].iter().enumerate() {
                x[k] -= lik * xi;
            }
        }
    }

    /// Batched forward substitution: solve `L V = B` where `B` is given as
    /// `rhs`, an `n × m` row-major matrix of `m` right-hand sides, solved
    /// in place. The inner loops run along the contiguous `m`-length rows,
    /// so this vectorises where per-candidate solves cannot.
    pub fn solve_lower_batch_in_place(&self, rhs: &mut Matrix) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(rhs.rows, self.rows, "RHS row count mismatch");
        let n = self.rows;
        let m = rhs.cols;
        let p = rhs.stride;
        // Tiled forward substitution. The naive row-at-a-time loop
        // re-streams every already-solved row for every new row (O(n²) row
        // reads — the dominant cost at GP sweep sizes). Two levels of
        // blocking fix that: panels of output rows share each chunk of
        // solved rows, and column tiles keep the chunk + output segments
        // L1-resident. Row-major storage makes a column tile of a row a
        // contiguous segment, so the tiling needs no copies; per-element
        // operation order is untouched (results stay bit-identical).
        const PANEL: usize = 8;
        const COLTILE: usize = 256;
        let mut j0 = 0;
        while j0 < m {
            let jb = COLTILE.min(m - j0);
            let mut i0 = 0;
            while i0 < n {
                let ib = PANEL.min(n - i0);
                let (head, tail) = rhs.data.split_at_mut(i0 * p);
                // GEMM part: panel row di -= Σ_{t<i0} L[i0+di][t] · head
                // row t, eight head-row segments at a time (the segment
                // chunk stays cache-hot across all `ib` panel rows).
                let mut t0 = 0;
                while t0 < i0 {
                    let tb = 8.min(i0 - t0);
                    for di in 0..ib {
                        let l_row = self.row(i0 + di);
                        let out_seg = &mut tail[di * p + j0..di * p + j0 + jb];
                        axpy4(-1.0, &l_row[t0..t0 + tb], head, t0 * p + j0, p, out_seg);
                    }
                    t0 += tb;
                }
                // Triangular part within the panel.
                for di in 0..ib {
                    let l_row = self.row(i0 + di);
                    let (ph, pt) = tail.split_at_mut(di * p);
                    let out_seg = &mut pt[j0..j0 + jb];
                    axpy4(-1.0, &l_row[i0..i0 + di], ph, j0, p, out_seg);
                    let inv = 1.0 / l_row[i0 + di];
                    for o in out_seg.iter_mut() {
                        *o *= inv;
                    }
                }
                i0 += ib;
            }
            j0 += jb;
        }
    }
}

/// Forward substitution `L x' = x` in place against the leading
/// `x.len()`-square block of a row-major lower-triangular buffer.
fn forward_substitute(l: &[f64], stride: usize, x: &mut [f64]) {
    for i in 0..x.len() {
        let row = &l[i * stride..i * stride + i + 1];
        let sum = x[i] - dot(&row[..i], &x[..i]);
        x[i] = sum / row[i];
    }
}

/// Two distinct rows of a row-major buffer, reborrowed immutably. `i` and
/// `j` may alias (returns the same slice twice).
#[inline]
fn row_pair(data: &[f64], cols: usize, i: usize, j: usize) -> (&[f64], &[f64]) {
    (
        &data[i * cols..(i + 1) * cols],
        &data[j * cols..(j + 1) * cols],
    )
}

/// `out[j] += scale · Σₜ coeffs[t] · src[offset + t·stride + j]` — a fused
/// multi-row axpy over row segments of a row-major buffer. Source rows are
/// consumed eight per pass so `out` is re-read once per eight axpys instead
/// of once per row, and the per-element accumulation order is fixed by the
/// source expression (callers rely on results being independent of how
/// they tile the surrounding loops). Shared inner kernel of
/// [`Matrix::matmul_into`] and [`Matrix::solve_lower_batch_in_place`],
/// where source-row re-reads are the dominant memory traffic.
#[inline]
fn axpy4(scale: f64, coeffs: &[f64], src: &[f64], offset: usize, stride: usize, out: &mut [f64]) {
    let w = out.len();
    debug_assert!(coeffs.is_empty() || src.len() >= offset + (coeffs.len() - 1) * stride + w);
    let mut chunks = coeffs.chunks_exact(8);
    let mut t = 0;
    for c in &mut chunks {
        let s = [
            scale * c[0],
            scale * c[1],
            scale * c[2],
            scale * c[3],
            scale * c[4],
            scale * c[5],
            scale * c[6],
            scale * c[7],
        ];
        let base = offset + t * stride;
        let p0 = &src[base..base + w];
        let p1 = &src[base + stride..base + stride + w];
        let p2 = &src[base + 2 * stride..base + 2 * stride + w];
        let p3 = &src[base + 3 * stride..base + 3 * stride + w];
        let p4 = &src[base + 4 * stride..base + 4 * stride + w];
        let p5 = &src[base + 5 * stride..base + 5 * stride + w];
        let p6 = &src[base + 6 * stride..base + 6 * stride + w];
        let p7 = &src[base + 7 * stride..base + 7 * stride + w];
        for (j, o) in out.iter_mut().enumerate() {
            let lo = s[0] * p0[j] + s[1] * p1[j] + s[2] * p2[j] + s[3] * p3[j];
            let hi = s[4] * p4[j] + s[5] * p5[j] + s[6] * p6[j] + s[7] * p7[j];
            *o += lo + hi;
        }
        t += 8;
    }
    let rem = chunks.remainder();
    let mut four = rem.chunks_exact(4);
    for c in &mut four {
        let s = [scale * c[0], scale * c[1], scale * c[2], scale * c[3]];
        let base = offset + t * stride;
        let p0 = &src[base..base + w];
        let p1 = &src[base + stride..base + stride + w];
        let p2 = &src[base + 2 * stride..base + 2 * stride + w];
        let p3 = &src[base + 3 * stride..base + 3 * stride + w];
        for (j, o) in out.iter_mut().enumerate() {
            *o += (s[0] * p0[j] + s[1] * p1[j]) + (s[2] * p2[j] + s[3] * p3[j]);
        }
        t += 4;
    }
    for (dt, &cv) in four.remainder().iter().enumerate() {
        let cv = scale * cv;
        let base = offset + (t + dt) * stride;
        let p = &src[base..base + w];
        for (o, &v) in out.iter_mut().zip(p) {
            *o += cv * v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.stride + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.stride + j]
    }
}

/// Euclidean distance between equal-length vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance (saves the sqrt on the RBF hot path, where
/// only d² is needed).
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean distance needs equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Matrix {
    fn encode(&self, w: &mut SnapWriter) {
        // Dense, whatever the pitch: a restored factor re-grows its spare.
        self.rows.encode(w);
        self.cols.encode(w);
        (self.rows * self.cols).encode(w);
        (0..self.rows)
            .flat_map(|i| self.row(i))
            .for_each(|v| v.encode(w));
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let rows = usize::decode(r)?;
        let cols = usize::decode(r)?;
        let data: Vec<f64> = Snap::decode(r)?;
        if data.len() != rows.saturating_mul(cols) {
            return Err(SnapError::Malformed("matrix shape"));
        }
        Ok(Self {
            rows,
            cols,
            stride: cols,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_handles_zeros_exactly() {
        // The old zero-skip branch special-cased these; the fused loop must
        // produce identical results.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]);
        let b = Matrix::from_rows(&[&[5.0, 0.0], &[0.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(0, 1)], 16.0);
        assert_eq!(c[(1, 0)], 15.0);
        assert_eq!(c[(1, 1)], 0.0);
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = Matrix::zeros(7, 5);
        let mut b = Matrix::zeros(9, 5);
        for i in 0..7 {
            for j in 0..5 {
                a[(i, j)] = rng.gen::<f64>() - 0.5;
            }
        }
        for i in 0..9 {
            for j in 0..5 {
                b[(i, j)] = rng.gen::<f64>() - 0.5;
            }
        }
        let fast = a.matmul_transpose(&b);
        let reference = a.matmul(&b.transpose());
        for i in 0..7 {
            for j in 0..9 {
                assert!((fast[(i, j)] - reference[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    /// Random SPD matrix `A Aᵀ + n·I` of size n.
    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rng.gen::<f64>() - 0.5;
            }
        }
        let mut spd = a.matmul_transpose(&a);
        for i in 0..n {
            spd[(i, i)] += n as f64;
        }
        spd
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.5], &[0.6, 1.5, 2.0]]);
        let l = a.cholesky().expect("SPD");
        let recon = l.matmul_transpose(&l);
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn blocked_cholesky_matches_naive_beyond_block_size() {
        // 83 > 2×CHOL_BLOCK exercises diagonal, panel and trailing paths
        // across multiple blocks, plus a ragged final block.
        for n in [5, 32, 33, 83] {
            let a = random_spd(n, n as u64);
            let blocked = a.cholesky().expect("SPD");
            let naive = a.cholesky_naive().expect("SPD");
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (blocked[(i, j)] - naive[(i, j)]).abs() < 1e-9,
                        "({i},{j}) at n={n}: {} vs {}",
                        blocked[(i, j)],
                        naive[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_none());
        assert!(a.cholesky_naive().is_none());
    }

    #[test]
    fn cholesky_update_append_matches_full_factorisation() {
        let n = 40;
        let full = random_spd(n + 1, 7);
        // Factor the leading n×n block, then append the border.
        let mut lead = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                lead[(i, j)] = full[(i, j)];
            }
        }
        let mut l = lead.cholesky().expect("SPD");
        let border: Vec<f64> = (0..n).map(|i| full[(i, n)]).collect();
        assert!(l.cholesky_update_append(&border, full[(n, n)]));
        let l_full = full.cholesky().expect("SPD");
        for i in 0..=n {
            for j in 0..=n {
                assert!(
                    (l[(i, j)] - l_full[(i, j)]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    l[(i, j)],
                    l_full[(i, j)]
                );
            }
        }
    }

    #[test]
    fn cholesky_update_append_rejects_indefinite_border_untouched() {
        let a = random_spd(6, 3);
        let mut l = a.cholesky().unwrap();
        let before = l.clone();
        // A border with a huge cross-covariance and tiny diagonal cannot be
        // part of any SPD matrix.
        let border = vec![100.0; 6];
        assert!(!l.cholesky_update_append(&border, 1e-6));
        assert_eq!(l, before, "failed append must leave the factor untouched");
    }

    #[test]
    fn spare_capacity_of_a_grown_factor_is_invisible() {
        // An append leaves the rows a spare pitch apart. Nothing may see
        // it: not equality, not the snapshot, not a solve or a product.
        let mut grown = random_spd(12, 21).cholesky().unwrap();
        assert!(grown.cholesky_update_append(&[0.25; 12], 40.0));
        assert!(grown.stride > grown.cols);
        let bytes = autodbaas_snapshot::encode_to_vec(&grown);
        let dense: Matrix = autodbaas_snapshot::decode_from_slice(&bytes).unwrap();
        assert_eq!(dense.stride, dense.cols);
        assert_eq!(dense, grown);
        assert_eq!(autodbaas_snapshot::encode_to_vec(&dense), bytes);
        let b: Vec<f64> = (0..13).map(|i| (i as f64).cos()).collect();
        assert_eq!(grown.solve_lower(&b), dense.solve_lower(&b));
        assert_eq!(
            grown.solve_lower_transpose(&b),
            dense.solve_lower_transpose(&b)
        );
        assert_eq!(grown.matmul(&grown), dense.matmul(&dense));
        assert_eq!(
            grown.matmul_transpose(&grown),
            dense.matmul_transpose(&dense)
        );
        let (mut via_grown, mut via_dense) = (grown.clone(), dense.clone());
        dense.solve_lower_batch_in_place(&mut via_grown);
        dense.solve_lower_batch_in_place(&mut via_dense);
        assert_eq!(via_grown, via_dense);
        // And a delete brings both to the same factor, bit for bit.
        let mut shrunk = dense.clone();
        shrunk.cholesky_delete_first();
        grown.cholesky_delete_first();
        assert_eq!(grown, shrunk);
    }

    #[test]
    fn triangular_solves_invert_spd_system() {
        // Solve A x = b via Cholesky; check A x ≈ b.
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let b = [1.0, 2.0];
        let l = a.cholesky().unwrap();
        let y = l.solve_lower(&b);
        let x = l.solve_lower_transpose(&y);
        let ax0 = a[(0, 0)] * x[0] + a[(0, 1)] * x[1];
        let ax1 = a[(1, 0)] * x[0] + a[(1, 1)] * x[1];
        assert!((ax0 - b[0]).abs() < 1e-10);
        assert!((ax1 - b[1]).abs() < 1e-10);
    }

    #[test]
    fn in_place_solves_match_allocating_solves() {
        let a = random_spd(20, 5);
        let l = a.cholesky().unwrap();
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let y = l.solve_lower(&b);
        let x = l.solve_lower_transpose(&y);
        let mut buf = b.clone();
        l.solve_lower_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&y) {
            assert!((a - b).abs() < 1e-12);
        }
        l.solve_lower_transpose_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_solve_matches_per_column_solves() {
        let n = 24;
        let m = 7;
        let a = random_spd(n, 9);
        let l = a.cholesky().unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let mut rhs = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                rhs[(i, j)] = rng.gen::<f64>() - 0.5;
            }
        }
        let mut batched = rhs.clone();
        l.solve_lower_batch_in_place(&mut batched);
        for j in 0..m {
            let col: Vec<f64> = (0..n).map(|i| rhs[(i, j)]).collect();
            let solved = l.solve_lower(&col);
            for i in 0..n {
                assert!(
                    (batched[(i, j)] - solved[i]).abs() < 1e-12,
                    "col {j} row {i}"
                );
            }
        }
    }

    #[test]
    fn euclidean_distance_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
