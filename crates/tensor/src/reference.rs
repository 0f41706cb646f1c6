//! Naive reference matmul kernels — the bit-identity oracle.
//!
//! These are the pre-blocking kernels, retained verbatim so the cache-blocked
//! kernels in [`crate::matrix`] can be checked *bit-for-bit* against them (the
//! determinism suites do exactly that across tile-boundary-spanning shapes)
//! and benchmarked against them (`cargo bench --bench kernels`). They are
//! always serial, never touch the pool, and never bump counters: a pure
//! oracle, not a production path.
//!
//! The production dispatcher also routes *tiny* products here (see
//! `NAIVE_MAX_MULADDS` in `matrix.rs`) — safe precisely because these kernels
//! accumulate every output element over `p` in ascending order, the same
//! per-element order the blocked kernels preserve.

use crate::matrix::Matrix;

/// Reference `a @ b` (`m x k` times `k x n`): the historical ikj row kernel.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "reference::matmul: inner dimension mismatch {}x{} @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_rows(a, b, 0..a.rows(), zero_skip_allowed(a, b), out.as_mut_slice());
    out
}

/// Reference `a^T @ b` (`k x m`^T times `k x n`).
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
#[must_use]
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "reference::matmul_tn: row mismatch {}x{} ^T @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_rows(a, b, 0..a.cols(), zero_skip_allowed(a, b), out.as_mut_slice());
    out
}

/// Reference `a @ b^T` (`m x k` times `n x k`^T).
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
#[must_use]
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "reference::matmul_nt: column mismatch {}x{} @ {}x{}^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_rows(a, b, 0..a.rows(), out.as_mut_slice());
    out
}

/// Whether the `a == 0.0` fast path may elide additions. Only when `b` is
/// finite: `0·NaN` and `0·∞` are `NaN` and must propagate. For finite `b`
/// eliding is bitwise the same as computing, because the accumulator starts
/// at `+0.0` and IEEE-754 addition never turns it into `-0.0`, so a `±0`
/// addend changes nothing — which is why the production kernels, which
/// compute every term, still match this oracle bit for bit.
fn zero_skip_allowed(a: &Matrix, b: &Matrix) -> bool {
    a.as_slice().contains(&0.0) && b.all_finite()
}

/// Computes output rows `rows` of `a @ b` into `out` (a dense tile of
/// `rows.len() * b.cols()` elements), one contiguous axpy per `(i, p)` pair
/// with `p` ascending — the per-element accumulation order every other
/// kernel in the crate must reproduce.
pub(crate) fn matmul_rows(
    a: &Matrix,
    b: &Matrix,
    rows: std::ops::Range<usize>,
    skip_zeros: bool,
    out: &mut [f32],
) {
    let (k, n) = (a.cols(), b.cols());
    for (local, i) in rows.enumerate() {
        let a_row = a.row(i);
        let out_row = &mut out[local * n..(local + 1) * n];
        for (p, &av) in a_row.iter().enumerate().take(k) {
            if skip_zeros && av == 0.0 {
                continue;
            }
            let b_row = &b.as_slice()[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Computes output rows `rows` of `a^T @ b` into `out`; `p` ascends per
/// output row, so each element accumulates in the same order as the
/// historical `p`-outer serial loop.
pub(crate) fn matmul_tn_rows(
    a: &Matrix,
    b: &Matrix,
    rows: std::ops::Range<usize>,
    skip_zeros: bool,
    out: &mut [f32],
) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    for (local, i) in rows.enumerate() {
        let out_row = &mut out[local * n..(local + 1) * n];
        for p in 0..k {
            let av = a.as_slice()[p * m + i];
            if skip_zeros && av == 0.0 {
                continue;
            }
            let b_row = &b.as_slice()[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Computes output rows `rows` of `a @ b^T` into `out`: per-element dot
/// products accumulating in ascending index order, no zero-skip path.
pub(crate) fn matmul_nt_rows(
    a: &Matrix,
    b: &Matrix,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    let n = b.rows();
    for (local, i) in rows.enumerate() {
        let a_row = a.row(i);
        let out_row = &mut out[local * n..(local + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_hand_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(matmul(&a, &b), Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
        assert_eq!(matmul_tn(&a.transpose(), &b), matmul(&a, &b));
        assert_eq!(matmul_nt(&a, &b.transpose()), matmul(&a, &b));
    }
}
