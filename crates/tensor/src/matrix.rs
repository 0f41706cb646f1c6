//! Row-major dense `f32` matrix with shape-checked linear algebra.
//!
//! [`Matrix`] is the only tensor type in the reproduction: vectors are
//! represented as `1 x n` or `n x 1` matrices, and batches of user/item
//! vectors as `batch x dim` matrices (one example per row, the layout used
//! throughout `metadpa-nn`).
//!
//! Two API families matter for performance:
//!
//! * The matmul kernels are **cache-blocked and panel-packed** (see the
//!   "Kernel machinery" section at the bottom of this file and DESIGN §9).
//!   They are bit-identical to the naive kernels retained in
//!   [`crate::reference`] because blocking only re-tiles the independent
//!   `i`/`j` loops — every output element still accumulates its `k`-loop
//!   addends in ascending order.
//! * Every allocating operation that appears on a hot path has an `_into`
//!   twin writing into a caller-owned matrix whose storage (capacity) is
//!   reused across calls, so steady-state training and serving allocate
//!   nothing per op.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, Mul, Range, Sub};

/// A dense, row-major matrix of `f32` values.
///
/// Cloning is a deep copy; the type is deliberately *not* reference-counted
/// so aliasing bugs in backward passes are impossible.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ell = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows x cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        // One bulk extend with an exact size hint instead of n per-element
        // pushes (each of which re-checks capacity).
        data.extend((0..n).map(|idx| f(idx / cols.max(1), idx % cols.max(1))));
        Self { rows, cols, data }
    }

    /// Creates a `1 x n` row vector from a slice.
    #[must_use]
    pub fn row_vector(values: &[f32]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates an `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "Matrix::get: index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "Matrix::set: index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = value;
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "Matrix::row: row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "Matrix::row_mut: row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "Matrix::col: column {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Iterates over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    // ------------------------------------------------------------------
    // Storage reuse
    // ------------------------------------------------------------------

    /// Reshapes to `rows x cols` reusing the existing allocation when the
    /// capacity suffices; element values are unspecified afterwards. This is
    /// the primitive every `_into` op that overwrites all elements uses.
    fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Public form of the overwrite reset, for callers that assemble a
    /// matrix row by row into a reused buffer (e.g. batch builders). Element
    /// values are **unspecified** after the call — the caller must write
    /// every element before reading any.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.reset_for_overwrite(rows, cols);
    }

    /// Reshapes to `rows x cols` (reusing capacity) and zero-fills; used by
    /// the accumulating matmul kernels.
    fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src`'s shape and contents into `self`, reusing `self`'s
    /// allocation when possible — a `clone_from` that never shrinks capacity.
    pub fn assign(&mut self, src: &Matrix) {
        self.reset_for_overwrite(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Gathers the given rows into a new matrix (rows may repeat).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reset_for_overwrite(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(
                src < self.rows,
                "Matrix::gather_rows: row {src} out of bounds for {} rows",
                self.rows
            );
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    #[must_use]
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::vstack: column mismatch {} vs {}",
            self.cols, other.cols
        );
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Concatenates `self` and `other` column-wise.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    #[must_use]
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.hstack_into(other, &mut out);
        out
    }

    /// [`Matrix::hstack`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hstack_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::hstack: row mismatch {} vs {}",
            self.rows, other.rows
        );
        out.reset_for_overwrite(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Splits the matrix column-wise at `at`, returning `(left, right)`.
    ///
    /// # Panics
    /// Panics if `at > cols`.
    #[must_use]
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        let (mut left, mut right) = (Matrix::default(), Matrix::default());
        self.hsplit_into(at, &mut left, &mut right);
        (left, right)
    }

    /// [`Matrix::hsplit`] into two reused output matrices.
    ///
    /// # Panics
    /// Panics if `at > cols`.
    pub fn hsplit_into(&self, at: usize, left: &mut Matrix, right: &mut Matrix) {
        assert!(at <= self.cols, "Matrix::hsplit: split point {at} beyond {} cols", self.cols);
        left.reset_for_overwrite(self.rows, at);
        right.reset_for_overwrite(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
    }

    // ------------------------------------------------------------------
    // Elementwise combinators
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        metadpa_obs::counter_add!("tensor.elementwise.ops", self.data.len() as u64);
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// [`Matrix::map`] into a reused output matrix.
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Matrix) {
        metadpa_obs::counter_add!("tensor.elementwise.ops", self.data.len() as u64);
        out.reset_for_overwrite(self.rows, self.cols);
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(v);
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        metadpa_obs::counter_add!("tensor.elementwise.ops", self.data.len() as u64);
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two equal-shaped matrices elementwise with `f`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        metadpa_obs::counter_add!("tensor.elementwise.ops", self.data.len() as u64);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// [`Matrix::zip_map`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip_map_into(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32, out: &mut Matrix) {
        self.assert_same_shape(other, "zip_map");
        metadpa_obs::counter_add!("tensor.elementwise.ops", self.data.len() as u64);
        out.reset_for_overwrite(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
    }

    /// Combines `self` with `other` elementwise in place
    /// (`self[i] = f(self[i], other[i])`).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip_map_inplace(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other, "zip_map_inplace");
        metadpa_obs::counter_add!("tensor.elementwise.ops", self.data.len() as u64);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    #[must_use]
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds `other * s` into `self` in place (axpy).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, s: f32) {
        self.assert_same_shape(other, "add_scaled_inplace");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * s;
        }
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_inplace(&mut self, other: &Matrix) {
        self.add_scaled_inplace(other, 1.0);
    }

    /// Fills the matrix with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    // ------------------------------------------------------------------
    // Broadcasting
    // ------------------------------------------------------------------

    /// Adds a `1 x cols` row vector to every row.
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x cols`.
    #[must_use]
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.add_row_broadcast_into(bias, &mut out);
        out
    }

    /// [`Matrix::add_row_broadcast`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x cols`.
    pub fn add_row_broadcast_into(&self, bias: &Matrix, out: &mut Matrix) {
        out.assign(self);
        out.add_row_broadcast_inplace(bias);
    }

    /// Adds a `1 x cols` row vector to every row of `self` in place.
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x cols`.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Matrix) {
        assert!(
            bias.rows == 1 && bias.cols == self.cols,
            "Matrix::add_row_broadcast: bias must be 1x{}, got {}x{}",
            self.cols,
            bias.rows,
            bias.cols
        );
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
    }

    /// Sums all rows into a `1 x cols` row vector.
    #[must_use]
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a reused output matrix.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reset_zeroed(1, self.cols);
        for r in 0..self.rows {
            for (acc, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *acc += v;
            }
        }
    }

    /// Sums each row into an `rows x 1` column vector.
    #[must_use]
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "Matrix::max: empty matrix");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "Matrix::min: empty matrix");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    // ------------------------------------------------------------------
    // Matrix multiplication
    // ------------------------------------------------------------------

    /// Matrix product `self @ other` (`m x k` times `k x n`).
    ///
    /// All three product forms run through one driver (DESIGN §9.1): a
    /// single-column result goes to a direct narrow kernel, other tiny
    /// shapes (below `NAIVE_MAX_MULADDS`) to the retained
    /// [`crate::reference`] kernel, and the rest to the cache-blocked,
    /// B-panel-packed kernel. All of them accumulate each output element
    /// over `p` in ascending order from `+0.0`, so the result is
    /// bit-identical regardless of the path taken — and bit-identical at any
    /// thread count, since the parallel path only partitions output rows.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        Layout::NN.product(self, other)
    }

    /// [`Matrix::matmul`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        matmul_driver(Layout::NN, self, other, out);
    }

    /// `self^T @ other` without materializing the transpose
    /// (`k x m`^T times `k x n` -> `m x n`).
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    #[must_use]
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        Layout::TN.product(self, other)
    }

    /// [`Matrix::matmul_tn`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        matmul_driver(Layout::TN, self, other, out);
    }

    /// `self @ other^T` without materializing the transpose
    /// (`m x k` times `n x k`^T -> `m x n`).
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    #[must_use]
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        Layout::NT.product(self, other)
    }

    /// [`Matrix::matmul_nt`] into a reused output matrix.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        matmul_driver(Layout::NT, self, other, out);
    }

    /// Dot product of two equal-length row-major matrices viewed as vectors.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn dot_flat(&self, other: &Matrix) -> f32 {
        assert_eq!(
            self.data.len(),
            other.data.len(),
            "Matrix::dot_flat: element count mismatch {} vs {}",
            self.data.len(),
            other.data.len()
        );
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| a * b).sum()
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "Matrix::{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

// ----------------------------------------------------------------------
// Kernel machinery (see DESIGN §9 for the memory model)
// ----------------------------------------------------------------------

/// Work (in multiply-adds) below which a matmul stays serial: a scoped
/// worker costs on the order of tens of microseconds to spawn, so a row
/// block has to amortize that many times over before threads pay off. The
/// MAML inner loops and per-request serve scoring sit far below this and
/// never touch the pool; batch scoring and CVAE training sit above it.
/// Single-column (`n = 1`, and `k = 1` for `matmul_nt`) products run the
/// serial narrow kernels whatever their size, outside the fused policy.
const PAR_MIN_MULADDS: usize = 1 << 20;

/// Work below which the blocked kernel (packing + register tiling) costs
/// more than it saves and the product routes to the retained naive kernel
/// in [`crate::reference`] instead. Safe at any value: both kernels
/// accumulate each output element in the same order, so the dispatch choice
/// never changes a single bit of the result. Checked after the narrow
/// kernels ([`matvec`], [`matvec_t`], [`outer`]) have taken the
/// single-column shapes.
const NAIVE_MAX_MULADDS: usize = 1 << 12;

/// Width (in f32 columns) of one packed B panel. `k x JT` floats per panel:
/// at the repo's typical `k <= 512` a panel stays under 256 KiB and
/// L2-resident while the register tiles stream through it.
const JT: usize = 128;

/// Output rows processed together by the register-tile microkernel. Each
/// loaded B row is reused `MR` times from registers/L1 instead of re-read
/// per output row — the main cache win over the naive ikj kernel. (The
/// AVX2 microkernels in [`crate::simd`] use their own, taller strip
/// height.)
const MR: usize = 4;

/// Columns per register tile: two 8-lane f32 vectors, so an `MR x NR`
/// accumulator block (8 vector registers) plus the B row and the broadcast
/// A value fit in the 16 architectural vector registers.
const NR: usize = 16;

thread_local! {
    /// Reused panel-packing buffer for the shared B operand (one per
    /// dispatching thread; zero steady-state allocations).
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reused packing buffer for a row task's A^T rows in `matmul_tn` (one
    /// per executing thread, see [`with_a_rows`]).
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Narrow kernel for `a @ b` with a single-column `b` (`m x k` times
/// `k x 1`), the scoring head's forward shape: one dot product per output
/// row, summed over `p` in ascending order from `+0.0` — the naive
/// kernel's per-element sequence, minus its per-row slice and axpy set-up.
fn matvec(a: &[f32], k: usize, b: &[f32], out: &mut [f32]) {
    if k == 0 {
        out.fill(0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(a.chunks_exact(k)) {
        let mut acc = 0.0f32;
        for (&x, &y) in row.iter().zip(b) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// Narrow kernel for `a^T @ b` with a single-column `b` (`k x m`^T times
/// `k x 1`), the scoring head's weight-gradient shape: `out` must arrive
/// zeroed, and each step `p` adds `a[p, :] · b[p]` to every output, so each
/// element still sums its `k` addends in ascending `p` order from `+0.0`
/// while the inner loop runs over contiguous memory.
fn matvec_t(a: &[f32], m: usize, b: &[f32], out: &mut [f32]) {
    if m == 0 {
        return;
    }
    for (row, &bv) in a.chunks_exact(m).zip(b) {
        for (o, &av) in out.iter_mut().zip(row) {
            *o += av * bv;
        }
    }
}

/// Narrow kernel for `a @ b^T` with `k = 1` (`m x 1` times `n x 1`^T), the
/// scoring head's input-gradient shape: an outer product. Written as
/// `0.0 + a·b`, the one-addend sum every other kernel computes, so a `-0.0`
/// product still comes out as `+0.0`.
fn outer(a: &[f32], b: &[f32], out: &mut [f32]) {
    if b.is_empty() {
        return;
    }
    for (orow, &av) in out.chunks_exact_mut(b.len()).zip(a) {
        for (o, &bv) in orow.iter_mut().zip(b) {
            *o = 0.0 + av * bv;
        }
    }
}

/// The operand layout of one product: which side is read transposed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `a @ b` (`m x k` times `k x n`).
    NN,
    /// `a^T @ b` (`k x m`^T times `k x n`).
    TN,
    /// `a @ b^T` (`m x k` times `n x k`^T).
    NT,
}

impl Layout {
    /// `(m, k, n)` of `a` and `b` read in this layout.
    ///
    /// # Panics
    /// Panics if the operands' inner dimensions disagree.
    fn dims(self, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
        let (name, m, k, n, b_inner) = match self {
            Layout::NN => ("matmul", a.rows, a.cols, b.cols, b.rows),
            Layout::TN => ("matmul_tn", a.cols, a.rows, b.cols, b.rows),
            Layout::NT => ("matmul_nt", a.rows, a.cols, b.rows, b.cols),
        };
        assert!(
            k == b_inner,
            "Matrix::{name}: inner dimension mismatch {}x{}{} @ {}x{}{}",
            a.rows,
            a.cols,
            if self == Layout::TN { " ^T" } else { "" },
            b.rows,
            b.cols,
            if self == Layout::NT { "^T" } else { "" },
        );
        (m, k, n)
    }

    /// The product into a fresh matrix.
    #[inline(always)]
    fn product(self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        matmul_driver(self, a, b, &mut out);
        out
    }
}

/// The one matmul driver behind every product form: counts the call, then
/// picks a narrow, naive or blocked kernel from `(m, k, n)`, the layout and
/// the SIMD policy alone (DESIGN §9.1).
///
/// * A single-column result (`n = 1` for NN/TN, `k = 1` for NT) runs its
///   exact narrow kernel, unless the FMA-fused blocked kernels would take
///   the shape: those round once per multiply-add, so the fused policy
///   keeps them.
/// * Below `NAIVE_MAX_MULADDS` the naive kernel runs. NT also stays naive
///   with fewer than `MR` rows: packing `B^T` costs `k·n` writes, amortized
///   over the `m` output rows.
/// * Otherwise B is packed once for the selected kernel family (scalar
///   panels or AVX2 lane tiles) and the rows run through [`run_rows`]; for
///   TN each row task packs its own A^T rows.
///
/// Always inlined, so each entry point compiles to its own body with the
/// layout a constant: the small products of the MAML inner loop and of
/// serve-time adaptation measurably slow down through a shared body.
#[inline(always)]
fn matmul_driver(layout: Layout, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = layout.dims(a, b);
    let muladds = m * k * n;
    metadpa_obs::counter_add!("tensor.matmul.calls", 1u64);
    metadpa_obs::counter_add!("tensor.matmul.flops", 2 * muladds as u64);
    let blocked = muladds >= NAIVE_MAX_MULADDS && (layout != Layout::NT || m >= MR);
    let narrow = if layout == Layout::NT { k == 1 } else { n == 1 };
    if narrow && !(blocked && crate::simd::fused_selected()) {
        metadpa_obs::counter_add!("tensor.matmul.dispatch.narrow", 1u64);
        match layout {
            Layout::NN => {
                out.reset_for_overwrite(m, 1);
                matvec(&a.data, k, &b.data, &mut out.data);
            }
            Layout::TN => {
                out.reset_zeroed(m, 1);
                matvec_t(&a.data, m, &b.data, &mut out.data);
            }
            Layout::NT => {
                out.reset_for_overwrite(m, n);
                outer(&a.data, &b.data, &mut out.data);
            }
        }
        return;
    }
    out.reset_zeroed(m, n);
    if !blocked {
        metadpa_obs::counter_add!("tensor.matmul.dispatch.serial", 1u64);
        match layout {
            Layout::NN => crate::reference::matmul_rows(a, b, 0..m, false, &mut out.data),
            Layout::TN => crate::reference::matmul_tn_rows(a, b, 0..m, false, &mut out.data),
            Layout::NT => crate::reference::matmul_nt_rows(a, b, 0..m, &mut out.data),
        }
        return;
    }
    metadpa_obs::counter_add!("tensor.matmul.dispatch.blocked", 1u64);
    let path = crate::simd::resolve_and_count();
    let transposed = layout == Layout::NT;
    // The packer closures capture by value (`move`): a borrowed `layout`
    // would escape into the thread-local access and stop the compiler from
    // folding the layout branches above into each entry point.
    if path == crate::simd::Path::Scalar {
        with_b_panels(&b.data, k, n, transposed, move |panels, panel_w| {
            run_rows(m, muladds, &mut out.data, n, |rows, tile| {
                with_a_rows(layout, a, k, rows, |arows, n_rows| {
                    blocked_rows(arows, n_rows, k, panels, panel_w, n, tile);
                });
            });
        });
    } else {
        crate::simd::with_b_tiles(&b.data, k, n, transposed, move |tiles| {
            run_rows(m, muladds, &mut out.data, n, |rows, tile| {
                with_a_rows(layout, a, k, rows, |arows, n_rows| {
                    crate::simd::blocked_rows_simd(arows, n_rows, k, tiles, n, path.fused(), tile);
                });
            });
        });
    }
}

/// Hands `f` the `k x n` right operand as packed column panels. With
/// `transposed`, `b` is stored `n x k` and its transpose is packed.
///
/// Panel `t` holds columns `t*JT..` as a contiguous `k x w` block, values
/// copied bit-exactly into a reused thread-local buffer, packed once per
/// call and shared read-only across all row tasks. A row-major B that is a
/// single panel (`n <= JT`) already *is* the panel layout, so it is passed
/// through without copying.
fn with_b_panels(b: &[f32], k: usize, n: usize, transposed: bool, f: impl FnOnce(&[f32], usize)) {
    if !transposed && n <= JT {
        f(b, n.max(1));
        return;
    }
    PACK_B.with(|buf| {
        let mut packed = buf.borrow_mut();
        packed.clear();
        packed.resize(k * n, 0.0);
        let mut j0 = 0;
        while j0 < n {
            let w = JT.min(n - j0);
            let base = k * j0;
            for p in 0..k {
                let dst = &mut packed[base + p * w..base + (p + 1) * w];
                if transposed {
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = b[(j0 + j) * k + p];
                    }
                } else {
                    dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                }
            }
            j0 += w;
        }
        metadpa_obs::counter_add!("tensor.matmul.packed_panels", n.div_ceil(JT) as u64);
        f(&packed, JT);
    });
}

/// Hands `f` rows `rows` of the left operand as a contiguous row-major
/// `rows.len() x k` block, with the row count. NN and NT read a slice of
/// `a` itself; TN reads columns of the `k x m` matrix `a` (stride `m`), so
/// they are packed once per row task into this thread's reused buffer —
/// pool workers pack their own row range.
fn with_a_rows(
    layout: Layout,
    a: &Matrix,
    k: usize,
    rows: Range<usize>,
    f: impl FnOnce(&[f32], usize),
) {
    let n_rows = rows.len();
    if layout != Layout::TN {
        f(&a.data[rows.start * k..rows.end * k], n_rows);
        return;
    }
    PACK_A.with(|buf| {
        let mut apack = buf.borrow_mut();
        pack_at_rows(&a.data, k, a.cols, rows, &mut apack);
        f(&apack, n_rows);
    });
}

/// Packs rows `rows` of `a^T` (i.e. columns of the `k x m` matrix `a`) into
/// `dst` as a contiguous row-major `rows.len() x k` block.
fn pack_at_rows(a: &[f32], k: usize, m: usize, rows: Range<usize>, dst: &mut Vec<f32>) {
    dst.clear();
    dst.resize(rows.len() * k, 0.0);
    for (local, i) in rows.enumerate() {
        let drow = &mut dst[local * k..(local + 1) * k];
        for (p, d) in drow.iter_mut().enumerate() {
            *d = a[p * m + i];
        }
    }
}

/// Runs `kernel` over all `m` output rows of a row-major `m x n` output,
/// either in one serial call or row-partitioned across the pool with each
/// task writing directly into its disjoint slice of `out` (no private tiles,
/// no copies). The partition is by row index only and the kernels fix the
/// per-element operation order, so serial and parallel results are
/// bit-identical.
fn run_rows(
    m: usize,
    muladds: usize,
    out: &mut [f32],
    n: usize,
    kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let threads = crate::pool::current_threads();
    if threads <= 1 || m <= 1 || muladds < PAR_MIN_MULADDS {
        kernel(0..m, out);
        return;
    }
    let pool = crate::pool::Pool::with_size(threads);
    let ranges = pool.partition(m);
    let mut parts: Vec<(Range<usize>, &mut [f32])> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len() * n);
        parts.push((r, head));
        rest = tail;
    }
    pool.run_parts(parts, |(rows, slice)| kernel(rows, slice));
}

/// The blocked kernel shared by all three matmul forms: `arows` is a
/// contiguous row-major `n_rows x k` view of the (possibly packed) left
/// operand, `panels` the packed right operand (see [`with_b_panels`]), and
/// `out` the `n_rows x n` output tile.
///
/// Loop order: j-panel -> MR-row block -> NR-column register tile -> `p`.
/// Every output element is produced by exactly one register tile, whose
/// accumulator sums the `k` addends in ascending `p` order starting from
/// `+0.0` — the identical addends in the identical order as the naive
/// kernel, hence bit-identical results (DESIGN §9).
///
/// This is the scalar kernel family, the `METADPA_SIMD=off` fallback: when
/// [`crate::simd`] dispatch selects an AVX2 path, [`matmul_driver`] routes
/// to [`crate::simd::blocked_rows_simd`] over lane-tile packed panels
/// instead. The exact SIMD kernel performs
/// the identical mul-round/add-round sequence per element, so the
/// scalar/SIMD choice never changes a bit either (DESIGN §14).
///
/// Every term is computed, exact zeros in A included. The naive reference
/// elides `0·b` rows when B is finite, which is bitwise the same: the
/// accumulator starts at `+0.0` and IEEE-754 addition never turns it into
/// `-0.0`, so a `±0` addend changes nothing; with a non-finite B both
/// compute `0·NaN` and `0·∞` as `NaN`. Testing each element of A for zero
/// cost more than the additions it saved on the post-ReLU operands
/// training produces.
fn blocked_rows(
    arows: &[f32],
    n_rows: usize,
    k: usize,
    panels: &[f32],
    panel_w: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    while j0 < n {
        let w = panel_w.min(n - j0);
        let pdata = &panels[k * j0..k * j0 + k * w];
        let mut i0 = 0;
        while i0 < n_rows {
            let ib = MR.min(n_rows - i0);
            let mut jt = 0;
            while jt < w {
                let wj = NR.min(w - jt);
                if ib == MR && wj == NR {
                    micro_tile(arows, i0, k, pdata, w, jt, out, n, j0);
                } else {
                    edge_tile(arows, i0, ib, k, pdata, w, jt, wj, out, n, j0);
                }
                jt += wj;
            }
            i0 += ib;
        }
        j0 += w;
    }
}

/// Full `MR x NR` register tile: accumulators live in registers across the
/// whole `p` loop and each loaded B row is reused `MR` times.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_tile(
    arows: &[f32],
    i0: usize,
    k: usize,
    pdata: &[f32],
    w: usize,
    jt: usize,
    out: &mut [f32],
    n: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let brow = &pdata[p * w + jt..p * w + jt + NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arows[(i0 + r) * k + p];
            for (a, &bv) in accr.iter_mut().zip(brow.iter()) {
                *a += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let base = (i0 + r) * n + j0 + jt;
        out[base..base + NR].copy_from_slice(accr);
    }
}

/// Remainder rows/columns of a block: plain axpy per `(row, p)` pair over
/// the tile's column range, `p` ascending — same per-element order as the
/// microkernel and the naive reference.
#[allow(clippy::too_many_arguments)]
fn edge_tile(
    arows: &[f32],
    i0: usize,
    ib: usize,
    k: usize,
    pdata: &[f32],
    w: usize,
    jt: usize,
    wj: usize,
    out: &mut [f32],
    n: usize,
    j0: usize,
) {
    for r in 0..ib {
        let i = i0 + r;
        let base = i * n + j0 + jt;
        for p in 0..k {
            let av = arows[i * k + p];
            let brow = &pdata[p * w + jt..p * w + jt + wj];
            let orow = &mut out[base..base + wj];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec())
    }

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_fills_row_major() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(a, m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]));
        assert!(Matrix::from_fn(0, 5, |_, _| 1.0).is_empty());
        assert!(Matrix::from_fn(5, 0, |_, _| 1.0).is_empty());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_reuse_capacity_and_match() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // Seed the output with a big allocation, then shrink into it: the
        // pointer must not move (capacity reuse) and values must match the
        // allocating API bit for bit.
        let mut out = Matrix::zeros(64, 64);
        let cap_ptr = out.as_slice().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        assert_eq!(out.as_slice().as_ptr(), cap_ptr, "matmul_into must reuse the allocation");

        a.map_into(|v| v * 2.0, &mut out);
        assert_eq!(out, a.scale(2.0));
        a.zip_map_into(&a, |x, y| x + y, &mut out);
        assert_eq!(out, &a + &a);
        a.sum_rows_into(&mut out);
        assert_eq!(out, a.sum_rows());
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        a.add_row_broadcast_into(&bias, &mut out);
        assert_eq!(out, a.add_row_broadcast(&bias));
    }

    #[test]
    fn assign_copies_shape_and_contents() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut b = Matrix::zeros(5, 5);
        b.assign(&a);
        assert_eq!(b, a);
        let mut c = Matrix::default();
        c.assign(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_rows_repeats_and_reorders() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, m(3, 2, &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]));
    }

    #[test]
    fn hstack_vstack_hsplit_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (2, 3));
        let (l, r) = h.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
        let v = a.vstack(&a);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(2), a.row(0));
    }

    #[test]
    fn broadcast_and_row_sums() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bias = Matrix::row_vector(&[10.0, 20.0, 30.0]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(out.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(out.row(1), &[14.0, 25.0, 36.0]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[5.0, 7.0, 9.0]));
        assert_eq!(a.sum_cols(), m(2, 1, &[6.0, 15.0]));
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b), m(1, 3, &[4.0, 10.0, 18.0]));
        assert_eq!(a.scale(2.0), m(1, 3, &[2.0, 4.0, 6.0]));
    }

    #[test]
    fn add_scaled_inplace_is_axpy() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let b = m(1, 2, &[2.0, 4.0]);
        a.add_scaled_inplace(&b, 0.5);
        assert_eq!(a, m(1, 2, &[2.0, 3.0]));
    }

    #[test]
    fn matmul_propagates_nan_and_inf_past_zero_rows() {
        // 0 · NaN and 0 · ∞ are NaN; no kernel may convert them to 0
        // (regression: a diverging model's activations looked finite after
        // multiplying by sparse inputs).
        let a = m(2, 2, &[0.0, 1.0, 2.0, 0.0]);
        let b_nan = m(2, 2, &[f32::NAN, 5.0, 6.0, 7.0]);
        let c = a.matmul(&b_nan);
        assert!(c.get(0, 0).is_nan(), "0·NaN must propagate, got {}", c.get(0, 0));
        assert!(c.get(1, 0).is_nan(), "NaN row times nonzero must propagate");
        let b_inf = m(2, 2, &[f32::INFINITY, 5.0, 6.0, 7.0]);
        let c = a.matmul(&b_inf);
        assert!(c.get(0, 0).is_nan(), "0·∞ is NaN, got {}", c.get(0, 0));
    }

    #[test]
    fn matmul_tn_propagates_nan_and_inf_past_zero_rows() {
        // a^T has a zero at (0,0) pairing with the NaN in b's first row.
        let a = m(2, 2, &[0.0, 2.0, 1.0, 0.0]);
        let b_nan = m(2, 2, &[f32::NAN, 5.0, 6.0, 7.0]);
        let c = a.matmul_tn(&b_nan);
        assert!(c.get(0, 0).is_nan(), "0·NaN must propagate through matmul_tn");
        let b_inf = m(2, 2, &[f32::INFINITY, 5.0, 6.0, 7.0]);
        let c = a.matmul_tn(&b_inf);
        assert!(c.get(0, 0).is_nan(), "0·∞ is NaN through matmul_tn");
    }

    #[test]
    fn matmul_nt_propagates_nan_and_inf() {
        let a = m(1, 2, &[0.0, 1.0]);
        let b_nan = m(2, 2, &[f32::NAN, 5.0, 6.0, 7.0]);
        let c = a.matmul_nt(&b_nan);
        assert!(c.get(0, 0).is_nan(), "0·NaN must propagate through matmul_nt");
        let b_inf = m(2, 2, &[f32::INFINITY, 1.0, 2.0, 3.0]);
        let c = a.matmul_nt(&b_inf);
        assert!(c.get(0, 0).is_nan(), "0·∞ is NaN through matmul_nt");
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    fn dot_flat() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.dot_flat(&b), 70.0);
    }
}
