//! Fully connected (affine) layer.

use metadpa_tensor::simd::{self, Policy};
use metadpa_tensor::{Matrix, SeededRng};

use crate::init::xavier_uniform;
use crate::module::{Mode, Module, Params};
use crate::param::Param;

/// A fully connected layer computing `y = x W + b`.
///
/// * `W` has shape `in_dim x out_dim`, initialized Xavier-uniform.
/// * `b` has shape `1 x out_dim`, initialized to zero.
///
/// The backward pass accumulates `dW = x^T g`, `db = Σ_rows g` and returns
/// `dx = g W^T`; [`Module::backward_params`] skips `dx`.
pub struct Dense {
    weight: Param,
    bias: Param,
    /// Input cached by the last forward pass. The buffer is retained across
    /// steps: `forward` copies into it, `forward_into` steals the caller's
    /// buffer outright (ownership handoff instead of a clone).
    cached_input: Option<Matrix>,
    /// Workspace for `backward_into`: dW/db must be computed into a zeroed
    /// scratch and then added to the accumulators so the per-element
    /// addition order matches `backward` bit for bit.
    ws_dw: Matrix,
    ws_db: Matrix,
    /// Workspace for [`Dense::forward_tiled_into`]: the first input row and
    /// its output row.
    ws_row_in: Matrix,
    ws_row_out: Matrix,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        Self {
            weight: Param::new(xavier_uniform(in_dim, out_dim, rng)),
            bias: Param::zeros(1, out_dim),
            cached_input: None,
            ws_dw: Matrix::default(),
            ws_db: Matrix::default(),
            ws_row_in: Matrix::default(),
            ws_row_out: Matrix::default(),
        }
    }

    /// Creates a layer from explicit weight and bias matrices (for tests).
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(
            (1, weight.cols()),
            bias.shape(),
            "Dense::from_parts: bias must be 1x{}",
            weight.cols()
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
            ws_dw: Matrix::default(),
            ws_db: Matrix::default(),
            ws_row_in: Matrix::default(),
            ws_row_out: Matrix::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Immutable access to the weight parameter (for inspection in tests).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// [`Module::forward_into`] for an input whose rows are all equal, such
    /// as one user's content row tiled across a batch of candidates. The
    /// product runs on the first row only and its result is copied to every
    /// output row. Each kernel computes an output row from its own input
    /// row alone, so this is bit-identical to the full product. The whole
    /// tiled input is still cached, so the next backward pass (and its
    /// `dW = x^T g`) is unchanged.
    ///
    /// Under [`Policy::Fused`] this runs the full product instead: a wide
    /// batch would take the fused blocked kernels there, while a single row
    /// stays on the exact naive one, and the two round differently.
    ///
    /// The caller guarantees the rows are equal; nothing here checks it.
    pub fn forward_tiled_into(&mut self, input: &mut Matrix, out: &mut Matrix) {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Dense::forward: input dim {} does not match layer in_dim {}",
            input.cols(),
            self.in_dim()
        );
        let rows = input.rows();
        if rows == 0 || simd::current_policy() == Policy::Fused {
            self.forward_into(input, Mode::Eval, out);
            return;
        }
        let Self { weight, bias, cached_input, ws_row_in, ws_row_out, .. } = self;
        ws_row_in.resize_for_overwrite(1, input.cols());
        ws_row_in.row_mut(0).copy_from_slice(input.row(0));
        ws_row_in.matmul_into(&weight.value, ws_row_out);
        ws_row_out.add_row_broadcast_inplace(&bias.value);
        out.resize_for_overwrite(rows, ws_row_out.cols());
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(ws_row_out.row(0));
        }
        std::mem::swap(cached_input.get_or_insert_with(Matrix::default), input);
    }

    /// `dW += x^T g`, `db += Σ_rows g` for the last forward's input `x`: the
    /// same zeroed-product-then-add sequence as [`Module::backward`], but
    /// into the layer workspace instead of fresh matrices.
    fn accumulate_param_grads(&mut self, grad_output: &Matrix) {
        let Self { weight, bias, cached_input, ws_dw, ws_db, .. } = self;
        let input = cached_input.as_ref().expect("Dense::backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (input.rows(), weight.value.cols()),
            "Dense::backward: grad shape {:?} does not match output shape {:?}",
            grad_output.shape(),
            (input.rows(), weight.value.cols())
        );
        input.matmul_tn_into(grad_output, ws_dw);
        weight.grad.add_inplace(ws_dw);
        grad_output.sum_rows_into(ws_db);
        bias.grad.add_inplace(ws_db);
    }
}

impl Params for Dense {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

impl Module for Dense {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Dense::forward: input dim {} does not match layer in_dim {}",
            input.cols(),
            self.in_dim()
        );
        let mut out = input.matmul(&self.weight.value);
        out.add_row_broadcast_inplace(&self.bias.value);
        match &mut self.cached_input {
            Some(cache) => cache.assign(input),
            None => self.cached_input = Some(input.clone()),
        }
        out
    }

    fn forward_into(&mut self, input: &mut Matrix, _mode: Mode, out: &mut Matrix) {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Dense::forward: input dim {} does not match layer in_dim {}",
            input.cols(),
            self.in_dim()
        );
        input.matmul_into(&self.weight.value, out);
        out.add_row_broadcast_inplace(&self.bias.value);
        // Ownership handoff: steal the caller's buffer for the activation
        // cache (the trait declares `input` dead after the call) and give
        // the previous cache back as the caller's scratch.
        std::mem::swap(self.cached_input.get_or_insert_with(Matrix::default), input);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cached_input.as_ref().expect("Dense::backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (input.rows(), self.out_dim()),
            "Dense::backward: grad shape {:?} does not match output shape {:?}",
            grad_output.shape(),
            (input.rows(), self.out_dim())
        );
        // dW += x^T g  (fused transpose product).
        self.weight.grad.add_inplace(&input.matmul_tn(grad_output));
        // db += column sums of g.
        self.bias.grad.add_inplace(&grad_output.sum_rows());
        // dx = g W^T.
        grad_output.matmul_nt(&self.weight.value)
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        self.accumulate_param_grads(grad_output);
        grad_output.matmul_nt_into(&self.weight.value, out);
    }

    fn backward_params(&mut self, grad_output: &mut Matrix, _scratch: &mut Matrix) {
        self.accumulate_param_grads(grad_output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::row_vector(&[0.5, -0.5]);
        let mut layer = Dense::from_parts(w, b);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x, Mode::Train);
        assert_eq!(y, Matrix::from_vec(1, 2, vec![4.5, 5.5]));
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let w = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        let b = Matrix::row_vector(&[0.0]);
        let mut layer = Dense::from_parts(w, b);
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let _ = layer.forward(&x, Mode::Train);
        let g = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        let dx = layer.backward(&g);
        // dW = x^T g = [[4], [6]]; db = [2]; dx = g W^T = [[1,1],[1,1]].
        assert_eq!(layer.weight().grad, Matrix::from_vec(2, 1, vec![4.0, 6.0]));
        assert_eq!(layer.bias().grad, Matrix::row_vector(&[2.0]));
        assert_eq!(dx, Matrix::from_vec(2, 2, vec![1.0; 4]));
        // A second backward accumulates.
        let _ = layer.forward(&x, Mode::Train);
        let _ = layer.backward(&g);
        assert_eq!(layer.weight().grad, Matrix::from_vec(2, 1, vec![8.0, 12.0]));
    }

    #[test]
    fn tiled_forward_matches_the_full_product_bitwise() {
        // One row tiled m times: the broadcast forward must reproduce the
        // full product's bits and leave the same cache for backward, at
        // every dispatch path the row count reaches.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SeededRng::new(9);
        let mut full = Dense::new(48, 32, &mut rng);
        let mut tiled = Dense::from_parts(full.weight().value.clone(), full.bias().value.clone());
        let mut row = rng.normal_matrix(1, 48);
        row.as_mut_slice()[3] = 0.0;
        row.as_mut_slice()[5] = -0.0;
        for policy in [Policy::ForcedScalar, Policy::Auto, Policy::Fused] {
            for m in [0usize, 1, 2, 23, 100, 700] {
                simd::with_policy(policy, || {
                    let input = Matrix::from_fn(m, 48, |_, c| row.get(0, c));
                    let (mut y_full, mut y_tiled) = (Matrix::default(), Matrix::default());
                    full.forward_into(&mut input.clone(), Mode::Train, &mut y_full);
                    tiled.forward_tiled_into(&mut input.clone(), &mut y_tiled);
                    assert_eq!(y_full.shape(), y_tiled.shape(), "m={m} {policy:?}");
                    assert_eq!(bits(&y_full), bits(&y_tiled), "m={m} {policy:?}");
                    let g = rng.normal_matrix(m, 32);
                    let dx_full = full.backward(&g);
                    let dx_tiled = tiled.backward(&g);
                    assert_eq!(bits(&dx_full), bits(&dx_tiled), "m={m} {policy:?}");
                    assert_eq!(bits(&full.weight().grad), bits(&tiled.weight().grad));
                    assert_eq!(bits(&full.bias().grad), bits(&tiled.bias().grad));
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "input dim")]
    fn forward_rejects_wrong_input_dim() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 4), Mode::Train);
    }
}
