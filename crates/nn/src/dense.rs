//! Fully connected (affine) layer.

use metadpa_tensor::{Matrix, SeededRng};

use crate::init::xavier_uniform;
use crate::module::{Mode, Module};
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

    /// `dW += x^T g`, `db += Σ_rows g` for the last forward's input `x`: the
    /// same zeroed-product-then-add sequence as [`Module::backward`], but
    /// into the layer workspace instead of fresh matrices.
    fn accumulate_param_grads(&mut self, grad_output: &Matrix) {
        let Self { weight, bias, cached_input, ws_dw, ws_db } = self;
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

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
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
