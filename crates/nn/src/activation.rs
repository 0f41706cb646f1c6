//! Elementwise and row-wise activation layers.
//!
//! The paper's networks use ReLU in hidden layers, sigmoid for implicit
//! feedback outputs, tanh in the CVAE encoders (following HCVAE), and a
//! row-wise softmax on the decoder output layer (§IV-A: "we employ the
//! softmax function as the activation function in the output layer").

use metadpa_tensor::Matrix;

use crate::module::{Mode, Module, Params};
use crate::param::Param;

/// Rectified linear unit, `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    cached_input: Option<Matrix>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Params for Relu {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Relu {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        match &mut self.cached_input {
            Some(cache) => cache.assign(input),
            None => self.cached_input = Some(input.clone()),
        }
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cached_input.as_ref().expect("Relu::backward called before forward");
        input.zip_map(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn forward_into(&mut self, input: &mut Matrix, _mode: Mode, out: &mut Matrix) {
        input.map_into(|v| v.max(0.0), out);
        std::mem::swap(self.cached_input.get_or_insert_with(Matrix::default), input);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let input = self.cached_input.as_ref().expect("Relu::backward called before forward");
        input.zip_map_into(grad_output, |x, g| if x > 0.0 { g } else { 0.0 }, out);
    }
}

/// Leaky rectified linear unit with a configurable negative slope.
pub struct LeakyRelu {
    slope: f32,
    cached_input: Option<Matrix>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU; `slope` is the gradient for negative inputs.
    pub fn new(slope: f32) -> Self {
        Self { slope, cached_input: None }
    }
}

impl Params for LeakyRelu {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

impl Module for LeakyRelu {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        match &mut self.cached_input {
            Some(cache) => cache.assign(input),
            None => self.cached_input = Some(input.clone()),
        }
        let s = self.slope;
        input.map(|v| if v > 0.0 { v } else { s * v })
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cached_input.as_ref().expect("LeakyRelu::backward called before forward");
        let s = self.slope;
        input.zip_map(grad_output, |x, g| if x > 0.0 { g } else { s * g })
    }

    fn forward_into(&mut self, input: &mut Matrix, _mode: Mode, out: &mut Matrix) {
        let s = self.slope;
        input.map_into(|v| if v > 0.0 { v } else { s * v }, out);
        std::mem::swap(self.cached_input.get_or_insert_with(Matrix::default), input);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let input = self.cached_input.as_ref().expect("LeakyRelu::backward called before forward");
        let s = self.slope;
        input.zip_map_into(grad_output, |x, g| if x > 0.0 { g } else { s * g }, out);
    }
}

/// Logistic sigmoid, `1 / (1 + e^-x)`.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Matrix>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Numerically stable scalar sigmoid, exposed for loss implementations.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Params for Sigmoid {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Sigmoid {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        let out = input.map(sigmoid);
        match &mut self.cached_output {
            Some(cache) => cache.assign(&out),
            None => self.cached_output = Some(out.clone()),
        }
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let out = self.cached_output.as_ref().expect("Sigmoid::backward called before forward");
        out.zip_map(grad_output, |y, g| y * (1.0 - y) * g)
    }

    fn forward_into(&mut self, input: &mut Matrix, _mode: Mode, out: &mut Matrix) {
        input.map_into(sigmoid, out);
        self.cached_output.get_or_insert_with(Matrix::default).assign(out);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let y = self.cached_output.as_ref().expect("Sigmoid::backward called before forward");
        y.zip_map_into(grad_output, |y, g| y * (1.0 - y) * g, out);
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Matrix>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Params for Tanh {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Tanh {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        let out = input.map(f32::tanh);
        match &mut self.cached_output {
            Some(cache) => cache.assign(&out),
            None => self.cached_output = Some(out.clone()),
        }
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let out = self.cached_output.as_ref().expect("Tanh::backward called before forward");
        out.zip_map(grad_output, |y, g| (1.0 - y * y) * g)
    }

    fn forward_into(&mut self, input: &mut Matrix, _mode: Mode, out: &mut Matrix) {
        input.map_into(f32::tanh, out);
        self.cached_output.get_or_insert_with(Matrix::default).assign(out);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let y = self.cached_output.as_ref().expect("Tanh::backward called before forward");
        y.zip_map_into(grad_output, |y, g| (1.0 - y * y) * g, out);
    }
}

/// Row-wise softmax.
///
/// Each row of the input is normalized independently:
/// `y_ij = exp(x_ij) / Σ_k exp(x_ik)` (computed with the max-subtraction
/// trick for stability).
#[derive(Default)]
pub struct Softmax {
    cached_output: Option<Matrix>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Row-wise softmax as a free function (used by InfoNCE and tests).
pub fn softmax_rows(input: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    softmax_rows_into(input, &mut out);
    out
}

/// Row-wise softmax into a caller-owned buffer — the zero-allocation twin of
/// [`softmax_rows`], bit-identical to it.
pub fn softmax_rows_into(input: &Matrix, out: &mut Matrix) {
    out.assign(input);
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut total = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            total += *v;
        }
        let inv = 1.0 / total;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

impl Params for Softmax {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Softmax {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        let out = softmax_rows(input);
        match &mut self.cached_output {
            Some(cache) => cache.assign(&out),
            None => self.cached_output = Some(out.clone()),
        }
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let y = self.cached_output.as_ref().expect("Softmax::backward called before forward");
        // dx_i = y_i * (g_i - Σ_j g_j y_j), row-wise.
        let mut out = Matrix::zeros(y.rows(), y.cols());
        for r in 0..y.rows() {
            let yr = y.row(r);
            let gr = grad_output.row(r);
            let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
            for ((o, &yv), &gv) in out.row_mut(r).iter_mut().zip(yr.iter()).zip(gr.iter()) {
                *o = yv * (gv - dot);
            }
        }
        out
    }

    fn forward_into(&mut self, input: &mut Matrix, _mode: Mode, out: &mut Matrix) {
        softmax_rows_into(input, out);
        self.cached_output.get_or_insert_with(Matrix::default).assign(out);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let y = self.cached_output.as_ref().expect("Softmax::backward called before forward");
        // Seed `out` with y, then rescale rows in place: o = y * (g - g·y).
        out.assign(y);
        for r in 0..out.rows() {
            let dot: f32 = y.row(r).iter().zip(grad_output.row(r)).map(|(&a, &b)| a * b).sum();
            for (o, &gv) in out.row_mut(r).iter_mut().zip(grad_output.row(r)) {
                *o *= gv - dot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_gates_gradient() {
        let mut layer = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.5, 2.0]);
        let y = layer.forward(&x, Mode::Train);
        assert_eq!(y, Matrix::from_vec(1, 4, vec![0.0, 0.0, 0.5, 2.0]));
        let g = Matrix::filled(1, 4, 1.0);
        let dx = layer.backward(&g);
        assert_eq!(dx, Matrix::from_vec(1, 4, vec![0.0, 0.0, 1.0, 1.0]));
    }

    #[test]
    fn leaky_relu_passes_scaled_negative() {
        let mut layer = LeakyRelu::new(0.1);
        let x = Matrix::from_vec(1, 2, vec![-1.0, 1.0]);
        let y = layer.forward(&x, Mode::Train);
        assert_eq!(y, Matrix::from_vec(1, 2, vec![-0.1, 1.0]));
        let dx = layer.backward(&Matrix::filled(1, 2, 2.0));
        assert_eq!(dx, Matrix::from_vec(1, 2, vec![0.2, 2.0]));
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let mut layer = Sigmoid::new();
        let x = Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]);
        let y = layer.forward(&x, Mode::Eval);
        assert!(y.get(0, 0) < 1e-6);
        assert!((y.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(y.get(0, 2) > 1.0 - 1e-6);
        assert!(y.all_finite());
    }

    #[test]
    fn stable_sigmoid_matches_naive_in_safe_range() {
        for x in [-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let naive = 1.0 / (1.0 + (-x).exp());
            assert!((sigmoid(x) - naive).abs() < 1e-6);
        }
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut layer = Tanh::new();
        let _ = layer.forward(&Matrix::zeros(1, 1), Mode::Train);
        let dx = layer.backward(&Matrix::filled(1, 1, 1.0));
        assert!((dx.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_handle_large_inputs() {
        let x = Matrix::from_vec(2, 3, vec![1000.0, 1000.0, 1000.0, 1.0, 2.0, 3.0]);
        let y = softmax_rows(&x);
        assert!(y.all_finite());
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!((y.get(0, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert!(y.get(1, 2) > y.get(1, 1) && y.get(1, 1) > y.get(1, 0));
    }

    #[test]
    fn softmax_backward_is_orthogonal_to_ones() {
        // Softmax outputs sum to 1, so the Jacobian maps the all-ones
        // upstream gradient to zero.
        let mut layer = Softmax::new();
        let x = Matrix::from_vec(1, 4, vec![0.3, -1.2, 2.0, 0.7]);
        let _ = layer.forward(&x, Mode::Train);
        let dx = layer.backward(&Matrix::filled(1, 4, 1.0));
        assert!(dx.as_slice().iter().all(|v| v.abs() < 1e-6));
    }
}
