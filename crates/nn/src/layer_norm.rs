//! Layer normalization (Ba et al., 2016).
//!
//! Normalizes each row of the input to zero mean and unit variance, then
//! applies a learned affine transform `y = γ ⊙ x̂ + β`. Useful ahead of the
//! deeper baseline towers and available to downstream users of the
//! substrate; the backward pass is hand-derived and covered by the crate's
//! gradient-check tests.

use metadpa_tensor::Matrix;

use crate::module::{Mode, Module, Params};
use crate::param::Param;

/// Per-row layer normalization with learned gain and bias.
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    /// Cached normalized input and per-row inverse std from the last
    /// forward pass.
    cache: Option<(Matrix, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a layer over `dim`-wide rows with γ = 1, β = 0.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::filled(1, dim, 1.0)),
            beta: Param::zeros(1, dim),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Normalized width.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }
}

impl Params for LayerNorm {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }
}

impl Module for LayerNorm {
    fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
        assert_eq!(
            input.cols(),
            self.dim(),
            "LayerNorm::forward: input width {} != {}",
            input.cols(),
            self.dim()
        );
        let d = input.cols() as f32;
        let mut normalized = Matrix::zeros(input.rows(), input.cols());
        let mut inv_stds = Vec::with_capacity(input.rows());
        let mut out = Matrix::zeros(input.rows(), input.cols());
        for r in 0..input.rows() {
            let row = input.row(r);
            let mean = row.iter().sum::<f32>() / d;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            for (c, &v) in row.iter().enumerate() {
                let xhat = (v - mean) * inv_std;
                normalized.set(r, c, xhat);
                out.set(r, c, xhat * self.gamma.value.get(0, c) + self.beta.value.get(0, c));
            }
        }
        self.cache = Some((normalized, inv_stds));
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let (xhat, inv_stds) =
            self.cache.as_ref().expect("LayerNorm::backward called before forward");
        let d = xhat.cols() as f32;
        let mut dx = Matrix::zeros(xhat.rows(), xhat.cols());
        for (r, &inv_std) in inv_stds.iter().enumerate() {
            // dβ and dγ accumulate per column.
            let g_row = grad_output.row(r);
            let x_row = xhat.row(r);
            // dL/dxhat = g ⊙ γ.
            let dxhat: Vec<f32> =
                g_row.iter().enumerate().map(|(c, &g)| g * self.gamma.value.get(0, c)).collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(x_row.iter()).map(|(&a, &b)| a * b).sum();
            for c in 0..xhat.cols() {
                // Standard LayerNorm backward:
                // dx = (1/σ) * (dxhat - mean(dxhat) - xhat * mean(dxhat ⊙ xhat))
                let v = inv_std * (dxhat[c] - sum_dxhat / d - x_row[c] * sum_dxhat_xhat / d);
                dx.set(r, c, v);
                // Parameter grads.
                let gg = self.gamma.grad.get(0, c) + g_row[c] * x_row[c];
                self.gamma.grad.set(0, c, gg);
                let gb = self.beta.grad.get(0, c) + g_row[c];
                self.beta.grad.set(0, c, gb);
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_module;
    use metadpa_tensor::SeededRng;

    #[test]
    fn output_rows_are_normalized_with_default_affine() {
        let mut ln = LayerNorm::new(6);
        let mut rng = SeededRng::new(1);
        let x = rng.normal_matrix(4, 6).scale(3.0);
        let y = ln.forward(&x, Mode::Train);
        for r in 0..4 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 6.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn gradients_verify_numerically() {
        let mut ln = LayerNorm::new(5);
        let mut rng = SeededRng::new(2);
        // Move gamma/beta off their defaults so their grads are nontrivial.
        ln.visit_params(&mut |p| p.value.map_inplace(|v| v + 0.3));
        let x = rng.normal_matrix(3, 5);
        let upstream = rng.normal_matrix(3, 5);
        let report = check_module(&mut ln, &x, &upstream, 1e-2);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn scale_invariance_of_input() {
        // LayerNorm(x) == LayerNorm(a * x) for a > 0 (up to eps effects).
        let mut ln = LayerNorm::new(4);
        let mut rng = SeededRng::new(3);
        let x = rng.normal_matrix(2, 4);
        let y1 = ln.forward(&x, Mode::Eval);
        let y2 = ln.forward(&x.scale(10.0), Mode::Eval);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice().iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn rejects_wrong_width() {
        let mut ln = LayerNorm::new(4);
        let _ = ln.forward(&Matrix::zeros(1, 5), Mode::Train);
    }
}
