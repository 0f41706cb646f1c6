//! Convenience builder for the multi-layer perceptrons used throughout the
//! paper (CVAE encoder/decoder stacks, the preference prediction model of
//! Eq. 11, and several baseline towers).

use metadpa_tensor::{Matrix, SeededRng};

use crate::activation::Relu;
use crate::dense::Dense;
use crate::module::{Mode, Module, Params};
use crate::param::Param;
use crate::sequential::Sequential;

/// Hidden activation choice for [`Mlp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// ReLU hidden units (the preference model default).
    Relu,
    /// Tanh hidden units (the CVAE encoder default, following HCVAE).
    Tanh,
    /// Sigmoid hidden units.
    Sigmoid,
}

/// A feed-forward network: `Dense -> act -> ... -> Dense`, with a *linear*
/// final layer so callers can attach the output nonlinearity that matches
/// their loss (e.g. `bce_with_logits`, softmax, or a VAE split head).
pub struct Mlp {
    net: Sequential,
    in_dim: usize,
    out_dim: usize,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `&[64, 32, 16, 1]`
    /// gives `Dense(64,32) -> act -> Dense(32,16) -> act -> Dense(16,1)`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], activation: Activation, rng: &mut SeededRng) -> Self {
        assert!(sizes.len() >= 2, "Mlp::new: need at least input and output sizes");
        let mut net = Sequential::new();
        for w in sizes.windows(2).enumerate() {
            let (idx, pair) = w;
            net.add(Box::new(Dense::new(pair[0], pair[1], rng)));
            let is_last = idx == sizes.len() - 2;
            if !is_last {
                match activation {
                    Activation::Relu => net.add(Box::new(Relu::new())),
                    Activation::Tanh => net.add(Box::new(crate::activation::Tanh::new())),
                    Activation::Sigmoid => net.add(Box::new(crate::activation::Sigmoid::new())),
                }
            }
        }
        Self { net, in_dim: sizes[0], out_dim: *sizes.last().expect("non-empty sizes") }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Params for Mlp {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(visitor);
    }
}

impl Module for Mlp {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        self.net.forward(input, mode)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.net.backward(grad_output)
    }

    fn forward_into(&mut self, input: &mut Matrix, mode: Mode, out: &mut Matrix) {
        self.net.forward_into(input, mode, out);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        self.net.backward_into(grad_output, out);
    }

    fn backward_params(&mut self, grad_output: &mut Matrix, scratch: &mut Matrix) {
        self.net.backward_params(grad_output, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::module::zero_grad;
    use crate::optim::{Adam, Optimizer};

    #[test]
    fn shapes_flow_through() {
        let mut rng = SeededRng::new(1);
        let mut mlp = Mlp::new(&[8, 16, 4], Activation::Relu, &mut rng);
        let x = rng.normal_matrix(5, 8);
        let y = mlp.forward(&x, Mode::Train);
        assert_eq!(y.shape(), (5, 4));
        let dx = mlp.backward(&Matrix::zeros(5, 4));
        assert_eq!(dx.shape(), (5, 8));
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 4);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = SeededRng::new(2);
        let mut mlp = Mlp::new(&[4, 3, 2], Activation::Tanh, &mut rng);
        // (4*3+3) + (3*2+2) = 15 + 8 = 23.
        assert_eq!(mlp.param_count(), 23);
    }

    #[test]
    fn learns_xor_like_nonlinear_function() {
        // y = x0 * x1 on {-1, 1}^2 is not linearly separable; a small MLP
        // must fit it, demonstrating end-to-end backprop through hidden
        // layers.
        let mut rng = SeededRng::new(3);
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![-1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![1.0, -1.0, -1.0, 1.0]);
        let mut opt = Adam::new(0.02);
        let mut final_loss = f32::INFINITY;
        for _ in 0..800 {
            zero_grad(&mut mlp);
            let pred = mlp.forward(&x, Mode::Train);
            let (loss, grad) = mse(&pred, &y);
            let _ = mlp.backward(&grad);
            opt.step(&mut mlp);
            final_loss = loss;
        }
        assert!(final_loss < 1e-2, "XOR loss {final_loss}");
    }

    #[test]
    #[should_panic(expected = "need at least input and output")]
    fn rejects_single_size() {
        let mut rng = SeededRng::new(4);
        let _ = Mlp::new(&[4], Activation::Relu, &mut rng);
    }
}
