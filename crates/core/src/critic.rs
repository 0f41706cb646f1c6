//! InfoNCE with learned projection heads — the critic used by the ME
//! constraint (Eq. 7).
//!
//! The ME constraint maximizes mutual information between the outputs of
//! the two decoders `D_s` and `D_t` of one Dual-CVAE, pulling the target
//! decoder toward the source domain's reconstruction patterns so that the
//! k Dual-CVAEs generate k *different* (diverse) rating vectors from the
//! same target content. The two decoder outputs live in different spaces
//! (source vs. target catalogues), so the plain dot-product InfoNCE of
//! `metadpa-nn` does not apply directly. Following standard InfoMax
//! practice (Hjelm et al. 2019), we estimate MI with a *bilinear critic*
//! factored through two learned linear projection heads:
//! `score(a, b) = (a U) (b V)ᵀ / τ`, trained jointly with the model.

use metadpa_nn::dense::Dense;
use metadpa_nn::infonce::InfoNce;
use metadpa_nn::module::{Mode, Module, Params};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

/// Result of a critic InfoNCE evaluation.
pub struct CriticResult {
    /// InfoNCE loss (a lower bound on `-I(a, b)` up to constants):
    /// minimizing it maximizes the MI estimate.
    pub loss: f32,
    /// Gradient with respect to the first input batch.
    pub grad_a: Matrix,
    /// Gradient with respect to the second input batch.
    pub grad_b: Matrix,
}

/// InfoNCE estimator with two learned projection heads, for inputs of
/// different dimensionality.
pub struct CriticInfoNce {
    head_a: Dense,
    head_b: Dense,
    nce: InfoNce,
}

impl CriticInfoNce {
    /// Creates a critic projecting `dim_a`- and `dim_b`-dimensional inputs
    /// into a shared `proj_dim`-dimensional space.
    pub fn new(
        dim_a: usize,
        dim_b: usize,
        proj_dim: usize,
        temperature: f32,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            head_a: Dense::new(dim_a, proj_dim, rng),
            head_b: Dense::new(dim_b, proj_dim, rng),
            nce: InfoNce::new(temperature),
        }
    }

    /// Evaluates the critic on aligned batches, accumulating head parameter
    /// gradients scaled by `weight` and returning input gradients (also
    /// scaled by `weight`).
    ///
    /// # Panics
    /// Panics if row counts differ or the batch has fewer than 2 rows.
    pub fn forward_backward(&mut self, a: &Matrix, b: &Matrix, weight: f32) -> CriticResult {
        assert_eq!(a.rows(), b.rows(), "CriticInfoNce: batch size mismatch");
        let pa = self.head_a.forward(a, Mode::Train);
        let pb = self.head_b.forward(b, Mode::Train);
        let r = self.nce.forward(&pa, &pb);
        let grad_a = self.head_a.backward(&r.grad_a.scale(weight));
        let grad_b = self.head_b.backward(&r.grad_b.scale(weight));
        CriticResult { loss: r.loss, grad_a, grad_b }
    }

    /// Loss-only evaluation (no gradients, no cache mutation side effects
    /// that matter — used for monitoring).
    pub fn loss(&mut self, a: &Matrix, b: &Matrix) -> f32 {
        let pa = self.head_a.forward(a, Mode::Eval);
        let pb = self.head_b.forward(b, Mode::Eval);
        self.nce.forward(&pa, &pb).loss
    }
}

impl Params for CriticInfoNce {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.head_a.visit_params(visitor);
        self.head_b.visit_params(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_nn::module::zero_grad;
    use metadpa_nn::optim::{Adam, Optimizer};

    #[test]
    fn shapes_and_gradients_flow() {
        let mut rng = SeededRng::new(1);
        let mut critic = CriticInfoNce::new(10, 6, 4, 0.5, &mut rng);
        let a = rng.normal_matrix(5, 10);
        let b = rng.normal_matrix(5, 6);
        let r = critic.forward_backward(&a, &b, 1.0);
        assert_eq!(r.grad_a.shape(), (5, 10));
        assert_eq!(r.grad_b.shape(), (5, 6));
        assert!(r.loss.is_finite());
        let mut total = 0.0;
        critic.visit_params(&mut |p| total += p.grad.frobenius_norm());
        assert!(total > 0.0, "heads must receive gradients");
    }

    #[test]
    fn weight_scales_gradients_linearly() {
        let mut rng = SeededRng::new(2);
        let mut critic = CriticInfoNce::new(8, 8, 4, 0.5, &mut rng);
        let a = rng.normal_matrix(4, 8);
        let b = rng.normal_matrix(4, 8);
        zero_grad(&mut critic);
        let r1 = critic.forward_backward(&a, &b, 1.0);
        zero_grad(&mut critic);
        let r2 = critic.forward_backward(&a, &b, 2.0);
        for (g1, g2) in r1.grad_a.as_slice().iter().zip(r2.grad_a.as_slice().iter()) {
            assert!((2.0 * g1 - g2).abs() < 1e-5 * (1.0 + g2.abs()));
        }
        assert!((r1.loss - r2.loss).abs() < 1e-6, "loss itself is unweighted");
    }

    #[test]
    fn descending_aligns_correlated_batches() {
        // Inputs: b is a (noisy) linear function of a. Jointly training the
        // heads and descending the input gradients on a learnable copy
        // should reduce the loss — the MI estimate improves.
        let mut rng = SeededRng::new(3);
        let mut critic = CriticInfoNce::new(6, 6, 4, 0.3, &mut rng);
        let a = rng.normal_matrix(8, 6);
        let b = &a.scale(0.9) + &rng.normal_matrix(8, 6).scale(0.1);
        let mut opt = Adam::new(0.02);
        let first = critic.loss(&a, &b);
        for _ in 0..80 {
            zero_grad(&mut critic);
            let _ = critic.forward_backward(&a, &b, 1.0);
            opt.step(&mut critic);
        }
        let last = critic.loss(&a, &b);
        assert!(last < first, "critic training should tighten the bound: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn rejects_mismatched_batches() {
        let mut rng = SeededRng::new(4);
        let mut critic = CriticInfoNce::new(4, 4, 2, 0.5, &mut rng);
        let a = rng.normal_matrix(3, 4);
        let b = rng.normal_matrix(4, 4);
        let _ = critic.forward_backward(&a, &b, 1.0);
    }
}
