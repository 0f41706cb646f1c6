//! First-order optimizers.
//!
//! Optimizers drive any [`Params`] owner through [`Params::visit_params`]: state
//! (e.g. Adam moments) is keyed by visit order, which is stable for a given
//! model structure. The usual cycle is
//!
//! ```text
//! zero_grad(model); ...forward/backward...; optimizer.step(model);
//! ```

use metadpa_tensor::Matrix;

use crate::module::Params;
use crate::param::Param;

/// A first-order gradient optimizer.
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients of `module`.
    fn step(&mut self, module: &mut dyn Params);
}

/// Global L2 norm over every parameter gradient of `module`, in visit
/// order — the grad-norm tap shared by the optimizers' gauges and the
/// training-telemetry `train_epoch` records. Read-only: never touches
/// parameter values, so calling it cannot perturb training.
pub fn global_grad_norm(module: &mut dyn Params) -> f64 {
    let mut sq_norm = 0.0f64;
    module.visit_params(&mut |p| {
        let n = p.grad.frobenius_norm() as f64;
        sq_norm += n * n;
    });
    sq_norm.sqrt()
}

/// Plain stochastic gradient descent with optional L2 weight decay.
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr` and no weight decay.
    ///
    /// # Panics
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        Self::with_weight_decay(lr, 0.0)
    }

    /// Creates SGD with learning rate and L2 weight decay.
    ///
    /// # Panics
    /// Panics if `lr` is not positive or `weight_decay` is negative.
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "Sgd: learning rate must be positive, got {lr}");
        assert!(weight_decay >= 0.0, "Sgd: weight decay must be non-negative");
        Self { lr, weight_decay }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (used by schedules in the harness).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "Sgd::set_lr: learning rate must be positive");
        self.lr = lr;
    }

    /// Applies an SGD step to a single parameter (used by [`Embedding`]-style
    /// components that live outside the `Module` tree).
    ///
    /// [`Embedding`]: crate::Embedding
    pub fn step_param(&self, p: &mut Param) {
        if self.weight_decay > 0.0 {
            // Fused decay: v += (v * decay) * (-lr) in place, bit-identical
            // to the old scale-then-add_scaled pair without the temporary.
            let (decay, lr) = (self.weight_decay, self.lr);
            p.value.map_inplace(|v| v + (v * decay) * (-lr));
        }
        let lr = self.lr;
        p.value.add_scaled_inplace(&p.grad, -lr);
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, module: &mut dyn Params) {
        metadpa_obs::counter_add!("nn.optim.sgd.steps", 1u64);
        if metadpa_obs::enabled() {
            metadpa_obs::gauge_set!("nn.optim.sgd.grad_norm", global_grad_norm(module));
        }
        module.visit_params(&mut |p| self.step_param(p));
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// First/second moment estimates, keyed by parameter visit order.
    moments: Vec<(Matrix, Matrix)>,
    /// Global step counter (shared across parameters).
    t: u32,
}

impl Adam {
    /// Creates Adam with the conventional β₁=0.9, β₂=0.999, ε=1e-8.
    ///
    /// # Panics
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive, got {lr}");
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, moments: Vec::new(), t: 0 }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Resets moment estimates (e.g. when reusing an optimizer on a freshly
    /// restored parameter snapshot).
    pub fn reset_state(&mut self) {
        self.moments.clear();
        self.t = 0;
    }

    /// Advances and returns the global step counter. Callers driving
    /// parameters manually via [`Adam::step_param_slot`] call this once per
    /// optimization step and pass the returned value to every slot update.
    pub fn next_step(&mut self) -> u32 {
        self.t += 1;
        self.t
    }

    /// Applies an Adam update to a single parameter using the moment slot
    /// `slot` (callers outside the `Module` tree manage their own slots).
    pub fn step_param_slot(&mut self, p: &mut Param, slot: usize, t: u32) {
        while self.moments.len() <= slot {
            self.moments.push((Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
        }
        let (m, v) = &mut self.moments[slot];
        if m.shape() != p.value.shape() {
            *m = Matrix::zeros(p.value.rows(), p.value.cols());
            *v = Matrix::zeros(p.value.rows(), p.value.cols());
        }
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        let lr = self.lr;
        let eps = self.eps;
        // A zipped loop (no per-element bounds checks) so it vectorizes.
        // Keep each per-element expression as written: trained parameters
        // are pinned bitwise.
        let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
        for ((w, &g), (mi, vi)) in
            p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice()).zip(moments)
        {
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, module: &mut dyn Params) {
        metadpa_obs::counter_add!("nn.optim.adam.steps", 1u64);
        if metadpa_obs::enabled() {
            metadpa_obs::gauge_set!("nn.optim.adam.grad_norm", global_grad_norm(module));
        }
        self.t += 1;
        let t = self.t;
        // Collect updates by visit order. visit_params borrows self mutably
        // inside the closure, so stage the slot counter locally.
        let mut slot = 0usize;
        // Split borrow: temporarily move the moments vector out.
        let mut this = std::mem::replace(
            self,
            Adam {
                lr: self.lr,
                beta1: self.beta1,
                beta2: self.beta2,
                eps: self.eps,
                moments: Vec::new(),
                t,
            },
        );
        module.visit_params(&mut |p| {
            this.step_param_slot(p, slot, t);
            slot += 1;
        });
        *self = this;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::loss::mse;
    use crate::module::{zero_grad, Mode, Module};
    use metadpa_tensor::SeededRng;

    /// Trains y = 2x + 1 with a single Dense(1,1); both optimizers must
    /// drive the loss close to zero.
    fn fit_line(optimizer: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut rng = SeededRng::new(10);
        let mut layer = Dense::new(1, 1, &mut rng);
        let x = Matrix::from_vec(8, 1, (0..8).map(|v| v as f32 / 4.0).collect());
        let y = x.map(|v| 2.0 * v + 1.0);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            zero_grad(&mut layer);
            let pred = layer.forward(&x, Mode::Train);
            let (loss, grad) = mse(&pred, &y);
            let _ = layer.backward(&grad);
            optimizer.step(&mut layer);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_fits_a_line() {
        let mut opt = Sgd::new(0.3);
        let loss = fit_line(&mut opt, 500);
        assert!(loss < 1e-4, "final loss {loss}");
    }

    #[test]
    fn adam_fits_a_line() {
        let mut opt = Adam::new(0.05);
        let loss = fit_line(&mut opt, 500);
        assert!(loss < 1e-4, "final loss {loss}");
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut p = Param::new(Matrix::filled(1, 1, 1.0));
        // Zero gradient; only decay acts.
        let opt = Sgd::with_weight_decay(0.1, 0.5);
        opt.step_param(&mut p);
        assert!(p.value.get(0, 0) < 1.0);
        assert!((p.value.get(0, 0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With a constant gradient, Adam's bias-corrected first step is
        // exactly -lr * sign(g).
        let mut p = Param::new(Matrix::zeros(1, 1));
        p.grad.fill(3.0);
        let mut opt = Adam::new(0.01);
        opt.step_param_slot(&mut p, 0, 1);
        assert!((p.value.get(0, 0) + 0.01).abs() < 1e-5, "got {}", p.value.get(0, 0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn sgd_rejects_zero_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn adam_step_is_bitwise_the_indexed_formula() {
        // Pins the update against the original per-index loop over several
        // steps, with zero, tiny, huge and negative gradients in the mix.
        let mut rng = SeededRng::new(21);
        let shape = (37, 29);
        let mut p = Param::new(rng.normal_matrix(shape.0, shape.1));
        let (lr, b1, b2, eps) = (3e-3f32, 0.9f32, 0.999f32, 1e-8f32);
        let mut want = p.value.as_slice().to_vec();
        let (mut m, mut v) = (vec![0.0f32; want.len()], vec![0.0f32; want.len()]);
        let mut opt = Adam::new(lr);
        for t in 1..=5u32 {
            p.grad = rng.normal_matrix(shape.0, shape.1);
            let g = p.grad.as_mut_slice();
            g[0] = 0.0;
            g[1] = -0.0;
            g[2] = 1e-30;
            g[3] = 1e20;
            let g = p.grad.as_slice();
            let bias1 = 1.0 - b1.powi(t as i32);
            let bias2 = 1.0 - b2.powi(t as i32);
            for i in 0..want.len() {
                let mi = b1 * m[i] + (1.0 - b1) * g[i];
                let vi = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                m[i] = mi;
                v[i] = vi;
                let m_hat = mi / bias1;
                let v_hat = vi / bias2;
                want[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            opt.step_param_slot(&mut p, 0, t);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p.value.as_slice()), bits(&want), "step {t}");
            assert_eq!(bits(opt.moments[0].0.as_slice()), bits(&m), "first moment, step {t}");
            assert_eq!(bits(opt.moments[0].1.as_slice()), bits(&v), "second moment, step {t}");
        }
    }

    #[test]
    fn adam_reset_clears_moments() {
        let mut opt = Adam::new(0.01);
        let mut p = Param::new(Matrix::zeros(1, 1));
        p.grad.fill(1.0);
        opt.step_param_slot(&mut p, 0, 1);
        assert!(!opt.moments.is_empty());
        opt.reset_state();
        assert!(opt.moments.is_empty());
        assert_eq!(opt.t, 0);
    }
}
