//! Learning-rate schedules and gradient clipping.
//!
//! The experiment schedules in this reproduction are short enough that the
//! paper-faithful runs use constant learning rates, but the substrate
//! offers the standard tools for longer runs: step decay, cosine
//! annealing, linear warmup, and global-norm gradient clipping (useful
//! when the Dual-CVAE objective's InfoNCE terms spike early in training).

use crate::module::Params;

/// A learning-rate schedule: maps a 0-based step index to a rate.
pub trait LrSchedule {
    /// Learning rate to use at `step`.
    fn lr_at(&self, step: usize) -> f32;
}

/// Constant rate.
#[derive(Clone, Copy, Debug)]
pub struct Constant(pub f32);

impl LrSchedule for Constant {
    fn lr_at(&self, _step: usize) -> f32 {
        self.0
    }
}

/// Multiplies the base rate by `factor` every `every` steps.
#[derive(Clone, Copy, Debug)]
pub struct StepDecay {
    /// Initial learning rate.
    pub base: f32,
    /// Multiplier applied at each boundary.
    pub factor: f32,
    /// Steps between decays.
    pub every: usize,
}

impl LrSchedule for StepDecay {
    fn lr_at(&self, step: usize) -> f32 {
        assert!(self.every > 0, "StepDecay: `every` must be positive");
        self.base * self.factor.powi((step / self.every) as i32)
    }
}

/// Cosine annealing from `base` to `floor` over `total_steps`, constant at
/// `floor` afterwards.
#[derive(Clone, Copy, Debug)]
pub struct CosineAnnealing {
    /// Initial learning rate.
    pub base: f32,
    /// Final learning rate.
    pub floor: f32,
    /// Steps over which to anneal.
    pub total_steps: usize,
}

impl LrSchedule for CosineAnnealing {
    fn lr_at(&self, step: usize) -> f32 {
        if self.total_steps == 0 || step >= self.total_steps {
            return self.floor;
        }
        let progress = step as f32 / self.total_steps as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.floor + (self.base - self.floor) * cos
    }
}

/// Linear warmup from 0 to `base` over `warmup_steps`, then delegates to
/// the inner schedule (with the warmup offset removed).
pub struct Warmup<S: LrSchedule> {
    /// Steps of linear warmup.
    pub warmup_steps: usize,
    /// Peak rate reached at the end of warmup.
    pub base: f32,
    /// Schedule used after warmup.
    pub inner: S,
}

impl<S: LrSchedule> LrSchedule for Warmup<S> {
    fn lr_at(&self, step: usize) -> f32 {
        if step < self.warmup_steps {
            self.base * (step + 1) as f32 / self.warmup_steps as f32
        } else {
            self.inner.lr_at(step - self.warmup_steps)
        }
    }
}

/// Scales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
///
/// # Panics
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(module: &mut dyn Params, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
    let mut total_sq = 0.0f64;
    module.visit_params(&mut |p| {
        total_sq += p.grad.as_slice().iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>();
    });
    let norm = (total_sq as f32).sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        module.visit_params(&mut |p| p.grad.map_inplace(|g| g * scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use metadpa_tensor::SeededRng;

    #[test]
    fn constant_is_constant() {
        let s = Constant(0.1);
        assert_eq!(s.lr_at(0), 0.1);
        assert_eq!(s.lr_at(1000), 0.1);
    }

    #[test]
    fn step_decay_halves_at_boundaries() {
        let s = StepDecay { base: 1.0, factor: 0.5, every: 10 };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(25), 0.25);
    }

    #[test]
    fn cosine_endpoints_and_monotonicity() {
        let s = CosineAnnealing { base: 1.0, floor: 0.1, total_steps: 100 };
        assert!((s.lr_at(0) - 1.0).abs() < 1e-6);
        assert!((s.lr_at(100) - 0.1).abs() < 1e-6);
        assert!((s.lr_at(10_000) - 0.1).abs() < 1e-6);
        let mut last = f32::INFINITY;
        for step in 0..=100 {
            let lr = s.lr_at(step);
            assert!(lr <= last + 1e-6, "cosine must not increase");
            last = lr;
        }
    }

    #[test]
    fn warmup_ramps_then_delegates() {
        let s = Warmup { warmup_steps: 10, base: 1.0, inner: Constant(1.0) };
        assert!(s.lr_at(0) <= 0.11);
        assert!(s.lr_at(4) < s.lr_at(9));
        assert_eq!(s.lr_at(10), 1.0);
        assert_eq!(s.lr_at(50), 1.0);
    }

    #[test]
    fn clipping_bounds_the_global_norm() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(4, 4, &mut rng);
        layer.visit_params(&mut |p| p.grad.fill(10.0));
        let pre = clip_grad_norm(&mut layer, 1.0);
        assert!(pre > 1.0);
        let mut post_sq = 0.0f32;
        layer.visit_params(&mut |p| {
            post_sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
        });
        assert!((post_sq.sqrt() - 1.0).abs() < 1e-4, "post norm {}", post_sq.sqrt());
    }

    #[test]
    fn clipping_is_noop_below_threshold() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.visit_params(&mut |p| p.grad.fill(1e-4));
        let before: Vec<f32> = {
            let mut v = Vec::new();
            layer.visit_params(&mut |p| v.extend_from_slice(p.grad.as_slice()));
            v
        };
        let _ = clip_grad_norm(&mut layer, 10.0);
        let mut after = Vec::new();
        layer.visit_params(&mut |p| after.extend_from_slice(p.grad.as_slice()));
        assert_eq!(before, after);
    }
}
