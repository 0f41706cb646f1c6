//! Inverted dropout.

use metadpa_tensor::{Matrix, SeededRng};

use crate::module::{Mode, Module, Params};
use crate::param::Param;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)` so the expected
/// activation is unchanged; during evaluation the layer is the identity.
///
/// The layer owns its RNG (forked from the model seed) so dropout masks are
/// reproducible.
pub struct Dropout {
    p: f32,
    rng: SeededRng,
    cached_mask: Option<Matrix>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, rng: &mut SeededRng) -> Self {
        assert!((0.0..1.0).contains(&p), "Dropout::new: p={p} must be in [0, 1)");
        Self { p, rng: rng.fork(0xD20), cached_mask: None }
    }
}

impl Params for Dropout {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

impl Module for Dropout {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        if mode == Mode::Eval || self.p == 0.0 {
            self.cached_mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask = Matrix::from_fn(input.rows(), input.cols(), |_, _| {
            if self.rng.bernoulli(keep) {
                scale
            } else {
                0.0
            }
        });
        let out = input.hadamard(&mask);
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        match &self.cached_mask {
            Some(mask) => grad_output.hadamard(mask),
            None => grad_output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dropout::new(0.5, &mut rng);
        let x = Matrix::filled(4, 4, 2.0);
        assert_eq!(layer.forward(&x, Mode::Eval), x);
        // Backward after eval forward passes gradients through unchanged.
        let g = Matrix::filled(4, 4, 1.0);
        assert_eq!(layer.backward(&g), g);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dropout::new(0.3, &mut rng);
        let x = Matrix::filled(200, 50, 1.0);
        let y = layer.forward(&x, Mode::Train);
        // Mean should stay near 1 thanks to inverted scaling.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {} drifted", y.mean());
        // Roughly 30% of entries zeroed.
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count() as f32;
        let frac = zeros / y.len() as f32;
        assert!((frac - 0.3).abs() < 0.03, "zero fraction {frac}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut rng = SeededRng::new(3);
        let mut layer = Dropout::new(0.5, &mut rng);
        let x = Matrix::filled(10, 10, 1.0);
        let y = layer.forward(&x, Mode::Train);
        let dx = layer.backward(&Matrix::filled(10, 10, 1.0));
        // Gradient must be zero exactly where the output was zeroed.
        for (yv, dv) in y.as_slice().iter().zip(dx.as_slice().iter()) {
            assert_eq!(*yv == 0.0, *dv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn rejects_p_of_one() {
        let mut rng = SeededRng::new(4);
        let _ = Dropout::new(1.0, &mut rng);
    }

    #[test]
    fn zero_p_is_identity_in_train() {
        let mut rng = SeededRng::new(5);
        let mut layer = Dropout::new(0.0, &mut rng);
        let x = Matrix::filled(3, 3, 1.5);
        assert_eq!(layer.forward(&x, Mode::Train), x);
    }
}
