//! Property-based verification of the NN substrate: random architectures,
//! random points, gradients must match finite differences; optimizers must
//! descend.
//!
//! The randomized `proptest` suite is opt-in (`--features proptest`): the
//! build environment is offline, so the `proptest` crate cannot be a
//! default dev-dependency. To run it, restore `proptest = "1"` under
//! `[dev-dependencies]` and enable the feature. The `deterministic` module
//! below always compiles and checks the same invariants at fixed seeds.

use metadpa_nn::grad_check::check_module;
use metadpa_nn::loss::{bce_with_logits, mse};
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{zero_grad, Mode, Module, Params};
use metadpa_nn::{Adam, Dense, Optimizer, Sequential, Sigmoid, Tanh};
use metadpa_tensor::SeededRng;

const SEEDS: [u64; 6] = [0, 1, 7, 42, 1234, 9999];

mod deterministic {
    use super::*;

    /// Any Dense layer at any random point has verifiable gradients.
    #[test]
    fn dense_gradcheck_holds_everywhere() {
        for (i, &seed) in SEEDS.iter().enumerate() {
            let (in_dim, out_dim, batch) = (1 + i % 7, 1 + (i * 3) % 7, 1 + i % 4);
            let mut rng = SeededRng::new(seed);
            let mut layer = Dense::new(in_dim, out_dim, &mut rng);
            let input = rng.normal_matrix(batch, in_dim);
            let upstream = rng.normal_matrix(batch, out_dim);
            let report = check_module(&mut layer, &input, &upstream, 1e-2);
            assert!(report.passes(5e-3), "{report:?}");
        }
    }

    /// Random two-hidden-layer MLPs with smooth activations gradcheck.
    #[test]
    fn random_mlp_gradcheck() {
        for (i, &seed) in SEEDS.iter().enumerate() {
            let (h1, h2) = (2 + i % 5, 2 + (i * 2) % 5);
            let mut rng = SeededRng::new(seed);
            let mut mlp = Mlp::new(&[4, h1, h2, 2], Activation::Tanh, &mut rng);
            let input = rng.normal_matrix(3, 4);
            let upstream = rng.normal_matrix(3, 2);
            let report = check_module(&mut mlp, &input, &upstream, 1e-2);
            assert!(report.passes(2e-2), "{report:?}");
        }
    }

    /// BCE-with-logits gradients match finite differences, incl. soft labels.
    #[test]
    fn bce_gradcheck() {
        for &seed in &SEEDS {
            let mut rng = SeededRng::new(seed);
            let logits = rng.normal_matrix(2, 4);
            let targets = rng.uniform_matrix(2, 4, 0.0, 1.0);
            let (_, grad) = bce_with_logits(&logits, &targets);
            let eps = 1e-2;
            for i in 0..logits.len() {
                let mut p = logits.clone();
                p.as_mut_slice()[i] += eps;
                let mut m = logits.clone();
                m.as_mut_slice()[i] -= eps;
                let numeric = (bce_with_logits(&p, &targets).0 - bce_with_logits(&m, &targets).0)
                    / (2.0 * eps);
                assert!((numeric - grad.as_slice()[i]).abs() < 5e-3);
            }
        }
    }

    /// Adam steps on a quadratic reduce the loss.
    #[test]
    fn adam_descends_quadratics() {
        for &seed in &SEEDS {
            let mut rng = SeededRng::new(seed);
            let mut layer = Dense::new(3, 1, &mut rng);
            let x = rng.normal_matrix(6, 3);
            let y = rng.normal_matrix(6, 1);
            let mut opt = Adam::new(0.01);
            let loss_at = |layer: &mut Dense| {
                let pred = layer.forward(&x, Mode::Eval);
                mse(&pred, &y).0
            };
            let before = loss_at(&mut layer);
            for _ in 0..50 {
                zero_grad(&mut layer);
                let pred = layer.forward(&x, Mode::Train);
                let (_, grad) = mse(&pred, &y);
                let _ = layer.backward(&grad);
                opt.step(&mut layer);
            }
            let after = loss_at(&mut layer);
            assert!(after <= before + 1e-6, "loss rose: {before} -> {after}");
        }
    }

    /// snapshot -> perturb -> restore is exact for arbitrary composites.
    #[test]
    fn snapshot_restore_exact() {
        use metadpa_nn::module::{restore, snapshot};
        for &seed in &SEEDS {
            let mut rng = SeededRng::new(seed);
            let mut net = Sequential::new()
                .push(Dense::new(3, 4, &mut rng))
                .push(Tanh::new())
                .push(Dense::new(4, 2, &mut rng))
                .push(Sigmoid::new());
            let saved = snapshot(&mut net);
            net.visit_params(&mut |p| p.value.map_inplace(|v| v * 1.7 - 0.3));
            restore(&mut net, &saved);
            assert_eq!(snapshot(&mut net), saved);
        }
    }

    /// Forward in Eval mode is deterministic: two calls agree exactly.
    #[test]
    fn eval_forward_is_deterministic() {
        for &seed in &SEEDS {
            let mut rng = SeededRng::new(seed);
            let mut net = Sequential::new()
                .push(Dense::new(4, 4, &mut rng))
                .push(metadpa_nn::Dropout::new(0.5, &mut rng))
                .push(Dense::new(4, 2, &mut rng));
            let x = rng.normal_matrix(3, 4);
            let a = net.forward(&x, Mode::Eval);
            let b = net.forward(&x, Mode::Eval);
            assert_eq!(a, b);
        }
    }

    /// Gradient accumulation is additive: two backward passes produce twice
    /// the gradient of one.
    #[test]
    fn backward_accumulates_linearly() {
        for &seed in &SEEDS {
            let mut rng = SeededRng::new(seed);
            let mut layer = Dense::new(3, 2, &mut rng);
            let x = rng.normal_matrix(2, 3);
            let g = rng.normal_matrix(2, 2);

            zero_grad(&mut layer);
            let _ = layer.forward(&x, Mode::Train);
            let _ = layer.backward(&g);
            let mut single = Vec::new();
            layer.visit_params(&mut |p| single.push(p.grad.clone()));

            zero_grad(&mut layer);
            let _ = layer.forward(&x, Mode::Train);
            let _ = layer.backward(&g);
            let _ = layer.forward(&x, Mode::Train);
            let _ = layer.backward(&g);
            let mut double = Vec::new();
            layer.visit_params(&mut |p| double.push(p.grad.clone()));

            for (s, d) in single.iter().zip(double.iter()) {
                for (a, b) in s.as_slice().iter().zip(d.as_slice().iter()) {
                    assert!((2.0 * a - b).abs() < 1e-4 * (1.0 + b.abs()));
                }
            }
        }
    }

    /// InfoNCE prefers the true (diagonal) pairing over a derangement when
    /// the two sides are strongly correlated.
    #[test]
    fn infonce_prefers_true_pairing() {
        use metadpa_nn::infonce::InfoNce;
        for &seed in &SEEDS {
            let mut rng = SeededRng::new(seed);
            let a = rng.normal_matrix(6, 5);
            let b = &a.scale(1.0) + &rng.normal_matrix(6, 5).scale(0.01);
            let nce = InfoNce::new(0.2);
            let aligned = nce.forward(&a, &b).loss;
            // Cyclic shift = a derangement: every row mismatched.
            let shifted: Vec<usize> = (0..6).map(|i| (i + 1) % 6).collect();
            let misaligned = nce.forward(&a, &b.gather_rows(&shifted)).loss;
            assert!(aligned < misaligned);
        }
    }
}

#[cfg(feature = "proptest")]
mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any Dense layer at any random point has verifiable gradients.
        #[test]
        fn dense_gradcheck_holds_everywhere(
            seed in 0u64..10_000,
            in_dim in 1usize..8,
            out_dim in 1usize..8,
            batch in 1usize..5,
        ) {
            let mut rng = SeededRng::new(seed);
            let mut layer = Dense::new(in_dim, out_dim, &mut rng);
            let input = rng.normal_matrix(batch, in_dim);
            let upstream = rng.normal_matrix(batch, out_dim);
            let report = check_module(&mut layer, &input, &upstream, 1e-2);
            prop_assert!(report.passes(5e-3), "{report:?}");
        }

        /// Random two-hidden-layer MLPs with smooth activations gradcheck.
        #[test]
        fn random_mlp_gradcheck(
            seed in 0u64..10_000,
            h1 in 2usize..7,
            h2 in 2usize..7,
        ) {
            let mut rng = SeededRng::new(seed);
            let mut mlp = Mlp::new(&[4, h1, h2, 2], Activation::Tanh, &mut rng);
            let input = rng.normal_matrix(3, 4);
            let upstream = rng.normal_matrix(3, 2);
            let report = check_module(&mut mlp, &input, &upstream, 1e-2);
            prop_assert!(report.passes(2e-2), "{report:?}");
        }

        /// One Adam run on a quadratic always reduces the loss.
        #[test]
        fn adam_descends_quadratics(seed in 0u64..10_000) {
            let mut rng = SeededRng::new(seed);
            let mut layer = Dense::new(3, 1, &mut rng);
            let x = rng.normal_matrix(6, 3);
            let y = rng.normal_matrix(6, 1);
            let mut opt = Adam::new(0.01);
            let loss_at = |layer: &mut Dense| {
                let pred = layer.forward(&x, Mode::Eval);
                mse(&pred, &y).0
            };
            let before = loss_at(&mut layer);
            for _ in 0..50 {
                zero_grad(&mut layer);
                let pred = layer.forward(&x, Mode::Train);
                let (_, grad) = mse(&pred, &y);
                let _ = layer.backward(&grad);
                opt.step(&mut layer);
            }
            let after = loss_at(&mut layer);
            prop_assert!(after <= before + 1e-6, "loss rose: {before} -> {after}");
        }

        /// snapshot -> perturb -> restore is exact for arbitrary composites.
        #[test]
        fn snapshot_restore_exact(seed in 0u64..10_000) {
            use metadpa_nn::module::{restore, snapshot};
            let mut rng = SeededRng::new(seed);
            let mut net = Sequential::new()
                .push(Dense::new(3, 4, &mut rng))
                .push(Tanh::new())
                .push(Dense::new(4, 2, &mut rng))
                .push(Sigmoid::new());
            let saved = snapshot(&mut net);
            net.visit_params(&mut |p| p.value.map_inplace(|v| v * 1.7 - 0.3));
            restore(&mut net, &saved);
            prop_assert_eq!(snapshot(&mut net), saved);
        }
    }
}
