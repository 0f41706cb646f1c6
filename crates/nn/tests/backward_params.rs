//! `Module::backward_params` must accumulate exactly the parameter
//! gradients `backward_into` does — bit for bit, over several accumulating
//! steps — at every thread count and with the SIMD kernels on or off. The
//! shapes are large enough to take the blocked, SIMD and row-parallel
//! matmul paths.

use metadpa_nn::mlp::Activation;
use metadpa_nn::module::{restore, snapshot, snapshot_grads, zero_grad};
use metadpa_nn::{Dense, Mlp, Mode, Module};
use metadpa_tensor::pool::with_threads;
use metadpa_tensor::simd::{self, Policy};
use metadpa_tensor::{Matrix, SeededRng};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs three forward/backward steps on two identical copies of a module,
/// one through `backward_into` and one through `backward_params`, without
/// zeroing in between, and compares every parameter gradient bitwise.
fn assert_param_grads_match<M: Module>(
    name: &str,
    build: impl Fn() -> M,
    (rows, in_dim, out_dim): (usize, usize, usize),
) {
    for threads in [1, 2] {
        for policy in [Policy::ForcedScalar, Policy::Auto] {
            with_threads(threads, || {
                simd::with_policy(policy, || {
                    let mut full = build();
                    let mut params_only = build();
                    restore(&mut params_only, &snapshot(&mut full));
                    zero_grad(&mut full);
                    zero_grad(&mut params_only);
                    let mut rng = SeededRng::new(17);
                    let (mut y, mut dx, mut scratch) =
                        (Matrix::default(), Matrix::default(), Matrix::default());
                    for step in 0..3 {
                        let x = rng.normal_matrix(rows, in_dim);
                        let g = rng.normal_matrix(rows, out_dim);

                        let mut input = x.clone();
                        full.forward_into(&mut input, Mode::Train, &mut y);
                        let mut grad = g.clone();
                        full.backward_into(&mut grad, &mut dx);

                        let mut input = x;
                        params_only.forward_into(&mut input, Mode::Train, &mut y);
                        let mut grad = g;
                        params_only.backward_params(&mut grad, &mut scratch);

                        let want = snapshot_grads(&mut full);
                        let got = snapshot_grads(&mut params_only);
                        assert_eq!(want.len(), got.len());
                        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                bits(w),
                                bits(g),
                                "{name}: param {i} drifts at step {step}, threads {threads}, \
                                 {policy:?}"
                            );
                        }
                    }
                })
            });
        }
    }
}

#[test]
fn dense_backward_params_matches_backward_into() {
    assert_param_grads_match("dense", || Dense::new(64, 72, &mut SeededRng::new(1)), (301, 64, 72));
}

#[test]
fn mlp_backward_params_matches_backward_into() {
    assert_param_grads_match(
        "mlp relu",
        || Mlp::new(&[96, 48, 24, 1], Activation::Relu, &mut SeededRng::new(2)),
        (257, 96, 1),
    );
    assert_param_grads_match(
        "mlp tanh",
        || Mlp::new(&[180, 32, 8], Activation::Tanh, &mut SeededRng::new(3)),
        (203, 180, 8),
    );
}

#[test]
fn dense_backward_params_leaves_the_scratch_buffer_alone() {
    let mut layer = Dense::new(4, 3, &mut SeededRng::new(5));
    let _ = layer.forward(&Matrix::filled(2, 4, 1.0), Mode::Train);
    let mut scratch = Matrix::filled(1, 1, 7.0);
    layer.backward_params(&mut Matrix::filled(2, 3, 1.0), &mut scratch);
    assert_eq!(scratch, Matrix::filled(1, 1, 7.0), "no input gradient is computed");
}
