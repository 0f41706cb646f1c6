//! The `_into` forward/backward paths must be bit-identical to the
//! allocating paths, layer by layer and through `Sequential`'s ping-pong
//! buffer scheme, at every `METADPA_THREADS` setting.

use metadpa_nn::module::{snapshot_grads, zero_grad};
use metadpa_nn::{
    Dense, LeakyRelu, Mode, Module, Params, Relu, Sequential, Sigmoid, Softmax, Tanh,
};
use metadpa_tensor::pool::with_threads;
use metadpa_tensor::{Matrix, SeededRng};

fn assert_bits(name: &str, want: &Matrix, got: &Matrix) {
    assert_eq!(want.shape(), got.shape(), "{name}: shape drift");
    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: element {i} differs: {a} vs {b}");
    }
}

/// A chain touching every activation plus three Dense layers (odd and even
/// prefixes are both exercised by the ping-pong logic).
fn build_model(seed: u64) -> Sequential {
    let mut rng = SeededRng::new(seed);
    Sequential::new()
        .push(Dense::new(6, 8, &mut rng))
        .push(Relu::new())
        .push(Dense::new(8, 8, &mut rng))
        .push(LeakyRelu::new(0.1))
        .push(Tanh::new())
        .push(Dense::new(8, 4, &mut rng))
        .push(Softmax::new())
        .push(Sigmoid::new())
}

#[test]
fn sequential_forward_backward_into_is_bit_identical() {
    for threads in [1usize, 2, 7] {
        with_threads(threads, || {
            let mut reference = build_model(3);
            let mut tested = build_model(3);
            let mut rng = SeededRng::new(99);
            // Reused buffers across steps: nothing from a previous step may
            // leak into the next.
            let (mut input, mut out) = (Matrix::default(), Matrix::default());
            let (mut grad, mut dx) = (Matrix::default(), Matrix::default());
            for step in 0..3 {
                let x = rng.normal_matrix(5, 6);
                let g = rng.normal_matrix(5, 4);
                zero_grad(&mut reference);
                zero_grad(&mut tested);

                let want_y = reference.forward(&x, Mode::Train);
                let want_dx = reference.backward(&g);

                input.assign(&x);
                tested.forward_into(&mut input, Mode::Train, &mut out);
                grad.assign(&g);
                tested.backward_into(&mut grad, &mut dx);

                assert_bits(&format!("forward step {step} threads {threads}"), &want_y, &out);
                assert_bits(&format!("backward step {step} threads {threads}"), &want_dx, &dx);
                let want_grads = snapshot_grads(&mut reference);
                let got_grads = snapshot_grads(&mut tested);
                for (i, (w, g2)) in want_grads.iter().zip(&got_grads).enumerate() {
                    assert_bits(&format!("param grad {i} step {step}"), w, g2);
                }
            }
        });
    }
}

#[test]
fn empty_sequential_forward_into_is_identity() {
    let mut seq = Sequential::new();
    let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    let mut input = x.clone();
    let mut out = Matrix::default();
    seq.forward_into(&mut input, Mode::Train, &mut out);
    assert_eq!(out, x);
    let mut grad = x.clone();
    let mut dx = Matrix::default();
    seq.backward_into(&mut grad, &mut dx);
    assert_eq!(dx, x);
}

#[test]
fn dense_forward_into_steals_the_input_buffer() {
    let mut rng = SeededRng::new(5);
    let mut layer = Dense::new(3, 2, &mut rng);
    let mut input = rng.normal_matrix(4, 3);
    let input_ptr = input.as_slice().as_ptr();
    let mut out = Matrix::default();
    layer.forward_into(&mut input, Mode::Train, &mut out);
    // Backward still sees the stolen activation (same storage, no copy)...
    let mut grad = rng.normal_matrix(4, 2);
    let mut dx = Matrix::default();
    layer.backward_into(&mut grad, &mut dx);
    assert_eq!(dx.shape(), (4, 3));
    // ...and the caller's buffer was swapped, not cloned: a second forward
    // hands the first buffer back.
    let mut second = rng.normal_matrix(4, 3);
    layer.forward_into(&mut second, Mode::Train, &mut out);
    assert_eq!(second.as_slice().as_ptr(), input_ptr, "handoff must recycle the cache buffer");
}

#[test]
fn default_into_impls_fall_back_to_allocating_paths() {
    // A module that only implements the allocating API must work through
    // the `_into` entry points unchanged.
    struct Doubler;
    impl Params for Doubler {
        fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut metadpa_nn::Param)) {}
    }

    impl Module for Doubler {
        fn forward(&mut self, input: &Matrix, _mode: Mode) -> Matrix {
            input.scale(2.0)
        }
        fn backward(&mut self, grad_output: &Matrix) -> Matrix {
            grad_output.scale(2.0)
        }
    }
    let mut seq = Sequential::new().push(Doubler).push(Doubler);
    let mut input = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
    let mut out = Matrix::default();
    seq.forward_into(&mut input, Mode::Eval, &mut out);
    assert_eq!(out, Matrix::from_vec(1, 2, vec![4.0, -8.0]));
}
