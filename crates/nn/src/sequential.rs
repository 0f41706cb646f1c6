//! Sequential composition of modules.

use metadpa_tensor::Matrix;

use crate::module::{Mode, Module, Params};
use crate::param::Param;

/// A chain of modules applied in order.
///
/// `forward` threads the activation through every layer; `backward` replays
/// the chain in reverse. An empty `Sequential` is the identity.
///
/// Layers are `Send` so composed models can move across threads — the
/// serving stack shares one model behind a mutex.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Module + Send>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Module + Send + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Module + Send>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Params for Sequential {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }
}

impl Module for Sequential {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        // Two ping-pong buffers instead of one fresh activation per layer;
        // `forward_into` is bit-identical layer by layer.
        let mut current = input.clone();
        let mut out = Matrix::default();
        self.forward_into(&mut current, mode, &mut out);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut current = grad_output.clone();
        let mut out = Matrix::default();
        self.backward_into(&mut current, &mut out);
        out
    }

    fn forward_into(&mut self, input: &mut Matrix, mode: Mode, out: &mut Matrix) {
        // Ping-pong between the two caller buffers. Layers may steal the
        // source buffer for their activation cache (handing their previous
        // cache back), so both matrices are plain scratch throughout.
        let mut src_is_input = true;
        for layer in &mut self.layers {
            if src_is_input {
                layer.forward_into(input, mode, out);
            } else {
                layer.forward_into(out, mode, input);
            }
            src_is_input = !src_is_input;
        }
        if src_is_input {
            // Even-length chain (including the empty identity): the result
            // sits in `input`; move it to `out` without copying.
            std::mem::swap(input, out);
        }
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let mut src_is_grad = true;
        for layer in self.layers.iter_mut().rev() {
            if src_is_grad {
                layer.backward_into(grad_output, out);
            } else {
                layer.backward_into(out, grad_output);
            }
            src_is_grad = !src_is_grad;
        }
        if src_is_grad {
            std::mem::swap(grad_output, out);
        }
    }

    fn backward_params(&mut self, grad_output: &mut Matrix, scratch: &mut Matrix) {
        // The full chain down to the first layer, which skips its input
        // gradient. An empty chain has no parameters.
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        let mut src_is_grad = true;
        for layer in rest.iter_mut().rev() {
            if src_is_grad {
                layer.backward_into(grad_output, scratch);
            } else {
                layer.backward_into(scratch, grad_output);
            }
            src_is_grad = !src_is_grad;
        }
        if src_is_grad {
            first.backward_params(grad_output, scratch);
        } else {
            first.backward_params(scratch, grad_output);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use metadpa_tensor::SeededRng;

    #[test]
    fn empty_sequential_is_identity() {
        let mut seq = Sequential::new();
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(seq.forward(&x, Mode::Train), x);
        assert_eq!(seq.backward(&x), x);
        assert!(seq.is_empty());
    }

    #[test]
    fn chain_composes_forward() {
        // Dense(identity weights) then ReLU: negative entries clamp.
        let w = Matrix::identity(2);
        let b = Matrix::row_vector(&[0.0, 0.0]);
        let mut seq = Sequential::new().push(Dense::from_parts(w, b)).push(Relu::new());
        let x = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        let y = seq.forward(&x, Mode::Train);
        assert_eq!(y, Matrix::from_vec(1, 2, vec![0.0, 2.0]));
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn backward_reverses_the_chain() {
        let w = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 2.0]);
        let b = Matrix::row_vector(&[0.0, 0.0]);
        let mut seq = Sequential::new().push(Dense::from_parts(w, b)).push(Relu::new());
        let x = Matrix::from_vec(1, 2, vec![-1.0, 1.0]);
        let _ = seq.forward(&x, Mode::Train);
        let dx = seq.backward(&Matrix::filled(1, 2, 1.0));
        // ReLU gates the first coordinate (pre-activation -2 < 0), Dense
        // doubles the surviving gradient.
        assert_eq!(dx, Matrix::from_vec(1, 2, vec![0.0, 2.0]));
    }

    #[test]
    fn visit_params_walks_all_layers() {
        let mut rng = SeededRng::new(1);
        let mut seq = Sequential::new()
            .push(Dense::new(4, 3, &mut rng))
            .push(Relu::new())
            .push(Dense::new(3, 2, &mut rng));
        // (4*3 + 3) + (3*2 + 2).
        assert_eq!(seq.param_count(), 23);
    }
}
