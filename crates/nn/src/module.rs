//! The [`Params`] and [`Module`] traits: parameter ownership, and the
//! composition contract for all layers and models.

use metadpa_tensor::Matrix;

use crate::param::Param;

/// Whether a forward pass is part of training or evaluation.
///
/// Only [`crate::Dropout`] currently distinguishes the two, but the mode is
/// threaded through every module so composite models behave like their
/// framework counterparts (`model.train()` / `model.eval()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic regularizers are active.
    Train,
    /// Evaluation: the network computes its deterministic function.
    Eval,
}

/// Anything that owns trainable parameters.
///
/// Optimizers, gradient clipping and the snapshot/restore helpers below
/// need only this, so a model trained through its own entry points (the
/// Dual-CVAE, the InfoNCE critic) implements it without being a
/// [`Module`].
pub trait Params {
    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param));

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// A differentiable component with cached activations.
///
/// The contract mirrors classic define-by-run layers:
///
/// 1. [`Module::forward`] consumes a `batch x in_dim` matrix and returns a
///    `batch x out_dim` matrix, caching whatever it needs for the backward
///    pass.
/// 2. [`Module::backward`] consumes the gradient of the loss with respect to
///    the output of the *most recent* forward call, **accumulates** parameter
///    gradients, and returns the gradient with respect to the input;
///    [`Module::backward_params`] does the same without the input gradient.
/// 3. [`Params::visit_params`] exposes every trainable [`Param`] in a stable
///    order, which optimizers and the MAML snapshot/restore helpers rely on.
///
/// Calling `backward` before `forward`, or with a mismatched batch size, is a
/// programming error and panics.
pub trait Module: Params {
    /// Runs the layer on `input`, caching activations for `backward`.
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix;

    /// Backpropagates `grad_output` (gradient w.r.t. the last forward
    /// output), accumulating parameter gradients and returning the gradient
    /// w.r.t. the input.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Zero-allocation twin of [`Module::forward`]: writes the output into
    /// the caller-owned buffer `out`, bit-identical to `forward`.
    ///
    /// `input` is taken by mutable reference so the layer may *steal* its
    /// storage for the activation cache (an ownership handoff instead of a
    /// clone); the contents of `input` are unspecified after the call. The
    /// default implementation falls back to the allocating path, so modules
    /// that never override it keep working unchanged.
    fn forward_into(&mut self, input: &mut Matrix, mode: Mode, out: &mut Matrix) {
        *out = self.forward(input, mode);
    }

    /// Zero-allocation twin of [`Module::backward`]: writes the input
    /// gradient into `out`, bit-identical to `backward`.
    ///
    /// Like `forward_into`, the layer may scribble on or steal
    /// `grad_output`; its contents are unspecified after the call.
    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        *out = self.backward(grad_output);
    }

    /// Parameter-only twin of [`Module::backward_into`]: accumulates the
    /// same parameter gradients, bit for bit, but may skip computing the
    /// gradient w.r.t. the input. For callers that discard it — the input
    /// is data, as for a model's first layer. Both buffers are scratch; their
    /// contents are unspecified after the call. The default runs the full
    /// backward pass into `scratch`.
    fn backward_params(&mut self, grad_output: &mut Matrix, scratch: &mut Matrix) {
        self.backward_into(grad_output, scratch);
    }
}

/// Clears the gradient accumulators of every parameter in `module`.
pub fn zero_grad(module: &mut dyn Params) {
    module.visit_params(&mut |p| p.zero_grad());
}

/// Copies the current parameter values out of `module` in visit order.
///
/// Together with [`restore`] this implements the cheap "save θ, adapt,
/// rewind" cycle at the heart of the MAML inner loop (paper Eq. 1).
pub fn snapshot(module: &mut dyn Params) -> Vec<Matrix> {
    let mut out = Vec::new();
    snapshot_into(module, &mut out);
    out
}

/// Copies parameter values into `out`, reusing its existing matrices.
///
/// The zero-allocation twin of [`snapshot`]: after the first call on a given
/// buffer only element data is copied, so a MAML inner loop that snapshots θ
/// every meta-batch allocates nothing in steady state.
pub fn snapshot_into(module: &mut dyn Params, out: &mut Vec<Matrix>) {
    let mut idx = 0;
    module.visit_params(&mut |p| {
        match out.get_mut(idx) {
            Some(slot) => slot.assign(&p.value),
            None => out.push(p.value.clone()),
        }
        idx += 1;
    });
    out.truncate(idx);
}

/// Writes parameter values saved by [`snapshot`] back into `module`.
///
/// # Panics
/// Panics if `saved` does not match the module's parameter structure.
pub fn restore(module: &mut dyn Params, saved: &[Matrix]) {
    let mut idx = 0;
    module.visit_params(&mut |p| {
        assert!(idx < saved.len(), "restore: snapshot has too few parameter matrices");
        assert_eq!(
            p.value.shape(),
            saved[idx].shape(),
            "restore: shape mismatch at parameter {idx}"
        );
        // assign() copies into the parameter's existing storage (same shape
        // guaranteed above), so a restore never reallocates.
        p.value.assign(&saved[idx]);
        idx += 1;
    });
    assert_eq!(idx, saved.len(), "restore: snapshot has too many parameter matrices");
}

/// Copies the current parameter values out of `module` as a named-tensor
/// list: `{prefix}.p000`, `{prefix}.p001`, … in visit order.
///
/// [`Params::visit_params`] guarantees a stable order, so the index-based
/// names are a durable identity — this is the serialization hook the
/// checkpoint format (`metadpa-serve`) builds on.
pub fn named_snapshot(module: &mut dyn Params, prefix: &str) -> Vec<(String, Matrix)> {
    let mut out = Vec::new();
    module.visit_params(&mut |p| {
        out.push((format!("{prefix}.p{:03}", out.len()), p.value.clone()));
    });
    out
}

/// Writes a named-tensor list produced by [`named_snapshot`] back into
/// `module`, verifying names and shapes.
///
/// Unlike [`restore`] this is fallible rather than panicking: loading a
/// checkpoint from disk must surface mismatches (wrong architecture, wrong
/// prefix, truncated table) as typed errors, not aborts.
pub fn restore_named(
    module: &mut dyn Params,
    prefix: &str,
    tensors: &[(String, Matrix)],
) -> Result<(), String> {
    let mut idx = 0usize;
    let mut error: Option<String> = None;
    module.visit_params(&mut |p| {
        if error.is_some() {
            return;
        }
        let Some((name, value)) = tensors.get(idx) else {
            error = Some(format!(
                "missing tensor {prefix}.p{idx:03}: checkpoint has only {} tensors",
                tensors.len()
            ));
            return;
        };
        let want = format!("{prefix}.p{idx:03}");
        if name != &want {
            error = Some(format!("tensor {idx} is named {name:?}, expected {want:?}"));
            return;
        }
        if value.shape() != p.value.shape() {
            error = Some(format!(
                "tensor {want} has shape {:?}, module expects {:?}",
                value.shape(),
                p.value.shape()
            ));
            return;
        }
        p.value.assign(value);
        idx += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if idx != tensors.len() {
        return Err(format!(
            "checkpoint has {} tensors under {prefix:?}, module consumed {idx}",
            tensors.len()
        ));
    }
    Ok(())
}

/// Copies the current gradients out of `module` in visit order.
///
/// Used by first-order MAML: query-set gradients computed at the adapted
/// parameters are harvested with this function and then applied to the
/// meta-parameters.
pub fn snapshot_grads(module: &mut dyn Params) -> Vec<Matrix> {
    let mut out = Vec::new();
    snapshot_grads_into(module, &mut out);
    out
}

/// Copies gradients into `out`, reusing its existing matrices — the
/// zero-allocation twin of [`snapshot_grads`].
pub fn snapshot_grads_into(module: &mut dyn Params, out: &mut Vec<Matrix>) {
    let mut idx = 0;
    module.visit_params(&mut |p| {
        match out.get_mut(idx) {
            Some(slot) => slot.assign(&p.grad),
            None => out.push(p.grad.clone()),
        }
        idx += 1;
    });
    out.truncate(idx);
}

/// Accumulates externally harvested gradients into `module`'s accumulators.
///
/// # Panics
/// Panics if `grads` does not match the module's parameter structure.
pub fn accumulate_grads(module: &mut dyn Params, grads: &[Matrix]) {
    let mut idx = 0;
    module.visit_params(&mut |p| {
        assert!(idx < grads.len(), "accumulate_grads: too few gradient matrices");
        p.grad.add_inplace(&grads[idx]);
        idx += 1;
    });
    assert_eq!(idx, grads.len(), "accumulate_grads: too many gradient matrices");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use metadpa_tensor::SeededRng;

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let saved = snapshot(&mut layer);
        // Perturb.
        layer.visit_params(&mut |p| p.value.map_inplace(|v| v + 1.0));
        let perturbed = snapshot(&mut layer);
        assert_ne!(saved, perturbed);
        restore(&mut layer, &saved);
        assert_eq!(snapshot(&mut layer), saved);
    }

    #[test]
    #[should_panic(expected = "too few parameter matrices")]
    fn restore_rejects_short_snapshot() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        restore(&mut layer, &[]);
    }

    #[test]
    fn param_count_counts_scalars() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        // 3x2 weight + 1x2 bias.
        assert_eq!(layer.param_count(), 8);
    }

    #[test]
    fn named_snapshot_round_trips_and_rejects_mismatches() {
        let mut rng = SeededRng::new(7);
        let mut layer = Dense::new(3, 2, &mut rng);
        let named = named_snapshot(&mut layer, "demo");
        assert_eq!(named.len(), 2, "weight + bias");
        assert_eq!(named[0].0, "demo.p000");
        assert_eq!(named[1].0, "demo.p001");

        layer.visit_params(&mut |p| p.value.map_inplace(|v| v - 0.5));
        restore_named(&mut layer, "demo", &named).expect("round trip");
        assert_eq!(snapshot(&mut layer), named.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>());

        // Wrong prefix, short table, extra tensors, wrong shape: all typed
        // errors, never panics.
        assert!(restore_named(&mut layer, "other", &named).unwrap_err().contains("named"));
        assert!(restore_named(&mut layer, "demo", &named[..1]).unwrap_err().contains("missing"));
        let mut extra = named.clone();
        extra.push(("demo.p002".into(), Matrix::zeros(1, 1)));
        assert!(restore_named(&mut layer, "demo", &extra).unwrap_err().contains("consumed"));
        let mut bad_shape = named.clone();
        bad_shape[0].1 = Matrix::zeros(9, 9);
        assert!(restore_named(&mut layer, "demo", &bad_shape).unwrap_err().contains("shape"));
    }

    #[test]
    fn accumulate_grads_adds() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let ones: Vec<Matrix> =
            snapshot(&mut layer).iter().map(|m| Matrix::filled(m.rows(), m.cols(), 1.0)).collect();
        accumulate_grads(&mut layer, &ones);
        accumulate_grads(&mut layer, &ones);
        layer.visit_params(&mut |p| {
            assert!(p.grad.as_slice().iter().all(|&g| (g - 2.0).abs() < 1e-6));
        });
    }
}
