//! The preference prediction model of Eq. 11 (paper §IV-C).
//!
//! A fully connected embedding layer encodes the user content `c_u` and
//! item content `c_i` into dense embeddings `x_u`, `x_i`; a multi-layer
//! network scores their concatenation. Implicit feedback means the output
//! is a single logit trained with binary cross-entropy.
//!
//! [`PreferenceModel`] implements [`Module`] over an input of
//! `[c_u ; c_i]` rows (one row per candidate item, the user row tiled), so
//! the generic optimizer / snapshot / restore machinery of `metadpa-nn`
//! — and therefore MAML — drives it without special cases.

use metadpa_nn::dense::Dense;
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{Mode, Module, Params};
use metadpa_nn::param::Param;
use metadpa_nn::workspace::Workspace;
use metadpa_tensor::{Matrix, SeededRng};

// Workspace slots: forward scratch, backward scratch, scoring scratch. Each
// buffer keeps its high-water capacity, so repeated steps allocate nothing.
const WS_CU: usize = 0;
const WS_CI: usize = 1;
const WS_XU: usize = 2;
const WS_XI: usize = 3;
const WS_CAT: usize = 4;
const WS_DCAT: usize = 5;
const WS_DXU: usize = 6;
const WS_DXI: usize = 7;
const WS_DCU: usize = 8;
const WS_DCI: usize = 9;
const WS_SCORE_IN: usize = 10;
const WS_SCORE_OUT: usize = 11;
const WS_SLOTS: usize = 12;

/// Architecture hyper-parameters of the preference model.
#[derive(Clone, Copy, Debug)]
pub struct PreferenceConfig {
    /// Content vector dimensionality (both users and items).
    pub content_dim: usize,
    /// Dense embedding size for each side.
    pub embed_dim: usize,
    /// Hidden widths of the scorer MLP (two hidden layers in the paper's
    /// "2-layer network" description).
    pub hidden: [usize; 2],
}

impl Default for PreferenceConfig {
    fn default() -> Self {
        Self { content_dim: 48, embed_dim: 32, hidden: [48, 24] }
    }
}

/// The embedding + multi-layer scorer of Eq. 11.
pub struct PreferenceModel {
    config: PreferenceConfig,
    user_embed: Dense,
    item_embed: Dense,
    scorer: Mlp,
    ws: Workspace,
}

impl PreferenceModel {
    /// Builds the model.
    pub fn new(config: PreferenceConfig, rng: &mut SeededRng) -> Self {
        let user_embed = Dense::new(config.content_dim, config.embed_dim, rng);
        let item_embed = Dense::new(config.content_dim, config.embed_dim, rng);
        let scorer = Mlp::new(
            &[2 * config.embed_dim, config.hidden[0], config.hidden[1], 1],
            Activation::Relu,
            rng,
        );
        Self { config, user_embed, item_embed, scorer, ws: Workspace::new(WS_SLOTS) }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> PreferenceConfig {
        self.config
    }

    /// Assembles the `[c_u ; c_i]` input batch for one user and a set of
    /// candidate items: the user's content row is tiled across all rows.
    pub fn assemble_input(user_content: &[f32], item_content: &Matrix, items: &[usize]) -> Matrix {
        let mut input = Matrix::default();
        Self::assemble_input_into(user_content, item_content, items, &mut input);
        input
    }

    /// [`PreferenceModel::assemble_input`] into a reused caller buffer.
    pub fn assemble_input_into(
        user_content: &[f32],
        item_content: &Matrix,
        items: &[usize],
        out: &mut Matrix,
    ) {
        let d = user_content.len();
        out.resize_for_overwrite(items.len(), d + item_content.cols());
        for (row, &item) in items.iter().enumerate() {
            out.row_mut(row)[..d].copy_from_slice(user_content);
            out.row_mut(row)[d..].copy_from_slice(item_content.row(item));
        }
    }

    /// Scores one user against candidate items, returning per-item logits.
    pub fn score_items(
        &mut self,
        user_content: &[f32],
        item_content: &Matrix,
        items: &[usize],
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.score_items_into(user_content, item_content, items, &mut out);
        out
    }

    /// [`PreferenceModel::score_items`] into a reused caller vector —
    /// bit-identical, and the whole path (input assembly, forward pass)
    /// runs on workspace buffers, so steady-state catalogue ranking
    /// allocates nothing.
    pub fn score_items_into(
        &mut self,
        user_content: &[f32],
        item_content: &Matrix,
        items: &[usize],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if items.is_empty() {
            return;
        }
        let mut input = self.ws.take(WS_SCORE_IN);
        let mut logits = self.ws.take(WS_SCORE_OUT);
        Self::assemble_input_into(user_content, item_content, items, &mut input);
        self.forward_into(&mut input, Mode::Eval, &mut logits);
        out.extend_from_slice(logits.as_slice());
        self.ws.put(WS_SCORE_IN, input);
        self.ws.put(WS_SCORE_OUT, logits);
    }

    /// Runs the item embedding layer over a full content table, returning
    /// one `x_i` row per item — the precompute half of the serving fast
    /// path. Row `i` is bit-identical to the `x_i` the full
    /// [`PreferenceModel::score_items_into`] pass computes for item `i`:
    /// every matmul kernel accumulates each output element over the inner
    /// dimension in ascending order from its own row of the input, so
    /// embedding all rows at once equals embedding any subset row-by-row.
    ///
    /// Only valid for the parameters the model holds *now* — the serving
    /// layer recomputes (or refuses to use) the table when it restores
    /// different weights.
    pub fn embed_items(&mut self, item_content: &Matrix) -> Matrix {
        assert_eq!(
            item_content.cols(),
            self.config.content_dim,
            "PreferenceModel::embed_items: item content width {} != content_dim {}",
            item_content.cols(),
            self.config.content_dim
        );
        // `forward_into` steals its input buffer for the backward cache, so
        // hand it a copy. This runs once per artifact load, not per request.
        let mut input = item_content.clone();
        let mut out = Matrix::default();
        self.item_embed.forward_into(&mut input, Mode::Eval, &mut out);
        out
    }

    /// Scores one user against candidate items from a precomputed item
    /// embedding table (see [`PreferenceModel::embed_items`]), skipping
    /// the per-request item embedding matmul and the tiled `[c_u ; c_i]`
    /// assembly. The user side is embedded as a single row, then the
    /// scorer runs over `[x_u ; x_i]` rows built straight from the table.
    /// Zero steady-state allocations.
    ///
    /// Under the exact kernels (`Policy::Auto`/`ForcedScalar`) the result
    /// is bit-identical to [`PreferenceModel::score_items_into`] for the
    /// same parameters: per-row accumulation makes one embedded row equal
    /// to any row of the tiled batch. Under `Policy::Fused` it is within
    /// the DESIGN §14 epsilon of it, not bit-identical: once the tiled
    /// batch is big enough for the blocked kernels the full pass embeds
    /// the user with fused mul-adds, while the single row here runs the
    /// exact naive kernel.
    pub fn score_embedded_into(
        &mut self,
        user_content: &[f32],
        item_embeds: &Matrix,
        items: &[usize],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            user_content.len(),
            self.config.content_dim,
            "PreferenceModel::score_embedded_into: user content width {} != content_dim {}",
            user_content.len(),
            self.config.content_dim
        );
        assert_eq!(
            item_embeds.cols(),
            self.config.embed_dim,
            "PreferenceModel::score_embedded_into: embedding width {} != embed_dim {}",
            item_embeds.cols(),
            self.config.embed_dim
        );
        out.clear();
        if items.is_empty() {
            return;
        }
        let e = self.config.embed_dim;
        let mut cu = self.ws.take(WS_CU);
        let mut xu = self.ws.take(WS_XU);
        let mut cat = self.ws.take(WS_CAT);
        let mut logits = self.ws.take(WS_SCORE_OUT);
        cu.resize_for_overwrite(1, self.config.content_dim);
        cu.row_mut(0).copy_from_slice(user_content);
        self.user_embed.forward_into(&mut cu, Mode::Eval, &mut xu);
        cat.resize_for_overwrite(items.len(), 2 * e);
        for (row, &item) in items.iter().enumerate() {
            let r = cat.row_mut(row);
            r[..e].copy_from_slice(xu.row(0));
            r[e..].copy_from_slice(item_embeds.row(item));
        }
        self.scorer.forward_into(&mut cat, Mode::Eval, &mut logits);
        out.extend_from_slice(logits.as_slice());
        self.ws.put(WS_CU, cu);
        self.ws.put(WS_XU, xu);
        self.ws.put(WS_CAT, cat);
        self.ws.put(WS_SCORE_OUT, logits);
    }

    /// Backpropagates through the scorer and splits the gradient at its
    /// input into the embedding halves `(dx_u, dx_i)`: workspace buffers
    /// the caller puts back.
    fn backward_scorer(&mut self, grad_output: &mut Matrix) -> (Matrix, Matrix) {
        let mut dcat = self.ws.take(WS_DCAT);
        let mut dxu = self.ws.take(WS_DXU);
        let mut dxi = self.ws.take(WS_DXI);
        self.scorer.backward_into(grad_output, &mut dcat);
        dcat.hsplit_into(self.config.embed_dim, &mut dxu, &mut dxi);
        self.ws.put(WS_DCAT, dcat);
        (dxu, dxi)
    }
}

/// Whether every row of `m` is bitwise equal to its first row.
fn rows_all_equal(m: &Matrix) -> bool {
    let Some(first) = m.row_iter().next() else {
        return true;
    };
    m.row_iter().skip(1).all(|row| row.iter().zip(first).all(|(a, b)| a.to_bits() == b.to_bits()))
}

impl Params for PreferenceModel {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.user_embed.visit_params(visitor);
        self.item_embed.visit_params(visitor);
        self.scorer.visit_params(visitor);
    }
}

impl Module for PreferenceModel {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        assert_eq!(
            input.cols(),
            2 * self.config.content_dim,
            "PreferenceModel::forward: input must be [c_u ; c_i] rows of width {}",
            2 * self.config.content_dim
        );
        let (cu, ci) = input.hsplit(self.config.content_dim);
        let xu = self.user_embed.forward(&cu, mode);
        let xi = self.item_embed.forward(&ci, mode);
        self.scorer.forward(&xu.hstack(&xi), mode)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let d_concat = self.scorer.backward(grad_output);
        let (dxu, dxi) = d_concat.hsplit(self.config.embed_dim);
        let dcu = self.user_embed.backward(&dxu);
        let dci = self.item_embed.backward(&dxi);
        dcu.hstack(&dci)
    }

    fn forward_into(&mut self, input: &mut Matrix, mode: Mode, out: &mut Matrix) {
        assert_eq!(
            input.cols(),
            2 * self.config.content_dim,
            "PreferenceModel::forward: input must be [c_u ; c_i] rows of width {}",
            2 * self.config.content_dim
        );
        let mut cu = self.ws.take(WS_CU);
        let mut ci = self.ws.take(WS_CI);
        let mut xu = self.ws.take(WS_XU);
        let mut xi = self.ws.take(WS_XI);
        let mut cat = self.ws.take(WS_CAT);
        input.hsplit_into(self.config.content_dim, &mut cu, &mut ci);
        // Training and scoring batches tile one user's row across every
        // candidate: embed it once (bit-identical, see
        // `Dense::forward_tiled_into`).
        if rows_all_equal(&cu) {
            self.user_embed.forward_tiled_into(&mut cu, &mut xu);
        } else {
            self.user_embed.forward_into(&mut cu, mode, &mut xu);
        }
        self.item_embed.forward_into(&mut ci, mode, &mut xi);
        xu.hstack_into(&xi, &mut cat);
        self.scorer.forward_into(&mut cat, mode, out);
        self.ws.put(WS_CU, cu);
        self.ws.put(WS_CI, ci);
        self.ws.put(WS_XU, xu);
        self.ws.put(WS_XI, xi);
        self.ws.put(WS_CAT, cat);
    }

    fn backward_into(&mut self, grad_output: &mut Matrix, out: &mut Matrix) {
        let (mut dxu, mut dxi) = self.backward_scorer(grad_output);
        let mut dcu = self.ws.take(WS_DCU);
        let mut dci = self.ws.take(WS_DCI);
        self.user_embed.backward_into(&mut dxu, &mut dcu);
        self.item_embed.backward_into(&mut dxi, &mut dci);
        dcu.hstack_into(&dci, out);
        self.ws.put(WS_DXU, dxu);
        self.ws.put(WS_DXI, dxi);
        self.ws.put(WS_DCU, dcu);
        self.ws.put(WS_DCI, dci);
    }

    /// The content rows are data, so training skips the two embedding
    /// layers' input gradients and the `[dc_u ; dc_i]` assembly.
    fn backward_params(&mut self, grad_output: &mut Matrix, scratch: &mut Matrix) {
        let (mut dxu, mut dxi) = self.backward_scorer(grad_output);
        self.user_embed.backward_params(&mut dxu, scratch);
        self.item_embed.backward_params(&mut dxi, scratch);
        self.ws.put(WS_DXU, dxu);
        self.ws.put(WS_DXI, dxi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_nn::grad_check::check_module;
    use metadpa_nn::loss::bce_with_logits;
    use metadpa_nn::module::zero_grad;
    use metadpa_nn::optim::{Adam, Optimizer};

    fn small() -> PreferenceConfig {
        PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] }
    }

    #[test]
    fn scores_one_logit_per_item() {
        let mut rng = SeededRng::new(1);
        let mut model = PreferenceModel::new(small(), &mut rng);
        let item_content = rng.uniform_matrix(10, 6, 0.0, 1.0);
        let user = vec![0.1; 6];
        let scores = model.score_items(&user, &item_content, &[0, 3, 7]);
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(model.score_items(&user, &item_content, &[]).is_empty());
    }

    #[test]
    fn assemble_input_tiles_user_row() {
        let item_content = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let input = PreferenceModel::assemble_input(&[9.0, 8.0], &item_content, &[1, 0]);
        assert_eq!(input.row(0), &[9.0, 8.0, 3.0, 4.0]);
        assert_eq!(input.row(1), &[9.0, 8.0, 1.0, 2.0]);
    }

    #[test]
    fn gradients_verify_numerically() {
        let mut rng = SeededRng::new(2);
        let mut model = PreferenceModel::new(small(), &mut rng);
        let input = rng.normal_matrix(4, 12);
        let upstream = rng.normal_matrix(4, 1);
        let report = check_module(&mut model, &input, &upstream, 1e-2);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn can_fit_a_simple_preference_rule() {
        // Label = 1 iff user content and item content point the same way.
        let mut rng = SeededRng::new(3);
        let mut model = PreferenceModel::new(small(), &mut rng);
        let n = 40;
        let mut input = Matrix::zeros(n, 12);
        let mut labels = Matrix::zeros(n, 1);
        for r in 0..n {
            let sign_u = if r % 2 == 0 { 1.0 } else { -1.0 };
            let sign_i = if (r / 2) % 2 == 0 { 1.0 } else { -1.0 };
            for c in 0..6 {
                input.set(r, c, sign_u * (0.5 + 0.1 * c as f32));
                input.set(r, 6 + c, sign_i * (0.5 + 0.05 * c as f32));
            }
            labels.set(r, 0, if sign_u == sign_i { 1.0 } else { 0.0 });
        }
        let mut opt = Adam::new(0.02);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            zero_grad(&mut model);
            let logits = model.forward(&input, Mode::Train);
            let (loss, grad) = bce_with_logits(&logits, &labels);
            let _ = model.backward(&grad);
            opt.step(&mut model);
            last = loss;
        }
        assert!(last < 0.1, "preference rule should be learnable, loss {last}");
    }

    #[test]
    fn into_paths_are_bit_identical_to_allocating_paths() {
        // Two models with identical weights: one driven through the
        // allocating Module API, one through the workspace `_into` API.
        // Outputs, input gradients and parameter gradients must agree
        // bitwise — this is what lets MAML and serve use the zero-alloc
        // path without re-validating determinism.
        let mut rng = SeededRng::new(7);
        let mut a = PreferenceModel::new(small(), &mut rng);
        let mut b = PreferenceModel::new(small(), &mut SeededRng::new(0));
        metadpa_nn::module::restore(&mut b, &metadpa_nn::module::snapshot(&mut a));

        let item_content = rng.uniform_matrix(10, 6, -1.0, 1.0);
        let user = vec![0.2; 6];
        let items = [0usize, 2, 5, 9];
        let (mut input_b, mut y_b, mut grad_b, mut dx_b) =
            (Matrix::default(), Matrix::default(), Matrix::default(), Matrix::default());
        for step in 0..3 {
            zero_grad(&mut a);
            zero_grad(&mut b);
            let input = PreferenceModel::assemble_input(&user, &item_content, &items);
            let y_a = a.forward(&input, Mode::Train);
            let grad_a = y_a.map(|v| v * 0.1 + step as f32);
            let dx_a = a.backward(&grad_a);

            PreferenceModel::assemble_input_into(&user, &item_content, &items, &mut input_b);
            b.forward_into(&mut input_b, Mode::Train, &mut y_b);
            y_a.map_into(|v| v * 0.1 + step as f32, &mut grad_b);
            b.backward_into(&mut grad_b, &mut dx_b);

            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y_a), bits(&y_b), "forward drifts at step {step}");
            assert_eq!(bits(&dx_a), bits(&dx_b), "backward drifts at step {step}");
            let mut grads_a = Vec::new();
            let mut grads_b = Vec::new();
            a.visit_params(&mut |p| grads_a.push(p.grad.clone()));
            b.visit_params(&mut |p| grads_b.push(p.grad.clone()));
            for (ga, gb) in grads_a.iter().zip(&grads_b) {
                assert_eq!(bits(ga), bits(gb), "param grads drift at step {step}");
            }
        }

        // Scoring: the `_into` variant equals the allocating one bitwise.
        let scores = a.score_items(&user, &item_content, &items);
        let mut scores_into = Vec::new();
        b.score_items_into(&user, &item_content, &items, &mut scores_into);
        assert_eq!(
            scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scores_into.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn backward_params_matches_backward_into_bitwise() {
        // Training skips the content-side input gradients; the parameter
        // gradients must not move, at any thread count and SIMD setting.
        // 700 rows put the embedding layers' weight-gradient products on
        // the row-parallel blocked path.
        use metadpa_tensor::pool::with_threads;
        use metadpa_tensor::simd::{self, Policy};
        let bits = |ms: Vec<Matrix>| -> Vec<Vec<u32>> {
            ms.iter().map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
        };
        let cfg = PreferenceConfig::default();
        for threads in [1, 2] {
            for policy in [Policy::ForcedScalar, Policy::Auto] {
                with_threads(threads, || {
                    simd::with_policy(policy, || {
                        let mut rng = SeededRng::new(12);
                        let mut full = PreferenceModel::new(cfg, &mut rng);
                        let mut fast = PreferenceModel::new(cfg, &mut SeededRng::new(0));
                        metadpa_nn::module::restore(
                            &mut fast,
                            &metadpa_nn::module::snapshot(&mut full),
                        );
                        zero_grad(&mut full);
                        zero_grad(&mut fast);
                        let (mut y, mut dx, mut scratch) =
                            (Matrix::default(), Matrix::default(), Matrix::default());
                        for step in 0..3 {
                            let input = rng.normal_matrix(700, 2 * cfg.content_dim);
                            let grad = rng.normal_matrix(700, 1);
                            full.forward_into(&mut input.clone(), Mode::Train, &mut y);
                            full.backward_into(&mut grad.clone(), &mut dx);
                            fast.forward_into(&mut input.clone(), Mode::Train, &mut y);
                            fast.backward_params(&mut grad.clone(), &mut scratch);
                            assert_eq!(
                                bits(metadpa_nn::module::snapshot_grads(&mut full)),
                                bits(metadpa_nn::module::snapshot_grads(&mut fast)),
                                "step {step}, threads {threads}, {policy:?}"
                            );
                        }
                    })
                });
            }
        }
    }

    #[test]
    fn embedded_scoring_is_bit_identical_to_the_full_pass() {
        // The serving fast path: precomputed item embeddings + single-row
        // user embedding must reproduce score_items_into exactly. This
        // model is small enough that every product stays below the
        // blocked kernels, so even the fused policy runs exact kernels
        // here; the next test covers blocked shapes.
        use metadpa_tensor::simd::{self, Policy};
        let mut rng = SeededRng::new(11);
        let mut model = PreferenceModel::new(small(), &mut rng);
        let item_content = rng.uniform_matrix(37, 6, -1.0, 1.0);
        let user: Vec<f32> = (0..6).map(|c| 0.3 * c as f32 - 0.9).collect();
        let items: Vec<usize> = (0..37).rev().collect();
        for policy in [Policy::ForcedScalar, Policy::Auto, Policy::Fused] {
            simd::with_policy(policy, || {
                let embeds = model.embed_items(&item_content);
                let full = model.score_items(&user, &item_content, &items);
                let mut fast = Vec::new();
                model.score_embedded_into(&user, &embeds, &items, &mut fast);
                assert_eq!(
                    full.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "fast path drifts under {policy:?}"
                );
                model.score_embedded_into(&user, &embeds, &[], &mut fast);
                assert!(fast.is_empty());
            });
        }
    }

    #[test]
    fn embedded_scoring_at_blocked_shapes_is_exact_or_within_the_fused_epsilon() {
        // Large enough that the tiled user embedding (100x48 @ 48x32)
        // takes the blocked kernels while the fast path's single user row
        // stays on the naive one. The exact kernels accumulate per row, so
        // the two agree bitwise; the fused kernels round the batch once
        // per mul-add but not the single row, so they agree only within
        // the DESIGN §14 epsilon.
        use metadpa_tensor::simd::{self, Policy};
        let config = PreferenceConfig { content_dim: 48, embed_dim: 32, hidden: [64, 32] };
        let mut rng = SeededRng::new(12);
        let mut model = PreferenceModel::new(config, &mut rng);
        let item_content = rng.uniform_matrix(100, 48, -1.0, 1.0);
        let user: Vec<f32> = (0..48).map(|c| 0.04 * c as f32 - 0.9).collect();
        let items: Vec<usize> = (0..100).rev().collect();
        for policy in [Policy::ForcedScalar, Policy::Auto, Policy::Fused] {
            simd::with_policy(policy, || {
                let embeds = model.embed_items(&item_content);
                let full = model.score_items(&user, &item_content, &items);
                let mut fast = Vec::new();
                model.score_embedded_into(&user, &embeds, &items, &mut fast);
                assert_eq!(full.len(), fast.len());
                for (i, (&x, &y)) in full.iter().zip(&fast).enumerate() {
                    if policy == Policy::Fused {
                        let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
                        assert!((x - y).abs() <= tol, "item {i}: {y} vs {x} under Fused");
                    } else {
                        assert_eq!(x.to_bits(), y.to_bits(), "item {i} drifts under {policy:?}");
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "input must be")]
    fn forward_rejects_wrong_width() {
        let mut rng = SeededRng::new(4);
        let mut model = PreferenceModel::new(small(), &mut rng);
        let _ = model.forward(&Matrix::zeros(1, 5), Mode::Train);
    }
}
