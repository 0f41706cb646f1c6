//! CATN — Cross-domain recommendation via Aspect Transfer Network for
//! cold-start users (Zhao et al., SIGIR 2020).
//!
//! CATN extracts *aspects* from review text on each side and scores a
//! user-item pair by aspect-level matching, transferring aspect
//! correspondences across domains through shared users. Scale-down:
//!
//! * aspect extraction → a linear map + softmax from the bag-of-words
//!   content to `n_aspects` (the original's attention over review chunks
//!   produces exactly such a mixture);
//! * aspect matching → a learned bilinear form `s = a_uᵀ M a_i + b`;
//! * cross-domain aspect transfer → an alignment loss making the shared
//!   extractor produce consistent aspect mixtures for the same person's
//!   source and target reviews, so a cold user's aspects are meaningful
//!   from content alone (CATN's cold-start-user mechanism).

use metadpa_core::eval::Recommender;
use metadpa_data::adaptation::{build_adaptation_pairs, AdaptationConfig};
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::activation::Softmax;
use metadpa_nn::dense::Dense;
use metadpa_nn::loss::mse;
use metadpa_nn::module::{restore, snapshot, zero_grad, Mode, Module, Params};
use metadpa_nn::optim::{Adam, Optimizer};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

use crate::common::{finetune_supervised, fit_supervised, score_pairs, SupervisedConfig};

/// CATN hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct CatnConfig {
    /// Number of latent aspects.
    pub n_aspects: usize,
    /// Weight of the cross-domain aspect-alignment loss.
    pub align_weight: f32,
    /// Aspect-alignment epochs over shared users.
    pub align_epochs: usize,
    /// Supervised training schedule on target tasks.
    pub train: SupervisedConfig,
}

impl CatnConfig {
    /// Standard or reduced schedule.
    pub fn preset(fast: bool) -> Self {
        Self {
            n_aspects: if fast { 6 } else { 10 },
            align_weight: 0.5,
            align_epochs: if fast { 3 } else { 10 },
            train: SupervisedConfig::preset(fast),
        }
    }
}

/// Aspect extraction + bilinear matching. Input `[c_u ; c_i]`, output one
/// logit per row.
struct CatnNet {
    content_dim: usize,
    n_aspects: usize,
    user_extractor: Dense,
    item_extractor: Dense,
    user_softmax: Softmax,
    item_softmax: Softmax,
    /// Bilinear aspect-matching matrix `M` (`n_aspects x n_aspects`).
    matching: Param,
    /// Scalar bias.
    bias: Param,
    cache: Option<CatnCache>,
}

struct CatnCache {
    a_u: Matrix,
    a_i: Matrix,
}

impl CatnNet {
    fn new(content_dim: usize, n_aspects: usize, rng: &mut SeededRng) -> Self {
        Self {
            content_dim,
            n_aspects,
            user_extractor: Dense::new(content_dim, n_aspects, rng),
            item_extractor: Dense::new(content_dim, n_aspects, rng),
            user_softmax: Softmax::new(),
            item_softmax: Softmax::new(),
            matching: Param::new(rng.normal_matrix(n_aspects, n_aspects).scale(0.3)),
            bias: Param::zeros(1, 1),
            cache: None,
        }
    }

    /// Aspect mixture of user content rows.
    fn user_aspects(&mut self, cu: &Matrix, mode: Mode) -> Matrix {
        let logits = self.user_extractor.forward(cu, mode);
        self.user_softmax.forward(&logits, mode)
    }
}

impl Params for CatnNet {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.user_extractor.visit_params(visitor);
        self.item_extractor.visit_params(visitor);
        visitor(&mut self.matching);
        visitor(&mut self.bias);
    }
}

impl Module for CatnNet {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        let (cu, ci) = input.hsplit(self.content_dim);
        let a_u = self.user_aspects(&cu, mode);
        let a_i = self.item_softmax.forward(&self.item_extractor.forward(&ci, mode), mode);
        // Row-wise bilinear score s_r = a_u[r] M a_i[r]^T + b.
        let proj = a_u.matmul(&self.matching.value); // n x A
        let mut out = Matrix::zeros(input.rows(), 1);
        for r in 0..input.rows() {
            let s: f32 = proj.row(r).iter().zip(a_i.row(r).iter()).map(|(&p, &a)| p * a).sum();
            out.set(r, 0, s + self.bias.value.get(0, 0));
        }
        self.cache = Some(CatnCache { a_u, a_i });
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("CatnNet::backward before forward");
        let n = grad_output.rows();
        let a = self.n_aspects;
        // d bias.
        let gsum: f32 = grad_output.as_slice().iter().sum();
        self.bias.grad.set(0, 0, self.bias.grad.get(0, 0) + gsum);
        // Per-row: s = a_u M a_i^T.
        // d a_u = g * (M a_i); d a_i = g * (M^T a_u); dM += g * a_u^T a_i.
        let mut d_au = Matrix::zeros(n, a);
        let mut d_ai = Matrix::zeros(n, a);
        for r in 0..n {
            let g = grad_output.get(r, 0);
            if g == 0.0 {
                continue;
            }
            let au = cache.a_u.row(r);
            let ai = cache.a_i.row(r);
            for p in 0..a {
                let mut acc_u = 0.0f32;
                let mut acc_i = 0.0f32;
                for q in 0..a {
                    acc_u += self.matching.value.get(p, q) * ai[q];
                    acc_i += self.matching.value.get(q, p) * au[q];
                    // dM[p][q] += g * au[p] * ai[q] handled below.
                }
                d_au.set(r, p, g * acc_u);
                d_ai.set(r, p, g * acc_i);
            }
            for (p, &au_p) in au.iter().enumerate() {
                for (q, &ai_q) in ai.iter().enumerate() {
                    let cur = self.matching.grad.get(p, q);
                    self.matching.grad.set(p, q, cur + g * au_p * ai_q);
                }
            }
        }
        let d_au_logits = self.user_softmax.backward(&d_au);
        let d_ai_logits = self.item_softmax.backward(&d_ai);
        let d_cu = self.user_extractor.backward(&d_au_logits);
        let d_ci = self.item_extractor.backward(&d_ai_logits);
        d_cu.hstack(&d_ci)
    }
}

/// The CATN recommender.
pub struct Catn {
    config: CatnConfig,
    seed: u64,
    net: Option<CatnNet>,
}

impl Catn {
    /// Creates an unfitted CATN.
    pub fn new(config: CatnConfig, seed: u64) -> Self {
        Self { config, seed, net: None }
    }

    fn net_mut(&mut self) -> &mut CatnNet {
        self.net.as_mut().expect("Catn: call fit first")
    }

    /// Cross-domain aspect alignment over every source's shared users.
    fn align_aspects(&mut self, world: &World) {
        let cfg = self.config;
        let pairs = build_adaptation_pairs(world, &AdaptationConfig::default());
        let net = self.net.as_mut().expect("align after net construction");
        let mut opt = Adam::new(cfg.train.lr);
        for _ in 0..cfg.align_epochs {
            for pair in &pairs {
                if pair.n_shared() < 2 {
                    continue;
                }
                let anchor = net.user_aspects(&pair.target_content, Mode::Eval);
                zero_grad(net);
                let source_aspects = net.user_aspects(&pair.source_content, Mode::Train);
                let (_, grad) = mse(&source_aspects, &anchor);
                let d_logits = net.user_softmax.backward(&grad.scale(cfg.align_weight));
                let _ = net.user_extractor.backward(&d_logits);
                opt.step(&mut net.user_extractor);
            }
        }
    }
}

impl Recommender for Catn {
    fn name(&self) -> String {
        "CATN".into()
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let mut rng = SeededRng::new(self.seed);
        self.net =
            Some(CatnNet::new(world.target.user_content.cols(), self.config.n_aspects, &mut rng));
        self.align_aspects(world);
        let cfg = self.config.train;
        let _ = fit_supervised(
            self.net_mut(),
            &scenario.train_tasks,
            &world.target.user_content,
            &world.target.item_content,
            &cfg,
        );
    }

    fn fine_tune(&mut self, tasks: &[Task], domain: &Domain) {
        let cfg = self.config.train;
        finetune_supervised(
            self.net_mut(),
            tasks,
            &domain.user_content,
            &domain.item_content,
            &cfg,
        );
    }

    fn score(&mut self, domain: &Domain, user: usize, items: &[usize]) -> Vec<f32> {
        let uc: Vec<f32> = domain.user_content.row(user).to_vec();
        score_pairs(self.net_mut(), &uc, &domain.item_content, items)
    }

    fn snapshot_state(&mut self) -> Vec<Matrix> {
        snapshot(self.net_mut())
    }

    fn restore_state(&mut self, state: &[Matrix]) {
        restore(self.net_mut(), state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_core::eval::evaluate_scenario;
    use metadpa_data::generator::generate_world;
    use metadpa_data::presets::tiny_world;
    use metadpa_data::splits::{ScenarioKind, SplitConfig, Splitter};
    use metadpa_nn::grad_check::check_module;

    #[test]
    fn catn_net_gradients_verify() {
        let mut rng = SeededRng::new(1);
        let mut net = CatnNet::new(5, 4, &mut rng);
        let input = rng.normal_matrix(3, 10);
        let upstream = rng.normal_matrix(3, 1);
        let report = check_module(&mut net, &input, &upstream, 1e-2);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn aspects_are_distributions() {
        let mut rng = SeededRng::new(2);
        let mut net = CatnNet::new(6, 5, &mut rng);
        let cu = rng.uniform_matrix(4, 6, 0.0, 1.0);
        let aspects = net.user_aspects(&cu, Mode::Eval);
        for r in 0..4 {
            let total: f32 = aspects.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
            assert!(aspects.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn alignment_makes_cross_domain_aspects_consistent() {
        let w = generate_world(&tiny_world(111));
        let mut model = Catn::new(CatnConfig::preset(true), 3);
        let mut rng = SeededRng::new(3);
        model.net = Some(CatnNet::new(w.target.user_content.cols(), 6, &mut rng));
        let pairs = build_adaptation_pairs(&w, &AdaptationConfig::default());
        let gap = |net: &mut CatnNet| {
            let a = net.user_aspects(&pairs[0].source_content, Mode::Eval);
            let b = net.user_aspects(&pairs[0].target_content, Mode::Eval);
            (&a - &b).frobenius_norm()
        };
        let before = gap(model.net.as_mut().unwrap());
        model.config.align_epochs = 15;
        model.align_aspects(&w);
        let after = gap(model.net.as_mut().unwrap());
        assert!(after < before, "aspect gap should shrink: {before} -> {after}");
    }

    #[test]
    fn catn_beats_chance_on_warm() {
        let w = generate_world(&tiny_world(112));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let mut model = Catn::new(CatnConfig::preset(true), 4);
        model.fit(&w, &warm);
        let s = evaluate_scenario(&mut model, &w, &warm, 10);
        assert!(s.auc > 0.5, "warm AUC {}", s.auc);
    }
}
