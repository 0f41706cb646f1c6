//! TDAR — Text-enhanced Domain Adaptation Recommendation
//! (Yu et al., KDD 2020).
//!
//! TDAR's premise: review-text features are *domain-invariant*, so aligning
//! users' text representations across domains adapts a collaborative model
//! to the target. Scale-down mapping:
//!
//! * the word-semantic text features → the shared bag-of-words content
//!   vectors used throughout this reproduction;
//! * the domain classifier + adversarial embedding alignment → a direct
//!   alignment loss pulling a shared user's *source-content* tower output
//!   toward their *target-content* tower output (the same fixed point the
//!   adversarial game converges to, without the minimax machinery);
//! * the collaborative scorer → a dense scorer over the aligned tower
//!   outputs.
//!
//! TDAR uses the *first* source domain only (it is a single-source method).
//! As the paper notes (§V-B), it is designed for warm-start: the text
//! alignment helps when the target user has interactions, and is unstable
//! under cold-start fine-tuning.

use metadpa_core::eval::Recommender;
use metadpa_data::adaptation::{build_adaptation_pairs, AdaptationConfig};
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::loss::mse;
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{restore, snapshot, zero_grad, Mode, Module, Params};
use metadpa_nn::optim::{Adam, Optimizer};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

use crate::common::{finetune_supervised, fit_supervised, score_pairs, SupervisedConfig};

/// TDAR hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TdarConfig {
    /// Width of the text towers.
    pub tower_dim: usize,
    /// Hidden width of the towers.
    pub tower_hidden: usize,
    /// Hidden width of the scorer.
    pub scorer_hidden: usize,
    /// Weight of the cross-domain text-alignment loss.
    pub align_weight: f32,
    /// Alignment pre-training epochs over shared users.
    pub align_epochs: usize,
    /// Supervised training schedule on target tasks.
    pub train: SupervisedConfig,
}

impl TdarConfig {
    /// Standard or reduced schedule.
    pub fn preset(fast: bool) -> Self {
        Self {
            tower_dim: if fast { 12 } else { 24 },
            tower_hidden: if fast { 24 } else { 48 },
            scorer_hidden: if fast { 16 } else { 32 },
            align_weight: 0.5,
            align_epochs: if fast { 3 } else { 10 },
            train: SupervisedConfig::preset(fast),
        }
    }
}

/// Two-tower scorer whose user tower is also the text-alignment target.
struct TdarNet {
    content_dim: usize,
    user_tower: Mlp,
    item_tower: Mlp,
    scorer: Mlp,
}

impl TdarNet {
    fn new(content_dim: usize, cfg: &TdarConfig, rng: &mut SeededRng) -> Self {
        Self {
            content_dim,
            user_tower: Mlp::new(
                &[content_dim, cfg.tower_hidden, cfg.tower_dim],
                Activation::Relu,
                rng,
            ),
            item_tower: Mlp::new(
                &[content_dim, cfg.tower_hidden, cfg.tower_dim],
                Activation::Relu,
                rng,
            ),
            scorer: Mlp::new(&[2 * cfg.tower_dim, cfg.scorer_hidden, 1], Activation::Relu, rng),
        }
    }
}

impl Params for TdarNet {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.user_tower.visit_params(visitor);
        self.item_tower.visit_params(visitor);
        self.scorer.visit_params(visitor);
    }
}

impl Module for TdarNet {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        let (cu, ci) = input.hsplit(self.content_dim);
        let eu = self.user_tower.forward(&cu, mode);
        let ei = self.item_tower.forward(&ci, mode);
        self.scorer.forward(&eu.hstack(&ei), mode)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let d = self.scorer.backward(grad_output);
        let (deu, dei) = d.hsplit(self.user_tower.out_dim());
        let dcu = self.user_tower.backward(&deu);
        let dci = self.item_tower.backward(&dei);
        dcu.hstack(&dci)
    }
}

/// The TDAR recommender.
pub struct Tdar {
    config: TdarConfig,
    seed: u64,
    net: Option<TdarNet>,
}

impl Tdar {
    /// Creates an unfitted TDAR.
    pub fn new(config: TdarConfig, seed: u64) -> Self {
        Self { config, seed, net: None }
    }

    fn net_mut(&mut self) -> &mut TdarNet {
        self.net.as_mut().expect("Tdar: call fit first")
    }

    /// Cross-domain text alignment on the first source's shared users: pull
    /// `tower(x_source)` toward `tower(x_target)` (target side treated as
    /// the fixed anchor per step).
    fn align_towers(&mut self, world: &World) {
        let cfg = self.config;
        let pairs = build_adaptation_pairs(world, &AdaptationConfig::default());
        let Some(pair) = pairs.first() else { return };
        if pair.n_shared() < 2 {
            return;
        }
        let net = self.net.as_mut().expect("align after net construction");
        let mut opt = Adam::new(cfg.train.lr);
        for _ in 0..cfg.align_epochs {
            // Anchor: target-content embeddings under the current tower.
            let anchor = net.user_tower.forward(&pair.target_content, Mode::Eval);
            zero_grad(net);
            let source_emb = net.user_tower.forward(&pair.source_content, Mode::Train);
            let (_, grad) = mse(&source_emb, &anchor);
            let _ = net.user_tower.backward(&grad.scale(cfg.align_weight));
            opt.step(&mut net.user_tower);
        }
    }
}

impl Recommender for Tdar {
    fn name(&self) -> String {
        "TDAR".into()
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let mut rng = SeededRng::new(self.seed);
        let net = TdarNet::new(world.target.user_content.cols(), &self.config, &mut rng);
        self.net = Some(net);
        // Text alignment first (domain adaptation), then supervised CF.
        self.align_towers(world);
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

    #[test]
    fn alignment_pulls_shared_user_embeddings_together() {
        // World seed pinned to the in-tree xoshiro256++ streams.
        let w = generate_world(&tiny_world(105));
        let mut model = Tdar::new(TdarConfig::preset(true), 1);
        let mut rng = SeededRng::new(1);
        model.net = Some(TdarNet::new(w.target.user_content.cols(), &model.config, &mut rng));
        let pairs = build_adaptation_pairs(&w, &AdaptationConfig::default());
        let pair = &pairs[0];
        let dist = |net: &mut TdarNet| {
            let a = net.user_tower.forward(&pair.source_content, Mode::Eval);
            let b = net.user_tower.forward(&pair.target_content, Mode::Eval);
            (&a - &b).frobenius_norm()
        };
        let before = dist(model.net.as_mut().unwrap());
        model.config.align_epochs = 20;
        model.align_towers(&w);
        let after = dist(model.net.as_mut().unwrap());
        assert!(after < before, "alignment should shrink the gap: {before} -> {after}");
    }

    #[test]
    fn tdar_beats_chance_on_warm_start() {
        let w = generate_world(&tiny_world(102));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let mut model = Tdar::new(TdarConfig::preset(true), 2);
        model.fit(&w, &warm);
        let s = evaluate_scenario(&mut model, &w, &warm, 10);
        assert!(s.auc > 0.5, "warm AUC {}", s.auc);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let w = generate_world(&tiny_world(103));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = Tdar::new(TdarConfig::preset(true), 3);
        model.fit(&w, &warm);
        let user = cu.eval[0].user;
        let items: Vec<usize> = (0..5).collect();
        let before = model.score(&w.target, user, &items);
        let state = model.snapshot_state();
        model.fine_tune(&cu.finetune_tasks, &w.target);
        model.restore_state(&state);
        assert_eq!(before, model.score(&w.target, user, &items));
    }
}
