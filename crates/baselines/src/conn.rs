//! CoNN (DeepCoNN) — Deep Cooperative Neural Networks
//! (Zheng et al., WSDM 2017).
//!
//! Two *parallel* networks — one learning user behaviour from the user's
//! reviews, one learning item properties from the item's reviews — coupled
//! by a shared top layer. Scale-down: the original's word-embedding + CNN
//! text towers become dense towers over the same bag-of-words review
//! vectors every system in this reproduction consumes (the CNN exists to
//! *produce* such a text representation); the original's factorization
//! machine on the shared layer becomes a dense scorer over the
//! concatenated tower outputs.
//!
//! CoNN is a plain supervised model: no meta-learning, no cross-domain
//! signal. Its content path lets it generalize to cold users/items far
//! better than NeuMF, but it cannot adapt per-user from support ratings
//! beyond a few generic SGD steps — the family behaviour the paper's
//! Table III reflects.

use metadpa_core::eval::Recommender;
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{restore, snapshot, Mode, Module, Params};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

use crate::common::{finetune_supervised, fit_supervised, score_pairs, SupervisedConfig};

/// CoNN hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct ConnConfig {
    /// Output width of each review tower.
    pub tower_dim: usize,
    /// Hidden width of each tower.
    pub tower_hidden: usize,
    /// Hidden width of the shared coupling layer.
    pub shared_hidden: usize,
    /// Supervised training schedule.
    pub train: SupervisedConfig,
}

impl ConnConfig {
    /// Standard or reduced schedule.
    pub fn preset(fast: bool) -> Self {
        Self {
            tower_dim: if fast { 12 } else { 24 },
            tower_hidden: if fast { 24 } else { 48 },
            shared_hidden: if fast { 16 } else { 32 },
            train: SupervisedConfig::preset(fast),
        }
    }
}

/// The two-tower network. Input: `[c_u ; c_i]` rows; output: one logit.
struct ConnNet {
    content_dim: usize,
    user_tower: Mlp,
    item_tower: Mlp,
    shared: Mlp,
}

impl ConnNet {
    fn new(content_dim: usize, cfg: &ConnConfig, rng: &mut SeededRng) -> Self {
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
            shared: Mlp::new(&[2 * cfg.tower_dim, cfg.shared_hidden, 1], Activation::Relu, rng),
        }
    }
}

impl Params for ConnNet {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.user_tower.visit_params(visitor);
        self.item_tower.visit_params(visitor);
        self.shared.visit_params(visitor);
    }
}

impl Module for ConnNet {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        let (cu, ci) = input.hsplit(self.content_dim);
        let eu = self.user_tower.forward(&cu, mode);
        let ei = self.item_tower.forward(&ci, mode);
        self.shared.forward(&eu.hstack(&ei), mode)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let d_shared = self.shared.backward(grad_output);
        let (deu, dei) = d_shared.hsplit(self.user_tower.out_dim());
        let dcu = self.user_tower.backward(&deu);
        let dci = self.item_tower.backward(&dei);
        dcu.hstack(&dci)
    }
}

/// The CoNN recommender.
pub struct Conn {
    config: ConnConfig,
    seed: u64,
    net: Option<ConnNet>,
}

impl Conn {
    /// Creates an unfitted CoNN.
    pub fn new(config: ConnConfig, seed: u64) -> Self {
        Self { config, seed, net: None }
    }

    fn net_mut(&mut self) -> &mut ConnNet {
        self.net.as_mut().expect("Conn: call fit first")
    }
}

impl Recommender for Conn {
    fn name(&self) -> String {
        "CoNN".into()
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let mut rng = SeededRng::new(self.seed);
        let mut net = ConnNet::new(world.target.user_content.cols(), &self.config, &mut rng);
        let _ = fit_supervised(
            &mut net,
            &scenario.train_tasks,
            &world.target.user_content,
            &world.target.item_content,
            &self.config.train,
        );
        self.net = Some(net);
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
    fn conn_net_gradients_verify() {
        let mut rng = SeededRng::new(1);
        let cfg = ConnConfig {
            tower_dim: 4,
            tower_hidden: 6,
            shared_hidden: 5,
            train: SupervisedConfig::preset(true),
        };
        let mut net = ConnNet::new(5, &cfg, &mut rng);
        let input = rng.normal_matrix(3, 10);
        let upstream = rng.normal_matrix(3, 1);
        let report = check_module(&mut net, &input, &upstream, 1e-2);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn conn_generalizes_to_cold_items_via_content() {
        let w = generate_world(&tiny_world(81));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let ci = sp.scenario(ScenarioKind::ColdItem);
        let mut model = Conn::new(ConnConfig::preset(true), 2);
        model.fit(&w, &warm);
        let s = evaluate_scenario(&mut model, &w, &ci, 10);
        assert!(s.auc > 0.5, "C-I AUC {} should beat chance through content", s.auc);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let w = generate_world(&tiny_world(82));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = Conn::new(ConnConfig::preset(true), 3);
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
