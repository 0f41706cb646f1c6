//! DAML — Dual Attention Mutual Learning between ratings and reviews
//! (Liu et al., KDD 2019).
//!
//! DAML extends the CoNN-style two-tower review model with *local* and
//! *mutual* attention between the user-side and item-side review features
//! before a neural-factorization-machine scorer. Scale-down mapping:
//!
//! * local attention → a per-side sigmoid gate computed from that side's
//!   own features (`g_u = σ(W_l e_u)`, applied multiplicatively);
//! * mutual attention → a cross-side gate computed from the *other* side's
//!   features (`m_u = σ(W_m e_i)`), so each side's representation is
//!   re-weighted by what the other side talks about — the mechanism that
//!   gives DAML its edge over CoNN;
//! * the NFM second-order pooling → an elementwise product feature
//!   `e_u ⊙ e_i` concatenated into the final scorer input.
//!
//! Like CoNN, DAML is plain supervised (no meta-learning, no cross-domain
//! transfer).

use metadpa_core::eval::Recommender;
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::dense::Dense;
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{restore, snapshot, Mode, Module, Params};
use metadpa_nn::param::Param;
use metadpa_tensor::{Matrix, SeededRng};

use crate::common::{finetune_supervised, fit_supervised, score_pairs, SupervisedConfig};

/// DAML hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct DamlConfig {
    /// Width of each review tower's output.
    pub tower_dim: usize,
    /// Hidden width of each tower.
    pub tower_hidden: usize,
    /// Hidden width of the final scorer.
    pub scorer_hidden: usize,
    /// Supervised training schedule.
    pub train: SupervisedConfig,
}

impl DamlConfig {
    /// Standard or reduced schedule.
    pub fn preset(fast: bool) -> Self {
        Self {
            tower_dim: if fast { 12 } else { 24 },
            tower_hidden: if fast { 24 } else { 48 },
            scorer_hidden: if fast { 16 } else { 32 },
            train: SupervisedConfig::preset(fast),
        }
    }
}

/// Sigmoid gate helper: `g = σ(W x + b)`, `y = x_target ⊙ g`, with full
/// backward through both the gate and the gated features.
struct Gate {
    dense: Dense,
    cached_gate: Option<Matrix>,
    cached_target: Option<Matrix>,
}

impl Gate {
    fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        Self { dense: Dense::new(in_dim, out_dim, rng), cached_gate: None, cached_target: None }
    }

    /// `target ⊙ σ(dense(source))`.
    fn forward(&mut self, source: &Matrix, target: &Matrix, mode: Mode) -> Matrix {
        let gate = self.dense.forward(source, mode).map(metadpa_nn::activation::sigmoid);
        let out = target.hadamard(&gate);
        self.cached_gate = Some(gate);
        self.cached_target = Some(target.clone());
        out
    }

    /// Returns `(d_source, d_target)`.
    fn backward(&mut self, grad: &Matrix) -> (Matrix, Matrix) {
        let gate = self.cached_gate.take().expect("Gate::backward before forward");
        let target = self.cached_target.take().expect("Gate::backward before forward");
        let d_target = grad.hadamard(&gate);
        // d pre-sigmoid = grad ⊙ target ⊙ g(1-g).
        let d_pre = grad.hadamard(&target).zip_map(&gate, |v, g| v * g * (1.0 - g));
        let d_source = self.dense.backward(&d_pre);
        (d_source, d_target)
    }
}

/// The DAML network. Input `[c_u ; c_i]`, output one logit.
struct DamlNet {
    content_dim: usize,
    tower_dim: usize,
    user_tower: Mlp,
    item_tower: Mlp,
    /// Local gates: each side attends to itself.
    local_u: Gate,
    local_i: Gate,
    /// Mutual gates: each side is re-weighted by the other side.
    mutual_u: Gate,
    mutual_i: Gate,
    scorer: Mlp,
    cache: Option<DamlCache>,
}

impl DamlNet {
    fn new(content_dim: usize, cfg: &DamlConfig, rng: &mut SeededRng) -> Self {
        let d = cfg.tower_dim;
        Self {
            content_dim,
            tower_dim: d,
            user_tower: Mlp::new(&[content_dim, cfg.tower_hidden, d], Activation::Relu, rng),
            item_tower: Mlp::new(&[content_dim, cfg.tower_hidden, d], Activation::Relu, rng),
            local_u: Gate::new(d, d, rng),
            local_i: Gate::new(d, d, rng),
            mutual_u: Gate::new(d, d, rng),
            mutual_i: Gate::new(d, d, rng),
            // Scorer sees [u_att ; i_att ; u_att ⊙ i_att].
            scorer: Mlp::new(&[3 * d, cfg.scorer_hidden, 1], Activation::Relu, rng),
            cache: None,
        }
    }
}

struct DamlCache {
    u_att: Matrix,
    i_att: Matrix,
}

impl Params for DamlNet {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.user_tower.visit_params(visitor);
        self.item_tower.visit_params(visitor);
        self.local_u.dense.visit_params(visitor);
        self.local_i.dense.visit_params(visitor);
        self.mutual_u.dense.visit_params(visitor);
        self.mutual_i.dense.visit_params(visitor);
        self.scorer.visit_params(visitor);
    }
}

impl Module for DamlNet {
    fn forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
        let (cu, ci) = input.hsplit(self.content_dim);
        let eu = self.user_tower.forward(&cu, mode);
        let ei = self.item_tower.forward(&ci, mode);
        // Local attention: self-gating.
        let eu_l = self.local_u.forward(&eu, &eu, mode);
        let ei_l = self.local_i.forward(&ei, &ei, mode);
        // Mutual attention: gate each side by the other.
        let u_att = self.mutual_u.forward(&ei_l, &eu_l, mode);
        let i_att = self.mutual_i.forward(&eu_l, &ei_l, mode);
        let second_order = u_att.hadamard(&i_att);
        let features = u_att.hstack(&i_att).hstack(&second_order);
        self.cache = Some(DamlCache { u_att, i_att });
        self.scorer.forward(&features, mode)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("DamlNet::backward before forward");
        let d = self.tower_dim;
        let d_features = self.scorer.backward(grad_output);
        let (d_ui, d_so) = d_features.hsplit(2 * d);
        let (mut d_u_att, mut d_i_att) = d_ui.hsplit(d);
        // second_order = u_att ⊙ i_att.
        d_u_att.add_inplace(&d_so.hadamard(&cache.i_att));
        d_i_att.add_inplace(&d_so.hadamard(&cache.u_att));
        // Mutual gates.
        let (d_ei_l_from_u, d_eu_l_1) = self.mutual_u.backward(&d_u_att);
        let (d_eu_l_from_i, d_ei_l_1) = self.mutual_i.backward(&d_i_att);
        let d_eu_l = &d_eu_l_1 + &d_eu_l_from_i;
        let d_ei_l = &d_ei_l_1 + &d_ei_l_from_u;
        // Local gates: source == target == e, so both gradients add.
        let (d_eu_a, d_eu_b) = self.local_u.backward(&d_eu_l);
        let (d_ei_a, d_ei_b) = self.local_i.backward(&d_ei_l);
        let d_eu = &d_eu_a + &d_eu_b;
        let d_ei = &d_ei_a + &d_ei_b;
        let d_cu = self.user_tower.backward(&d_eu);
        let d_ci = self.item_tower.backward(&d_ei);
        d_cu.hstack(&d_ci)
    }
}

/// The DAML recommender.
pub struct Daml {
    config: DamlConfig,
    seed: u64,
    net: Option<DamlNet>,
}

impl Daml {
    /// Creates an unfitted DAML.
    pub fn new(config: DamlConfig, seed: u64) -> Self {
        Self { config, seed, net: None }
    }

    fn net_mut(&mut self) -> &mut DamlNet {
        self.net.as_mut().expect("Daml: call fit first")
    }
}

impl Recommender for Daml {
    fn name(&self) -> String {
        "DAML".into()
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let mut rng = SeededRng::new(self.seed);
        let mut net = DamlNet::new(world.target.user_content.cols(), &self.config, &mut rng);
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
    fn daml_net_gradients_verify() {
        let mut rng = SeededRng::new(1);
        let cfg = DamlConfig {
            tower_dim: 4,
            tower_hidden: 6,
            scorer_hidden: 5,
            train: SupervisedConfig::preset(true),
        };
        let mut net = DamlNet::new(5, &cfg, &mut rng);
        let input = rng.normal_matrix(3, 10);
        let upstream = rng.normal_matrix(3, 1);
        let report = check_module(&mut net, &input, &upstream, 1e-2);
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn daml_beats_chance_on_warm_and_cold_item() {
        let w = generate_world(&tiny_world(91));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let ci = sp.scenario(ScenarioKind::ColdItem);
        // The fast preset is tuned for smoke speed; give the gated model a
        // few more epochs so the content signal reliably beats chance.
        let mut cfg = DamlConfig::preset(true);
        cfg.train.epochs = 10;
        let mut model = Daml::new(cfg, 2);
        model.fit(&w, &warm);
        let warm_auc = evaluate_scenario(&mut model, &w, &warm, 10).auc;
        let ci_auc = evaluate_scenario(&mut model, &w, &ci, 10).auc;
        assert!(warm_auc > 0.5, "warm AUC {warm_auc}");
        assert!(ci_auc > 0.5, "C-I AUC {ci_auc}");
    }

    #[test]
    fn gate_backward_requires_forward() {
        let mut rng = SeededRng::new(3);
        let mut gate = Gate::new(3, 3, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = gate.backward(&Matrix::zeros(1, 3));
        }));
        assert!(result.is_err());
    }
}
