//! NeuMF — Neural collaborative filtering (He et al., WWW 2017).
//!
//! The GMF ⊕ MLP fusion over user/item *id* embeddings, exactly as in the
//! original, with one scale-down: embedding and layer sizes are reduced to
//! the synthetic catalogue scale.
//!
//! NeuMF is the paper's pure-CF baseline: it sees no content at all, so a
//! cold-start user or item keeps its random initial embedding and the
//! model scores near chance in the C-U / C-I / C-UI settings — the
//! behaviour Table III shows (AUC ≈ 0.50-0.54 for NeuMF under cold-start).

use metadpa_core::eval::Recommender;
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::loss::bce_with_logits;
use metadpa_nn::mlp::{Activation, Mlp};
use metadpa_nn::module::{Mode, Module, Params};
use metadpa_nn::optim::{Adam, Sgd};
use metadpa_nn::Embedding;
use metadpa_tensor::{Matrix, SeededRng};

/// NeuMF hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct NeuMfConfig {
    /// GMF / MLP embedding size per side.
    pub embed_dim: usize,
    /// Hidden widths of the MLP branch.
    pub hidden: [usize; 2],
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Fine-tune SGD learning rate (updates embeddings of support users).
    pub finetune_lr: f32,
    /// Fine-tune steps.
    pub finetune_steps: usize,
}

impl NeuMfConfig {
    /// Standard or reduced schedule.
    pub fn preset(fast: bool) -> Self {
        Self {
            embed_dim: 16,
            hidden: [32, 16],
            epochs: if fast { 4 } else { 15 },
            lr: 2e-3,
            finetune_lr: 0.05,
            finetune_steps: if fast { 3 } else { 5 },
        }
    }
}

/// The NeuMF model: id embeddings, a GMF branch, an MLP branch, and a
/// fusion layer.
pub struct NeuMf {
    config: NeuMfConfig,
    seed: u64,
    state: Option<State>,
}

struct State {
    user_gmf: Embedding,
    item_gmf: Embedding,
    user_mlp: Embedding,
    item_mlp: Embedding,
    mlp: Mlp,
    /// Fusion weights over `[gmf_dim + mlp_out]` features.
    fusion: Mlp,
}

impl State {
    fn new(n_users: usize, n_items: usize, cfg: &NeuMfConfig, rng: &mut SeededRng) -> Self {
        Self {
            user_gmf: Embedding::new(n_users, cfg.embed_dim, rng),
            item_gmf: Embedding::new(n_items, cfg.embed_dim, rng),
            user_mlp: Embedding::new(n_users, cfg.embed_dim, rng),
            item_mlp: Embedding::new(n_items, cfg.embed_dim, rng),
            mlp: Mlp::new(
                &[2 * cfg.embed_dim, cfg.hidden[0], cfg.hidden[1]],
                Activation::Relu,
                rng,
            ),
            fusion: Mlp::new(&[cfg.embed_dim + cfg.hidden[1], 1], Activation::Relu, rng),
        }
    }

    /// Forward for one user against many items. Returns per-item logits.
    fn forward(&mut self, user: usize, items: &[usize], mode: Mode) -> Matrix {
        let n = items.len();
        let users = vec![user; n];
        let ug = self.user_gmf.forward(&users);
        let ig = self.item_gmf.forward(items);
        let gmf = ug.hadamard(&ig);
        let um = self.user_mlp.forward(&users);
        let im = self.item_mlp.forward(items);
        let mlp_out = self.mlp.forward(&um.hstack(&im), mode);
        self.fusion.forward(&gmf.hstack(&mlp_out), mode)
    }

    /// Backward matching the latest forward.
    fn backward(&mut self, grad_logits: &Matrix, embed_dim: usize) {
        let d_fusion_in = self.fusion.backward(grad_logits);
        let (d_gmf, d_mlp_out) = d_fusion_in.hsplit(embed_dim);
        let d_mlp_in = self.mlp.backward(&d_mlp_out);
        let (d_um, d_im) = d_mlp_in.hsplit(embed_dim);
        self.user_mlp.backward(&d_um);
        self.item_mlp.backward(&d_im);
        // GMF: out = ug ⊙ ig.
        let ug = self.user_gmf_cached();
        let ig = self.item_gmf_cached();
        self.user_gmf.backward(&d_gmf.hadamard(&ig));
        self.item_gmf.backward(&d_gmf.hadamard(&ug));
    }

    fn user_gmf_cached(&mut self) -> Matrix {
        // Embedding caches indices, not outputs; re-gather deterministically.
        // (Cheap: a row gather.)
        self.user_gmf.refetch()
    }

    fn item_gmf_cached(&mut self) -> Matrix {
        self.item_gmf.refetch()
    }

    fn visit_all(&mut self, f: &mut dyn FnMut(&mut metadpa_nn::Param)) {
        f(self.user_gmf.param_mut());
        f(self.item_gmf.param_mut());
        f(self.user_mlp.param_mut());
        f(self.item_mlp.param_mut());
        self.mlp.visit_params(f);
        self.fusion.visit_params(f);
    }

    /// Only the user-side embedding tables: cold-start fine-tuning adapts
    /// the new user's representation while leaving the trained item
    /// embeddings and interaction networks intact (the standard test-time
    /// adaptation for id-embedding CF; letting one user's handful of
    /// sampled negatives rewrite the item tables would memorize the
    /// candidate pool rather than learn the user).
    fn visit_user_embeddings(&mut self, f: &mut dyn FnMut(&mut metadpa_nn::Param)) {
        f(self.user_gmf.param_mut());
        f(self.user_mlp.param_mut());
    }
}

impl NeuMf {
    /// Creates an unfitted NeuMF.
    pub fn new(config: NeuMfConfig, seed: u64) -> Self {
        Self { config, seed, state: None }
    }

    fn train_examples(
        &mut self,
        tasks: &[Task],
        epochs: usize,
        lr_adam: Option<&mut Adam>,
        sgd: Option<(&Sgd, bool)>,
        rng: &mut SeededRng,
    ) {
        let cfg = self.config;
        let state = self.state.as_mut().expect("NeuMf: fit first");
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        let mut adam = lr_adam;
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for &idx in &order {
                let task = &tasks[idx];
                let examples: Vec<(usize, f32)> =
                    task.support.iter().chain(task.query.iter()).copied().collect();
                if examples.is_empty() {
                    continue;
                }
                let items: Vec<usize> = examples.iter().map(|&(i, _)| i).collect();
                let labels =
                    Matrix::from_vec(examples.len(), 1, examples.iter().map(|&(_, l)| l).collect());
                state.visit_all(&mut |p| p.zero_grad());
                let logits = state.forward(task.user, &items, Mode::Train);
                let (_, grad) = bce_with_logits(&logits, &labels);
                state.backward(&grad, cfg.embed_dim);
                match (&mut adam, sgd) {
                    (Some(a), _) => {
                        let mut slot = 0;
                        let t = a.next_step();
                        // Manual visit because Embedding is outside Module.
                        state.visit_all(&mut |p| {
                            a.step_param_slot(p, slot, t);
                            slot += 1;
                        });
                    }
                    (None, Some((s, user_side_only))) => {
                        if user_side_only {
                            state.visit_user_embeddings(&mut |p| s.step_param(p));
                        } else {
                            state.visit_all(&mut |p| s.step_param(p));
                        }
                    }
                    (None, None) => unreachable!("one optimizer must be provided"),
                }
            }
        }
    }
}

impl Recommender for NeuMf {
    fn name(&self) -> String {
        "NeuMF".into()
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let mut rng = SeededRng::new(self.seed);
        self.state = Some(State::new(
            world.target.n_users(),
            world.target.n_items(),
            &self.config,
            &mut rng,
        ));
        let mut adam = Adam::new(self.config.lr);
        let tasks = scenario.train_tasks.clone();
        self.train_examples(&tasks, self.config.epochs, Some(&mut adam), None, &mut rng);
    }

    fn fine_tune(&mut self, tasks: &[Task], _domain: &Domain) {
        let mut rng = SeededRng::new(self.seed ^ 0xF1);
        let sgd = Sgd::new(self.config.finetune_lr);
        let support_only: Vec<Task> = tasks
            .iter()
            .map(|t| Task { user: t.user, support: t.support.clone(), query: Vec::new() })
            .collect();
        self.train_examples(
            &support_only,
            self.config.finetune_steps,
            None,
            Some((&sgd, true)),
            &mut rng,
        );
    }

    fn score(&mut self, _domain: &Domain, user: usize, items: &[usize]) -> Vec<f32> {
        let state = self.state.as_mut().expect("NeuMf: fit before score");
        state.forward(user, items, Mode::Eval).into_vec()
    }

    fn snapshot_state(&mut self) -> Vec<Matrix> {
        let state = self.state.as_mut().expect("NeuMf: fit before snapshot");
        let mut out = Vec::new();
        state.visit_all(&mut |p| out.push(p.value.clone()));
        out
    }

    fn restore_state(&mut self, saved: &[Matrix]) {
        let state = self.state.as_mut().expect("NeuMf: fit before restore");
        let mut idx = 0;
        state.visit_all(&mut |p| {
            p.value = saved[idx].clone();
            idx += 1;
        });
        assert_eq!(idx, saved.len(), "NeuMf::restore_state: snapshot length mismatch");
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
    fn fits_and_beats_chance_on_warm_start() {
        let w = generate_world(&tiny_world(51));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let mut model = NeuMf::new(NeuMfConfig::preset(true), 1);
        model.fit(&w, &warm);
        let s = evaluate_scenario(&mut model, &w, &warm, 10);
        assert!(s.auc > 0.5, "warm AUC {} should beat chance", s.auc);
    }

    #[test]
    fn cold_start_users_score_near_chance() {
        // The paper's core observation about pure CF: untouched id
        // embeddings carry no signal for new users.
        // World seed pinned to the in-tree xoshiro256++ streams.
        let w = generate_world(&tiny_world(42));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = NeuMf::new(NeuMfConfig::preset(true), 2);
        model.fit(&w, &warm);
        let warm_auc = evaluate_scenario(&mut model, &w, &warm, 10).auc;
        let cold_auc = evaluate_scenario(&mut model, &w, &cu, 10).auc;
        assert!(
            cold_auc < warm_auc + 0.05,
            "cold AUC {cold_auc} should not beat warm {warm_auc} for pure CF"
        );
        assert!((cold_auc - 0.5).abs() < 0.15, "cold AUC {cold_auc} should hover near chance");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let w = generate_world(&tiny_world(53));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = NeuMf::new(NeuMfConfig::preset(true), 3);
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
