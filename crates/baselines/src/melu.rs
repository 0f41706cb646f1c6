//! MeLU — Meta-Learned User preference estimator (Lee et al., KDD 2019).
//!
//! MeLU applies MAML to a content-based preference estimator with one
//! signature detail: the *local* (inner-loop) update touches only the
//! decision-making layers (the scoring MLP), while the embedding layers are
//! updated only by the *global* (outer) step. We reproduce exactly that:
//! the model is the same embedding + MLP architecture as MetaDPA's
//! preference model (both papers use the "content in, logit out" shape),
//! first-order MAML, and inner updates masked to the scorer parameters.
//!
//! What MeLU does **not** have is MetaDPA's diverse preference
//! augmentation: it meta-trains on the original sparse tasks only, which
//! is the meta-overfitting exposure the paper attributes its CD losses to.

use metadpa_core::eval::Recommender;
use metadpa_core::preference::{PreferenceConfig, PreferenceModel};
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::loss::bce_with_logits;
use metadpa_nn::module::{
    accumulate_grads, restore, snapshot, snapshot_grads, zero_grad, Mode, Module, Params,
};
use metadpa_nn::optim::{Adam, Optimizer};
use metadpa_tensor::{Matrix, SeededRng};

/// MeLU hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct MeluConfig {
    /// Embedding size of the user/item content encoders.
    pub embed_dim: usize,
    /// Hidden widths of the decision MLP.
    pub hidden: [usize; 2],
    /// Inner-loop learning rate.
    pub inner_lr: f32,
    /// Outer-loop Adam learning rate.
    pub outer_lr: f32,
    /// Inner steps per task.
    pub inner_steps: usize,
    /// Tasks per outer update.
    pub meta_batch: usize,
    /// Meta-training epochs.
    pub epochs: usize,
    /// Fine-tune steps at meta-test time.
    pub finetune_steps: usize,
}

impl MeluConfig {
    /// Standard or reduced schedule.
    pub fn preset(fast: bool) -> Self {
        Self {
            embed_dim: if fast { 16 } else { 32 },
            hidden: if fast { [24, 12] } else { [48, 24] },
            inner_lr: 0.1,
            outer_lr: 3e-3,
            inner_steps: 2,
            meta_batch: 8,
            epochs: if fast { 10 } else { 25 },
            finetune_steps: if fast { 5 } else { 10 },
        }
    }
}

/// The MeLU recommender.
pub struct Melu {
    config: MeluConfig,
    seed: u64,
    model: Option<PreferenceModel>,
    /// Number of leading parameters (the embedding layers) frozen during
    /// local updates.
    n_embedding_params: usize,
}

impl Melu {
    /// Creates an unfitted MeLU.
    pub fn new(config: MeluConfig, seed: u64) -> Self {
        Self { config, seed, model: None, n_embedding_params: 0 }
    }

    fn model_mut(&mut self) -> &mut PreferenceModel {
        self.model.as_mut().expect("Melu: call fit first")
    }

    /// One forward/backward on a labelled set. Returns the loss; gradients
    /// accumulate.
    fn run_set(
        model: &mut PreferenceModel,
        user_content: &[f32],
        item_content: &Matrix,
        set: &[(usize, f32)],
    ) -> f32 {
        let items: Vec<usize> = set.iter().map(|&(i, _)| i).collect();
        let labels = Matrix::from_vec(set.len(), 1, set.iter().map(|&(_, l)| l).collect());
        let input = PreferenceModel::assemble_input(user_content, item_content, &items);
        let logits = model.forward(&input, Mode::Train);
        let (loss, grad) = bce_with_logits(&logits, &labels);
        let _ = model.backward(&grad);
        loss
    }

    /// MeLU's local update: SGD on the support set, skipping the first
    /// `n_frozen` parameters (the embedding layers).
    fn local_update(
        model: &mut PreferenceModel,
        user_content: &[f32],
        item_content: &Matrix,
        support: &[(usize, f32)],
        steps: usize,
        lr: f32,
        n_frozen: usize,
    ) {
        for _ in 0..steps {
            zero_grad(model);
            let _ = Self::run_set(model, user_content, item_content, support);
            let mut idx = 0;
            model.visit_params(&mut |p| {
                if idx >= n_frozen {
                    let grad = p.grad.clone();
                    p.value.add_scaled_inplace(&grad, -lr);
                }
                idx += 1;
            });
        }
    }
}

impl Recommender for Melu {
    fn name(&self) -> String {
        "MeLU".into()
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let mut rng = SeededRng::new(self.seed);
        let content_dim = world.target.user_content.cols();
        let pref = PreferenceConfig {
            content_dim,
            embed_dim: self.config.embed_dim,
            hidden: self.config.hidden,
        };
        let mut model = PreferenceModel::new(pref, &mut rng);
        // The two Dense embedding layers contribute 4 leading parameters
        // (weight + bias each) in visit order.
        self.n_embedding_params = 4;

        let tasks = &scenario.train_tasks;
        let uc = &world.target.user_content;
        let ic = &world.target.item_content;
        let mut outer = Adam::new(self.config.outer_lr);
        let mut order: Vec<usize> = (0..tasks.len()).collect();

        for _epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.config.meta_batch) {
                let theta = snapshot(&mut model);
                let mut meta_grads: Option<Vec<Matrix>> = None;
                let mut used = 0usize;
                for &idx in chunk {
                    let task = &tasks[idx];
                    if task.support.is_empty() || task.query.is_empty() {
                        continue;
                    }
                    let user_row: Vec<f32> = uc.row(task.user).to_vec();
                    restore(&mut model, &theta);
                    Self::local_update(
                        &mut model,
                        &user_row,
                        ic,
                        &task.support,
                        self.config.inner_steps,
                        self.config.inner_lr,
                        self.n_embedding_params,
                    );
                    zero_grad(&mut model);
                    let _ = Self::run_set(&mut model, &user_row, ic, &task.query);
                    let grads = snapshot_grads(&mut model);
                    match &mut meta_grads {
                        None => meta_grads = Some(grads),
                        Some(acc) => {
                            for (a, g) in acc.iter_mut().zip(grads.iter()) {
                                a.add_inplace(g);
                            }
                        }
                    }
                    used += 1;
                }
                restore(&mut model, &theta);
                if let Some(mut grads) = meta_grads {
                    let inv = 1.0 / used as f32;
                    for g in &mut grads {
                        *g = g.scale(inv);
                    }
                    zero_grad(&mut model);
                    accumulate_grads(&mut model, &grads);
                    outer.step(&mut model);
                }
            }
        }
        self.model = Some(model);
    }

    fn fine_tune(&mut self, tasks: &[Task], domain: &Domain) {
        let cfg = self.config;
        let n_frozen = self.n_embedding_params;
        let model = self.model_mut();
        for task in tasks {
            if task.support.is_empty() {
                continue;
            }
            let user_row: Vec<f32> = domain.user_content.row(task.user).to_vec();
            Self::local_update(
                model,
                &user_row,
                &domain.item_content,
                &task.support,
                cfg.finetune_steps,
                cfg.inner_lr,
                n_frozen,
            );
        }
    }

    fn score(&mut self, domain: &Domain, user: usize, items: &[usize]) -> Vec<f32> {
        let uc: Vec<f32> = domain.user_content.row(user).to_vec();
        self.model_mut().score_items(&uc, &domain.item_content, items)
    }

    fn snapshot_state(&mut self) -> Vec<Matrix> {
        snapshot(self.model_mut())
    }

    fn restore_state(&mut self, state: &[Matrix]) {
        restore(self.model_mut(), state);
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
    fn local_update_freezes_embedding_layers() {
        let mut rng = SeededRng::new(1);
        let pref = PreferenceConfig { content_dim: 6, embed_dim: 4, hidden: [8, 4] };
        let mut model = PreferenceModel::new(pref, &mut rng);
        let before = snapshot(&mut model);
        let ic = rng.uniform_matrix(5, 6, 0.0, 1.0);
        Melu::local_update(&mut model, &[0.5; 6], &ic, &[(0, 1.0), (1, 0.0)], 3, 0.1, 4);
        let after = snapshot(&mut model);
        // Embedding params (first 4) unchanged; scorer params moved.
        for i in 0..4 {
            assert_eq!(before[i], after[i], "embedding param {i} must stay frozen");
        }
        assert!(
            before[4..].iter().zip(after[4..].iter()).any(|(b, a)| b != a),
            "scorer params must move"
        );
    }

    #[test]
    fn melu_beats_chance_on_cold_users() {
        // World seed pinned to the in-tree xoshiro256++ streams.
        let w = generate_world(&tiny_world(64));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = Melu::new(MeluConfig::preset(true), 2);
        model.fit(&w, &warm);
        let s = evaluate_scenario(&mut model, &w, &cu, 10);
        assert!(s.auc > 0.5, "C-U AUC {} should beat chance", s.auc);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let w = generate_world(&tiny_world(62));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = Melu::new(MeluConfig::preset(true), 3);
        model.fit(&w, &warm);
        let user = cu.eval[0].user;
        let items: Vec<usize> = (0..6).collect();
        let before = model.score(&w.target, user, &items);
        let state = model.snapshot_state();
        model.fine_tune(&cu.finetune_tasks, &w.target);
        model.restore_state(&state);
        assert_eq!(before, model.score(&w.target, user, &items));
    }
}
