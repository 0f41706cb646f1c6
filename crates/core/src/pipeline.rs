//! The end-to-end MetaDPA pipeline (paper Fig. 2) and its ablations.
//!
//! `fit` runs the three blocks in order:
//!
//! 1. **Block 1 — multi-source domain adaptation**: build shared-user pairs
//!    and train one Dual-CVAE per source under Eq. 8.
//! 2. **Block 2 — diverse preference augmentation**: run the k learned
//!    content-encoder/decoder paths over all target users' content to
//!    generate k rating matrices, and relabel the original tasks with them
//!    (Eq. 10).
//! 3. **Block 3 — preference meta-learning**: MAML-train the preference
//!    model on original + augmented tasks.
//!
//! Wall-clock of each block is recorded in [`BlockTimings`] — the quantity
//! the scalability experiment (Fig. 6) reports.
//!
//! [`Variant`] reproduces the ablations of §V-E: `MeOnly` keeps only the
//! ME constraint, `MdiOnly` keeps only MDI, and `Plain` disables both
//! (a Dual-CVAE-only augmentation baseline beyond the paper's two).

use std::sync::Arc;
use std::time::Duration;

use metadpa_data::adaptation::{build_adaptation_pairs, AdaptationConfig};
use metadpa_data::domain::{Domain, World};
use metadpa_data::splits::Scenario;
use metadpa_data::task::Task;
use metadpa_nn::module::{restore, snapshot};
use metadpa_tensor::{Matrix, SeededRng};

use crate::adaptation::{AdapterTrainConfig, MultiSourceAdapter};
use crate::augmentation::{build_augmented_tasks, diversity_report, DiversityReport};
use crate::dual_cvae::DualCvaeConfig;
use crate::eval::{Recommender, Scorer};
use crate::maml::{MamlConfig, MetaLearner};
use crate::noise_aug::{build_noise_augmented_tasks, NoiseAugConfig};
use crate::preference::PreferenceConfig;

/// Which augmentation strategy feeds the meta-learner (extension knob; the
/// paper's method is [`AugmentationStrategy::DiversePreference`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AugmentationStrategy {
    /// The paper's Blocks 1+2: Dual-CVAE adaptation + content-decoded
    /// diverse ratings.
    DiversePreference,
    /// The label-noise meta-augmentation of Rajendran et al. (the prior
    /// work §I builds on): k copies with uniformly perturbed labels and
    /// no cross-domain machinery.
    LabelNoise(NoiseAugConfig),
    /// No augmentation: meta-train on the original tasks only
    /// (a MeLU-style control with MetaDPA's full-parameter inner loop).
    None,
}

/// Which constraints the adaptation phase trains with (§V-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Full MetaDPA: both MDI and ME.
    Full,
    /// MetaDPA-ME: only the Mutually-Exclusive constraint.
    MeOnly,
    /// MetaDPA-MDI: only the Multi-domain InfoMax constraint.
    MdiOnly,
    /// No constraints (Dual-CVAE augmentation alone; an extra ablation).
    Plain,
}

impl Variant {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Full => "MetaDPA",
            Variant::MeOnly => "MetaDPA-ME",
            Variant::MdiOnly => "MetaDPA-MDI",
            Variant::Plain => "MetaDPA-Plain",
        }
    }

    fn apply(&self, mut dual: DualCvaeConfig) -> DualCvaeConfig {
        match self {
            Variant::Full => {
                dual.enable_mdi = true;
                dual.enable_me = true;
            }
            Variant::MeOnly => {
                dual.enable_mdi = false;
                dual.enable_me = true;
            }
            Variant::MdiOnly => {
                dual.enable_mdi = true;
                dual.enable_me = false;
            }
            Variant::Plain => {
                dual.enable_mdi = false;
                dual.enable_me = false;
            }
        }
        dual
    }
}

/// Wall-clock cost of each pipeline block (Fig. 6's y-axis).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockTimings {
    /// Block 1: multi-source Dual-CVAE training.
    pub adaptation: Duration,
    /// Block 2: generating the k diverse rating matrices.
    pub augmentation: Duration,
    /// Block 3: preference meta-learning.
    pub meta_learning: Duration,
}

/// Full pipeline configuration.
#[derive(Clone, Debug)]
pub struct MetaDpaConfig {
    /// Dual-CVAE architecture and constraint weights (β₁, β₂ live here).
    pub dual: DualCvaeConfig,
    /// Adaptation-phase training schedule.
    pub adapter_train: AdapterTrainConfig,
    /// Shared-user filtering and 80/20 split.
    pub adaptation: AdaptationConfig,
    /// Preference model architecture.
    pub preference: PreferenceConfig,
    /// MAML schedule.
    pub maml: MamlConfig,
    /// Constraint ablation.
    pub variant: Variant,
    /// Which augmentation feeds meta-training (extension knob; the paper
    /// is [`AugmentationStrategy::DiversePreference`]).
    pub augmentation: AugmentationStrategy,
    /// How many copies of each *original* task enter meta-training
    /// alongside the k augmented copies. The paper's Eq. 9-10 corresponds
    /// to 1 (one original + k augmented); larger values re-balance toward
    /// the true labels — an extension knob studied by the
    /// `exp_mix_ablation` experiment.
    pub original_replication: usize,
    /// Master seed for model initialization.
    pub seed: u64,
}

impl Default for MetaDpaConfig {
    fn default() -> Self {
        Self {
            dual: DualCvaeConfig::default(),
            adapter_train: AdapterTrainConfig::default(),
            adaptation: AdaptationConfig::default(),
            preference: PreferenceConfig::default(),
            maml: MamlConfig::default(),
            variant: Variant::Full,
            augmentation: AugmentationStrategy::DiversePreference,
            original_replication: 1,
            seed: 0xD9A,
        }
    }
}

impl MetaDpaConfig {
    /// A lightweight configuration for tests and examples: small networks,
    /// few epochs, same structure.
    pub fn fast() -> Self {
        let mut cfg = Self::default();
        cfg.dual.hidden_dim = 32;
        cfg.dual.latent_dim = 8;
        cfg.dual.critic_dim = 12;
        cfg.adapter_train.epochs = 12;
        cfg.preference.embed_dim = 16;
        cfg.preference.hidden = [24, 12];
        cfg.maml.epochs = 10;
        cfg
    }
}

/// The MetaDPA system: three blocks wired end to end.
pub struct MetaDpa {
    config: MetaDpaConfig,
    learner: Option<MetaLearner>,
    adapter: Option<MultiSourceAdapter>,
    diversity: DiversityReport,
    timings: BlockTimings,
    /// Run-ledger key minted at the start of the most recent `fit`
    /// (`None` before the first). Stamped into every record the run emits
    /// and into exported artifacts, so trace, checkpoint, BENCH documents
    /// and the serving `/health` endpoint all join on one key.
    run: Option<metadpa_obs::run::RunId>,
}

impl MetaDpa {
    /// Creates an unfitted pipeline.
    pub fn new(config: MetaDpaConfig) -> Self {
        Self {
            config,
            learner: None,
            adapter: None,
            diversity: DiversityReport::default(),
            timings: BlockTimings::default(),
            run: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MetaDpaConfig {
        &self.config
    }

    /// Diversity statistics of the most recent augmentation (zeroed before
    /// the first `fit`).
    pub fn diversity(&self) -> DiversityReport {
        self.diversity
    }

    /// Per-block wall-clock of the most recent `fit`.
    pub fn timings(&self) -> BlockTimings {
        self.timings
    }

    /// The trained multi-source adapter, if fitted.
    pub fn adapter(&self) -> Option<&MultiSourceAdapter> {
        self.adapter.as_ref()
    }

    /// The run-ledger key of the most recent `fit` (`""` before the
    /// first) — the same string stamped into trace records and exported
    /// artifacts.
    pub fn run_id(&self) -> String {
        self.run.as_ref().map(ToString::to_string).unwrap_or_default()
    }

    fn learner_mut(&mut self) -> &mut MetaLearner {
        self.learner.as_mut().expect("MetaDpa: call fit before using the model")
    }

    /// Exports the fitted model as a self-contained serving
    /// [`crate::artifact::Artifact`]: preference-model parameters, the
    /// target domain's content matrices, and provenance metadata (git
    /// revision, data fingerprint, diversity stats).
    ///
    /// # Panics
    /// Panics if called before [`Recommender::fit`].
    pub fn export_artifact(&mut self, world: &World) -> crate::artifact::Artifact {
        let model_name = self.name();
        let diversity = self.diversity;
        let run_id = self.run_id();
        let learner =
            self.learner.as_mut().expect("MetaDpa: call fit before exporting an artifact");
        let artifact = crate::artifact::artifact_from_learner(
            learner,
            &model_name,
            metadpa_obs::report::git_rev(),
            world.fingerprint_hex(),
            diversity,
            world.target.user_content.clone(),
            world.target.item_content.clone(),
            run_id,
        );
        metadpa_obs::event!(
            "artifact.export",
            "model" => artifact.meta.model_name.as_str(),
            "data_fingerprint" => artifact.meta.data_fingerprint.as_str(),
            "params" => artifact.params.len(),
        );
        artifact
    }
}

impl Recommender for MetaDpa {
    fn name(&self) -> String {
        match self.config.augmentation {
            AugmentationStrategy::DiversePreference => self.config.variant.label().to_string(),
            AugmentationStrategy::LabelNoise(_) => "Meta-NoiseAug".to_string(),
            AugmentationStrategy::None => "Meta-NoAug".to_string(),
        }
    }

    fn fit(&mut self, world: &World, scenario: &Scenario) {
        let _fit_span = metadpa_obs::span!("pipeline.fit");
        // Mint the run-ledger key: seed + config fingerprint + a
        // process-monotonic sequence number — no wall clock, so run IDs
        // are reproducible across identical invocations. Installing it
        // makes `emit` stamp every record of this run; minting itself
        // never touches the training path, so results stay bit-identical
        // whether observability is on or off.
        let run = metadpa_obs::run::mint(
            self.config.seed,
            metadpa_obs::run::fingerprint(format!("{:?}", self.config).as_bytes()),
        );
        metadpa_obs::run::install(run.clone());
        metadpa_obs::event!(
            "pipeline.run",
            "seed" => self.config.seed,
            "model" => self.name().as_str(),
        );
        self.run = Some(run);
        let mut rng = SeededRng::new(self.config.seed);
        let content_dim = world.target.user_content.cols();

        // ---- Block 1: multi-source domain adaptation -------------------
        // (Only the paper's strategy runs the cross-domain machinery; the
        // extension strategies skip straight to meta-learning.)
        let run_dpa = matches!(self.config.augmentation, AugmentationStrategy::DiversePreference);
        let mut generated: Vec<Matrix> = Vec::new();
        let mut adaptation_time = Duration::default();
        let mut augmentation_time = Duration::default();
        if run_dpa {
            // The span measures the whole block (pair building included),
            // exactly like the Instant-based timing it replaces; `finish`
            // hands back the wall-clock that BlockTimings reports.
            let adapt_span = metadpa_obs::span!("pipeline.adaptation");
            let pairs = build_adaptation_pairs(world, &self.config.adaptation);
            let usable: Vec<_> = pairs.into_iter().filter(|p| p.n_shared() >= 4).collect();
            if !usable.is_empty() {
                let dual_cfg = self.config.variant.apply(self.config.dual);
                let mut adapter = MultiSourceAdapter::new(
                    &usable,
                    content_dim,
                    dual_cfg,
                    self.config.adapter_train,
                    &mut rng.fork(1),
                );
                let _reports = adapter.train(&usable);
                adaptation_time = adapt_span.finish();

                // ---- Block 2: diverse preference augmentation ----------
                let aug_span = metadpa_obs::span!("pipeline.augmentation");
                generated = adapter.generate_diverse_ratings(&world.target.user_content);
                augmentation_time = aug_span.finish();
                self.adapter = Some(adapter);
            }
        }
        self.diversity = diversity_report(&generated);
        metadpa_obs::event!(
            "pipeline.diversity",
            "k" => self.diversity.k,
            "mean_pairwise_distance" => self.diversity.mean_pairwise_distance,
            "mean_confidence" => self.diversity.mean_confidence,
        );

        // ---- Block 3: preference meta-learning -------------------------
        let meta_span = metadpa_obs::span!("pipeline.meta_learning");
        let mut pref_cfg = self.config.preference;
        pref_cfg.content_dim = content_dim;
        let mut learner = MetaLearner::new(pref_cfg, self.config.maml, &mut rng.fork(2));
        let mut tasks: Vec<Task> = Vec::with_capacity(
            scenario.train_tasks.len() * (self.config.original_replication + generated.len()),
        );
        for _ in 0..self.config.original_replication.max(1) {
            tasks.extend(scenario.train_tasks.iter().cloned());
        }
        match self.config.augmentation {
            AugmentationStrategy::DiversePreference => {
                tasks.extend(build_augmented_tasks(&scenario.train_tasks, &generated));
            }
            AugmentationStrategy::LabelNoise(noise_cfg) => {
                tasks.extend(build_noise_augmented_tasks(&scenario.train_tasks, &noise_cfg));
            }
            AugmentationStrategy::None => {}
        }
        let _ = learner.meta_train(&tasks, &world.target.user_content, &world.target.item_content);
        self.timings = BlockTimings {
            adaptation: adaptation_time,
            augmentation: augmentation_time,
            meta_learning: meta_span.finish(),
        };
        self.learner = Some(learner);
    }

    fn fine_tune(&mut self, tasks: &[Task], domain: &Domain) {
        let learner = self.learner_mut();
        learner.fine_tune(tasks, &domain.user_content, &domain.item_content);
    }

    fn score(&mut self, domain: &Domain, user: usize, items: &[usize]) -> Vec<f32> {
        let learner = self.learner_mut();
        let uc: Vec<f32> = domain.user_content.row(user).to_vec();
        learner.score(&uc, &domain.item_content, items)
    }

    fn snapshot_state(&mut self) -> Vec<Matrix> {
        snapshot(self.learner_mut().model_mut())
    }

    fn restore_state(&mut self, state: &[Matrix]) {
        restore(self.learner_mut().model_mut(), state);
    }

    fn fork_scorer<'d>(&mut self, domain: &'d Domain) -> Option<Box<dyn Scorer<'d> + 'd>> {
        // Unfitted models can't fork, which sends the harness to `score`
        // (where it panics with the usual "call fit" message).
        let fitted = self.learner.as_mut()?;
        Some(Box::new(EmbeddedScorer::new(fitted, domain)))
    }
}

/// MetaDPA's frozen scorer: a copy of the preference model plus the item
/// embedding table of `domain` built from it once, the way serving ranks.
/// Scores are bit-identical to the full pass (see
/// [`crate::preference::PreferenceModel::score_embedded_into`]).
struct EmbeddedScorer<'d> {
    learner: MetaLearner,
    item_embeds: Arc<Matrix>,
    domain: &'d Domain,
}

impl<'d> EmbeddedScorer<'d> {
    fn new(fitted: &mut MetaLearner, domain: &'d Domain) -> Self {
        let mut learner = copy_learner(fitted);
        let item_embeds = Arc::new(learner.embed_items(&domain.item_content));
        EmbeddedScorer { learner, item_embeds, domain }
    }
}

/// A learner holding a copy of `learner`'s current parameters.
fn copy_learner(learner: &mut MetaLearner) -> MetaLearner {
    let (pref, maml) = (learner.model().config(), learner.config());
    MetaLearner::with_params(pref, maml, &snapshot(learner.model_mut()))
}

impl<'d> Scorer<'d> for EmbeddedScorer<'d> {
    fn score(&mut self, user: usize, items: &[usize]) -> Vec<f32> {
        let mut out = Vec::with_capacity(items.len());
        let uc = self.domain.user_content.row(user);
        self.learner.score_embedded_into(uc, &self.item_embeds, items, &mut out);
        out
    }

    fn fork(&mut self) -> Box<dyn Scorer<'d> + 'd> {
        Box::new(EmbeddedScorer {
            learner: copy_learner(&mut self.learner),
            item_embeds: Arc::clone(&self.item_embeds),
            domain: self.domain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_scenario;
    use metadpa_data::generator::generate_world;
    use metadpa_data::presets::tiny_world;
    use metadpa_data::splits::{ScenarioKind, SplitConfig, Splitter};

    #[test]
    fn full_pipeline_fits_and_evaluates_all_scenarios() {
        let w = generate_world(&tiny_world(41));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let mut model = MetaDpa::new(MetaDpaConfig::fast());
        model.fit(&w, &warm);

        // Augmentation happened and produced diversity.
        let div = model.diversity();
        assert_eq!(div.k, 2, "tiny world has two sources");
        assert!(div.mean_pairwise_distance >= 0.0);
        assert!(model.timings().meta_learning > Duration::ZERO);

        for kind in ScenarioKind::ALL {
            let scenario = sp.scenario(kind);
            let s = evaluate_scenario(&mut model, &w, &scenario, 10);
            assert!(s.count > 0, "{kind:?}");
            assert!(s.auc.is_finite());
            assert!((0.0..=1.0).contains(&s.hr));
        }
    }

    #[test]
    fn fine_tune_then_restore_leaves_scores_unchanged() {
        let w = generate_world(&tiny_world(42));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cu = sp.scenario(ScenarioKind::ColdUser);
        let mut model = MetaDpa::new(MetaDpaConfig::fast());
        model.fit(&w, &warm);

        let user = cu.eval[0].user;
        let items: Vec<usize> = (0..5).collect();
        let before = model.score(&w.target, user, &items);
        let state = model.snapshot_state();
        model.fine_tune(&cu.finetune_tasks, &w.target);
        let during = model.score(&w.target, user, &items);
        model.restore_state(&state);
        let after = model.score(&w.target, user, &items);
        assert_ne!(before, during, "fine-tuning must change the model");
        assert_eq!(before, after, "restore must rewind exactly");
    }

    #[test]
    fn fit_and_evaluation_are_bit_identical_across_thread_counts() {
        // End-to-end determinism: the whole pipeline — CVAE adaptation,
        // augmentation, MAML (parallel inner loop), and the evaluation
        // fan-out — must produce bit-identical parameters and metrics at
        // any METADPA_THREADS setting.
        let run = |threads: usize| {
            metadpa_tensor::pool::with_threads(threads, || {
                let w = generate_world(&tiny_world(45));
                let sp = Splitter::new(&w.target, SplitConfig::default());
                let warm = sp.scenario(ScenarioKind::Warm);
                let mut model = MetaDpa::new(MetaDpaConfig::fast());
                model.fit(&w, &warm);
                let summary = evaluate_scenario(&mut model, &w, &warm, 10);
                (model.snapshot_state(), summary)
            })
        };
        let (theta_1, summary_1) = run(1);
        for threads in [2, 7] {
            let (theta_t, summary_t) = run(threads);
            assert_eq!(theta_1.len(), theta_t.len());
            for (layer, (a, b)) in theta_1.iter().zip(theta_t.iter()).enumerate() {
                assert_eq!(a, b, "parameters of layer {layer} drift at threads={threads}");
            }
            assert_eq!(summary_1.hr, summary_t.hr, "HR drifts at threads={threads}");
            assert_eq!(summary_1.mrr, summary_t.mrr, "MRR drifts at threads={threads}");
            assert_eq!(summary_1.ndcg, summary_t.ndcg, "NDCG drifts at threads={threads}");
            assert_eq!(summary_1.auc, summary_t.auc, "AUC drifts at threads={threads}");
        }
    }

    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fork_scorer_matches_the_fitted_model() {
        let w = generate_world(&tiny_world(46));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let mut model = MetaDpa::new(MetaDpaConfig::fast());
        assert!(model.fork_scorer(&w.target).is_none(), "unfitted models cannot fork");
        model.fit(&w, &warm);
        let mut scorer = model.fork_scorer(&w.target).expect("fitted model forks");
        let items: Vec<usize> = (0..w.target.n_items()).rev().collect();
        for user in [0, 3] {
            let full = bits(&model.score(&w.target, user, &items));
            assert_eq!(full, bits(&scorer.score(user, &items)), "scorer must match");
            assert_eq!(full, bits(&scorer.fork().score(user, &items)), "its forks too");
        }
        assert!(scorer.score(0, &[]).is_empty());
    }

    #[test]
    fn frozen_scorers_never_see_later_parameter_changes() {
        // A scorer (and its table) belongs to the parameters it was built
        // from: one built before fine-tuning keeps scoring them, one built
        // after scores the fine-tuned model, and after `restore_state` a
        // new scorer matches the first again.
        let w = generate_world(&tiny_world(47));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let cold = sp.scenario(ScenarioKind::ColdUser);
        let mut model = MetaDpa::new(MetaDpaConfig::fast());
        model.fit(&w, &warm);
        let user = cold.eval[0].user;
        let items: Vec<usize> = (0..w.target.n_items()).collect();

        let before = bits(&model.score(&w.target, user, &items));
        let mut fitted = model.fork_scorer(&w.target).expect("fitted model forks");
        let state = model.snapshot_state();
        model.fine_tune(&cold.finetune_tasks, &w.target);
        let tuned = bits(&model.score(&w.target, user, &items));
        assert_ne!(before, tuned, "fine-tuning must change the scores");
        assert_eq!(before, bits(&fitted.score(user, &items)), "scorer built before fine_tune");
        let mut after_tune = model.fork_scorer(&w.target).expect("fork");
        assert_eq!(tuned, bits(&after_tune.score(user, &items)), "scorer built after fine_tune");

        model.restore_state(&state);
        let mut restored = model.fork_scorer(&w.target).expect("fork");
        assert_eq!(before, bits(&restored.score(user, &items)), "scorer built after restore");
        assert_eq!(tuned, bits(&after_tune.score(user, &items)), "older scorer stays frozen");
        assert_eq!(before, bits(&model.score(&w.target, user, &items)));
    }

    /// Delegates everything to MetaDPA but offers no frozen scorer, so the
    /// harness scores every instance through the full `score` pass.
    struct FullPass(MetaDpa);

    impl Recommender for FullPass {
        fn name(&self) -> String {
            self.0.name()
        }
        fn fit(&mut self, world: &World, scenario: &Scenario) {
            self.0.fit(world, scenario);
        }
        fn fine_tune(&mut self, tasks: &[Task], domain: &Domain) {
            self.0.fine_tune(tasks, domain);
        }
        fn score(&mut self, domain: &Domain, user: usize, items: &[usize]) -> Vec<f32> {
            self.0.score(domain, user, items)
        }
        fn snapshot_state(&mut self) -> Vec<Matrix> {
            self.0.snapshot_state()
        }
        fn restore_state(&mut self, state: &[Matrix]) {
            self.0.restore_state(state);
        }
    }

    #[test]
    fn table_scoring_evaluates_bit_identically_to_the_full_pass() {
        let w = generate_world(&tiny_world(48));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        let mut model = FullPass(MetaDpa::new(MetaDpaConfig::fast()));
        model.fit(&w, &warm);
        let summary = |s: &metadpa_metrics::MetricSummary| {
            (s.count, s.hr.to_bits(), s.mrr.to_bits(), s.ndcg.to_bits(), s.auc.to_bits())
        };
        for kind in ScenarioKind::ALL {
            let scenario = sp.scenario(kind);
            let want = summary(&evaluate_scenario(&mut model, &w, &scenario, 10));
            for threads in [1, 2, 7] {
                let got = metadpa_tensor::pool::with_threads(threads, || {
                    summary(&evaluate_scenario(&mut model.0, &w, &scenario, 10))
                });
                assert_eq!(want, got, "{kind:?} at threads={threads}");
            }
        }
    }

    #[test]
    fn variants_toggle_constraints() {
        assert!(Variant::Full.apply(DualCvaeConfig::default()).enable_mdi);
        assert!(Variant::Full.apply(DualCvaeConfig::default()).enable_me);
        let me = Variant::MeOnly.apply(DualCvaeConfig::default());
        assert!(!me.enable_mdi && me.enable_me);
        let mdi = Variant::MdiOnly.apply(DualCvaeConfig::default());
        assert!(mdi.enable_mdi && !mdi.enable_me);
        let plain = Variant::Plain.apply(DualCvaeConfig::default());
        assert!(!plain.enable_mdi && !plain.enable_me);
    }

    #[test]
    fn alternative_augmentation_strategies_fit_and_evaluate() {
        let w = generate_world(&tiny_world(44));
        let sp = Splitter::new(&w.target, SplitConfig::default());
        let warm = sp.scenario(ScenarioKind::Warm);
        for (strategy, expect_adapter) in [
            (AugmentationStrategy::LabelNoise(crate::noise_aug::NoiseAugConfig::default()), false),
            (AugmentationStrategy::None, false),
        ] {
            let mut cfg = MetaDpaConfig::fast();
            cfg.augmentation = strategy;
            let mut model = MetaDpa::new(cfg);
            model.fit(&w, &warm);
            assert_eq!(model.adapter().is_some(), expect_adapter);
            assert_eq!(model.diversity().k, 0, "no DPA generations under {strategy:?}");
            let s = evaluate_scenario(&mut model, &w, &warm, 10);
            assert!(s.count > 0);
            assert!(s.auc.is_finite());
        }
    }

    #[test]
    fn strategy_names_distinguish_models() {
        let mut cfg = MetaDpaConfig::fast();
        assert_eq!(MetaDpa::new(cfg.clone()).name(), "MetaDPA");
        cfg.augmentation =
            AugmentationStrategy::LabelNoise(crate::noise_aug::NoiseAugConfig::default());
        assert_eq!(MetaDpa::new(cfg.clone()).name(), "Meta-NoiseAug");
        cfg.augmentation = AugmentationStrategy::None;
        assert_eq!(MetaDpa::new(cfg).name(), "Meta-NoAug");
    }

    #[test]
    #[should_panic(expected = "call fit before")]
    fn scoring_before_fit_panics() {
        let w = generate_world(&tiny_world(43));
        let mut model = MetaDpa::new(MetaDpaConfig::fast());
        let _ = model.score(&w.target, 0, &[0]);
    }
}
