//! First-order MAML over preference tasks (paper §III-B, §IV-C, Eq. 1).
//!
//! The training objective is
//! `min_θ Σ_{T_u} L(θ - α ∇_θ L(θ, S_u), Q_u)`:
//! an inner loop adapts θ to each task's support set with a few SGD steps,
//! an outer loop updates θ from the adapted parameters' query-set loss.
//!
//! We use the first-order approximation (FOMAML): the outer gradient is the
//! query-set gradient evaluated at the adapted parameters, skipping the
//! second-derivative term. This is the standard practical choice for
//! MeLU-style recommenders (see DESIGN.md substitutions) and preserves the
//! inner-adapt / outer-generalize structure the paper's claims rest on.
//!
//! Meta-testing (§V-A2) reuses the inner loop: [`MetaLearner::fine_tune`]
//! adapts the trained θ on cold-start support sets, after which the model
//! scores the query candidates.

use metadpa_data::task::Task;
use metadpa_nn::loss::bce_with_logits_into;
use metadpa_nn::module::{
    accumulate_grads, restore, snapshot_grads, snapshot_into, zero_grad, Mode, Module, Params,
};
use metadpa_nn::optim::{Adam, Optimizer, Sgd};
use metadpa_tensor::pool::Team;
use metadpa_tensor::{Matrix, Pool, SeededRng};

use crate::preference::{PreferenceConfig, PreferenceModel};

/// Reusable buffers for one thread's inner-loop passes: the item list,
/// label/input/logit/gradient matrices of `run_set_on` (`dx` is backward
/// scratch). Every field keeps its high-water capacity, so after the first
/// task a whole inner loop runs without allocating.
#[derive(Default)]
struct TaskScratch {
    items: Vec<usize>,
    labels: Matrix,
    input: Matrix,
    logits: Matrix,
    grad: Matrix,
    dx: Matrix,
}

/// What every task of one meta-batch reads: θ, and the batch's usable
/// tasks (indices into the task set).
#[derive(Default)]
struct MetaBatch {
    theta: Vec<Matrix>,
    tasks: Vec<usize>,
}

/// One task's `(query_grads, query_loss, support_loss)`.
type TaskGrads = (Vec<Matrix>, f32, f32);

/// Computes the loss and (optionally) backpropagates one labelled set on
/// `model`. Free-standing (rather than a `MetaLearner` method) so the
/// parallel meta-batch path can run it against per-worker scratch models.
fn run_set_on(
    model: &mut PreferenceModel,
    user_content: &[f32],
    item_content: &Matrix,
    set: &[(usize, f32)],
    backprop: bool,
    scratch: &mut TaskScratch,
) -> f32 {
    scratch.items.clear();
    scratch.items.extend(set.iter().map(|&(i, _)| i));
    scratch.labels.resize_for_overwrite(set.len(), 1);
    for (slot, &(_, label)) in scratch.labels.as_mut_slice().iter_mut().zip(set) {
        *slot = label;
    }
    PreferenceModel::assemble_input_into(
        user_content,
        item_content,
        &scratch.items,
        &mut scratch.input,
    );
    model.forward_into(&mut scratch.input, Mode::Train, &mut scratch.logits);
    let loss = bce_with_logits_into(&scratch.logits, &scratch.labels, &mut scratch.grad);
    if backprop {
        model.backward_params(&mut scratch.grad, &mut scratch.dx);
    }
    loss
}

/// Inner loop: adapts `model` to one task's support set with `steps` SGD
/// steps at rate `inner_lr`. Returns the pre-adaptation support loss.
fn adapt_on(
    model: &mut PreferenceModel,
    inner_lr: f32,
    user_content: &[f32],
    item_content: &Matrix,
    task: &Task,
    steps: usize,
    scratch: &mut TaskScratch,
) -> f32 {
    let sgd = Sgd::new(inner_lr);
    let mut first_loss = 0.0;
    for step in 0..steps {
        zero_grad(model);
        let loss = run_set_on(model, user_content, item_content, &task.support, true, scratch);
        if step == 0 {
            first_loss = loss;
        }
        model.visit_params(&mut |p| sgd.step_param(p));
    }
    first_loss
}

/// One FOMAML task, self-contained: restores θ into `model`, runs the inner
/// loop on the support set, and takes the query gradient at the adapted
/// parameters. Returns `(query_grads, query_loss, support_loss)`.
///
/// The model's forward/backward passes are RNG-free and `restore`
/// overwrites every trainable parameter, so running this against any model
/// of the same architecture — each team thread's scratch replica — produces
/// bit-identical gradients.
fn fomaml_task_grads(
    model: &mut PreferenceModel,
    config: &MamlConfig,
    theta: &[Matrix],
    user_content: &[f32],
    item_content: &Matrix,
    task: &Task,
    scratch: &mut TaskScratch,
) -> TaskGrads {
    restore(model, theta);
    let support_loss = adapt_on(
        model,
        config.inner_lr,
        user_content,
        item_content,
        task,
        config.inner_steps,
        scratch,
    );
    zero_grad(model);
    let query_loss = run_set_on(model, user_content, item_content, &task.query, true, scratch);
    // Retained allocation: the harvested gradients are moved into the
    // meta-gradient fold and must outlive this call's scratch model.
    let grads = snapshot_grads(model);
    (grads, query_loss, support_loss)
}

/// Anomaly-sentinel thresholds for the training loops (DESIGN.md §11).
///
/// Detection works on the per-epoch loss series and the epoch's
/// meta-gradient norm — values the training loop computes anyway — so it
/// is deterministic and independent of the observability switch. Typed
/// `train_anomaly` events are only *emitted* while observability is on;
/// with `fail_fast` set, a fatal anomaly additionally stops training with
/// a [`TrainAbort`] whether or not anything is being recorded.
#[derive(Clone, Copy, Debug)]
pub struct SentinelConfig {
    /// Epochs in the divergence/plateau detection window.
    pub window: usize,
    /// Relative loss increase over the window that flags divergence:
    /// `loss[e] > loss[e-window] * (1 + divergence_ratio)`.
    pub divergence_ratio: f64,
    /// Relative improvement floor under which the window is reported as a
    /// plateau; `0.0` disables plateau detection (the default — late
    /// epochs of a converged run legitimately plateau).
    pub plateau_epsilon: f64,
    /// Stop training with a typed [`TrainAbort`] on a fatal anomaly
    /// (NaN/Inf loss or gradient norm, divergence) instead of burning the
    /// remaining epochs. Plateaus are advisory and never fail-fast.
    pub fail_fast: bool,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self { window: 5, divergence_ratio: 0.5, plateau_epsilon: 0.0, fail_fast: false }
    }
}

/// A detected training anomaly (the payload of `train_anomaly` events and
/// of the fail-fast [`TrainAbort`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TrainAnomaly {
    /// An epoch's loss left the finite range.
    NonFiniteLoss {
        /// Which loop flagged it (`"maml"` / `"cvae"`).
        phase: &'static str,
        /// Epoch index the anomaly surfaced at.
        epoch: usize,
        /// The offending loss value.
        value: f64,
    },
    /// The epoch's gradient norm left the finite range.
    NonFiniteGradNorm {
        /// Which loop flagged it.
        phase: &'static str,
        /// Epoch index the anomaly surfaced at.
        epoch: usize,
    },
    /// Loss rose past the windowed divergence threshold.
    Divergence {
        /// Which loop flagged it.
        phase: &'static str,
        /// Epoch index the anomaly surfaced at.
        epoch: usize,
        /// Loss at the start of the window.
        from: f64,
        /// Loss now.
        to: f64,
    },
    /// Loss improvement over the window fell under the plateau floor.
    Plateau {
        /// Which loop flagged it.
        phase: &'static str,
        /// Epoch index the anomaly surfaced at.
        epoch: usize,
        /// Loss at the start of the window.
        from: f64,
        /// Loss now.
        to: f64,
    },
}

impl TrainAnomaly {
    /// Stable slug used as the `train_anomaly` event name.
    pub fn kind(&self) -> &'static str {
        match self {
            TrainAnomaly::NonFiniteLoss { .. } => "non_finite_loss",
            TrainAnomaly::NonFiniteGradNorm { .. } => "non_finite_grad_norm",
            TrainAnomaly::Divergence { .. } => "divergence",
            TrainAnomaly::Plateau { .. } => "plateau",
        }
    }

    /// The training loop that flagged the anomaly.
    pub fn phase(&self) -> &'static str {
        match self {
            TrainAnomaly::NonFiniteLoss { phase, .. }
            | TrainAnomaly::NonFiniteGradNorm { phase, .. }
            | TrainAnomaly::Divergence { phase, .. }
            | TrainAnomaly::Plateau { phase, .. } => phase,
        }
    }

    /// The epoch the anomaly surfaced at.
    pub fn epoch(&self) -> usize {
        match self {
            TrainAnomaly::NonFiniteLoss { epoch, .. }
            | TrainAnomaly::NonFiniteGradNorm { epoch, .. }
            | TrainAnomaly::Divergence { epoch, .. }
            | TrainAnomaly::Plateau { epoch, .. } => *epoch,
        }
    }

    /// Whether the anomaly stops a `fail_fast` run.
    fn is_fatal(&self) -> bool {
        !matches!(self, TrainAnomaly::Plateau { .. })
    }
}

/// Typed fail-fast error returned by the `*_checked` training entry
/// points. The model's parameters are intact: the loop rewinds θ to its
/// state at the start of the aborted epoch before returning.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainAbort {
    /// The fatal anomaly that stopped the run.
    pub anomaly: TrainAnomaly,
}

impl std::fmt::Display for TrainAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.anomaly {
            TrainAnomaly::NonFiniteLoss { phase, epoch, value } => {
                write!(f, "{phase} training aborted: non-finite loss {value} at epoch {epoch}")
            }
            TrainAnomaly::NonFiniteGradNorm { phase, epoch } => {
                write!(f, "{phase} training aborted: non-finite gradient norm at epoch {epoch}")
            }
            TrainAnomaly::Divergence { phase, epoch, from, to } => {
                write!(f, "{phase} training aborted: loss diverged {from} -> {to} at epoch {epoch}")
            }
            TrainAnomaly::Plateau { phase, epoch, from, to } => {
                write!(f, "{phase} training aborted: loss plateau {from} -> {to} at epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainAbort {}

/// Emits one typed `train_anomaly` record (no-op while observability is
/// off).
fn emit_anomaly(anomaly: &TrainAnomaly) {
    if !metadpa_obs::enabled() {
        return;
    }
    let mut ev = metadpa_obs::Event::new("train_anomaly", anomaly.kind().to_string());
    ev.push("phase", anomaly.phase());
    ev.push("epoch", anomaly.epoch() as u64);
    match anomaly {
        TrainAnomaly::NonFiniteLoss { value, .. } => ev.push("value", *value),
        TrainAnomaly::NonFiniteGradNorm { .. } => {}
        TrainAnomaly::Divergence { from, to, .. } | TrainAnomaly::Plateau { from, to, .. } => {
            ev.push("from", *from);
            ev.push("to", *to);
        }
    }
    metadpa_obs::emit(ev);
}

/// Rolling loss-series watcher shared by the MAML and CVAE loops: feeds
/// each epoch's loss/grad-norm through the sentinel thresholds, emits the
/// typed events, and hands the first *fatal* anomaly back for fail-fast
/// handling.
pub(crate) struct SentinelState {
    phase: &'static str,
    losses: Vec<f64>,
}

impl SentinelState {
    pub(crate) fn new(phase: &'static str) -> Self {
        Self { phase, losses: Vec::new() }
    }

    pub(crate) fn check(
        &mut self,
        cfg: &SentinelConfig,
        epoch: usize,
        loss: f64,
        grad_norm: f64,
    ) -> Option<TrainAnomaly> {
        self.losses.push(loss);
        let mut fatal: Option<TrainAnomaly> = None;
        let flag = |anomaly: TrainAnomaly, fatal: &mut Option<TrainAnomaly>| {
            emit_anomaly(&anomaly);
            if anomaly.is_fatal() && fatal.is_none() {
                *fatal = Some(anomaly);
            }
        };
        let phase = self.phase;
        if !loss.is_finite() {
            flag(TrainAnomaly::NonFiniteLoss { phase, epoch, value: loss }, &mut fatal);
        }
        if !grad_norm.is_finite() {
            flag(TrainAnomaly::NonFiniteGradNorm { phase, epoch }, &mut fatal);
        }
        if cfg.window > 0 && self.losses.len() > cfg.window && loss.is_finite() {
            let from = self.losses[self.losses.len() - 1 - cfg.window];
            if from.is_finite() {
                let scale = from.abs().max(1e-12);
                if loss > from + cfg.divergence_ratio * scale {
                    flag(TrainAnomaly::Divergence { phase, epoch, from, to: loss }, &mut fatal);
                } else if cfg.plateau_epsilon > 0.0 && from - loss < cfg.plateau_epsilon * scale {
                    flag(TrainAnomaly::Plateau { phase, epoch, from, to: loss }, &mut fatal);
                }
            }
        }
        fatal
    }
}

/// Rolling per-epoch wall-time window backing the `eta_ms` field of
/// `train_epoch` records: ETA = mean of the last few epoch durations ×
/// epochs remaining. Only driven while observability is on.
pub(crate) struct EpochRate {
    durs_ms: std::collections::VecDeque<f64>,
}

impl EpochRate {
    const WINDOW: usize = 8;

    pub(crate) fn new() -> Self {
        Self { durs_ms: std::collections::VecDeque::with_capacity(Self::WINDOW) }
    }

    pub(crate) fn eta_ms(&mut self, wall_ms: f64, remaining_epochs: usize) -> f64 {
        if self.durs_ms.len() == Self::WINDOW {
            self.durs_ms.pop_front();
        }
        self.durs_ms.push_back(wall_ms);
        let mean = self.durs_ms.iter().sum::<f64>() / self.durs_ms.len() as f64;
        mean * remaining_epochs as f64
    }
}

/// MAML hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct MamlConfig {
    /// Inner-loop (local update) learning rate α.
    pub inner_lr: f32,
    /// Outer-loop (global update) Adam learning rate.
    pub outer_lr: f32,
    /// Inner gradient steps per task.
    pub inner_steps: usize,
    /// Tasks per outer update.
    pub meta_batch: usize,
    /// Passes over the task set.
    pub epochs: usize,
    /// Gradient steps used when fine-tuning at meta-test time.
    pub finetune_steps: usize,
    /// Seed for task shuffling.
    pub seed: u64,
}

impl Default for MamlConfig {
    fn default() -> Self {
        Self {
            inner_lr: 0.1,
            outer_lr: 3e-3,
            inner_steps: 2,
            meta_batch: 8,
            epochs: 25,
            finetune_steps: 10,
            seed: 0x3A31,
        }
    }
}

/// Per-epoch meta-training diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct MetaEpochReport {
    /// Mean query loss *after* inner adaptation (the meta objective).
    pub post_adapt_query_loss: f32,
    /// Mean support loss before adaptation (for monitoring).
    pub pre_adapt_support_loss: f32,
}

/// The MAML-trained preference meta-learner.
pub struct MetaLearner {
    model: PreferenceModel,
    config: MamlConfig,
}

impl MetaLearner {
    /// Builds a fresh meta-learner.
    pub fn new(
        pref_config: PreferenceConfig,
        maml_config: MamlConfig,
        rng: &mut SeededRng,
    ) -> Self {
        Self { model: PreferenceModel::new(pref_config, rng), config: maml_config }
    }

    /// Immutable access to the underlying preference model.
    pub fn model(&self) -> &PreferenceModel {
        &self.model
    }

    /// Mutable access (used by the evaluation harness for state snapshots).
    pub fn model_mut(&mut self) -> &mut PreferenceModel {
        &mut self.model
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> MamlConfig {
        self.config
    }

    /// Builds a learner holding `params` (a
    /// [`metadpa_nn::module::snapshot`] of a model with
    /// `pref_config`). The construction seed is irrelevant — `restore`
    /// overwrites every trainable parameter — so it scores bit-identically
    /// to the model the parameters were taken from (the serve artifact
    /// reload relies on the same property).
    pub fn with_params(
        pref_config: PreferenceConfig,
        maml_config: MamlConfig,
        params: &[Matrix],
    ) -> MetaLearner {
        let mut learner = MetaLearner::new(pref_config, maml_config, &mut SeededRng::new(0));
        restore(&mut learner.model, params);
        learner
    }

    /// Meta-trains on a task set (originals plus augmented tasks, Eqs. 9-10).
    ///
    /// `user_content` and `item_content` are the target domain's content
    /// matrices; tasks index into them.
    ///
    /// Returns one report per epoch. Infallible: runs with the default
    /// (non-fail-fast) sentinels via [`MetaLearner::meta_train_checked`],
    /// which is bit-identical to the historical loop.
    pub fn meta_train(
        &mut self,
        tasks: &[Task],
        user_content: &Matrix,
        item_content: &Matrix,
    ) -> Vec<MetaEpochReport> {
        self.meta_train_checked(tasks, user_content, item_content, &SentinelConfig::default())
            .expect("meta_train without fail_fast never aborts")
    }

    /// [`MetaLearner::meta_train`] with anomaly sentinels: each epoch's
    /// query loss and meta-gradient norm run through `sentinels`, typed
    /// `train_anomaly` events are emitted while observability is on, and
    /// with `sentinels.fail_fast` a fatal anomaly stops training with a
    /// [`TrainAbort`] — θ is rewound to its state at the start of the
    /// aborted epoch, so the model stays usable.
    ///
    /// While observability is on, every epoch additionally emits one
    /// structured `train_epoch` record (losses, grad norm, wall time,
    /// rolling-rate ETA). The parameter updates themselves are identical
    /// whether observability is on or off and at any thread count.
    pub fn meta_train_checked(
        &mut self,
        tasks: &[Task],
        user_content: &Matrix,
        item_content: &Matrix,
        sentinels: &SentinelConfig,
    ) -> Result<Vec<MetaEpochReport>, TrainAbort> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let _train_span = metadpa_obs::span!("maml.meta_train");
        metadpa_obs::event!(
            "maml.start",
            "tasks" => tasks.len(),
            "epochs" => self.config.epochs,
            "inner_steps" => self.config.inner_steps,
            "meta_batch" => self.config.meta_batch,
        );
        // Per-task FOMAML gradients. The tasks of one meta-batch are
        // independent (each starts from θ), so they fan out across a pool
        // team that lives for the whole run: every team thread adapts its
        // own scratch replica, rebuilt from θ per task, so `self.model`
        // holds θ throughout and only the outer update writes it. Results
        // come back in task order and the meta-gradient is folded in that
        // order, so the outer update is bit-identical at any thread count.
        let config = self.config;
        let pref_config = self.model.config();
        Pool::current().team(
            MetaBatch::default(),
            || (PreferenceModel::new(pref_config, &mut SeededRng::new(0)), TaskScratch::default()),
            |(model, scratch), batch: &MetaBatch, j| {
                let task = &tasks[batch.tasks[j]];
                let user = user_content.row(task.user);
                fomaml_task_grads(model, &config, &batch.theta, user, item_content, task, scratch)
            },
            |team| self.meta_train_epochs(team, tasks, sentinels),
        )
    }

    /// The epoch loop of [`MetaLearner::meta_train_checked`], running each
    /// meta-batch's tasks on `team`.
    fn meta_train_epochs(
        &mut self,
        team: &mut Team<'_, (PreferenceModel, TaskScratch), MetaBatch, TaskGrads>,
        tasks: &[Task],
        sentinels: &SentinelConfig,
    ) -> Result<Vec<MetaEpochReport>, TrainAbort> {
        let mut rng = SeededRng::new(self.config.seed);
        let mut outer = Adam::new(self.config.outer_lr);
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        let mut reports = Vec::with_capacity(self.config.epochs);
        // Sentinel/telemetry state. θ is additionally snapshotted at epoch
        // entry when fail-fast is armed so an abort can rewind cleanly.
        let mut sentinel = SentinelState::new("maml");
        let mut rate = EpochRate::new();
        let mut theta_entry: Vec<Matrix> = Vec::new();

        for epoch in 0..self.config.epochs {
            let _epoch_span = metadpa_obs::span!("maml.epoch");
            let telemetry = metadpa_obs::enabled();
            let sentinel_active = sentinels.fail_fast || telemetry;
            let epoch_start = telemetry.then(std::time::Instant::now);
            if sentinels.fail_fast {
                snapshot_into(&mut self.model, &mut theta_entry);
            }
            let mut epoch_grad_norm = 0.0f64;
            rng.shuffle(&mut order);
            let mut query_total = 0.0f64;
            let mut support_total = 0.0f64;
            let mut n_tasks = 0usize;

            for chunk in order.chunks(self.config.meta_batch) {
                let used =
                    {
                        // The θ snapshot buffer is reused across meta-batches.
                        let mut batch = team.input_mut();
                        snapshot_into(&mut self.model, &mut batch.theta);
                        batch.tasks.clear();
                        batch.tasks.extend(chunk.iter().copied().filter(|&t| {
                            !tasks[t].support.is_empty() && !tasks[t].query.is_empty()
                        }));
                        batch.tasks.len()
                    };
                let results = {
                    let _inner_span = metadpa_obs::span!("maml.inner_loop");
                    team.map(used)
                };

                // Deterministic fold: task order, on this thread.
                let mut meta_grads: Option<Vec<Matrix>> = None;
                for (grads, query_loss, support_loss) in results {
                    match &mut meta_grads {
                        None => meta_grads = Some(grads),
                        Some(acc) => {
                            for (a, g) in acc.iter_mut().zip(grads.iter()) {
                                a.add_inplace(g);
                            }
                        }
                    }
                    query_total += query_loss as f64;
                    support_total += support_loss as f64;
                    n_tasks += 1;
                }

                // Outer update from θ with the averaged meta-gradient.
                let _outer_span = metadpa_obs::span!("maml.outer_update");
                if let Some(mut grads) = meta_grads {
                    let inv = 1.0 / used as f32;
                    for g in &mut grads {
                        g.map_inplace(|v| v * inv);
                    }
                    if sentinel_active {
                        // Read-only norm of the averaged meta-gradient; the
                        // epoch reports the largest chunk (NaN is sticky —
                        // f64::max would silently drop it).
                        let mut sq = 0.0f64;
                        for g in &grads {
                            let n = g.frobenius_norm() as f64;
                            sq += n * n;
                        }
                        let norm = sq.sqrt();
                        epoch_grad_norm = if norm.is_nan() || epoch_grad_norm.is_nan() {
                            f64::NAN
                        } else {
                            epoch_grad_norm.max(norm)
                        };
                    }
                    zero_grad(&mut self.model);
                    accumulate_grads(&mut self.model, &grads);
                    outer.step(&mut self.model);
                }
            }

            let report = MetaEpochReport {
                post_adapt_query_loss: (query_total / n_tasks.max(1) as f64) as f32,
                pre_adapt_support_loss: (support_total / n_tasks.max(1) as f64) as f32,
            };
            metadpa_obs::event!(
                "maml.epoch",
                "epoch" => epoch,
                "post_adapt_query_loss" => report.post_adapt_query_loss,
                "pre_adapt_support_loss" => report.pre_adapt_support_loss,
                "tasks_used" => n_tasks,
            );
            if let Some(start) = epoch_start {
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let eta_ms = rate.eta_ms(wall_ms, self.config.epochs - epoch - 1);
                let mut ev = metadpa_obs::Event::new("train_epoch", "train_epoch");
                ev.push("phase", "maml");
                ev.push("epoch", epoch);
                ev.push("epochs", self.config.epochs);
                ev.push("loss", report.post_adapt_query_loss as f64);
                ev.push("query_loss", report.post_adapt_query_loss as f64);
                ev.push("support_loss", report.pre_adapt_support_loss as f64);
                ev.push("grad_norm", epoch_grad_norm);
                ev.push("tasks", n_tasks);
                ev.push("wall_ms", wall_ms);
                ev.push("eta_ms", eta_ms);
                metadpa_obs::emit(ev);
            }
            reports.push(report);
            if sentinel_active {
                if let Some(anomaly) = sentinel.check(
                    sentinels,
                    epoch,
                    report.post_adapt_query_loss as f64,
                    epoch_grad_norm,
                ) {
                    if sentinels.fail_fast {
                        restore(&mut self.model, &theta_entry);
                        return Err(TrainAbort { anomaly });
                    }
                }
            }
        }
        Ok(reports)
    }

    /// Meta-testing adaptation: fine-tunes the current parameters on the
    /// support sets of the given tasks (the paper fine-tunes the trained
    /// model with "a few ratings" before cold-start evaluation).
    ///
    /// Unlike meta-training this mutates the model in place; the harness
    /// snapshots/restores around it.
    pub fn fine_tune(&mut self, tasks: &[Task], user_content: &Matrix, item_content: &Matrix) {
        let _span = metadpa_obs::span!("maml.fine_tune");
        let sgd = Sgd::new(self.config.inner_lr);
        let mut scratch = TaskScratch::default();
        for _ in 0..self.config.finetune_steps {
            for task in tasks {
                if task.support.is_empty() {
                    continue;
                }
                let uc = user_content.row(task.user);
                zero_grad(&mut self.model);
                let _ = run_set_on(
                    &mut self.model,
                    uc,
                    item_content,
                    &task.support,
                    true,
                    &mut scratch,
                );
                self.model.visit_params(&mut |p| sgd.step_param(p));
            }
        }
    }

    /// Scores candidate items for a user (higher is better).
    pub fn score(
        &mut self,
        user_content: &[f32],
        item_content: &Matrix,
        items: &[usize],
    ) -> Vec<f32> {
        self.model.score_items(user_content, item_content, items)
    }

    /// [`MetaLearner::score`] into a reused caller vector — bit-identical,
    /// zero allocations in steady state (the serve catalogue-ranking path).
    pub fn score_into(
        &mut self,
        user_content: &[f32],
        item_content: &Matrix,
        items: &[usize],
        out: &mut Vec<f32>,
    ) {
        self.model.score_items_into(user_content, item_content, items, out);
    }

    /// Precomputes the item embedding table for the model's current
    /// parameters — see [`PreferenceModel::embed_items`].
    pub fn embed_items(&mut self, item_content: &Matrix) -> Matrix {
        self.model.embed_items(item_content)
    }

    /// [`MetaLearner::score_into`] from a precomputed item embedding table
    /// — bit-identical to the full pass for the same parameters, see
    /// [`PreferenceModel::score_embedded_into`].
    pub fn score_embedded_into(
        &mut self,
        user_content: &[f32],
        item_embeds: &Matrix,
        items: &[usize],
        out: &mut Vec<f32>,
    ) {
        self.model.score_embedded_into(user_content, item_embeds, items, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_nn::module::snapshot;

    fn toy_config() -> (PreferenceConfig, MamlConfig) {
        (
            PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] },
            MamlConfig {
                inner_lr: 0.1,
                outer_lr: 5e-3,
                inner_steps: 1,
                meta_batch: 4,
                epochs: 8,
                finetune_steps: 3,
                seed: 1,
            },
        )
    }

    /// A toy task universe: user u likes item i iff their content vectors
    /// agree in sign on the first coordinate.
    fn toy_tasks(
        rng: &mut SeededRng,
        n_users: usize,
        n_items: usize,
    ) -> (Vec<Task>, Matrix, Matrix) {
        let user_content = Matrix::from_fn(n_users, 6, |u, c| {
            let sign = if u % 2 == 0 { 1.0 } else { -1.0 };
            sign * (0.3 + 0.1 * c as f32) + 0.01 * rng.normal()
        });
        let item_content = Matrix::from_fn(n_items, 6, |i, c| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            sign * (0.3 + 0.05 * c as f32) + 0.01 * rng.normal()
        });
        let mut tasks = Vec::new();
        for u in 0..n_users {
            let mut pairs: Vec<(usize, f32)> =
                (0..n_items).map(|i| (i, if (u % 2) == (i % 2) { 1.0 } else { 0.0 })).collect();
            rng.shuffle(&mut pairs);
            let (s, q) = pairs.split_at(n_items / 2);
            tasks.push(Task { user: u, support: s.to_vec(), query: q.to_vec() });
        }
        (tasks, user_content, item_content)
    }

    #[test]
    fn meta_training_reduces_post_adaptation_query_loss() {
        let mut rng = SeededRng::new(2);
        let (pc, mc) = toy_config();
        let mut learner = MetaLearner::new(pc, mc, &mut rng);
        let (tasks, uc, ic) = toy_tasks(&mut rng, 12, 10);
        let reports = learner.meta_train(&tasks, &uc, &ic);
        assert_eq!(reports.len(), 8);
        let first = reports.first().unwrap().post_adapt_query_loss;
        let last = reports.last().unwrap().post_adapt_query_loss;
        assert!(last < first, "meta objective should improve: {first} -> {last}");
    }

    #[test]
    fn fine_tuning_adapts_to_an_unseen_user() {
        // Train on even-user tasks; fine-tune on an odd user's support; the
        // score ordering must flip to match the odd user's preference. The
        // seed is pinned to the in-tree xoshiro256++ streams.
        let mut rng = SeededRng::new(4);
        let (pc, mc) = toy_config();
        let mut learner = MetaLearner::new(pc, mc, &mut rng);
        let (tasks, uc, ic) = toy_tasks(&mut rng, 12, 10);
        let train: Vec<Task> = tasks.iter().filter(|t| t.user % 2 == 0).cloned().collect();
        let _ = learner.meta_train(&train, &uc, &ic);

        let cold = tasks.iter().find(|t| t.user % 2 == 1).unwrap().clone();
        learner.fine_tune(std::slice::from_ref(&cold), &uc, &ic);
        let scores = learner.score(uc.row(cold.user), &ic, &[0, 1]);
        // Odd users like odd items: item 1 must outscore item 0.
        assert!(
            scores[1] > scores[0],
            "fine-tuned model should prefer odd items for odd users: {scores:?}"
        );
    }

    #[test]
    fn meta_train_on_empty_tasks_is_a_noop() {
        let mut rng = SeededRng::new(4);
        let (pc, mc) = toy_config();
        let mut learner = MetaLearner::new(pc, mc, &mut rng);
        let uc = Matrix::zeros(1, 6);
        let ic = Matrix::zeros(1, 6);
        assert!(learner.meta_train(&[], &uc, &ic).is_empty());
    }

    #[test]
    fn tasks_with_empty_sets_are_skipped() {
        let mut rng = SeededRng::new(5);
        let (pc, mc) = toy_config();
        let mut learner = MetaLearner::new(pc, mc, &mut rng);
        let uc = Matrix::zeros(2, 6);
        let ic = Matrix::zeros(3, 6);
        let tasks = vec![
            Task { user: 0, support: vec![], query: vec![(0, 1.0)] },
            Task { user: 1, support: vec![(1, 1.0)], query: vec![] },
        ];
        let reports = learner.meta_train(&tasks, &uc, &ic);
        // Every task was skipped -> losses are 0 (no contribution).
        assert!(reports.iter().all(|r| r.post_adapt_query_loss == 0.0));
    }

    #[test]
    fn meta_training_is_deterministic() {
        let run = || {
            let mut rng = SeededRng::new(6);
            let (pc, mc) = toy_config();
            let mut learner = MetaLearner::new(pc, mc, &mut rng);
            let (tasks, uc, ic) = toy_tasks(&mut rng, 8, 8);
            let _ = learner.meta_train(&tasks, &uc, &ic);
            learner.score(uc.row(0), &ic, &[0, 1, 2, 3])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn meta_training_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            metadpa_tensor::pool::with_threads(threads, || {
                let mut rng = SeededRng::new(6);
                let (pc, mc) = toy_config();
                let mut learner = MetaLearner::new(pc, mc, &mut rng);
                let (tasks, uc, ic) = toy_tasks(&mut rng, 9, 8);
                let _ = learner.meta_train(&tasks, &uc, &ic);
                snapshot(learner.model_mut())
            })
        };
        let serial = run(1);
        for threads in [2, 7] {
            let parallel = run(threads);
            assert_eq!(serial.len(), parallel.len());
            for (layer, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
                for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "θ layer {layer} element {i} drifts at threads={threads}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn sentinels_flag_divergence_and_non_finite_but_keep_plateau_advisory() {
        let cfg = SentinelConfig {
            window: 2,
            divergence_ratio: 0.5,
            plateau_epsilon: 1e-3,
            fail_fast: true,
        };
        let mut s = SentinelState::new("maml");
        assert!(s.check(&cfg, 0, 1.0, 0.1).is_none());
        assert!(s.check(&cfg, 1, 0.9, 0.1).is_none());
        let fatal = s.check(&cfg, 2, 1.9, 0.1).expect("a 90% loss rise is a divergence");
        assert_eq!(fatal.kind(), "divergence");

        let mut s = SentinelState::new("maml");
        assert_eq!(s.check(&cfg, 0, f64::NAN, 0.1).map(|a| a.kind()), Some("non_finite_loss"));

        let mut s = SentinelState::new("maml");
        assert_eq!(
            s.check(&cfg, 0, 1.0, f64::INFINITY).map(|a| a.kind()),
            Some("non_finite_grad_norm")
        );

        // A flat loss series is a plateau: reported, never fatal.
        let mut s = SentinelState::new("maml");
        assert!(s.check(&cfg, 0, 1.0, 0.1).is_none());
        assert!(s.check(&cfg, 1, 1.0, 0.1).is_none());
        assert!(s.check(&cfg, 2, 1.0, 0.1).is_none(), "plateau must stay advisory");
    }

    #[test]
    fn fail_fast_abort_on_poisoned_theta_leaves_parameters_intact() {
        let mut rng = SeededRng::new(11);
        let (pc, mc) = toy_config();
        let mut learner = MetaLearner::new(pc, mc, &mut rng);
        let (tasks, uc, ic) = toy_tasks(&mut rng, 8, 8);
        // Poison θ: every forward pass now yields a NaN loss.
        learner.model_mut().visit_params(&mut |p| {
            if !p.value.is_empty() {
                p.value.as_mut_slice()[0] = f32::NAN;
            }
        });
        let before = snapshot(learner.model_mut());
        let sentinels = SentinelConfig { fail_fast: true, ..SentinelConfig::default() };
        let err = learner
            .meta_train_checked(&tasks, &uc, &ic, &sentinels)
            .expect_err("a NaN loss must trip the fail-fast sentinel");
        assert_eq!(err.anomaly.kind(), "non_finite_loss");
        assert_eq!(err.anomaly.epoch(), 0);
        assert_eq!(err.anomaly.phase(), "maml");
        let after = snapshot(learner.model_mut());
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "abort must rewind θ intact");
            }
        }
    }

    #[test]
    fn fork_scores_bit_identically() {
        let mut rng = SeededRng::new(9);
        let (pc, mc) = toy_config();
        let mut learner = MetaLearner::new(pc, mc, &mut rng);
        let (tasks, uc, ic) = toy_tasks(&mut rng, 8, 8);
        let _ = learner.meta_train(&tasks, &uc, &ic);
        let mut fork = MetaLearner::with_params(pc, mc, &snapshot(learner.model_mut()));
        let items: Vec<usize> = (0..8).collect();
        assert_eq!(learner.score(uc.row(3), &ic, &items), fork.score(uc.row(3), &ic, &items));
    }
}
