//! Exported serving artifacts: everything a cold-start inference server
//! needs, detached from the training pipeline.
//!
//! An [`Artifact`] is the self-contained value a fitted [`crate::MetaDpa`]
//! exports ([`crate::MetaDpa::export_artifact`]): the preference-model
//! parameters as a named-tensor table, the target domain's content
//! matrices, and enough metadata ([`ArtifactMeta`]) to rebuild the exact
//! model and to refuse mismatched data at load time. `metadpa-serve`
//! persists it in the `metadpa-ckpt/v2` on-disk format; this module is the
//! in-memory contract shared by exporter, checkpoint codec and server.
//!
//! [`Artifact::into_recommender`] rebuilds a forward-only scorer,
//! [`ArtifactRecommender`], that reuses the *same* [`MetaLearner`] code
//! paths as the offline pipeline — scoring and serve-time MAML adaptation
//! are therefore bit-identical to what `fit`/`fine_tune`/`score` produce
//! in memory, which is what makes the export → reload round trip exact.

use std::fmt;

use metadpa_data::task::Task;
use metadpa_metrics::ranking::top_k_indices;
use metadpa_nn::module::{named_snapshot, restore, restore_named, snapshot};
use metadpa_tensor::{simd, Matrix, SeededRng};

use crate::augmentation::DiversityReport;
use crate::maml::{MamlConfig, MetaLearner};
use crate::preference::PreferenceConfig;

/// Schema identifier embedded in every exported artifact.
pub const ARTIFACT_SCHEMA: &str = "metadpa-artifact/v1";

/// How an artifact ranks the catalogue at serve time.
///
/// The checkpoint stores the same f32 tensors either way.
/// [`Ranking::Exact`] is the default and scores bit-identically to the
/// training pipeline; [`Ranking::Fused`] runs the whole catalogue-ranking
/// path under the fused-FMA kernels, trading the bit-identity guarantee
/// for throughput within the documented epsilon (DESIGN §14).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Ranking {
    /// Default: exact kernels, bit-identical to the training pipeline.
    #[default]
    Exact,
    /// Opt-in: fused-FMA kernels ([`simd::Policy::Fused`]).
    Fused,
}

impl Ranking {
    /// Stable lowercase name (`"exact"` / `"fused"`), used by the
    /// checkpoint metadata and the serving `/health` document.
    pub fn as_str(self) -> &'static str {
        match self {
            Ranking::Exact => "exact",
            Ranking::Fused => "fused",
        }
    }

    /// The kernel policy ranking runs under: [`simd::Policy::Fused`], or
    /// the caller's own policy for exact ranking.
    fn policy(self) -> simd::Policy {
        match self {
            Ranking::Exact => simd::current_policy(),
            Ranking::Fused => simd::Policy::Fused,
        }
    }
}

/// Name prefix of the preference-model tensors in the artifact's table
/// (`preference.p000`, `preference.p001`, …).
pub const PARAM_PREFIX: &str = "preference";

/// Cumulative probabilities of the exported score fingerprint — fixed so
/// every artifact's sketch is comparable to every other's.
pub const FINGERPRINT_PROBS: [f32; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

/// Quantile sketch of the training-time ranking-score distribution.
///
/// Stamped into [`ArtifactMeta`] at export so the serving layer can compare
/// the live score distribution against training and report drift: the
/// fingerprint's quantile values become frozen bin thresholds, and the
/// drift statistic is the sup-distance between the live windowed empirical
/// CDF at those thresholds and `probs`. An empty fingerprint (artifacts
/// exported before this field existed, or degenerate training data)
/// disables drift tracking.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreFingerprint {
    /// Cumulative probabilities, ascending ([`FINGERPRINT_PROBS`]).
    pub probs: Vec<f32>,
    /// Training-score quantiles at those probabilities, ascending.
    pub quantiles: Vec<f32>,
}

impl ScoreFingerprint {
    /// Whether the sketch carries no data (drift tracking disabled).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Sketches `scores` at [`FINGERPRINT_PROBS`] (ceil-rank quantiles over
    /// the finite values); empty when there is nothing finite to sketch.
    pub fn from_scores(scores: &[f32]) -> Self {
        let mut finite: Vec<f32> = scores.iter().copied().filter(|s| s.is_finite()).collect();
        if finite.is_empty() {
            return Self::default();
        }
        finite.sort_by(f32::total_cmp);
        let n = finite.len();
        let quantiles = FINGERPRINT_PROBS
            .iter()
            .map(|&p| {
                // The epsilon absorbs f32→f64 widening error (0.99f32 is
                // 0.9900000095… as f64, which would overshoot the ceil rank).
                let rank = ((p as f64 * n as f64 - 1e-6).ceil() as usize).clamp(1, n);
                finite[rank - 1]
            })
            .collect();
        Self { probs: FINGERPRINT_PROBS.to_vec(), quantiles }
    }
}

/// Provenance and architecture metadata stored alongside the tensors.
#[derive(Clone, Debug)]
pub struct ArtifactMeta {
    /// Always [`ARTIFACT_SCHEMA`] for artifacts this crate writes.
    pub schema: String,
    /// Display name of the exporting model (e.g. `"MetaDPA"`).
    pub model_name: String,
    /// Git revision of the exporting build (short hash, `-dirty` suffixed).
    pub git_rev: String,
    /// Structural fingerprint of the training world
    /// ([`metadpa_data::domain::World::fingerprint_hex`]); a server can
    /// compare it against live data before answering by-id requests.
    pub data_fingerprint: String,
    /// Preference-model architecture (content_dim reflects the data).
    pub preference: PreferenceConfig,
    /// MAML hyper-parameters; `inner_lr` and `finetune_steps` define the
    /// serve-time adaptation contract.
    pub maml: MamlConfig,
    /// Diversity statistics of the augmentation that trained this model.
    pub diversity: DiversityReport,
    /// Training-score-distribution sketch for serve-time drift detection;
    /// empty on artifacts exported before the field existed.
    pub score_fingerprint: ScoreFingerprint,
    /// Run-ledger key of the training run that produced this artifact
    /// (`run-<seed>-<config fingerprint>-<seq>`, see
    /// [`metadpa_obs::run`]); empty on artifacts exported before the run
    /// ledger existed or outside an instrumented pipeline run. Joins the
    /// checkpoint to its training trace, BENCH documents and the serving
    /// `/health` document.
    pub run_id: String,
    /// Catalogue-ranking kernels ([`Ranking::Exact`] unless the artifact
    /// was exported with `--ranking fused`).
    pub ranking: Ranking,
}

/// A self-contained exported model: metadata, named parameter tensors and
/// the target domain's content matrices.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Provenance and architecture.
    pub meta: ArtifactMeta,
    /// Preference-model parameters from
    /// [`metadpa_nn::module::named_snapshot`] under [`PARAM_PREFIX`].
    pub params: Vec<(String, Matrix)>,
    /// `n_users x content_dim` user content of the target domain.
    pub user_content: Matrix,
    /// `n_items x content_dim` item content of the target domain.
    pub item_content: Matrix,
}

/// Typed failures of artifact reconstruction and serving-side requests.
///
/// These are *request/data* errors, never panics: the server maps them to
/// 4xx responses (e.g. [`ArtifactError::UserOutOfRange`] → 422).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// A by-id request referenced a user the artifact does not know.
    UserOutOfRange {
        /// The offending user id.
        user: usize,
        /// Number of users the artifact was exported with.
        n_users: usize,
    },
    /// A support pair referenced an item beyond the catalogue.
    ItemOutOfRange {
        /// The offending item id.
        item: usize,
        /// Number of items the artifact was exported with.
        n_items: usize,
    },
    /// Adaptation was requested with an empty support set.
    EmptySupport,
    /// A support label was NaN or infinite.
    NonFiniteLabel {
        /// The item whose label was non-finite.
        item: usize,
    },
    /// A content vector (or content matrix) has the wrong width.
    ContentDimMismatch {
        /// Which input was malformed (`"user_content"`, `"request"`, …).
        what: &'static str,
        /// Observed width.
        got: usize,
        /// Width the artifact's architecture expects.
        want: usize,
    },
    /// The named-tensor table does not match the architecture in the
    /// metadata (wrong names, shapes or count).
    BadParams(String),
    /// Scoring produced NaN or infinity — the artifact's parameters are
    /// corrupt (but CRC-valid) or overflow-producing. Reported per request
    /// instead of panicking inside `top_k_indices`, which would kill an
    /// HTTP worker despite the server's "never panics" contract.
    NonFiniteScores {
        /// The first catalogue item whose score was non-finite.
        item: usize,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::UserOutOfRange { user, n_users } => {
                write!(f, "user id {user} out of range: artifact has {n_users} users")
            }
            ArtifactError::ItemOutOfRange { item, n_items } => {
                write!(f, "item id {item} out of range: artifact has {n_items} items")
            }
            ArtifactError::EmptySupport => {
                write!(f, "adaptation requires a non-empty support set")
            }
            ArtifactError::NonFiniteLabel { item } => {
                write!(f, "support label for item {item} is not finite")
            }
            ArtifactError::ContentDimMismatch { what, got, want } => {
                write!(f, "{what} has content width {got}, artifact expects {want}")
            }
            ArtifactError::BadParams(msg) => write!(f, "parameter table mismatch: {msg}"),
            ArtifactError::NonFiniteScores { item } => {
                write!(f, "scoring produced a non-finite value at item {item}")
            }
        }
    }
}

impl ArtifactError {
    /// Stable slug naming this error's cause, used by the serving layer's
    /// error-taxonomy counters (`serve.errors.422.<cause>`).
    pub fn cause(&self) -> &'static str {
        match self {
            ArtifactError::UserOutOfRange { .. } => "user_out_of_range",
            ArtifactError::ItemOutOfRange { .. } => "item_out_of_range",
            ArtifactError::EmptySupport => "empty_support",
            ArtifactError::NonFiniteLabel { .. } => "non_finite_label",
            ArtifactError::ContentDimMismatch { .. } => "content_dim_mismatch",
            ArtifactError::BadParams(_) => "bad_params",
            ArtifactError::NonFiniteScores { .. } => "non_finite_scores",
        }
    }
}

impl std::error::Error for ArtifactError {}

impl Artifact {
    /// Rebuilds the forward-only scorer from this artifact.
    ///
    /// Validates that the content matrices match the recorded architecture
    /// and that the parameter table restores cleanly into a freshly built
    /// [`crate::PreferenceModel`] of that architecture.
    pub fn into_recommender(self) -> Result<ArtifactRecommender, ArtifactError> {
        let Artifact { meta, params, user_content, item_content } = self;
        let want = meta.preference.content_dim;
        if user_content.cols() != want {
            return Err(ArtifactError::ContentDimMismatch {
                what: "user_content",
                got: user_content.cols(),
                want,
            });
        }
        if item_content.cols() != want {
            return Err(ArtifactError::ContentDimMismatch {
                what: "item_content",
                got: item_content.cols(),
                want,
            });
        }
        // The RNG only sets the initial weights, which `restore_named`
        // overwrites entirely — any seed yields the same recommender.
        let mut rng = SeededRng::new(0);
        let mut learner = MetaLearner::new(meta.preference, meta.maml, &mut rng);
        restore_named(learner.model_mut(), PARAM_PREFIX, &params)
            .map_err(ArtifactError::BadParams)?;
        let theta = snapshot(learner.model_mut());
        let catalogue: Vec<usize> = (0..item_content.rows()).collect();
        // Precompute the item embedding table at θ under the same kernel
        // policy scoring will use, so every serve instance of this
        // artifact holds the identical table: per-row accumulation makes
        // it equal (bitwise) to inline embedding for the θ path.
        let item_embeds =
            simd::with_policy(meta.ranking.policy(), || learner.embed_items(&item_content));
        Ok(ArtifactRecommender {
            meta,
            learner,
            theta,
            user_content,
            item_content,
            item_embeds,
            catalogue,
            scores: Vec::new(),
        })
    }
}

/// The serving-side scorer rebuilt from an [`Artifact`].
///
/// Wraps a [`MetaLearner`] pinned at the exported parameters θ. Every
/// scoring call runs at θ unless explicitly given an adapted parameter set
/// (produced by [`ArtifactRecommender::adapt_user`] /
/// [`ArtifactRecommender::adapt_content`]); adapted scoring rewinds to θ
/// afterwards, so the recommender itself never drifts.
pub struct ArtifactRecommender {
    meta: ArtifactMeta,
    learner: MetaLearner,
    theta: Vec<Matrix>,
    user_content: Matrix,
    item_content: Matrix,
    /// Item embedding table precomputed at θ (`n_items x embed_dim`):
    /// θ-scoring ranks straight from it, skipping the per-request item
    /// embedding matmul. Valid only at θ — adapted-parameter requests run
    /// the full pass over `item_content` instead.
    item_embeds: Matrix,
    /// `0..n_items`, built once at reload: every ranking request scores
    /// the whole catalogue, so the index list never changes.
    catalogue: Vec<usize>,
    /// Per-request score buffer, reused across calls.
    scores: Vec<f32>,
}

impl ArtifactRecommender {
    /// The artifact's metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// Number of users the artifact was exported with.
    pub fn n_users(&self) -> usize {
        self.user_content.rows()
    }

    /// Number of items in the catalogue.
    pub fn n_items(&self) -> usize {
        self.item_content.rows()
    }

    /// Content vector width.
    pub fn content_dim(&self) -> usize {
        self.meta.preference.content_dim
    }

    /// The exported meta-parameters θ (one matrix per model parameter, in
    /// visit order) — the rewind point for all adaptation.
    pub fn theta(&self) -> &[Matrix] {
        &self.theta
    }

    /// The full-catalogue scores of the most recent successful ranking
    /// call (the reused per-request buffer). The serving layer samples
    /// these into its live drift window; empty before the first request.
    pub fn last_scores(&self) -> &[f32] {
        &self.scores
    }

    /// Column mean of the user-content matrix: the "average user" vector
    /// used for cold requests that carry no content of their own.
    pub fn mean_user_content(&self) -> Vec<f32> {
        let rows = self.user_content.rows();
        let mut mean = vec![0.0f32; self.user_content.cols()];
        for r in 0..rows {
            for (m, v) in mean.iter_mut().zip(self.user_content.row(r)) {
                *m += v;
            }
        }
        let inv = 1.0 / rows.max(1) as f32;
        for m in &mut mean {
            *m *= inv;
        }
        mean
    }

    fn check_user(&self, user: usize) -> Result<(), ArtifactError> {
        if user >= self.n_users() {
            return Err(ArtifactError::UserOutOfRange { user, n_users: self.n_users() });
        }
        Ok(())
    }

    fn check_content(&self, content: &[f32]) -> Result<(), ArtifactError> {
        if content.len() != self.content_dim() {
            return Err(ArtifactError::ContentDimMismatch {
                what: "request content",
                got: content.len(),
                want: self.content_dim(),
            });
        }
        Ok(())
    }

    fn check_support(&self, support: &[(usize, f32)]) -> Result<(), ArtifactError> {
        if support.is_empty() {
            return Err(ArtifactError::EmptySupport);
        }
        for &(item, label) in support {
            if item >= self.n_items() {
                return Err(ArtifactError::ItemOutOfRange { item, n_items: self.n_items() });
            }
            if !label.is_finite() {
                return Err(ArtifactError::NonFiniteLabel { item });
            }
        }
        Ok(())
    }

    /// Validates one streaming implicit-feedback event against this
    /// artifact: the user must be known, the item in the catalogue and the
    /// label finite — the same checks adaptation applies to support pairs,
    /// surfaced as an entry point so the feedback ingestion endpoint can
    /// reject out-of-catalogue events (422) *before* they reach the
    /// append-only log, keeping every logged event replayable.
    pub fn validate_event(
        &self,
        user: usize,
        item: usize,
        label: f32,
    ) -> Result<(), ArtifactError> {
        self.check_user(user)?;
        if item >= self.n_items() {
            return Err(ArtifactError::ItemOutOfRange { item, n_items: self.n_items() });
        }
        if !label.is_finite() {
            return Err(ArtifactError::NonFiniteLabel { item });
        }
        Ok(())
    }

    /// Scores the whole catalogue for `content` and returns the top `k`
    /// `(item, score)` pairs, best first. With `params` the adapted
    /// parameter set is used for this call only (θ is restored after —
    /// including on the error path, so a poisoned request cannot corrupt
    /// the recommender for later callers).
    ///
    /// Non-finite scores are rejected here rather than handed to
    /// [`top_k_indices`], whose total-order sort panics on NaN.
    /// Top-`k` recommendations for a known (warm) user by id, best first.
    ///
    /// Pass `params` to score with an adapted parameter set from
    /// [`ArtifactRecommender::adapt_user`]; θ is untouched either way.
    pub fn recommend(
        &mut self,
        user: usize,
        k: usize,
        params: Option<&[Matrix]>,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        self.check_user(user)?;
        // Destructure so the user-content row can be borrowed alongside
        // the learner and score buffer (no `.to_vec()` of the row).
        let Self {
            meta,
            learner,
            theta,
            user_content,
            item_content,
            item_embeds,
            catalogue,
            scores,
            ..
        } = self;
        rank_catalogue(
            learner,
            theta,
            item_content,
            item_embeds,
            catalogue,
            scores,
            user_content.row(user),
            k,
            params,
            meta.ranking,
        )
    }

    /// Top-`k` recommendations for a raw content vector (a user the
    /// artifact has never seen), best first.
    pub fn recommend_content(
        &mut self,
        content: &[f32],
        k: usize,
        params: Option<&[Matrix]>,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        self.check_content(content)?;
        let Self { meta, learner, theta, item_content, item_embeds, catalogue, scores, .. } = self;
        rank_catalogue(
            learner,
            theta,
            item_content,
            item_embeds,
            catalogue,
            scores,
            content,
            k,
            params,
            meta.ranking,
        )
    }

    /// Serve-time MAML adaptation for a known user: runs the trained
    /// inner loop ([`MetaLearner::fine_tune`], `finetune_steps` SGD steps
    /// at `inner_lr`) on the given support set starting from θ, returns
    /// the adapted parameters, and rewinds the model to θ.
    ///
    /// Deterministic: the same support set always yields the same
    /// parameters, so results are cacheable by user.
    pub fn adapt_user(
        &mut self,
        user: usize,
        support: &[(usize, f32)],
    ) -> Result<Vec<Matrix>, ArtifactError> {
        self.check_user(user)?;
        self.check_support(support)?;
        // Retained clone: `Task` owns its support pairs by contract.
        let task = Task { user, support: support.to_vec(), query: Vec::new() };
        restore(self.learner.model_mut(), &self.theta);
        self.learner.fine_tune(std::slice::from_ref(&task), &self.user_content, &self.item_content);
        // Retained allocation: the adapted parameter set is the return
        // value and must outlive the rewind below.
        let adapted = snapshot(self.learner.model_mut());
        restore(self.learner.model_mut(), &self.theta);
        Ok(adapted)
    }

    /// Serve-time MAML adaptation for a brand-new user described only by a
    /// content vector and a support set. Same contract as
    /// [`ArtifactRecommender::adapt_user`].
    pub fn adapt_content(
        &mut self,
        content: &[f32],
        support: &[(usize, f32)],
    ) -> Result<Vec<Matrix>, ArtifactError> {
        self.check_content(content)?;
        self.check_support(support)?;
        let uc = Matrix::from_vec(1, content.len(), content.to_vec());
        let task = Task { user: 0, support: support.to_vec(), query: Vec::new() };
        restore(self.learner.model_mut(), &self.theta);
        self.learner.fine_tune(std::slice::from_ref(&task), &uc, &self.item_content);
        let adapted = snapshot(self.learner.model_mut());
        restore(self.learner.model_mut(), &self.theta);
        Ok(adapted)
    }
}

/// Scores the whole catalogue for `content` and returns the top `k`
/// `(item, score)` pairs, best first. With `params` the adapted parameter
/// set is used for this call only; θ is restored after — *before* the
/// non-finite check, so a poisoned request cannot corrupt the recommender
/// for later callers.
///
/// Free-standing (over [`ArtifactRecommender`]'s destructured fields) so
/// `recommend` can lend the user-content row and the reused score buffer
/// at the same time. Non-finite scores are rejected here rather than
/// handed to [`top_k_indices`], whose total-order sort panics on NaN.
#[allow(clippy::too_many_arguments)]
fn rank_catalogue(
    learner: &mut MetaLearner,
    theta: &[Matrix],
    item_content: &Matrix,
    item_embeds: &Matrix,
    catalogue: &[usize],
    scores: &mut Vec<f32>,
    content: &[f32],
    k: usize,
    params: Option<&[Matrix]>,
    ranking: Ranking,
) -> Result<Vec<(usize, f32)>, ArtifactError> {
    let _sp = metadpa_obs::span!("rank.catalogue");
    simd::with_policy(ranking.policy(), || {
        score_catalogue(
            learner,
            theta,
            item_content,
            item_embeds,
            catalogue,
            scores,
            content,
            params,
        );
    });
    if let Some(item) = scores.iter().position(|s| !s.is_finite()) {
        return Err(ArtifactError::NonFiniteScores { item });
    }
    // The returned ranking allocates by API contract: callers own it.
    Ok(top_k_indices(scores, k).into_iter().map(|i| (i, scores[i])).collect())
}

/// The scoring half of [`rank_catalogue`]: θ requests rank straight from
/// the precomputed embedding table; adapted-parameter requests restore the
/// adapted set, run the full pass over the raw item content (the table was
/// built at θ and would be stale), and rewind to θ before returning — the
/// rewind runs *before* the caller's non-finite check, so a poisoned
/// request cannot corrupt the recommender for later callers.
#[allow(clippy::too_many_arguments)]
fn score_catalogue(
    learner: &mut MetaLearner,
    theta: &[Matrix],
    item_content: &Matrix,
    item_embeds: &Matrix,
    catalogue: &[usize],
    scores: &mut Vec<f32>,
    content: &[f32],
    params: Option<&[Matrix]>,
) {
    if let Some(p) = params {
        restore(learner.model_mut(), p);
        {
            let _k = metadpa_obs::span!("kernels.score");
            learner.score_into(content, item_content, catalogue, scores);
        }
        restore(learner.model_mut(), theta);
    } else {
        let _k = metadpa_obs::span!("kernels.score");
        learner.score_embedded_into(content, item_embeds, catalogue, scores);
    }
}

/// Builds an [`Artifact`] directly from a live [`MetaLearner`] plus the
/// content matrices it was trained against — the exporter shared by
/// [`crate::MetaDpa::export_artifact`] and tests. `run_id` is the
/// run-ledger key of the producing training run (`""` when the caller has
/// none, e.g. a hand-built test artifact).
#[allow(clippy::too_many_arguments)]
pub fn artifact_from_learner(
    learner: &mut MetaLearner,
    model_name: &str,
    git_rev: String,
    data_fingerprint: String,
    diversity: DiversityReport,
    user_content: Matrix,
    item_content: Matrix,
    run_id: String,
) -> Artifact {
    let score_fingerprint = training_score_fingerprint(learner, &user_content, &item_content);
    Artifact {
        meta: ArtifactMeta {
            schema: ARTIFACT_SCHEMA.to_string(),
            model_name: model_name.to_string(),
            git_rev,
            data_fingerprint,
            preference: learner.model().config(),
            maml: learner.config(),
            diversity,
            score_fingerprint,
            run_id,
            ranking: Ranking::Exact,
        },
        params: named_snapshot(learner.model_mut(), PARAM_PREFIX),
        user_content,
        item_content,
    }
}

/// Sketches the model's ranking-score distribution over the training
/// population: full-catalogue scores for up to 64 stride-sampled users.
/// Forward passes only — θ, the RNG, and the exported tensors are
/// untouched, so stamping the fingerprint never changes what is exported.
fn training_score_fingerprint(
    learner: &mut MetaLearner,
    user_content: &Matrix,
    item_content: &Matrix,
) -> ScoreFingerprint {
    let n_users = user_content.rows();
    if n_users == 0 || item_content.rows() == 0 {
        return ScoreFingerprint::default();
    }
    let catalogue: Vec<usize> = (0..item_content.rows()).collect();
    let stride = n_users.div_ceil(64).max(1);
    let mut all = Vec::new();
    let mut user = 0;
    while user < n_users {
        all.extend(learner.score(user_content.row(user), item_content, &catalogue));
        user += stride;
    }
    ScoreFingerprint::from_scores(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_parts(seed: u64) -> (MetaLearner, Matrix, Matrix) {
        let pref = PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] };
        let maml = MamlConfig { finetune_steps: 2, ..MamlConfig::default() };
        let mut rng = SeededRng::new(seed);
        let learner = MetaLearner::new(pref, maml, &mut rng);
        let user_content = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let item_content = rng.uniform_matrix(9, 6, -1.0, 1.0);
        (learner, user_content, item_content)
    }

    fn tiny_artifact(seed: u64) -> Artifact {
        let (mut learner, uc, ic) = tiny_parts(seed);
        artifact_from_learner(
            &mut learner,
            "unit",
            "test-rev".into(),
            "0000000000000000".into(),
            DiversityReport::default(),
            uc,
            ic,
            String::new(),
        )
    }

    #[test]
    fn reloaded_recommender_matches_the_source_model_exactly() {
        let (mut learner, uc, ic) = tiny_parts(11);
        let artifact = artifact_from_learner(
            &mut learner,
            "unit",
            "test-rev".into(),
            "0000000000000000".into(),
            DiversityReport::default(),
            uc.clone(),
            ic.clone(),
            String::new(),
        );
        let mut rec = artifact.into_recommender().expect("valid artifact");
        assert_eq!(rec.n_users(), 4);
        assert_eq!(rec.n_items(), 9);
        assert_eq!(rec.meta().model_name, "unit");

        // Bit-exact agreement with scoring through the live learner.
        let items: Vec<usize> = (0..ic.rows()).collect();
        for user in 0..uc.rows() {
            let scores = learner.score(uc.row(user), &ic, &items);
            let want: Vec<(usize, f32)> =
                top_k_indices(&scores, 3).into_iter().map(|i| (i, scores[i])).collect();
            assert_eq!(rec.recommend(user, 3, None).unwrap(), want, "user {user}");
        }
    }

    #[test]
    fn adaptation_is_deterministic_and_rewinds_theta() {
        let mut rec = tiny_artifact(12).into_recommender().expect("valid artifact");
        let support = vec![(0usize, 1.0f32), (3, 0.0), (7, 1.0)];
        let base = rec.recommend(1, 5, None).unwrap();

        let adapted = rec.adapt_user(1, &support).expect("adapt");
        let again = rec.adapt_user(1, &support).expect("adapt twice");
        assert_eq!(adapted, again, "same support must yield the same parameters");
        assert_ne!(adapted, rec.theta(), "adaptation must move the parameters");

        let adapted_list = rec.recommend(1, 5, Some(&adapted)).unwrap();
        let base_after = rec.recommend(1, 5, None).unwrap();
        assert_eq!(base, base_after, "θ must be untouched by adapted scoring");
        // The adapted list may or may not reorder, but the scores change.
        assert_ne!(adapted_list, base);

        // Content-based adaptation works on the "average user" vector and
        // produces a full parameter set of the same shape.
        let mean = rec.mean_user_content();
        assert_eq!(mean.len(), rec.content_dim());
        rec.recommend_content(&mean, 2, None).expect("mean content scores");
        let by_content = rec.adapt_content(&mean, &support).expect("content adapt");
        assert_eq!(by_content.len(), adapted.len());
    }

    #[test]
    fn exported_fingerprint_sketches_training_scores() {
        let artifact = tiny_artifact(16);
        let fp = &artifact.meta.score_fingerprint;
        assert_eq!(fp.probs.len(), FINGERPRINT_PROBS.len());
        assert_eq!(fp.quantiles.len(), fp.probs.len());
        for w in fp.quantiles.windows(2) {
            assert!(w[0] <= w[1], "quantiles must ascend: {:?}", fp.quantiles);
        }
        assert!(fp.quantiles.iter().all(|q| q.is_finite()));

        // The sketch itself: ceil-rank over the finite values only.
        assert!(ScoreFingerprint::from_scores(&[]).is_empty());
        assert!(ScoreFingerprint::from_scores(&[f32::NAN, f32::INFINITY]).is_empty());
        let ramp: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        let sketch = ScoreFingerprint::from_scores(&ramp);
        assert_eq!(sketch.quantiles[4], 50.0, "p50 of 1..=100");
        assert_eq!(sketch.quantiles[8], 99.0, "p99 of 1..=100");
    }

    #[test]
    fn last_scores_expose_the_most_recent_full_catalogue_ranking() {
        let mut rec = tiny_artifact(17).into_recommender().expect("valid artifact");
        assert!(rec.last_scores().is_empty(), "no request yet");
        rec.recommend(0, 3, None).expect("recommend");
        assert_eq!(rec.last_scores().len(), rec.n_items());
        assert!(rec.last_scores().iter().all(|s| s.is_finite()));
    }

    #[test]
    fn request_errors_are_typed_not_panics() {
        let mut rec = tiny_artifact(13).into_recommender().expect("valid artifact");
        assert_eq!(
            rec.recommend(99, 3, None).unwrap_err(),
            ArtifactError::UserOutOfRange { user: 99, n_users: 4 }
        );
        assert_eq!(rec.adapt_user(0, &[]).unwrap_err(), ArtifactError::EmptySupport);
        assert_eq!(
            rec.adapt_user(0, &[(42, 1.0)]).unwrap_err(),
            ArtifactError::ItemOutOfRange { item: 42, n_items: 9 }
        );
        assert_eq!(
            rec.adapt_user(0, &[(1, f32::NAN)]).unwrap_err(),
            ArtifactError::NonFiniteLabel { item: 1 }
        );
        let err = rec.recommend_content(&[0.0; 3], 3, None).unwrap_err();
        assert!(matches!(err, ArtifactError::ContentDimMismatch { got: 3, want: 6, .. }));
        assert!(err.to_string().contains("content width 3"));
    }

    #[test]
    fn non_finite_scores_are_a_typed_error_and_rewind_theta() {
        // A CRC-valid artifact whose weights are NaN restores cleanly but
        // scores every item as NaN. That must surface as a typed error,
        // not the NaN panic inside `top_k_indices`.
        let mut poisoned = tiny_artifact(15);
        for (_, m) in poisoned.params.iter_mut() {
            m.as_mut_slice().fill(f32::NAN);
        }
        let mut rec = poisoned.into_recommender().expect("NaN weights still restore");
        assert_eq!(
            rec.recommend(0, 3, None).unwrap_err(),
            ArtifactError::NonFiniteScores { item: 0 }
        );

        // Adapted-parameter scoring hits the same guard, and θ is rewound
        // on the error path: the healthy base model keeps serving after a
        // poisoned adapted set is rejected.
        let mut healthy = tiny_artifact(15).into_recommender().expect("valid artifact");
        let before = healthy.recommend(0, 3, None).expect("healthy scores");
        let bad_params: Vec<Matrix> = healthy
            .theta()
            .iter()
            .map(|m| {
                let mut p = m.clone();
                p.as_mut_slice().fill(f32::NAN);
                p
            })
            .collect();
        assert!(matches!(
            healthy.recommend(0, 3, Some(&bad_params)).unwrap_err(),
            ArtifactError::NonFiniteScores { .. }
        ));
        assert_eq!(healthy.recommend(0, 3, None).unwrap(), before, "θ survives the error path");
    }

    #[test]
    fn corrupted_parameter_tables_are_rejected() {
        let mut artifact = tiny_artifact(14);
        artifact.params[0].0 = "other.p000".into();
        match artifact.into_recommender() {
            Err(ArtifactError::BadParams(msg)) => assert!(msg.contains("named")),
            Err(other) => panic!("expected BadParams, got {other:?}"),
            Ok(_) => panic!("expected BadParams, got a recommender"),
        }

        let mut short = tiny_artifact(14);
        short.params.pop();
        assert!(matches!(short.into_recommender(), Err(ArtifactError::BadParams(_))));

        let mut wrong_dim = tiny_artifact(14);
        wrong_dim.user_content = Matrix::zeros(4, 5);
        assert!(matches!(
            wrong_dim.into_recommender(),
            Err(ArtifactError::ContentDimMismatch { what: "user_content", got: 5, want: 6 })
        ));
    }
}
