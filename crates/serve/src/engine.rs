//! The thread-safe inference engine: scoring plus the adaptation cache.
//!
//! [`Engine`] wraps an [`ArtifactRecommender`] behind a mutex (the model
//! caches activations, so scoring needs `&mut`) and keeps a per-user cache
//! of serve-time-adapted parameter sets, LRU-bounded at a configurable
//! capacity so online graduation at scale cannot grow memory without
//! limit. Adaptation is deterministic — the same support set always
//! produces the same parameters — so cache entries never go stale until
//! replaced by a newer adaptation for the same user, evicted under
//! capacity pressure (`serve.adapt_cache.evictions`), or invalidated
//! wholesale by a drift reaction ([`Engine::invalidate_adapted`]).
//!
//! The engine is also the serving side of the streaming feedback loop: it
//! implements [`metadpa_feedback::FeedbackSink`], so the background
//! `FeedbackAdapter` graduates users cold→warm by calling straight into
//! [`Engine::adapt_user`] and reacts to the drift alert through
//! [`Engine::invalidate_adapted`].
//!
//! Batch scoring parallelism comes from the tensor layer: a recommend call
//! ranks the whole catalogue with one batched forward pass (an
//! `n_items x 2·content_dim` input matrix), so on large catalogues the
//! row-parallel matmul kernels in `metadpa_tensor::pool` fan the work out
//! across `METADPA_THREADS` workers — bit-identical to serial, per the
//! pool's determinism contract, which the tests below pin at the engine
//! level.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use metadpa_core::artifact::{ArtifactError, ArtifactMeta, ArtifactRecommender};
use metadpa_feedback::FeedbackSink;
use metadpa_obs::window::QuantileDrift;
use metadpa_tensor::Matrix;

/// Windowed KS distance beyond which `serve.drift.alert` flips to 1: a
/// sup-distance of 0.25 means some training quantile's live hit rate is off
/// by 25 percentage points — far outside fingerprint sketch error.
pub const DRIFT_ALERT_THRESHOLD: f64 = 0.25;

/// Default LRU capacity of the adapted-parameter cache.
pub const DEFAULT_ADAPT_CACHE_CAPACITY: usize = 4096;

/// How many live ranking scores (at most) feed the drift tracker per
/// request; larger catalogues are stride-sampled down to this.
const DRIFT_SAMPLE_CAP: usize = 256;

/// One cached adaptation: the parameters plus its LRU recency tick.
struct CacheEntry {
    params: Arc<Vec<Matrix>>,
    tick: u64,
}

/// LRU-bounded map from user id to adapted parameters. A plain HashMap
/// with recency ticks and a linear min-scan on eviction: adaptation costs
/// milliseconds of matmuls per insert, so an O(capacity) scan on the
/// (rare) over-capacity insert is noise next to an intrusive-list LRU.
struct AdaptedCache {
    map: HashMap<usize, CacheEntry>,
    capacity: usize,
    clock: u64,
    evictions: u64,
}

impl AdaptedCache {
    fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), capacity: capacity.max(1), clock: 0, evictions: 0 }
    }

    /// Cache hit: refreshes the entry's recency and hands back the params.
    fn touch(&mut self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        self.clock += 1;
        let tick = self.clock;
        self.map.get_mut(&user).map(|e| {
            e.tick = tick;
            Arc::clone(&e.params)
        })
    }

    /// Read without touching recency (tests compare cached tensors).
    fn peek(&self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        self.map.get(&user).map(|e| Arc::clone(&e.params))
    }

    /// Inserts (or replaces) a user's adaptation, evicting the least
    /// recently used entry when a *new* user would exceed capacity.
    fn insert(&mut self, user: usize, params: Arc<Vec<Matrix>>) {
        if !self.map.contains_key(&user) && self.map.len() >= self.capacity {
            // Tie-break equal ticks on the user id: `min_by_key` over bare
            // HashMap iteration picks whichever equal-tick entry the hash
            // order yields first, which varies per process and would break
            // the bit-exact feedback-replay contract.
            if let Some(&lru) = self.map.iter().min_by_key(|(u, e)| (e.tick, **u)).map(|(u, _)| u) {
                self.map.remove(&lru);
                self.evictions += 1;
                metadpa_obs::counter_add!("serve.adapt_cache.evictions", 1);
            }
        }
        self.clock += 1;
        self.map.insert(user, CacheEntry { params, tick: self.clock });
    }

    fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }
}

/// Where a recommendation's parameters came from; reported in responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeSource {
    /// Meta-parameters θ, user known from training.
    Warm,
    /// A cached serve-time-adapted parameter set for this user.
    AdaptedCache,
    /// θ applied to request-supplied (or default) content — a user the
    /// model has never seen.
    Cold,
    /// One-shot adaptation on request-supplied content and support.
    Adapted,
}

impl ServeSource {
    /// Wire label used in response JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeSource::Warm => "warm",
            ServeSource::AdaptedCache => "adapted-cache",
            ServeSource::Cold => "cold",
            ServeSource::Adapted => "adapted",
        }
    }
}

/// Shared inference state: the reloaded recommender plus the per-user
/// adaptation cache.
pub struct Engine {
    rec: Mutex<ArtifactRecommender>,
    adapted: Mutex<AdaptedCache>,
    meta: ArtifactMeta,
    n_users: usize,
    n_items: usize,
    content_dim: usize,
    /// Live drift tracker seeded from the artifact's training-score
    /// fingerprint; `None` for pre-fingerprint checkpoints.
    drift: Option<QuantileDrift>,
}

impl Engine {
    /// Wraps a reloaded recommender with the default adapted-cache bound.
    pub fn new(rec: ArtifactRecommender) -> Self {
        Self::with_adapt_capacity(rec, DEFAULT_ADAPT_CACHE_CAPACITY)
    }

    /// Wraps a reloaded recommender, bounding the adapted-parameter cache
    /// at `capacity` users (LRU eviction beyond that; min 1).
    pub fn with_adapt_capacity(rec: ArtifactRecommender, capacity: usize) -> Self {
        let meta = rec.meta().clone();
        let (n_users, n_items, content_dim) = (rec.n_users(), rec.n_items(), rec.content_dim());
        let fp = &meta.score_fingerprint;
        let probs: Vec<f64> = fp.probs.iter().map(|&p| p as f64).collect();
        let thresholds: Vec<f64> = fp.quantiles.iter().map(|&q| q as f64).collect();
        let drift = QuantileDrift::with_defaults(&probs, &thresholds);
        Self {
            rec: Mutex::new(rec),
            adapted: Mutex::new(AdaptedCache::new(capacity)),
            meta,
            n_users,
            n_items,
            content_dim,
            drift,
        }
    }

    /// Whether the artifact carried a training-score fingerprint to track
    /// drift against.
    pub fn tracks_drift(&self) -> bool {
        self.drift.is_some()
    }

    /// `(drift statistic, windowed sample count)` over the trailing window;
    /// `None` without a fingerprint or before the first scored request.
    pub fn drift_stat(&self) -> Option<(f64, u64)> {
        self.drift.as_ref().and_then(QuantileDrift::stat)
    }

    /// Feeds the freshest full-catalogue ranking scores into the drift
    /// window and refreshes the `serve.drift.*` gauges. Fully gated on
    /// [`metadpa_obs::enabled`]: with observability off this is one relaxed
    /// atomic load, keeping the zero-allocation serve contract intact.
    fn observe_drift(&self, scores: &[f32]) {
        if !metadpa_obs::enabled() {
            return;
        }
        let Some(drift) = &self.drift else { return };
        if scores.is_empty() {
            return;
        }
        let stride = scores.len().div_ceil(DRIFT_SAMPLE_CAP).max(1);
        for s in scores.iter().step_by(stride) {
            drift.observe(*s as f64);
        }
        if let Some((stat, _)) = drift.stat() {
            metadpa_obs::gauge_set!("serve.drift.stat", stat);
            metadpa_obs::gauge_set!(
                "serve.drift.alert",
                if stat > DRIFT_ALERT_THRESHOLD { 1.0 } else { 0.0 }
            );
        }
    }

    /// The artifact's metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// Number of users the artifact knows.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Catalogue size.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Content vector width requests must match.
    pub fn content_dim(&self) -> usize {
        self.content_dim
    }

    /// Number of users with a cached adaptation.
    pub fn cached_adaptations(&self) -> usize {
        self.adapted.lock().expect("engine adaptation cache poisoned").map.len()
    }

    /// How many cache entries LRU pressure has evicted so far.
    pub fn adapt_cache_evictions(&self) -> u64 {
        self.adapted.lock().expect("engine adaptation cache poisoned").evictions
    }

    /// A user's cached adapted parameters, without touching LRU recency —
    /// the hook replay tests use to compare cache tensors bit-for-bit.
    pub fn adapted_params(&self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        self.adapted.lock().expect("engine adaptation cache poisoned").peek(user)
    }

    /// Drops every cached adaptation (the drift reaction); returns how
    /// many entries were invalidated. Warm serving from θ is untouched.
    pub fn invalidate_adapted(&self) -> usize {
        self.adapted.lock().expect("engine adaptation cache poisoned").clear()
    }

    /// Whether the live drift statistic is currently over
    /// [`DRIFT_ALERT_THRESHOLD`].
    pub fn drift_alerting(&self) -> bool {
        self.drift_stat().is_some_and(|(stat, _)| stat > DRIFT_ALERT_THRESHOLD)
    }

    /// Validates one implicit-feedback event against the artifact (known
    /// user, in-catalogue item, finite label) without touching any state.
    pub fn validate_feedback(
        &self,
        user: usize,
        item: usize,
        label: f32,
    ) -> Result<(), ArtifactError> {
        self.rec.lock().expect("engine recommender poisoned").validate_event(user, item, label)
    }

    fn cached(&self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        self.adapted.lock().expect("engine adaptation cache poisoned").touch(user)
    }

    /// Top-`k` for a known user id. Uses the user's cached adapted
    /// parameters when present, θ otherwise; the source says which.
    pub fn recommend_user(
        &self,
        user: usize,
        k: usize,
    ) -> Result<(Vec<(usize, f32)>, ServeSource), ArtifactError> {
        let _s = metadpa_obs::span!("engine.recommend_user");
        let params = self.cached(user);
        let source = if params.is_some() {
            metadpa_obs::counter_add!("serve.adapt_cache.hit", 1);
            ServeSource::AdaptedCache
        } else {
            metadpa_obs::counter_add!("serve.adapt_cache.miss", 1);
            ServeSource::Warm
        };
        let mut rec = self.rec.lock().expect("engine recommender poisoned");
        let list = rec.recommend(user, k, params.as_deref().map(Vec::as_slice))?;
        self.observe_drift(rec.last_scores());
        Ok((list, source))
    }

    /// Top-`k` for a raw content vector (cold user, no support set).
    pub fn recommend_content(
        &self,
        content: &[f32],
        k: usize,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        let _s = metadpa_obs::span!("engine.recommend_content");
        let mut rec = self.rec.lock().expect("engine recommender poisoned");
        let list = rec.recommend_content(content, k, None)?;
        self.observe_drift(rec.last_scores());
        Ok(list)
    }

    /// Top-`k` for a cold request carrying no content at all: scores the
    /// "average user" vector (column mean of the training user content).
    pub fn recommend_cold_default(&self, k: usize) -> Result<Vec<(usize, f32)>, ArtifactError> {
        let _s = metadpa_obs::span!("engine.recommend_cold");
        let mut rec = self.rec.lock().expect("engine recommender poisoned");
        let mean = rec.mean_user_content();
        let list = rec.recommend_content(&mean, k, None)?;
        self.observe_drift(rec.last_scores());
        Ok(list)
    }

    /// Runs the serve-time MAML inner loop on a known user's support set
    /// and caches the adapted parameters; subsequent
    /// [`Engine::recommend_user`] calls for this user serve from the cache.
    /// Returns the cache size after insertion.
    pub fn adapt_user(
        &self,
        user: usize,
        support: &[(usize, f32)],
    ) -> Result<usize, ArtifactError> {
        let _s = metadpa_obs::span!("engine.adapt_user");
        let adapted = {
            let mut rec = self.rec.lock().expect("engine recommender poisoned");
            rec.adapt_user(user, support)?
        };
        metadpa_obs::counter_add!("serve.adaptations", 1);
        let mut cache = self.adapted.lock().expect("engine adaptation cache poisoned");
        cache.insert(user, Arc::new(adapted));
        Ok(cache.map.len())
    }

    /// One-shot adaptation for a brand-new user: adapts on the supplied
    /// content + support and immediately returns the adapted top-`k`
    /// (nothing is cached — there is no user id to key on).
    pub fn adapt_and_recommend_content(
        &self,
        content: &[f32],
        support: &[(usize, f32)],
        k: usize,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        let _s = metadpa_obs::span!("engine.adapt_content");
        let mut rec = self.rec.lock().expect("engine recommender poisoned");
        let adapted = rec.adapt_content(content, support)?;
        metadpa_obs::counter_add!("serve.adaptations", 1);
        let list = rec.recommend_content(content, k, Some(&adapted))?;
        self.observe_drift(rec.last_scores());
        Ok(list)
    }

    /// Drops a user's cached adaptation; returns whether one existed.
    pub fn evict(&self, user: usize) -> bool {
        self.adapted.lock().expect("engine adaptation cache poisoned").map.remove(&user).is_some()
    }
}

/// The serving side of the streaming feedback loop: the background
/// `FeedbackAdapter` graduates users by re-running the trained MAML inner
/// loop through [`Engine::adapt_user`] (installing into the same LRU cache
/// `/v1/adapt` uses) and reacts to the drift alert by invalidating it.
impl FeedbackSink for Engine {
    fn graduate(&self, user: usize, support: &[(usize, f32)], _first: bool) -> Result<(), String> {
        self.adapt_user(user, support).map(|_| ()).map_err(|e| e.to_string())
    }

    fn drift_alert(&self) -> bool {
        self.drift_alerting()
    }

    fn invalidate_adapted(&self) -> usize {
        Engine::invalidate_adapted(self)
    }
}

#[cfg(test)]
mod tests {
    // Every test holds the observability test lock: some enable the
    // process-wide recorder and read process-wide gauges, counters and
    // drift state, which any engine or router used concurrently with
    // observability on would write to.
    use super::*;
    use metadpa_core::artifact::artifact_from_learner;
    use metadpa_core::augmentation::DiversityReport;
    use metadpa_core::{MamlConfig, MetaLearner, PreferenceConfig};
    use metadpa_tensor::SeededRng;

    fn tiny_rec(seed: u64) -> ArtifactRecommender {
        let pref = PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] };
        let maml = MamlConfig { finetune_steps: 2, ..MamlConfig::default() };
        let mut rng = SeededRng::new(seed);
        let mut learner = MetaLearner::new(pref, maml, &mut rng);
        let user_content = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let item_content = rng.uniform_matrix(9, 6, -1.0, 1.0);
        let artifact = artifact_from_learner(
            &mut learner,
            "unit",
            "rev".into(),
            "fp".into(),
            DiversityReport::default(),
            user_content,
            item_content,
            String::new(),
        );
        artifact.into_recommender().expect("valid artifact")
    }

    fn tiny_engine(seed: u64) -> Engine {
        Engine::new(tiny_rec(seed))
    }

    #[test]
    fn warm_then_adapted_cache_switches_source() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(21);
        let (warm, source) = engine.recommend_user(2, 4).expect("warm");
        assert_eq!(source, ServeSource::Warm);
        assert_eq!(warm.len(), 4);
        assert_eq!(engine.cached_adaptations(), 0);

        let cached = engine.adapt_user(2, &[(0, 1.0), (5, 0.0)]).expect("adapt");
        assert_eq!(cached, 1);
        let (adapted, source) = engine.recommend_user(2, 4).expect("adapted");
        assert_eq!(source, ServeSource::AdaptedCache);
        assert_ne!(adapted, warm, "adaptation must change the scores");

        // Other users still serve warm; eviction restores warm serving.
        let (_, source) = engine.recommend_user(0, 4).expect("other user");
        assert_eq!(source, ServeSource::Warm);
        assert!(engine.evict(2));
        let (back, source) = engine.recommend_user(2, 4).expect("after evict");
        assert_eq!(source, ServeSource::Warm);
        assert_eq!(back, warm, "θ was never touched");
    }

    #[test]
    fn cold_paths_score_without_a_user_id() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(22);
        let by_mean = engine.recommend_cold_default(3).expect("default cold");
        assert_eq!(by_mean.len(), 3);
        let content = vec![0.25f32; 6];
        let cold = engine.recommend_content(&content, 3).expect("content cold");
        let adapted = engine
            .adapt_and_recommend_content(&content, &[(1, 1.0), (2, 0.0)], 3)
            .expect("one-shot adapt");
        assert_ne!(cold, adapted, "support must influence the adapted list");
        assert_eq!(engine.cached_adaptations(), 0, "content adaptation is not cached");
    }

    #[test]
    fn serving_is_bit_identical_across_thread_counts() {
        let _obs = metadpa_obs::test_lock();
        // The serve scoring path inherits the pool's determinism contract:
        // the same request must produce bit-identical scores no matter how
        // many threads the matmul kernels fan out across.
        let serial = {
            let engine = tiny_engine(24);
            metadpa_tensor::pool::with_threads(1, || engine.recommend_user(1, 5).expect("serial").0)
        };
        for threads in [2, 7] {
            let engine = tiny_engine(24);
            let par = metadpa_tensor::pool::with_threads(threads, || {
                engine.recommend_user(1, 5).expect("parallel").0
            });
            assert_eq!(par.len(), serial.len());
            for ((i_s, s), (i_p, p)) in serial.iter().zip(&par) {
                assert_eq!(i_s, i_p, "item order drift at threads={threads}");
                assert_eq!(s.to_bits(), p.to_bits(), "score drift at threads={threads}");
            }
        }
    }

    #[test]
    fn drift_tracker_follows_the_fingerprint_and_stays_quiet_on_distribution() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(25);
        assert!(engine.tracks_drift(), "export stamps a fingerprint");
        assert!(engine.drift_stat().is_none(), "no scores observed yet");

        // With observability off, scoring must not feed the tracker.
        engine.recommend_user(0, 3).expect("obs-off recommend");
        assert!(engine.drift_stat().is_none(), "drift is obs-gated");

        metadpa_obs::enable(Arc::new(metadpa_obs::NullRecorder));
        metadpa_obs::metrics::reset();
        // Score every training user: the live window then holds the same
        // score population the export-time fingerprint sketched.
        for user in 0..engine.n_users() {
            engine.recommend_user(user, 3).expect("warm recommend");
        }
        let (stat, n) = engine.drift_stat().expect("windowed scores present");
        assert_eq!(n as usize, engine.n_users() * engine.n_items(), "one score per pair");
        assert!((0.0..=1.0).contains(&stat), "KS distance in [0,1], got {stat}");
        // Live warm scores come from the distribution the fingerprint
        // sketched, so the alert gauge must stay down.
        assert!(stat < DRIFT_ALERT_THRESHOLD, "on-distribution scores, got {stat}");
        metadpa_obs::disable();
    }

    #[test]
    fn adapted_cache_is_lru_bounded_and_bulk_invalidatable() {
        let _obs = metadpa_obs::test_lock();
        let engine = Engine::with_adapt_capacity(tiny_rec(26), 2);
        let support = [(0usize, 1.0f32), (5, 0.0)];
        engine.adapt_user(0, &support).expect("adapt 0");
        engine.adapt_user(1, &support).expect("adapt 1");
        assert_eq!(engine.cached_adaptations(), 2);
        assert_eq!(engine.adapt_cache_evictions(), 0);

        // Touch user 0 so user 1 becomes least-recently-used, then overflow.
        engine.recommend_user(0, 3).expect("touch 0");
        engine.adapt_user(2, &support).expect("adapt 2 evicts 1");
        assert_eq!(engine.cached_adaptations(), 2, "capacity is a hard bound");
        assert_eq!(engine.adapt_cache_evictions(), 1);
        assert!(engine.adapted_params(1).is_none(), "LRU entry evicted");
        assert!(engine.adapted_params(0).is_some(), "recently used entry survives");
        assert!(engine.adapted_params(2).is_some(), "new entry installed");

        // Re-adapting a resident user must not evict anyone.
        engine.adapt_user(0, &support).expect("refresh 0");
        assert_eq!(engine.adapt_cache_evictions(), 1, "refresh is not an eviction");

        assert_eq!(engine.invalidate_adapted(), 2);
        assert_eq!(engine.cached_adaptations(), 0);
        let (_, source) = engine.recommend_user(0, 3).expect("after invalidate");
        assert_eq!(source, ServeSource::Warm);
    }

    #[test]
    fn adapted_cache_evicts_equal_ticks_deterministically() {
        let _obs = metadpa_obs::test_lock();
        // Regression: the eviction scan used `min_by_key` on tick alone, so
        // equal-tick entries were evicted in HashMap iteration order —
        // different per process, breaking bit-exact feedback replay. The
        // tie now breaks on the smaller user id, every time.
        for _ in 0..8 {
            let mut cache = AdaptedCache::new(3);
            let params = Arc::new(Vec::new());
            for user in [7usize, 2, 9] {
                cache.insert(user, Arc::clone(&params));
            }
            // Force the degenerate equal-tick state directly (the public
            // API hands out unique ticks; replay of a truncated log or a
            // clock reset can still collide).
            for e in cache.map.values_mut() {
                e.tick = 5;
            }
            cache.insert(11, Arc::clone(&params));
            assert!(cache.peek(2).is_none(), "smallest equal-tick user is the victim");
            assert!(cache.peek(7).is_some());
            assert!(cache.peek(9).is_some());
            assert!(cache.peek(11).is_some());
            assert_eq!(cache.evictions, 1);
        }

        // With distinct ticks the tie-break never engages: plain LRU.
        let mut cache = AdaptedCache::new(2);
        let params = Arc::new(Vec::new());
        cache.insert(5, Arc::clone(&params));
        cache.insert(1, Arc::clone(&params));
        cache.touch(5);
        cache.insert(3, params);
        assert!(cache.peek(1).is_none(), "oldest tick evicted even with a larger-id peer");
        assert!(cache.peek(5).is_some());
    }

    #[test]
    fn feedback_sink_graduation_installs_adapted_params() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(27);
        let sink: &dyn FeedbackSink = &engine;
        sink.graduate(1, &[(0, 1.0), (3, 0.0), (4, 1.0)], true).expect("graduate");
        assert_eq!(engine.cached_adaptations(), 1);
        let (_, source) = engine.recommend_user(1, 3).expect("serve graduated user");
        assert_eq!(source, ServeSource::AdaptedCache);
        assert!(!sink.drift_alert(), "no drift observed yet");
        assert_eq!(sink.invalidate_adapted(), 1);
        assert_eq!(engine.cached_adaptations(), 0);

        let err = sink.graduate(99, &[(0, 1.0)], true).expect_err("bad user");
        assert!(err.contains("99"), "error carries the offending user: {err}");
    }

    #[test]
    fn request_errors_pass_through_typed() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(23);
        assert!(matches!(
            engine.recommend_user(99, 3),
            Err(ArtifactError::UserOutOfRange { user: 99, n_users: 4 })
        ));
        assert!(matches!(engine.adapt_user(0, &[]), Err(ArtifactError::EmptySupport)));
    }
}
