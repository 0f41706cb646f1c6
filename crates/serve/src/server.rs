//! The route table: JSON endpoints over [`crate::http`].
//!
//! * `GET  /health` — liveness plus artifact provenance.
//! * `GET  /metrics` — the obs metrics registry as plain text
//!   ([`metadpa_obs::metrics::render_text`]).
//! * `POST /v1/recommend` — top-K for `{"user_id": u}` (warm or
//!   adapted-cache), `{"content": [...]}` (cold), or `{}` (cold, average
//!   user). Optional `"k"` (default 10).
//! * `POST /v1/adapt` — serve-time MAML adaptation:
//!   `{"user_id": u, "support": [[item, label], ...]}` caches adapted
//!   parameters for that user; `{"content": [...], "support": [...]}`
//!   adapts one-shot and returns the adapted top-K directly.
//! * `POST /v1/feedback` — implicit-feedback ingestion:
//!   `{"user_id": u, "item_id": i, "label": x}` (label optional,
//!   default 1.0) is validated against the catalogue and appended to the
//!   configured [`FeedbackLog`]; the background feedback adapter tails
//!   that log and graduates cold users live. 503 when the server runs
//!   without a feedback log.
//!
//! Request-data problems (unknown user id, out-of-range item, wrong
//! content width, empty support, non-finite label) are 422 with a JSON
//! explanation — typed [`ArtifactError`]s all the way out, never panics.
//! Malformed JSON is 400; unknown paths 404; wrong methods 405.

use std::sync::Arc;
use std::time::Instant;

use metadpa_core::artifact::ArtifactError;
use metadpa_feedback::FeedbackLog;
use metadpa_obs::json::{self, number, JsonValue, ObjectWriter};

use crate::engine::{Engine, ServeSource};
use crate::http::{Handler, Request, Response};

/// Default list length when a request does not say.
pub const DEFAULT_K: usize = 10;

fn error_json(message: &str) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("error", message);
    w.finish()
}

/// Bumps the `serve.errors.<status>.<cause>` taxonomy counter. Dynamic
/// name lookup (a format + registry probe) is fine here: this only runs on
/// error responses, never on the 200 hot path.
fn error_cause_counter(status: u16, cause: &str) {
    if metadpa_obs::enabled() {
        metadpa_obs::metrics::counter(&format!("serve.errors.{status}.{cause}")).add(1);
    }
}

fn artifact_error_response(err: &ArtifactError) -> Response {
    metadpa_obs::counter_add!("serve.responses.422", 1);
    error_cause_counter(422, err.cause());
    Response::json(422, error_json(&err.to_string()))
}

fn bad_request(cause: &'static str, message: &str) -> Response {
    metadpa_obs::counter_add!("serve.responses.400", 1);
    error_cause_counter(400, cause);
    Response::json(400, error_json(message))
}

fn list_json(items: &[(usize, f32)], source: &str) -> String {
    let ids: Vec<String> = items.iter().map(|&(i, _)| i.to_string()).collect();
    let scores: Vec<String> = items.iter().map(|&(_, s)| number(s as f64)).collect();
    let mut w = ObjectWriter::new();
    w.raw_field("items", &format!("[{}]", ids.join(",")))
        .raw_field("scores", &format!("[{}]", scores.join(",")))
        .str_field("source", source);
    w.finish()
}

fn parse_body(req: &Request) -> Result<JsonValue, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| bad_request("not_utf8", "request body is not UTF-8"))?;
    if text.trim().is_empty() {
        // An empty body is an empty request object.
        return Ok(JsonValue::Obj(Vec::new()));
    }
    json::parse(text)
        .map_err(|e| bad_request("bad_json", &format!("request body is not valid JSON: {e}")))
}

fn parse_k(body: &JsonValue) -> Result<usize, Response> {
    match body.get("k") {
        None => Ok(DEFAULT_K),
        Some(v) => match v.as_u64() {
            Some(k) if (1..=10_000).contains(&k) => Ok(k as usize),
            _ => Err(bad_request("bad_k", "\"k\" must be an integer in 1..=10000")),
        },
    }
}

fn parse_content(body: &JsonValue) -> Result<Option<Vec<f32>>, Response> {
    let Some(v) = body.get("content") else { return Ok(None) };
    let arr = v
        .as_arr()
        .ok_or_else(|| bad_request("bad_content", "\"content\" must be an array of numbers"))?;
    let mut out = Vec::with_capacity(arr.len());
    for e in arr {
        let x = e
            .as_f64()
            .ok_or_else(|| bad_request("bad_content", "\"content\" must be an array of numbers"))?;
        if !x.is_finite() {
            return Err(bad_request("bad_content", "\"content\" values must be finite"));
        }
        out.push(x as f32);
    }
    Ok(Some(out))
}

fn parse_support(body: &JsonValue) -> Result<Option<Vec<(usize, f32)>>, Response> {
    let Some(v) = body.get("support") else { return Ok(None) };
    let arr = v.as_arr().ok_or_else(|| {
        bad_request("bad_support", "\"support\" must be an array of [item, label] pairs")
    })?;
    let mut out = Vec::with_capacity(arr.len());
    for e in arr {
        let pair = e.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
            bad_request("bad_support", "each support entry must be an [item, label] pair")
        })?;
        let item = pair[0].as_u64().ok_or_else(|| {
            bad_request("bad_support", "support item ids must be non-negative integers")
        })?;
        let label = pair[1]
            .as_f64()
            .ok_or_else(|| bad_request("bad_support", "support labels must be numbers"))?;
        out.push((item as usize, label as f32));
    }
    Ok(Some(out))
}

fn parse_user_id(body: &JsonValue) -> Result<Option<usize>, Response> {
    match body.get("user_id") {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(u) => Ok(Some(u as usize)),
            None => Err(bad_request("bad_user_id", "\"user_id\" must be a non-negative integer")),
        },
    }
}

fn health(engine: &Engine, feedback_enabled: bool) -> Response {
    let meta = engine.meta();
    let mut w = ObjectWriter::new();
    w.str_field("status", "ok")
        .str_field("model", &meta.model_name)
        .str_field("git_rev", &meta.git_rev)
        .str_field("data_fingerprint", &meta.data_fingerprint)
        .str_field("run_id", &meta.run_id)
        .str_field("simd", metadpa_tensor::simd::feature_string())
        .str_field("ranking", meta.ranking.as_str())
        .u64_field("n_users", engine.n_users() as u64)
        .u64_field("n_items", engine.n_items() as u64)
        .u64_field("content_dim", engine.content_dim() as u64)
        .u64_field("adapted_users", engine.cached_adaptations() as u64)
        .bool_field("feedback_enabled", feedback_enabled);
    Response::json(200, w.finish())
}

/// The warm/cold/adapted taxonomy a response belongs to; `""` for errors.
type State = &'static str;

fn state_of(source: ServeSource) -> State {
    match source {
        ServeSource::Warm => "warm",
        ServeSource::Cold => "cold",
        ServeSource::AdaptedCache | ServeSource::Adapted => "adapted",
    }
}

fn recommend(engine: &Engine, req: &Request) -> (Response, State) {
    let start = Instant::now();
    let (resp, state) = recommend_inner(engine, req);
    let us = start.elapsed().as_micros() as u64;
    metadpa_obs::histogram_observe!("serve.latency.recommend_us", us);
    if resp.status == 200 {
        match state {
            "warm" => {
                metadpa_obs::counter_add!("serve.state.warm", 1);
                metadpa_obs::window_observe!("serve.window.recommend.warm_us", us);
            }
            "cold" => {
                metadpa_obs::counter_add!("serve.state.cold", 1);
                metadpa_obs::window_observe!("serve.window.recommend.cold_us", us);
            }
            "adapted" => {
                metadpa_obs::counter_add!("serve.state.adapted", 1);
                metadpa_obs::window_observe!("serve.window.recommend.adapted_us", us);
            }
            _ => {}
        }
    }
    (resp, state)
}

fn recommend_inner(engine: &Engine, req: &Request) -> (Response, State) {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return (resp, ""),
    };
    let k = match parse_k(&body) {
        Ok(k) => k,
        Err(resp) => return (resp, ""),
    };
    let user = match parse_user_id(&body) {
        Ok(u) => u,
        Err(resp) => return (resp, ""),
    };
    let content = match parse_content(&body) {
        Ok(c) => c,
        Err(resp) => return (resp, ""),
    };
    let (result, state) = match (user, content) {
        (Some(_), Some(_)) => {
            return (
                bad_request("both_ids", "pass either \"user_id\" or \"content\", not both"),
                "",
            )
        }
        (Some(user), None) => match engine.recommend_user(user, k) {
            Ok((list, source)) => (Ok(list_json(&list, source.as_str())), state_of(source)),
            Err(e) => (Err(e), ""),
        },
        (None, Some(content)) => {
            (engine.recommend_content(&content, k).map(|list| list_json(&list, "cold")), "cold")
        }
        (None, None) => {
            (engine.recommend_cold_default(k).map(|list| list_json(&list, "cold")), "cold")
        }
    };
    match result {
        Ok(json) => {
            metadpa_obs::counter_add!("serve.responses.200", 1);
            (Response::json(200, json), state)
        }
        Err(e) => (artifact_error_response(&e), ""),
    }
}

fn adapt(engine: &Engine, req: &Request) -> (Response, State) {
    let start = Instant::now();
    let (resp, state) = adapt_inner(engine, req);
    let us = start.elapsed().as_micros() as u64;
    metadpa_obs::histogram_observe!("serve.latency.adapt_us", us);
    if resp.status == 200 {
        metadpa_obs::counter_add!("serve.state.adapted", 1);
        metadpa_obs::window_observe!("serve.window.adapt_us", us);
    }
    (resp, state)
}

fn adapt_inner(engine: &Engine, req: &Request) -> (Response, State) {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return (resp, ""),
    };
    let Some(support) = (match parse_support(&body) {
        Ok(s) => s,
        Err(resp) => return (resp, ""),
    }) else {
        return (
            bad_request(
                "missing_support",
                "adaptation requires a \"support\" array of [item, label] pairs",
            ),
            "",
        );
    };
    let user = match parse_user_id(&body) {
        Ok(u) => u,
        Err(resp) => return (resp, ""),
    };
    let content = match parse_content(&body) {
        Ok(c) => c,
        Err(resp) => return (resp, ""),
    };
    match (user, content) {
        (Some(_), Some(_)) => {
            (bad_request("both_ids", "pass either \"user_id\" or \"content\", not both"), "")
        }
        (Some(user), None) => match engine.adapt_user(user, &support) {
            Ok(cached) => {
                metadpa_obs::counter_add!("serve.responses.200", 1);
                let mut w = ObjectWriter::new();
                w.str_field("status", "adapted")
                    .u64_field("user_id", user as u64)
                    .u64_field("adapted_users", cached as u64);
                (Response::json(200, w.finish()), "adapted")
            }
            Err(e) => (artifact_error_response(&e), ""),
        },
        (None, Some(content)) => {
            let k = match parse_k(&body) {
                Ok(k) => k,
                Err(resp) => return (resp, ""),
            };
            match engine.adapt_and_recommend_content(&content, &support, k) {
                Ok(list) => {
                    metadpa_obs::counter_add!("serve.responses.200", 1);
                    (Response::json(200, list_json(&list, "adapted")), "adapted")
                }
                Err(e) => (artifact_error_response(&e), ""),
            }
        }
        (None, None) => {
            (bad_request("missing_target", "adaptation requires \"user_id\" or \"content\""), "")
        }
    }
}

fn feedback(engine: &Engine, log: Option<&Arc<FeedbackLog>>, req: &Request) -> Response {
    let start = Instant::now();
    let resp = feedback_inner(engine, log, req);
    let us = start.elapsed().as_micros() as u64;
    metadpa_obs::histogram_observe!("serve.latency.feedback_us", us);
    if resp.status == 200 {
        metadpa_obs::counter_add!("serve.feedback.accepted", 1);
        metadpa_obs::window_observe!("serve.window.feedback_us", us);
    } else if resp.status == 400 || resp.status == 422 {
        // The typed rejection counter: malformed or out-of-catalogue
        // events never reach the log (and never panic the worker).
        metadpa_obs::counter_add!("serve.feedback.rejected", 1);
    }
    resp
}

fn feedback_inner(engine: &Engine, log: Option<&Arc<FeedbackLog>>, req: &Request) -> Response {
    let Some(log) = log else {
        metadpa_obs::counter_add!("serve.responses.503", 1);
        error_cause_counter(503, "feedback_disabled");
        return Response::json(503, error_json("this server runs without a feedback log"));
    };
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let user = match parse_user_id(&body) {
        Ok(Some(u)) => u,
        Ok(None) => {
            return bad_request("missing_user_id", "feedback requires a \"user_id\"");
        }
        Err(resp) => return resp,
    };
    let item = match body.get("item_id") {
        None => return bad_request("missing_item_id", "feedback requires an \"item_id\""),
        Some(v) => match v.as_u64() {
            Some(i) => i as usize,
            None => {
                return bad_request("bad_item_id", "\"item_id\" must be a non-negative integer")
            }
        },
    };
    let label = match body.get("label") {
        None => 1.0f32,
        Some(v) => match v.as_f64() {
            Some(x) => x as f32,
            None => return bad_request("bad_label", "\"label\" must be a number"),
        },
    };
    if let Err(e) = engine.validate_feedback(user, item, label) {
        return artifact_error_response(&e);
    }
    let seq = log.append(user, item, label);
    metadpa_obs::counter_add!("serve.responses.200", 1);
    let mut w = ObjectWriter::new();
    w.str_field("status", "accepted")
        .u64_field("seq", seq)
        .u64_field("user_id", user as u64)
        .u64_field("item_id", item as u64);
    Response::json(200, w.finish())
}

fn metrics_page(engine: &Engine) -> Response {
    // Refresh the drift gauges at scrape time: they are otherwise only
    // updated per scored request, so a scrape after traffic stopped would
    // report a stale window.
    if metadpa_obs::enabled() {
        if let Some((stat, _)) = engine.drift_stat() {
            metadpa_obs::gauge_set!("serve.drift.stat", stat);
            metadpa_obs::gauge_set!(
                "serve.drift.alert",
                if stat > crate::engine::DRIFT_ALERT_THRESHOLD { 1.0 } else { 0.0 }
            );
        }
        // The adapted-cache occupancy moves on graduation, eviction, and
        // invalidation — all off the request path — so it is also refreshed
        // at scrape time rather than per event.
        metadpa_obs::gauge_set!("serve.adapt_cache.size", engine.cached_adaptations() as f64);
    }
    Response::text(200, metadpa_obs::metrics::render_text())
}

/// Dispatches one request; returns the response plus the endpoint label
/// and warm/cold/adapted state for the trace record.
fn route(
    engine: &Engine,
    feedback_log: Option<&Arc<FeedbackLog>>,
    req: &Request,
) -> (Response, &'static str, State) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (health(engine, feedback_log.is_some()), "health", ""),
        ("GET", "/metrics") => (metrics_page(engine), "metrics", ""),
        ("POST", "/v1/recommend") => {
            let (resp, state) = recommend(engine, req);
            (resp, "recommend", state)
        }
        ("POST", "/v1/adapt") => {
            let (resp, state) = adapt(engine, req);
            (resp, "adapt", state)
        }
        ("POST", "/v1/feedback") => (feedback(engine, feedback_log, req), "feedback", ""),
        (_, "/health" | "/metrics" | "/v1/recommend" | "/v1/adapt" | "/v1/feedback") => {
            metadpa_obs::counter_add!("serve.errors.405.bad_method", 1);
            (Response::json(405, error_json("method not allowed for this path")), "bad_method", "")
        }
        _ => {
            metadpa_obs::counter_add!("serve.errors.404.unknown_path", 1);
            (Response::json(404, error_json("unknown path")), "unknown_path", "")
        }
    }
}

/// Registers every serve-owned metric with its zero value. Counters (and
/// windows, gauges) only render once touched; seeding at router build time
/// makes `/metrics` expose the full name set from the first scrape, and
/// gives dashboards a stable schema whether or not an error class has
/// fired yet. No-op while observability is off.
fn seed_serve_metrics() {
    metadpa_obs::counter_add!("pool.tasks", 0);
    metadpa_obs::counter_add!("pool.steal", 0);
    metadpa_obs::counter_add!("tensor.matmul.packed_panels", 0);
    metadpa_obs::counter_add!("tensor.matmul.dispatch.serial", 0);
    metadpa_obs::counter_add!("tensor.matmul.dispatch.blocked", 0);
    metadpa_obs::counter_add!("tensor.matmul.dispatch.simd", 0);
    metadpa_obs::counter_add!("tensor.matmul.dispatch.scalar_forced", 0);
    metadpa_obs::counter_add!("tensor.matmul.packed_tiles", 0);
    metadpa_obs::counter_add!("serve.requests", 0);
    metadpa_obs::counter_add!("serve.state.warm", 0);
    metadpa_obs::counter_add!("serve.state.cold", 0);
    metadpa_obs::counter_add!("serve.state.adapted", 0);
    metadpa_obs::counter_add!("serve.feedback.accepted", 0);
    metadpa_obs::counter_add!("serve.feedback.rejected", 0);
    metadpa_obs::counter_add!("serve.feedback.graduations", 0);
    metadpa_obs::counter_add!("serve.feedback.refreshes", 0);
    metadpa_obs::counter_add!("serve.feedback.invalidations", 0);
    metadpa_obs::counter_add!("serve.feedback.errors", 0);
    metadpa_obs::counter_add!("serve.feedback.parse_errors", 0);
    metadpa_obs::counter_add!("serve.adapt_cache.evictions", 0);
    metadpa_obs::gauge_set!("serve.drift.stat", 0.0);
    metadpa_obs::gauge_set!("serve.drift.alert", 0.0);
    metadpa_obs::gauge_set!("serve.adapt_cache.size", 0.0);
    if !metadpa_obs::enabled() {
        return;
    }
    for name in [
        "serve.window.recommend.warm_us",
        "serve.window.recommend.cold_us",
        "serve.window.recommend.adapted_us",
        "serve.window.adapt_us",
        "serve.window.feedback_us",
    ] {
        let _ = metadpa_obs::metrics::window(name);
    }
    for name in [
        // Handler-level taxonomy (`bad_request` / `ArtifactError::cause`).
        "serve.errors.400.not_utf8",
        "serve.errors.400.bad_json",
        "serve.errors.400.bad_k",
        "serve.errors.400.bad_content",
        "serve.errors.400.bad_support",
        "serve.errors.400.bad_user_id",
        "serve.errors.400.both_ids",
        "serve.errors.400.missing_support",
        "serve.errors.400.missing_target",
        "serve.errors.400.missing_user_id",
        "serve.errors.400.missing_item_id",
        "serve.errors.400.bad_item_id",
        "serve.errors.400.bad_label",
        "serve.errors.503.feedback_disabled",
        "serve.errors.404.unknown_path",
        "serve.errors.405.bad_method",
        "serve.errors.422.user_out_of_range",
        "serve.errors.422.item_out_of_range",
        "serve.errors.422.empty_support",
        "serve.errors.422.non_finite_label",
        "serve.errors.422.content_dim_mismatch",
        "serve.errors.422.bad_params",
        "serve.errors.422.non_finite_scores",
        // Transport-level taxonomy (`crate::http`, before routing).
        "serve.errors.400.transport",
        "serve.errors.400.bad_content_length",
        "serve.errors.408.timeout",
        "serve.errors.413.body_too_large",
    ] {
        let _ = metadpa_obs::metrics::counter(name);
    }
}

/// Publishes which artifact run this server is holding: one
/// `serve.artifact` trace event carrying the full run-ledger key (the
/// lineage join point for serve-side traces) plus `serve.artifact.run.*`
/// gauges on `/metrics`. Gauges are f64, which cannot hold a u64 exactly,
/// so the 64-bit run components are split into exact 32-bit halves;
/// `present` is 0 for pre-ledger (unstamped) artifacts. No-op while
/// observability is off.
fn publish_artifact_identity(engine: &Engine) {
    if !metadpa_obs::enabled() {
        return;
    }
    let meta = engine.meta();
    let mut ev = metadpa_obs::Event::new("event", "serve.artifact");
    ev.push("run_id", meta.run_id.as_str());
    ev.push("model", meta.model_name.as_str());
    ev.push("data_fingerprint", meta.data_fingerprint.as_str());
    metadpa_obs::emit(ev);
    let run = metadpa_obs::run::RunId::parse(&meta.run_id);
    let (present, seed, fp, seq) = match &run {
        Some(r) => (1.0, r.seed, r.config_fingerprint, r.seq),
        None => (0.0, 0, 0, 0),
    };
    metadpa_obs::gauge_set!("serve.artifact.run.present", present);
    metadpa_obs::gauge_set!("serve.artifact.run.seed_hi", (seed >> 32) as f64);
    metadpa_obs::gauge_set!("serve.artifact.run.seed_lo", (seed & 0xffff_ffff) as f64);
    metadpa_obs::gauge_set!("serve.artifact.run.fingerprint_hi", (fp >> 32) as f64);
    metadpa_obs::gauge_set!("serve.artifact.run.fingerprint_lo", (fp & 0xffff_ffff) as f64);
    metadpa_obs::gauge_set!("serve.artifact.run.seq", seq as f64);
}

/// Builds the HTTP handler for one engine, without feedback ingestion
/// (`POST /v1/feedback` answers 503).
pub fn router(engine: Arc<Engine>) -> Handler {
    router_with_feedback(engine, None)
}

/// Builds the HTTP handler for one engine. With a [`FeedbackLog`],
/// `POST /v1/feedback` validates events against the engine's catalogue and
/// appends them; the background [`metadpa_feedback::FeedbackAdapter`]
/// (wired up by the serve binary) consumes them from the file.
pub fn router_with_feedback(
    engine: Arc<Engine>,
    feedback_log: Option<Arc<FeedbackLog>>,
) -> Handler {
    seed_serve_metrics();
    publish_artifact_identity(&engine);
    Arc::new(move |req: &Request| {
        metadpa_obs::counter_add!("serve.requests", 1);
        if !metadpa_obs::enabled() {
            // The whole tracing block below is skipped: with observability
            // off a request costs the same relaxed loads as before.
            return route(&engine, feedback_log.as_ref(), req).0;
        }
        let start = Instant::now();
        let request_id = metadpa_obs::span::next_request_id();
        let _scope = metadpa_obs::span::enter_request(Some(request_id));
        let (resp, endpoint, state) = {
            let _root = metadpa_obs::span!("serve.request");
            route(&engine, feedback_log.as_ref(), req)
        };
        // One structured access record per request — the unit `obs-report
        // tail` / `check-trace` stream over.
        let mut ev = metadpa_obs::Event::new("request", endpoint);
        ev.push("req", request_id);
        ev.push("method", req.method.as_str());
        ev.push("path", req.path.as_str());
        ev.push("status", resp.status as u64);
        ev.push("state", state);
        ev.push("dur_us", start.elapsed().as_micros() as u64);
        metadpa_obs::emit(ev);
        resp
    })
}

#[cfg(test)]
mod tests {
    // Every test holds the observability test lock: some enable the
    // process-wide recorder and read process-wide gauges, counters and
    // drift state, which any engine or router used concurrently with
    // observability on would write to.
    use super::*;
    use crate::engine::Engine;
    use crate::http::{serve, ServerConfig};
    use metadpa_core::artifact::artifact_from_learner;
    use metadpa_core::augmentation::DiversityReport;
    use metadpa_core::{MamlConfig, MetaLearner, PreferenceConfig};
    use metadpa_tensor::SeededRng;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn tiny_artifact(seed: u64) -> metadpa_core::artifact::Artifact {
        let pref = PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] };
        let maml = MamlConfig { finetune_steps: 2, ..MamlConfig::default() };
        let mut rng = SeededRng::new(seed);
        let mut learner = MetaLearner::new(pref, maml, &mut rng);
        let user_content = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let item_content = rng.uniform_matrix(9, 6, -1.0, 1.0);
        artifact_from_learner(
            &mut learner,
            "unit",
            "rev".into(),
            "fp".into(),
            DiversityReport::default(),
            user_content,
            item_content,
            format!("run-{seed:016x}-00000000cafef00d-1"),
        )
    }

    fn tiny_engine(seed: u64) -> Arc<Engine> {
        Arc::new(Engine::new(tiny_artifact(seed).into_recommender().expect("valid artifact")))
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
        request(addr, "POST", path, body)
    }

    fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(raw.as_bytes()).expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        let status: u16 = out.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn end_to_end_routes_over_real_tcp() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(31);
        let server = serve(ServerConfig::default(), router(Arc::clone(&engine))).expect("bind");
        let addr = server.addr();

        let (status, body) = request(addr, "GET", "/health", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"model\":\"unit\""), "{body}");
        assert!(body.contains("\"n_users\":4"), "{body}");
        assert!(
            body.contains("\"run_id\":\"run-000000000000001f-00000000cafef00d-1\""),
            "/health must surface the artifact's run-ledger key: {body}"
        );
        let simd_field = format!("\"simd\":\"{}\"", metadpa_tensor::simd::feature_string());
        assert!(
            body.contains(&simd_field),
            "/health must surface the detected kernel feature set: {body}"
        );
        assert!(
            body.contains("\"ranking\":\"exact\""),
            "/health must surface the artifact's ranking kernels: {body}"
        );

        // Warm recommend.
        let (status, body) = post(addr, "/v1/recommend", r#"{"user_id":1,"k":3}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"source\":\"warm\""), "{body}");
        let parsed = json::parse(&body).expect("response JSON parses");
        assert_eq!(parsed.get("items").and_then(JsonValue::as_arr).map(<[_]>::len), Some(3));

        // Adapt then serve from the cache.
        let (status, body) =
            post(addr, "/v1/adapt", r#"{"user_id":1,"support":[[0,1.0],[5,0.0]]}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"adapted\""), "{body}");
        let (status, body) = post(addr, "/v1/recommend", r#"{"user_id":1,"k":3}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"source\":\"adapted-cache\""), "{body}");

        // Cold by content; cold by nothing.
        let (status, body) =
            post(addr, "/v1/recommend", r#"{"content":[0.1,0.2,0.3,0.4,0.5,0.6],"k":2}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"source\":\"cold\""), "{body}");
        let (status, _) = post(addr, "/v1/recommend", "{}");
        assert_eq!(status, 200);

        // One-shot content adaptation.
        let (status, body) = post(
            addr,
            "/v1/adapt",
            r#"{"content":[0.1,0.2,0.3,0.4,0.5,0.6],"support":[[1,1.0]],"k":2}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"source\":\"adapted\""), "{body}");

        server.shutdown();
    }

    #[test]
    fn metrics_expose_pool_and_kernel_counters() {
        let _obs = metadpa_obs::test_lock();
        // Counters only record while observability is on (the serve binary
        // enables it at startup); mirror that here, before the router is
        // built, so its zero-seeding registers the names.
        metadpa_obs::enable(Arc::new(metadpa_obs::NullRecorder));
        metadpa_obs::metrics::reset();
        let engine = tiny_engine(34);
        let server = serve(ServerConfig::default(), router(Arc::clone(&engine))).expect("bind");
        let addr = server.addr();

        // Drive one scoring request so kernel counters see real traffic,
        // then check the registry names are all present (the zero-seeded
        // ones included, whether or not this process ran a blocked shape).
        let (status, _) = post(addr, "/v1/recommend", r#"{"user_id":0,"k":2}"#);
        assert_eq!(status, 200);
        let (status, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        // render_text flattens metric names (dots become underscores).
        for name in [
            "pool_tasks",
            "pool_steal",
            "tensor_matmul_packed_panels",
            "tensor_matmul_dispatch_serial",
            "tensor_matmul_dispatch_blocked",
            // SIMD dispatch schema: zero-seeded so a scalar-only host (or
            // METADPA_SIMD=off) still renders the rows dashboards key on.
            "tensor_matmul_dispatch_simd",
            "tensor_matmul_dispatch_scalar_forced",
            "tensor_matmul_packed_tiles",
            // Zero-seeded serve schema: per-state counters, drift gauges,
            // windowed latency digests, and the error taxonomy — all
            // present before (or regardless of) matching traffic.
            "serve_state_warm",
            "serve_state_cold",
            "serve_state_adapted",
            "serve_drift_stat",
            "serve_drift_alert",
            "serve_window_recommend_warm_us_p99",
            "serve_window_recommend_cold_us_p99",
            "serve_window_recommend_adapted_us_p99",
            "serve_window_adapt_us_p99",
            // Artifact run-ledger identity (split into exact 32-bit
            // halves; the full string lives on /health).
            "serve_artifact_run_present",
            "serve_artifact_run_seed_lo",
            "serve_artifact_run_fingerprint_hi",
            "serve_artifact_run_seq",
            "serve_errors_400_bad_json",
            "serve_errors_404_unknown_path",
            "serve_errors_405_bad_method",
            "serve_errors_413_body_too_large",
            "serve_errors_422_user_out_of_range",
            // Feedback subsystem schema: ingestion counters, adapter-side
            // graduation/invalidation counters, and the cache gauges are
            // all visible before any feedback traffic exists.
            "serve_feedback_accepted",
            "serve_feedback_rejected",
            "serve_feedback_graduations",
            "serve_feedback_refreshes",
            "serve_feedback_invalidations",
            "serve_feedback_errors",
            "serve_feedback_parse_errors",
            "serve_adapt_cache_evictions",
            "serve_adapt_cache_size",
            "serve_window_feedback_us_p99",
            "serve_errors_503_feedback_disabled",
        ] {
            assert!(body.contains(name), "/metrics must expose {name}: {body}");
        }
        // The cold/adapted states saw no traffic: still rendered, at zero.
        assert!(body.contains("serve_state_cold 0\n"), "{body}");
        assert!(body.contains("serve_errors_404_unknown_path 0\n"), "{body}");
        // The warm request above landed in its state counter and window.
        assert!(body.contains("serve_state_warm 1\n"), "{body}");
        assert!(body.contains("serve_window_recommend_warm_us_count 1\n"), "{body}");
        // The artifact's parseable run id fills the identity gauges.
        assert!(body.contains("serve_artifact_run_present 1"), "{body}");
        assert!(body.contains("serve_artifact_run_seed_lo 34"), "{body}");

        server.shutdown();
        metadpa_obs::disable();
    }

    #[test]
    fn request_problems_map_to_the_right_status_codes() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(32);
        let server = serve(ServerConfig::default(), router(Arc::clone(&engine))).expect("bind");
        let addr = server.addr();

        // Out-of-range user id: 422 with an explanation, not a panic.
        let (status, body) = post(addr, "/v1/recommend", r#"{"user_id":12345}"#);
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("12345"), "{body}");
        assert!(body.contains("4 users"), "{body}");

        // Wrong content width: 422. Malformed JSON: 400.
        let (status, _) = post(addr, "/v1/recommend", r#"{"content":[1.0]}"#);
        assert_eq!(status, 422);
        let (status, _) = post(addr, "/v1/recommend", r#"{"user_id":"#);
        assert_eq!(status, 400);
        let (status, _) = post(addr, "/v1/adapt", r#"{"user_id":0,"support":[]}"#);
        assert_eq!(status, 422);
        let (status, _) = post(addr, "/v1/adapt", r#"{"user_id":0}"#);
        assert_eq!(status, 400);

        // Routing: unknown path 404, wrong method 405.
        let (status, _) = post(addr, "/nope", "{}");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/v1/recommend", "");
        assert_eq!(status, 405);

        server.shutdown();
    }

    #[test]
    fn feedback_route_validates_appends_and_fails_closed() {
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(35);

        // Without a configured log the endpoint fails closed: 503, typed.
        let server = serve(ServerConfig::default(), router(Arc::clone(&engine))).expect("bind");
        let (status, body) = post(server.addr(), "/v1/feedback", r#"{"user_id":0,"item_id":1}"#);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("without a feedback log"), "{body}");
        let (_, body) = request(server.addr(), "GET", "/health", "");
        assert!(body.contains("\"feedback_enabled\":false"), "{body}");
        server.shutdown();

        // With a log: validated events are appended with contiguous seqs.
        let path = std::env::temp_dir()
            .join(format!("metadpa_serve_fb_route_{}.jsonl", std::process::id()));
        let log = Arc::new(
            FeedbackLog::create(&path, &engine.meta().run_id, 1 << 20).expect("create log"),
        );
        let server = serve(
            ServerConfig::default(),
            router_with_feedback(Arc::clone(&engine), Some(Arc::clone(&log))),
        )
        .expect("bind");
        let addr = server.addr();
        let (_, body) = request(addr, "GET", "/health", "");
        assert!(body.contains("\"feedback_enabled\":true"), "{body}");

        let (status, body) = post(addr, "/v1/feedback", r#"{"user_id":1,"item_id":3}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"seq\":1"), "{body}");
        let (status, body) = post(addr, "/v1/feedback", r#"{"user_id":2,"item_id":0,"label":0}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"seq\":2"), "{body}");

        // Malformed and out-of-catalogue events are rejected, never logged.
        for (body_text, want) in [
            (r#"{"item_id":1}"#, 400),                         // missing_user_id
            (r#"{"user_id":0}"#, 400),                         // missing_item_id
            (r#"{"user_id":0,"item_id":"x"}"#, 400),           // bad_item_id
            (r#"{"user_id":0,"item_id":1,"label":"x"}"#, 400), // bad_label
            (r#"{"user_id":99,"item_id":1}"#, 422),            // user out of range
            (r#"{"user_id":0,"item_id":99}"#, 422),            // item out of range
        ] {
            let (status, resp) = post(addr, "/v1/feedback", body_text);
            assert_eq!(status, want, "{body_text} → {resp}");
        }
        assert_eq!(log.appended(), 2, "rejected events must not reach the log");

        log.flush();
        let read = metadpa_feedback::read_log(&path).expect("read back");
        assert_eq!(read.events.len(), 2);
        assert_eq!(read.events[0].user, 1);
        assert_eq!(read.events[1].label, 0.0);
        assert_eq!(read.events[1].run_id, engine.meta().run_id);

        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nan_scoring_artifact_is_422_and_the_server_stays_alive() {
        let _obs = metadpa_obs::test_lock();
        // A CRC-valid artifact whose weights are all NaN restores cleanly
        // but scores every catalogue item as NaN. Before the non-finite
        // guard in `ArtifactRecommender::rank` this panicked inside
        // `top_k_indices` and killed the worker; now it must be a typed
        // 422 with /health still answering afterwards.
        let mut poisoned = tiny_artifact(33);
        for (_, m) in poisoned.params.iter_mut() {
            m.as_mut_slice().fill(f32::NAN);
        }
        let engine =
            Arc::new(Engine::new(poisoned.into_recommender().expect("NaN weights restore")));
        let server = serve(ServerConfig::default(), router(engine)).expect("bind");
        let addr = server.addr();

        let (status, body) = post(addr, "/v1/recommend", r#"{"user_id":1,"k":3}"#);
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("non-finite"), "{body}");

        // Cold-start content scoring goes through the same guard.
        let (status, body) =
            post(addr, "/v1/recommend", r#"{"content":[0.1,0.2,0.3,0.4,0.5,0.6],"k":2}"#);
        assert_eq!(status, 422, "{body}");

        let (status, body) = request(addr, "GET", "/health", "");
        assert_eq!(status, 200, "a poisoned request must not kill the server: {body}");

        server.shutdown();
    }
}
