//! The operator's path: load the checkpoint, start the server with its
//! feedback loop, drive seeded traffic over loopback HTTP, and check what
//! was served against the same checkpoint scored in process.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use metadpa_core::artifact::ArtifactRecommender;
use metadpa_feedback::{
    expected_outcome, read_log, AdapterConfig, AdapterStats, FeedbackAdapter, FeedbackLog,
    GraduationConfig,
};
use metadpa_obs::json::{self, ObjectWriter};
use metadpa_serve::engine::ServeSource;
use metadpa_serve::http::{serve, Server, ServerConfig};
use metadpa_serve::{load_artifact, router_with_feedback, Engine};

use crate::client::{self, Done, Mode};
use crate::model::cold_users_path;
use crate::stats::{chunk_rates, median, ms, ns, quantile_us, sorted};
use crate::traffic::{self, Kind, Mix, Req, Rng, Shape, K};
use crate::{trace, Ledger};

/// Each phase's sequence is sent in this many slices, one per round, so
/// every metric samples the whole run.
pub const ROUNDS: usize = 5;
/// HTTP worker threads of the server under test.
pub const SERVER_WORKERS: usize = 2;
/// Feedback events per user before the adapter graduates it.
const FEEDBACK_THRESHOLD: usize = 3;
/// Users that draw most of the adapt-mix traffic.
const HOT_USERS: usize = 64;
/// One request in this many has its served list checked.
const SAMPLE_EVERY: usize = 8;
/// Requests per phase the in-process engine replay takes.
const REPLAY_PER_PHASE: usize = 1500;
/// Seeded reads appended to every in-process replay.
const REPLAY_TAIL: usize = 200;
/// Rotation threshold of the feedback log.
const LOG_MAX_BYTES: u64 = 16 << 20;

/// One traffic phase.
pub struct PhasePlan {
    pub name: &'static str,
    pub mix: Mix,
    pub count: usize,
    pub mode: Mode,
}

/// The serving part of a workload.
pub struct ServePlan {
    pub phases: Vec<PhasePlan>,
    pub adapt_capacity: usize,
    /// Set-up samples taken before each round.
    pub setup_reps: usize,
}

/// A started server and its feedback loop.
struct Live {
    engine: Arc<Engine>,
    log: Arc<FeedbackLog>,
    adapter: FeedbackAdapter,
    server: Server,
}

impl Live {
    /// Waits until the adapter has processed every logged event, so no
    /// graduation an earlier phase started runs in the background.
    fn catch_up(&self, ledger: &mut Ledger) {
        self.log.flush();
        let done = self.adapter.wait_for_seq(self.log.appended(), Duration::from_secs(60));
        ledger.check(done, || "the feedback adapter fell behind the log".into());
    }

    fn stop(self) -> Arc<AdapterStats> {
        self.server.shutdown();
        self.adapter.stop()
    }
}

fn graduation() -> GraduationConfig {
    GraduationConfig::with_threshold(FEEDBACK_THRESHOLD)
}

fn load(path: &str, parent: u64) -> Result<ArtifactRecommender, String> {
    let artifact = trace::span("serve.load_artifact", parent, 0, |_| load_artifact(path))
        .map_err(|e| format!("loading {path}: {e}"))?;
    trace::span("core.artifact.into_recommender", parent, 0, |_| artifact.into_recommender())
        .map_err(|e| format!("restoring {path}: {e}"))
}

/// Checkpoint load, `into_recommender`, feedback loop, server bind, and
/// the first 200 answer: what `setup_s` times.
fn start(path: &str, capacity: usize, log_path: &Path, parent: u64) -> Result<Live, String> {
    let rec = load(path, parent)?;
    let engine = Arc::new(Engine::with_adapt_capacity(rec, capacity));
    let log = FeedbackLog::create(log_path, &engine.meta().run_id, LOG_MAX_BYTES)
        .map_err(|e| format!("creating the feedback log: {e}"))?;
    let log = Arc::new(log);
    let cfg = AdapterConfig { graduation: graduation(), ..AdapterConfig::default() };
    let adapter = FeedbackAdapter::spawn(log.path(), cfg, Arc::clone(&engine) as _);
    match listen(&engine, &log, parent) {
        Ok(server) => Ok(Live { engine, log, adapter, server }),
        Err(e) => {
            adapter.stop();
            Err(e)
        }
    }
}

/// Binds a fresh listener for `engine` and waits for its first 200.
fn listen(engine: &Arc<Engine>, log: &Arc<FeedbackLog>, parent: u64) -> Result<Server, String> {
    let server = trace::span("serve.http.bind", parent, 0, |_| {
        let cfg = ServerConfig { workers: SERVER_WORKERS, ..ServerConfig::default() };
        serve(cfg, router_with_feedback(Arc::clone(engine), Some(Arc::clone(log))))
    })
    .map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.addr();
    let up = trace::span("serve.http.first_response", parent, 0, |_| {
        let raw = b"GET /health HTTP/1.1\r\nHost: e2ebench\r\nContent-Length: 0\r\n\r\n";
        let mut buf = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if client::send(addr, raw, &mut buf) == 200 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    });
    if !up {
        server.shutdown();
        return Err("the server never answered /health".into());
    }
    Ok(server)
}

/// A served list: `(items with scores, source)`.
fn parse_list(body: &[u8]) -> Option<(Vec<(usize, f32)>, String)> {
    let v = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let items = v.get("items")?.as_arr()?;
    let scores = v.get("scores")?.as_arr()?;
    let source = v.get("source")?.as_str()?.to_string();
    let list = items
        .iter()
        .zip(scores)
        .map(|(i, s)| Some((i.as_u64()? as usize, s.as_f64()? as f32)))
        .collect::<Option<Vec<_>>>()?;
    (list.len() == items.len()).then_some((list, source))
}

/// The in-process answer for `req` with optional adapted parameters.
fn expected(
    oracle: &mut ArtifactRecommender,
    req: &Req,
    params: Option<&[metadpa_tensor::Matrix]>,
) -> Result<Vec<(usize, f32)>, String> {
    match req.kind {
        Kind::Warm => oracle.recommend(req.user, K, params),
        _ => oracle.recommend_content(&req.content, K, params),
    }
    .map_err(|e| format!("oracle: {e}"))
}

/// Outcome of one phase, for the metrics and the run detail.
struct PhaseStats {
    name: &'static str,
    mode: Mode,
    attempted: usize,
    ok: usize,
    wall: Duration,
    late_ns: Vec<u64>,
}

impl PhaseStats {
    fn to_json(&self) -> String {
        let late = sorted(self.late_ns.clone());
        let mut w = ObjectWriter::new();
        w.str_field("phase", self.name);
        match self.mode {
            Mode::Closed => w.str_field("mode", "closed"),
            Mode::Open { rate } => w.str_field("mode", "open").f64_field("rate_per_s", rate),
        };
        w.u64_field("attempted", self.attempted as u64)
            .u64_field("succeeded", self.ok as u64)
            .u64_field("failed", (self.attempted - self.ok) as u64)
            .f64_field("wall_s", self.wall.as_secs_f64());
        if matches!(self.mode, Mode::Open { .. }) {
            w.f64_field("generator_late_p50_us", quantile_us(&late, 0.5))
                .f64_field("generator_late_p99_us", quantile_us(&late, 0.99))
                .f64_field("generator_late_max_us", quantile_us(&late, 1.0));
        }
        w.finish()
    }
}

/// What the serving part measured.
pub struct ServeRun {
    pub values: BTreeMap<String, f64>,
    /// JSON array of per-phase detail.
    pub phases_json: String,
}

/// Runs the serving part against the checkpoint at `ckpt`, calling
/// `between(round, phase, ledger)` after every slice, once the feedback
/// adapter has caught up.
#[allow(clippy::too_many_arguments)]
pub fn run(
    ckpt: &Path,
    plan: &ServePlan,
    seed: u64,
    conns: usize,
    out_dir: &Path,
    tag: &str,
    ledger: &mut Ledger,
    between: &mut dyn FnMut(usize, usize, &mut Ledger) -> Result<(), String>,
) -> Result<ServeRun, String> {
    trace::span("serve", 0, 0, |root| {
        run_inner(ckpt, plan, seed, conns, out_dir, tag, ledger, between, root)
    })
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    ckpt: &Path,
    plan: &ServePlan,
    seed: u64,
    conns: usize,
    out_dir: &Path,
    tag: &str,
    ledger: &mut Ledger,
    between: &mut dyn FnMut(usize, usize, &mut Ledger) -> Result<(), String>,
    root: u64,
) -> Result<ServeRun, String> {
    let path = ckpt.to_str().ok_or("checkpoint path is not UTF-8")?;
    let log_path = out_dir.join(format!("feedback-{tag}.jsonl"));
    let mut values = BTreeMap::new();

    // ---- set-up: the first server stays up; more samples come between
    // rounds from throwaway servers with their own log ----
    let mut setup_s = Vec::new();
    let mut setup = |log: &Path, keep: bool| -> Result<Option<Live>, String> {
        let t = Instant::now();
        let started =
            trace::span("serve.setup", root, 0, |id| start(path, plan.adapt_capacity, log, id))?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(if keep {
            Some(started)
        } else {
            started.stop();
            None
        })
    };
    let spare_log = out_dir.join(format!("feedback-{tag}-setup.jsonl"));
    let mut live = setup(&log_path, true)?.expect("kept");

    // ---- seeded traffic, one sequence per phase ----
    let mut oracle = load(path, root)?;
    let mut rng = Rng::new(seed);
    let shape = Shape {
        n_users: oracle.n_users(),
        n_items: oracle.n_items(),
        hot: traffic::hot_set(&mut rng, oracle.n_users(), HOT_USERS),
        cold: traffic::read_cold_users(&cold_users_path(ckpt), oracle.content_dim())?,
    };
    let seqs: Vec<Vec<Req>> =
        plan.phases.iter().map(|p| traffic::generate(p.mix, p.count, &mut rng, &shape)).collect();

    // ---- the phases, in rounds: each round sends the next slice of every
    // phase's sequence, so each metric samples the whole run ----
    let obs_before = obs_counts();
    let mut stats: Vec<PhaseStats> = plan
        .phases
        .iter()
        .map(|p| PhaseStats {
            name: p.name,
            mode: p.mode,
            attempted: 0,
            ok: 0,
            wall: Duration::ZERO,
            late_ns: Vec::new(),
        })
        .collect();
    let mut done: Vec<Vec<Done>> = seqs.iter().map(|s| vec![Done::default(); s.len()]).collect();
    let mut bodies: Vec<Vec<(usize, Vec<u8>)>> = seqs.iter().map(|_| Vec::new()).collect();
    let mut slices: Vec<Vec<Range<usize>>> = seqs.iter().map(|_| Vec::new()).collect();
    let (mut closed_delta, mut closed_ok) = ([0u64; 5], 0usize);
    for round in 0..ROUNDS {
        // Round 0 already has the live server's sample.
        for _ in usize::from(round == 0)..plan.setup_reps {
            setup(&spare_log, false)?;
        }
        for (p, (phase, reqs)) in plan.phases.iter().zip(&seqs).enumerate() {
            let range = reqs.len() * round / ROUNDS..reqs.len() * (round + 1) / ROUNDS;
            // A fresh listener port per slice: no connection of this slice
            // can collide with a TIME_WAIT entry an earlier one left.
            let fresh = listen(&live.engine, &live.log, root)?;
            std::mem::replace(&mut live.server, fresh).shutdown();
            let addr = live.server.addr();
            if matches!(phase.mode, Mode::Closed) {
                // The closed phase's counts hold only its own work.
                live.catch_up(ledger);
            }
            let before = crate::model::counters();
            let res = trace::span(phase.name, root, 0, |id| {
                let base = ((p as u64 + 1) << 32) + range.start as u64;
                client::run_phase(
                    addr,
                    &reqs[range.clone()],
                    phase.mode,
                    conns,
                    SAMPLE_EVERY,
                    id,
                    base,
                )
            });
            let ok = res.done.iter().filter(|d| d.status == 200).count();
            if matches!(phase.mode, Mode::Closed) {
                let after = crate::model::counters();
                for (d, (a, b)) in closed_delta.iter_mut().zip(after.iter().zip(&before)) {
                    *d += a - b;
                }
                closed_ok += ok;
            }
            let st = &mut stats[p];
            st.attempted += range.len();
            st.ok += ok;
            st.wall += res.wall;
            st.late_ns.extend(res.done.iter().map(|d| d.late_ns));
            done[p][range.clone()].copy_from_slice(&res.done);
            bodies[p].extend(res.bodies.into_iter().map(|(i, b)| (i + range.start, b)));
            slices[p].push(range);
            // What `between` times runs on a quiet host.
            live.catch_up(ledger);
            between(round, p, ledger)?;
        }
    }
    for st in &stats {
        ledger.attempted += st.attempted as u64;
        ledger.failed += (st.attempted - st.ok) as u64;
        if st.ok < st.attempted {
            ledger.note(format!(
                "{}: {} of {} requests failed",
                st.name,
                st.attempted - st.ok,
                st.attempted
            ));
        }
    }
    values.insert("setup_s".into(), median(&setup_s));
    let _ = std::fs::remove_file(&spare_log);

    // ---- served lists from θ must equal the in-process oracle ----
    let mut theta_cache: HashMap<usize, Vec<(usize, f32)>> = HashMap::new();
    let (mut checked, mut skipped_adapted) = (0u64, 0u64);
    for (p, reqs) in seqs.iter().enumerate() {
        for (i, body) in &bodies[p] {
            let req = &reqs[*i];
            if !req.kind.is_recommend() || done[p][*i].status != 200 {
                continue;
            }
            let Some((list, source)) = parse_list(body) else {
                ledger.fail(format!(
                    "unparseable recommend response: {}",
                    String::from_utf8_lossy(body)
                ));
                continue;
            };
            if source == "adapted-cache" {
                // Depends on which adaptation was current; checked below
                // once the server is quiet.
                skipped_adapted += 1;
                continue;
            }
            let want = match req.kind {
                Kind::Warm => match theta_cache.get(&req.user) {
                    Some(w) => w.clone(),
                    None => {
                        let w = expected(&mut oracle, req, None)?;
                        theta_cache.insert(req.user, w.clone());
                        w
                    }
                },
                _ => expected(&mut oracle, req, None)?,
            };
            checked += 1;
            ledger.check(list == want, || {
                format!("served list differs from the oracle for request {i}")
            });
        }
    }

    // ---- feedback drain ----
    live.log.flush();
    let t = Instant::now();
    let drained = live.adapter.wait_for_seq(live.log.appended(), Duration::from_secs(60));
    values.insert("feedback.drain_ms".into(), ms(t.elapsed()));
    ledger.check(drained, || "the feedback adapter did not drain the log".into());

    // The load's own counts, before the check below adds its requests.
    let obs_after = obs_counts();
    let evictions = live.engine.adapt_cache_evictions();
    let cached = live.engine.cached_adaptations();

    // ---- quiescent check: cached users with their adapted parameters ----
    let verify = verify_quiet(&live, &mut oracle, &mut rng, &shape, ledger)?;
    checked += verify;
    let appended = live.log.appended();
    let adapter_stats = live.stop();

    // ---- the live adapter must match the replay oracle on the log ----
    let read = read_log(&log_path).map_err(|e| format!("reading the feedback log: {e}"))?;
    let want = expected_outcome(&read.events, graduation());
    ledger.check(read.interior_errors.is_empty(), || {
        format!("feedback log: {:?}", read.interior_errors)
    });
    ledger.check(read.events.len() as u64 == appended, || "feedback log lost events".into());
    ledger.check(adapter_stats.processed() == want.events, || "adapter skipped events".into());
    ledger.check(adapter_stats.graduations() == want.graduations, || {
        format!("graduations {} != replay {}", adapter_stats.graduations(), want.graduations)
    });
    ledger.check(adapter_stats.refreshes() == want.refreshes, || {
        format!("refreshes {} != replay {}", adapter_stats.refreshes(), want.refreshes)
    });
    ledger.check(adapter_stats.adapt_errors() == 0, || "graduations errored".into());
    values.insert("feedback.graduations".into(), adapter_stats.graduations() as f64);
    values.insert("feedback.invalidations".into(), adapter_stats.invalidations() as f64);
    values.insert("serve.adapt_cache.evictions".into(), evictions as f64);

    // ---- end-to-end metrics over every slice of the run ----
    let closed = plan.phases.iter().position(|p| matches!(p.mode, Mode::Closed));
    let open = plan.phases.iter().position(|p| matches!(p.mode, Mode::Open { .. }));
    let (closed, open) = (closed.ok_or("no closed-loop phase")?, open.ok_or("no open-loop phase")?);
    let rates: Vec<f64> = slices[closed]
        .iter()
        .flat_map(|r| {
            chunk_rates(
                done[closed][r.clone()]
                    .iter()
                    .filter(|d| d.status == 200)
                    .map(|d| d.end_ns)
                    .collect(),
            )
        })
        .collect();
    values.insert("throughput_rps".into(), median(&rates));
    // Latencies of the kinds `pick` selects in phase `p`, sorted.
    let lat = |p: usize, pick: &dyn Fn(Kind) -> bool| -> Vec<u64> {
        let ns = seqs[p].iter().zip(&done[p]).filter(|(q, d)| pick(q.kind) && d.status == 200);
        sorted(ns.map(|(_, d)| d.latency_ns).collect())
    };
    // Quantiles over every sample of the run: the host's speed changes for
    // seconds at a time, and a quantile of per-chunk quantiles jumps with
    // the state most chunks fell in, where one over all samples moves with
    // the share of the run spent in each.
    let mut report = |name: &str, all: Vec<u64>| {
        for (q, suffix) in [(0.5, "p50_us"), (0.9, "p90_us"), (0.99, "p99_us")] {
            values.insert(format!("{name}_{suffix}"), quantile_us(&all, q));
        }
        values.insert(format!("{name}_samples"), all.len() as f64);
    };
    report("latency", lat(open, &Kind::is_recommend));
    let adapt: Vec<u64> = (0..plan.phases.len())
        .filter(|&p| matches!(plan.phases[p].mode, Mode::Open { .. }))
        .flat_map(|p| lat(p, &|k| k == Kind::Adapt))
        .collect();
    report("adapt", sorted(adapt));
    values.insert("checks.served_lists".into(), checked as f64);
    values.insert("checks.skipped_adapted_in_flight".into(), skipped_adapted as f64);
    values.insert("serve.adapt_cache.size_at_end".into(), cached as f64);

    // ---- per-layer attribution (traced runs) ----
    if trace::on() {
        let warm_http = lat(closed, &|k| k == Kind::Warm);
        let (hit, miss, conns_opened) = (
            obs_after[0] - obs_before[0],
            obs_after[1] - obs_before[1],
            obs_after[2] - obs_before[2],
        );
        values
            .insert("serve.adapt_cache.hit_ratio".into(), hit as f64 / (hit + miss).max(1) as f64);
        values.insert("serve.http.connections".into(), conns_opened as f64);
        crate::model::counter_values(&mut values, "request", closed_delta, closed_ok.max(1) as f64);
        attribute(path, plan, &seqs, &shape, &mut oracle, out_dir, tag, &mut values, root)?;
        let engine_warm = values["serve.engine.recommend_warm_us"];
        values.insert("serve.http.overhead_us".into(), quantile_us(&warm_http, 0.5) - engine_warm);
    }
    let phases_json =
        format!("[{}]", stats.iter().map(PhaseStats::to_json).collect::<Vec<_>>().join(","));
    Ok(ServeRun { values, phases_json })
}

/// Adapted-cache hits, misses and connections from the obs registry.
fn obs_counts() -> [u64; 3] {
    ["serve.adapt_cache.hit", "serve.adapt_cache.miss", "serve.connections"]
        .map(|c| metadpa_obs::metrics::counter(c).get())
}

/// With no traffic in flight, every cached user plus a seeded sample of
/// other users and cold contents must be served exactly what the oracle
/// computes with the cache's parameters. Returns how many were checked.
fn verify_quiet(
    live: &Live,
    oracle: &mut ArtifactRecommender,
    rng: &mut Rng,
    shape: &Shape,
    ledger: &mut Ledger,
) -> Result<u64, String> {
    let mut reqs: Vec<Req> = traffic::generate(Mix::Read, 32, rng, shape);
    let mut cached_users: Vec<usize> =
        (0..shape.n_users).filter(|&u| live.engine.adapted_params(u).is_some()).collect();
    cached_users.sort_unstable();
    reqs.extend(cached_users.iter().map(|&u| traffic::warm_request(u)));
    let mut buf = Vec::new();
    for req in &reqs {
        // Read the parameters before the request: nothing else writes now.
        let params = match req.kind {
            Kind::Warm => live.engine.adapted_params(req.user),
            _ => None,
        };
        ledger.attempted += 1;
        let status = client::send(live.server.addr(), &req.raw, &mut buf);
        let Some((list, source)) =
            (status == 200).then(|| parse_list(client::body(&buf))).flatten()
        else {
            ledger.fail(format!("verify request failed with status {status}"));
            continue;
        };
        let want_source = if params.is_some() {
            ServeSource::AdaptedCache
        } else if req.kind == Kind::Warm {
            ServeSource::Warm
        } else {
            ServeSource::Cold
        };
        let want = expected(oracle, req, params.as_deref().map(Vec::as_slice))?;
        ledger.check(list == want && source == want_source.as_str(), || {
            format!("quiet check: served {source} list differs for user {}", req.user)
        });
    }
    Ok(reqs.len() as u64)
}

/// Times the benchmark's own calls into the engine, the feedback log and
/// the top-k kernel on the workload's own request sequence, in process.
#[allow(clippy::too_many_arguments)]
fn attribute(
    path: &str,
    plan: &ServePlan,
    seqs: &[Vec<Req>],
    shape: &Shape,
    oracle: &mut ArtifactRecommender,
    out_dir: &Path,
    tag: &str,
    values: &mut BTreeMap<String, f64>,
    root: u64,
) -> Result<(), String> {
    // A fixed tail of reads gives every engine call class samples, also on
    // workloads whose own traffic has no cold users.
    let tail = traffic::generate(Mix::Read, REPLAY_TAIL, &mut Rng::new(0), shape);
    let replay: Vec<&Req> = seqs
        .iter()
        .flat_map(|s| s.iter().take(REPLAY_PER_PHASE))
        .chain(&tail)
        .filter(|r| r.kind != Kind::Feedback)
        .collect();
    let _quiet = crate::ObsPause::begin();

    // One thread: per-class engine latency and allocations per call.
    let engine = Engine::with_adapt_capacity(load(path, root)?, plan.adapt_capacity);
    metadpa_obs::alloc::enable_profiling();
    let allocs_before = metadpa_obs::alloc::snapshot().alloc_count;
    let one = trace::span("serve.engine.replay_1thread", root, 0, |id| {
        replay_calls(&engine, &replay, id)
    })?;
    let allocs = metadpa_obs::alloc::snapshot().alloc_count - allocs_before;
    metadpa_obs::alloc::disable_profiling();
    values.insert("serve.allocs_per_request".into(), allocs as f64 / replay.len().max(1) as f64);
    for (name, class) in [
        ("serve.engine.recommend_warm_us", Class::Warm),
        ("serve.engine.recommend_cold_us", Class::Cold),
        ("serve.engine.recommend_adapted_us", Class::Adapted),
        ("serve.engine.adapt_us", Class::Adapt),
    ] {
        let ns: Vec<u64> = one.iter().filter(|c| c.0 == class).map(|c| c.1).collect();
        values.insert(name.into(), quantile_us(&sorted(ns), 0.5));
    }

    // Two threads on one engine: what the engine lock costs per call.
    let engine = Engine::with_adapt_capacity(load(path, root)?, plan.adapt_capacity);
    let two: Vec<(Class, u64)> = trace::span("serve.engine.replay_2threads", root, 0, |id| {
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|t| {
                    let part: Vec<&Req> = replay.iter().skip(t).step_by(2).copied().collect();
                    let engine = &engine;
                    s.spawn(move || replay_calls(engine, &part, id))
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("replay thread")).collect::<Result<Vec<_>, _>>()
        })
    })?
    .into_iter()
    .flatten()
    .collect();
    let p50 = |v: &[(Class, u64)]| quantile_us(&sorted(v.iter().map(|c| c.1).collect()), 0.5);
    values.insert("serve.engine.contention_us".into(), p50(&two) - p50(&one));

    // Feedback log appends, on a side log.
    let side = FeedbackLog::create(
        out_dir.join(format!("side-feedback-{tag}.jsonl")),
        "e2ebench",
        LOG_MAX_BYTES,
    )
    .map_err(|e| format!("creating the side feedback log: {e}"))?;
    let mut append_ns = Vec::new();
    for (i, r) in seqs.iter().flatten().filter(|r| r.kind == Kind::Feedback).enumerate() {
        let (item, label) = r.pairs[0];
        let t = Instant::now();
        trace::span("feedback.append", root, i as u64 + 1, |_| side.append(r.user, item, label));
        append_ns.push(ns(t.elapsed()));
    }
    side.flush();
    values.insert("feedback.append_us".into(), quantile_us(&sorted(append_ns), 0.5));

    // Top-k selection over one catalogue-width score vector.
    let probe = seqs.iter().flatten().find(|r| r.kind == Kind::Warm).ok_or("no warm request")?;
    expected(oracle, probe, None)?;
    let scores = oracle.last_scores().to_vec();
    const BATCH: usize = 100;
    let mut per_call = Vec::new();
    trace::span("metrics.top_k_indices", root, 0, |_| {
        for _ in 0..20 {
            let t = Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(metadpa_metrics::ranking::top_k_indices(
                    std::hint::black_box(&scores),
                    K,
                ));
            }
            per_call.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        }
    });
    values.insert("metrics.top_k_us".into(), median(&per_call));
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Warm,
    Cold,
    Adapted,
    Adapt,
}

/// Sends `reqs` straight to `engine`, timing each call.
fn replay_calls(engine: &Engine, reqs: &[&Req], parent: u64) -> Result<Vec<(Class, u64)>, String> {
    let mut out = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let req_id = i as u64 + 1;
        let t = Instant::now();
        let class = match r.kind {
            Kind::Warm => {
                let (_, source) =
                    trace::span("serve.engine.recommend_user", parent, req_id, |_| {
                        engine.recommend_user(r.user, K)
                    })
                    .map_err(|e| format!("engine: {e}"))?;
                if source == ServeSource::AdaptedCache {
                    Class::Adapted
                } else {
                    Class::Warm
                }
            }
            Kind::Cold => {
                trace::span("serve.engine.recommend_content", parent, req_id, |_| {
                    engine.recommend_content(&r.content, K)
                })
                .map_err(|e| format!("engine: {e}"))?;
                Class::Cold
            }
            Kind::Adapt => {
                trace::span("serve.engine.adapt_user", parent, req_id, |_| {
                    engine.adapt_user(r.user, &r.pairs)
                })
                .map_err(|e| format!("engine: {e}"))?;
                Class::Adapt
            }
            Kind::Feedback => continue,
        };
        out.push((class, ns(t.elapsed())));
    }
    Ok(out)
}
