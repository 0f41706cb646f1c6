//! `metadpa-serve` — export, run and smoke-test serving artifacts.
//!
//! ```text
//! metadpa-serve export --out artifact.ckpt [--seed N] [--ranking exact|fused]
//!     Fit the fast MetaDPA pipeline on the tiny synthetic world and
//!     export the result as a metadpa-ckpt/v2 artifact. With
//!     --ranking fused, a serve process that loads it ranks catalogues
//!     through the fused-FMA kernels; the default ranks exactly.
//!
//! metadpa-serve run --artifact artifact.ckpt [--addr 127.0.0.1:8787] [--workers 4]
//!     Load an artifact and serve /v1/recommend, /v1/adapt, /health,
//!     /metrics until the process is killed. With --feedback-log PATH the
//!     server also ingests implicit feedback on POST /v1/feedback into a
//!     size-rotated JSONL log, and a background adapter thread tails that
//!     log, re-running the trained MAML inner loop for any user who
//!     crosses --feedback-threshold events (default 5) — cold users
//!     graduate into the adapted-parameter cache live, and the cache is
//!     invalidated on the rising edge of the drift alert.
//!     --adapt-cache-capacity N bounds the adapted cache (LRU, default
//!     4096).
//!
//! metadpa-serve smoke --artifact artifact.ckpt
//!     Load an artifact, bind an ephemeral port, drive loopback requests
//!     through every route (including the 422 path), verify the
//!     responses, shut down cleanly and exit 0 — the CI smoke stage.
//! ```
//!
//! `run` and `smoke` additionally accept `--trace-out PATH`: write one
//! JSONL record per request (plus every span and a final metrics snapshot)
//! to a size-rotated trace log that `obs-report tail` / `check-trace` can
//! stream. Without it the process keeps the default null recorder, and the
//! serve hot path stays allocation-free.
//!
//! `export` accepts `--train-trace-out PATH`: the same rotated JSONL
//! recorder, but pointed at the *training* run — one `train_epoch` record
//! per MAML/CVAE epoch (loss components, grad norm, wall time, ETA), typed
//! `train_anomaly` events from the sentinels, and the run-ledger ID that
//! `obs-report train-tail` / `check-train` / `lineage` join on.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

use metadpa_core::artifact::Ranking;
use metadpa_core::eval::Recommender;
use metadpa_core::{MetaDpa, MetaDpaConfig};
use metadpa_data::generator::generate_world;
use metadpa_data::presets::tiny_world;
use metadpa_data::splits::{ScenarioKind, SplitConfig, Splitter};
use metadpa_feedback::{AdapterConfig, FeedbackAdapter, FeedbackLog, GraduationConfig};
use metadpa_obs::recorder::{NullRecorder, RotatingFileRecorder};
use metadpa_serve::engine::DEFAULT_ADAPT_CACHE_CAPACITY;
use metadpa_serve::http::{serve, ServerConfig};
use metadpa_serve::{load_artifact, router, router_with_feedback, save_artifact, Engine};

fn usage() -> ExitCode {
    eprintln!(
        "usage: metadpa-serve export --out PATH [--seed N] [--ranking exact|fused] [--train-trace-out PATH]\n\
         \x20      metadpa-serve run --artifact PATH [--addr HOST:PORT] [--workers N] [--trace-out PATH]\n\
         \x20          [--feedback-log PATH] [--feedback-threshold N] [--adapt-cache-capacity N]\n\
         \x20      metadpa-serve smoke --artifact PATH [--trace-out PATH]"
    );
    ExitCode::from(2)
}

/// Returns the value following `--flag`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn cmd_export(args: &[String]) -> ExitCode {
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("export: --out PATH is required");
        return ExitCode::from(2);
    };
    let seed: u64 = match flag_value(args, "--seed").as_deref().map(str::parse) {
        None => 7,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("export: --seed must be an integer");
            return ExitCode::from(2);
        }
    };
    let ranking = match flag_value(args, "--ranking").as_deref() {
        None | Some("exact") => Ranking::Exact,
        Some("fused") => Ranking::Fused,
        Some(other) => {
            eprintln!("export: --ranking must be exact or fused, got {other:?}");
            return ExitCode::from(2);
        }
    };
    eprintln!("fitting the fast MetaDPA pipeline on tiny_world(seed={seed})...");
    let world = generate_world(&tiny_world(seed));
    let splitter = Splitter::new(&world.target, SplitConfig::default());
    let warm = splitter.scenario(ScenarioKind::Warm);
    let mut model = MetaDpa::new(MetaDpaConfig::fast());
    model.fit(&world, &warm);
    let mut artifact = model.export_artifact(&world);
    // Training always runs with the exact kernels; the flag only picks
    // the kernels the loaded artifact will rank with.
    artifact.meta.ranking = ranking;
    eprintln!(
        "exporting {} ({} tensors, {} users, {} items, rev {}, data {}, ranking {})",
        artifact.meta.model_name,
        artifact.params.len() + 2,
        artifact.user_content.rows(),
        artifact.item_content.rows(),
        artifact.meta.git_rev,
        artifact.meta.data_fingerprint,
        artifact.meta.ranking.as_str(),
    );
    match save_artifact(&out, &artifact) {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("export failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_engine(artifact_path: &str, adapt_capacity: usize) -> Result<Arc<Engine>, String> {
    let artifact = load_artifact(artifact_path).map_err(|e| e.to_string())?;
    let rec = artifact.into_recommender().map_err(|e| e.to_string())?;
    Ok(Arc::new(Engine::with_adapt_capacity(rec, adapt_capacity)))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(path) = flag_value(args, "--artifact") else {
        eprintln!("run: --artifact PATH is required");
        return ExitCode::from(2);
    };
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8787".to_string());
    let workers: usize = match flag_value(args, "--workers").as_deref().map(str::parse) {
        None => 4,
        Some(Ok(w)) => w,
        Some(Err(_)) => {
            eprintln!("run: --workers must be an integer");
            return ExitCode::from(2);
        }
    };
    let threshold: usize = match flag_value(args, "--feedback-threshold").as_deref().map(str::parse)
    {
        None => metadpa_feedback::DEFAULT_THRESHOLD,
        Some(Ok(t)) => t,
        Some(Err(_)) => {
            eprintln!("run: --feedback-threshold must be an integer");
            return ExitCode::from(2);
        }
    };
    let capacity: usize =
        match flag_value(args, "--adapt-cache-capacity").as_deref().map(str::parse) {
            None => DEFAULT_ADAPT_CACHE_CAPACITY,
            Some(Ok(c)) => c,
            Some(Err(_)) => {
                eprintln!("run: --adapt-cache-capacity must be an integer");
                return ExitCode::from(2);
            }
        };
    let engine = match build_engine(&path, capacity) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta = engine.meta().clone();
    // Feedback wiring: the HTTP route appends to the log; the background
    // adapter tails the same file and graduates users through the engine.
    let feedback = match flag_value(args, "--feedback-log") {
        None => None,
        Some(fb_path) => {
            match FeedbackLog::create(
                &fb_path,
                &meta.run_id,
                RotatingFileRecorder::DEFAULT_MAX_BYTES,
            ) {
                Ok(log) => Some((Arc::new(log), fb_path)),
                Err(e) => {
                    eprintln!("run: --feedback-log {fb_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let _adapter = feedback.as_ref().map(|(log, fb_path)| {
        let cfg = AdapterConfig {
            graduation: GraduationConfig::with_threshold(threshold),
            ..AdapterConfig::default()
        };
        eprintln!("feedback log at {fb_path} (graduation threshold {threshold})");
        FeedbackAdapter::spawn(log.path(), cfg, Arc::clone(&engine) as _)
    });
    let server = match serve(
        ServerConfig { addr, workers, ..ServerConfig::default() },
        router_with_feedback(Arc::clone(&engine), feedback.map(|(log, _)| log)),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("run: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving {} (rev {}) on http://{} with {workers} workers",
        meta.model_name,
        meta.git_rev,
        server.addr()
    );
    // Serve until killed: park this thread forever.
    loop {
        std::thread::park();
    }
}

/// One loopback HTTP request; returns (status, body).
fn loopback(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return (0, String::new()),
    };
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if s.write_all(raw.as_bytes()).is_err() {
        return (0, String::new());
    }
    let mut out = String::new();
    if s.read_to_string(&mut out).is_err() {
        return (0, String::new());
    }
    let status = out.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn expect(cond: bool, what: &str, detail: &str) -> Result<(), String> {
    if cond {
        eprintln!("  ok: {what}");
        Ok(())
    } else {
        Err(format!("{what}: {detail}"))
    }
}

fn run_smoke(engine: Arc<Engine>) -> Result<(), String> {
    let content_dim = engine.content_dim();
    let ranking = format!("\"ranking\":\"{}\"", engine.meta().ranking.as_str());
    let server =
        serve(ServerConfig { workers: 2, ..ServerConfig::default() }, router(Arc::clone(&engine)))
            .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    eprintln!("smoke server on http://{addr}");

    let result = (|| {
        let (status, body) = loopback(addr, "GET", "/health", "");
        expect(status == 200, "GET /health is 200", &body)?;
        expect(body.contains("\"status\":\"ok\""), "/health body is well-formed", &body)?;
        expect(body.contains(&ranking), "/health reports the artifact's ranking", &body)?;

        let (status, body) = loopback(addr, "POST", "/v1/recommend", r#"{"user_id":0,"k":5}"#);
        expect(status == 200, "warm /v1/recommend is 200", &body)?;
        expect(
            body.contains("\"items\":[") && body.contains("\"source\":\"warm\""),
            "warm body has items and source",
            &body,
        )?;

        let (status, body) =
            loopback(addr, "POST", "/v1/adapt", r#"{"user_id":0,"support":[[0,1.0],[1,0.0]]}"#);
        expect(status == 200, "POST /v1/adapt is 200", &body)?;
        let (status, body) = loopback(addr, "POST", "/v1/recommend", r#"{"user_id":0,"k":5}"#);
        expect(
            status == 200 && body.contains("\"source\":\"adapted-cache\""),
            "adapted user serves from the cache",
            &body,
        )?;

        let cold = format!(r#"{{"content":[{}],"k":5}}"#, vec!["0.1"; content_dim].join(","));
        let (status, body) = loopback(addr, "POST", "/v1/recommend", &cold);
        expect(
            status == 200 && body.contains("\"source\":\"cold\""),
            "cold /v1/recommend is 200",
            &body,
        )?;

        let (status, body) = loopback(addr, "POST", "/v1/recommend", r#"{"user_id":999999}"#);
        expect(status == 422, "out-of-range user id is 422", &body)?;
        expect(body.contains("out of range"), "422 body explains the problem", &body)?;

        let (status, body) = loopback(addr, "GET", "/metrics", "");
        expect(status == 200, "GET /metrics is 200", &body)?;
        expect(body.contains("serve_requests"), "metrics include serve counters", &body)?;
        Ok(())
    })();
    server.shutdown();
    eprintln!("smoke server shut down cleanly");
    result
}

fn cmd_smoke(args: &[String]) -> ExitCode {
    let Some(path) = flag_value(args, "--artifact") else {
        eprintln!("smoke: --artifact PATH is required");
        return ExitCode::from(2);
    };
    let engine = match build_engine(&path, DEFAULT_ADAPT_CACHE_CAPACITY) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_smoke(engine) {
        Ok(()) => {
            eprintln!("smoke: all checks passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace-out` traces the serve path; `--train-trace-out` traces the
    // training run behind `export`. Both install the same rotated JSONL
    // recorder — the flags are separate so scripts can name the two streams
    // without ambiguity, and so `export` never silently inherits a serve
    // trace destination.
    let trace_path = flag_value(&args, "--trace-out").or_else(|| {
        flag_value(&args, "--train-trace-out").inspect(|_| {
            eprintln!("tracing training run (train_epoch records, anomaly sentinels, run ledger)");
        })
    });
    match trace_path {
        Some(path) => {
            match RotatingFileRecorder::create(&path, RotatingFileRecorder::DEFAULT_MAX_BYTES) {
                Ok(rec) => {
                    eprintln!("tracing to {path} (size-rotated, keeps 2 generations)");
                    metadpa_obs::enable(Arc::new(rec));
                }
                Err(e) => {
                    eprintln!("--trace-out {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // Metrics (counters, latency histograms) only record while obs is
        // enabled; the null recorder keeps the event stream free.
        None => metadpa_obs::enable(Arc::new(NullRecorder)),
    }
    let code = match args.first().map(String::as_str) {
        Some("export") => cmd_export(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        _ => usage(),
    };
    // In trace mode, close the stream with a metrics snapshot so offline
    // consumers see windowed p99s and drift gauges without scraping.
    // (`run` never gets here — it serves until killed; the lenient stream
    // reader tolerates the truncated tail that leaves behind.)
    metadpa_obs::emit_metrics_snapshot();
    metadpa_obs::flush();
    code
}
