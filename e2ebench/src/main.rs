//! `e2ebench` — the end-to-end benchmark of the MetaDPA system.
//!
//! ```text
//! e2ebench --workload <fit-books|serve-read|serve-adapt-mix> --seed N --seconds N --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! e2ebench/Cargo.toml -- ...`). Every workload runs the system's whole
//! path — generate and split the Books world, fit MetaDPA, evaluate the
//! four scenarios, export, save and load the checkpoint, then serve it over
//! loopback HTTP with its feedback loop — and differs in which part it
//! weights and in the traffic it sends; `METRICS.md` explains each
//! workload and metric. The Books world, its split and the model's
//! initialisation are fixed; `--seed` drives all traffic, and request counts
//! scale with `--seconds`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! holds the run's detail: fingerprint, per-phase counts, generator
//! lateness, tail latencies with sample counts and, for traced runs, the
//! tracing overhead. Traced runs first run the same workload and seed
//! untraced in a child process; the overhead is the difference. All files
//! go to `.e2ebench/` under the working directory.

mod client;
mod model;
mod serve;
mod session;
mod stats;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, OnceLock};

use metadpa_obs::json::{self, escape, number, ObjectWriter};
use metadpa_obs::recorder::{Recorder, RotatingFileRecorder};

use client::Mode;
use model::{Evals, ModelPlan};
use serve::{PhasePlan, ServePlan};
use session::{Session, EVAL_REQUEST};
use traffic::Mix;

#[global_allocator]
static GLOBAL: metadpa_obs::alloc::CountingAlloc = metadpa_obs::alloc::CountingAlloc::new();

const USAGE: &str = "usage: e2ebench --workload <fit-books|serve-read|serve-adapt-mix> \
                     --seed N --seconds N --trace <0|1>";

/// Pool threads of the serving process (the fit runs at
/// [`model::MODEL_THREADS`] through a scoped override).
const SERVE_THREADS: &str = "1";

/// Where every file the benchmark writes goes.
const OUT_DIR: &str = ".e2ebench";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    FitBooks,
    ServeRead,
    ServeAdaptMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fit-books" => Some(Workload::FitBooks),
            "serve-read" => Some(Workload::ServeRead),
            "serve-adapt-mix" => Some(Workload::ServeAdaptMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FitBooks => "fit-books",
            Workload::ServeRead => "serve-read",
            Workload::ServeAdaptMix => "serve-adapt-mix",
        }
    }

    /// One fit's model path. fit-books fits 5 times, the serving workloads
    /// 3 times; each fit repeats the sub-second steps.
    fn model_plan(self) -> ModelPlan {
        match self {
            Workload::FitBooks => ModelPlan { gens: 2, ckpt_reps: 1 },
            _ => ModelPlan { gens: 1, ckpt_reps: 3 },
        }
    }

    /// Whether the model path runs again after serving round `round`.
    /// fit-books fits before serving and after every round but the last;
    /// the serving workloads fit before serving, halfway through the rounds
    /// and after them. Either way the fits' samples and the serving rounds
    /// both spread over the whole run.
    fn refits_after(self, round: usize) -> bool {
        match self {
            Workload::FitBooks => round + 1 < serve::ROUNDS,
            _ => round + 1 == serve::ROUNDS / 2,
        }
    }

    /// Evaluation passes after every serving slice, beside the one after
    /// every fit: about 20 passes a run, spread over the whole run.
    fn eval_passes_per_slice(self) -> usize {
        match self {
            Workload::ServeAdaptMix => 2,
            _ => 1,
        }
    }

    /// Fixed-count phases sized from `seconds`.
    fn serve_plan(self, seconds: u64) -> ServePlan {
        let s = seconds as usize;
        let phase = |name, mix, count, mode| PhasePlan { name, mix, count, mode };
        // After the read phase, a light adapt-mix probe gives every workload
        // its adapt latency and feedback loop without adding writes to the
        // phase the read latencies come from.
        let probe = phase("phase.write_probe", Mix::AdaptMix, 150 * s, Mode::Open { rate: 600.0 });
        let default_capacity = metadpa_serve::engine::DEFAULT_ADAPT_CACHE_CAPACITY;
        match self {
            Workload::FitBooks => ServePlan {
                phases: vec![
                    phase("phase.open", Mix::Read, 450 * s, Mode::Open { rate: 1000.0 }),
                    probe,
                    phase("phase.closed", Mix::Read, 450 * s, Mode::Closed),
                ],
                adapt_capacity: default_capacity,
                setup_reps: 1,
            },
            Workload::ServeRead => ServePlan {
                phases: vec![
                    phase("phase.open", Mix::Read, 600 * s, Mode::Open { rate: 1000.0 }),
                    probe,
                    phase("phase.closed", Mix::Read, 600 * s, Mode::Closed),
                ],
                adapt_capacity: default_capacity,
                setup_reps: 2,
            },
            Workload::ServeAdaptMix => ServePlan {
                phases: vec![
                    phase("phase.open", Mix::AdaptMix, 360 * s, Mode::Open { rate: 600.0 }),
                    phase("phase.closed", Mix::AdaptMix, 750 * s, Mode::Closed),
                ],
                // Below the distinct users the mix adapts, so the LRU both
                // hits and evicts.
                adapt_capacity: 48,
                setup_reps: 2,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as a model child (see [`session`]) that saves the
    /// checkpoint here.
    prepare: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?.parse().map_err(|_| format!("{flag} is not a number"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let prepare = get("--prepare").map(PathBuf::from);
    Ok(Args { workload, seed, seconds, trace, prepare })
}

/// Operations attempted and failed, with the reasons for failures.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    pub fn note(&mut self, why: String) {
        eprintln!("e2ebench: {why}");
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

static RECORDER: OnceLock<Arc<dyn Recorder>> = OnceLock::new();

/// Turns the program's obs recorder off while the benchmark times engine
/// calls in process, and back on when dropped.
pub struct ObsPause(bool);

impl ObsPause {
    pub fn begin() -> Self {
        let was = metadpa_obs::enabled();
        metadpa_obs::disable();
        ObsPause(was)
    }
}

impl Drop for ObsPause {
    fn drop(&mut self) {
        if let (true, Some(rec)) = (self.0, RECORDER.get()) {
            metadpa_obs::enable(Arc::clone(rec));
        }
    }
}

/// Turns on the program's own observability (counters, spans, request
/// events) with a size-bounded JSONL sink, and the benchmark's spans.
fn enable_tracing(out: &Path, tag: &str) -> Result<(), String> {
    let path = out.join(format!("obs-{tag}.jsonl"));
    let rec = RotatingFileRecorder::create(&path, 16 << 20)
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    let rec: Arc<dyn Recorder> = Arc::new(rec);
    let _ = RECORDER.set(Arc::clone(&rec));
    metadpa_obs::enable(rec);
    trace::enable();
    Ok(())
}

fn main() -> ExitCode {
    // Fix the pool size before anything reads it: the server's workers run
    // with this; the fit overrides it for its own thread.
    std::env::set_var("METADPA_THREADS", SERVE_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("e2ebench: creating {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let result = match &args.prepare {
        Some(ckpt) => prepare(&args, ckpt, &out),
        None => run(&args, &out),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn tag(args: &Args) -> String {
    format!("{}-{}-t{}", args.workload.name(), args.seed, u8::from(args.trace))
}

/// Model-child mode: fits, prints its values as one JSON line, then
/// answers every evaluation request on standard input with one pass line
/// until the input closes.
fn prepare(args: &Args, ckpt: &Path, out: &Path) -> Result<(), String> {
    let stem = ckpt.file_stem().map_or("ckpt".into(), |s| s.to_string_lossy().into_owned());
    let tag = format!("{stem}-prepare");
    if args.trace {
        enable_tracing(out, &tag)?;
    }
    let mut ledger = Ledger::default();
    let (mut fitted, values) = model::fit(&args.workload.model_plan(), ckpt, &mut ledger)?;
    let mut w = ObjectWriter::new();
    w.raw_field("values", &values_json(&values))
        .u64_field("attempted", ledger.attempted)
        .u64_field("failed", ledger.failed)
        .raw_field("notes", &strings_json(&ledger.notes));
    println!("{}", w.finish());
    for line in std::io::stdin().lines() {
        let line = line.map_err(|e| format!("reading a request: {e}"))?;
        if line.trim() != EVAL_REQUEST {
            return Err(format!("unknown request {line:?}"));
        }
        println!("{}", fitted.evaluate().to_json());
    }
    if args.trace {
        metadpa_obs::flush();
        trace::write(&out.join(format!("trace-{tag}.jsonl"))).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn values_json(values: &BTreeMap<String, f64>) -> String {
    let mut w = ObjectWriter::new();
    for (k, v) in values {
        w.f64_field(k, *v);
    }
    w.finish()
}

fn strings_json(items: &[String]) -> String {
    let q: Vec<String> = items.iter().map(|s| escape(s)).collect();
    format!("[{}]", q.join(","))
}

/// Runs this executable again with `args` and returns the parsed last
/// line of its standard output.
fn run_child(args: &[String]) -> Result<json::JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run {args:?} failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().ok_or("child run printed nothing")?;
    json::parse(last).map_err(|e| format!("child run output: {e}"))
}

/// Arguments that rerun this workload and seed, traced or not, optionally
/// as the model child that saves its checkpoint to `prepare`.
fn child_args(args: &Args, trace: bool, prepare: Option<&Path>) -> Vec<String> {
    let mut out: Vec<String> = prepare
        .map(|p| vec!["--prepare".into(), p.to_string_lossy().into_owned()])
        .unwrap_or_default();
    out.extend([
        "--workload".into(),
        args.workload.name().into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        if trace { "1" } else { "0" }.into(),
    ]);
    out
}

/// The end-to-end metrics and their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("eval_users_per_s", "1/s"),
    ("hr10", "frac"),
    ("ndcg10", "frac"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("adapt_p50_us", "us"),
];

/// The per-layer metrics of a traced run, with units.
const PER_LAYER: [(&str, &str); 50] = [
    ("data.generate_s", "s"),
    ("data.split_s", "s"),
    ("core.adaptation_s", "s"),
    ("core.augmentation_s", "s"),
    ("core.maml_s", "s"),
    ("core.eval_s.warm", "s"),
    ("core.eval_s.cold_user", "s"),
    ("core.eval_s.cold_item", "s"),
    ("core.eval_s.cold_user_item", "s"),
    ("core.eval.hr10.warm", "frac"),
    ("core.eval.hr10.cold_user", "frac"),
    ("core.eval.hr10.cold_item", "frac"),
    ("core.eval.hr10.cold_user_item", "frac"),
    ("core.eval.ndcg10.warm", "frac"),
    ("core.eval.ndcg10.cold_user", "frac"),
    ("core.eval.ndcg10.cold_item", "frac"),
    ("core.eval.ndcg10.cold_user_item", "frac"),
    ("core.artifact.into_recommender_ms", "ms"),
    ("tensor.matmul.calls_per_fit", "count"),
    ("tensor.matmul.flops_per_fit", "flop"),
    ("tensor.matmul.flops_skipped_share.fit", "frac"),
    ("tensor.matmul.simd_share.fit", "frac"),
    ("pool.tasks_per_fit", "count"),
    ("tensor.matmul.calls_per_request", "count"),
    ("tensor.matmul.flops_per_request", "flop"),
    ("tensor.matmul.flops_skipped_share.request", "frac"),
    ("tensor.matmul.simd_share.request", "frac"),
    ("metrics.top_k_us", "us"),
    ("serve.ckpt.bytes", "B"),
    ("serve.ckpt.encode_ms", "ms"),
    ("serve.ckpt.decode_ms", "ms"),
    ("serve.engine.recommend_warm_us", "us"),
    ("serve.engine.recommend_cold_us", "us"),
    ("serve.engine.recommend_adapted_us", "us"),
    ("serve.engine.adapt_us", "us"),
    ("serve.engine.contention_us", "us"),
    ("serve.adapt_cache.hit_ratio", "frac"),
    ("serve.adapt_cache.evictions", "count"),
    ("serve.allocs_per_request", "count"),
    ("serve.http.overhead_us", "us"),
    ("serve.http.connections", "count"),
    ("feedback.append_us", "us"),
    ("feedback.drain_ms", "ms"),
    ("feedback.graduations", "count"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.fit_s", "s"),
    ("trace.overhead.throughput_rps", "1/s"),
    ("trace.overhead.latency_p50_us", "us"),
    ("trace.overhead.adapt_p50_us", "us"),
    ("trace.overhead.peak_rss_mb", "MB"),
];

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn fingerprint(args: &Args, conns: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = ObjectWriter::new();
    w.u64_field("nproc", nproc as u64)
        .str_field("simd", metadpa_tensor::simd::feature_string())
        .u64_field("pool_threads_serve", metadpa_tensor::pool::current_threads() as u64)
        .u64_field("pool_threads_model", model::MODEL_THREADS as u64)
        .u64_field("server_workers", serve::SERVER_WORKERS as u64)
        .u64_field("client_connections", conns as u64)
        .u64_field("seed", args.seed)
        .u64_field("seconds", args.seconds)
        .str_field("git_rev", &metadpa_obs::report::git_rev());
    w.finish()
}

/// Whether the checkpoints at `a` and `b` hold the same weights.
fn same_weights(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        metadpa_serve::load_artifact(&p.to_string_lossy())
            .map_err(|e| format!("loading {}: {e}", p.display()))
    };
    Ok(load(a)?.params == load(b)?.params)
}

/// Runs the workload (and, when traced, its untraced twin first) and
/// prints the detail and result lines.
fn run(args: &Args, out: &Path) -> Result<(), String> {
    let tag = tag(args);
    // A traced run first runs its untraced twin: the difference between
    // the two is the tracing overhead.
    let untraced = if args.trace { Some(run_child(&child_args(args, false, None))?) } else { None };
    if args.trace {
        enable_tracing(out, &tag)?;
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = 2.min(nproc);
    let mut ledger = Ledger::default();
    let ckpt = out.join(format!("{tag}.ckpt"));
    let plan = args.workload.serve_plan(args.seconds);
    // fit-books fits in process; the serving workloads fit in model
    // children, so the fit stays out of their memory peak.
    let in_process = args.workload == Workload::FitBooks;
    let model_plan = args.workload.model_plan();
    let fit = |path: &Path, ledger: &mut Ledger| {
        if in_process {
            Session::local(&model_plan, path, ledger)
        } else {
            Session::child(&child_args(args, args.trace, Some(path)), ledger)
        }
    };
    let refit = out.join(format!("{tag}-refit.ckpt"));
    // The fit is seeded, so every refit must export the same weights; each
    // fit is evaluated once right away.
    let mut evals = Evals::default();
    let refit_checked = |ledger: &mut Ledger, evals: &mut Evals| {
        let (mut session, values) = fit(&refit, ledger)?;
        let same = same_weights(&ckpt, &refit)?;
        ledger.check(same, || "a refit exported different weights".into());
        evals.add(session.evaluate()?, ledger);
        Ok::<_, String>((session, values))
    };
    let (mut first, values) = fit(&ckpt, &mut ledger)?;
    evals.add(first.evaluate()?, &mut ledger);
    let mut session = Some(first);
    let mut fits = vec![values];
    let last_phase = plan.phases.len() - 1;
    let mut between = |round: usize, phase: usize, ledger: &mut Ledger| {
        let live = session.as_mut().expect("a fitted model between slices");
        for _ in 0..args.workload.eval_passes_per_slice() {
            evals.add(live.evaluate()?, ledger);
        }
        if phase == last_phase && args.workload.refits_after(round) {
            // The old model ends first, so fit-books's memory peak holds
            // one fitted model, as a researcher's process would.
            session.take().expect("a fitted model between slices").finish()?;
            let (next, values) = refit_checked(ledger, &mut evals)?;
            session = Some(next);
            fits.push(values);
        }
        Ok(())
    };
    let served = serve::run(&ckpt, &plan, args.seed, conns, out, &tag, &mut ledger, &mut between)?;
    session.take().expect("a fitted model after serving").finish()?;
    if !in_process {
        let (last, values) = refit_checked(&mut ledger, &mut evals)?;
        last.finish()?;
        fits.push(values);
    }
    let _ = std::fs::remove_file(&refit);
    let _ = std::fs::remove_file(model::cold_users_path(&refit));
    let first = &fits[0];
    let mut model_values: BTreeMap<String, f64> = first
        .keys()
        .map(|k| {
            let v: Vec<f64> = fits.iter().filter_map(|f| f.get(k).copied()).collect();
            (k.clone(), stats::median(&v))
        })
        .collect();
    evals.values(&mut model_values, &mut ledger);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(model::cold_users_path(&ckpt));
    let _ = std::fs::remove_file(out.join(format!("feedback-{tag}.jsonl")));

    let mut values = model_values;
    let setup = if args.workload == Workload::FitBooks {
        values["setup_s"]
    } else {
        served.values["setup_s"]
    };
    values.extend(served.values);
    values.insert("setup_s".into(), setup);
    values.insert("peak_rss_mb".into(), peak_rss_mb()?);

    let mut overhead = BTreeMap::new();
    if let Some(twin) = &untraced {
        if twin.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            ledger.fail("the untraced twin run was not correct".into());
        }
        for (name, _) in END_TO_END {
            let base = twin
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or(format!("the untraced twin run lacks {name}"))?;
            overhead.insert(name.to_string(), values[name] - base);
            values.insert(format!("trace.overhead.{name}"), values[name] - base);
        }
        let spans =
            trace::write(&out.join(format!("trace-{tag}.jsonl"))).map_err(|e| e.to_string())?;
        metadpa_obs::flush();
        eprintln!("e2ebench: {spans} spans; self time by span name:");
        for (name, count, total, own) in trace::self_times() {
            eprintln!(
                "  {name:<40} n={count:<7} total={:>10.3}ms self={:>10.3}ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let v = *values.get(*name).ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            ledger.fail(format!("metric {name} is {v}"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, number(v)));
    }

    let mut detail = ObjectWriter::new();
    detail
        .str_field("workload", args.workload.name())
        .bool_field("traced", args.trace)
        .raw_field("fingerprint", &fingerprint(args, conns))
        .raw_field("phases", &served.phases_json);
    for key in [
        "latency_p90_us",
        "latency_p99_us",
        "latency_samples",
        "adapt_p90_us",
        "adapt_p99_us",
        "adapt_samples",
        "checks.served_lists",
        "checks.skipped_adapted_in_flight",
        "serve.adapt_cache.size_at_end",
        "feedback.invalidations",
    ] {
        detail.f64_field(key, values[key]);
    }
    if args.trace {
        detail.raw_field("tracing_overhead", &values_json(&overhead));
    }
    detail.raw_field("notes", &strings_json(&ledger.notes));
    println!("{{\"e2ebench\":{}}}", detail.finish());
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
        fields.join(",")
    );
    Ok(())
}
