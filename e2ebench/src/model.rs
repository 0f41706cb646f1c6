//! The researcher's path: generate and split the Books world, fit MetaDPA's
//! three blocks, export, save and reload the serving checkpoint, and
//! evaluate the four scenarios. Beside the checkpoint it writes the content
//! of the world's held-out cold users, which the serving traffic sends as
//! its cold requests.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use metadpa_core::{evaluate_scenario, MetaDpa, MetaDpaConfig, Recommender};
use metadpa_data::domain::World;
use metadpa_data::generator::generate_world;
use metadpa_data::presets::books_world;
use metadpa_data::splits::{Scenario, ScenarioKind, SplitConfig, Splitter};
use metadpa_obs::json::{number, JsonValue, ObjectWriter};
use metadpa_serve::{artifact_io, ckpt};
use metadpa_tensor::{pool, Matrix};

use crate::stats::{median, ms};
use crate::{trace, Ledger};

/// Generator seed of the Books world. The world, its split and the model's
/// initialisation are fixed, as the paper's dataset is: the model path does
/// identical work on every run, and HR/NDCG are exact, so any change in
/// them is a change in the numerics. `--seed` drives the traffic.
const BOOKS_WORLD_SEED: u64 = 2022;

/// Pool threads the fit and the evaluation run with.
pub const MODEL_THREADS: usize = 2;

/// How often the sub-second steps of one fit's model path run; the
/// reported value is their median.
pub struct ModelPlan {
    pub gens: usize,
    pub ckpt_reps: usize,
}

/// Scenario labels used in metric names, in `ScenarioKind::ALL` order.
pub const SCENARIOS: [&str; 4] = ["warm", "cold_user", "cold_item", "cold_user_item"];

/// Counters the tensor layer keeps in the obs registry (traced runs only).
const COUNTERS: [&str; 5] = [
    "tensor.matmul.calls",
    "tensor.matmul.flops",
    "tensor.matmul.flops_skipped",
    "tensor.matmul.dispatch.simd",
    "pool.tasks",
];

/// Current values of [`COUNTERS`].
pub fn counters() -> [u64; 5] {
    COUNTERS.map(|c| metadpa_obs::metrics::counter(c).get())
}

/// Adds the tensor-layer counts per operation (`per_<suffix>`) and their
/// shares to `out`.
pub fn counter_values(out: &mut BTreeMap<String, f64>, suffix: &str, d: [u64; 5], ops: f64) {
    let [calls, flops, skipped, simd, tasks] = d.map(|v| v as f64);
    out.insert(format!("tensor.matmul.calls_per_{suffix}"), calls / ops);
    out.insert(format!("tensor.matmul.flops_per_{suffix}"), flops / ops);
    out.insert(format!("tensor.matmul.flops_skipped_share.{suffix}"), skipped / flops.max(1.0));
    out.insert(format!("tensor.matmul.simd_share.{suffix}"), simd / calls.max(1.0));
    out.insert(format!("pool.tasks_per_{suffix}"), tasks / ops);
}

/// A fitted model path: the world, its scenarios and the fitted MetaDPA,
/// kept so that evaluation passes can run later in the run.
pub struct Fitted {
    world: World,
    scenarios: Vec<Scenario>,
    model: MetaDpa,
}

/// Runs the model path up to the saved checkpoint at [`MODEL_THREADS`]
/// pool threads: generate and split the world, fit, export, encode and
/// decode, save and reload. Returns the fitted model and the measured
/// values by name; evaluation runs separately, through [`Fitted::evaluate`].
pub fn fit(
    plan: &ModelPlan,
    ckpt_path: &Path,
    ledger: &mut Ledger,
) -> Result<(Fitted, BTreeMap<String, f64>), String> {
    pool::with_threads(MODEL_THREADS, || {
        trace::span("model", 0, 0, |root| fit_inner(plan, ckpt_path, ledger, root))
    })
}

fn fit_inner(
    plan: &ModelPlan,
    ckpt_path: &Path,
    ledger: &mut Ledger,
    root: u64,
) -> Result<(Fitted, BTreeMap<String, f64>), String> {
    let mut out = BTreeMap::new();

    // ---- data: world generation + split ----
    let (mut gen_s, mut split_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..plan.gens.max(1) {
        let t0 = Instant::now();
        let world = trace::span("data.generate_world", root, 0, |_| {
            generate_world(&books_world(BOOKS_WORLD_SEED))
        });
        let t1 = Instant::now();
        let (scenarios, new_users) = trace::span("data.split", root, 0, |_| {
            let splitter = Splitter::new(&world.target, SplitConfig::default());
            let scenarios: Vec<_> =
                ScenarioKind::ALL.iter().map(|&k| splitter.scenario(k)).collect();
            (scenarios, splitter.new_users().to_vec())
        });
        let t2 = Instant::now();
        gen_s.push((t1 - t0).as_secs_f64());
        split_s.push((t2 - t1).as_secs_f64());
        setup_s.push((t2 - t0).as_secs_f64());
        built = Some((world, scenarios, new_users));
    }
    let (world, scenarios, new_users) = built.expect("at least one generation");
    out.insert("data.generate_s".into(), median(&gen_s));
    out.insert("data.split_s".into(), median(&split_s));
    out.insert("setup_s".into(), median(&setup_s));

    // ---- core: the three blocks, fitted from scratch ----
    let mut model = MetaDpa::new(MetaDpaConfig::fast());
    let before = counters();
    let t = Instant::now();
    trace::span("core.fit", root, 0, |_| model.fit(&world, &scenarios[0]));
    out.insert("fit_s".into(), t.elapsed().as_secs_f64());
    if metadpa_obs::enabled() {
        let after = counters();
        counter_values(&mut out, "fit", std::array::from_fn(|i| after[i] - before[i]), 1.0);
    }
    let tm = model.timings();
    for (name, d) in ["core.adaptation_s", "core.augmentation_s", "core.maml_s"].iter().zip([
        tm.adaptation,
        tm.augmentation,
        tm.meta_learning,
    ]) {
        out.insert((*name).into(), d.as_secs_f64());
    }

    // ---- artifact + checkpoint: export, encode/decode, save, load ----
    let artifact = trace::span("core.export_artifact", root, 0, |_| model.export_artifact(&world));
    let checkpoint = artifact_io::to_checkpoint(&artifact);
    let (mut enc, mut dec, mut into) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..plan.ckpt_reps.max(1) {
        let t = Instant::now();
        bytes = trace::span("serve.ckpt.encode", root, 0, |_| ckpt::encode(&checkpoint));
        enc.push(ms(t.elapsed()));
        let t = Instant::now();
        let decoded = trace::span("serve.ckpt.decode", root, 0, |_| ckpt::decode("memory", &bytes));
        dec.push(ms(t.elapsed()));
        let decoded = decoded.map_err(|e| format!("decoding the encoded checkpoint: {e}"))?;
        ledger.check(decoded == checkpoint, || "checkpoint decode(encode(x)) != x".into());
        let a = artifact.clone();
        let t = Instant::now();
        let rec = trace::span("core.artifact.into_recommender", root, 0, |_| a.into_recommender());
        into.push(ms(t.elapsed()));
        rec.map_err(|e| format!("artifact does not restore: {e}"))?;
    }
    out.insert("serve.ckpt.bytes".into(), bytes.len() as f64);
    out.insert("serve.ckpt.encode_ms".into(), median(&enc));
    out.insert("serve.ckpt.decode_ms".into(), median(&dec));
    out.insert("core.artifact.into_recommender_ms".into(), median(&into));
    let path = ckpt_path.to_str().ok_or("checkpoint path is not UTF-8")?;
    trace::span("serve.save_artifact", root, 0, |_| artifact_io::save_artifact(path, &artifact))
        .map_err(|e| format!("saving the checkpoint: {e}"))?;
    let loaded = trace::span("serve.load_artifact", root, 0, |_| artifact_io::load_artifact(path))
        .map_err(|e| format!("loading the checkpoint: {e}"))?;
    let again = ckpt::encode(&artifact_io::to_checkpoint(&loaded));
    ledger.check(again == bytes, || "the loaded checkpoint re-encodes differently".into());
    write_cold_users(&cold_users_path(ckpt_path), &world.target.user_content, &new_users)?;
    Ok((Fitted { world, scenarios, model }, out))
}

impl Fitted {
    /// One evaluation pass: all four scenarios, k = 10, 99 sampled
    /// negatives, at [`MODEL_THREADS`] pool threads.
    pub fn evaluate(&mut self) -> Pass {
        pool::with_threads(MODEL_THREADS, || {
            trace::span("model.eval_pass", 0, 0, |id| {
                let mut pass = Pass::default();
                for (i, sc) in self.scenarios.iter().enumerate() {
                    let t = Instant::now();
                    let s = trace::span("core.evaluate_scenario", id, 0, |_| {
                        evaluate_scenario(&mut self.model, &self.world, sc, 10)
                    });
                    pass.seconds[i] = t.elapsed().as_secs_f64();
                    pass.users += s.count;
                    pass.quality[i] = (s.hr, s.ndcg);
                }
                pass
            })
        })
    }
}

/// One evaluation pass over the four scenarios.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    pub users: usize,
    /// Wall time per scenario.
    pub seconds: [f64; 4],
    /// `(HR@10, NDCG@10)` per scenario.
    pub quality: [(f32, f32); 4],
}

impl Pass {
    /// One JSON line; every f32 survives the f64 round trip exactly.
    pub fn to_json(&self) -> String {
        let list = |v: [f64; 4]| format!("[{}]", v.map(number).join(","));
        let mut w = ObjectWriter::new();
        w.u64_field("users", self.users as u64)
            .raw_field("seconds", &list(self.seconds))
            .raw_field("hr", &list(self.quality.map(|q| q.0 as f64)))
            .raw_field("ndcg", &list(self.quality.map(|q| q.1 as f64)));
        w.finish()
    }

    pub fn from_json(v: &JsonValue) -> Result<Pass, String> {
        let list = |key: &str| -> Result<[f64; 4], String> {
            let arr = v.get(key).and_then(|a| a.as_arr()).ok_or(format!("no {key} in the pass"))?;
            let nums: Vec<f64> = arr.iter().filter_map(|x| x.as_f64()).collect();
            nums.try_into().map_err(|_| format!("{key} is not four numbers"))
        };
        let (hr, ndcg) = (list("hr")?, list("ndcg")?);
        Ok(Pass {
            users: v.get("users").and_then(|u| u.as_u64()).ok_or("no users in the pass")? as usize,
            seconds: list("seconds")?,
            quality: std::array::from_fn(|i| (hr[i] as f32, ndcg[i] as f32)),
        })
    }
}

/// Every evaluation pass of a run, from every fit.
#[derive(Default)]
pub struct Evals {
    passes: Vec<Pass>,
}

impl Evals {
    /// Records a pass. The world, split and initialisation are fixed, so
    /// every pass of every fit must give the first pass's HR/NDCG.
    pub fn add(&mut self, pass: Pass, ledger: &mut Ledger) {
        if let Some(first) = self.passes.first() {
            ledger.check(pass.quality == first.quality, || {
                "an evaluation pass gave different HR/NDCG".into()
            });
        }
        self.passes.push(pass);
    }

    /// `eval_users_per_s` (users over wall time, pooled over all passes),
    /// `hr10`/`ndcg10` (scenario means) and the per-scenario values.
    pub fn values(&self, out: &mut BTreeMap<String, f64>, ledger: &mut Ledger) {
        let users: usize = self.passes.iter().map(|p| p.users).sum();
        let seconds: f64 = self.passes.iter().flat_map(|p| p.seconds).sum();
        out.insert("eval_users_per_s".into(), users as f64 / seconds);
        let quality = self.passes.first().map_or([(f32::NAN, f32::NAN); 4], |p| p.quality);
        for (i, name) in SCENARIOS.iter().enumerate() {
            let times: Vec<f64> = self.passes.iter().map(|p| p.seconds[i]).collect();
            out.insert(format!("core.eval_s.{name}"), median(&times));
            out.insert(format!("core.eval.hr10.{name}"), quality[i].0 as f64);
            out.insert(format!("core.eval.ndcg10.{name}"), quality[i].1 as f64);
        }
        let hr = quality.iter().map(|q| q.0 as f64).sum::<f64>() / 4.0;
        let ndcg = quality.iter().map(|q| q.1 as f64).sum::<f64>() / 4.0;
        ledger.check(hr.is_finite() && hr > 0.0, || format!("hr10 is {hr}"));
        ledger.check(ndcg.is_finite() && ndcg > 0.0, || format!("ndcg10 is {ndcg}"));
        out.insert("hr10".into(), hr);
        out.insert("ndcg10".into(), ndcg);
    }
}

/// Where the content rows of the held-out cold users go, beside the
/// checkpoint at `ckpt_path`.
pub fn cold_users_path(ckpt_path: &Path) -> PathBuf {
    ckpt_path.with_extension("cold")
}

/// Writes the content rows of `users` one per line, comma-separated. Each
/// f32 is written as its exact f64 value, so parsing a value as f64 and
/// narrowing it to f32, as the server does, gives back the same f32.
fn write_cold_users(path: &Path, content: &Matrix, users: &[usize]) -> Result<(), String> {
    let text: String = users
        .iter()
        .map(|&u| {
            let row: Vec<String> = content.row(u).iter().map(|&v| (v as f64).to_string()).collect();
            row.join(",") + "\n"
        })
        .collect();
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}
