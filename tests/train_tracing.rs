//! Training-run telemetry contracts, end to end: (1) switching
//! observability on must never change a single trained parameter bit —
//! telemetry rides alongside the optimiser, it is not allowed to perturb
//! it; (2) with a file recorder attached, every epoch of every phase
//! appears in the trace exactly once, stamped with the pipeline's
//! run-ledger ID; (3) the anomaly sentinels fail fast on a poisoned θ
//! with a typed error and leave the parameters untouched; (4) the
//! train → export → serve chain joins on one run ID across the trace,
//! the checkpoint metadata, and the `/health` document.

use std::collections::BTreeMap;
use std::sync::Arc;

use metadpa_core::artifact::Artifact;
use metadpa_core::eval::Recommender;
use metadpa_core::{
    MamlConfig, MetaDpa, MetaDpaConfig, MetaLearner, PreferenceConfig, SentinelConfig,
};
use metadpa_data::generator::generate_world;
use metadpa_data::presets::tiny_world;
use metadpa_data::splits::{ScenarioKind, SplitConfig, Splitter};
use metadpa_data::task::Task;
use metadpa_nn::module::{snapshot, Params};
use metadpa_obs::lineage::{run_id_from_health_json, Lineage};
use metadpa_obs::recorder::FileRecorder;
use metadpa_obs::stream::{read_file_lenient, JsonValue, StreamEvent};
use metadpa_serve::http::Request;
use metadpa_serve::{load_artifact, router, save_artifact, Engine};
use metadpa_tensor::{Matrix, SeededRng};

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("metadpa_train_trace_{tag}_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// Fits the fast pipeline on the tiny world and returns (model, artifact).
fn fit_and_export(seed: u64) -> (MetaDpa, Artifact) {
    let world = generate_world(&tiny_world(seed));
    let splitter = Splitter::new(&world.target, SplitConfig::default());
    let warm = splitter.scenario(ScenarioKind::Warm);
    let mut model = MetaDpa::new(MetaDpaConfig::fast());
    model.fit(&world, &warm);
    let artifact = model.export_artifact(&world);
    (model, artifact)
}

/// Bit-exact parameter comparison (NaN-safe, unlike `==` on floats).
fn assert_params_identical(a: &Artifact, b: &Artifact) {
    assert_eq!(a.params.len(), b.params.len(), "parameter count differs");
    for ((name_a, mat_a), (name_b, mat_b)) in a.params.iter().zip(&b.params) {
        assert_eq!(name_a, name_b, "parameter order differs");
        let bits_a: Vec<u32> = mat_a.as_slice().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = mat_b.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "parameter {name_a} differs bit-for-bit");
    }
}

#[test]
fn training_is_bit_identical_with_observability_on_and_off() {
    let _guard = metadpa_obs::test_lock();
    metadpa_obs::disable();

    let (_, dark) = fit_and_export(33);

    let trace = temp_path("inert");
    metadpa_obs::enable(Arc::new(FileRecorder::create(&trace).expect("trace file")));
    let (_, lit) = fit_and_export(33);
    metadpa_obs::flush();
    metadpa_obs::disable();

    let traced = read_file_lenient(&trace).expect("trace readable");
    let _ = std::fs::remove_file(&trace);

    assert_params_identical(&dark, &lit);
    // And the traced run really was traced — this is not a vacuous pass.
    let n_epochs = traced.events.iter().filter(|e| e.kind == "train_epoch").count();
    assert!(n_epochs > 0, "traced training must log train_epoch records");
    // The run IDs differ only in ledger sequence, never in config hash:
    // same seed + same config → same fingerprint halves.
    let key = |a: &Artifact| {
        let id = a.meta.run_id.clone();
        id.rsplit_once('-').map(|(head, _seq)| head.to_string()).expect("run id shape")
    };
    assert_eq!(key(&dark), key(&lit), "same config must hash to the same run prefix");
}

#[test]
fn every_epoch_is_traced_exactly_once_with_the_run_id() {
    let _guard = metadpa_obs::test_lock();
    metadpa_obs::disable();

    let trace = temp_path("epochs");
    metadpa_obs::enable(Arc::new(FileRecorder::create(&trace).expect("trace file")));
    let (model, artifact) = fit_and_export(34);
    metadpa_obs::flush();
    metadpa_obs::disable();

    let traced = read_file_lenient(&trace).expect("trace readable");
    let _ = std::fs::remove_file(&trace);
    assert!(traced.errors.is_empty(), "trace has parse errors: {:?}", traced.errors);

    let run_id = model.run_id();
    assert!(!run_id.is_empty(), "fit must mint a run ID");
    assert_eq!(artifact.meta.run_id, run_id, "export must stamp the training run ID");

    // Group per (phase, source): the CVAE phase restarts its epoch count
    // for every source pair, the MAML phase runs once.
    let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for ev in traced.events.iter().filter(|e| e.kind == "train_epoch") {
        assert_eq!(
            ev.field("run").and_then(JsonValue::as_str),
            Some(run_id.as_str()),
            "every train_epoch record carries the run ID"
        );
        for key in ["loss", "grad_norm", "wall_ms", "eta_ms", "epochs"] {
            assert!(ev.field(key).is_some(), "train_epoch record missing {key}");
        }
        let group = group_key(ev);
        groups.entry(group).or_default().push(ev.field_u64("epoch").expect("epoch field"));
    }
    assert!(
        groups.keys().any(|k| k.starts_with("maml")),
        "no MAML epoch records in {:?}",
        groups.keys().collect::<Vec<_>>()
    );
    assert!(
        groups.keys().any(|k| k.starts_with("cvae")),
        "no CVAE epoch records in {:?}",
        groups.keys().collect::<Vec<_>>()
    );
    for (group, epochs) in &groups {
        let expect: Vec<u64> = (0..epochs.len() as u64).collect();
        assert_eq!(epochs, &expect, "{group}: epochs must count 0,1,2,… exactly once each");
    }
    // The sentinels stayed quiet on a healthy run.
    assert_eq!(
        traced.events.iter().filter(|e| e.kind == "train_anomaly").count(),
        0,
        "healthy training must not emit anomalies"
    );
}

fn group_key(ev: &StreamEvent) -> String {
    let phase = ev.field("phase").and_then(JsonValue::as_str).unwrap_or("?").to_string();
    match ev.field("source").and_then(JsonValue::as_str) {
        Some(src) if !src.is_empty() => format!("{phase}/{src}"),
        _ => phase,
    }
}

#[test]
fn nan_loss_trips_the_sentinel_and_fail_fast_leaves_theta_intact() {
    let _guard = metadpa_obs::test_lock();
    metadpa_obs::disable();

    let pref = PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] };
    let maml = MamlConfig { epochs: 6, meta_batch: 4, ..MamlConfig::default() };
    let mut rng = SeededRng::new(35);
    let mut learner = MetaLearner::new(pref, maml, &mut rng);

    let user_content = rng.uniform_matrix(8, 6, -1.0, 1.0);
    let item_content = rng.uniform_matrix(8, 6, -1.0, 1.0);
    let tasks: Vec<Task> = (0..8)
        .map(|u| Task {
            user: u,
            support: (0..4).map(|i| (i, if (u + i) % 2 == 0 { 1.0 } else { 0.0 })).collect(),
            query: (4..8).map(|i| (i, if (u + i) % 2 == 0 { 1.0 } else { 0.0 })).collect(),
        })
        .collect();

    // Poison θ: every forward pass now yields a NaN loss.
    learner.model_mut().visit_params(&mut |p| {
        p.value.as_mut_slice()[0] = f32::NAN;
    });
    let before = snapshot(learner.model_mut());

    let sentinels = SentinelConfig { fail_fast: true, ..SentinelConfig::default() };
    let err = learner
        .meta_train_checked(&tasks, &user_content, &item_content, &sentinels)
        .expect_err("a NaN loss must abort fail-fast training");
    assert_eq!(err.anomaly.kind(), "non_finite_loss");
    assert_eq!(err.anomaly.phase(), "maml");
    assert_eq!(err.anomaly.epoch(), 0);

    // The abort rewound θ to its state at epoch entry — here, the exact
    // pre-call parameters, NaN poison included.
    let after = snapshot(learner.model_mut());
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(b), bits(a), "abort must leave θ bit-identical");
    }
}

#[test]
fn lineage_joins_trace_checkpoint_and_health_on_one_run_id() {
    let _guard = metadpa_obs::test_lock();
    metadpa_obs::disable();

    let trace = temp_path("lineage");
    metadpa_obs::enable(Arc::new(FileRecorder::create(&trace).expect("trace file")));
    let (model, artifact) = fit_and_export(36);
    metadpa_obs::flush();
    metadpa_obs::disable();

    let run_id = model.run_id();
    let ckpt = temp_path("lineage_ckpt").replace(".jsonl", ".ckpt");
    save_artifact(&ckpt, &artifact).expect("save artifact");

    // Serve side: load the checkpoint back and ask /health who it is.
    let loaded = load_artifact(&ckpt).expect("load artifact");
    assert_eq!(loaded.meta.run_id, run_id, "checkpoint round-trips the run ID");
    let engine = Arc::new(Engine::new(loaded.into_recommender().expect("recommender")));
    let handler = router(Arc::clone(&engine));
    let resp = handler(&Request {
        method: "GET".to_string(),
        path: "/health".to_string(),
        body: Vec::new(),
    });
    assert_eq!(resp.status, 200);
    let health_run = run_id_from_health_json(&resp.body).expect("/health carries run_id");

    let traced = read_file_lenient(&trace).expect("trace readable");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);

    let lineage = Lineage::from_events(&traced.events)
        .with_ckpt(&artifact.meta.run_id)
        .with_health(&health_run);
    assert_eq!(lineage.join().as_deref(), Ok(run_id.as_str()), "{}", lineage.render());
    assert!(lineage.exported, "the trace records the export event");
    let report = lineage.render();
    assert!(report.contains("all sources join"), "{report}");
}
