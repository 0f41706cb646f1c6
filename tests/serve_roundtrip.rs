//! End-to-end serving round trip: fit the pipeline, export an artifact,
//! write it to disk in `metadpa-ckpt/v2`, reload it, and verify the
//! reloaded recommender reproduces the live model's top-K lists exactly —
//! for warm users straight from θ AND for a cold-start user after
//! serve-time MAML adaptation on their support set.

use metadpa_core::eval::{recommend_top_k, Recommender};
use metadpa_core::{MetaDpa, MetaDpaConfig, ARTIFACT_SCHEMA};
use metadpa_data::generator::generate_world;
use metadpa_data::presets::tiny_world;
use metadpa_data::splits::{ScenarioKind, SplitConfig, Splitter};
use metadpa_serve::{load_artifact, save_artifact, Engine};

const K: usize = 10;

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("metadpa_roundtrip_{tag}_{}.ckpt", std::process::id()))
        .to_string_lossy()
        .to_string()
}

#[test]
fn fit_export_reload_reproduces_warm_and_cold_top_k() {
    let world = generate_world(&tiny_world(11));
    let splitter = Splitter::new(&world.target, SplitConfig::default());
    let warm = splitter.scenario(ScenarioKind::Warm);
    let mut model = MetaDpa::new(MetaDpaConfig::fast());
    model.fit(&world, &warm);

    // Export -> save -> load: the disk format must hand back the exact
    // artifact, metadata included.
    let artifact = model.export_artifact(&world);
    assert_eq!(artifact.meta.schema, ARTIFACT_SCHEMA);
    assert_eq!(artifact.meta.data_fingerprint, world.fingerprint_hex());
    assert!(!artifact.meta.git_rev.is_empty(), "artifact must carry a git rev");
    let path = temp_path("e2e");
    save_artifact(&path, &artifact).expect("save artifact");
    let reloaded = load_artifact(&path).expect("load artifact");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reloaded.meta.data_fingerprint, artifact.meta.data_fingerprint);
    let mut rec = reloaded.into_recommender().expect("reloaded artifact is valid");

    // Warm users: the reloaded recommender must reproduce the live
    // model's full-catalogue top-K (no rated-item exclusion — the
    // artifact deliberately carries no interaction lists).
    for user in [0, 1, world.target.n_users() / 2, world.target.n_users() - 1] {
        let live = recommend_top_k(&mut model, &world.target, user, K, false);
        let served = rec.recommend(user, K, None).expect("warm recommend");
        assert_eq!(served, live, "warm top-{K} diverged for user {user}");
    }

    // Cold-start user: serve-time adaptation on the scenario's support
    // set must land on the same adapted top-K as the offline
    // fine-tune -> score -> restore path.
    let cold = splitter.scenario(ScenarioKind::ColdUser);
    let task = cold.finetune_tasks.first().expect("cold scenario has support tasks").clone();
    assert!(!task.support.is_empty());

    let theta = model.snapshot_state();
    model.fine_tune(std::slice::from_ref(&task), &world.target);
    let live_adapted = recommend_top_k(&mut model, &world.target, task.user, K, false);
    model.restore_state(&theta);
    let live_rewound = recommend_top_k(&mut model, &world.target, task.user, K, false);

    let adapted = rec.adapt_user(task.user, &task.support).expect("serve-time adaptation");
    let served_adapted = rec.recommend(task.user, K, Some(&adapted)).expect("adapted recommend");
    assert_eq!(
        served_adapted, live_adapted,
        "adapted top-{K} diverged for cold user {}",
        task.user
    );

    // Adaptation must not leak into either side's base parameters.
    let served_rewound = rec.recommend(task.user, K, None).expect("post-adapt recommend");
    assert_eq!(served_rewound, live_rewound, "adaptation leaked into θ");
}

#[test]
fn engine_serves_the_same_lists_as_the_raw_recommender() {
    let world = generate_world(&tiny_world(12));
    let splitter = Splitter::new(&world.target, SplitConfig::default());
    let warm = splitter.scenario(ScenarioKind::Warm);
    let mut model = MetaDpa::new(MetaDpaConfig::fast());
    model.fit(&world, &warm);
    let artifact = model.export_artifact(&world);

    let mut rec = artifact.clone().into_recommender().expect("recommender");
    let engine = Engine::new(artifact.into_recommender().expect("engine recommender"));

    let user = 3;
    let direct = rec.recommend(user, K, None).expect("direct");
    let (via_engine, _) = engine.recommend_user(user, K).expect("engine");
    assert_eq!(via_engine, direct);

    // Adapt through the engine cache; the next lookup must serve the
    // exact list the raw recommender computes with the same support.
    let support = vec![(0, 1.0_f32), (1, 0.0), (2, 1.0)];
    engine.adapt_user(user, &support).expect("engine adapt");
    let adapted = rec.adapt_user(user, &support).expect("direct adapt");
    let direct_adapted = rec.recommend(user, K, Some(&adapted)).expect("direct adapted");
    let (cached, _) = engine.recommend_user(user, K).expect("cached");
    assert_eq!(cached, direct_adapted);
}
