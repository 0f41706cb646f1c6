//! End-to-end forced-fallback parity: train → export → serve must produce
//! identical bytes and identical scores whether the exact SIMD kernels or
//! the scalar kernels run underneath.
//!
//! `METADPA_SIMD=off` resolves every matmul to the scalar kernel family. The default dispatch resolves to the
//! exact-parity SIMD kernels on AVX2 hosts. The contract is that the two
//! are indistinguishable from outside: the same training run yields the
//! same θ, the same exported artifact bytes, and the same served scores.
//!
//! In-process the suite models the env switch with the thread-local
//! [`Policy::ForcedScalar`] override (the env var is read once per
//! process, so it cannot be toggled here). `scripts/ci.sh` then runs this
//! whole test binary a second time with `METADPA_SIMD=off` actually set,
//! which drives the same assertions through the real env path — on that
//! pass both sides resolve to scalar and the test pins that the scalar
//! route is self-consistent.

use metadpa_core::artifact::{artifact_from_learner, Artifact, Ranking};
use metadpa_core::augmentation::DiversityReport;
use metadpa_core::{MamlConfig, MetaLearner, PreferenceConfig};
use metadpa_data::task::Task;
use metadpa_serve::{load_artifact, save_artifact};
use metadpa_tensor::simd::{self, Policy};
use metadpa_tensor::{Matrix, SeededRng};

const N_USERS: usize = 10;
const N_ITEMS: usize = 24;
const CONTENT_DIM: usize = 6;

/// A small but non-trivial task universe: enough items and epochs that
/// the training matmuls cross the blocking thresholds and the dispatch
/// choice actually matters.
fn toy_world(rng: &mut SeededRng) -> (Vec<Task>, Matrix, Matrix) {
    let user_content = Matrix::from_fn(N_USERS, CONTENT_DIM, |u, c| {
        let sign = if u % 2 == 0 { 1.0 } else { -1.0 };
        sign * (0.3 + 0.1 * c as f32) + 0.01 * rng.normal()
    });
    let item_content = Matrix::from_fn(N_ITEMS, CONTENT_DIM, |i, c| {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        sign * (0.3 + 0.05 * c as f32) + 0.01 * rng.normal()
    });
    let mut tasks = Vec::new();
    for u in 0..N_USERS {
        let mut pairs: Vec<(usize, f32)> =
            (0..N_ITEMS).map(|i| (i, if (u % 2) == (i % 2) { 1.0 } else { 0.0 })).collect();
        rng.shuffle(&mut pairs);
        let (s, q) = pairs.split_at(N_ITEMS / 2);
        tasks.push(Task { user: u, support: s.to_vec(), query: q.to_vec() });
    }
    (tasks, user_content, item_content)
}

/// Train a learner and export an artifact, entirely under `policy`.
fn train_and_export(policy: Policy, ranking: Ranking) -> Artifact {
    simd::with_policy(policy, || {
        let mut rng = SeededRng::new(4242);
        let (tasks, user_content, item_content) = toy_world(&mut rng);
        let pref = PreferenceConfig { content_dim: CONTENT_DIM, embed_dim: 5, hidden: [8, 4] };
        let maml = MamlConfig { finetune_steps: 2, ..MamlConfig::default() };
        let mut learner = MetaLearner::new(pref, maml, &mut rng);
        learner.meta_train(&tasks, &user_content, &item_content);
        let mut artifact = artifact_from_learner(
            &mut learner,
            "forced-fallback",
            "rev".into(),
            "fp".into(),
            DiversityReport::default(),
            user_content,
            item_content,
            String::new(),
        );
        artifact.meta.ranking = ranking;
        artifact
    })
}

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("metadpa_fallback_{tag}_{}.ckpt", std::process::id()))
        .to_string_lossy()
        .to_string()
}

fn export_bytes(tag: &str, artifact: &Artifact) -> Vec<u8> {
    let path = temp_path(tag);
    save_artifact(&path, artifact).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn training_and_export_bytes_are_identical_with_simd_on_and_off() {
    let auto = train_and_export(Policy::Auto, Ranking::Exact);
    let scalar = train_and_export(Policy::ForcedScalar, Ranking::Exact);
    let auto_bytes = export_bytes("auto", &auto);
    let scalar_bytes = export_bytes("scalar", &scalar);
    assert_eq!(
        auto_bytes, scalar_bytes,
        "the default dispatch must reproduce the scalar training run byte for byte"
    );
}

#[test]
fn served_scores_are_identical_with_simd_on_and_off() {
    // One artifact (default ranking), scored under both dispatch
    // resolutions: warm users and a cold content vector must come out
    // bit-identical, ranks and scores both.
    let path = temp_path("serve");
    save_artifact(&path, &train_and_export(Policy::Auto, Ranking::Exact)).expect("save");
    let cold: Vec<f32> = (0..CONTENT_DIM).map(|c| 0.1 * c as f32 - 0.25).collect();

    let run = |policy: Policy| {
        simd::with_policy(policy, || {
            let mut rec =
                load_artifact(&path).expect("load").into_recommender().expect("recommender");
            let mut out = Vec::new();
            for user in 0..N_USERS {
                out.push(rec.recommend(user, 5, None).expect("warm"));
            }
            out.push(rec.recommend_content(&cold, 5, None).expect("cold"));
            out
        })
    };
    let auto = run(Policy::Auto);
    let scalar = run(Policy::ForcedScalar);
    let _ = std::fs::remove_file(&path);

    for (req, (a, s)) in auto.iter().zip(&scalar).enumerate() {
        assert_eq!(a.len(), s.len(), "request {req}: list length");
        for ((ai, av), (si, sv)) in a.iter().zip(s) {
            assert_eq!(ai, si, "request {req}: item rank drift");
            assert_eq!(av.to_bits(), sv.to_bits(), "request {req}: score drift: {av} vs {sv}");
        }
    }
}

#[test]
fn fused_ranking_serves_close_to_exact_ranking() {
    // The fused artifact runs the fused kernels; it trades bit-parity for
    // throughput, so the contract is closeness, not identity: same
    // universe, scores within the documented epsilon (DESIGN.md §14).
    let exact_path = temp_path("exact");
    let fused_path = temp_path("fused");
    save_artifact(&exact_path, &train_and_export(Policy::Auto, Ranking::Exact))
        .expect("save exact");
    save_artifact(&fused_path, &train_and_export(Policy::Auto, Ranking::Fused))
        .expect("save fused");

    let mut exact =
        load_artifact(&exact_path).expect("load").into_recommender().expect("recommender");
    let mut fused =
        load_artifact(&fused_path).expect("load").into_recommender().expect("recommender");
    assert_eq!(exact.meta().ranking, Ranking::Exact);
    assert_eq!(fused.meta().ranking, Ranking::Fused);

    for user in 0..N_USERS {
        exact.recommend(user, N_ITEMS, None).expect("warm exact");
        let a: Vec<f32> = exact.last_scores().to_vec();
        fused.recommend(user, N_ITEMS, None).expect("warm fused");
        let b: Vec<f32> = fused.last_scores().to_vec();
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
            assert!(
                (x - y).abs() <= tol,
                "user {user} item {i}: fused score {y} vs exact {x} (tol {tol})"
            );
        }
    }
    let _ = std::fs::remove_file(&exact_path);
    let _ = std::fs::remove_file(&fused_path);
}
