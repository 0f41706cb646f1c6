//! Version-1 checkpoints keep loading after the move to the f32-only
//! version-2 container.
//!
//! `fixtures/v1_f64.ckpt` and `fixtures/v1_f32.ckpt` were written by the
//! last version-1 writer from one artifact (preference config
//! `{content_dim: 6, embed_dim: 5, hidden: [8, 4]}`, `MetaLearner::new` at
//! seed 19, 4 users and 9 items of uniform content from the same RNG,
//! `finetune_steps: 2`): once by a default export (f64-LE payload) and
//! once as `export --precision f32` wrote it (f32-LE payload, metadata
//! marked `"tensor_encoding":"f32"`, fused ranking). The top-5 lists below
//! were recorded from those files by the same build, score bits included.

use metadpa_core::artifact::{Artifact, Ranking};
use metadpa_serve::ckpt;
use metadpa_serve::{load_artifact, save_artifact};

const F64_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_f64.ckpt");
const F32_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_f32.ckpt");

/// The cold request's content vector, as f32 bits.
const COLD: [u32; 6] = [0x3f0b51b6, 0x3db96290, 0x3f1a2d28, 0xbf78fd0e, 0xbdab3280, 0x3f0f6f22];

/// Top-5 `(item, score bits)` per warm user 0..4, then for [`COLD`].
const TOP5: [[(usize, u32); 5]; 5] = [
    [(5, 0x3f1c9dc9), (0, 0x3eecf86e), (6, 0x3ee1a924), (7, 0x3ecbe969), (2, 0x3eb6c096)],
    [(5, 0x3f2a0dea), (6, 0x3f158ac8), (0, 0x3f0fbfc6), (7, 0x3ed4a6e9), (4, 0x3eb1a651)],
    [(5, 0x3f18d48a), (6, 0x3f11624c), (0, 0x3efc4551), (7, 0x3ecc3e1d), (8, 0x3eac0ed6)],
    [(1, 0x3e84422c), (2, 0x3dd0bdf7), (7, 0x3dae921c), (3, 0x3d38e770), (8, 0x3d19bc7e)],
    [(5, 0x3efbd50e), (0, 0x3ed1d64c), (6, 0x3ec81bbf), (7, 0x3e8671bb), (4, 0x3e3bd33b)],
];

fn tensors(artifact: &Artifact) -> Vec<(String, Vec<u32>)> {
    let mut all = artifact.params.clone();
    all.push(("content.user".into(), artifact.user_content.clone()));
    all.push(("content.item".into(), artifact.item_content.clone()));
    all.into_iter()
        .map(|(name, m)| (name, m.as_slice().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn top5_lists(artifact: Artifact) -> Vec<Vec<(usize, u32)>> {
    let mut rec = artifact.into_recommender().expect("recommender");
    let cold: Vec<f32> = COLD.iter().map(|&b| f32::from_bits(b)).collect();
    let mut lists: Vec<_> = (0..4).map(|u| rec.recommend(u, 5, None).expect("warm")).collect();
    lists.push(rec.recommend_content(&cold, 5, None).expect("cold"));
    lists.into_iter().map(|l| l.into_iter().map(|(i, s)| (i, s.to_bits())).collect()).collect()
}

#[test]
fn both_version_1_encodings_decode_to_the_same_tensors() {
    for path in [F64_FIXTURE, F32_FIXTURE] {
        let bytes = std::fs::read(path).expect("fixture");
        assert_eq!(bytes[8..12], 1u32.to_le_bytes(), "{path} is a version-1 file");
    }
    let f64_artifact = load_artifact(F64_FIXTURE).expect("v1 f64 loads");
    let f32_artifact = load_artifact(F32_FIXTURE).expect("v1 f32 loads");
    assert_eq!(tensors(&f64_artifact), tensors(&f32_artifact));
}

#[test]
fn version_1_files_keep_their_ranking_and_their_lists() {
    let expected: Vec<Vec<(usize, u32)>> = TOP5.iter().map(|l| l.to_vec()).collect();
    for (path, ranking) in [(F64_FIXTURE, Ranking::Exact), (F32_FIXTURE, Ranking::Fused)] {
        let artifact = load_artifact(path).expect("load");
        assert_eq!(artifact.meta.ranking, ranking, "{path}");
        assert_eq!(top5_lists(artifact), expected, "{path}");
    }
}

#[test]
fn a_resave_writes_version_2_and_reloads_to_the_same_tensors() {
    for (tag, path) in [("f64", F64_FIXTURE), ("f32", F32_FIXTURE)] {
        let old = load_artifact(path).expect("load");
        let new_path = std::env::temp_dir()
            .join(format!("metadpa_legacy_{tag}_{}.ckpt", std::process::id()))
            .to_string_lossy()
            .to_string();
        save_artifact(&new_path, &old).expect("re-save");
        let bytes = std::fs::read(&new_path).expect("read back");
        let new = load_artifact(&new_path).expect("reload");
        let _ = std::fs::remove_file(&new_path);
        assert_eq!(bytes[8..12], ckpt::VERSION.to_le_bytes(), "{tag}: written as the new version");
        assert_eq!(tensors(&new), tensors(&old), "{tag}");
        assert_eq!(new.meta.ranking, old.meta.ranking, "{tag}");
    }
}
