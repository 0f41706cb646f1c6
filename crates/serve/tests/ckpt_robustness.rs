//! Robustness of the `metadpa-ckpt` loader: every way a file can be
//! damaged must surface as a typed [`CkptError`] naming the file and a
//! byte offset — never a panic, never a silent success.

use metadpa_core::artifact::{artifact_from_learner, Artifact};
use metadpa_core::augmentation::DiversityReport;
use metadpa_core::{MamlConfig, MetaLearner, PreferenceConfig};
use metadpa_serve::ckpt::{self, CkptErrorKind};
use metadpa_serve::{load_artifact, save_artifact};
use metadpa_tensor::SeededRng;

fn tiny_artifact(seed: u64) -> Artifact {
    let pref = PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] };
    let maml = MamlConfig { finetune_steps: 2, ..MamlConfig::default() };
    let mut rng = SeededRng::new(seed);
    let mut learner = MetaLearner::new(pref, maml, &mut rng);
    let user_content = rng.uniform_matrix(4, 6, -1.0, 1.0);
    let item_content = rng.uniform_matrix(9, 6, -1.0, 1.0);
    artifact_from_learner(
        &mut learner,
        "robustness",
        "rev".into(),
        "fp".into(),
        DiversityReport::default(),
        user_content,
        item_content,
        String::new(),
    )
}

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("metadpa_ckpt_{tag}_{}.ckpt", std::process::id()))
        .to_string_lossy()
        .to_string()
}

#[test]
fn save_load_save_is_byte_identical() {
    let artifact = tiny_artifact(1);
    let first = temp_path("first");
    let second = temp_path("second");
    save_artifact(&first, &artifact).expect("first save");
    let reloaded = load_artifact(&first).expect("load");
    save_artifact(&second, &reloaded).expect("second save");
    let a = std::fs::read(&first).expect("read first");
    let b = std::fs::read(&second).expect("read second");
    assert_eq!(a, b, "save -> load -> save must be byte-identical");
    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&second);
}

#[test]
fn every_truncation_fails_typed_and_never_panics() {
    let artifact = tiny_artifact(2);
    let bytes = ckpt::encode(&metadpa_serve::artifact_io::to_checkpoint(&artifact));
    // Every strict prefix must fail cleanly. Step through the small file
    // densely near the front (where the structure lives) and coarsely in
    // the payload.
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(97));
    for cut in cuts {
        let err = ckpt::decode("trunc", &bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes must not decode"));
        assert!(
            matches!(
                err.kind,
                CkptErrorKind::Truncated | CkptErrorKind::Corrupt | CkptErrorKind::Malformed
            ),
            "cut {cut}: unexpected kind {:?}",
            err.kind
        );
        assert_eq!(err.path, "trunc", "errors must name the file");
        assert!(err.offset <= cut as u64, "offset {} past the cut {cut}", err.offset);
    }
}

#[test]
fn every_single_byte_flip_is_caught() {
    let artifact = tiny_artifact(3);
    let bytes = ckpt::encode(&metadpa_serve::artifact_io::to_checkpoint(&artifact));
    // Flip one bit in every byte position (coarser in the big payload).
    let mut positions: Vec<usize> = (0..128.min(bytes.len())).collect();
    positions.extend((128..bytes.len()).step_by(211));
    for pos in positions {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x01;
        match ckpt::decode("flip", &mutated) {
            // A flipped payload bit that still decodes structurally must
            // die on the CRC; flips in length fields may die structurally
            // first. Either way: typed, with the file name attached.
            Err(err) => assert_eq!(err.path, "flip", "byte {pos}"),
            Ok(_) => panic!("flipping byte {pos} went undetected"),
        }
    }
}

#[test]
fn wrong_magic_and_future_version_name_the_offset() {
    let artifact = tiny_artifact(4);
    let bytes = ckpt::encode(&metadpa_serve::artifact_io::to_checkpoint(&artifact));

    let mut not_ours = bytes.clone();
    not_ours[..8].copy_from_slice(b"PNGJPEG!");
    let err = ckpt::decode("magic", &not_ours).unwrap_err();
    assert_eq!(err.kind, CkptErrorKind::BadMagic);
    assert_eq!(err.offset, 0);
    assert!(err.to_string().contains("not a metadpa checkpoint"), "{err}");

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&42u32.to_le_bytes());
    let err = ckpt::decode("future", &future).unwrap_err();
    assert_eq!(err.kind, CkptErrorKind::UnsupportedVersion);
    assert_eq!(err.offset, 8);
    assert!(err.to_string().contains("version 42"), "{err}");
}

#[test]
fn io_errors_and_garbage_files_are_typed() {
    let err = load_artifact("/nonexistent/dir/nope.ckpt").unwrap_err();
    assert_eq!(err.kind, CkptErrorKind::Io);

    let path = temp_path("garbage");
    std::fs::write(&path, b"this is not a checkpoint at all").expect("write garbage");
    let err = load_artifact(&path).unwrap_err();
    assert_eq!(err.kind, CkptErrorKind::BadMagic);
    assert!(err.to_string().contains(&path), "error must name the file: {err}");
    let _ = std::fs::remove_file(&path);

    let empty = temp_path("empty");
    std::fs::write(&empty, b"").expect("write empty");
    let err = load_artifact(&empty).unwrap_err();
    assert_eq!(err.kind, CkptErrorKind::Truncated);
    let _ = std::fs::remove_file(&empty);
}

#[test]
fn damaged_artifacts_never_reach_the_recommender() {
    // The full path a server takes at startup: load + into_recommender.
    // Remove the item-content tensor by rewriting the checkpoint.
    let artifact = tiny_artifact(5);
    let mut ckpt = metadpa_serve::artifact_io::to_checkpoint(&artifact);
    ckpt.tensors.retain(|(n, _)| n != "content.item");
    let path = temp_path("no_items");
    ckpt::save(&path, &ckpt).expect("save");
    let err = load_artifact(&path).unwrap_err();
    assert_eq!(err.kind, CkptErrorKind::Malformed);
    assert!(err.to_string().contains("content.item"), "{err}");
    let _ = std::fs::remove_file(&path);
}
