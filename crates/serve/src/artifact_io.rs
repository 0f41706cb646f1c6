//! Persisting [`Artifact`] values in the `metadpa-ckpt/v2` container.
//!
//! The artifact's metadata becomes the checkpoint's JSON blob (schema
//! [`metadpa_core::artifact::ARTIFACT_SCHEMA`]); its tensors are the
//! preference-model parameter table (`preference.pNNN`, in visit order)
//! followed by the two content matrices (`content.user`, `content.item`).
//! The container stores every f32 as it is, so save → load →
//! [`Artifact::into_recommender`] scores bit-identically to the model that
//! was exported.

use metadpa_core::artifact::{
    Artifact, ArtifactMeta, Ranking, ScoreFingerprint, ARTIFACT_SCHEMA, PARAM_PREFIX,
};
use metadpa_core::augmentation::DiversityReport;
use metadpa_core::{MamlConfig, PreferenceConfig};
use metadpa_obs::json::{self, JsonValue, ObjectWriter};
use metadpa_tensor::Matrix;

use crate::ckpt::{self, Checkpoint, CkptError, CkptErrorKind};

/// Tensor name of the user-content matrix.
pub const USER_CONTENT_TENSOR: &str = "content.user";
/// Tensor name of the item-content matrix.
pub const ITEM_CONTENT_TENSOR: &str = "content.item";

/// Byte offset of the metadata blob inside a checkpoint (magic +
/// version + meta_len); metadata-level load errors point here.
const META_OFFSET: u64 = 20;

fn f32_array_json(vals: &[f32]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json::number(*v as f64));
    }
    s.push(']');
    s
}

fn meta_to_json(meta: &ArtifactMeta) -> String {
    let mut pref = ObjectWriter::new();
    pref.u64_field("content_dim", meta.preference.content_dim as u64)
        .u64_field("embed_dim", meta.preference.embed_dim as u64)
        .u64_field("hidden0", meta.preference.hidden[0] as u64)
        .u64_field("hidden1", meta.preference.hidden[1] as u64);
    let mut maml = ObjectWriter::new();
    maml.f64_field("inner_lr", meta.maml.inner_lr as f64)
        .f64_field("outer_lr", meta.maml.outer_lr as f64)
        .u64_field("inner_steps", meta.maml.inner_steps as u64)
        .u64_field("meta_batch", meta.maml.meta_batch as u64)
        .u64_field("epochs", meta.maml.epochs as u64)
        .u64_field("finetune_steps", meta.maml.finetune_steps as u64)
        .u64_field("seed", meta.maml.seed);
    let mut div = ObjectWriter::new();
    div.u64_field("k", meta.diversity.k as u64)
        .f64_field("mean_pairwise_distance", meta.diversity.mean_pairwise_distance as f64)
        .f64_field("mean_confidence", meta.diversity.mean_confidence as f64);
    let mut fp = ObjectWriter::new();
    fp.raw_field("probs", &f32_array_json(&meta.score_fingerprint.probs))
        .raw_field("quantiles", &f32_array_json(&meta.score_fingerprint.quantiles));
    let mut w = ObjectWriter::new();
    w.str_field("schema", &meta.schema)
        .str_field("model", &meta.model_name)
        .str_field("git_rev", &meta.git_rev)
        .str_field("data_fingerprint", &meta.data_fingerprint)
        .raw_field("preference", &pref.finish())
        .raw_field("maml", &maml.finish())
        .raw_field("diversity", &div.finish())
        .raw_field("score_fingerprint", &fp.finish())
        .str_field("run_id", &meta.run_id);
    // Emitted only for fused ranking, so exact artifacts carry the same
    // metadata as every writer before the field existed.
    if meta.ranking == Ranking::Fused {
        w.str_field("ranking", meta.ranking.as_str());
    }
    w.finish()
}

fn meta_err(path: &str, message: impl Into<String>) -> CkptError {
    CkptError {
        path: path.to_string(),
        offset: META_OFFSET,
        kind: CkptErrorKind::Malformed,
        message: message.into(),
    }
}

fn get<'a>(obj: &'a JsonValue, key: &str, path: &str) -> Result<&'a JsonValue, CkptError> {
    obj.get(key).ok_or_else(|| meta_err(path, format!("metadata is missing {key:?}")))
}

fn get_str(obj: &JsonValue, key: &str, path: &str) -> Result<String, CkptError> {
    get(obj, key, path)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| meta_err(path, format!("metadata field {key:?} must be a string")))
}

fn get_usize(obj: &JsonValue, key: &str, path: &str) -> Result<usize, CkptError> {
    get(obj, key, path)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| meta_err(path, format!("metadata field {key:?} must be an integer")))
}

fn get_f32(obj: &JsonValue, key: &str, path: &str) -> Result<f32, CkptError> {
    get(obj, key, path)?
        .as_f64()
        .map(|v| v as f32)
        .ok_or_else(|| meta_err(path, format!("metadata field {key:?} must be a number")))
}

fn meta_from_json(path: &str, meta_json: &str) -> Result<ArtifactMeta, CkptError> {
    let root = json::parse(meta_json)
        .map_err(|e| meta_err(path, format!("metadata does not parse as JSON: {e}")))?;
    let schema = get_str(&root, "schema", path)?;
    if schema != ARTIFACT_SCHEMA {
        return Err(meta_err(
            path,
            format!("artifact schema {schema:?} is not the supported {ARTIFACT_SCHEMA:?}"),
        ));
    }
    let pref = get(&root, "preference", path)?;
    let preference = PreferenceConfig {
        content_dim: get_usize(pref, "content_dim", path)?,
        embed_dim: get_usize(pref, "embed_dim", path)?,
        hidden: [get_usize(pref, "hidden0", path)?, get_usize(pref, "hidden1", path)?],
    };
    let m = get(&root, "maml", path)?;
    let maml = MamlConfig {
        inner_lr: get_f32(m, "inner_lr", path)?,
        outer_lr: get_f32(m, "outer_lr", path)?,
        inner_steps: get_usize(m, "inner_steps", path)?,
        meta_batch: get_usize(m, "meta_batch", path)?,
        epochs: get_usize(m, "epochs", path)?,
        finetune_steps: get_usize(m, "finetune_steps", path)?,
        seed: get(m, "seed", path)?
            .as_u64()
            .ok_or_else(|| meta_err(path, "metadata field \"seed\" must be an integer"))?,
    };
    let d = get(&root, "diversity", path)?;
    let diversity = DiversityReport {
        k: get_usize(d, "k", path)?,
        mean_pairwise_distance: get_f32(d, "mean_pairwise_distance", path)?,
        mean_confidence: get_f32(d, "mean_confidence", path)?,
    };
    // Optional: checkpoints written before drift fingerprints existed have
    // no "score_fingerprint" blob and load with an empty sketch.
    let score_fingerprint = match root.get("score_fingerprint") {
        Some(fp) => {
            let arr = |key: &str| -> Result<Vec<f32>, CkptError> {
                get(fp, key, path)?
                    .as_arr()
                    .ok_or_else(|| {
                        meta_err(path, format!("score_fingerprint field {key:?} must be an array"))
                    })?
                    .iter()
                    .map(|v| {
                        v.as_f64().map(|x| x as f32).ok_or_else(|| {
                            meta_err(
                                path,
                                format!("score_fingerprint {key:?} entries must be numbers"),
                            )
                        })
                    })
                    .collect()
            };
            let probs = arr("probs")?;
            let quantiles = arr("quantiles")?;
            if probs.len() != quantiles.len() {
                return Err(meta_err(path, "score_fingerprint probs/quantiles lengths differ"));
            }
            ScoreFingerprint { probs, quantiles }
        }
        None => ScoreFingerprint::default(),
    };
    // Optional: checkpoints written before the run ledger existed carry
    // no "run_id" and load unstamped.
    let run_id =
        root.get("run_id").and_then(JsonValue::as_str).map(str::to_string).unwrap_or_default();
    // Optional: written only for fused ranking. Version-1 checkpoints
    // said so with `"tensor_encoding":"f32"` instead, which also ranked
    // fused.
    let field = |key| root.get(key).map(|v| v.as_str().unwrap_or("?"));
    let ranking = match (field("ranking"), field("tensor_encoding")) {
        (None | Some("exact"), None) => Ranking::Exact,
        (Some("fused"), None) | (None, Some("f32")) => Ranking::Fused,
        (Some(other), _) => return Err(meta_err(path, format!("unknown ranking {other:?}"))),
        (None, Some(other)) => {
            return Err(meta_err(path, format!("unknown tensor_encoding {other:?}")));
        }
    };
    Ok(ArtifactMeta {
        schema,
        model_name: get_str(&root, "model", path)?,
        git_rev: get_str(&root, "git_rev", path)?,
        data_fingerprint: get_str(&root, "data_fingerprint", path)?,
        preference,
        maml,
        diversity,
        score_fingerprint,
        run_id,
        ranking,
    })
}

/// Converts an artifact to its checkpoint representation.
pub fn to_checkpoint(artifact: &Artifact) -> Checkpoint {
    let mut tensors = artifact.params.clone();
    tensors.push((USER_CONTENT_TENSOR.to_string(), artifact.user_content.clone()));
    tensors.push((ITEM_CONTENT_TENSOR.to_string(), artifact.item_content.clone()));
    Checkpoint { meta_json: meta_to_json(&artifact.meta), tensors }
}

/// Rebuilds an artifact from a loaded checkpoint; `path` labels errors.
pub fn from_checkpoint(path: &str, ckpt: Checkpoint) -> Result<Artifact, CkptError> {
    let meta = meta_from_json(path, &ckpt.meta_json)?;
    let mut params: Vec<(String, Matrix)> = Vec::new();
    let mut user_content: Option<Matrix> = None;
    let mut item_content: Option<Matrix> = None;
    for (name, m) in ckpt.tensors {
        if name.starts_with(&format!("{PARAM_PREFIX}.")) {
            params.push((name, m));
        } else if name == USER_CONTENT_TENSOR {
            user_content = Some(m);
        } else if name == ITEM_CONTENT_TENSOR {
            item_content = Some(m);
        } else {
            return Err(meta_err(path, format!("unknown tensor {name:?} in artifact checkpoint")));
        }
    }
    let user_content = user_content
        .ok_or_else(|| meta_err(path, format!("missing {USER_CONTENT_TENSOR:?} tensor")))?;
    let item_content = item_content
        .ok_or_else(|| meta_err(path, format!("missing {ITEM_CONTENT_TENSOR:?} tensor")))?;
    Ok(Artifact { meta, params, user_content, item_content })
}

/// Saves an artifact as a `metadpa-ckpt/v2` file.
pub fn save_artifact(path: &str, artifact: &Artifact) -> Result<(), CkptError> {
    ckpt::save(path, &to_checkpoint(artifact))
}

/// Loads an artifact from a `metadpa-ckpt` file of any readable version.
pub fn load_artifact(path: &str) -> Result<Artifact, CkptError> {
    from_checkpoint(path, ckpt::load(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_core::artifact::artifact_from_learner;
    use metadpa_core::MetaLearner;
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
            "unit",
            "deadbeef".into(),
            "0123456789abcdef".into(),
            DiversityReport { k: 2, mean_pairwise_distance: 0.5, mean_confidence: 0.75 },
            user_content,
            item_content,
            format!("run-{seed:016x}-00000000deadbeef-1"),
        )
    }

    #[test]
    fn artifact_round_trips_through_the_checkpoint_container() {
        let artifact = tiny_artifact(3);
        let ckpt = to_checkpoint(&artifact);
        let back = from_checkpoint("mem", ckpt.clone()).expect("round trip");
        assert_eq!(back.meta.model_name, "unit");
        assert_eq!(back.meta.git_rev, "deadbeef");
        assert_eq!(back.meta.data_fingerprint, "0123456789abcdef");
        assert_eq!(back.meta.preference.content_dim, 6);
        assert_eq!(back.meta.preference.hidden, [8, 4]);
        assert_eq!(back.meta.maml.inner_lr, artifact.meta.maml.inner_lr, "f32 exact");
        assert_eq!(back.meta.maml.seed, artifact.meta.maml.seed);
        assert_eq!(back.meta.diversity.k, 2);
        assert_eq!(back.meta.score_fingerprint, artifact.meta.score_fingerprint, "f32 exact");
        assert!(!back.meta.score_fingerprint.is_empty(), "export stamps a fingerprint");
        assert_eq!(back.meta.run_id, "run-0000000000000003-00000000deadbeef-1");
        assert_eq!(back.params, artifact.params, "parameters are bit-exact");
        assert_eq!(back.user_content, artifact.user_content);
        assert_eq!(back.item_content, artifact.item_content);
        // And the full byte layout is stable: encode(to_checkpoint(load(x))) == x.
        let bytes = ckpt::encode(&ckpt);
        assert_eq!(ckpt::encode(&to_checkpoint(&back)), bytes);
    }

    #[test]
    fn fused_ranking_round_trips_and_exact_writes_no_field() {
        let mut artifact = tiny_artifact(8);
        artifact.meta.ranking = Ranking::Fused;
        let ckpt = to_checkpoint(&artifact);
        assert!(ckpt.meta_json.contains("\"ranking\":\"fused\""), "{}", ckpt.meta_json);
        let back = from_checkpoint("mem", ckpt.clone()).expect("round trip");
        assert_eq!(back.meta.ranking, Ranking::Fused);
        assert_eq!(back.params, artifact.params);
        assert_eq!(ckpt::encode(&to_checkpoint(&back)), ckpt::encode(&ckpt), "stable bytes");

        // The default stays the default: no field, and the loaded ranking
        // says so.
        let default = to_checkpoint(&tiny_artifact(8));
        assert!(!default.meta_json.contains("ranking"));
        let back = from_checkpoint("mem", default).expect("default round trip");
        assert_eq!(back.meta.ranking, Ranking::Exact);

        // Version-1 metadata said "fused" through the tensor encoding.
        let mut legacy = to_checkpoint(&artifact);
        legacy.meta_json =
            legacy.meta_json.replace("\"ranking\":\"fused\"", "\"tensor_encoding\":\"f32\"");
        assert_eq!(
            from_checkpoint("mem", legacy.clone()).expect("v1").meta.ranking,
            Ranking::Fused
        );

        // Unknown values are malformed, not silently misread.
        let mut alien = to_checkpoint(&artifact);
        alien.meta_json = alien.meta_json.replace("\"fused\"", "\"turbo\"");
        let err = from_checkpoint("mem", alien).unwrap_err();
        assert!(err.to_string().contains("turbo"), "{err}");
        legacy.meta_json = legacy.meta_json.replace("\"f32\"", "\"f16\"");
        let err = from_checkpoint("mem", legacy).unwrap_err();
        assert!(err.to_string().contains("f16"), "{err}");
    }

    #[test]
    fn save_and_load_through_a_real_file() {
        let artifact = tiny_artifact(4);
        let path = std::env::temp_dir()
            .join(format!("metadpa_artifact_{}.ckpt", std::process::id()))
            .to_string_lossy()
            .to_string();
        save_artifact(&path, &artifact).expect("save");
        let back = load_artifact(&path).expect("load");
        assert_eq!(back.params, artifact.params);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_predating_score_fingerprints_still_load() {
        let artifact = tiny_artifact(6);
        let mut ckpt = to_checkpoint(&artifact);
        // Simulate an older writer: drop the trailing score_fingerprint blob.
        let cut = ckpt.meta_json.find(",\"score_fingerprint\"").expect("field present");
        ckpt.meta_json.truncate(cut);
        ckpt.meta_json.push('}');
        let back = from_checkpoint("mem", ckpt).expect("pre-fingerprint checkpoint loads");
        assert!(back.meta.score_fingerprint.is_empty(), "defaults to an empty sketch");
        assert_eq!(back.params, artifact.params);
    }

    #[test]
    fn checkpoints_predating_the_run_ledger_still_load() {
        let artifact = tiny_artifact(7);
        let mut ckpt = to_checkpoint(&artifact);
        // Simulate an older writer: drop the trailing run_id field.
        let cut = ckpt.meta_json.find(",\"run_id\"").expect("field present");
        ckpt.meta_json.truncate(cut);
        ckpt.meta_json.push('}');
        let back = from_checkpoint("mem", ckpt).expect("pre-ledger checkpoint loads");
        assert_eq!(back.meta.run_id, "", "defaults to an unstamped run");
        assert_eq!(back.params, artifact.params);
    }

    #[test]
    fn foreign_schema_and_missing_tensors_are_malformed() {
        let artifact = tiny_artifact(5);
        let mut ckpt = to_checkpoint(&artifact);
        ckpt.meta_json = ckpt.meta_json.replace("metadpa-artifact/v1", "someone-else/v9");
        let err = from_checkpoint("mem", ckpt).unwrap_err();
        assert_eq!(err.kind, CkptErrorKind::Malformed);
        assert!(err.to_string().contains("someone-else/v9"), "{err}");

        let mut no_items = to_checkpoint(&artifact);
        no_items.tensors.retain(|(n, _)| n != ITEM_CONTENT_TENSOR);
        let err = from_checkpoint("mem", no_items).unwrap_err();
        assert!(err.to_string().contains("content.item"), "{err}");

        let mut alien = to_checkpoint(&artifact);
        alien.tensors.push(("mystery".into(), Matrix::zeros(1, 1)));
        let err = from_checkpoint("mem", alien).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }
}
