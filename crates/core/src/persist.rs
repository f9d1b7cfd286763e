//! Saving and loading trained models.
//!
//! A trained CausalFormer is its [`ModelConfig`] plus the parameter values.
//! Two interchangeable on-disk encodings exist:
//!
//! * **JSON** (`.json`, [`to_json`]/[`from_json`]) — human-readable,
//!   parameters widened to f64. The historical format, still the default.
//! * **CFTENS1 binary** (`.cft`, [`to_bytes`]/[`from_bytes`]) — the
//!   safetensors-style envelope from `cf_store::tensors`: parameters stay
//!   at their native dtype (an f32-trained model stores f32 payloads at
//!   half the size) and load with a bulk copy instead of JSON float
//!   parsing.
//!
//! [`save`] picks the encoding from the file extension (`.cft` → binary);
//! [`load`] sniffs the file's magic bytes, so either format loads from any
//! path. Loading reconstructs the architecture (parameter registration
//! order is deterministic) and overwrites the freshly-initialised values
//! with the saved ones, verifying names and shapes.

use crate::config::ModelConfig;
use crate::model::CausalityAwareTransformer;
use crate::trainer::{TrainedModel, TrainedModelBase};
use cf_nn::ParamStore;
use cf_tensor::{Scalar, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Serialised form of a trained model.
#[derive(Serialize, Deserialize)]
struct SavedModel {
    format_version: u32,
    config: ModelConfig,
    params: Vec<SavedParam>,
}

/// One named parameter's values, in registration order.
#[derive(Serialize, Deserialize)]
struct SavedParam {
    name: String,
    shape: Vec<usize>,
    data: Vec<f64>,
}

/// Errors from model persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialisation failure.
    Json(serde_json::Error),
    /// A model file fails its structural or checksum validation, or holds
    /// an invalid model config.
    Corrupt(String),
    /// The file's parameters do not match the reconstructed architecture.
    Mismatch(String),
    /// Any of the above, annotated with the file it happened on. [`save`]
    /// and [`load`] wrap their errors in this variant so a failure deep in
    /// a pipeline still names the offending path.
    At {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying failure.
        source: Box<PersistError>,
    },
}

impl PersistError {
    fn at(self, path: &Path) -> Self {
        PersistError::At {
            path: path.to_path_buf(),
            source: Box::new(self),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Json(e) => write!(f, "JSON error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt model file: {m}"),
            PersistError::Mismatch(m) => write!(f, "model file mismatch: {m}"),
            PersistError::At { path, source } => {
                write!(f, "{source} (file: {})", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Json(e) => Some(e),
            PersistError::Corrupt(_) | PersistError::Mismatch(_) => None,
            PersistError::At { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

/// Rebuilds the architecture of `config` (registration order is
/// deterministic; the RNG only seeds throwaway initial values) and loads
/// `params` into it after checking their count, names and shapes.
fn rebuild(config: ModelConfig, params: Vec<SavedParam>) -> Result<TrainedModel, PersistError> {
    config
        .check()
        .map_err(|e| PersistError::Corrupt(format!("invalid model config: {e}")))?;
    let mut store = ParamStore::new();
    let model = CausalityAwareTransformer::new(&mut store, &mut StdRng::seed_from_u64(0), config);
    if params.len() != store.len() {
        return Err(PersistError::Mismatch(format!(
            "file has {} parameters, architecture expects {}",
            params.len(),
            store.len()
        )));
    }
    let mut values = Vec::with_capacity(params.len());
    for (id, sp) in store.ids().zip(params) {
        if store.name(id) != sp.name {
            return Err(PersistError::Mismatch(format!(
                "parameter order mismatch: expected {:?}, found {:?}",
                store.name(id),
                sp.name
            )));
        }
        if store.value(id).shape() != sp.shape.as_slice() {
            return Err(PersistError::Mismatch(format!(
                "shape mismatch for {:?}: expected {:?}, found {:?}",
                sp.name,
                store.value(id).shape(),
                sp.shape
            )));
        }
        let tensor = Tensor::from_vec(sp.shape, sp.data)
            .map_err(|e| PersistError::Mismatch(format!("parameter {:?}: {e}", sp.name)))?;
        values.push(tensor);
    }
    store.restore(&values);
    Ok(TrainedModel { model, store })
}

/// Serialises a trained model to JSON. Parameters are stored as f64
/// whatever the store's dtype — an f32-trained model widens losslessly on
/// save and loads back as the f64 model with the same weights.
pub fn to_json<E: Scalar>(trained: &TrainedModelBase<E>) -> Result<String, PersistError> {
    let store = &trained.store;
    let saved = SavedModel {
        format_version: 1,
        config: *trained.model.config(),
        params: store
            .ids()
            .map(|id| SavedParam {
                name: store.name(id).to_string(),
                shape: store.value(id).shape().to_vec(),
                data: store.value(id).data().iter().map(|v| v.to_f64()).collect(),
            })
            .collect(),
    };
    Ok(serde_json::to_string(&saved)?)
}

/// Reconstructs a trained model from JSON produced by [`to_json`].
pub fn from_json(json: &str) -> Result<TrainedModel, PersistError> {
    let saved: SavedModel = serde_json::from_str(json)?;
    if saved.format_version != 1 {
        return Err(PersistError::Mismatch(format!(
            "unsupported format version {}",
            saved.format_version
        )));
    }
    rebuild(saved.config, saved.params)
}

/// File extension that selects the binary CFTENS1 model encoding.
pub const MODEL_BINARY_EXTENSION: &str = "cft";

/// Binary model metadata, stored as the CFTENS1 `meta` JSON string.
#[derive(Serialize, Deserialize)]
struct BinaryModelMeta {
    format_version: u32,
    kind: String,
    dtype: String,
    config: ModelConfig,
    param_names: Vec<String>,
}

const BINARY_MODEL_KIND: &str = "causalformer-model";

/// Serialises a trained model to the CFTENS1 binary encoding. Unlike
/// [`to_json`], parameters keep their native dtype: an f32 store writes
/// f32 sections (half the bytes), an f64 store writes f64 sections.
pub fn to_bytes<E: Scalar>(trained: &TrainedModelBase<E>) -> Result<Vec<u8>, PersistError> {
    let store = &trained.store;
    let meta = BinaryModelMeta {
        format_version: 1,
        kind: BINARY_MODEL_KIND.to_string(),
        dtype: E::DTYPE.as_str().to_string(),
        config: *trained.model.config(),
        param_names: store.ids().map(|id| store.name(id).to_string()).collect(),
    };
    let meta_json = serde_json::to_string(&meta)?;
    let mut b = cf_store::TensorFileBuilder::new().meta(meta_json);
    for (i, id) in store.ids().enumerate() {
        b.push_tensor(&format!("param.{i}"), store.value(id));
    }
    Ok(b.finish())
}

/// Reconstructs a trained model from CFTENS1 bytes produced by
/// [`to_bytes`]. The returned model is always the f64 `TrainedModel`;
/// f32 sections widen losslessly. `origin` names the source in errors.
pub fn from_bytes(bytes: &[u8], origin: &str) -> Result<TrainedModel, PersistError> {
    let file = cf_store::TensorFile::parse(bytes, origin)
        .map_err(|e| PersistError::Corrupt(e.to_string()))?;
    let meta: BinaryModelMeta = serde_json::from_str(file.meta())?;
    if meta.format_version != 1 || meta.kind != BINARY_MODEL_KIND {
        return Err(PersistError::Mismatch(format!(
            "not a {BINARY_MODEL_KIND} v1 file (kind {:?}, version {})",
            meta.kind, meta.format_version
        )));
    }
    let mut params = Vec::with_capacity(meta.param_names.len());
    for (i, name) in meta.param_names.iter().enumerate() {
        let key = format!("param.{i}");
        let read = |e: cf_store::StoreError| PersistError::Corrupt(e.to_string());
        let tensor = match file.dtype_of(&key).map_err(read)? {
            "f32" => file.typed::<f32>(&key).map_err(read)?.to_f64_tensor(),
            _ => file.typed::<f64>(&key).map_err(read)?,
        };
        params.push(SavedParam {
            name: name.clone(),
            shape: tensor.shape().to_vec(),
            data: tensor.into_data(),
        });
    }
    rebuild(meta.config, params)
}

/// Saves a trained model. The encoding follows the file extension:
/// `.cft` writes the CFTENS1 binary format (native dtype), anything else
/// writes JSON (parameters widened to f64). Errors name the offending
/// path.
pub fn save<E: Scalar>(
    trained: &TrainedModelBase<E>,
    path: impl AsRef<Path>,
) -> Result<(), PersistError> {
    let path = path.as_ref();
    let binary = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case(MODEL_BINARY_EXTENSION));
    let bytes = if binary {
        to_bytes(trained).map_err(|e| e.at(path))?
    } else {
        to_json(trained).map_err(|e| e.at(path))?.into_bytes()
    };
    std::fs::write(path, bytes).map_err(|e| PersistError::Io(e).at(path))?;
    Ok(())
}

/// Loads a trained model from either encoding, sniffing the file's magic
/// bytes (so a binary model renamed to `.json` still loads). Errors name
/// the offending path.
pub fn load(path: impl AsRef<Path>) -> Result<TrainedModel, PersistError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| PersistError::Io(e).at(path))?;
    if bytes.starts_with(b"CFTENS1\n") {
        return from_bytes(&bytes, &path.display().to_string()).map_err(|e| e.at(path));
    }
    let json = std::str::from_utf8(&bytes)
        .map_err(|e| PersistError::Mismatch(format!("not UTF-8 JSON: {e}")).at(path))?;
    from_json(json).map_err(|e| e.at(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::detector::detect;
    use crate::trainer::train;
    use crate::TrainConfig;
    use cf_tensor::{uniform, Tensor, TensorBase};

    fn tiny_trained() -> (TrainedModel, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(4);
        let config = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            ..ModelConfig::compact(3, 6)
        };
        let windows: Vec<Tensor> = (0..6)
            .map(|_| uniform(&mut rng, &[3, 6], -1.0, 1.0))
            .collect();
        let tc = TrainConfig {
            max_epochs: 3,
            ..TrainConfig::default()
        };
        let (trained, _) = train(&mut rng, config, tc, &windows);
        (trained, windows)
    }

    /// `trained`'s parameters under `config`, as CFTENS1 bytes.
    fn bytes_with_config(trained: &TrainedModel, config: ModelConfig) -> Vec<u8> {
        let store = &trained.store;
        let meta = BinaryModelMeta {
            format_version: 1,
            kind: BINARY_MODEL_KIND.to_string(),
            dtype: "f64".to_string(),
            config,
            param_names: store.ids().map(|id| store.name(id).to_string()).collect(),
        };
        let mut b = cf_store::TensorFileBuilder::new().meta(serde_json::to_string(&meta).unwrap());
        for (i, id) in store.ids().enumerate() {
            b.push_tensor(&format!("param.{i}"), store.value(id));
        }
        b.finish()
    }

    #[test]
    fn invalid_configs_are_errors_not_panics() {
        let (trained, _) = tiny_trained();
        let good = *trained.model.config();
        let bad = [
            ("window", ModelConfig { window: 1, ..good }),
            ("head", ModelConfig { heads: 0, ..good }),
            (
                "temperature",
                ModelConfig {
                    temperature: 0.0,
                    ..good
                },
            ),
            (
                "temperature",
                ModelConfig {
                    temperature: -1.0,
                    ..good
                },
            ),
            (
                "L1",
                ModelConfig {
                    lambda_kernel: -1e-4,
                    ..good
                },
            ),
            (
                "L1",
                ModelConfig {
                    lambda_mask: -1e-4,
                    ..good
                },
            ),
            (
                "L1",
                ModelConfig {
                    lambda_lag: -1e-4,
                    ..good
                },
            ),
        ];
        for (what, config) in bad {
            let mut saved: SavedModel = serde_json::from_str(&to_json(&trained).unwrap()).unwrap();
            saved.config = config;
            let json = serde_json::to_string(&saved).unwrap();
            let bytes = bytes_with_config(&trained, config);
            for err in [from_json(&json).err(), from_bytes(&bytes, "mem").err()] {
                match err {
                    Some(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
                    Some(other) => panic!("{what}: unexpected error {other}"),
                    None => panic!("{what}: invalid config loaded"),
                }
            }
        }
        // The same path still loads a valid config.
        from_bytes(&bytes_with_config(&trained, good), "mem").unwrap();
    }

    #[test]
    fn roundtrip_preserves_parameters_and_behaviour() {
        let (trained, windows) = tiny_trained();
        let json = to_json(&trained).unwrap();
        let loaded = from_json(&json).unwrap();
        // Identical parameter values…
        for (a, b) in trained.store.ids().zip(loaded.store.ids()) {
            assert_eq!(trained.store.value(a), loaded.store.value(b));
        }
        // …and identical detector output.
        let cfg = DetectorConfig::default();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let (g1, _) = detect(&mut r1, &trained.model, &trained.store, &windows, &cfg);
        let (g2, _) = detect(&mut r2, &loaded.model, &loaded.store, &windows, &cfg);
        assert_eq!(g1, g2);
    }

    #[test]
    fn binary_roundtrip_preserves_parameters_bitwise() {
        let (trained, _) = tiny_trained();
        let bytes = to_bytes(&trained).unwrap();
        let loaded = from_bytes(&bytes, "mem").unwrap();
        for (a, b) in trained.store.ids().zip(loaded.store.ids()) {
            let (va, vb) = (trained.store.value(a), loaded.store.value(b));
            assert_eq!(va.shape(), vb.shape());
            for (x, y) in va.data().iter().zip(vb.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn binary_f32_model_stores_f32_sections() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            ..ModelConfig::compact(3, 6)
        };
        let windows: Vec<TensorBase<f32>> = (0..6)
            .map(|_| TensorBase::from_f64_tensor(&uniform(&mut rng, &[3, 6], -1.0, 1.0)))
            .collect();
        let tc = TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        };
        let (trained, _) = train(&mut rng, config, tc, &windows);
        let bytes = to_bytes(&trained).unwrap();
        // The sections really are f32 (half the payload of an f64 save)…
        let file = cf_store::TensorFile::parse(&bytes, "mem").unwrap();
        assert_eq!(file.dtype_of("param.0").unwrap(), "f32");
        // …and widen losslessly on load.
        let loaded = from_bytes(&bytes, "mem").unwrap();
        for (a, b) in trained.store.ids().zip(loaded.store.ids()) {
            for (x, y) in trained
                .store
                .value(a)
                .data()
                .iter()
                .zip(loaded.store.value(b).data())
            {
                assert_eq!((x.to_f64()).to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn save_load_dispatch_on_extension_and_magic() {
        let (trained, _) = tiny_trained();
        let dir = std::env::temp_dir();
        let cft = dir.join("causalformer_persist_test.cft");
        let json = dir.join("causalformer_persist_test_b.json");
        save(&trained, &cft).unwrap();
        save(&trained, &json).unwrap();
        let from_cft = std::fs::read(&cft).unwrap();
        assert!(from_cft.starts_with(b"CFTENS1\n"), "extension picks binary");
        assert!(
            std::fs::read(&json).unwrap().starts_with(b"{"),
            "default stays JSON"
        );
        assert!(
            from_cft.len() < std::fs::read(&json).unwrap().len(),
            "binary is smaller"
        );
        // Both load back, including a binary file under a .json name (magic
        // sniffing, not extension trust).
        assert!(load(&cft).is_ok());
        assert!(load(&json).is_ok());
        let disguised = dir.join("causalformer_persist_disguised.json");
        std::fs::write(&disguised, &from_cft).unwrap();
        assert!(load(&disguised).is_ok());
        for p in [cft, json, disguised] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn binary_corruption_is_detected() {
        let (trained, _) = tiny_trained();
        let mut bytes = to_bytes(&trained).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        let err = from_bytes(&bytes, "truncated.cft")
            .err()
            .expect("must fail");
        let msg = err.to_string();
        assert!(msg.contains("truncated.cft"), "origin missing: {msg}");
    }

    #[test]
    fn file_roundtrip() {
        let (trained, _) = tiny_trained();
        let path = std::env::temp_dir().join("causalformer_persist_test.json");
        save(&trained, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.model.config().n_series, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupted_payloads() {
        let (trained, _) = tiny_trained();
        let json = to_json(&trained).unwrap();
        // Flip the version.
        let bad = json.replace("\"format_version\":1", "\"format_version\":99");
        assert!(matches!(
            from_json(&bad).err().expect("must fail"),
            PersistError::Mismatch(_)
        ));
        // Not JSON at all.
        assert!(matches!(
            from_json("definitely not json").err().expect("must fail"),
            PersistError::Json(_)
        ));
        // Truncated parameter list.
        let truncated = {
            let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
            let params = v["params"].as_array_mut().unwrap();
            params.pop();
            v.to_string()
        };
        assert!(matches!(
            from_json(&truncated).err().expect("must fail"),
            PersistError::Mismatch(_)
        ));
    }

    #[test]
    fn load_errors_name_the_offending_path() {
        let missing = std::env::temp_dir().join("causalformer_no_such_model.json");
        let err = load(&missing).err().expect("must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("causalformer_no_such_model.json"),
            "path missing from error: {msg}"
        );
        assert!(matches!(err, PersistError::At { .. }));

        // Mismatch through the file path also carries the path.
        let (trained, _) = tiny_trained();
        let path = std::env::temp_dir().join("causalformer_badshape_test.json");
        let json = to_json(&trained).unwrap();
        let bad = json.replace("\"format_version\":1", "\"format_version\":99");
        std::fs::write(&path, bad).unwrap();
        let msg = load(&path).err().expect("must fail").to_string();
        assert!(
            msg.contains("causalformer_badshape_test.json") && msg.contains("format version"),
            "unhelpful error: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }
}
