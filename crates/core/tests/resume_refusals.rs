//! Every way resume refuses a checkpoint. Each case takes the valid f64
//! fixture (`tests/fixtures/ckpt-f64-000002.cfck`, see
//! `checkpoint_fixtures.rs`), damages one field, re-envelopes it so the
//! checksum passes, and resumes the run that wrote it: a state that does
//! not fit the run is a `Mismatch` naming the field, and a payload that
//! contradicts itself is `Corrupt` — never a panic, never a silent
//! fallback past a mismatch.

use causalformer::checkpoint::{read_envelope, reencode, write_envelope};
use causalformer::{CheckpointConfig, CheckpointError, ModelConfig, TrainConfig, TrainError};
use causalformer::{TrainReport, Trainer};
use cf_data::{synthetic, window};
use cf_store::{TensorFile, TensorFileBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ckpt-f64-000002.cfck")
}

/// Resumes the fixture's run (same windows and configs as
/// `checkpoint_fixtures.rs`) from `dir`.
fn resume(dir: &Path) -> Result<TrainReport, TrainError> {
    let mut rng = StdRng::seed_from_u64(3);
    let d = synthetic::generate(&mut rng, synthetic::Structure::Fork, 80);
    let windows = window::windows::<f64>(&window::standardize(&d.series), 8, 4);
    let mc = ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        heads: 1,
        ..ModelConfig::compact(3, 8)
    };
    let tc = TrainConfig {
        max_epochs: 3,
        patience: 50,
        ..TrainConfig::default()
    };
    Trainer::new(mc, tc)
        .with_checkpoints(CheckpointConfig::new(dir))
        .resume(true)
        .fit(&mut StdRng::seed_from_u64(0), &windows)
        .map(|(_, report)| report)
}

/// One CFTENS1 section of the fixture, decoded.
struct Section {
    name: String,
    shape: Vec<usize>,
    data: Data,
}

enum Data {
    F64(Vec<f64>),
    U64(Vec<u64>),
}

/// The fixture's payload as its meta JSON and sections.
fn parts() -> (Value, Vec<Section>) {
    let payload = read_envelope(&fixture()).unwrap();
    let file = TensorFile::parse(&payload, "fixture").unwrap();
    let meta = serde_json::from_str(file.meta()).unwrap();
    let sections = file
        .names()
        .map(|name| Section {
            name: name.to_string(),
            shape: file.shape(name).unwrap().to_vec(),
            data: match file.dtype_of(name).unwrap() {
                "u64" => Data::U64(file.u64s(name).unwrap()),
                _ => Data::F64(file.f64s(name).unwrap()),
            },
        })
        .collect();
    (meta, sections)
}

/// Writes `meta` and `sections` as checkpoint `ckpt-{epoch}` in `dir`,
/// under a valid envelope.
fn write(dir: &Path, epoch: u64, meta: &Value, sections: &[Section]) -> PathBuf {
    let mut b = TensorFileBuilder::new().meta(meta.to_string());
    for s in sections {
        match &s.data {
            Data::F64(v) => b.push_slice(&s.name, s.shape.clone(), v),
            Data::U64(v) => b.push_u64(&s.name, v),
        }
    }
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(format!("ckpt-{epoch:06}.cfck"));
    write_envelope(&path, &b.finish()).unwrap();
    path
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cf_refusal_{tag}_{}_t{}",
        std::process::id(),
        std::env::var("CF_THREADS").unwrap_or_default()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn section<'a>(sections: &'a mut [Section], name: &str) -> &'a mut Section {
    sections.iter_mut().find(|s| s.name == name).unwrap()
}

fn f64s<'a>(sections: &'a mut [Section], name: &str) -> &'a mut Vec<f64> {
    match &mut section(sections, name).data {
        Data::F64(v) => v,
        Data::U64(_) => panic!("{name} is not an f64 section"),
    }
}

/// Damages the fixture with `edit`, resumes from it alone, and expects a
/// mismatch whose detail contains `field`.
fn refused(tag: &str, field: &str, edit: impl FnOnce(&mut Value, &mut Vec<Section>)) {
    let (mut meta, mut sections) = parts();
    edit(&mut meta, &mut sections);
    let dir = tmp_dir(tag);
    write(&dir, 2, &meta, &sections);
    let result = resume(&dir);
    std::fs::remove_dir_all(&dir).ok();
    match result {
        Err(TrainError::Checkpoint(CheckpointError::Mismatch { detail, .. })) => {
            assert!(
                detail.contains(field),
                "{tag}: detail {detail:?} does not name {field:?}"
            )
        }
        Err(other) => panic!("{tag}: expected a mismatch naming {field:?}, got: {other}"),
        Ok(_) => panic!("{tag}: damaged checkpoint resumed"),
    }
}

#[test]
fn the_undamaged_fixture_resumes() {
    let (meta, sections) = parts();
    let dir = tmp_dir("intact");
    write(&dir, 2, &meta, &sections);
    let report = resume(&dir).expect("the fixture fits its own run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.resumed_at, Some(2));
}

#[test]
fn a_state_from_another_run_is_refused_naming_the_field() {
    refused("dtype", "dtype", |m, _| {
        m["dtype"] = Value::Str("f32".into())
    });
    refused("config", "model config", |m, _| {
        m["config"]["d_model"] = Value::UInt(16)
    });
    refused("windows", "window count", |m, _| {
        m["n_windows"] = Value::UInt(m["n_windows"].as_u64().unwrap() + 1)
    });
    refused("batch", "batch size", |m, _| {
        m["batch_size"] = Value::UInt(4)
    });
    refused("order", "permutation", |_, s| {
        match &mut section(s, "order").data {
            Data::U64(order) => order[1] = order[0],
            Data::F64(_) => unreachable!(),
        }
    });
    refused("history", "history", |_, s| {
        f64s(s, "train_losses").pop();
    });
    refused("lr", "learning rate", |_, s| f64s(s, "scalars")[0] = 0.0);
    refused("negative-lr", "learning rate", |_, s| {
        f64s(s, "scalars")[0] = -1e-3
    });
    refused("renamed", "parameter names", |m, _| {
        m["param_names"][0] = Value::Str("renamed".into())
    });
    refused("reshaped", "shape mismatch", |_, s| {
        // Flattened: the element count still fits, only the
        // architecture check can tell.
        let p = s
            .iter_mut()
            .find(|p| p.name.starts_with("param.") && p.shape.len() > 1)
            .expect("a multi-dimensional parameter");
        p.shape = vec![p.shape.iter().product()];
    });
    refused("extra-moment", "Adam first moments", |m, s| {
        let n = m["param_names"].as_array().unwrap().len();
        s.push(Section {
            name: format!("adam_m.{n}"),
            shape: vec![2],
            data: Data::F64(vec![0.5, 0.25]),
        });
    });
}

#[test]
fn a_mismatched_newest_checkpoint_is_an_error_not_a_fallback() {
    let (mut meta, sections) = parts();
    let dir = tmp_dir("newest");
    write(&dir, 1, &meta, &sections); // valid, older
    meta["batch_size"] = Value::UInt(4);
    write(&dir, 2, &meta, &sections);
    let result = resume(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(
            result,
            Err(TrainError::Checkpoint(CheckpointError::Mismatch { ref path, .. }))
                if path.ends_with("ckpt-000002.cfck")
        ),
        "expected a mismatch on the newest file, got {:?}",
        result.map(|r| r.resumed_at)
    );
}

/// Writes the damaged payload, expects decoding to call it corrupt, and
/// expects resume to fall back past it to a valid older file.
fn corrupt(tag: &str, edit: impl FnOnce(&mut Value, &mut Vec<Section>)) {
    let (meta, sections) = parts();
    let dir = tmp_dir(tag);
    write(&dir, 1, &meta, &sections);
    let (mut meta, mut sections) = (meta, sections);
    edit(&mut meta, &mut sections);
    let path = write(&dir, 2, &meta, &sections);
    let err = reencode(&path, &read_envelope(&path).unwrap()).expect_err("damage undetected");
    let report = resume(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(err, CheckpointError::Corrupt { .. }),
        "{tag}: {err}"
    );
    let report = report.unwrap_or_else(|e| panic!("{tag}: no fallback to the older file: {e}"));
    assert_eq!(report.resumed_at, Some(2), "{tag}");
}

#[test]
fn a_payload_that_contradicts_itself_is_corrupt_not_a_panic() {
    corrupt("ghost-param", |m, _| {
        m["param_names"]
            .as_array_mut()
            .unwrap()
            .push(Value::Str("ghost".into()))
    });
    corrupt("section-length", |_, s| {
        let p = section(s, "param.0");
        p.shape[0] += 1;
    });
}
