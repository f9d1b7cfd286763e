//! Checkpoint format v3, pinned by files an earlier build wrote: an f64 and
//! an f32 checkpoint taken after epoch 2 of a small fork run
//! (`tests/fixtures/ckpt-{f64,f32}-000002.cfck`). Decoding either and
//! encoding the result again must give the stored payload byte for byte,
//! and resuming either for the remaining epochs must land on the bits of
//! a straight run. A change to the format fails here before it ships.

use causalformer::checkpoint::{read_envelope, reencode};
use causalformer::{CheckpointConfig, ModelConfig, TrainConfig, Trainer};
use cf_data::{synthetic, window};
use cf_tensor::{Scalar, TensorBase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Epochs completed when the fixtures were taken.
const FIXTURE_EPOCH: usize = 2;
/// Length of the straight run the resumed one must match.
const TOTAL_EPOCHS: usize = 4;
/// Seed of the run's RNG (model init and shuffles).
const RUN_SEED: u64 = 17;

fn fixture(dtype: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("ckpt-{dtype}-{FIXTURE_EPOCH:06}.cfck"))
}

fn fork_windows<E: Scalar>() -> Vec<TensorBase<E>> {
    let mut rng = StdRng::seed_from_u64(3);
    let d = synthetic::generate(&mut rng, synthetic::Structure::Fork, 80);
    let std = window::standardize(&d.series);
    window::windows(&std, 8, 4)
        .iter()
        .map(TensorBase::from_f64_tensor)
        .collect()
}

fn configs(max_epochs: usize) -> (ModelConfig, TrainConfig) {
    let mc = ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        heads: 1,
        ..ModelConfig::compact(3, 8)
    };
    let tc = TrainConfig {
        max_epochs,
        patience: 50,
        ..TrainConfig::default()
    };
    (mc, tc)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cf_fixture_{tag}_{}_t{}",
        std::process::id(),
        std::env::var("CF_THREADS").unwrap_or_default()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits<E: Scalar>(values: impl IntoIterator<Item = E>) -> Vec<u64> {
    values.into_iter().map(|v| v.to_f64().to_bits()).collect()
}

#[test]
fn fixtures_reencode_byte_for_byte() {
    for dtype in ["f64", "f32"] {
        let path = fixture(dtype);
        let payload = read_envelope(&path).unwrap();
        let again = reencode(&path, &payload).unwrap();
        assert!(
            again == payload,
            "{dtype} fixture re-encodes to different bytes ({} vs {})",
            again.len(),
            payload.len()
        );
    }
}

/// Resumes the `dtype` fixture to [`TOTAL_EPOCHS`] and checks it against a
/// straight run of that length: parameters and both loss histories, bit for
/// bit.
fn resume_matches_straight_run<E: Scalar>(dtype: &str) {
    let windows = fork_windows::<E>();
    let (mc, tc) = configs(TOTAL_EPOCHS);
    let mut rng = StdRng::seed_from_u64(RUN_SEED);
    let (straight, straight_report) = Trainer::new(mc, tc).fit(&mut rng, &windows).unwrap();

    let dir = tmp_dir(dtype);
    std::fs::create_dir_all(&dir).unwrap();
    let name = format!("ckpt-{FIXTURE_EPOCH:06}.cfck");
    std::fs::copy(fixture(dtype), dir.join(name)).unwrap();
    let mut other = StdRng::seed_from_u64(RUN_SEED + 1); // resume must overwrite it
    let (resumed, report) = Trainer::new(mc, tc)
        .with_checkpoints(CheckpointConfig::new(&dir))
        .resume(true)
        .fit(&mut other, &windows)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(report.resumed_at, Some(FIXTURE_EPOCH));
    let params = |t: &causalformer::TrainedModelBase<E>| -> Vec<u64> {
        t.store
            .ids()
            .flat_map(|id| bits(t.store.value(id).data().iter().copied()))
            .collect()
    };
    assert_eq!(params(&straight), params(&resumed), "{dtype} params differ");
    assert_eq!(
        bits(straight_report.train_losses),
        bits(report.train_losses),
        "{dtype} train losses differ"
    );
    assert_eq!(
        bits(straight_report.val_losses),
        bits(report.val_losses),
        "{dtype} val losses differ"
    );
}

#[test]
fn f64_fixture_resumes_to_the_straight_run() {
    resume_matches_straight_run::<f64>("f64");
}

#[test]
fn f32_fixture_resumes_to_the_straight_run() {
    resume_matches_straight_run::<f32>("f32");
}

/// Writes the fixtures from the run they pin. Only a deliberate format
/// change reruns it: `cargo test -p causalformer --test checkpoint_fixtures
/// -- --ignored write_fixtures`.
#[test]
#[ignore = "rewrites tests/fixtures; run only for a deliberate format change"]
fn write_fixtures() {
    fn write<E: Scalar>(dtype: &str) {
        let dir = tmp_dir(&format!("write_{dtype}"));
        let (mc, tc) = configs(FIXTURE_EPOCH);
        let mut rng = StdRng::seed_from_u64(RUN_SEED);
        Trainer::new(mc, tc)
            .with_checkpoints(CheckpointConfig::new(&dir).every(1))
            .fit(&mut rng, &fork_windows::<E>())
            .unwrap();
        let name = format!("ckpt-{FIXTURE_EPOCH:06}.cfck");
        std::fs::create_dir_all(fixture(dtype).parent().unwrap()).unwrap();
        std::fs::copy(dir.join(name), fixture(dtype)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
    write::<f64>("f64");
    write::<f32>("f32");
}
