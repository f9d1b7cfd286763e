//! The CFCKPT1 checkpoint envelope on hostile bytes: truncated and
//! random files are errors, a flipped bit never yields a wrong payload,
//! nothing panics, and valid envelopes round-trip exactly.

use causalformer::checkpoint::{read_envelope, write_envelope};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_round_trips_and_rejects_damage(
        payload in proptest::collection::vec(0u8..=255, 0..48),
        kind in 0u8..3,
        at in 0usize..1 << 16,
        bit in 0u8..8,
        random in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cf_envelope_prop_{}.cfck", std::process::id()));
        write_envelope(&path, &payload).unwrap();
        prop_assert_eq!(read_envelope(&path).unwrap(), payload.clone());
        let mut bytes = std::fs::read(&path).unwrap();
        match kind {
            0 => bytes.truncate(at % bytes.len()),
            1 => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << bit;
            }
            _ => bytes = random,
        }
        std::fs::write(&path, &bytes).unwrap();
        let read = read_envelope(&path);
        std::fs::remove_file(&path).ok();
        match (kind, read) {
            // A flipped hex digit's case still spells the same checksum.
            (1, Ok(got)) => prop_assert_eq!(got, payload, "a flipped bit changed the payload"),
            (_, read) => prop_assert!(read.is_err(), "damaged envelope read back"),
        }
    }
}
