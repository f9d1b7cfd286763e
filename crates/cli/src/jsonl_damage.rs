//! Damaged JSONL streams for the property tests of the `report` and
//! `monitor` readers: each line of a stream comes from a well-formed
//! template and is kept, cut short, given a value of the wrong type, or
//! replaced with random bytes.

use proptest::prelude::*;
use serde_json::Value;

/// What happens to one line.
#[derive(Debug, Clone)]
pub enum Damage {
    Keep,
    /// Cut to a prefix of this many bytes (modulo the line length).
    Truncate(usize),
    /// Replace the `n`th value of the line's JSON tree (depth first,
    /// modulo the value count) with an odd value of kind `k`.
    Retype(usize, u8),
    /// Replace the line with these bytes, read lossily as UTF-8.
    Random(Vec<u8>),
}

/// A stream of up to 16 lines: `(template index, damage)` pairs.
pub fn stream(templates: usize) -> impl Strategy<Value = Vec<(usize, Damage)>> {
    let damage = (
        0u8..4,
        0usize..256,
        0u8..9,
        proptest::collection::vec(0u8..=255, 0..48),
    )
        .prop_map(|(kind, at, k, bytes)| match kind {
            0 => Damage::Keep,
            1 => Damage::Truncate(at),
            2 => Damage::Retype(at, k),
            _ => Damage::Random(bytes),
        });
    proptest::collection::vec((0..templates, damage), 0..16)
}

/// The stream text for `picks` over `templates`.
pub fn build(templates: &[&str], picks: &[(usize, Damage)]) -> String {
    let lines: Vec<String> = picks
        .iter()
        .map(|(t, damage)| {
            let line = templates[*t];
            match damage {
                Damage::Keep => line.to_string(),
                Damage::Truncate(at) => line[..at % line.len().max(1)].to_string(),
                Damage::Retype(n, k) => {
                    let mut v: Value = serde_json::from_str(line).expect("templates are JSON");
                    let mut index = n % count_values(&v).max(1);
                    retype(&mut v, &mut index, &odd_value(*k));
                    serde_json::to_string(&v).expect("values serialise")
                }
                Damage::Random(bytes) => String::from_utf8_lossy(bytes).into_owned(),
            }
        })
        .collect();
    lines.join("\n")
}

/// Values of every JSON kind, including extremes.
fn odd_value(k: u8) -> Value {
    match k {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::Str("x".into()),
        3 => Value::Array(vec![Value::UInt(1)]),
        4 => Value::Array(vec![
            Value::UInt(1),
            Value::Str("y".into()),
            Value::Float(2.5),
        ]),
        5 => Value::Object(vec![]),
        6 => Value::Float(-1e308),
        7 => Value::Int(-7),
        _ => Value::UInt(u64::MAX),
    }
}

/// Values in the tree under (and excluding) `v`.
fn count_values(v: &Value) -> usize {
    match v {
        Value::Array(items) => items.iter().map(|c| 1 + count_values(c)).sum(),
        Value::Object(fields) => fields.iter().map(|(_, c)| 1 + count_values(c)).sum(),
        _ => 0,
    }
}

/// Replaces the `index`th value under `v`, depth first; true once done.
fn retype(v: &mut Value, index: &mut usize, with: &Value) -> bool {
    let children: Vec<&mut Value> = match v {
        Value::Array(items) => items.iter_mut().collect(),
        Value::Object(fields) => fields.iter_mut().map(|(_, c)| c).collect(),
        _ => return false,
    };
    for child in children {
        if *index == 0 {
            *child = with.clone();
            return true;
        }
        *index -= 1;
        if retype(child, index, with) {
            return true;
        }
    }
    false
}
