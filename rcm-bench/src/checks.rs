//! Output checks: committed digests, and what every report must satisfy
//! whatever the seed.

use dht_experiments::spec::{ScenarioReport, ScenarioSpec};
use serde::Value;
use std::collections::BTreeMap;

/// The seed the committed digests were recorded at.
pub const DIGEST_SEED: u64 = 2006;

/// Requests of the query stream (after set-up) covered by the
/// `query_mix/responses` digest.
pub const DIGEST_REQUESTS: usize = 100;

/// FNV-1a 64 of `bytes`, as 16 hex digits.
#[must_use]
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The committed digests of every full-scale output at [`DIGEST_SEED`],
/// keyed `<workload>/<report name>`.
#[must_use]
pub fn committed_digests() -> BTreeMap<String, String> {
    let text = include_str!("../digests.json");
    let Ok(Value::Object(entries)) = serde_json::from_str::<Value>(text) else {
        panic!("digests.json is a JSON object");
    };
    entries
        .into_iter()
        .filter_map(|(key, value)| match value {
            Value::Str(hex) => Some((key, hex)),
            _ => None,
        })
        .collect()
}

/// Checks `bytes` against the committed digest `key`; `Err` names the
/// mismatch. A key with no committed digest is an error too: the table
/// must cover every output.
///
/// # Errors
///
/// Returns a message on a missing or different digest.
pub fn check_digest(
    digests: &BTreeMap<String, String>,
    key: &str,
    bytes: &[u8],
) -> Result<(), String> {
    let actual = fnv1a64_hex(bytes);
    match digests.get(key) {
        Some(expected) if *expected == actual => Ok(()),
        Some(expected) => Err(format!("{key}: digest {actual}, committed {expected}")),
        None => Err(format!("{key}: no committed digest (actual {actual})")),
    }
}

/// What any report of `spec` must satisfy: it parses, its envelope names
/// the spec, and its payload is internally consistent.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_report(spec: &ScenarioSpec, bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|err| format!("{}: {err}", spec.name))?;
    let report: ScenarioReport =
        serde_json::from_str(text).map_err(|err| format!("{}: {err}", spec.name))?;
    if report.spec_hash != spec.content_hash_hex()
        || report.family != spec.family().name()
        || report.seed != spec.seed
    {
        return Err(format!("{}: envelope does not match the spec", spec.name));
    }
    let Value::Array(items) = &report.payload else {
        return check_static_resilience(&spec.name, &report.payload);
    };
    if items.is_empty() {
        return Err(format!("{}: empty payload", spec.name));
    }
    Ok(())
}

/// Routability within `[0, 1]`, every pair budget spent, and fewer routes
/// delivered at every larger failure probability of the grid.
fn check_static_resilience(name: &str, payload: &Value) -> Result<(), String> {
    let number = |value: Option<&Value>| match value {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::U64(x)) => Some(*x as f64),
        _ => None,
    };
    let Some(Value::Array(points)) = payload.get("points") else {
        return Err(format!("{name}: no points"));
    };
    let mut previous: Option<(f64, f64)> = None;
    for point in points {
        let q = number(point.get("failure_probability"));
        let simulated = point.get("simulated");
        let routability = number(simulated.and_then(|s| s.get("routability")));
        let attempted = number(simulated.and_then(|s| s.get("pairs_attempted")));
        let (Some(q), Some(r), Some(attempted)) = (q, routability, attempted) else {
            return Err(format!("{name}: malformed point"));
        };
        if !(0.0..=1.0).contains(&r) || attempted < 1.0 {
            return Err(format!(
                "{name}: routability {r} over {attempted} pairs at q = {q}"
            ));
        }
        if let Some((previous_q, previous_r)) = previous {
            if q > previous_q && r >= previous_r {
                return Err(format!(
                    "{name}: routability did not fall from q = {previous_q} to q = {q}"
                ));
            }
        }
        previous = Some((q, r));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn committed_digests_parse() {
        let digests = committed_digests();
        assert!(digests.keys().any(|key| key.starts_with("paper_batch/")));
        assert!(digests.contains_key("query_mix/responses"));
    }
}
