//! JSON artifact output.
//!
//! Every figure result serializes to a JSON document alongside its CSV, so
//! downstream tooling (plotting scripts, regression checks) can consume the
//! exact numbers EXPERIMENTS.md reports without re-running anything.

use std::path::Path;

use serde::Serialize;

/// Serializes `value` as pretty-printed JSON under `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates serialization and filesystem errors.
pub fn write_json<T: Serialize + ?Sized>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig8, Effort};

    #[test]
    fn figure_results_round_trip_through_json() {
        let r = fig8::run(Effort::Quick);
        let dir = std::env::temp_dir().join("smrp-report-test");
        let path = dir.join("fig8.json");
        write_json(&path, &r).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let points = parsed["points"].as_array().unwrap();
        assert_eq!(points.len(), 4);
        // The JSON carries the same headline mean as the in-memory result.
        let json_mean = points[2]["rd_rel"]["mean"].as_f64().unwrap();
        assert!((json_mean - r.headline().rd_rel.mean).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nested_directories_are_created() {
        let dir = std::env::temp_dir().join("smrp-report-test-nested");
        let path = dir.join("a").join("b").join("x.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
