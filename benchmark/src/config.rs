//! `BENCHMARK.json` is the only place workload names, metric names, units
//! and regression bounds are written down; the binary reads them from it.

use serde::Value;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the median by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub run_seconds: u64,
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn string(value: &Value, key: &str) -> Result<String, String> {
    match value.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` must be a string")),
    }
}

fn array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match value.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("`{key}` must be an array")),
    }
}

fn number(value: &Value, key: &str) -> Result<f64, String> {
    match value.get(key) {
        Some(Value::Int(n)) => Ok(*n as f64),
        Some(Value::UInt(n)) => Ok(*n as f64),
        Some(Value::Float(f)) => Ok(*f),
        _ => Err(format!("`{key}` must be a number")),
    }
}

fn metrics(value: &Value, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    array(value, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                bound: bounded.then(|| number(m, "bound")).transpose()?,
            })
        })
        .collect()
}

impl Config {
    pub fn parse(text: &str) -> Result<Config, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Ok(Config {
            run_seconds: number(&value, "run_seconds")? as u64,
            workloads: array(&value, "workloads")?
                .iter()
                .map(|w| Ok((string(w, "name")?, string(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics(&value, "end_to_end", true)?,
            per_layer: metrics(&value, "per_layer", false)?,
        })
    }

    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_shape() {
        let config = Config::parse(
            r#"{
              "command": ["x"], "paths": ["p"], "run_seconds": 10,
              "workloads": [{"name": "hit", "why": "cache used"}],
              "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
              "per_layer": [{"name": "cache_hits", "unit": "count", "better": "higher"}]
            }"#,
        )
        .unwrap();
        assert_eq!(config.run_seconds, 10);
        assert_eq!(config.workloads, vec![("hit".into(), "cache used".into())]);
        assert_eq!(config.end_to_end[0].bound, Some(0.25));
        assert_eq!(config.per_layer[0].bound, None);
    }

    #[test]
    fn rejects_a_missing_bound() {
        let err = Config::parse(
            r#"{"run_seconds": 1, "workloads": [],
                "end_to_end": [{"name": "a", "unit": "s", "better": "lower"}],
                "per_layer": []}"#,
        )
        .unwrap_err();
        assert!(err.contains("bound"), "{err}");
    }
}
