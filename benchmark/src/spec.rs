//! `BENCHMARK.json`, read from the current directory: the names, units
//! and bounds every run reports against.

use serde::Value;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Present on end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    match value.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: missing string '{key}'")),
    }
}

fn list<'a>(root: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match root.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing list '{key}'")),
    }
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    list(root, key)?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: text(m, "better")? == "lower",
                bound: match m.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    Some(Value::Int(b)) => Some(*b as f64),
                    _ => None,
                },
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let raw = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let root = serde_json::parse(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: match root.get("run_seconds") {
                Some(Value::Int(n)) if *n > 0 => *n as u64,
                _ => return Err("BENCHMARK.json: missing 'run_seconds'".to_string()),
            },
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }
}
