//! Offline stand-in for `serde`, reduced to the one type its users need:
//! [`Value`], the tree the sibling `serde_json` shim parses JSON text
//! into. Tests, the BENCH_INDEX gate and `benchmark/` read JSON through
//! it; nothing in the workspace serializes through a trait, so there is
//! no `Serialize`/`Deserialize` here.

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (wide enough for `u64` and `i64`).
    Int(i128),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}
