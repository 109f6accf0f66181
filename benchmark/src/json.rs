//! Two shorthands for building `serde_json` values by hand.

use serde_json::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}
