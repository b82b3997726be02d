//! A minimal JSON value model and pretty-printer for the experiment
//! artifacts (`--json` output and `BENCH_parallel.json`). Dependency-free
//! on purpose: the repo builds offline, so the usual serde stack is not
//! available.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (kept apart from floats so counters print exactly).
    Int(i64),
    /// A float; non-finite values render as `null` per RFC 8259.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Build an object from `(key, value)` pairs, preserving order.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Types that know their JSON representation (the experiment row structs).
pub trait ToJson {
    /// Convert to a [`Json`] value.
    fn to_json(&self) -> Json;
}

/// Serialise a slice of rows to a JSON array.
pub fn rows<T: ToJson>(rows: &[T]) -> Json {
    Json::Arr(rows.iter().map(ToJson::to_json).collect())
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest round-trip form is valid JSON, except that whole
        // floats print without a dot; add one so readers that distinguish
        // int from float see what was meant.
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

impl Json {
    fn write_into(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) => number(out, *v),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&PAD.repeat(indent + 1));
                    item.write_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&PAD.repeat(indent + 1));
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
        }
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Int(-7).pretty(), "-7");
        assert_eq!(Json::from(2.5).pretty(), "2.5");
        assert_eq!(Json::from(f64::NAN).pretty(), "null");
        assert_eq!(Json::from("a\"b\nc").pretty(), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(Json::from(3.0).pretty(), "3.0");
        assert_eq!(Json::from(-10.0).pretty(), "-10.0");
        assert_eq!(Json::from(0.0).pretty(), "0.0");
    }

    #[test]
    fn nested_structure_renders() {
        let v = obj([
            ("name", Json::from("x")),
            ("runs", Json::from(vec![1i64, 2, 3])),
            ("empty", Json::Arr(Vec::new())),
            ("inner", obj([("ok", Json::from(true))])),
        ]);
        let s = v.pretty();
        assert!(s.starts_with("{\n  \"name\": \"x\""));
        assert!(s.contains("\"runs\": [\n    1,\n    2,\n    3\n  ]"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.contains("\"inner\": {\n    \"ok\": true\n  }"));
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(Json::from("\u{1}").pretty(), "\"\\u0001\"");
    }

    #[test]
    fn big_u64_degrades_to_float() {
        // beyond i64: still serialises (as a float) rather than panicking
        let v = Json::from(u64::MAX);
        assert!(matches!(v, Json::Num(_)));
    }
}
