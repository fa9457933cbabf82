//! Hand-rolled JSON emission — the workspace builds offline with no
//! serialization dependency, so the escaper lives here once and every
//! JSON-lines writer (bench harness, experiment binaries, oracle reports)
//! shares it.

use std::fmt::Write as _;

/// A JSON scalar.
#[derive(Debug, Clone)]
pub enum Json {
    /// A string value.
    S(String),
    /// A float (NaN/∞ serialize as `null`).
    F(f64),
    /// An integer.
    I(i64),
    /// A boolean.
    B(bool),
}

/// Escapes a string for the inside of a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Serializes one flat JSON object from field pairs.
pub fn json_obj(fields: &[(&str, Json)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(k));
        match v {
            Json::S(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Json::F(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            Json::F(_) => out.push_str("null"),
            Json::I(i) => {
                let _ = write!(out, "{i}");
            }
            Json::B(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_characters_escape_like_python_json() {
        // the bytes Python's `json.dumps` emits for these strings, which
        // `json.loads` reads back to the originals
        assert_eq!(json_escape("a\nb"), r"a\nb");
        assert_eq!(json_escape("a\tb"), r"a\tb");
        assert_eq!(json_escape("a\u{1}b"), r"a\u0001b");
        assert_eq!(json_escape("q\"\\\r"), r#"q\"\\\r"#);
        assert_eq!(
            json_obj(&[("bench\n", Json::S("x\t\u{1}".into()))]),
            r#"{"bench\n":"x\t\u0001"}"#
        );
    }
}
