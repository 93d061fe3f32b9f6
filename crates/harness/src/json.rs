//! A minimal hand-rolled JSON document model and writer (no crates.io
//! dependencies, offline-friendly).
//!
//! Objects preserve insertion order and all rendering is deterministic —
//! the property the engine's byte-identical-output guarantee depends on.
//! Floats render via Rust's shortest-roundtrip `Display` (never `NaN`/
//! `inf`, which have no JSON spelling; they render as `null`).
//!
//! Keys and string values are `Cow<'static, str>`: a report names its
//! fields and metrics with string literals and `&'static str` metric
//! names, which the tree borrows, so building a document allocates one
//! vector per object or array and a string only where the text is not
//! static (scenario and workload names).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; JSON numbers are not limited to f64 range).
    Int(i128),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<Cow<'static, str>>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<Cow<'static, str>>) -> Json {
        Json::Str(s.into())
    }

    /// Renders the document, pretty-printed with two-space indentation and
    /// a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-7).render(), "-7\n");
        assert_eq!(Json::Num(1.5).render(), "1.5\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::str("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn strings_escape_specials() {
        let s = Json::str("a\"b\\c\nd\u{1}").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn containers_nest_and_keep_order() {
        let doc = Json::obj([
            ("z", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let text = doc.render();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap(), "insertion order kept");
        assert!(text.contains("\"empty\": {}"));
        let expected = "{\n  \"z\": 1,\n  \"a\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn integers_stay_exact_beyond_f64() {
        let big = (1i128 << 63) + 1;
        assert_eq!(Json::Int(big).render().trim(), big.to_string());
    }
}
