//! JSON text output, matching `serde_json`'s compact and pretty formats.

use crate::value::Json;
use std::fmt;

impl fmt::Display for Json {
    /// Compact form: no whitespace, `{"a":1,"b":[2,3]}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, None, 0)
    }
}

impl Json {
    /// Pretty form: two-space indent, `": "` key separator — the
    /// `serde_json::to_string_pretty` layout.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        // Writing to a String cannot fail.
        let _ = write_value(&mut PrettyFmt(&mut out), self, Some(2), 0);
        out
    }
}

/// Adapter so the same writer serves `Display` and `pretty()`.
struct PrettyFmt<'a>(&'a mut String);

impl fmt::Write for PrettyFmt<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.push_str(s);
        Ok(())
    }
}

fn write_value<W: fmt::Write>(
    out: &mut W,
    v: &Json,
    indent: Option<usize>,
    depth: usize,
) -> fmt::Result {
    match v {
        Json::Null => out.write_str("null"),
        Json::Bool(true) => out.write_str("true"),
        Json::Bool(false) => out.write_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => write_seq(out, items.iter(), indent, depth, ('[', ']'), |o, it, d| {
            write_value(o, it, indent, d)
        }),
        Json::Obj(fields) => write_seq(
            out,
            fields.iter(),
            indent,
            depth,
            ('{', '}'),
            |o, (k, val), d| {
                write_string(o, k)?;
                o.write_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(o, val, indent, d)
            },
        ),
    }
}

fn write_seq<W: fmt::Write, T>(
    out: &mut W,
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut W, T, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(brackets.0)?;
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.write_char('\n')?;
            for _ in 0..step * (depth + 1) {
                out.write_char(' ')?;
            }
        }
        write_item(out, item, depth + 1)?;
        if i + 1 < n {
            out.write_char(',')?;
        }
    }
    if n > 0 {
        if let Some(step) = indent {
            out.write_char('\n')?;
            for _ in 0..step * depth {
                out.write_char(' ')?;
            }
        }
    }
    out.write_char(brackets.1)
}

/// Numbers: integers without a fractional part print as integers; other
/// finite values use Rust's shortest round-trip representation. Non-finite
/// values have no JSON encoding and degrade to `null` (the trace sinks
/// must never fail mid-run because a diverged loss went infinite).
/// Public so a writer that renders JSON text without building a [`Json`]
/// tree prints numbers byte for byte as the tree would.
pub fn write_number<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return out.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// A JSON string literal: `s` quoted, with `"`, `\` and control
/// characters escaped exactly as [`Json::Str`] prints them.
pub fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{08}' => out.write_str("\\b")?,
            '\u{0C}' => out.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", Json::Str("fl".into())),
            ("n", Json::Num(3.0)),
            ("acc", Json::Num(0.5125)),
            ("flags", Json::arr(vec![Json::Bool(true), Json::Null])),
            ("inner", Json::obj(vec![("k", Json::Num(-2.0))])),
        ])
    }

    #[test]
    fn compact_matches_serde_json_layout() {
        assert_eq!(
            sample().to_string(),
            r#"{"name":"fl","n":3,"acc":0.5125,"flags":[true,null],"inner":{"k":-2}}"#
        );
    }

    #[test]
    fn pretty_indents_two_spaces() {
        let expected = "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}";
        let v = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::arr(vec![Json::Num(2.0)])),
        ]);
        assert_eq!(v.pretty(), expected);
    }

    #[test]
    fn empty_containers_stay_tight() {
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn strings_escape_controls() {
        assert_eq!(
            Json::Str("a\"b\\c\n\u{01}".into()).to_string(),
            r#""a\"b\\c\n\u0001""#
        );
    }

    #[test]
    fn numbers_format_like_serde_json() {
        assert_eq!(Json::Num(1.0).to_string(), "1");
        assert_eq!(Json::Num(-0.25).to_string(), "-0.25");
        assert_eq!(Json::Num(1e20).to_string(), "100000000000000000000");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
