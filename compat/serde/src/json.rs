//! The one JSON formatter for numbers and strings, and the value-tree
//! writer built on it.
//!
//! [`Serialize::write_json`](crate::Serialize::write_json) implementations
//! append their scalars through these functions, and [`write_value`]
//! renders a [`Value`] tree through the same ones, so a type written
//! directly and its `to_value()` tree render to the same bytes.

use crate::{Number, Value};
use std::fmt::Write;

/// Append `n` in decimal.
pub(crate) fn write_u64(out: &mut String, n: u64) {
    write!(out, "{n}").expect("writing to a String cannot fail");
}

/// Append `n` in decimal.
pub(crate) fn write_i64(out: &mut String, n: i64) {
    write!(out, "{n}").expect("writing to a String cannot fail");
}

/// Append `x` in its shortest round-trip form; integral floats keep a
/// `.0` suffix so they parse back as `F64`, preserving `Number` variant
/// round-trips. JSON has no NaN or infinity: those write `null`.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{x}").expect("writing to a String cannot fail");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `s` as a quoted JSON string. Runs of characters that need no
/// escape are copied whole.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` and `i + 1` are char boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append the JSON rendering of a value tree: compact with `indent: None`,
/// otherwise one element per line, each nesting level indented by one more
/// `indent`.
pub fn write_value(out: &mut String, v: &Value, indent: Option<&str>) {
    write_nested(out, v, indent, 0);
}

fn write_nested(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::U64(n)) => write_u64(out, *n),
        Value::Number(Number::I64(n)) => write_i64(out, *n),
        Value::Number(Number::F64(x)) => write_f64(out, *x),
        Value::String(s) => write_str(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_nested(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_nested(out, item, indent, depth + 1);
            }
            if !fields.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}
