//! Offline stand-in for `serde_json`.
//!
//! Provides [`to_string`], [`to_string_pretty`] and [`from_str`] over the
//! in-repo serde stand-in. [`to_string`] has each type write itself
//! ([`Serialize::write_json`]); [`to_string_pretty`] and [`from_str`] go
//! through the value tree. The writers are deterministic: a value always
//! renders to the same bytes (object fields keep declaration or insertion
//! order, floats print their shortest round-trip form), which the
//! workspace's determinism tests rely on.

use serde::{Deserialize, Number, Serialize, Value};
use std::fmt;

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Render `value` as compact JSON.
///
/// # Errors
///
/// Never fails; the `Result` mirrors the upstream signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Render `value` as indented JSON.
///
/// # Errors
///
/// Never fails; see [`to_string`].
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::json::write_value(&mut out, &value.to_value(), Some("  "));
    Ok(out)
}

/// Parse JSON text into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(T::from_value(&value)?)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.parse_value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape sequence"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::new(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        let number = if float {
            Number::F64(text.parse().map_err(|_| Error::new(format!("bad number `{text}`")))?)
        } else if let Some(rest) = text.strip_prefix('-') {
            let _ = rest;
            Number::I64(text.parse().map_err(|_| Error::new(format!("bad number `{text}`")))?)
        } else {
            Number::U64(text.parse().map_err(|_| Error::new(format!("bad number `{text}`")))?)
        };
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let v: u64 = from_str(&to_string(&123u64).unwrap()).unwrap();
        assert_eq!(v, 123);
        let v: f64 = from_str(&to_string(&1.5f64).unwrap()).unwrap();
        assert_eq!(v, 1.5);
        let v: String = from_str(&to_string(&"a \"b\"\n".to_string()).unwrap()).unwrap();
        assert_eq!(v, "a \"b\"\n");
        let v: Vec<i64> = from_str(&to_string(&vec![-1i64, 0, 9]).unwrap()).unwrap();
        assert_eq!(v, vec![-1, 0, 9]);
    }

    #[test]
    fn u64_max_round_trips() {
        let v: u64 = from_str(&to_string(&u64::MAX).unwrap()).unwrap();
        assert_eq!(v, u64::MAX);
    }

    #[test]
    fn float_shortest_form_round_trips() {
        for x in [0.1f64, 1.0 / 3.0, 1e300, -2.5e-9, 42.0] {
            let v: f64 = from_str(&to_string(&x).unwrap()).unwrap();
            assert_eq!(v.to_bits(), x.to_bits(), "{x} must round-trip exactly");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<u64>("{").is_err());
    }

    /// `to_string` of `x`, checked against rendering its value tree.
    fn direct_equals_tree<T: Serialize>(x: &T) -> String {
        let direct = to_string(x).unwrap();
        assert_eq!(direct, to_string(&x.to_value()).unwrap());
        direct
    }

    #[test]
    fn direct_writer_matches_the_tree_on_floats() {
        let subnormal = f64::from_bits(1);
        assert!(subnormal.is_subnormal());
        let cases = [
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (42.0, "42.0"),
            (-3.0, "-3.0"),
            (1e-7, "0.0000001"),
            (f64::MIN_POSITIVE, ""),
            (subnormal, ""),
            (1e300, ""),
            (0.1, "0.1"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (x, want) in cases {
            let got = direct_equals_tree(&x);
            if !want.is_empty() {
                assert_eq!(got, want, "{x:?}");
            }
            if x.is_finite() {
                let back: f64 = from_str(&got).unwrap();
                assert_eq!(back.to_bits(), x.to_bits(), "{x:?} round-trips");
            }
        }
        assert!(direct_equals_tree(&1e300).ends_with(".0"));
        assert_eq!(direct_equals_tree(&1.5f32), "1.5");
        assert_eq!(direct_equals_tree(&f32::NAN), "null");
    }

    #[test]
    fn direct_writer_matches_the_tree_on_integers() {
        assert_eq!(direct_equals_tree(&u64::MAX), "18446744073709551615");
        assert_eq!(direct_equals_tree(&i64::MIN), "-9223372036854775808");
        assert_eq!(direct_equals_tree(&i64::MAX), "9223372036854775807");
        assert_eq!(direct_equals_tree(&0u8), "0");
        assert_eq!(direct_equals_tree(&-1i32), "-1");
        assert_eq!(direct_equals_tree(&7usize), "7");
        assert_eq!(direct_equals_tree(&true), "true");
    }

    #[test]
    fn direct_writer_matches_the_tree_on_strings() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let got = direct_equals_tree(&controls);
        assert!(got.starts_with(r#""\u0000\u0001"#), "{got}");
        assert!(got.contains(r#"\u0008\t\n\u000b\u000c\r\u000e"#), "{got}");
        assert!(got.ends_with(r#"\u001f""#), "{got}");
        assert_eq!(from_str::<String>(&got).unwrap(), controls);

        let cases = [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("a\"b", r#""a\"b""#),
            ("back\\slash", r#""back\\slash""#),
            ("line\nbreak", r#""line\nbreak""#),
            ("\u{7f}", "\"\u{7f}\""),
            ("é ü → 中文 🦀", "\"é ü → 中文 🦀\""),
            ("\"\u{1}中\\", r#""\"\u0001中\\""#),
        ];
        for (s, want) in cases {
            assert_eq!(direct_equals_tree(&s), want);
            assert_eq!(direct_equals_tree(&s.to_string()), want);
            assert_eq!(from_str::<String>(want).unwrap(), s);
        }
    }

    #[derive(serde::Serialize)]
    struct Empty {}

    #[derive(serde::Serialize)]
    struct Wrapper(Vec<f64>);

    #[derive(serde::Serialize)]
    struct Nested {
        name: String,
        series: Option<Vec<Option<f64>>>,
        absent: Option<Vec<Option<f64>>>,
        wrapped: Wrapper,
        table: std::collections::BTreeMap<String, u64>,
        empty: Empty,
    }

    #[test]
    fn direct_writer_matches_the_tree_on_containers_and_derives() {
        assert_eq!(direct_equals_tree(&Empty {}), "{}");
        assert_eq!(direct_equals_tree(&Vec::<u64>::new()), "[]");
        assert_eq!(direct_equals_tree(&[1u8, 2]), "[1,2]");
        let series = Some(vec![Some(1.0), None, Some(f64::NAN), Some(-2.5e-9)]);
        assert_eq!(direct_equals_tree(&series), "[1.0,null,null,-0.0000000025]");
        let table = [("b".to_string(), 2u64), ("a\n".to_string(), 1)].into_iter().collect();
        let nested = Nested {
            name: "n\"1".into(),
            series,
            absent: None,
            wrapped: Wrapper(vec![0.5]),
            table,
            empty: Empty {},
        };
        assert_eq!(
            direct_equals_tree(&nested),
            r#"{"name":"n\"1","series":[1.0,null,null,-0.0000000025],"absent":null,"#.to_owned()
                + r#""wrapped":[0.5],"table":{"a\n":1,"b":2},"empty":{}}"#
        );
        assert_eq!(direct_equals_tree(&&nested), direct_equals_tree(&nested));
    }

    #[test]
    fn pretty_output_indents_the_tree() {
        let v: Value = from_str(r#"{"a":[1,2.5],"b":{},"c":[]}"#).unwrap();
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    2.5\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
        assert_eq!(to_string(&v).unwrap(), r#"{"a":[1,2.5],"b":{},"c":[]}"#);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v: Vec<Vec<f64>> = from_str(" [ [1.0, 2.0] , [ ] ] ").unwrap();
        assert_eq!(v, vec![vec![1.0, 2.0], vec![]]);
    }
}
