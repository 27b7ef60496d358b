//! Offline stand-in for `serde_json`.
//!
//! Provides [`to_string`], [`to_string_pretty`] and [`from_str`] over the
//! in-repo serde stand-in. [`to_string`] has each type write itself
//! ([`Serialize::write_json`]); [`to_string_pretty`] and [`from_str`] go
//! through the value tree. [`walk_fields`] reads an object's fields in one
//! pass with no tree, on the same grammar and error texts as [`from_str`].
//! The writers are deterministic: a value always
//! renders to the same bytes (object fields keep declaration or insertion
//! order, floats print their shortest round-trip form), which the
//! workspace's determinism tests rely on.

use serde::{Deserialize, Number, Serialize, Value};
use std::borrow::Cow;
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
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.finish()?;
    Ok(T::from_value(&value)?)
}

/// One JSON value as [`walk_fields`] reads it: scalars whole, a string
/// borrowed from the text unless it holds an escape, and an array or an
/// object by its kind alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(Cow<'a, str>),
    /// An array, contents checked and skipped.
    Array,
    /// An object, contents checked and skipped.
    Object,
}

impl Scalar<'_> {
    /// The name [`Value::kind`] gives the same value.
    pub fn kind(&self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "bool",
            Scalar::Number(_) => "number",
            Scalar::String(_) => "string",
            Scalar::Array => "array",
            Scalar::Object => "object",
        }
    }
}

/// Read `text` as one JSON value in a single pass, building no value
/// tree. When the value is an object, `field` sees each of its fields in
/// order, duplicates included; a field holding an array or an object gets
/// its kind, its contents checked and skipped. Returns the value itself,
/// an object as [`Scalar::Object`].
///
/// # Errors
///
/// Malformed JSON, with the texts [`from_str`] gives.
pub fn walk_fields<'a>(
    text: &'a str,
    mut field: impl FnMut(&str, Scalar<'a>),
) -> Result<Scalar<'a>, Error> {
    let mut parser = Parser::new(text);
    parser.skip_ws();
    let value = if parser.peek() == Some(b'{') {
        parser.object(|p, key| {
            let value = p.parse_scalar()?;
            field(&key, value);
            Ok(())
        })?;
        Scalar::Object
    } else {
        parser.parse_scalar()?
    };
    parser.finish()?;
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    /// Accept only whitespace after the value.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(())
    }

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
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|p, key| {
                    fields.push((key.into_owned(), p.parse_value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            _ => Ok(match self.parse_scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Number(n) => Value::Number(n),
                Scalar::String(s) => Value::String(s.into_owned()),
                Scalar::Array | Scalar::Object => unreachable!("containers are parsed above"),
            }),
        }
    }

    /// One value; an array or an object is checked and skipped.
    fn parse_scalar(&mut self) -> Result<Scalar<'a>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Scalar::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Scalar::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Scalar::Bool(false)),
            Some(b'"') => Ok(Scalar::String(self.parse_string()?)),
            Some(b'[') => {
                self.array(|p| p.parse_scalar().map(drop))?;
                Ok(Scalar::Array)
            }
            Some(b'{') => {
                self.object(|p, _| p.parse_scalar().map(drop))?;
                Ok(Scalar::Object)
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Scalar::Number(self.parse_number()?)),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// An array, each element read by `item`.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    /// An object, each value read by `field` after its key.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    /// A string, borrowed from the text when it holds no escape.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // `start` and `pos` sit next to ASCII quotes or backslashes (or
            // at the end), so both are char boundaries.
            let run = &self.text[start..self.pos];
            if out.is_empty() {
                out = Cow::Borrowed(run);
            } else {
                out.to_mut().push_str(run);
            }
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
                    let out = out.to_mut();
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

    fn parse_number(&mut self) -> Result<Number, Error> {
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
        let text = &self.text[start..self.pos];
        let bad = || Error::new(format!("bad number `{text}`"));
        Ok(if float {
            Number::F64(text.parse().map_err(|_| bad())?)
        } else if text.starts_with('-') {
            Number::I64(text.parse().map_err(|_| bad())?)
        } else {
            Number::U64(text.parse().map_err(|_| bad())?)
        })
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
    fn walk_fields_reads_the_top_level_in_order() {
        let text =
            r#" {"a":1,"b":"x\"y","c":[1,{"d":null}],"a":{"e":[]},"f":null,"g":-2.5e3,"h":true} "#;
        let mut seen = Vec::new();
        let top = walk_fields(text, |key, value| seen.push((key.to_string(), value))).unwrap();
        assert_eq!(top, Scalar::Object);
        let want = [
            ("a", Scalar::Number(Number::U64(1))),
            ("b", Scalar::String("x\"y".into())),
            ("c", Scalar::Array),
            ("a", Scalar::Object),
            ("f", Scalar::Null),
            ("g", Scalar::Number(Number::F64(-2500.0))),
            ("h", Scalar::Bool(true)),
        ];
        let want: Vec<(String, Scalar)> = want.into_iter().map(|(k, v)| (k.into(), v)).collect();
        assert_eq!(seen, want);

        // A string with no escape is borrowed; an escaped key is decoded.
        let mut keys = Vec::new();
        walk_fields(r#"{"\u0069d":"plain"}"#, |key, value| {
            assert!(matches!(value, Scalar::String(Cow::Borrowed("plain"))), "{value:?}");
            keys.push(key.to_string());
        })
        .unwrap();
        assert_eq!(keys, ["id"]);

        // Other values come back whole, and reach no field.
        let none = |_: &str, v: Scalar| panic!("no fields expected, got {v:?}");
        assert_eq!(walk_fields("[1,{}]", none).unwrap(), Scalar::Array);
        assert_eq!(walk_fields(" 7 ", none).unwrap(), Scalar::Number(Number::U64(7)));
        assert_eq!(walk_fields("\"s\"", none).unwrap().kind(), "string");
    }

    #[test]
    fn walk_fields_fails_with_the_texts_of_from_str() {
        let cases = [
            "",
            "{",
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"a":1 "b":2}"#,
            "[1,",
            r#"{"a":[1,}"#,
            r#"{"a":{"b":}}"#,
            r#"{"a":1} x"#,
            r#"{"a":1.2.3}"#,
            r#"{"a":-}"#,
            r#"{"a":"\q"}"#,
            r#"{"a":"\u12"}"#,
            r#"{"a":"abc"#,
            r#"{"a":nul}"#,
            "nul",
            r#"{"a":18446744073709551616}"#,
        ];
        for text in cases {
            let want = from_str::<Value>(text).unwrap_err();
            assert_eq!(walk_fields(text, |_, _| {}).unwrap_err(), want, "{text}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v: Vec<Vec<f64>> = from_str(" [ [1.0, 2.0] , [ ] ] ").unwrap();
        assert_eq!(v, vec![vec![1.0, 2.0], vec![]]);
    }
}
