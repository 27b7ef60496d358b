//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-repo serde
//! stand-in.
//!
//! Implemented directly on the `proc_macro` token API (no `syn`/`quote`,
//! which are registry crates this offline build cannot fetch). Supports the
//! shapes the workspace actually derives on:
//!
//! - structs with named fields → JSON objects, field order preserved;
//! - single-field tuple structs (newtypes) → the inner value, transparent;
//! - multi-field tuple structs → JSON arrays;
//! - enums whose variants all carry no data → the variant name as a string.
//!
//! Field types never need to be parsed: the generated code calls
//! `Serialize::to_value` / `Deserialize::from_value` and lets type
//! inference resolve the implementation from the struct definition.
//!
//! For named structs and newtypes, `Serialize` also generates
//! `write_json`: a named struct appends each field's name as a literal
//! `{"field":` (or `,"field":`) piece and has the field write itself, so
//! compact output builds no value tree. The other shapes keep the trait's
//! default, which renders `to_value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shapes of type definitions the derives understand.
enum Shape {
    Named { name: String, fields: Vec<String> },
    Tuple { name: String, arity: usize },
    UnitEnum { name: String, variants: Vec<String> },
}

/// Advance past outer attributes (`#[...]`, including doc comments).
fn skip_attributes(tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    while let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() != '#' {
            break;
        }
        tokens.next();
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
            other => panic!("malformed attribute after `#`: {other:?}"),
        }
    }
}

/// Advance past a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_visibility(tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if let Some(TokenTree::Ident(id)) = tokens.peek() {
        if id.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
}

/// Field names of a named-field struct body, in declaration order.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        match tokens.next() {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            None => break,
            other => panic!("expected field name, got {other:?}"),
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field name, got {other:?}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth zero.
        // Grouped tokens ((), [], {}) arrive as single trees, so only `<`/`>`
        // need explicit depth tracking.
        let mut depth = 0i32;
        for tok in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    fields
}

/// Arity of a tuple-struct body.
fn parse_tuple_arity(body: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut arity = 0usize;
    let mut saw_token = false;
    for tok in body {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    arity += 1;
                    saw_token = false;
                    continue;
                }
                _ => {}
            }
        }
        saw_token = true;
    }
    arity + usize::from(saw_token)
}

/// Variant names of an all-unit-variant enum body.
fn parse_unit_variants(body: TokenStream, enum_name: &str) -> Vec<String> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut tokens);
        match tokens.next() {
            Some(TokenTree::Ident(id)) => variants.push(id.to_string()),
            None => break,
            other => panic!("expected variant name in enum {enum_name}, got {other:?}"),
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            Some(other) => panic!(
                "derive only supports unit variants; variant `{}` of {enum_name} carries data ({other:?})",
                variants.last().unwrap()
            ),
        }
    }
    variants
}

/// Parse a `struct`/`enum` item into its [`Shape`].
fn parse_shape(input: TokenStream) -> Shape {
    let mut tokens = input.into_iter().peekable();
    skip_attributes(&mut tokens);
    skip_visibility(&mut tokens);

    let kind = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name, got {other:?}"),
    };

    // Reject generics: none of the workspace's serialized types are
    // generic, and supporting them would need bound rewriting.
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("derive(Serialize/Deserialize) stand-in does not support generic type {name}");
        }
    }

    match (kind.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Named { name, fields: parse_named_fields(g.stream()) }
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple { name, arity: parse_tuple_arity(g.stream()) }
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let variants = parse_unit_variants(g.stream(), &name);
            Shape::UnitEnum { name, variants }
        }
        (k, other) => panic!("unsupported item for derive: {k} {name} {other:?}"),
    }
}

/// `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let body = match parse_shape(input) {
        Shape::Named { name, fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            // A field name is an identifier, so it needs no JSON escape;
            // `{:?}` quotes each piece as a Rust string literal.
            let writes: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let piece = format!("{}\"{f}\":", if i == 0 { '{' } else { ',' });
                    format!(
                        "out.push_str({piece:?}); \
                         ::serde::Serialize::write_json(&self.{f}, out);"
                    )
                })
                .collect();
            let close = if fields.is_empty() { "{}" } else { "}" };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(::std::vec![{}])\n\
                     }}\n\
                     fn write_json(&self, out: &mut ::std::string::String) {{\n\
                         {} out.push_str({close:?});\n\
                     }}\n\
                 }}",
                entries.join(", "),
                writes.join(" ")
            )
        }
        Shape::Tuple { name, arity: 1 } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
                 fn write_json(&self, out: &mut ::std::string::String) {{\n\
                     ::serde::Serialize::write_json(&self.0, out)\n\
                 }}\n\
             }}"
        ),
        Shape::Tuple { name, arity } => {
            let items: Vec<String> =
                (0..arity).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Array(::std::vec![{}])\n\
                     }}\n\
                 }}",
                items.join(", ")
            )
        }
        Shape::UnitEnum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    format!(
                        "{name}::{v} => ::serde::Value::String(\
                         ::std::string::String::from(\"{v}\"))"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {} }}\n\
                     }}\n\
                 }}",
                arms.join(", ")
            )
        }
    };
    body.parse().expect("generated Serialize impl parses")
}

/// `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let body = match parse_shape(input) {
        Shape::Named { name, fields } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         v.field(\"{f}\").ok_or_else(|| \
                         ::serde::DeError::missing_field(\"{name}\", \"{f}\"))?)?"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n\
                         if v.as_object().is_none() {{\n\
                             return ::std::result::Result::Err(\
                                 ::serde::DeError::type_mismatch(\"object\", v));\n\
                         }}\n\
                         ::std::result::Result::Ok({name} {{ {} }})\n\
                     }}\n\
                 }}",
                inits.join(", ")
            )
        }
        Shape::Tuple { name, arity: 1 } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> \
                     ::std::result::Result<Self, ::serde::DeError> {{\n\
                     ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))\n\
                 }}\n\
             }}"
        ),
        Shape::Tuple { name, arity } => {
            let items: Vec<String> = (0..arity)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(items.get({i}).ok_or_else(|| \
                         ::serde::DeError::new(\"tuple too short\"))?)?"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n\
                         let items = v.as_array().ok_or_else(|| \
                             ::serde::DeError::type_mismatch(\"array\", v))?;\n\
                         ::std::result::Result::Ok({name}({}))\n\
                     }}\n\
                 }}",
                items.join(", ")
            )
        }
        Shape::UnitEnum { name, variants } => {
            let arms: Vec<String> =
                variants.iter().map(|v| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v})")).collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::String(s) => match s.as_str() {{\n\
                                 {},\n\
                                 other => ::std::result::Result::Err(::serde::DeError::new(\
                                     ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                             }},\n\
                             _ => ::std::result::Result::Err(\
                                 ::serde::DeError::type_mismatch(\"string\", v)),\n\
                         }}\n\
                     }}\n\
                 }}",
                arms.join(",\n")
            )
        }
    };
    body.parse().expect("generated Deserialize impl parses")
}
