//! The request reader against the value-tree reader it replaced.
//!
//! `parse_request` reads a line in one pass over its fields. The tree
//! reader below parses the whole line into a `Value`, then looks each
//! field up by name; it is kept here as the reference. On every line
//! either both give the same `Request` or both fail with the same text:
//! the lines perfbench, the e2e test, CI and the protocol docs send,
//! unknown and nested fields, nulls, duplicate keys, escapes, edge-case
//! numbers, whitespace, malformed lines, and every prefix of each line.

use mica_serve::client;
use mica_serve::protocol::{parse_request, Request, RequestKind};
use serde::{DeError, Value};

fn get_str(v: &Value, field: &str) -> Result<Option<String>, DeError> {
    match v.field(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(other) => {
            Err(DeError::new(format!("`{field}` must be a string, got {}", other.kind())))
        }
    }
}

fn get_u64(v: &Value, field: &str) -> Result<Option<u64>, DeError> {
    match v.field(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(n)) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| DeError::new(format!("`{field}` must be a non-negative integer"))),
        Some(other) => {
            Err(DeError::new(format!("`{field}` must be a number, got {}", other.kind())))
        }
    }
}

fn get_f64(v: &Value, field: &str) -> Result<Option<f64>, DeError> {
    match v.field(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(n)) => Ok(Some(n.as_f64())),
        Some(other) => {
            Err(DeError::new(format!("`{field}` must be a number, got {}", other.kind())))
        }
    }
}

fn from_value(v: &Value) -> Result<Request, DeError> {
    if v.as_object().is_none() {
        return Err(DeError::new(format!("request must be an object, got {}", v.kind())));
    }
    let id = get_str(v, "id")?.ok_or_else(|| DeError::new("request is missing `id`"))?;
    let kind = get_str(v, "kind")?.ok_or_else(|| DeError::new("request is missing `kind`"))?;
    let kind = match kind.as_str() {
        "table" => RequestKind::Table,
        "zoo" => RequestKind::Zoo,
        "asm" => RequestKind::Asm,
        "ops" => RequestKind::Ops,
        _ => {
            return Err(DeError::new(format!(
                "unknown kind `{kind}` (want table, zoo, asm or ops)"
            )))
        }
    };
    Ok(Request {
        id,
        kind,
        name: get_str(v, "name")?,
        seed: get_u64(v, "seed")?,
        scale: get_f64(v, "scale")?,
        asm: get_str(v, "asm")?,
        budget: get_u64(v, "budget")?,
        deadline_ms: get_u64(v, "deadline_ms")?,
        k: get_u64(v, "k")?,
        metric: get_str(v, "metric")?,
        op: get_str(v, "op")?,
    })
}

/// The reader before the one-pass walker: a value tree, then each field
/// looked up by name (the first of duplicate keys wins).
fn tree_reader(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    from_value(&value).map_err(|e| e.to_string())
}

/// Assert both readers agree on `line`, `scale` bit for bit; returns
/// whether it parsed.
fn agree(line: &str) -> bool {
    let (got, want) = (parse_request(line), tree_reader(line));
    assert_eq!(got, want, "{line:?}");
    let bits =
        |r: &Result<Request, String>| r.as_ref().ok().and_then(|r| r.scale).map(f64::to_bits);
    assert_eq!(bits(&got), bits(&want), "{line:?}");
    got.is_ok()
}

fn table(id: &str, name: &str, k: u64, metric: &str) -> Request {
    let mut req = Request::new(id, RequestKind::Table);
    req.name = Some(name.into());
    req.k = Some(k);
    req.metric = Some(metric.into());
    req
}

/// The lines the repository's own clients send.
fn sent_lines() -> Vec<String> {
    let mut reqs = Vec::new();
    // perfbench: seeded table lookups, and zoo misses with every option.
    reqs.push(table("q0", "SPEC2000/gzip/program", 1, "euclidean"));
    reqs.push(table("q17", "MiBench/sha/large", 10, "cosine"));
    let mut zoo = Request::new("q3", RequestKind::Zoo);
    zoo.name = Some("MediaBench/unepic/test2".into());
    zoo.seed = Some(0x9e37_79b9_7f4a_7c15);
    zoo.scale = Some(0.05);
    zoo.deadline_ms = Some(30_000);
    zoo.k = Some(5);
    zoo.metric = Some("euclidean".into());
    reqs.push(zoo.clone());
    zoo.scale = None;
    reqs.push(zoo);
    // The e2e test and CI, through `mica-serve-client`.
    for (id, text, deadline) in [
        ("slowpoke", "li x7, 50\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt", Some(100)),
        ("runaway", "loop:\njmp loop\n", Some(300)),
        ("boom", "li x7, 10\nhalt", None),
    ] {
        let mut asm = Request::new(id, RequestKind::Asm);
        asm.asm = Some(text.into());
        asm.deadline_ms = deadline;
        reqs.push(asm);
    }
    let mut budgeted = Request::new("b", RequestKind::Asm);
    budgeted.asm = Some("halt".into());
    budgeted.budget = Some(500);
    reqs.push(budgeted);
    let mut plain = Request::new("ok-0", RequestKind::Table);
    plain.name = Some("SPEC2000/gzip/program".into());
    plain.k = Some(3);
    reqs.push(plain);
    let mut seeded = Request::new("zoo-1", RequestKind::Zoo);
    seeded.name = Some("MiBench/sha/large".into());
    seeded.seed = Some(12345);
    reqs.push(seeded);
    for op in ["health", "metrics", "stats", "ready"] {
        let mut ops = Request::new(format!("{op}-1"), RequestKind::Ops);
        ops.op = Some(op.into());
        reqs.push(ops);
    }
    let mut lines: Vec<String> = reqs.iter().map(client::render_request).collect();
    lines.extend(reqs.iter().map(|r| serde_json::to_string(r).unwrap()));
    lines.extend(
        [
            // perfbench's readiness probe and the e2e test's raw lines.
            r#"{"id":"ready","kind":"ops","op":"ready"}"#,
            r#"{"id":"mangled","kind":"nope"}"#,
            // The protocol docs' examples.
            r#"{"id":"q1","kind":"table","name":"MiBench/sha/large","k":3}"#,
            r#"{"id":"q2","kind":"zoo","name":"MiBench/sha/large","seed":7,"scale":0.5}"#,
            r#"{"id":"q3","kind":"asm","asm":"li x7, 99\nloop:\naddi x7, x7, -1\nbne x7, x0, loop\nhalt","budget":50000,"deadline_ms":500}"#,
            r#"{"id":"q4","kind":"ops","op":"metrics"}"#,
        ]
        .map(String::from),
    );
    lines
}

#[test]
fn the_one_pass_reader_agrees_with_the_tree_reader() {
    let sent = sent_lines();
    for line in &sent {
        let parsed = agree(line);
        assert_eq!(parsed, !line.contains("nope"), "{line}");
        // The server hands the reader each line with its newline.
        agree(&format!("{line}\n"));
    }

    let ok = [
        // Unknown fields, nested ones too, before, between and after.
        r#"{"x":{"a":[1,{"b":null}],"c":"s"},"id":"a","y":[[],{}],"kind":"table","z":true,"name":"n"}"#,
        r#"{"id":"a","kind":"ops","deep":[[[[{"k":"v"}]]]],"op":"stats","e":{}}"#,
        // `null` is absent.
        r#"{"id":"a","kind":"table","name":null,"k":null,"seed":null,"scale":null}"#,
        // Duplicate keys: the first wins, whatever follows it.
        r#"{"id":"a","kind":"table","k":3,"k":5}"#,
        r#"{"id":"a","id":"b","kind":"zoo","kind":"table"}"#,
        r#"{"id":"a","kind":"table","k":3,"k":"x"}"#,
        r#"{"id":"a","kind":"table","k":null,"k":3}"#,
        // Escapes, in values and in a key.
        r#"{"id":"q\"1\\","kind":"table","name":"a\nb\u00e9c"}"#,
        r#"{"id":"é","kind":"asm","asm":"li x7, 1\nhalt\n","metric":"caf\u00e9"}"#,
        r#"{"id":"\t\r\b\f\/","kind":"ops"}"#,
        r#"{"\u0069d":"a","kind":"table","name":"\u00e9\"\\"}"#,
        // Edge-case numbers.
        r#"{"id":"a","kind":"zoo","scale":0.5}"#,
        r#"{"id":"a","kind":"zoo","scale":1e-3}"#,
        r#"{"id":"a","kind":"zoo","scale":-0.0}"#,
        r#"{"id":"a","kind":"zoo","scale":1e300}"#,
        r#"{"id":"a","kind":"zoo","scale":5,"k":3.0,"budget":1E2}"#,
        r#"{"id":"a","kind":"zoo","scale":-5}"#,
        r#"{"id":"a","kind":"zoo","seed":18446744073709551615}"#,
        r#"{"id":"a","kind":"zoo","seed":0,"deadline_ms":0,"k":0}"#,
        // Surrounding whitespace.
        " \t\r\n{ \"id\" : \"a\" ,\n\"kind\" :\t\"ops\" } \r\n",
    ];
    for line in ok {
        assert!(agree(line), "{line}");
    }

    let malformed = [
        // Truncated, and trailing characters.
        r#"{"id":"a","kind":"tab"#,
        r#"{"id":"a","kind":"table""#,
        r#"{"id":"a","kind":"table","#,
        r#"{"id":"a","kind":"ops"} x"#,
        r#"{"id":"a","kind":"ops"}{}"#,
        // Not an object.
        "[1,2]",
        "[]",
        "null",
        "42",
        r#""table""#,
        "",
        "   ",
        "not json",
        "xxxxxxxx",
        // Missing or unknown `id` and `kind`.
        r#"{"kind":"table"}"#,
        r#"{"id":"a"}"#,
        r#"{"id":null,"kind":"table"}"#,
        "{}",
        r#"{"id":"a","kind":"nope"}"#,
        r#"{"id":"a","kind":"TABLE"}"#,
        // Wrong value types.
        r#"{"id":5,"kind":"ops"}"#,
        r#"{"id":"a","kind":true}"#,
        r#"{"id":"a","kind":"table","name":7}"#,
        r#"{"id":"a","kind":"zoo","seed":"7"}"#,
        r#"{"id":"a","kind":"zoo","seed":-7}"#,
        r#"{"id":"a","kind":"zoo","scale":"x"}"#,
        r#"{"id":"a","kind":"zoo","scale":[0.5]}"#,
        r#"{"id":"a","kind":"asm","asm":["halt"]}"#,
        r#"{"id":"a","kind":"asm","budget":1.5}"#,
        r#"{"id":"a","kind":"table","deadline_ms":{}}"#,
        r#"{"id":"a","kind":"table","k":-1}"#,
        r#"{"id":"a","kind":"table","k":2.5}"#,
        r#"{"id":"a","kind":"table","metric":false}"#,
        r#"{"id":"a","kind":"ops","op":1}"#,
        // The first error in field order wins over a later one.
        r#"{"op":1,"k":-1,"id":"a","kind":"table","name":2}"#,
        // Bad JSON inside a skipped field, and bad numbers and escapes.
        r#"{"id":"a","kind":"table","x":[1,}"#,
        r#"{"id":"a","kind":"table","x":{"y"}}"#,
        r#"{"id":"a","kind":"zoo","seed":18446744073709551616}"#,
        r#"{"id":"a","kind":"zoo","scale":1.2.3}"#,
        r#"{"id":"a\q","kind":"ops"}"#,
        r#"{"id":"a\u00","kind":"ops"}"#,
        r#"{"id":"a","kind":"ops",}"#,
        r#"{"id":"a" "kind":"ops"}"#,
        r#"{"id":"a","kind":nul}"#,
    ];
    for line in malformed {
        assert!(!agree(line), "{line}");
    }

    // Every prefix of every line, valid or not.
    for line in sent.iter().map(String::as_str).chain(ok).chain(malformed) {
        for (end, _) in line.char_indices() {
            agree(&line[..end]);
        }
    }
}
