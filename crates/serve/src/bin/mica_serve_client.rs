//! `mica-serve-client`: submit one query and print the response.
//!
//! ```text
//! mica-serve-client --kind table --name MiBench/sha/large --k 3
//! mica-serve-client --kind zoo --name MiBench/sha/large --seed 7 --scale 0.5
//! mica-serve-client --kind asm --asm-file kernel.s --deadline-ms 500
//! mica-serve-client --kind ops --op metrics --json
//! ```
//!
//! Default output is a human-readable summary that always leads with the
//! correlation id, the status, and the server-echoed trace id — on *every*
//! outcome, including `overloaded`/`draining` rejections that exhausted
//! the retry budget — so a client-side log line can always be joined with
//! the server's spans and access log. `--json` prints the raw response
//! line instead.
//!
//! Exit status: 0 for an `ok` answer, 2 for a definitive non-`ok` answer
//! (`error`/`panic`/`deadline`), 1 when retries were exhausted or the
//! arguments were bad. Backpressure (`overloaded`/`draining`) is retried
//! with capped jittered backoff, honoring the server's `retry_after_ms`.

use mica_serve::client::ClientError;
use mica_serve::protocol::{status, Request, RequestKind, Response};

struct Args {
    addr: String,
    retries: u32,
    json: bool,
    req: Request,
}

fn usage() -> ! {
    eprintln!(
        "usage: mica-serve-client --kind <table|zoo|asm|ops> [options]\n\
         \n\
         options:\n\
           --addr HOST:PORT     server address (default MICA_SERVE_ADDR or 127.0.0.1:7033)\n\
           --id ID              correlation id (default q0)\n\
           --name SUITE/PROG/IN benchmark name (table, zoo)\n\
           --seed N             zoo data-seed override\n\
           --scale X            zoo budget-scale override\n\
           --asm-file PATH      tinyisa assembly listing (asm); `-` for stdin\n\
           --budget N           asm dynamic-instruction budget (default: run to halt)\n\
           --deadline-ms N      per-request deadline\n\
           --k N                neighbors to return (default 5)\n\
           --metric NAME        euclidean (default) or cosine\n\
           --op NAME            ops query: health, ready, metrics or stats\n\
           --json               print the raw response line instead of a summary\n\
           --retries N          extra attempts on backpressure (default 5)"
    );
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut addr =
        std::env::var("MICA_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7033".to_string());
    let mut retries = 5u32;
    let mut json = false;
    let mut id = "q0".to_string();
    let mut kind: Option<RequestKind> = None;
    let mut name = None;
    let mut seed = None;
    let mut scale = None;
    let mut asm = None;
    let mut budget = None;
    let mut deadline_ms = None;
    let mut k = None;
    let mut metric = None;
    let mut op = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(1);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("an address"),
            "--id" => id = value("an id"),
            "--kind" => {
                kind = match value("table, zoo, asm or ops").as_str() {
                    "table" => Some(RequestKind::Table),
                    "zoo" => Some(RequestKind::Zoo),
                    "asm" => Some(RequestKind::Asm),
                    "ops" => Some(RequestKind::Ops),
                    other => {
                        eprintln!("unknown kind `{other}`");
                        std::process::exit(1);
                    }
                }
            }
            "--name" => name = Some(value("a benchmark name")),
            "--seed" => seed = Some(parse_num(&value("a seed"))),
            "--scale" => {
                scale = Some(value("a scale").parse::<f64>().unwrap_or_else(|_| {
                    eprintln!("--scale needs a number");
                    std::process::exit(1);
                }))
            }
            "--asm-file" => {
                let path = value("a path");
                let text = if path == "-" {
                    use std::io::Read;
                    let mut buf = String::new();
                    std::io::stdin().read_to_string(&mut buf).map(|_| buf)
                } else {
                    std::fs::read_to_string(&path)
                };
                asm = Some(text.unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }));
            }
            "--budget" => budget = Some(parse_num(&value("a budget"))),
            "--deadline-ms" => deadline_ms = Some(parse_num(&value("milliseconds"))),
            "--k" => k = Some(parse_num(&value("a count"))),
            "--metric" => metric = Some(value("a metric name")),
            "--op" => op = Some(value("an ops query name")),
            "--json" => json = true,
            "--retries" => retries = parse_num(&value("a count")) as u32,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }

    let Some(kind) = kind else {
        eprintln!("--kind is required");
        usage();
    };
    let mut req = Request::new(id, kind);
    req.name = name;
    req.seed = seed;
    req.scale = scale;
    req.asm = asm;
    req.budget = budget;
    req.deadline_ms = deadline_ms;
    req.k = k;
    req.metric = metric;
    req.op = op;
    Args { addr, retries, json, req }
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("`{s}` is not a non-negative integer");
        std::process::exit(1);
    })
}

/// Print one response. The summary's first line is always
/// `<id> <status> trace=<trace>` so logs join against the server's access
/// log and span trees; `--json` emits the raw wire line instead.
fn print_outcome(resp: &Response, json: bool) {
    if json {
        println!("{}", mica_serve::protocol::render_response(resp));
        return;
    }
    println!("{} {} trace={}", resp.id, resp.status, resp.trace.as_deref().unwrap_or("-"));
    if let Some(e) = &resp.error {
        println!("  error: {e}");
    }
    if let Some(ms) = resp.retry_after_ms {
        println!("  retry_after_ms: {ms}");
    }
    if let Some(payload) = &resp.ops {
        println!("{payload}");
    }
    if let Some(result) = &resp.result {
        println!(
            "  {} cached={} instructions={} metric={}",
            result.name, result.cached, result.executed_instructions, result.metric
        );
        for n in &result.neighbors {
            println!("  neighbor {} distance={:.6}", n.name, n.distance);
        }
    }
}

fn main() {
    let args = parse_args();
    match mica_serve::client::query(&args.addr, &args.req, args.retries) {
        Ok(resp) => {
            print_outcome(&resp, args.json);
            if resp.status != status::OK {
                std::process::exit(2);
            }
        }
        Err(e) => {
            // Exhausted backpressure still carries the server's last
            // rejection — print it (id, status, trace) before giving up.
            if let ClientError::Exhausted(resp) = &e {
                print_outcome(resp, args.json);
            }
            eprintln!("mica-serve-client: {e}");
            std::process::exit(1);
        }
    }
}
