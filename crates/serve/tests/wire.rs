//! Answers leave the server as soon as they are written.
//!
//! On a connection carrying several requests, a socket left to Nagle's
//! algorithm holds each answer while the one before it is unacknowledged.
//! Once a client delays its acknowledgements and sends them with its next
//! request, two answers in flight at once start a chain: every later
//! answer waits for the client's next send. At a 5 ms gap the answers then
//! took a median of about 5 ms (the last one 42 ms, the delayed-ACK timer)
//! instead of about 0.15 ms. The server sets `TCP_NODELAY`; this test
//! catches its loss.
//!
//! One `#[test]` on purpose: the scenario owns the process environment
//! (`MICA_RESULTS_DIR`, `MICA_SCALE`).

use mica_serve::client;
use mica_serve::protocol::{Request, RequestKind};
use mica_serve::server::spawn;
use mica_serve::ServeConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Lookups sent `GAP` apart before the two sent back to back: enough
/// exchanges for the client's kernel to leave the quick acknowledgements
/// of a new connection and acknowledge with its next request.
const WARM: usize = 10;
/// Lookups sent `GAP` apart after the two sent back to back.
const PACED: usize = 100;
const GAP: Duration = Duration::from_millis(5);

#[test]
fn answers_do_not_wait_for_the_next_request() {
    let results = std::env::temp_dir().join(format!("mica-serve-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    std::fs::create_dir_all(&results).unwrap();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/profiles.json");
    std::fs::copy(committed, results.join("profiles.json")).expect("copy the committed profiles");
    std::env::set_var("MICA_RESULTS_DIR", &results);
    std::env::set_var("MICA_SCALE", "1");

    let handle = spawn(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
        .expect("server boots");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let lines: Vec<String> = (0..WARM + 2 + PACED)
        .map(|i| {
            let mut req = Request::new(format!("w{i}"), RequestKind::Table);
            req.name = Some("SPEC2000/gzip/program".into());
            req.k = Some(5);
            let mut line = client::render_request(&req);
            line.push('\n');
            line
        })
        .collect();

    // One lookup every `GAP`, except that lookup `WARM + 1` follows lookup
    // `WARM` at once, so its answer is written while the one before it is
    // unacknowledged. Each send is timed.
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let start = Instant::now();
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let slot = if i > WARM { i - 1 } else { i };
                let due = start + GAP * slot as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                sent.push(Instant::now());
                writer.write_all(line.as_bytes()).expect("send");
            }
            sent
        });
        let mut received = vec![None; lines.len()];
        let mut line = String::new();
        for _ in 0..lines.len() {
            line.clear();
            let n = reader.read_line(&mut line).expect("an answer within the read timeout");
            assert!(n > 0, "server closed the connection");
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            let id = line.strip_prefix("{\"id\":\"w").and_then(|rest| rest.split('"').next());
            let i: usize = id.and_then(|i| i.parse().ok()).unwrap_or_else(|| panic!("{line}"));
            received[i] = Some(Instant::now());
        }
        (sender.join().expect("sender"), received)
    });

    let mut latencies_ms: Vec<f64> = sent
        .iter()
        .zip(&received)
        .map(|(s, r)| r.expect("every lookup answered").duration_since(*s).as_secs_f64() * 1e3)
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let median = latencies_ms[latencies_ms.len() / 2];
    assert!(
        median < 2.5,
        "answers wait for the next request: median {median:.3} ms, max {:.3} ms over {} lookups",
        latencies_ms[latencies_ms.len() - 1],
        latencies_ms.len()
    );

    handle.shutdown();
    handle.join().expect("clean drain");
    std::env::remove_var("MICA_RESULTS_DIR");
    std::env::remove_var("MICA_SCALE");
    let _ = std::fs::remove_dir_all(&results);
}
