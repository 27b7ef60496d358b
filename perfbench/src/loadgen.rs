//! Seeded load generation against a `mica-serve` address.
//!
//! - **Open loop** ([`open_loop`]): one connection, one sender thread that
//!   writes each request at its scheduled time and one receiver thread.
//!   Requests are independent users, so a stall delays every request
//!   behind it; latency is measured from the *scheduled* send time, and
//!   how late the sender ran is reported beside it.
//! - **Closed loop** ([`closed_loop`]): one client on one connection,
//!   sending its next request only after the previous answer. One client,
//!   because on a two-vCPU host a second client and the server threads it
//!   keeps busy measured the scheduler: the 90th-percentile latency of
//!   two clients' submissions varied by a third between runs.
//!
//! Client sockets set `TCP_NODELAY`; responses are matched to requests by
//! id (`q<index>`).

use rand::rngs::StdRng;
use rand::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Poisson arrival offsets at `rate` per second over `duration`.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if at >= duration.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// From the scheduled (open loop) or actual (closed loop) send time
    /// to the response line arriving.
    pub latency: Duration,
    /// The response line.
    pub line: String,
}

/// What a load run observed. `answers[i]` belongs to request `i`; `None`
/// means no answer arrived.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Answers by request index.
    pub answers: Vec<Option<Answer>>,
    /// How late each request was written, open loop only.
    pub late: Vec<Duration>,
    /// First send to last answer.
    pub wall: Duration,
}

/// Request index of a response line whose id is `q<index>`.
fn answer_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":\"q")?;
    rest[..rest.find('"')?].parse().ok()
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Send `lines[i]` (ids `q<i>`) at `schedule[i]` after the start, on one
/// connection.
///
/// # Errors
///
/// The connection cannot be opened.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    schedule: &[Duration],
) -> std::io::Result<LoadRun> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let start = Instant::now() + Duration::from_millis(20);
    let n = lines.len();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late = Vec::with_capacity(n);
            for (line, &at) in lines.iter().zip(schedule) {
                let due = start + at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due));
                let mut buf = line.clone();
                buf.push('\n');
                if writer.write_all(buf.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        let mut answers: Vec<Option<Answer>> = vec![None; n];
        let mut got = 0;
        let mut last = start;
        let mut line = String::new();
        while got < n {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let now = Instant::now();
            if let Some(i) = answer_index(&line).filter(|&i| i < n && answers[i].is_none()) {
                let latency = now.saturating_duration_since(start + schedule[i]);
                answers[i] = Some(Answer {
                    latency,
                    line: line.trim_end().to_string(),
                });
                got += 1;
                last = now;
            }
        }
        let late = sender.join().expect("sender thread panicked");
        Ok(LoadRun {
            answers,
            late,
            wall: last.saturating_duration_since(start),
        })
    })
}

/// Send every line in turn on one connection, each after the answer to
/// the one before. `between` runs after each answer, before the next
/// request, while the server is idle.
///
/// # Errors
///
/// The connection cannot be opened, or fails.
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    between: &mut dyn FnMut(),
) -> std::io::Result<LoadRun> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let started = Instant::now();
    let mut answers: Vec<Option<Answer>> = vec![None; lines.len()];
    for (i, req) in lines.iter().enumerate() {
        let sent = Instant::now();
        writer.write_all(format!("{req}\n").as_bytes())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let answer = Answer {
            latency: sent.elapsed(),
            line: line.trim_end().to_string(),
        };
        between();
        if answer_index(&answer.line) == Some(i) {
            answers[i] = Some(answer);
        }
    }
    Ok(LoadRun {
        answers,
        late: Vec::new(),
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn schedule(seed: u64) -> Vec<Duration> {
        poisson_schedule(
            &mut StdRng::seed_from_u64(seed),
            400.0,
            Duration::from_secs(2),
        )
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = schedule(7);
        assert_eq!(a, schedule(7));
        assert_ne!(a, schedule(8));
        // 400/s over 2 s: about 800 arrivals, ascending, inside the window.
        assert!((700..900).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < Duration::from_secs(2)));
    }

    #[test]
    fn response_ids_map_to_request_indices() {
        assert_eq!(answer_index(r#"{"id":"q42","status":"ok"}"#), Some(42));
        assert_eq!(answer_index(r#"{"id":"x","status":"ok"}"#), None);
    }
}
