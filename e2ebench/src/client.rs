//! Loopback HTTP load generation over real TCP.
//!
//! The server answers every request with `Connection: close`, so each
//! request is one connection; phases send fixed-count sequences, which
//! bounds the connections (and TIME_WAIT sockets) one run leaves behind.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::traffic::{Kind, Req};

/// How a phase paces its requests.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Each connection sends its next request when the previous returns.
    Closed,
    /// Requests are due on a fixed schedule of `rate` per second across
    /// all generator threads, whether or not earlier ones have returned.
    Open { rate: f64 },
}

/// What happened to one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Done {
    /// HTTP status; 0 for a connect, write or read error.
    pub status: u16,
    /// Closed loop: send to last byte. Open loop: scheduled send time to
    /// last byte, so a stall also counts against the requests it delays.
    pub latency_ns: u64,
    /// Open loop: how late the generator sent the request.
    pub late_ns: u64,
    /// When the response ended, from the phase start.
    pub end_ns: u64,
}

/// One phase's results, indexed like its request sequence.
pub struct PhaseResult {
    pub done: Vec<Done>,
    /// Bodies of the sampled requests (`index % sample_every == 0`).
    pub bodies: Vec<(usize, Vec<u8>)>,
    pub wall: Duration,
}

/// One generator thread's results: indexed outcomes and sampled bodies.
type ThreadOut = (Vec<(usize, Done)>, Vec<(usize, Vec<u8>)>);

/// Sends one raw request on a fresh connection; the status (0 on a
/// transport error) and the whole response land in `buf`.
pub fn send(addr: SocketAddr, raw: &[u8], buf: &mut Vec<u8>) -> u16 {
    buf.clear();
    let Ok(mut s) = TcpStream::connect(addr) else { return 0 };
    if s.write_all(raw).is_err() || s.read_to_end(buf).is_err() {
        return 0;
    }
    status_of(buf)
}

fn status_of(resp: &[u8]) -> u16 {
    // "HTTP/1.1 200 OK\r\n..."
    resp.get(9..12)
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

/// The body of a raw response.
pub fn body(resp: &[u8]) -> &[u8] {
    resp.windows(4).position(|w| w == b"\r\n\r\n").map_or(&[], |p| &resp[p + 4..])
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Warm => "serve.http.recommend_warm",
        Kind::Cold => "serve.http.recommend_cold",
        Kind::Adapt => "serve.http.adapt",
        Kind::Feedback => "serve.http.feedback",
    }
}

/// Sends `reqs` over `conns` generator threads (thread `t` owns requests
/// `t, t + conns, ...`) and keeps every `sample_every`-th body.
pub fn run_phase(
    addr: SocketAddr,
    reqs: &[Req],
    mode: Mode,
    conns: usize,
    sample_every: usize,
    span_parent: u64,
    req_base: u64,
) -> PhaseResult {
    let conns = conns.max(1);
    // Start slightly in the future so every thread is up before the first
    // request is due.
    let start = Instant::now() + Duration::from_millis(5);
    let per_thread: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(reqs.len() / conns + 1);
                    let mut bodies = Vec::new();
                    let mut buf = Vec::with_capacity(4096);
                    wait_until(start);
                    for i in (t..reqs.len()).step_by(conns) {
                        let due = match mode {
                            Mode::Closed => None,
                            Mode::Open { rate } => {
                                let due = start + Duration::from_secs_f64(i as f64 / rate);
                                wait_until(due);
                                Some(due)
                            }
                        };
                        let sent = Instant::now();
                        let status = send(addr, &reqs[i].raw, &mut buf);
                        let end = Instant::now();
                        let from = due.unwrap_or(sent);
                        crate::trace::record(
                            span_name(reqs[i].kind),
                            span_parent,
                            req_base + i as u64,
                            from,
                            end,
                        );
                        done.push((
                            i,
                            Done {
                                status,
                                latency_ns: crate::stats::ns(end - from),
                                late_ns: crate::stats::ns(sent - from),
                                end_ns: crate::stats::ns(end.saturating_duration_since(start)),
                            },
                        ));
                        if i % sample_every == 0 {
                            bodies.push((i, body(&buf).to_vec()));
                        }
                    }
                    (done, bodies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread")).collect()
    });
    let wall = start.elapsed();
    let mut done = vec![Done::default(); reqs.len()];
    let mut bodies = Vec::new();
    for (d, b) in per_thread {
        for (i, r) in d {
            done[i] = r;
        }
        bodies.extend(b);
    }
    PhaseResult { done, bodies, wall }
}

/// Sleeps until shortly before `t`, then yields until it: a plain sleep
/// overshoots by the timer slack, which would read as generator lateness,
/// and a busy spin would take the CPU from the server's workers.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}
