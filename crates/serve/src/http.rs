//! A minimal HTTP/1.1 server on `std::net` — no external dependencies.
//!
//! Deliberately small: a fixed pool of worker threads all `accept()` on
//! clones of one listener, each connection serves exactly one request
//! (`Connection: close`), and shutdown is graceful — a flag flips, the
//! workers are woken with loopback connects, and every thread is joined
//! before [`Server::shutdown`] returns. That is all a single-artifact
//! inference server needs, and it keeps the whole transport auditable in
//! one file.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One parsed request: method, path and raw body.
#[derive(Clone, Debug)]
pub struct Request {
    /// HTTP method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/v1/recommend` (query strings not split).
    pub path: String,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// One response: status code, content type and body.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code (the reason phrase is derived from it).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self { status, content_type: "application/json", body }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body }
    }
}

/// The application: maps a request to a response. Must be panic-free for
/// well-formed input. The worker loop does not catch panics: a handler
/// panic unwinds out of the `serve-worker-N` thread, which exits for good
/// (the server keeps running on the remaining workers, one fewer each
/// time), and a panic while the handler holds the engine lock poisons that
/// lock for every later request. Isolating panics at the request boundary
/// is ROADMAP item 6.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Transport configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:8080"`; port 0 picks an ephemeral
    /// port (read it back from [`Server::addr`]).
    pub addr: String,
    /// Worker threads, all accepting on the same listener.
    pub workers: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Maximum accepted body size in bytes; larger requests get 413.
    pub max_body: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            max_body: 1 << 20,
        }
    }
}

/// A running server; dropping it without [`Server::shutdown`] leaves the
/// workers running for the life of the process.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    // The peer may already be gone; nothing useful to do about it.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(resp.body.as_bytes());
    let _ = stream.flush();
}

/// A transport-level rejection: the response to send plus the
/// `serve.errors.<status>.<cause>` taxonomy cause it is counted under.
struct Reject {
    resp: Response,
    cause: &'static str,
}

impl Reject {
    fn text(status: u16, cause: &'static str, body: String) -> Self {
        Self { resp: Response::text(status, body), cause }
    }
}

/// Reads and parses one request. Returns `Ok(None)` when the peer closed
/// without sending anything (e.g. a shutdown wake-up connect).
fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Option<Request>, Reject> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Read until the header terminator.
    let header_end = loop {
        if let Some(pos) = find_subsequence(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(Reject::text(400, "transport", "request head too large\n".into()));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(Reject::text(
                    400,
                    "transport",
                    "connection closed mid-request\n".into(),
                ));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(Reject::text(
                    408,
                    "timeout",
                    "timed out reading request head\n".into(),
                ));
            }
            Err(_) => return Ok(None),
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(Reject::text(400, "transport", "malformed request line\n".into()));
    };
    // A missing Content-Length means "no body" (GETs); a present but
    // unparseable one is a hard 400 — silently treating it as 0 would drop
    // the body and surface as a baffling downstream 400/422 instead.
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = match v.trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return Err(Reject::text(
                            400,
                            "bad_content_length",
                            format!("malformed Content-Length header: {:?}\n", v.trim()),
                        ));
                    }
                };
            }
        }
    }
    if content_length > max_body {
        return Err(Reject::text(
            413,
            "body_too_large",
            format!("body of {content_length} bytes exceeds the {max_body} byte cap\n"),
        ));
    }

    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Reject::text(400, "transport", "connection closed mid-body\n".into()))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(Reject::text(
                    408,
                    "timeout",
                    "timed out reading request body\n".into(),
                ));
            }
            Err(_) => return Err(Reject::text(400, "transport", "read error\n".into())),
        }
    }
    body.truncate(content_length);
    Ok(Some(Request { method: method.to_uppercase(), path: path.to_string(), body }))
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Counts a transport-level rejection (a request that never reached the
/// router) in the `serve.errors.*` taxonomy. Error path only — the
/// successful-request path never gets here. Causes are a closed static set
/// so every counter is zero-seeded by `seed_serve_metrics`.
fn transport_error_counter(status: u16, cause: &'static str) {
    match (status, cause) {
        (400, "bad_content_length") => {
            metadpa_obs::counter_add!("serve.errors.400.bad_content_length", 1)
        }
        (400, _) => metadpa_obs::counter_add!("serve.errors.400.transport", 1),
        (408, _) => metadpa_obs::counter_add!("serve.errors.408.timeout", 1),
        (413, _) => metadpa_obs::counter_add!("serve.errors.413.body_too_large", 1),
        _ => {}
    }
}

fn handle_connection(
    mut stream: TcpStream,
    handler: &Handler,
    read_timeout: Duration,
    max_body: usize,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    match read_request(&mut stream, max_body) {
        Ok(Some(req)) => {
            let resp = handler(&req);
            write_response(&mut stream, &resp);
        }
        Ok(None) => {}
        Err(reject) => {
            transport_error_counter(reject.resp.status, reject.cause);
            write_response(&mut stream, &reject.resp);
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Binds `config.addr` and starts the worker pool. Returns once the
/// listener is live; requests are served until [`Server::shutdown`].
pub fn serve(config: ServerConfig, handler: Handler) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let workers = config.workers.max(1);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let listener = listener.try_clone()?;
        let stop = Arc::clone(&stop);
        let handler = Arc::clone(&handler);
        let (read_timeout, max_body) = (config.read_timeout, config.max_body);
        handles.push(std::thread::Builder::new().name(format!("serve-worker-{w}")).spawn(
            move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        metadpa_obs::counter_add!("serve.connections", 1);
                        handle_connection(stream, &handler, read_timeout, max_body);
                    }
                    Err(_) => {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                }
            },
        )?);
    }
    Ok(Server { addr, stop, handles })
}

impl Server {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: flips the stop flag, wakes every blocked
    /// `accept()` with loopback connects, and joins all workers.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            // Keep poking the listener until this worker notices; one
            // connect can be eaten by a different worker.
            while !handle.is_finished() {
                let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_echo(workers: usize) -> Server {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::text(
                200,
                format!("{} {} {}", req.method, req.path, String::from_utf8_lossy(&req.body)),
            )
        });
        serve(ServerConfig { workers, ..ServerConfig::default() }, handler).expect("bind")
    }

    fn raw_request(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_concurrent_requests_and_shuts_down_cleanly() {
        let server = start_echo(3);
        let addr = server.addr();
        let mut joins = Vec::new();
        for i in 0..6 {
            joins.push(std::thread::spawn(move || {
                let body = format!("hello-{i}");
                let raw = format!(
                    "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                raw_request(addr, &raw)
            }));
        }
        for (i, j) in joins.into_iter().enumerate() {
            let resp = j.join().expect("thread");
            assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
            assert!(resp.contains(&format!("POST /echo hello-{i}")), "{resp}");
        }
        server.shutdown();
        // After shutdown nothing is listening (give the OS a beat).
        std::thread::sleep(Duration::from_millis(20));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn malformed_and_oversized_requests_get_4xx() {
        let server = serve(
            ServerConfig { max_body: 64, ..ServerConfig::default() },
            Arc::new(|_: &Request| Response::text(200, "ok".into())),
        )
        .expect("bind");
        let addr = server.addr();

        let resp = raw_request(addr, "NONSENSE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

        let resp = raw_request(addr, "POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn malformed_content_length_is_a_typed_400() {
        let server = start_echo(1);
        let addr = server.addr();

        // Regression: this used to parse as `unwrap_or(0)`, silently dropping
        // the body and echoing an empty request instead of rejecting it.
        for bad in ["banana", "-5", "18446744073709551616", "12abc"] {
            let resp = raw_request(
                addr,
                &format!("POST /echo HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello"),
            );
            assert!(resp.starts_with("HTTP/1.1 400"), "Content-Length {bad:?}: {resp}");
            assert!(resp.contains("malformed Content-Length"), "Content-Length {bad:?}: {resp}");
        }

        // A missing Content-Length still means "no body" — bodyless GETs
        // must keep working.
        let resp = raw_request(addr, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

        // And a well-formed value still delivers the body.
        let resp = raw_request(addr, "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert!(resp.contains("POST /echo hello"), "{resp}");
        server.shutdown();
    }
}
