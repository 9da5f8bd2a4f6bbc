//! A minimal live metrics endpoint on `std::net::TcpListener`.
//!
//! Serves `GET /metrics` (Prometheus text format 0.0.4) and
//! `GET /healthz` (a one-line JSON liveness probe) from a single
//! background thread. The server binds `127.0.0.1` only — it is a local
//! observability window, not a public API — and is dependency-free so it
//! works in the fully offline build environment.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::deadline::{Deadline, DeadlineReader};
use crate::expo::render_prometheus;
use crate::registry::Registry;

/// Upper bound on a request's header bytes; beyond it the request is
/// rejected with `431 Request Header Fields Too Large`.
const MAX_REQUEST_BYTES: usize = 8192;

/// Total wall-clock budget for one connection's request read. The
/// per-read socket timeout is clamped to what remains of this, so a
/// client trickling one byte per read window can no longer hold the
/// single-threaded accept loop open indefinitely.
const CONN_READ_BUDGET: Duration = Duration::from_secs(2);

/// Handle to the background exposition thread; dropping it stops the
/// server and joins the thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `127.0.0.1:port` (`port = 0` picks an ephemeral port; see
    /// [`MetricsServer::addr`]) and start serving `registry`.
    pub fn start(port: u16, registry: Arc<Registry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("niid-metrics-http".into())
            .spawn(move || serve(listener, registry, stop_thread))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with `port = 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve(listener: TcpListener, registry: Arc<Registry>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // One connection at a time: scrapers are rare and the handler is
        // fast, so there is no need for a thread-per-connection model.
        handle_conn(stream, &registry);
    }
}

fn handle_conn(stream: TcpStream, registry: &Registry) {
    handle_conn_within(stream, registry, CONN_READ_BUDGET)
}

/// What reading the request headers concluded.
enum RequestRead {
    /// Headers complete (or the peer closed); parse and answer.
    Complete,
    /// The headers exceeded [`MAX_REQUEST_BYTES`].
    TooLarge,
    /// The per-connection deadline elapsed before end-of-headers.
    TimedOut,
}

fn handle_conn_within(mut stream: TcpStream, registry: &Registry, budget: Duration) {
    // One deadline for the whole request read, so slow-trickling peers
    // are bounded by `budget` total.
    let mut reader = DeadlineReader::new(&stream, Some(Deadline::after(budget)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    let outcome = loop {
        match reader.read(&mut buf) {
            Ok(0) => break RequestRead::Complete,
            Ok(n) => {
                // Enforce the cap *before* growing the buffer, so a
                // hostile peer can never make us hold more than the cap.
                if req.len() + n > MAX_REQUEST_BYTES {
                    break RequestRead::TooLarge;
                }
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") {
                    break RequestRead::Complete;
                }
            }
            Err(e) if e.kind() == ErrorKind::TimedOut => break RequestRead::TimedOut,
            Err(_) => break RequestRead::Complete,
        }
    };
    let (status, content_type, body) = match outcome {
        RequestRead::TooLarge => (
            "431 Request Header Fields Too Large",
            "text/plain",
            "request header fields too large\n".to_string(),
        ),
        RequestRead::TimedOut => (
            "408 Request Timeout",
            "text/plain",
            "request timeout\n".to_string(),
        ),
        RequestRead::Complete => {
            // Method and path come from the request *line* only — header
            // bytes must never be able to smuggle a method or path.
            let line_end = req
                .iter()
                .position(|&b| b == b'\n')
                .map_or(req.len(), |i| i + 1);
            let line = String::from_utf8_lossy(&req[..line_end]);
            let mut parts = line.split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            match (method, path) {
                ("GET", "/metrics") => {
                    let text = render_prometheus(&registry.gather());
                    ("200 OK", "text/plain; version=0.0.4; charset=utf-8", text)
                }
                ("GET", "/healthz") => (
                    "200 OK",
                    "application/json",
                    "{\"status\":\"ok\"}\n".to_string(),
                ),
                ("GET", _) => ("404 Not Found", "text/plain", "not found\n".to_string()),
                _ => (
                    "405 Method Not Allowed",
                    "text/plain",
                    "method not allowed\n".to_string(),
                ),
            }
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_healthz() {
        let r = Arc::new(Registry::new());
        r.gauge("up", "", &[("job", "test")]).set(1.0);
        let server = MetricsServer::start(0, Arc::clone(&r)).unwrap();
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("up{job=\"test\"} 1\n"));

        let (head, body) = get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("\"status\":\"ok\""));

        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
    }

    /// Regression: a client that keeps a connection alive by trickling
    /// one byte per read window used to reset the 500 ms read timeout on
    /// every byte, holding the single-threaded accept loop — and with it
    /// every scrape — open indefinitely. With the per-connection
    /// deadline the slow client is cut off after `CONN_READ_BUDGET` and
    /// a concurrent scrape completes promptly.
    #[test]
    fn slow_client_cannot_stall_the_accept_loop() {
        let r = Arc::new(Registry::new());
        let server = MetricsServer::start(0, Arc::clone(&r)).unwrap();
        let addr = server.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let stop_trickler = Arc::clone(&stop);
        let trickler = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Never send "\r\n\r\n": keep the handler reading until its
            // deadline fires, no matter how many bytes arrive.
            while !stop_trickler.load(Ordering::SeqCst) {
                if s.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        // Give the trickler time to own the accept loop's one handler.
        std::thread::sleep(Duration::from_millis(100));
        let started = std::time::Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let waited = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        trickler.join().unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 200 OK"),
            "scrape failed behind a slow client: {resp}"
        );
        // Budget (2 s) + generous CI slack, far below "forever".
        assert!(
            waited < Duration::from_secs(10),
            "scrape took {waited:?} behind a slow client"
        );
    }

    /// Oversized headers are rejected with 431 and the buffer never
    /// grows past the cap (the old code extended first, checked after).
    #[test]
    fn oversized_headers_get_431() {
        let r = Arc::new(Registry::new());
        let server = MetricsServer::start(0, r).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\n").unwrap();
        let filler = vec![b'a'; 16 * 1024];
        // The server may close mid-write once it answers 431.
        let _ = s.write_all(&filler);
        let _ = s.write_all(b"\r\n\r\n");
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(
            resp.starts_with("HTTP/1.1 431"),
            "expected 431 for oversized headers, got: {resp}"
        );
    }

    /// Method and path must come from the request line only. The old
    /// whole-buffer `split_whitespace` parse let a later line supply the
    /// path ("GET\r\n/metrics ..." used to serve /metrics).
    #[test]
    fn parses_only_the_request_line() {
        let r = Arc::new(Registry::new());
        r.gauge("up", "", &[("job", "test")]).set(1.0);
        let server = MetricsServer::start(0, Arc::clone(&r)).unwrap();

        let raw = |payload: &str| -> String {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(payload.as_bytes()).unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            resp
        };

        // Path on a continuation line must not be honored.
        let resp = raw("GET\r\n/metrics HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

        // A header smuggling a request line must not override the real one.
        let resp = raw("GET /healthz HTTP/1.1\r\nX-Junk: GET /metrics HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    }

    #[test]
    fn drop_stops_the_server() {
        let r = Arc::new(Registry::new());
        let server = MetricsServer::start(0, r).unwrap();
        let addr = server.addr();
        drop(server);
        // The listener is gone: either the connect fails outright or the
        // socket is closed without a response.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "server answered after drop: {out}");
        }
    }
}
