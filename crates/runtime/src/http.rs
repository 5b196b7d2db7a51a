//! A minimal HTTP/1.1 responder for the metrics endpoint, hand-rolled on
//! [`std::net::TcpListener`] (the environment vendors no HTTP crates).
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition format
//! * `GET /metrics.json` — the same registry as JSON
//! * `GET /healthz` — `ok` once the server is up
//! * `GET /debug/trace` — the flight recorder as Chrome trace-event JSON
//!   (open in Perfetto or `chrome://tracing`; empty unless the daemon ran
//!   with `--trace-capacity`)
//! * `GET /tenants` — per-tenant status JSON array
//! * `GET /tenants/<id>` — one tenant's status object (step count, last
//!   checkpoint step, shed counters); 404 for an unknown id
//!
//! Everything else is a 404. Connections are served one at a time from a
//! single background thread (the scrape rate of a control daemon is a few
//! requests per minute); requests are read until the header terminator and
//! the connection is closed after each response.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::MetricsRegistry;
use crate::Result;

/// Renders tenant status JSON on demand: called with `""` for the board
/// listing and with a tenant id for the detail route; `None` means the
/// id is unknown (served as a 404).
pub type StatusRenderer = dyn Fn(&str) -> Option<String> + Send + Sync;

/// A running metrics endpoint. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the serving thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `listen` (use port 0 for an ephemeral port) and starts serving
    /// `registry` on a background thread, with `/tenants` and
    /// `/tenants/<id>` routes whose bodies are produced by `status` on
    /// every request: it is called with `""` for the board listing and
    /// with the tenant id for the detail route, and returns `None` for an
    /// unknown id (a 404). The daemon passes
    /// [`StatusBoard::render`](crate::tenant::StatusBoard::render).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Io`] when the address cannot be bound.
    pub fn start_with_status(
        listen: &str,
        registry: Arc<MetricsRegistry>,
        status: Arc<StatusRenderer>,
    ) -> Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // A slow or dead scraper must not wedge the daemon.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = serve_one(stream, &registry, &*status);
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on its next connection;
        // poke it with one.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one request head and writes one response.
fn serve_one(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    status: &StatusRenderer,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            registry.render_prometheus(),
        ),
        "/metrics.json" => ("200 OK", "application/json", registry.render_json()),
        "/debug/trace" => ("200 OK", "application/json", idc_obs::export_global_trace()),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        p if p == "/tenants" || p.starts_with("/tenants/") => {
            let id = p.strip_prefix("/tenants/").unwrap_or("");
            match status(id) {
                Some(body) => ("200 OK", "application/json", body),
                None => (
                    "404 Not Found",
                    "text/plain",
                    "no such tenant\n".to_string(),
                ),
            }
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.inc_counter("idc_steps_total", 42);
        registry.set_gauge("idc_accumulated_cost_dollars", 3.5);
        let server = MetricsServer::start_with_status(
            "127.0.0.1:0",
            Arc::clone(&registry),
            Arc::new(|_| None),
        )
        .unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("idc_steps_total 42"), "{body}");

        let (status, body) = get(addr, "/metrics.json");
        assert!(status.contains("200"));
        assert!(body.contains("\"idc_steps_total\":42"), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"));
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/debug/trace");
        assert!(status.contains("200"), "{status}");
        // No global recorder installed in tests: a valid empty trace.
        assert!(body.contains("\"traceEvents\":["), "{body}");

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        // A status callback that knows no tenant: /tenants is a 404.
        let (status, _) = get(addr, "/tenants");
        assert!(status.contains("404"), "{status}");

        server.shutdown();
    }

    #[test]
    fn serves_tenant_status_when_wired() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start_with_status(
            "127.0.0.1:0",
            registry,
            Arc::new(|id: &str| match id {
                "" => Some("[{\"id\":\"t-000\"}]".to_string()),
                "t-000" => Some("{\"id\":\"t-000\"}".to_string()),
                _ => None,
            }),
        )
        .unwrap();
        let (status, body) = get(server.addr(), "/tenants");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "[{\"id\":\"t-000\"}]");

        let (status, body) = get(server.addr(), "/tenants/t-000");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"id\":\"t-000\"}");

        let (status, body) = get(server.addr(), "/tenants/t-999");
        assert!(status.contains("404"), "{status}");
        assert_eq!(body, "no such tenant\n");
        server.shutdown();
    }
}
