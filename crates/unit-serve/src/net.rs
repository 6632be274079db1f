//! The networked front-end: a hand-rolled HTTP/1.1 server over std
//! `TcpListener` — the container has no network deps, and the wire
//! format follows the same hand-rolled, line-oriented discipline as
//! [`crate::artifact`].
//!
//! # Endpoints
//!
//! * `POST /v1/execute` — one inference request. The body is
//!   line-oriented text:
//!
//!   ```text
//!   model <model-id>
//!   target <target-id>
//!   op <OpSpec::encode>
//!   seed <u64>
//!   ```
//!
//!   A `200` response body is:
//!
//!   ```text
//!   ok
//!   id <request-id>
//!   micros <f64-bits-hex16>
//!   note <provider note>
//!   batch_size <n>
//!   tier <cold|full>
//!   dtype <element type>
//!   len <element count>
//!   data <hex16> <hex16> ...
//!   ```
//!
//!   `tier` reports which tuning tier compiled the serving kernel:
//!   `cold` until a tiered engine's background re-tune hot-swaps the
//!   full-tier kernel in, `full` afterwards (and always, on non-tiered
//!   engines). The `data` payload is bit-identical either way.
//!
//!   Every element is its raw bit pattern (integers as two's-complement
//!   `u64`, floats via `f64::to_bits`), 16 hex digits each — responses
//!   are **bit-identical** across replicas and comparable against
//!   `run_reference` without any float formatting ambiguity
//!   ([`encode_typed_buf`] is the shared encoder).
//!
//! * `POST /v1/execute` with a `graph` line — **whole-model serving**:
//!   the entire quantized forward pass of a registered model graph
//!   executes as one artifact ([`crate::ServeEngine::execute_model`]),
//!   every step a single fused-epilogue tape dispatch:
//!
//!   ```text
//!   graph <model name, e.g. transformer-tiny>
//!   target <target-id>
//!   seed <u64>
//!   mode <fused|unfused>        (optional; default fused)
//!   ```
//!
//!   A `200` response body is:
//!
//!   ```text
//!   ok
//!   model <model name>
//!   mode <fused|unfused>
//!   micros <f64-bits-hex16>
//!   steps <kernel dispatches>
//!   fused_epilogue_ops <ops executed inside dispatches>
//!   shape <batch> <rows> <cols>
//!   dtype <element type>
//!   len <element count>
//!   data <hex16> <hex16> ...
//!   ```
//!
//!   `mode unfused` serves the identical plan through plain GEMM
//!   kernels plus the reference epilogue — the differential baseline;
//!   its `data` payload is bit-identical to the fused one.
//!
//! * `GET /metrics` — the registry in Prometheus exposition format
//!   ([`crate::ServeMetrics::render_prometheus`]); `?format=prometheus`
//!   is accepted and names the same body, any other query is a `400`.
//! * `GET /v1/trace/<id>` — one request's span timeline (text), when
//!   tracing is enabled and the trace is still in the ring or retained
//!   as a slow-request exemplar.
//! * `GET /v1/traces?export=chrome` — every retained trace as Chrome
//!   `trace_event` JSON (load in `chrome://tracing` or Perfetto).
//! * `GET /healthz` — `ok` (liveness for the multi-replica demo / CI).
//!
//! When tracing is enabled, `200` bodies from both execute routes carry
//! a trailing `trace <id>` line naming the request's timeline.
//!
//! # Status mapping
//!
//! | condition                           | status |
//! |-------------------------------------|--------|
//! | admission queue full                | 429    |
//! | unknown target / malformed body     | 400    |
//! | per-request failure (incl. panic)   | 500    |
//! | scheduler shutting down             | 503    |
//! | reply timed out                     | 504    |
//! | slow/stalled client (read timeout)  | 408    |
//! | body over the size limit            | 413    |
//! | header block over the size limit    | 431    |
//! | unknown path / method               | 404/405|
//!
//! Each connection serves one request (`Connection: close`) — the
//! front-end targets replica fleets behind a connection-pooling client,
//! not browser keep-alive. Read/write timeouts and a connection cap
//! bound what a slow or malicious client can hold.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use unit_dsl::DType;
use unit_graph::OpSpec;
use unit_isa::{Scalar, TypedBuf};

use crate::engine::ServeError;
use crate::model::model_graph;
use crate::scheduler::{Scheduler, ServeRequest, SubmitError};
use crate::trace::TraceCollector;

/// Front-end tunables.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Reject request bodies larger than this with `413`.
    pub max_body_bytes: usize,
    /// Reject header blocks larger than this with `431`.
    pub max_header_bytes: usize,
    /// Per-connection socket read/write timeout; a stalled client gets
    /// `408` and the connection closes.
    pub io_timeout: Duration,
    /// How long to wait for the scheduler's reply before `504`.
    pub reply_timeout: Duration,
    /// Maximum concurrent connections; excess connections get `503`.
    pub max_connections: usize,
}

impl Default for HttpServerConfig {
    fn default() -> HttpServerConfig {
        HttpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_body_bytes: 16 * 1024,
            max_header_bytes: 8 * 1024,
            io_timeout: Duration::from_secs(5),
            reply_timeout: Duration::from_secs(60),
            max_connections: 64,
        }
    }
}

/// The running front-end. [`HttpServer::shutdown`] (or drop) stops
/// accepting, waits for in-flight connections, and joins the accept
/// thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `config.addr` and start accepting.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the listener cannot bind.
    pub fn start(
        scheduler: Arc<Scheduler>,
        config: HttpServerConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let accept = {
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            std::thread::spawn(move || accept_loop(&listener, &scheduler, &config, &stop, &live))
        };
        Ok(HttpServer {
            addr,
            stop,
            live,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections (bounded wait), and
    /// join the accept thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // In-flight handlers are bounded by the socket timeouts; give
        // them a moment rather than leaking mid-write connections.
        for _ in 0..200 {
            if self.live.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: &TcpListener,
    scheduler: &Arc<Scheduler>,
    config: &HttpServerConfig,
    stop: &Arc<AtomicBool>,
    live: &Arc<AtomicUsize>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if live.load(Ordering::SeqCst) >= config.max_connections {
            let _ = respond(
                &stream,
                503,
                "Service Unavailable",
                "connection cap reached\n",
            );
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let scheduler = Arc::clone(scheduler);
        let config = config.clone();
        let live = Arc::clone(live);
        std::thread::spawn(move || {
            handle_connection(&stream, &scheduler, &config);
            let _ = stream.shutdown(Shutdown::Both);
            live.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Serve exactly one request on `stream`; every exit path has written a
/// response unless the socket itself failed.
fn handle_connection(stream: &TcpStream, scheduler: &Arc<Scheduler>, config: &HttpServerConfig) {
    let metrics = Arc::clone(scheduler.engine().metrics());
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let (status, reason, body) = match read_request(stream, config) {
        Ok((head, body)) => {
            metrics.record_http_request();
            route(scheduler, config, &head, &body)
        }
        Err(e) => e,
    };
    if status >= 300 {
        metrics.record_http_error();
    }
    let _ = respond(stream, status, reason, &body);
}

/// A parsed request head: method, path, query string, and the
/// `Content-Length` (the only header the routes consume).
#[derive(Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// HTTP method, as sent.
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// The query string after `?`, when present (not percent-decoded —
    /// the routes only match literal `key=value` forms).
    pub query: Option<String>,
    /// Parsed `Content-Length`, when present.
    pub content_length: Option<usize>,
}

type HttpFailure = (u16, &'static str, String);

/// Read the header block + body off the socket, enforcing the size
/// limits and translating socket timeouts to `408`.
fn read_request(
    stream: &TcpStream,
    config: &HttpServerConfig,
) -> Result<(RequestHead, String), HttpFailure> {
    let mut reader = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(at) = find_head_end(&buf) {
            break at;
        }
        if buf.len() > config.max_header_bytes {
            return Err((
                431,
                "Request Header Fields Too Large",
                format!("header block exceeds {} bytes\n", config.max_header_bytes),
            ));
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Err((400, "Bad Request", "connection closed mid-request\n".into())),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return Err((408, "Request Timeout", "timed out reading request\n".into()))
            }
            Err(e) => return Err((400, "Bad Request", format!("read failed: {e}\n"))),
        }
    };
    let head_text = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let head =
        parse_request_head(&head_text).map_err(|e| (400, "Bad Request", format!("{e}\n")))?;

    let body_len = head.content_length.unwrap_or(0);
    if body_len > config.max_body_bytes {
        return Err((
            413,
            "Payload Too Large",
            format!("body exceeds {} bytes\n", config.max_body_bytes),
        ));
    }
    let mut body = buf[head_end + 4..].to_vec(); // skip the \r\n\r\n
    while body.len() < body_len {
        match reader.read(&mut chunk) {
            Ok(0) => return Err((400, "Bad Request", "connection closed mid-body\n".into())),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return Err((408, "Request Timeout", "timed out reading body\n".into()))
            }
            Err(e) => return Err((400, "Bad Request", format!("read failed: {e}\n"))),
        }
    }
    body.truncate(body_len);
    let body = String::from_utf8(body)
        .map_err(|_| (400, "Bad Request", "body is not UTF-8\n".to_string()))?;
    Ok((head, body))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Parse the request line + headers (up to but not including the blank
/// line). Pure, so the wire corner cases are unit-testable without
/// sockets.
///
/// # Errors
///
/// A human-readable reason, rendered into a `400` body.
pub fn parse_request_head(head: &str) -> Result<RequestHead, String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts
        .next()
        .ok_or("request line needs `METHOD PATH VERSION`")?;
    let version = parts
        .next()
        .ok_or("request line needs `METHOD PATH VERSION`")?;
    if parts.next().is_some() {
        return Err("request line has trailing content".to_string());
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, Some(q.to_string())),
        None => (path, None),
    };
    if method.is_empty() || path.is_empty() {
        return Err("empty method or path".to_string());
    }
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version `{version}`"));
    }
    let mut content_length = None;
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line `{line}`"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let len: usize = value
                .trim()
                .parse()
                .map_err(|e| format!("bad Content-Length: {e}"))?;
            // RFC 9112 §6.3: a message with differing Content-Length
            // values is invalid and must be rejected. The previous
            // last-wins behavior let a proxy and this server disagree
            // about where the body ends (request smuggling).
            match content_length {
                Some(prev) if prev != len => {
                    return Err(format!(
                        "conflicting Content-Length headers ({prev} then {len})"
                    ));
                }
                _ => content_length = Some(len),
            }
        }
    }
    Ok(RequestHead {
        method: method.to_string(),
        path: path.to_string(),
        query,
        content_length,
    })
}

/// Dispatch a parsed request to its route.
fn route(
    scheduler: &Arc<Scheduler>,
    config: &HttpServerConfig,
    head: &RequestHead,
    body: &str,
) -> HttpFailure {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/metrics") => match head.query.as_deref() {
            None | Some("" | "format=prometheus") => {
                (200, "OK", scheduler.engine().metrics().render_prometheus())
            }
            Some(other) => (
                400,
                "Bad Request",
                format!("unknown metrics query `{other}` (format=prometheus)\n"),
            ),
        },
        ("GET", "/v1/traces") => match head.query.as_deref() {
            None | Some("" | "export=chrome") => {
                (200, "OK", scheduler.engine().tracer().export_chrome())
            }
            Some(other) => (
                400,
                "Bad Request",
                format!("unknown traces query `{other}` (export=chrome)\n"),
            ),
        },
        ("GET", path) if path.starts_with("/v1/trace/") => {
            trace_route(scheduler, &path["/v1/trace/".len()..])
        }
        ("GET", "/healthz") => (200, "OK", "ok\n".to_string()),
        // A `graph` line selects whole-model serving; the op-shaped
        // scheduler path handles everything else.
        ("POST", "/v1/execute") if body.lines().any(|l| l.starts_with("graph ")) => {
            graph_route(scheduler, body)
        }
        ("POST", "/v1/execute") => execute_route(scheduler, config, body),
        ("GET", "/v1/execute") => (
            405,
            "Method Not Allowed",
            "POST is the only method for /v1/execute\n".to_string(),
        ),
        (_, "/metrics" | "/healthz") => (
            405,
            "Method Not Allowed",
            "GET is the only method for this path\n".to_string(),
        ),
        (_, path) => (404, "Not Found", format!("no route for `{path}`\n")),
    }
}

/// `GET /v1/trace/<id>`: render one retained trace's span timeline.
fn trace_route(scheduler: &Arc<Scheduler>, id: &str) -> HttpFailure {
    let Ok(id) = id.parse::<u64>() else {
        return (400, "Bad Request", format!("bad trace id `{id}`\n"));
    };
    match scheduler.engine().tracer().get(id) {
        Some(trace) => (200, "OK", TraceCollector::render_timeline(&trace)),
        None => (
            404,
            "Not Found",
            format!("no trace {id} (evicted from the ring, or tracing disabled)\n"),
        ),
    }
}

/// `POST /v1/execute`: parse, bridge onto the scheduler's bounded
/// queue, await the reply.
fn execute_route(scheduler: &Arc<Scheduler>, config: &HttpServerConfig, body: &str) -> HttpFailure {
    let req = match parse_execute_body(body) {
        Ok(req) => req,
        Err(e) => return (400, "Bad Request", format!("{e}\n")),
    };
    // `try_submit`, not `submit`: a full queue must reject with 429
    // immediately instead of blocking a connection thread on admission.
    let (id, rx) = match scheduler.try_submit(req) {
        Ok(pair) => pair,
        Err(SubmitError::QueueFull) => {
            return (429, "Too Many Requests", "admission queue is full\n".into())
        }
        Err(SubmitError::UnknownTarget(t)) => {
            return (400, "Bad Request", format!("unknown target `{t}`\n"))
        }
        Err(SubmitError::ShuttingDown) => {
            return (503, "Service Unavailable", "shutting down\n".into())
        }
    };
    match rx.recv_timeout(config.reply_timeout) {
        Ok(resp) => match resp.result {
            Ok(ref output) => (
                200,
                "OK",
                format!(
                    "ok\nid {id}\nmicros {:016x}\nnote {}\nbatch_size {}\ntier {}\n{}{}",
                    resp.micros.to_bits(),
                    resp.note,
                    resp.batch_size,
                    resp.tier.unwrap_or_default(),
                    trace_line(resp.trace_id),
                    encode_typed_buf(output)
                ),
            ),
            // The scheduler's workers contain per-request panics and
            // deliver them as an Err result — one poisoned kernel is
            // one 500, never a wedged worker or a dropped reply.
            Err(e) => (
                500,
                "Internal Server Error",
                format!("execution failed: {e}\n"),
            ),
        },
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => (
            504,
            "Gateway Timeout",
            "request admitted but no reply in time\n".into(),
        ),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => (
            500,
            "Internal Server Error",
            "reply channel dropped\n".into(),
        ),
    }
}

/// A parsed whole-model request (`POST /v1/execute` with a `graph`
/// line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRequest {
    /// Registered model name ([`crate::model::model_graph`]).
    pub graph: String,
    /// Target id.
    pub target: String,
    /// Token seed.
    pub seed: u64,
    /// Serve fused (the default) or through the unfused baseline.
    pub fused: bool,
}

/// Parse a whole-model `POST /v1/execute` body.
///
/// # Errors
///
/// A human-readable reason, rendered into a `400` body.
pub fn parse_graph_body(body: &str) -> Result<GraphRequest, String> {
    let mut graph = None;
    let mut target = None;
    let mut seed = None;
    let mut fused = true;
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed body line `{line}` (expected `key value`)"))?;
        match key {
            "graph" => graph = Some(value.to_string()),
            "target" => target = Some(value.to_string()),
            "seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
            }
            "mode" => {
                fused = match value {
                    "fused" => true,
                    "unfused" => false,
                    other => return Err(format!("bad mode `{other}` (fused|unfused)")),
                };
            }
            other => return Err(format!("unknown body key `{other}`")),
        }
    }
    Ok(GraphRequest {
        graph: graph.ok_or("missing `graph` line")?,
        target: target.ok_or("missing `target` line")?,
        seed: seed.ok_or("missing `seed` line")?,
        fused,
    })
}

/// Whole-model serving: resolve the named graph and execute the entire
/// forward pass as one artifact on the engine. Runs on the connection
/// thread — the scheduler's queue batches *op-shaped* requests; a model
/// execution is already one fused multi-dispatch unit with nothing to
/// batch against.
fn graph_route(scheduler: &Arc<Scheduler>, body: &str) -> HttpFailure {
    let req = match parse_graph_body(body) {
        Ok(req) => req,
        Err(e) => return (400, "Bad Request", format!("{e}\n")),
    };
    let Some(graph) = model_graph(&req.graph) else {
        return (
            400,
            "Bad Request",
            format!("unknown model graph `{}`\n", req.graph),
        );
    };
    let engine = scheduler.engine();
    let trace = engine.tracer().begin(format!(
        "serve_model graph={} target={} fused={}",
        req.graph, req.target, req.fused
    ));
    if let Some(t) = trace.as_ref() {
        let span = t.start("admission");
        span.finish(format!("graph={}", req.graph));
        // Model requests execute inline on the connection thread — no
        // scheduler queue — so the queue stage is present but empty.
        t.record_ending_now("queue", 0, "inline");
    }
    let result =
        engine.execute_model_traced(&graph, &req.target, req.seed, req.fused, trace.as_ref());
    let trace_id = trace.as_ref().map(|t| {
        let span = t.start("reply");
        span.finish(format!("ok={}", result.is_ok()));
        engine.finish_trace(t);
        t.id()
    });
    match result {
        Ok(outcome) => {
            let mut buf = TypedBuf::zeros(DType::I64, outcome.output.vals.len());
            for (i, &v) in outcome.output.vals.iter().enumerate() {
                buf.set(i, Scalar::Int(v));
            }
            (
                200,
                "OK",
                format!(
                    "ok\nmodel {}\nmode {}\nmicros {:016x}\nsteps {}\nfused_epilogue_ops {}\nshape {} {} {}\n{}{}",
                    req.graph,
                    if req.fused { "fused" } else { "unfused" },
                    outcome.micros.to_bits(),
                    outcome.steps,
                    outcome.fused_epilogue_ops,
                    outcome.output.batch,
                    outcome.output.rows,
                    outcome.output.cols,
                    trace_line(trace_id),
                    encode_typed_buf(&buf)
                ),
            )
        }
        Err(e @ (ServeError::UnknownTarget(_) | ServeError::InvalidModelId(_))) => {
            (400, "Bad Request", format!("{e}\n"))
        }
        Err(e @ ServeError::Plan(_)) => (400, "Bad Request", format!("{e}\n")),
        Err(e) => (
            500,
            "Internal Server Error",
            format!("execution failed: {e}\n"),
        ),
    }
}

/// Parse a `POST /v1/execute` body.
///
/// # Errors
///
/// A human-readable reason, rendered into a `400` body.
pub fn parse_execute_body(body: &str) -> Result<ServeRequest, String> {
    let mut model = None;
    let mut target = None;
    let mut op = None;
    let mut seed = None;
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed body line `{line}` (expected `key value`)"))?;
        match key {
            "model" => model = Some(value.to_string()),
            "target" => target = Some(value.to_string()),
            "op" => op = Some(OpSpec::decode(value).map_err(|e| format!("bad op: {e}"))?),
            "seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
            }
            other => return Err(format!("unknown body key `{other}`")),
        }
    }
    Ok(ServeRequest {
        model: model.ok_or("missing `model` line")?,
        target: target.ok_or("missing `target` line")?,
        op: op.ok_or("missing `op` line")?,
        seed: seed.ok_or("missing `seed` line")?,
    })
}

/// The optional `trace <id>` response line (empty when tracing is off —
/// existing clients see byte-identical bodies).
fn trace_line(trace_id: Option<u64>) -> String {
    trace_id.map(|t| format!("trace {t}\n")).unwrap_or_default()
}

/// Render a buffer as the response's `dtype`/`len`/`data` lines. Every
/// element is its raw 16-hex-digit bit pattern, so two encodings are
/// equal **iff** the buffers are bit-identical — the property the
/// multi-replica demo and the HTTP smoke test assert.
#[must_use]
pub fn encode_typed_buf(buf: &TypedBuf) -> String {
    let mut data = String::new();
    for i in 0..buf.len() {
        data.push(' ');
        let bits = match buf.get(i) {
            Scalar::Int(v) => v as u64,
            Scalar::Float(v) => v.to_bits(),
        };
        data.push_str(&format!("{bits:016x}"));
    }
    format!("dtype {}\nlen {}\ndata{data}\n", buf.dtype, buf.len())
}

/// Write one HTTP/1.1 response and flush.
fn respond(mut stream: &TcpStream, status: u16, reason: &str, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal blocking HTTP client for tests, CI smoke and the demo: send
/// one request, return `(status, body)`.
///
/// # Errors
///
/// `std::io::Error` on connect/IO failure or an unparseable response.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let (head, rest) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok((status, rest.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_head_parses_and_rejects() {
        let head = parse_request_head(
            "POST /v1/execute HTTP/1.1\r\nHost: x\r\nContent-LENGTH: 42\r\nX-Other: a:b",
        )
        .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/execute");
        assert_eq!(
            head.content_length,
            Some(42),
            "header names are case-insensitive"
        );

        assert!(parse_request_head("GET /metrics HTTP/1.1")
            .unwrap()
            .content_length
            .is_none());
        assert!(parse_request_head("").is_err());
        assert!(parse_request_head("GET /x").is_err(), "missing version");
        assert!(parse_request_head("GET /x SPDY/3").is_err(), "bad protocol");
        assert!(
            parse_request_head("GET /x HTTP/1.1 extra").is_err(),
            "trailing content"
        );
        assert!(
            parse_request_head("GET /x HTTP/1.1\r\nContent-Length: many").is_err(),
            "non-numeric length"
        );
        assert!(
            parse_request_head("GET /x HTTP/1.1\r\nno-colon-here").is_err(),
            "malformed header"
        );
    }

    #[test]
    fn duplicate_content_length_headers_must_agree() {
        // Regression (RFC 9112 §6.3): duplicate Content-Length used to
        // be last-wins, so `Content-Length: 7` + `Content-Length: 8`
        // parsed as 8 — a proxy honoring the first value and this
        // server honoring the second disagree about where the body
        // ends, the classic request-smuggling shape. Conflicting values
        // must reject (the route maps parse errors to 400).
        let same = parse_request_head("POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7")
            .unwrap();
        assert_eq!(same.content_length, Some(7), "agreeing duplicates are ok");

        let err = parse_request_head("POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 8")
            .unwrap_err();
        assert!(err.contains("conflicting Content-Length"), "{err}");
        assert!(
            parse_request_head("POST /x HTTP/1.1\r\nContent-Length: 8\r\nContent-Length: 7")
                .is_err(),
            "conflict detection is order-independent"
        );
        // Three headers where only the outer pair agree still conflict.
        assert!(parse_request_head(
            "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 9\r\nContent-Length: 7"
        )
        .is_err());
    }

    #[test]
    fn execute_body_parses_and_rejects() {
        let req = parse_execute_body("model m\ntarget x86-avx512-vnni\nop gemm:1:8:8:8\nseed 7\n")
            .unwrap();
        assert_eq!(req.model, "m");
        assert_eq!(req.target, "x86-avx512-vnni");
        assert_eq!(req.op, OpSpec::gemm(8, 8, 8));
        assert_eq!(req.seed, 7);

        for (body, why) in [
            ("target t\nop gemm:1:8:8:8\nseed 0", "missing model"),
            ("model m\nop gemm:1:8:8:8\nseed 0", "missing target"),
            ("model m\ntarget t\nseed 0", "missing op"),
            ("model m\ntarget t\nop gemm:1:8:8:8", "missing seed"),
            ("model m\ntarget t\nop nope:1\nseed 0", "bad op"),
            ("model m\ntarget t\nop gemm:1:8:8:8\nseed -1", "bad seed"),
            ("model m\nbogus v\nop gemm:1:8:8:8\nseed 0", "unknown key"),
            ("model-with-no-value\n", "no key/value split"),
        ] {
            assert!(parse_execute_body(body).is_err(), "{why}");
        }
    }

    #[test]
    fn typed_buf_encoding_is_bitwise() {
        use unit_dsl::DType;
        let mut a = TypedBuf::zeros(DType::F32, 3);
        a.set(0, Scalar::Float(0.1 + 0.2));
        a.set(1, Scalar::Float(-0.0));
        a.set(2, Scalar::Float(1.5));
        let mut b = TypedBuf::zeros(DType::F32, 3);
        b.set(0, Scalar::Float(0.3));
        b.set(1, Scalar::Float(0.0));
        b.set(2, Scalar::Float(1.5));
        // 0.1+0.2 != 0.3 and -0.0 != 0.0 *bitwise*: the encodings differ
        // even though `==` on the floats would call some of them equal.
        assert_ne!(encode_typed_buf(&a), encode_typed_buf(&b));
        assert_eq!(encode_typed_buf(&a), encode_typed_buf(&a.clone()));
        let enc = encode_typed_buf(&a);
        assert!(enc.starts_with("dtype fp32\nlen 3\ndata "), "{enc}");
        // Negative integers render as their two's-complement pattern.
        let mut ints = TypedBuf::zeros(DType::I32, 1);
        ints.set(0, Scalar::Int(-1));
        assert!(encode_typed_buf(&ints).contains("ffffffffffffffff"));
    }
}
