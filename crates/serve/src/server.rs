//! The `std::net` TCP front-end of the prediction service.
//!
//! One listener thread accepts connections; each connection gets its own
//! handler thread that speaks either the binary framed protocol or line
//! mode (see [`crate::protocol`]) and hands decoded requests to a
//! [`RequestHandler`]. The connection machinery is shared by two handlers:
//!
//! * the engine-backed [`Server`] funnels predict requests into the shared
//!   micro-batching [`PredictionEngine`] — so queries from *different*
//!   connections coalesce into the same batches,
//! * the fan-out [`RouterServer`](crate::router::RouterServer) answers the
//!   same protocol by dispatching to remote shard servers.
//!
//! Shutdown is graceful: the accept loop is unblocked with a loopback
//! connection, handlers notice the flag through short read timeouts and
//! finish their in-flight request, and (for the engine-backed server) the
//! engine drains its queue before the workers exit.

use crate::codec;
use crate::engine::{EngineConfig, PredictionEngine, StatsSnapshot};
use crate::protocol::{self, Request, ServerInfo, WirePrediction, ROLE_MODEL, ROLE_ROUTER};
use crate::ServeError;
use hkrr_bench::json::JsonWriter;
use hkrr_core::DecisionModel;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::client::Client;

/// Configuration of the TCP front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Engine (worker pool / batching) configuration.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
        }
    }
}

/// A typed reply from a [`RequestHandler`] — rendered once for the binary
/// protocol and once for line mode, so handlers never touch wire encoding.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Answer to [`Request::Predict`].
    Prediction(WirePrediction),
    /// A JSON document (the `stats` command).
    Json(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info(ServerInfo),
    /// Answer to [`Request::Metrics`]: the process metrics registry in
    /// Prometheus text exposition format.
    Metrics(String),
    /// Answer to [`Request::Health`].
    Health {
        /// [`ROLE_MODEL`] or [`ROLE_ROUTER`].
        role: u8,
        /// Predict requests answered so far.
        requests: u64,
    },
    /// Answer to [`Request::Refresh`].
    Refreshed {
        /// Constituent model count after the reload.
        num_models: u32,
        /// Training points after the reload.
        n_train: u64,
    },
}

/// What a protocol front-end needs from the thing it fronts: one decoded
/// request in, one typed [`Reply`] (or typed error) out. Implemented by the
/// engine-backed server and by the shard-fan-out router, which share the
/// accept/framing machinery through this trait.
pub trait RequestHandler: Send + Sync + 'static {
    /// Answers one request. Errors become protocol-level error replies on
    /// the connection that asked; they never tear the server down.
    fn handle(&self, req: Request) -> Result<Reply, ServeError>;
}

/// Where a server's model came from, so `refresh` can re-load it in place.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// An `hkrr-model/1` file holding a single model or a whole ensemble.
    File(PathBuf),
    /// One shard (`SHnn` section) of an ensemble file — what a
    /// `shard-serve` process hosts.
    EnsembleShard {
        /// Path of the ensemble file.
        path: PathBuf,
        /// Zero-based shard index.
        index: usize,
    },
}

impl ModelSource {
    /// Loads (or re-loads) the model this source points at.
    pub fn load(&self) -> Result<Arc<dyn DecisionModel>, ServeError> {
        match self {
            ModelSource::File(path) => Ok(codec::load_any(path)?.into_handle()),
            ModelSource::EnsembleShard { path, index } => {
                Ok(Arc::new(codec::load_shard(path, *index)?))
            }
        }
    }
}

/// The engine-backed [`RequestHandler`]: predicts through the
/// micro-batching engine and, when a [`ModelSource`] is attached, services
/// `refresh` by re-loading the file and hot-swapping the engine's model.
struct EngineHandler {
    engine: Arc<PredictionEngine>,
    source: Option<ModelSource>,
}

impl RequestHandler for EngineHandler {
    fn handle(&self, req: Request) -> Result<Reply, ServeError> {
        match req {
            Request::Predict {
                point,
                trace_id,
                parent_span,
            } => {
                let result = self.engine.predict_one_traced(point, trace_id, parent_span);
                match &result {
                    Ok(p) => {
                        hkrr_telemetry::log::event(hkrr_telemetry::log::Level::Info, "request")
                            .trace(trace_id)
                            .field("role", "model")
                            .num("latency_us", p.latency.as_micros())
                            .num("batch", p.batch_size)
                            .field("outcome", "ok")
                            .emit();
                    }
                    Err(e) => {
                        hkrr_telemetry::log::event(hkrr_telemetry::log::Level::Error, "request")
                            .trace(trace_id)
                            .field("role", "model")
                            .field("outcome", "error")
                            .field("error", e)
                            .emit();
                    }
                }
                let p = result?;
                Ok(Reply::Prediction(WirePrediction {
                    score: p.score,
                    label: p.label,
                    batch_size: p.batch_size as u32,
                    latency_micros: p.latency.as_micros() as u64,
                }))
            }
            Request::Stats => Ok(Reply::Json(stats_json(&self.engine.stats()))),
            Request::Ping => Ok(Reply::Pong),
            Request::Info => {
                let model = self.engine.model();
                Ok(Reply::Info(server_info(
                    model.dim() as u32,
                    model.num_train() as u64,
                )))
            }
            Request::Metrics => Ok(Reply::Metrics(metrics_exposition())),
            Request::Health => Ok(Reply::Health {
                role: ROLE_MODEL,
                requests: self.engine.stats().requests,
            }),
            Request::Refresh => {
                let source = self.source.as_ref().ok_or_else(|| {
                    ServeError::Rejected(
                        "server was started without a model source; refresh is unavailable"
                            .to_string(),
                    )
                })?;
                let model = source.load()?;
                self.engine.refresh(Arc::clone(&model))?;
                Ok(Reply::Refreshed {
                    num_models: model.num_models() as u32,
                    n_train: model.num_train() as u64,
                })
            }
        }
    }
}

/// The protocol-agnostic TCP accept loop: binds, spawns one thread per
/// connection, and dispatches decoded requests to a [`RequestHandler`].
/// [`Server`] and [`RouterServer`](crate::router::RouterServer) are both
/// built on this.
pub struct TcpFrontEnd {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl TcpFrontEnd {
    /// Binds `addr` and starts accepting connections for `handler`.
    pub fn start(addr: &str, handler: Arc<dyn RequestHandler>) -> Result<TcpFrontEnd, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));

        let accept_running = Arc::clone(&running);
        let accept_handle = std::thread::spawn(move || {
            // Handler threads detach; the running flag plus short read
            // timeouts bound how long they outlive the accept loop.
            for stream in listener.incoming() {
                if !accept_running.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let handler = Arc::clone(&handler);
                let running = Arc::clone(&accept_running);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, handler.as_ref(), &running);
                });
            }
        });

        Ok(TcpFrontEnd {
            addr,
            running,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. Idempotent.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpFrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running prediction server: a [`TcpFrontEnd`] over the micro-batching
/// [`PredictionEngine`].
pub struct Server {
    front: TcpFrontEnd,
    engine: Arc<PredictionEngine>,
}

impl Server {
    /// Binds the listener and starts serving `model` — any
    /// [`DecisionModel`]: a single `KrrModel` or a sharded ensemble. The
    /// `refresh` command is rejected (there is no source to re-load from);
    /// use [`Server::start_with_source`] to enable it.
    pub fn start(
        model: Arc<dyn DecisionModel>,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        Server::start_inner(model, None, config)
    }

    /// Like [`Server::start`], but remembers where the model came from so
    /// the `refresh` command can re-load the file and hot-swap the model
    /// without dropping connections (same-dimension models only).
    pub fn start_with_source(
        source: ModelSource,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        let model = source.load()?;
        Server::start_inner(model, Some(source), config)
    }

    fn start_inner(
        model: Arc<dyn DecisionModel>,
        source: Option<ModelSource>,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        // Pin the uptime epoch now so `info`/`stats` uptimes measure from
        // server start even if no other telemetry fired yet.
        hkrr_telemetry::process_start();
        let engine = PredictionEngine::start(model, config.engine);
        let handler = Arc::new(EngineHandler {
            engine: Arc::clone(&engine),
            source,
        });
        let front = TcpFrontEnd::start(&config.addr, handler)?;
        Ok(Server { front, engine })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Engine statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.engine.stats()
    }

    /// The engine behind the front-end.
    pub fn engine(&self) -> &Arc<PredictionEngine> {
        &self.engine
    }

    /// Gracefully stops accepting, drains the engine, and joins the accept
    /// loop. Idempotent.
    pub fn shutdown(&self) {
        self.front.shutdown();
        self.engine.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The [`ServerInfo`] for this process's endpoint: model geometry plus
/// uptime (measured from first telemetry wake-up) and the compile-time
/// build identity.
pub fn server_info(dim: u32, n_train: u64) -> ServerInfo {
    let build = hkrr_telemetry::build_info!();
    ServerInfo {
        dim,
        n_train,
        uptime_micros: (hkrr_telemetry::uptime_seconds() * 1e6) as u64,
        version: build.version.to_string(),
        build_stamp: build.stamp.to_string(),
    }
}

/// The factor-storage precision this process would train with: the
/// `HKRR_FACTOR_PRECISION` override if set (an unparseable value labels as
/// `invalid` rather than panicking a scrape), `f64` otherwise.
fn factor_precision_label() -> &'static str {
    match std::env::var("HKRR_FACTOR_PRECISION") {
        Ok(raw) => hkrr_core::FactorPrecision::parse(&raw)
            .map(|p| p.as_str())
            .unwrap_or("invalid"),
        Err(_) => hkrr_core::FactorPrecision::F64.as_str(),
    }
}

/// Renders the process-global metrics registry as Prometheus text
/// exposition, refreshing the `hkrr_uptime_seconds` / `hkrr_build_info`
/// identity series first so every scrape carries a current uptime. The
/// build-info gauge is labeled with the crate version, build stamp, active
/// dense backend, and factor precision, so a scrape identifies exactly
/// what is running; `hkrr_log_dropped_events` exposes the event-log ring's
/// overflow count.
pub fn metrics_exposition() -> String {
    let registry = hkrr_telemetry::global();
    hkrr_telemetry::record_process_identity_with(
        registry,
        hkrr_telemetry::build_info!(),
        &[
            (
                "dense_backend",
                hkrr_linalg::backend::active_kind().as_str(),
            ),
            ("factor_precision", factor_precision_label()),
        ],
    );
    registry
        .gauge(
            "hkrr_log_dropped_events",
            "Event-log lines discarded by the bounded ring instead of blocking",
            &[],
        )
        .set(hkrr_telemetry::log::dropped_events() as f64);
    registry.render_prometheus()
}

/// Engine stats as the JSON object the `stats` command returns. When the
/// hosted model is a multi-shard ensemble, `model_requests` carries the
/// cumulative per-shard routed-query counts, so the per-shard serving load
/// is readable from a live server (binary `stats` opcode or the line-mode
/// `stats` command) without restarting it.
pub fn stats_json(stats: &StatsSnapshot) -> String {
    let build = hkrr_telemetry::build_info!();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_f64("uptime_seconds", hkrr_telemetry::uptime_seconds());
    w.field_str("version", build.version);
    w.field_str("build_stamp", build.stamp);
    w.field_str("engine", &format!("e{}", stats.engine_id));
    w.field_u64("requests", stats.requests);
    w.field_u64("batches", stats.batches);
    w.field_f64("mean_batch_size", stats.mean_batch_size);
    w.field_u64("max_batch_observed", stats.max_batch_observed);
    w.field_f64("mean_latency_ms", stats.mean_latency_ms);
    w.field_f64("max_latency_ms", stats.max_latency_ms);
    w.field_u64("queue_rejections", stats.queue_rejections);
    w.field_usize("num_models", stats.num_models);
    w.key("model_requests");
    w.begin_array();
    for &count in &stats.model_requests {
        w.value_u64(count);
    }
    w.end_array();
    write_slowlog(&mut w, &stats.slowlog);
    w.end_object();
    w.finish()
}

/// Appends the `"slowlog"` array (slowest first) to an open JSON object —
/// shared by the engine-backed stats and the router stats, so `doctor`
/// parses one shape everywhere.
pub(crate) fn write_slowlog(w: &mut JsonWriter, entries: &[crate::slowlog::SlowEntry]) {
    w.key("slowlog");
    w.begin_array();
    for e in entries {
        w.begin_object();
        w.field_u64("latency_us", e.latency_micros);
        w.field_str("trace_id", &e.trace_hex());
        w.field_str("detail", &e.detail);
        w.end_object();
    }
    w.end_array();
}

/// Renders a [`Reply`] as the binary-protocol OK body.
fn binary_body(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Prediction(p) => protocol::encode_prediction(p),
        Reply::Json(s) => s.clone().into_bytes(),
        Reply::Pong => Vec::new(),
        Reply::Info(info) => protocol::encode_info(info),
        Reply::Metrics(s) => s.clone().into_bytes(),
        Reply::Health { role, requests } => protocol::encode_health(*role, *requests),
        Reply::Refreshed {
            num_models,
            n_train,
        } => protocol::encode_refreshed(*num_models, *n_train),
    }
}

fn role_name(role: u8) -> &'static str {
    match role {
        ROLE_ROUTER => "router",
        _ => "model",
    }
}

/// Renders a handler outcome as one line-mode reply (newline included).
fn line_reply(result: Result<Reply, ServeError>) -> String {
    match result {
        Ok(Reply::Prediction(p)) => format!(
            "ok {} {:.17e} batch={} latency_us={}\n",
            p.label as i64, p.score, p.batch_size, p.latency_micros
        ),
        Ok(Reply::Json(s)) => format!("ok {s}\n"),
        Ok(Reply::Pong) => "ok pong\n".to_string(),
        Ok(Reply::Info(info)) => format!(
            "ok dim={} n_train={} uptime_seconds={:.3} version={}+{}\n",
            info.dim,
            info.n_train,
            info.uptime_seconds(),
            info.version,
            info.build_stamp
        ),
        // Multi-line payload: the exposition text follows the ok line and
        // a `# EOF` marker tells line-mode clients where the scrape ends.
        Ok(Reply::Metrics(s)) => format!("ok metrics\n{s}# EOF\n"),
        Ok(Reply::Health { role, requests }) => {
            format!("ok role={} requests={requests}\n", role_name(role))
        }
        Ok(Reply::Refreshed {
            num_models,
            n_train,
        }) => {
            format!("ok refreshed num_models={num_models} n_train={n_train}\n")
        }
        Err(e) => format!("err {e}\n"),
    }
}

/// Reads the 4-byte hello with the connection's read timeout in force and
/// dispatches to the binary or line-mode loop.
fn handle_connection(
    stream: TcpStream,
    handler: &dyn RequestHandler,
    running: &AtomicBool,
) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_nodelay(true).ok();

    // First bytes decide the mode. Reading them honors the running flag so
    // an idle pre-hello connection cannot hold up shutdown forever, and a
    // newline before the 4th byte dispatches straight to line mode so a
    // short typed command (e.g. "ls\n") gets its error reply instead of
    // stalling until a 4-byte hello completes.
    let mut first = [0u8; 4];
    let mut got = 0usize;
    let mut peek_stream = &stream;
    while got < first.len() {
        if !running.load(Ordering::Acquire) {
            return Ok(());
        }
        match peek_stream.read(&mut first[got..]) {
            Ok(0) => return Ok(()), // peer closed before the hello
            Ok(n) => {
                got += n;
                if first[..got].contains(&b'\n') {
                    return line_loop(stream, handler, running, &first[..got]);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e.into()),
        }
    }

    if first == protocol::BINARY_HELLO {
        binary_loop(stream, handler, running)
    } else {
        line_loop(stream, handler, running, &first)
    }
}

/// Fills `buf[*filled..]`, resuming across read timeouts so a frame whose
/// bytes straddle a timeout is never abandoned half-read (which would
/// desync the stream). Returns `false` on shutdown or peer close — but
/// only between frames (`may_stop`); mid-frame the read is completed so
/// the in-flight request still gets its answer.
fn fill_resumable(
    stream: &mut TcpStream,
    buf: &mut [u8],
    filled: &mut usize,
    running: &AtomicBool,
    may_stop: bool,
) -> Result<bool, ServeError> {
    // After shutdown, a mid-frame read gets a bounded number of timeout
    // grace periods (~2 s at the 250 ms read timeout) before the
    // connection is abandoned, so a stalled peer cannot block exit.
    let mut shutdown_grace = 8u32;
    while *filled < buf.len() {
        if may_stop && *filled == 0 && !running.load(Ordering::Acquire) {
            return Ok(false);
        }
        match stream.read(&mut buf[*filled..]) {
            Ok(0) => {
                if *filled == 0 && may_stop {
                    return Ok(false); // peer closed between frames
                }
                return Err(ServeError::Io(std::io::ErrorKind::UnexpectedEof.into()));
            }
            Ok(n) => *filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !running.load(Ordering::Acquire) {
                    if *filled == 0 && may_stop {
                        return Ok(false);
                    }
                    shutdown_grace -= 1;
                    if shutdown_grace == 0 {
                        return Err(ServeError::Io(std::io::ErrorKind::TimedOut.into()));
                    }
                }
                continue;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads one frame, retrying across timeouts without ever restarting a
/// partially-consumed frame. `Ok(None)` means "stop serving this
/// connection" (shutdown or peer closed between frames).
fn read_frame_with_timeout(
    stream: &mut TcpStream,
    running: &AtomicBool,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    if !fill_resumable(stream, &mut len_bytes, &mut filled, running, true)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > protocol::MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds the {}-byte cap",
            protocol::MAX_FRAME_LEN
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    // The length prefix arrived, so the frame is in flight: finish it even
    // if shutdown starts meanwhile (may_stop only applies between frames).
    fill_resumable(stream, &mut payload, &mut filled, running, false)?;
    Ok(Some(payload))
}

fn binary_loop(
    mut stream: TcpStream,
    handler: &dyn RequestHandler,
    running: &AtomicBool,
) -> Result<(), ServeError> {
    while let Some(frame) = read_frame_with_timeout(&mut stream, running)? {
        let reply = match protocol::decode_request(&frame).and_then(|req| handler.handle(req)) {
            Ok(reply) => protocol::encode_ok(&binary_body(&reply)),
            Err(e) => protocol::encode_err(&e.to_string()),
        };
        protocol::write_frame(&mut stream, &reply)?;
    }
    Ok(())
}

fn line_loop(
    stream: TcpStream,
    handler: &dyn RequestHandler,
    running: &AtomicBool,
    prefix: &[u8],
) -> Result<(), ServeError> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut pending: Vec<u8> = prefix.to_vec();
    loop {
        // Pull bytes until a full line is buffered, checking the running
        // flag on every timeout.
        let newline = loop {
            if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                break pos;
            }
            if !running.load(Ordering::Acquire) {
                return Ok(());
            }
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // peer closed
                Ok(chunk) => {
                    let n = chunk.len();
                    pending.extend_from_slice(chunk);
                    reader.consume(n);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e.into()),
            }
        };
        let line_bytes: Vec<u8> = pending.drain(..=newline).collect();
        let line = String::from_utf8_lossy(&line_bytes);
        let reply = match protocol::parse_line(line.trim()) {
            Ok(None) => {
                writer.write_all(b"bye\n")?;
                return Ok(());
            }
            Ok(Some(req)) => line_reply(handler.handle(req)),
            Err(e) => format!("err {e}\n"),
        };
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_core::{KrrConfig, KrrModel, SolverKind};
    use hkrr_datasets::registry::LETTER;

    fn served() -> (Server, Arc<KrrModel>, hkrr_datasets::Dataset) {
        let ds = hkrr_datasets::generate(&LETTER, 180, 24, 5);
        let cfg = KrrConfig {
            h: LETTER.default_h,
            lambda: LETTER.default_lambda,
            solver: SolverKind::Hss,
            ..KrrConfig::default()
        };
        let model = Arc::new(KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap());
        let server = Server::start(
            Arc::clone(&model) as Arc<dyn DecisionModel>,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                engine: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
            },
        )
        .unwrap();
        (server, model, ds)
    }

    #[test]
    fn binary_client_roundtrips_predictions_bitwise() {
        let (server, model, ds) = served();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        client.ping().unwrap();
        let info = client.info().unwrap();
        assert_eq!((info.dim, info.n_train), (16, 180));
        assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
        assert!(!info.build_stamp.is_empty());
        let direct = model.decision_values(&ds.test);
        for i in 0..8 {
            let p = client.predict(ds.test.row(i).to_vec()).unwrap();
            assert_eq!(p.score, direct[i], "query {i} must be bitwise identical");
        }
        let stats = client.stats().unwrap();
        hkrr_bench::json::validate(&stats).unwrap();
        assert!(stats.contains("\"requests\":8"));
        assert!(stats.contains("\"uptime_seconds\":"));
        assert!(stats.contains("\"version\":"));
        // The metrics scrape is valid exposition carrying this engine's
        // request counter under its unique engine label.
        let scrape = client.metrics().unwrap();
        let engine_label = format!("engine=\"e{}\"", server.stats().engine_id);
        assert!(
            scrape.contains(&format!("hkrr_engine_requests_total{{{engine_label}}} 8")),
            "scrape missing this engine's counter:\n{scrape}"
        );
        assert!(scrape.contains("hkrr_uptime_seconds"));
        assert!(scrape.contains("hkrr_build_info{"));
        // Health reports the model role and the predict count.
        let health = client.health().unwrap();
        assert_eq!((health.role, health.requests), (ROLE_MODEL, 8));
        // Refresh without a model source is a typed rejection, not a hang.
        assert!(matches!(client.refresh(), Err(ServeError::Rejected(_))));
        // Protocol-level rejection: wrong dimension.
        assert!(matches!(
            client.predict(vec![1.0; 3]),
            Err(ServeError::Rejected(_))
        ));
        server.shutdown();
    }

    #[test]
    fn line_mode_fallback_works_over_the_same_port() {
        let (server, model, ds) = served();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let mut cmd = String::from("predict");
        for v in ds.test.row(0) {
            cmd.push_str(&format!(" {v:.17e}"));
        }
        cmd.push('\n');
        writer.write_all(cmd.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let direct = model.decision_values(&ds.test)[0];
        let expected_label = if direct >= 0.0 { 1 } else { -1 };
        assert!(
            line.starts_with(&format!("ok {expected_label} ")),
            "unexpected reply {line:?}"
        );
        assert!(line.contains("batch="));

        writer.write_all(b"ping\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok pong\n");

        writer.write_all(b"health\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok role=model requests=1\n");

        writer.write_all(b"bogus\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("err "));

        writer.write_all(b"quit\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "bye\n");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let (server, _, ds) = served();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let before = server.stats().requests;
        client.predict(ds.test.row(0).to_vec()).unwrap();
        assert_eq!(server.stats().requests, before + 1);
        server.shutdown();
        server.shutdown(); // idempotent — and neither call may hang
    }
}
