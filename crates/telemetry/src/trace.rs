//! Lightweight span tracing with Chrome trace-event output.
//!
//! A span is an RAII guard: [`span`] (or the [`crate::span!`] macro)
//! captures a monotonic start timestamp, and dropping the guard writes one
//! Chrome *complete* event (`"ph":"X"`) — name, start, duration in
//! microseconds, process id, and a small dense thread id — as a JSON line
//! into the trace file. Load the file in `chrome://tracing` (or Perfetto)
//! to see per-thread flame charts of training phases, routing, and shard
//! dispatch.
//!
//! The sink is process-global and initialized once: explicitly with
//! [`init_with_path`], or lazily from the `HKRR_TRACE=<path>` environment
//! variable the first time a span is opened. When tracing is disabled the
//! whole path is one relaxed atomic load and no clock read — cheap enough
//! to leave `span!` in hot training loops.

use crate::json_escape;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const STATE_UNKNOWN: u8 = 0;
const STATE_DISABLED: u8 = 1;
const STATE_ENABLED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static SINK: OnceLock<Sink> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Sink {
    out: Mutex<BufWriter<File>>,
    epoch: Instant,
}

/// A request-scoped trace identity carried across process boundaries.
///
/// The router mints one per inbound query ([`mint_trace_id`]), stamps its
/// own spans with it, and forwards it to shard replicas inside every
/// predict frame; the shard engine adopts it so the merged
/// timeline groups every process's spans under one id. `trace_id == 0`
/// means "no trace context" and is never minted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Globally-unique request id (hex-rendered in trace args).
    pub trace_id: u128,
    /// Span id of the caller's span, `0` for a root.
    pub parent_span: u64,
}

impl TraceContext {
    /// A freshly-minted root context (no parent span).
    pub fn mint() -> TraceContext {
        TraceContext {
            trace_id: mint_trace_id(),
            parent_span: 0,
        }
    }
}

/// Mint a trace id unique across the processes of one dbench-style run.
///
/// Zero-dependency construction: process id, a per-process random-ish seed
/// from the wall clock at first use, and a monotone sequence number. Never
/// returns `0` (the "untraced" sentinel). Works whether or not span
/// tracing is enabled — the id also travels the wire protocol.
pub fn mint_trace_id() -> u128 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 32))
            .unwrap_or(0x9e37_79b9);
        nanos ^ ((std::process::id() as u64) << 17)
    });
    let seq = NEXT_TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let id =
        ((std::process::id() as u128) << 96) | ((seed as u128) << 32) | (seq as u128 & 0xffff_ffff);
    if id == 0 {
        1
    } else {
        id
    }
}

fn init_locked(path: &Path) -> std::io::Result<bool> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    // Chrome's JSON-array trace format tolerates a missing closing `]` and
    // trailing commas, so each event can be appended as a complete line
    // and the file stays loadable even if the process dies mid-run.
    writeln!(w, "[")?;
    let installed = SINK
        .set(Sink {
            out: Mutex::new(w),
            epoch: Instant::now(),
        })
        .is_ok();
    STATE.store(
        if installed {
            STATE_ENABLED
        } else {
            STATE.load(Ordering::SeqCst)
        },
        Ordering::SeqCst,
    );
    Ok(installed)
}

/// Route trace output to `path`, independent of `HKRR_TRACE`.
///
/// The sink is process-global and can only be installed once; returns
/// `Ok(false)` if tracing was already initialized (the existing sink
/// stays), `Err` if the file cannot be created.
pub fn init_with_path(path: impl AsRef<Path>) -> std::io::Result<bool> {
    if SINK.get().is_some() {
        return Ok(false);
    }
    init_locked(path.as_ref())
}

fn init_from_env() {
    match std::env::var_os("HKRR_TRACE") {
        Some(path) if !path.is_empty() => {
            if init_locked(Path::new(&path)).is_err() {
                STATE.store(STATE_DISABLED, Ordering::SeqCst);
            }
        }
        _ => STATE.store(STATE_DISABLED, Ordering::SeqCst),
    }
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ENABLED => true,
        STATE_DISABLED => false,
        _ => {
            init_from_env();
            STATE.load(Ordering::Relaxed) == STATE_ENABLED
        }
    }
}

/// Flush buffered trace events to disk.
pub fn flush() {
    if let Some(sink) = SINK.get() {
        let _ = sink.out.lock().unwrap().flush();
    }
}

/// An in-flight span; dropping it writes the trace event.
///
/// When tracing is disabled the guard is inert (no allocation, no clock
/// read at drop).
pub struct Span {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: String,
    start_us: u64,
    span_id: u64,
    trace: Option<TraceContext>,
    args: Vec<(String, String)>,
}

/// Open a span named `name`. Prefer the [`crate::span!`] macro.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let sink = SINK.get().expect("enabled() implies an installed sink");
    Span {
        inner: Some(ActiveSpan {
            name: name.to_string(),
            start_us: sink.epoch.elapsed().as_micros() as u64,
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            trace: None,
            args: Vec::new(),
        }),
    }
}

/// [`span`] over lazily-formatted arguments: nothing is formatted or
/// allocated when tracing is disabled. Used by the [`crate::span!`] macro.
pub fn span_fmt(args: std::fmt::Arguments<'_>) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    span(&args.to_string())
}

impl Span {
    /// Attach a key/value argument shown in the trace viewer's detail
    /// pane (e.g. the PCG iteration count, known only at span end).
    pub fn annotate(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(active) = self.inner.as_mut() {
            active.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Stamp this span with a cross-process [`TraceContext`]; the event's
    /// `args` gain `trace_id` (32-hex-digit), `span_id`, and (when the
    /// caller's span is known) `parent_span`, which `trace-merge` uses to
    /// stitch per-process files into one causal timeline. No-op when
    /// tracing is disabled.
    pub fn adopt(&mut self, ctx: TraceContext) {
        if let Some(active) = self.inner.as_mut() {
            active.trace = Some(ctx);
        }
    }

    /// This span's process-unique id (`0` when tracing is disabled).
    /// Pass it as `parent_span` in the [`TraceContext`] handed to callees.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |a| a.span_id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let Some(sink) = SINK.get() else { return };
        let end_us = sink.epoch.elapsed().as_micros() as u64;
        let dur = end_us.saturating_sub(active.start_us);
        let tid = TID.with(|t| *t);
        let mut args = String::new();
        if !active.args.is_empty() || active.trace.is_some() {
            args.push_str(",\"args\":{");
            let mut first = true;
            if let Some(ctx) = active.trace {
                args.push_str(&format!(
                    "\"trace_id\":\"{:032x}\",\"span_id\":\"{}\"",
                    ctx.trace_id, active.span_id
                ));
                if ctx.parent_span != 0 {
                    args.push_str(&format!(",\"parent_span\":\"{}\"", ctx.parent_span));
                }
                first = false;
            }
            for (k, v) in active.args.iter() {
                if !first {
                    args.push(',');
                }
                first = false;
                args.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            args.push('}');
        }
        let line = format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}{}}},",
            json_escape(&active.name),
            active.start_us,
            dur,
            std::process::id(),
            tid,
            args
        );
        let mut out = sink.out.lock().unwrap();
        let _ = writeln!(out, "{line}");
    }
}

/// Open an RAII trace span.
///
/// ```
/// let mut _span = hkrr_telemetry::span!("train.pcg");
/// // ... work ...
/// _span.annotate("iterations", 42);
/// // event written when `_span` drops
/// ```
///
/// With format arguments: `span!("shard.dispatch: {addr}")`.
#[macro_export]
macro_rules! span {
    ($($fmt:tt)+) => {
        $crate::trace::span_fmt(format_args!($($fmt)+))
    };
}
