//! Structured, leveled JSON-lines event log with a bounded ring buffer.
//!
//! Where spans ([`crate::trace`]) answer *where did the time go*, events
//! answer *what happened*: one JSON object per line, each carrying a wall
//! clock timestamp, a level, an event kind, and free-form fields (trace
//! ids, shard/replica labels, latencies, outcomes). The serve tier emits
//! one `request` event per query outcome and training emits per-level HSS
//! compression and PCG milestone events, so a fleet's logs can be grepped
//! and joined by `trace_id` against the merged span timeline.
//!
//! The sink is process-global and initialized once: explicitly with
//! [`init_with_path`], or lazily from `HKRR_LOG=<path|stderr>` the first
//! time an event is emitted. `HKRR_LOG_LEVEL` (`debug|info|warn|error`,
//! default `info`) filters below-threshold events at the emit site.
//!
//! **The hot path never blocks.** [`event`] pushes the formatted line into
//! a bounded in-memory ring buffer under a `try_lock`; a background drain
//! thread moves lines to the file every few milliseconds. When the buffer
//! is full the oldest line is overwritten, and when the lock is contended
//! the line is discarded — either way [`dropped_events`] counts it
//! explicitly instead of stalling the caller. When `HKRR_LOG` is unset the
//! whole path is one relaxed atomic load, mirroring the `HKRR_TRACE`
//! contract.

use crate::json_escape;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const STATE_UNKNOWN: u8 = 0;
const STATE_DISABLED: u8 = 1;
const STATE_ENABLED: u8 = 2;

/// Capacity of the in-memory ring buffer, in events.
pub const RING_CAPACITY: usize = 4096;

/// How often the background thread drains the ring to the sink.
const DRAIN_INTERVAL: Duration = Duration::from_millis(10);

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static SINK: OnceLock<LogSink> = OnceLock::new();
/// Events discarded because the ring was full or contended.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Lines accepted into the ring (for [`flush`] bookkeeping).
static ACCEPTED: AtomicU64 = AtomicU64::new(0);
/// Lines written through to the sink.
static WRITTEN: AtomicU64 = AtomicU64::new(0);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

struct LogSink {
    ring: Mutex<VecDeque<String>>,
    out: Mutex<Box<dyn std::io::Write + Send>>,
    capacity: usize,
}

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Development chatter, off by default.
    Debug = 0,
    /// Normal request/training milestones (the default threshold).
    Info = 1,
    /// Degraded-but-serving conditions (failover, partial fan-out).
    Warn = 2,
    /// Request failures and rejections.
    Error = 3,
}

impl Level {
    /// Stable lowercase name used in the JSON `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses an `HKRR_LOG_LEVEL`-style name (case-insensitive).
    pub fn parse(name: &str) -> Option<Level> {
        match name.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

fn init_locked(out: Box<dyn std::io::Write + Send>, capacity: usize) -> bool {
    if let Ok(raw) = std::env::var("HKRR_LOG_LEVEL") {
        if let Some(level) = Level::parse(&raw) {
            MIN_LEVEL.store(level as u8, Ordering::SeqCst);
        }
    }
    let installed = SINK
        .set(LogSink {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            out: Mutex::new(out),
            capacity,
        })
        .is_ok();
    if installed {
        STATE.store(STATE_ENABLED, Ordering::SeqCst);
        std::thread::Builder::new()
            .name("hkrr-log-drain".into())
            .spawn(drain_loop)
            .ok();
    }
    installed
}

fn open_out(path: &Path) -> std::io::Result<Box<dyn std::io::Write + Send>> {
    if path.as_os_str() == "stderr" {
        Ok(Box::new(std::io::stderr()))
    } else {
        Ok(Box::new(File::create(path)?))
    }
}

/// Route the event log to `path` (the literal string `stderr` selects the
/// process's standard error), independent of `HKRR_LOG`.
///
/// The sink is process-global and can only be installed once; returns
/// `Ok(false)` if the log was already initialized (the existing sink
/// stays), `Err` if the file cannot be created.
pub fn init_with_path(path: impl AsRef<Path>) -> std::io::Result<bool> {
    init_with_capacity(path, RING_CAPACITY)
}

/// [`init_with_path`] with an explicit ring capacity (tests use a tiny
/// ring to pin the overflow behaviour deterministically).
pub fn init_with_capacity(path: impl AsRef<Path>, capacity: usize) -> std::io::Result<bool> {
    if SINK.get().is_some() {
        return Ok(false);
    }
    let out = open_out(path.as_ref())?;
    Ok(init_locked(out, capacity.max(1)))
}

fn init_from_env() {
    match std::env::var_os("HKRR_LOG") {
        Some(path) if !path.is_empty() => match open_out(Path::new(&path)) {
            Ok(out) => {
                init_locked(out, RING_CAPACITY);
            }
            Err(_) => STATE.store(STATE_DISABLED, Ordering::SeqCst),
        },
        _ => STATE.store(STATE_DISABLED, Ordering::SeqCst),
    }
}

/// Whether events are currently being recorded.
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

/// Events discarded so far (ring overflow or lock contention) instead of
/// blocking an emitter. Exposed as the `hkrr_log_dropped_events` gauge on
/// metrics scrapes.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Drain the ring and flush the sink, blocking briefly until every
/// accepted event has been written (or ~2 s elapse). Call before process
/// exit; the background drain otherwise runs every few milliseconds.
pub fn flush() {
    let Some(sink) = SINK.get() else { return };
    drain_once(sink);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while WRITTEN.load(Ordering::SeqCst) < ACCEPTED.load(Ordering::SeqCst) {
        if std::time::Instant::now() > deadline {
            break;
        }
        drain_once(sink);
        std::thread::sleep(Duration::from_millis(1));
    }
    if let Ok(mut out) = sink.out.lock() {
        let _ = out.flush();
    }
}

fn drain_once(sink: &LogSink) {
    let batch: Vec<String> = {
        let Ok(mut ring) = sink.ring.lock() else {
            return;
        };
        ring.drain(..).collect()
    };
    if batch.is_empty() {
        return;
    }
    let n = batch.len() as u64;
    if let Ok(mut out) = sink.out.lock() {
        for line in &batch {
            let _ = writeln!(out, "{line}");
        }
        let _ = out.flush();
    }
    WRITTEN.fetch_add(n, Ordering::SeqCst);
}

fn drain_loop() {
    loop {
        std::thread::sleep(DRAIN_INTERVAL);
        if let Some(sink) = SINK.get() {
            drain_once(sink);
        }
    }
}

/// Start an event of `kind` at `level`. Returns an inert builder (no
/// allocation, no clock read) when the log is disabled or the level is
/// below the `HKRR_LOG_LEVEL` threshold; otherwise chain
/// [`EventBuilder::field`] / [`EventBuilder::num`] calls and finish with
/// [`EventBuilder::emit`].
pub fn event(level: Level, kind: &str) -> EventBuilder {
    if !enabled() || (level as u8) < MIN_LEVEL.load(Ordering::Relaxed) {
        return EventBuilder { line: None };
    }
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(160);
    line.push_str(&format!(
        "{{\"ts_us\":{},\"level\":\"{}\",\"event\":\"{}\",\"pid\":{}",
        ts_us,
        level.as_str(),
        json_escape(kind),
        std::process::id()
    ));
    EventBuilder { line: Some(line) }
}

/// Accumulates one JSON-lines event; see [`event`].
pub struct EventBuilder {
    line: Option<String>,
}

impl EventBuilder {
    /// Append a string-valued field.
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        if let Some(line) = self.line.as_mut() {
            line.push_str(&format!(
                ",\"{}\":\"{}\"",
                json_escape(key),
                json_escape(&value.to_string())
            ));
        }
        self
    }

    /// Append a numeric field (rendered unquoted; the value must format
    /// as a valid JSON number).
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        if let Some(line) = self.line.as_mut() {
            line.push_str(&format!(",\"{}\":{}", json_escape(key), value));
        }
        self
    }

    /// Append the standard `trace_id` field (32 hex digits); skipped for
    /// the `0` "untraced" sentinel.
    pub fn trace(self, trace_id: u128) -> Self {
        if trace_id == 0 {
            return self;
        }
        self.field("trace_id", format_args!("{trace_id:032x}"))
    }

    /// Close the object and push it into the ring buffer. Never blocks:
    /// a full ring overwrites its oldest line and a contended ring lock
    /// discards this one, both counted by [`dropped_events`].
    pub fn emit(self) {
        let Some(mut line) = self.line else { return };
        line.push('}');
        let Some(sink) = SINK.get() else { return };
        match sink.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() >= sink.capacity {
                    ring.pop_front();
                    DROPPED.fetch_add(1, Ordering::Relaxed);
                    // The overwritten line was already counted as
                    // accepted; it will never be written.
                    WRITTEN.fetch_add(1, Ordering::SeqCst);
                }
                ring.push_back(line);
                ACCEPTED.fetch_add(1, Ordering::SeqCst);
            }
            Err(_) => {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
