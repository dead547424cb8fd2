//! # hkrr_telemetry — offline observability substrate
//!
//! One crate, two instruments, zero dependencies:
//!
//! * **Metrics** — a process-global [`Registry`] of [`Counter`]s,
//!   [`Gauge`]s, and log-spaced-bucket [`Histogram`]s. Recording is
//!   lock-free atomics; [`Registry::render_prometheus`] exposes everything
//!   in Prometheus text exposition format, which the serving stack returns
//!   over the `HKRB` `metrics` (0x07) command so every shard server and
//!   the router are scrapeable in place.
//! * **Spans** — RAII [`trace::Span`] guards (via the [`span!`] macro)
//!   with monotonic microsecond timestamps and per-thread ids, written as
//!   Chrome trace-event JSON when `HKRR_TRACE=<path>` is set and compiled
//!   down to a relaxed atomic load when it is not. Spans can adopt a
//!   cross-process [`trace::TraceContext`] so `hkrr-serve trace-merge`
//!   stitches router and shard files into one causal timeline.
//! * **Events** — a leveled JSON-lines event log ([`log`]) behind
//!   `HKRR_LOG=<path|stderr>`: request outcomes and training milestones,
//!   buffered through a bounded non-blocking ring with an explicit
//!   [`log::dropped_events`] counter, and the same one-relaxed-load cost
//!   when disabled.
//!
//! See `docs/OBSERVABILITY.md` at the workspace root for the metric-name
//! catalog, the event-log schema, and the chrome://tracing workflow.

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramSpec};
pub use registry::{global, Registry};

use std::sync::OnceLock;
use std::time::Instant;

/// Compile-time build identity: crate version plus an optional build stamp.
///
/// Construct with the [`build_info!`] macro so the *calling* crate's
/// version is captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// `CARGO_PKG_VERSION` of the crate that invoked [`build_info!`].
    pub version: &'static str,
    /// `HKRR_BUILD_STAMP` from the build environment (a CI run id, a
    /// date, a short commit hash — anything git-free), `"dev"` otherwise.
    pub stamp: &'static str,
}

impl std::fmt::Display for BuildInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}+{}", self.version, self.stamp)
    }
}

/// Capture the calling crate's [`BuildInfo`] at compile time.
///
/// The stamp comes from the `HKRR_BUILD_STAMP` environment variable *at
/// compile time* (`option_env!`), defaulting to `"dev"` — deliberately
/// git-free so offline builds stay reproducible.
#[macro_export]
macro_rules! build_info {
    () => {
        $crate::BuildInfo {
            version: env!("CARGO_PKG_VERSION"),
            stamp: match option_env!("HKRR_BUILD_STAMP") {
                Some(s) => s,
                None => "dev",
            },
        }
    };
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// The instant this process's telemetry first woke up.
///
/// Servers call this once at startup so [`uptime_seconds`] measures from
/// process start rather than from the first scrape.
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Seconds since [`process_start`] was first called.
pub fn uptime_seconds() -> f64 {
    process_start().elapsed().as_secs_f64()
}

/// Register the standard process-identity series in `registry`:
/// `hkrr_build_info{version,stamp} 1` and an `hkrr_uptime_seconds` gauge
/// (refreshed to the current uptime on every call, so refresh it right
/// before rendering a scrape).
pub fn record_process_identity(registry: &Registry, build: BuildInfo) {
    record_process_identity_with(registry, build, &[]);
}

/// [`record_process_identity`] with extra `hkrr_build_info` labels.
///
/// This crate is dependency-free, so runtime facts owned by other layers
/// — the active dense backend, the factor-storage precision — are passed
/// in by the caller (the serve tier labels every scrape with both).
/// Registry series are idempotent by (name, sorted labels): call this
/// with the *same* extra label set on every scrape of a process.
pub fn record_process_identity_with(registry: &Registry, build: BuildInfo, extra: &[(&str, &str)]) {
    let mut labels: Vec<(&str, &str)> = vec![("version", build.version), ("stamp", build.stamp)];
    labels.extend_from_slice(extra);
    registry
        .gauge(
            "hkrr_build_info",
            "Build identity (constant 1; version/stamp/backend/precision in labels)",
            &labels,
        )
        .set(1.0);
    registry
        .gauge(
            "hkrr_uptime_seconds",
            "Seconds since process telemetry start",
            &[],
        )
        .set(uptime_seconds());
}

/// Escapes `s` for use inside a JSON string literal (the quotes are the
/// caller's): the span and event-log writers share it.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_macro_captures_this_crate() {
        let b = build_info!();
        assert_eq!(b.version, env!("CARGO_PKG_VERSION"));
        assert!(!b.stamp.is_empty());
        assert!(b.to_string().contains('+'));
    }

    #[test]
    fn process_identity_renders() {
        let r = Registry::new();
        record_process_identity(&r, build_info!());
        let text = r.render_prometheus();
        assert!(text.contains("hkrr_build_info{stamp="));
        assert!(text.contains("hkrr_uptime_seconds"));
    }

    #[test]
    fn uptime_is_monotonic() {
        let a = uptime_seconds();
        let b = uptime_seconds();
        assert!(b >= a);
    }
}
