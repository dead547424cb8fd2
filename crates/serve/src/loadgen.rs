//! The benchmarking client: hammers a prediction server with concurrent
//! single-point queries and distills the run into the machine-readable
//! `BENCH_serve.json` snapshot (schema `hkrr-serve-perf/1`), the serving
//! counterpart of the training pipeline's `BENCH_pipeline.json`.
//!
//! Each client thread keeps one binary-protocol connection open and fires
//! seeded-random queries back to back; because the server coalesces across
//! connections, concurrency > 1 makes micro-batching directly observable in
//! the reported `mean_batch_size`.
//!
//! For availability testing of the distributed tier,
//! [`run_with_disruption`] fires a caller-supplied disruption (typically
//! "kill one shard-server process") once a threshold of requests has
//! completed, and the report then separates post-disruption error rate and
//! failover-era latency from the steady-state numbers.

use crate::client::Client;
use crate::ServeError;
use hkrr_bench::json::{validate, JsonWriter};
use hkrr_bench::prom::{self, Scrape};
use hkrr_linalg::random::Pcg64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Parameters of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total number of queries across all client threads.
    pub requests: usize,
    /// Number of concurrent client connections.
    pub concurrency: usize,
    /// RNG seed for the query points.
    pub seed: u64,
    /// Send a fresh trace id with every query; the report then carries
    /// `traced_requests` and the slowest trace ids, so a tail latency in
    /// `BENCH_serve*.json` can be chased into the merged cross-process
    /// trace.
    pub traced: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".to_string(),
            requests: 1000,
            concurrency: 8,
            seed: 0x10ad,
            traced: true,
        }
    }
}

/// What happened after a mid-run disruption ([`run_with_disruption`]):
/// the availability numbers the kill-a-shard scenario asserts on.
#[derive(Debug, Clone)]
pub struct DisruptionStats {
    /// The configured trigger: disrupt after this many completed requests.
    pub after_requests: usize,
    /// Completed-request count actually observed when the disruption
    /// fired (≥ `after_requests`; the watcher polls).
    pub fired_at_request: usize,
    /// Requests attempted after the disruption fired.
    pub requests_after: usize,
    /// Of those, how many failed.
    pub errors_after: usize,
    /// 95th-percentile client latency after the disruption — the failover
    /// era, where dead-replica detection and re-routing costs live.
    pub post_p95_ms: f64,
    /// Worst client latency after the disruption (the failover latency
    /// ceiling: it bounds how long any query stalled on a dead replica).
    pub post_max_ms: f64,
}

/// Router-side counters for the report's `routing` section, copied from a
/// [`RouterServer`](crate::router::RouterServer) after the run — or read
/// off a `metrics` scrape with [`RoutingStats::from_scrape`] when the
/// router lives in another process.
#[derive(Debug, Clone, Copy)]
pub struct RoutingStats {
    /// Queries where at least one planned shard was replaced or dropped.
    pub failovers: u64,
    /// Queries answered with fewer than `route_nearest` contributions.
    pub degraded: u64,
    /// Queries no shard replica could answer (errors to the client).
    pub exhausted: u64,
}

impl RoutingStats {
    /// Reads the router counters out of a parsed `metrics` scrape (summed
    /// over every router in the scraped process).
    pub fn from_scrape(scrape: &Scrape) -> RoutingStats {
        RoutingStats {
            failovers: scrape.counter("hkrr_router_failovers_total", &[]),
            degraded: scrape.counter("hkrr_router_degraded_total", &[]),
            exhausted: scrape.counter("hkrr_router_exhausted_total", &[]),
        }
    }
}

/// Server-side activity between the pre-run and post-run `metrics`
/// scrapes of the target: the registry's view of the same run the client
/// timed, folded into the report's `registry` section.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryDelta {
    /// Predict requests the server-side counters gained during the run
    /// (engine counters for a model server, router counters for a router).
    pub requests: u64,
    /// Queue rejections gained (model servers; 0 for a router).
    pub queue_rejections: u64,
    /// Failovers gained (routers; 0 for a model server).
    pub failovers: u64,
    /// Degraded replies gained (routers).
    pub degraded: u64,
    /// Exhausted replies gained (routers).
    pub exhausted: u64,
    /// Observations the request-latency histogram gained.
    pub latency_count: u64,
    /// Median server-side latency of the run, from histogram bucket
    /// deltas (bucket-upper-bound resolution), milliseconds.
    pub latency_p50_ms: f64,
    /// 95th percentile from the same bucket deltas, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th percentile from the same bucket deltas, milliseconds.
    pub latency_p99_ms: f64,
}

impl RegistryDelta {
    /// Folds two scrapes of the same process into the run's deltas. The
    /// latency percentiles come from whichever request-latency histogram
    /// moved (router for a router target, engine otherwise).
    pub fn between(before: &Scrape, after: &Scrape) -> RegistryDelta {
        let counter = |name: &str| {
            after
                .counter(name, &[])
                .saturating_sub(before.counter(name, &[]))
        };
        let mut delta = RegistryDelta {
            requests: counter("hkrr_engine_requests_total") + counter("hkrr_router_requests_total"),
            queue_rejections: counter("hkrr_engine_queue_rejections_total"),
            failovers: counter("hkrr_router_failovers_total"),
            degraded: counter("hkrr_router_degraded_total"),
            exhausted: counter("hkrr_router_exhausted_total"),
            ..RegistryDelta::default()
        };
        for name in [
            "hkrr_router_request_latency_micros",
            "hkrr_engine_request_latency_micros",
        ] {
            let (Some(a), b) = (after.histogram(name, &[]), before.histogram(name, &[])) else {
                continue;
            };
            let moved = match b {
                Some(b) => a.delta(&b).ok(),
                None => Some(a),
            };
            if let Some(h) = moved.filter(|h| h.count > 0) {
                delta.latency_count = h.count;
                delta.latency_p50_ms = h.quantile(0.50) / 1e3;
                delta.latency_p95_ms = h.quantile(0.95) / 1e3;
                delta.latency_p99_ms = h.quantile(0.99) / 1e3;
                break;
            }
        }
        delta
    }
}

/// Aggregated results of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Queries answered successfully.
    pub ok: usize,
    /// Queries that failed (transport or server-side rejection).
    pub errors: usize,
    /// Client connections used.
    pub concurrency: usize,
    /// Model feature dimension (from the server's `info`).
    pub dim: usize,
    /// Training-set size of the served model (from `info`).
    pub n_train: usize,
    /// Wall-clock duration of the whole run, seconds.
    pub elapsed_seconds: f64,
    /// Achieved throughput, queries per second.
    pub qps: f64,
    /// Client-observed latency percentiles/mean, milliseconds.
    pub client_mean_ms: f64,
    /// Median client-observed latency.
    pub client_p50_ms: f64,
    /// 95th-percentile client-observed latency.
    pub client_p95_ms: f64,
    /// Worst client-observed latency.
    pub client_max_ms: f64,
    /// Mean server-side (enqueue-to-reply) latency, milliseconds.
    pub server_mean_ms: f64,
    /// Request-weighted mean of the batch sizes requests were served in
    /// (> 1 ⇔ coalescing happened).
    pub mean_batch_size: f64,
    /// Largest batch any request was served in.
    pub max_batch_observed: usize,
    /// Present when the run had a mid-run disruption
    /// ([`run_with_disruption`]).
    pub disruption: Option<DisruptionStats>,
    /// Router counters, filled in by the caller when the target was a
    /// router tier (see [`LoadgenReport::with_routing`]).
    pub routing: Option<RoutingStats>,
    /// Server-side registry deltas between the pre-run and post-run
    /// `metrics` scrapes (absent only when the target could not be
    /// scraped).
    pub registry: Option<RegistryDelta>,
    /// Queries sent with a trace id (0 when [`LoadgenConfig::traced`] was
    /// off).
    pub traced_requests: usize,
    /// The slowest traced queries of the run as `(latency_micros,
    /// trace_id)`, slowest first — the ids to look up in the merged trace
    /// or the event log.
    pub slowest_traces: Vec<(u64, u128)>,
}

/// How many slowest-trace ids the report retains.
const SLOWEST_TRACES: usize = 5;

/// Merge `(latency_micros, trace_id)` observations into a bounded
/// slowest-first list.
fn merge_slowest(into: &mut Vec<(u64, u128)>, from: &[(u64, u128)]) {
    into.extend_from_slice(from);
    into.sort_by_key(|&(latency, _)| std::cmp::Reverse(latency));
    into.truncate(SLOWEST_TRACES);
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Runs the load against a live server.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    run_inner(config, None)
}

/// Runs the load and, once `after_requests` queries have completed, fires
/// `disrupt` (typically: kill one shard-server process) from a watcher
/// thread while the client threads keep hammering. The report's
/// [`DisruptionStats`] then isolates post-disruption availability — the
/// kill-a-shard scenario asserts a bounded error rate and, because every
/// client runs to its full quota, completing at all proves no hangs.
pub fn run_with_disruption(
    config: &LoadgenConfig,
    after_requests: usize,
    disrupt: impl FnOnce() + Send,
) -> Result<LoadgenReport, ServeError> {
    run_inner(config, Some((after_requests, Box::new(disrupt))))
}

fn run_inner(
    config: &LoadgenConfig,
    disruption: Option<(usize, Box<dyn FnOnce() + Send + '_>)>,
) -> Result<LoadgenReport, ServeError> {
    let concurrency = config.concurrency.max(1);
    let mut probe = Client::connect(&config.addr)?;
    let info = probe.info()?;
    let dim = info.dim as usize;
    let n_train = info.n_train;
    // Server-side view of the run: scrape the registry before and after so
    // the report can carry counter/histogram deltas next to the
    // client-observed numbers. Best-effort — a peer that cannot answer
    // `metrics` still gets load-generated.
    let scrape_before = probe.metrics().ok().and_then(|t| prom::parse(&t).ok());
    drop(probe);

    // Split the total as evenly as possible across the clients.
    let base = config.requests / concurrency;
    let extra = config.requests % concurrency;

    #[derive(Default)]
    struct ClientOutcome {
        latencies_ms: Vec<f64>,
        server_micros: u64,
        batch_sum: u64,
        batch_max: usize,
        errors: usize,
        post_latencies_ms: Vec<f64>,
        post_requests: usize,
        post_errors: usize,
        traced_requests: usize,
        slowest_traces: Vec<(u64, u128)>,
    }

    // Shared run state: completed-attempt counter drives the disruption
    // trigger; the flag tells client threads which bucket a request
    // belongs to (pre- or post-disruption).
    let completed = AtomicUsize::new(0);
    let disrupted = AtomicBool::new(false);
    let workers_done = AtomicBool::new(false);
    let fired_at = AtomicUsize::new(0);
    let after_configured = disruption.as_ref().map(|(after, _)| *after);

    let start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let watcher = disruption.map(|(after, disrupt)| {
            let completed = &completed;
            let disrupted = &disrupted;
            let workers_done = &workers_done;
            let fired_at = &fired_at;
            scope.spawn(move || {
                loop {
                    let done = completed.load(Ordering::Acquire);
                    if done >= after {
                        fired_at.store(done, Ordering::Release);
                        disrupt();
                        disrupted.store(true, Ordering::Release);
                        return;
                    }
                    if workers_done.load(Ordering::Acquire) {
                        return; // run finished before the threshold
                    }
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            })
        });
        let handles: Vec<_> = (0..concurrency)
            .map(|t| {
                let quota = base + usize::from(t < extra);
                let addr = config.addr.clone();
                let seed = config.seed ^ ((t as u64 + 1) * 0x9e37_79b9);
                let completed = &completed;
                let disrupted = &disrupted;
                scope.spawn(move || {
                    let mut out = ClientOutcome {
                        latencies_ms: Vec::with_capacity(quota),
                        ..ClientOutcome::default()
                    };
                    let Ok(mut client) = Client::connect(&addr) else {
                        out.errors = quota;
                        completed.fetch_add(quota, Ordering::AcqRel);
                        return out;
                    };
                    let mut rng = Pcg64::seed_from_u64(seed);
                    for _ in 0..quota {
                        let point: Vec<f64> = (0..dim).map(|_| rng.next_gaussian()).collect();
                        let post = disrupted.load(Ordering::Acquire);
                        let trace_id = if config.traced {
                            out.traced_requests += 1;
                            hkrr_telemetry::trace::mint_trace_id()
                        } else {
                            0
                        };
                        let sent = Instant::now();
                        let result = client.predict_traced(point, trace_id, 0);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        if post {
                            out.post_requests += 1;
                            out.post_latencies_ms.push(latency_ms);
                        }
                        if trace_id != 0 {
                            merge_slowest(
                                &mut out.slowest_traces,
                                &[(sent.elapsed().as_micros() as u64, trace_id)],
                            );
                        }
                        match result {
                            Ok(p) => {
                                out.latencies_ms.push(latency_ms);
                                out.server_micros += p.latency_micros;
                                out.batch_sum += p.batch_size as u64;
                                out.batch_max = out.batch_max.max(p.batch_size as usize);
                            }
                            Err(_) => {
                                out.errors += 1;
                                if post {
                                    out.post_errors += 1;
                                }
                            }
                        }
                        completed.fetch_add(1, Ordering::AcqRel);
                    }
                    out
                })
            })
            .collect();
        let outcomes = handles.into_iter().map(|h| h.join().unwrap()).collect();
        workers_done.store(true, Ordering::Release);
        if let Some(w) = watcher {
            let _ = w.join();
        }
        outcomes
    });
    let elapsed_seconds = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::with_capacity(config.requests);
    let mut post_latencies: Vec<f64> = Vec::new();
    let mut server_micros = 0u64;
    let mut batch_sum = 0u64;
    let mut batch_max = 0usize;
    let mut errors = 0usize;
    let mut post_requests = 0usize;
    let mut post_errors = 0usize;
    let mut traced_requests = 0usize;
    let mut slowest_traces: Vec<(u64, u128)> = Vec::new();
    for o in outcomes {
        latencies.extend_from_slice(&o.latencies_ms);
        post_latencies.extend_from_slice(&o.post_latencies_ms);
        server_micros += o.server_micros;
        batch_sum += o.batch_sum;
        batch_max = batch_max.max(o.batch_max);
        errors += o.errors;
        post_requests += o.post_requests;
        post_errors += o.post_errors;
        traced_requests += o.traced_requests;
        merge_slowest(&mut slowest_traces, &o.slowest_traces);
    }
    let ok = latencies.len();
    let registry = scrape_before.and_then(|before| {
        let after = Client::connect(&config.addr)
            .ok()?
            .metrics()
            .ok()
            .and_then(|t| prom::parse(&t).ok())?;
        Some(RegistryDelta::between(&before, &after))
    });
    let disruption_stats = if disrupted.load(Ordering::Acquire) {
        post_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(DisruptionStats {
            after_requests: after_configured.unwrap_or(0),
            fired_at_request: fired_at.load(Ordering::Acquire),
            requests_after: post_requests,
            errors_after: post_errors,
            post_p95_ms: percentile(&post_latencies, 0.95),
            post_max_ms: post_latencies.last().copied().unwrap_or(0.0),
        })
    } else {
        None
    };
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = if ok > 0 {
        latencies.iter().sum::<f64>() / ok as f64
    } else {
        0.0
    };

    Ok(LoadgenReport {
        ok,
        errors,
        concurrency,
        dim,
        n_train: n_train as usize,
        elapsed_seconds,
        qps: if elapsed_seconds > 0.0 {
            ok as f64 / elapsed_seconds
        } else {
            0.0
        },
        client_mean_ms: mean,
        client_p50_ms: percentile(&latencies, 0.50),
        client_p95_ms: percentile(&latencies, 0.95),
        client_max_ms: latencies.last().copied().unwrap_or(0.0),
        server_mean_ms: if ok > 0 {
            server_micros as f64 / ok as f64 / 1000.0
        } else {
            0.0
        },
        mean_batch_size: if ok > 0 {
            batch_sum as f64 / ok as f64
        } else {
            0.0
        },
        max_batch_observed: batch_max,
        disruption: disruption_stats,
        routing: None,
        registry,
        traced_requests,
        slowest_traces,
    })
}

impl LoadgenReport {
    /// Attaches router counters (read off the router after the run) so the
    /// JSON snapshot carries a `routing` section.
    pub fn with_routing(mut self, routing: RoutingStats) -> LoadgenReport {
        self.routing = Some(routing);
        self
    }

    /// Serializes the snapshot (schema `hkrr-serve-perf/1`), validated
    /// through the shared JSON checker before being handed out.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "hkrr-serve-perf/1");
        w.field_usize("requests_ok", self.ok);
        w.field_usize("requests_failed", self.errors);
        w.field_usize("concurrency", self.concurrency);
        w.field_usize("dim", self.dim);
        w.field_usize("n_train", self.n_train);
        w.field_f64("elapsed_seconds", self.elapsed_seconds);
        w.field_f64("qps", self.qps);
        w.field_f64("client_mean_ms", self.client_mean_ms);
        w.field_f64("client_p50_ms", self.client_p50_ms);
        w.field_f64("client_p95_ms", self.client_p95_ms);
        w.field_f64("client_max_ms", self.client_max_ms);
        w.field_f64("server_mean_ms", self.server_mean_ms);
        w.field_f64("mean_batch_size", self.mean_batch_size);
        w.field_usize("max_batch_observed", self.max_batch_observed);
        if let Some(d) = &self.disruption {
            w.key("disruption");
            w.begin_object();
            w.field_usize("after_requests", d.after_requests);
            w.field_usize("fired_at_request", d.fired_at_request);
            w.field_usize("requests_after", d.requests_after);
            w.field_usize("errors_after", d.errors_after);
            w.field_f64("post_p95_ms", d.post_p95_ms);
            w.field_f64("post_max_ms", d.post_max_ms);
            w.end_object();
        }
        if let Some(r) = &self.routing {
            w.key("routing");
            w.begin_object();
            w.field_u64("failovers", r.failovers);
            w.field_u64("degraded", r.degraded);
            w.field_u64("exhausted", r.exhausted);
            w.end_object();
        }
        if self.registry.is_some() || self.traced_requests > 0 {
            w.key("registry");
            w.begin_object();
            if let Some(r) = &self.registry {
                w.field_u64("requests", r.requests);
                w.field_u64("queue_rejections", r.queue_rejections);
                w.field_u64("failovers", r.failovers);
                w.field_u64("degraded", r.degraded);
                w.field_u64("exhausted", r.exhausted);
                w.field_u64("latency_count", r.latency_count);
                w.field_f64("latency_p50_ms", r.latency_p50_ms);
                w.field_f64("latency_p95_ms", r.latency_p95_ms);
                w.field_f64("latency_p99_ms", r.latency_p99_ms);
            }
            w.field_usize("traced_requests", self.traced_requests);
            w.key("slowest_traces");
            w.begin_array();
            for (latency_us, trace_id) in &self.slowest_traces {
                w.begin_object();
                w.field_u64("latency_us", *latency_us);
                w.field_str("trace_id", &format!("{trace_id:032x}"));
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        let out = w.finish();
        validate(&out).expect("generated BENCH_serve.json must be well-formed");
        out
    }

    /// A compact human-readable summary line.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} ok / {} failed over {} conns in {:.2}s — {:.0} q/s, \
             client p50 {:.2}ms p95 {:.2}ms, server mean {:.2}ms, \
             mean batch {:.2} (max {})",
            self.ok,
            self.errors,
            self.concurrency,
            self.elapsed_seconds,
            self.qps,
            self.client_p50_ms,
            self.client_p95_ms,
            self.server_mean_ms,
            self.mean_batch_size,
            self.max_batch_observed
        );
        if let Some(d) = &self.disruption {
            line.push_str(&format!(
                "; after disruption at #{}: {}/{} failed, post p95 {:.2}ms max {:.2}ms",
                d.fired_at_request, d.errors_after, d.requests_after, d.post_p95_ms, d.post_max_ms
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_small_samples() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4.0], 0.5), 4.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let report = LoadgenReport {
            ok: 100,
            errors: 0,
            concurrency: 8,
            dim: 16,
            n_train: 400,
            elapsed_seconds: 0.5,
            qps: 200.0,
            client_mean_ms: 1.5,
            client_p50_ms: 1.2,
            client_p95_ms: 3.4,
            client_max_ms: 9.9,
            server_mean_ms: 0.8,
            mean_batch_size: 3.7,
            max_batch_observed: 12,
            disruption: None,
            routing: None,
            registry: None,
            traced_requests: 0,
            slowest_traces: Vec::new(),
        };
        let json = report.to_json();
        validate(&json).unwrap();
        assert!(json.contains("\"schema\":\"hkrr-serve-perf/1\""));
        assert!(json.contains("\"mean_batch_size\":3.700000"));
        assert!(!json.contains("\"disruption\""));
        assert!(!json.contains("\"registry\""));
        assert!(report.summary().contains("100 ok"));

        let report = LoadgenReport {
            disruption: Some(DisruptionStats {
                after_requests: 50,
                fired_at_request: 52,
                requests_after: 48,
                errors_after: 1,
                post_p95_ms: 4.2,
                post_max_ms: 12.5,
            }),
            ..report
        }
        .with_routing(RoutingStats {
            failovers: 3,
            degraded: 2,
            exhausted: 0,
        });
        let report = LoadgenReport {
            registry: Some(RegistryDelta {
                requests: 100,
                latency_count: 100,
                latency_p50_ms: 0.4,
                latency_p95_ms: 1.6,
                latency_p99_ms: 3.2,
                ..RegistryDelta::default()
            }),
            traced_requests: 100,
            slowest_traces: vec![(900, 0xabcd), (500, 0x1234)],
            ..report
        };
        let json = report.to_json();
        validate(&json).unwrap();
        assert!(json.contains("\"disruption\""));
        assert!(json.contains("\"errors_after\":1"));
        assert!(json.contains("\"failovers\":3"));
        assert!(json.contains("\"registry\""));
        assert!(json.contains("\"latency_count\":100"));
        assert!(json.contains("\"traced_requests\":100"));
        assert!(json.contains(&format!("\"trace_id\":\"{:032x}\"", 0xabcdu128)));
        assert!(report.summary().contains("after disruption at #52"));
    }

    #[test]
    fn merge_slowest_keeps_bounded_slowest_first() {
        let mut acc: Vec<(u64, u128)> = Vec::new();
        merge_slowest(&mut acc, &[(10, 1), (90, 2)]);
        merge_slowest(&mut acc, &[(50, 3), (70, 4), (20, 5), (60, 6), (80, 7)]);
        assert_eq!(acc.len(), SLOWEST_TRACES);
        assert_eq!(acc[0], (90, 2));
        assert!(acc.windows(2).all(|w| w[0].0 >= w[1].0));
    }

    #[test]
    fn registry_delta_reads_both_tiers_from_scrapes() {
        let before = prom::parse(
            "# TYPE hkrr_engine_requests_total counter\n\
             hkrr_engine_requests_total{engine=\"e1\"} 10\n\
             # TYPE hkrr_engine_request_latency_micros histogram\n\
             hkrr_engine_request_latency_micros_bucket{engine=\"e1\",le=\"100\"} 5\n\
             hkrr_engine_request_latency_micros_bucket{engine=\"e1\",le=\"+Inf\"} 10\n\
             hkrr_engine_request_latency_micros_sum{engine=\"e1\"} 2000\n\
             hkrr_engine_request_latency_micros_count{engine=\"e1\"} 10\n",
        )
        .unwrap();
        let after = prom::parse(
            "# TYPE hkrr_engine_requests_total counter\n\
             hkrr_engine_requests_total{engine=\"e1\"} 30\n\
             # TYPE hkrr_engine_queue_rejections_total counter\n\
             hkrr_engine_queue_rejections_total{engine=\"e1\"} 2\n\
             # TYPE hkrr_engine_request_latency_micros histogram\n\
             hkrr_engine_request_latency_micros_bucket{engine=\"e1\",le=\"100\"} 20\n\
             hkrr_engine_request_latency_micros_bucket{engine=\"e1\",le=\"+Inf\"} 30\n\
             hkrr_engine_request_latency_micros_sum{engine=\"e1\"} 9000\n\
             hkrr_engine_request_latency_micros_count{engine=\"e1\"} 30\n",
        )
        .unwrap();
        let d = RegistryDelta::between(&before, &after);
        assert_eq!(d.requests, 20);
        assert_eq!(d.queue_rejections, 2);
        assert_eq!(d.latency_count, 20);
        // 15 of the 20 new observations landed in the le=100µs bucket, so
        // the median resolves to that bucket's upper bound: 0.1 ms.
        assert_eq!(d.latency_p50_ms, 0.1);
        let routing = RoutingStats::from_scrape(&after);
        assert_eq!(
            (routing.failovers, routing.degraded, routing.exhausted),
            (0, 0, 0)
        );
    }
}
