//! The distributed fan-out router tier.
//!
//! A [`RouterServer`] is the process in front of a fleet of per-shard
//! `shard-serve` processes. It holds **only** the ensemble's shard
//! centroids (a few kilobytes, read straight from the ensemble file's
//! `ENSH` section via
//! [`crate::codec::load_layout`]) plus client connections — never a model —
//! and it speaks the same `HKRB` protocol in both directions: a protocol
//! *server* to the outside, a protocol *client* (via [`Client`]) of its N
//! shard servers.
//!
//! Per query it sorts all centroids by distance with the ensemble's own
//! [`hkrr_ensemble::Router`], dispatches the point to the
//! `route_nearest` nearest shards, and combines the replies with the
//! ensemble's own [`hkrr_ensemble::combine_scores`] — so a routed-over-TCP
//! answer is **bitwise identical** to the in-process
//! [`hkrr_ensemble::EnsembleKrr`] on the same shard set (the
//! `distributed_serve` integration test pins this).
//!
//! Availability layers on top of that identity without disturbing it:
//!
//! * **Replication** — each shard may be served by several replicas; the
//!   router picks the replica with the fewest in-flight requests
//!   (least-loaded routing) and keeps cumulative per-replica dispatch
//!   counters for the `stats` command.
//! * **Health checks** — a background prober walks every replica each
//!   `health_interval` with the binary `health` command, so a replica that
//!   went dark is marked unhealthy (and is re-admitted when it answers
//!   again) without waiting for a query to trip over it.
//! * **Failover** — when a dispatch fails mid-query the replica is marked
//!   unhealthy and the next replica is tried; when a whole shard has no
//!   replica left, the query falls through to the next-nearest centroid's
//!   shard. A degraded reply (fewer than `route_nearest` contributions, but
//!   at least one) is still served rather than errored.
//!
//! The router is also the root of cross-process request tracing: it mints
//! a trace id per inbound query (or adopts the caller's non-zero one),
//! stamps it on its `router.predict` / `router.dispatch` spans, and
//! forwards it in every predict frame to the shard replicas, so the
//! shard's engine spans join the same timeline. Every routed query also
//! lands one structured event-log `request` line (when `HKRR_LOG` is set)
//! and competes for the router's [`SlowLog`].

use crate::client::Client;
use crate::protocol::{Request, WirePrediction, ROLE_ROUTER};
use crate::server::{
    metrics_exposition, server_info, write_slowlog, Reply, RequestHandler, TcpFrontEnd,
};
use crate::slowlog::{SlowLog, SLOWLOG_CAPACITY};
use crate::ServeError;
use hkrr_bench::json::JsonWriter;
use hkrr_ensemble::combine_scores;
use hkrr_linalg::Matrix;
use hkrr_telemetry::log::{self, Level};
use hkrr_telemetry::trace::{self, TraceContext};
use hkrr_telemetry::{Counter, Histogram, HistogramSpec};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotone router id so several routers in one process (tests) keep
/// distinct label sets in the shared registry.
static NEXT_ROUTER_ID: AtomicUsize = AtomicUsize::new(1);

/// Configuration of the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// How many nearest shards answer each query. `None` uses the value
    /// the ensemble was trained with (from the file header) — the setting
    /// that reproduces the in-process ensemble bitwise.
    pub route_nearest: Option<usize>,
    /// Period of the background replica health prober.
    pub health_interval: Duration,
    /// Deadline for establishing a connection to a shard replica.
    pub connect_timeout: Duration,
    /// Deadline for each read/write on a shard connection — the bound on
    /// how long a dead-but-accepting replica can stall one query.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            route_nearest: None,
            health_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// One replica of one shard: an address, a cached connection, and the
/// health/load instruments the routing decisions read. The cumulative
/// counters and the dispatch-latency histogram live in the process-global
/// metrics registry under `{router,shard,replica}` labels, so a `metrics`
/// scrape of the router carries per-replica dispatch/failure/latency.
struct Replica {
    addr: String,
    conn: Mutex<Option<Client>>,
    healthy: AtomicBool,
    /// Requests currently being answered by this replica — the
    /// least-loaded routing key.
    inflight: AtomicU64,
    /// Cumulative requests ever dispatched here (reported by `stats`).
    dispatched: Arc<Counter>,
    /// Cumulative dispatch failures (reported by `stats`).
    failures: Arc<Counter>,
    /// Wall-clock of successful dispatches (connect + round trip).
    latency_micros: Arc<Histogram>,
}

impl Replica {
    fn new(addr: String, router_label: &str, shard: usize) -> Replica {
        let registry = hkrr_telemetry::global();
        let shard_label = shard.to_string();
        let labels = [
            ("router", router_label),
            ("shard", shard_label.as_str()),
            ("replica", addr.as_str()),
        ];
        let dispatched = registry.counter(
            "hkrr_router_replica_dispatched_total",
            "Predict requests successfully answered by this replica",
            &labels,
        );
        let failures = registry.counter(
            "hkrr_router_replica_failures_total",
            "Dispatches to this replica that failed",
            &labels,
        );
        let latency_micros = registry.histogram(
            "hkrr_router_replica_latency_micros",
            "Wall-clock of successful dispatches to this replica",
            &labels,
            &HistogramSpec::latency_micros(),
        );
        Replica {
            addr,
            conn: Mutex::new(None),
            // Optimistic until the first probe or dispatch says otherwise,
            // so a router can start before its shard fleet finishes coming
            // up without permanently blacklisting anyone.
            healthy: AtomicBool::new(true),
            inflight: AtomicU64::new(0),
            dispatched,
            failures,
            latency_micros,
        }
    }

    /// One request/response against this replica, reusing the cached
    /// connection when possible. `trace` is the context to forward (see
    /// [`Client::predict_traced`]). On any error the cached connection is
    /// dropped and the replica is marked unhealthy (the prober re-admits
    /// it when it answers again).
    fn call(
        &self,
        point: &[f64],
        trace: TraceContext,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<WirePrediction, ServeError> {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let dispatch_started = Instant::now();
        let result = (|| {
            let mut guard = self.conn.lock().unwrap();
            if guard.is_none() {
                *guard = Some(Client::connect_with(
                    &self.addr,
                    connect_timeout,
                    io_timeout,
                )?);
            }
            let client = guard.as_mut().expect("connection just established");
            match client.predict_traced(point.to_vec(), trace.trace_id, trace.parent_span) {
                Ok(p) => Ok(p),
                Err(e @ (ServeError::Io(_) | ServeError::Protocol(_))) => {
                    // The stream may be desynced or dead — never reuse it.
                    *guard = None;
                    Err(e)
                }
                // Typed server-side errors (Rejected, Engine, …) leave the
                // connection healthy and reusable.
                Err(e) => Err(e),
            }
        })();
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        match &result {
            Ok(_) => {
                self.dispatched.inc();
                self.latency_micros
                    .record_duration(dispatch_started.elapsed());
                self.healthy.store(true, Ordering::Release);
            }
            Err(ServeError::Io(_) | ServeError::Protocol(_)) => {
                self.failures.inc();
                self.healthy.store(false, Ordering::Release);
            }
            Err(_) => {
                self.failures.inc();
            }
        }
        result
    }
}

/// The replicas serving one shard.
struct ShardPool {
    replicas: Vec<Replica>,
}

impl ShardPool {
    /// Replica indices in dispatch-preference order: healthy ones first by
    /// ascending in-flight count (least-loaded), then unhealthy ones as a
    /// last resort (they may have recovered since the last probe).
    fn preference_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.replicas.len()).collect();
        order.sort_by_key(|&i| {
            let r = &self.replicas[i];
            let unhealthy = !r.healthy.load(Ordering::Acquire);
            (unhealthy, r.inflight.load(Ordering::Acquire), i)
        });
        order
    }
}

struct RouterInner {
    /// Full-order centroid router (`route_nearest` = shard count): its
    /// sorted output is both the primary shard selection *and* the
    /// failover order.
    full_router: hkrr_ensemble::Router,
    /// How many shards answer each query on the healthy path.
    route_nearest: usize,
    pools: Vec<ShardPool>,
    connect_timeout: Duration,
    io_timeout: Duration,
    /// `"r<id>"` — this router's label value in the shared registry.
    router_label: String,
    /// Predict requests answered (including degraded ones).
    requests: Arc<Counter>,
    /// Queries where at least one planned shard was replaced or dropped.
    failovers: Arc<Counter>,
    /// Queries answered with fewer than `route_nearest` contributions.
    degraded: Arc<Counter>,
    /// Queries answered with zero contributions (errors to the caller).
    exhausted: Arc<Counter>,
    /// End-to-end routed-query latency (fan-out + combine).
    latency_micros: Arc<Histogram>,
    /// Top-N slowest routed queries (trace ids + fan-out context),
    /// surfaced through `stats` and `hkrr-serve doctor`.
    slowlog: SlowLog,
    /// Total training points behind the fleet, summed from shard `info`
    /// replies at startup (0 until at least one shard answered).
    n_train: AtomicU64,
}

impl RouterInner {
    fn dim(&self) -> usize {
        self.full_router.centroids().ncols()
    }

    /// Routes one point to shard processes and combines the replies —
    /// bitwise the in-process ensemble when all shards are reachable.
    ///
    /// `inbound` is the caller's trace context. For an untraced caller
    /// (zero trace id) the router mints its own context — but only when
    /// tracing or event logging is actually on, so the fully-disabled path
    /// forwards a zero trace id.
    fn predict(&self, point: &[f64], inbound: TraceContext) -> Result<WirePrediction, ServeError> {
        let ctx = if inbound.trace_id != 0 {
            Some(inbound)
        } else if trace::enabled() || log::enabled() {
            Some(TraceContext::mint())
        } else {
            None
        };
        let trace_id = ctx.map_or(0, |c| c.trace_id);
        if point.len() != self.dim() {
            if log::enabled() {
                log::event(Level::Error, "request")
                    .trace(trace_id)
                    .field("role", "router")
                    .field("outcome", "rejected")
                    .field("reason", "dimension_mismatch")
                    .emit();
            }
            return Err(ServeError::Rejected(format!(
                "dimension mismatch: model expects {}, request has {}",
                self.dim(),
                point.len()
            )));
        }
        let started = Instant::now();
        let mut predict_span = hkrr_telemetry::span!("router.predict");
        if let Some(ctx) = ctx {
            predict_span.adopt(ctx);
        }
        let predict_span_id = predict_span.id();
        let order = self.full_router.route(point);
        // (d2, score) contributions, gathered in failover order: the first
        // `route_nearest` shards when all are reachable — exactly the
        // in-process selection — with next-nearest substitutes appended
        // only when a nearer shard is completely dark.
        let mut contributions: Vec<(f64, f64)> = Vec::with_capacity(self.route_nearest);
        let mut failed_over = false;
        // Slowest successful dispatch `(micros, shard, replica addr)` —
        // the context string the slowlog entry carries.
        let mut slowest_dispatch: Option<(u64, usize, usize)> = None;
        for &(shard, d2) in &order {
            if contributions.len() == self.route_nearest {
                break;
            }
            let pool = &self.pools[shard];
            let mut answered = false;
            for idx in pool.preference_order() {
                let replica = &pool.replicas[idx];
                let mut dispatch_span = hkrr_telemetry::span!("router.dispatch");
                dispatch_span.annotate("shard", shard);
                dispatch_span.annotate("replica", &replica.addr);
                if let Some(ctx) = ctx {
                    dispatch_span.adopt(TraceContext {
                        trace_id: ctx.trace_id,
                        parent_span: predict_span_id,
                    });
                }
                let forward = TraceContext {
                    trace_id,
                    parent_span: dispatch_span.id(),
                };
                let dispatch_started = Instant::now();
                match replica.call(point, forward, self.connect_timeout, self.io_timeout) {
                    Ok(p) => {
                        let micros = dispatch_started.elapsed().as_micros() as u64;
                        if slowest_dispatch.map_or(true, |(m, _, _)| micros > m) {
                            slowest_dispatch = Some((micros, shard, idx));
                        }
                        contributions.push((d2, p.score));
                        answered = true;
                        break;
                    }
                    Err(ServeError::Io(_) | ServeError::Protocol(_)) => {
                        // Dead replica: already marked unhealthy, try the
                        // next one.
                        failed_over = true;
                    }
                    // A typed reply from a live shard (e.g. Rejected) is
                    // not an availability problem — surface it.
                    Err(e) => return Err(e),
                }
            }
            if !answered {
                failed_over = true;
            }
        }
        self.requests.inc();
        let latency = started.elapsed();
        self.latency_micros.record_duration(latency);
        predict_span.annotate("contributions", contributions.len());
        predict_span.annotate("failed_over", failed_over);
        drop(predict_span);
        if failed_over {
            self.failovers.inc();
        }
        let latency_micros = latency.as_micros() as u64;
        let num_contributions = contributions.len();
        self.slowlog.record(latency_micros, trace_id, || {
            let tail = match slowest_dispatch {
                Some((micros, shard, idx)) => format!(
                    " slowest_dispatch=shard{shard}:{} ({micros}us)",
                    self.pools[shard].replicas[idx].addr
                ),
                None => String::new(),
            };
            format!("contributions={num_contributions} failover={failed_over}{tail}")
        });
        let outcome = if contributions.is_empty() {
            "rejected"
        } else if num_contributions < self.route_nearest {
            "degraded"
        } else if failed_over {
            "failover"
        } else {
            "ok"
        };
        if log::enabled() {
            let level = match outcome {
                "ok" => Level::Info,
                "rejected" => Level::Error,
                _ => Level::Warn,
            };
            let mut ev = log::event(level, "request")
                .trace(trace_id)
                .field("role", "router")
                .num("latency_us", latency_micros)
                .num("contributions", num_contributions)
                .field("outcome", outcome);
            if let Some((micros, shard, idx)) = slowest_dispatch {
                ev = ev
                    .num("slowest_dispatch_us", micros)
                    .num("shard", shard)
                    .field("replica", &self.pools[shard].replicas[idx].addr);
            }
            ev.emit();
        }
        if contributions.is_empty() {
            self.exhausted.inc();
            return Err(ServeError::Rejected(
                "no shard replica reachable for this query".to_string(),
            ));
        }
        if num_contributions < self.route_nearest {
            self.degraded.inc();
        }
        let score = combine_scores(&mut contributions);
        Ok(WirePrediction {
            score,
            label: if score >= 0.0 { 1.0 } else { -1.0 },
            // For a router the "batch" is the fan-out width that actually
            // answered — loadgen and operators read degraded replies off
            // this field.
            batch_size: num_contributions as u32,
            latency_micros: started.elapsed().as_micros() as u64,
        })
    }

    /// Router stats as a JSON object (schema `hkrr-router-stats/1`):
    /// query counters plus per-shard, per-replica address / health / load.
    fn stats_json(&self) -> String {
        let build = hkrr_telemetry::build_info!();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "hkrr-router-stats/1");
        w.field_str("role", "router");
        w.field_f64("uptime_seconds", hkrr_telemetry::uptime_seconds());
        w.field_str("version", build.version);
        w.field_str("build_stamp", build.stamp);
        w.field_str("router", &self.router_label);
        w.field_u64("requests", self.requests.get());
        w.field_u64("failovers", self.failovers.get());
        w.field_u64("degraded", self.degraded.get());
        w.field_u64("exhausted", self.exhausted.get());
        w.field_usize("shards", self.pools.len());
        w.field_usize("route_nearest", self.route_nearest);
        w.key("replicas");
        w.begin_array();
        for (shard, pool) in self.pools.iter().enumerate() {
            for replica in &pool.replicas {
                w.begin_object();
                w.field_usize("shard", shard);
                w.field_str("addr", &replica.addr);
                w.key("healthy");
                w.value_bool(replica.healthy.load(Ordering::Acquire));
                w.field_u64("inflight", replica.inflight.load(Ordering::Acquire));
                w.field_u64("dispatched", replica.dispatched.get());
                w.field_u64("failures", replica.failures.get());
                w.end_object();
            }
        }
        w.end_array();
        write_slowlog(&mut w, &self.slowlog.snapshot());
        w.end_object();
        w.finish()
    }
}

/// The [`RequestHandler`] face of the router: same protocol as a model
/// server, answered by fan-out instead of an engine.
struct RouterHandler {
    inner: Arc<RouterInner>,
}

impl RequestHandler for RouterHandler {
    fn handle(&self, req: Request) -> Result<Reply, ServeError> {
        match req {
            Request::Predict {
                point,
                trace_id,
                parent_span,
            } => Ok(Reply::Prediction(self.inner.predict(
                &point,
                TraceContext {
                    trace_id,
                    parent_span,
                },
            )?)),
            Request::Stats => Ok(Reply::Json(self.inner.stats_json())),
            Request::Ping => Ok(Reply::Pong),
            Request::Info => Ok(Reply::Info(server_info(
                self.inner.dim() as u32,
                self.inner.n_train.load(Ordering::Relaxed),
            ))),
            Request::Metrics => Ok(Reply::Metrics(metrics_exposition())),
            Request::Health => Ok(Reply::Health {
                role: ROLE_ROUTER,
                requests: self.inner.requests.get(),
            }),
            Request::Refresh => {
                // Broadcast: ask one replica per shard (all replicas of a
                // shard host the same file) plus every other replica, so
                // the whole fleet reloads. Counters aggregate per shard.
                let mut refreshed_shards = 0u32;
                let mut n_train = 0u64;
                let mut last_err: Option<ServeError> = None;
                for pool in &self.inner.pools {
                    let mut shard_done = false;
                    for replica in &pool.replicas {
                        match refresh_replica(
                            replica,
                            self.inner.connect_timeout,
                            self.inner.io_timeout,
                        ) {
                            Ok((_, nt)) => {
                                if !shard_done {
                                    refreshed_shards += 1;
                                    n_train += nt;
                                    shard_done = true;
                                }
                            }
                            Err(e) => last_err = Some(e),
                        }
                    }
                }
                if refreshed_shards == 0 {
                    return Err(last_err.unwrap_or_else(|| {
                        ServeError::Rejected("no shard replica reachable".to_string())
                    }));
                }
                Ok(Reply::Refreshed {
                    num_models: refreshed_shards,
                    n_train,
                })
            }
        }
    }
}

/// One `refresh` round trip on a replica's cached connection.
fn refresh_replica(
    replica: &Replica,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<(u32, u64), ServeError> {
    let mut guard = replica.conn.lock().unwrap();
    if guard.is_none() {
        *guard = Some(Client::connect_with(
            &replica.addr,
            connect_timeout,
            io_timeout,
        )?);
    }
    let client = guard.as_mut().expect("connection just established");
    match client.refresh() {
        Ok(out) => Ok(out),
        Err(e) => {
            *guard = None;
            Err(e)
        }
    }
}

/// A running router: a [`TcpFrontEnd`] whose handler fans out to shard
/// server processes, plus the background health prober.
pub struct RouterServer {
    front: TcpFrontEnd,
    inner: Arc<RouterInner>,
    prober_running: Arc<AtomicBool>,
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl RouterServer {
    /// Starts a router over `centroids` (`k × d`, from the ensemble file
    /// header) with `shard_addrs[i]` holding the replica addresses of
    /// shard `i`. `trained_route_nearest` is the ensemble's own `m` (the
    /// file header value), used when the config does not override it.
    pub fn start(
        centroids: Matrix,
        trained_route_nearest: usize,
        shard_addrs: Vec<Vec<String>>,
        config: RouterConfig,
    ) -> Result<RouterServer, ServeError> {
        let shards = centroids.nrows();
        if shard_addrs.len() != shards {
            return Err(ServeError::Rejected(format!(
                "ensemble has {shards} shards but {} shard address groups were given",
                shard_addrs.len()
            )));
        }
        if shard_addrs.iter().any(Vec::is_empty) {
            return Err(ServeError::Rejected(
                "every shard needs at least one replica address".to_string(),
            ));
        }
        let route_nearest = config.route_nearest.unwrap_or(trained_route_nearest);
        if route_nearest == 0 || route_nearest > shards {
            return Err(ServeError::Rejected(format!(
                "route_nearest must be in 1..={shards}, got {route_nearest}"
            )));
        }
        // Pin the uptime epoch and claim a unique registry label before
        // any instrument registers under it.
        hkrr_telemetry::process_start();
        let router_label = format!("r{}", NEXT_ROUTER_ID.fetch_add(1, Ordering::Relaxed));
        // Full order: the sorted list is both selection and failover plan.
        let full_router =
            hkrr_ensemble::Router::new(centroids, shards).map_err(ServeError::Rejected)?;
        let pools = shard_addrs
            .into_iter()
            .enumerate()
            .map(|(shard, addrs)| ShardPool {
                replicas: addrs
                    .into_iter()
                    .map(|addr| Replica::new(addr, &router_label, shard))
                    .collect(),
            })
            .collect();
        let registry = hkrr_telemetry::global();
        let labels = [("router", router_label.as_str())];
        let inner = Arc::new(RouterInner {
            full_router,
            route_nearest,
            pools,
            connect_timeout: config.connect_timeout,
            io_timeout: config.io_timeout,
            requests: registry.counter(
                "hkrr_router_requests_total",
                "Routed predict queries answered (including degraded ones)",
                &labels,
            ),
            failovers: registry.counter(
                "hkrr_router_failovers_total",
                "Queries where a planned shard was replaced or dropped",
                &labels,
            ),
            degraded: registry.counter(
                "hkrr_router_degraded_total",
                "Queries answered with fewer than route_nearest contributions",
                &labels,
            ),
            exhausted: registry.counter(
                "hkrr_router_exhausted_total",
                "Queries answered with zero contributions (errors)",
                &labels,
            ),
            slowlog: SlowLog::new(SLOWLOG_CAPACITY),
            latency_micros: registry.histogram(
                "hkrr_router_request_latency_micros",
                "End-to-end routed-query latency (fan-out plus combine)",
                &labels,
                &HistogramSpec::latency_micros(),
            ),
            router_label,
            n_train: AtomicU64::new(0),
        });

        let front = TcpFrontEnd::start(
            &config.addr,
            Arc::new(RouterHandler {
                inner: Arc::clone(&inner),
            }),
        )?;

        let prober_running = Arc::new(AtomicBool::new(true));
        let prober = {
            let inner = Arc::clone(&inner);
            let running = Arc::clone(&prober_running);
            let interval = config.health_interval;
            std::thread::spawn(move || probe_loop(&inner, &running, interval))
        };

        Ok(RouterServer {
            front,
            inner,
            prober_running,
            prober: Mutex::new(Some(prober)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The router stats JSON (same document the `stats` command returns).
    pub fn stats_json(&self) -> String {
        self.inner.stats_json()
    }

    /// Snapshot of per-shard replica health: `health[shard][replica]`.
    pub fn replica_health(&self) -> Vec<Vec<bool>> {
        self.inner
            .pools
            .iter()
            .map(|pool| {
                pool.replicas
                    .iter()
                    .map(|r| r.healthy.load(Ordering::Acquire))
                    .collect()
            })
            .collect()
    }

    /// Cumulative per-replica dispatch counts:
    /// `dispatched[shard][replica]`.
    pub fn replica_dispatched(&self) -> Vec<Vec<u64>> {
        self.inner
            .pools
            .iter()
            .map(|pool| pool.replicas.iter().map(|r| r.dispatched.get()).collect())
            .collect()
    }

    /// Queries that needed failover so far.
    pub fn failovers(&self) -> u64 {
        self.inner.failovers.get()
    }

    /// Queries answered with fewer than `route_nearest` contributions.
    pub fn degraded(&self) -> u64 {
        self.inner.degraded.get()
    }

    /// Stops the prober and the front-end. Idempotent.
    pub fn shutdown(&self) {
        self.prober_running.store(false, Ordering::Release);
        if let Some(handle) = self.prober.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.front.shutdown();
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The background prober: every `interval`, walk every replica with a
/// fresh short-deadline connection and the binary `health` command, and
/// set its healthy flag from the outcome. The first sweep also sums shard
/// `info.n_train` into the router's `info` reply.
fn probe_loop(inner: &RouterInner, running: &AtomicBool, interval: Duration) {
    let connect_timeout = inner.connect_timeout.min(Duration::from_millis(250));
    let io_timeout = inner.io_timeout.min(Duration::from_millis(500));
    let mut have_n_train = false;
    while running.load(Ordering::Acquire) {
        let mut n_train_sum = 0u64;
        let mut all_info = true;
        for pool in &inner.pools {
            let mut shard_n_train: Option<u64> = None;
            for replica in &pool.replicas {
                let outcome = Client::connect_with(&replica.addr, connect_timeout, io_timeout)
                    .and_then(|mut c| {
                        c.health()?;
                        if !have_n_train && shard_n_train.is_none() {
                            shard_n_train = Some(c.info()?.n_train);
                        }
                        Ok(())
                    });
                replica.healthy.store(outcome.is_ok(), Ordering::Release);
            }
            match shard_n_train {
                Some(n) => n_train_sum += n,
                None => all_info = false,
            }
        }
        if !have_n_train && all_info {
            inner.n_train.store(n_train_sum, Ordering::Relaxed);
            have_n_train = true;
        }
        // Sleep in short slices so shutdown is prompt even with a long
        // probe interval.
        let mut remaining = interval;
        while remaining > Duration::ZERO && running.load(Ordering::Acquire) {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}
