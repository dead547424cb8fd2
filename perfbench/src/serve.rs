//! Serving through the public serving API over loopback: in-process shard
//! `Server`s behind a `RouterServer` (or one `Server` for a single model)
//! at the default configurations `hkrr-serve` uses, driven by a closed loop
//! of blocking `Client`s.

use crate::spans::Recorder;
use crate::stats::{Latencies, Stopwatch, Timing};
use hkrr_linalg::Matrix;
use hkrr_serve::codec;
use hkrr_serve::protocol::WirePrediction;
use hkrr_serve::{Client, ModelSource, RouterConfig, RouterServer, Server, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Deadlines of every benchmark connection: a hung server turns into
/// failed requests instead of a hung run.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with(addr, CONNECT_TIMEOUT, IO_TIMEOUT).map_err(serve_err)
}

/// Predicts per client connection before the measured phase.
pub const WARMUP: usize = 20;
/// Refreshes per serve phase, evenly spaced in time, made under load.
pub const REFRESHES: usize = 2;
/// Refreshes after the serve phase with the clients idle; `refresh_s` is
/// their least-disturbed median.
const IDLE_REFRESHES: usize = 3;
/// Pause before each idle refresh, so the one before has settled.
const IDLE_PAUSE: Duration = Duration::from_millis(100);
/// How often the serve phase reads the host's steal counter. The interval
/// between two readings is one window of the calm-window metrics.
const WINDOW: Duration = Duration::from_millis(100);
/// Windows that start this soon after a refresh returns still pay for it
/// (the serving threads catch up on what queued behind the reload), so the
/// calm-window metrics leave them out with the refresh itself.
const REFRESH_MARGIN_US: f64 = 250_000.0;
/// Share of the windows clear of refreshes that the calm-window metrics
/// keep at least: those with the least host steal.
const CALM_SHARE: f64 = 0.1;

pub enum Deployment {
    Single(Server),
    Fleet {
        shards: Vec<Server>,
        router: RouterServer,
    },
}

/// Engine counters summed over a deployment's servers.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    pub requests: u64,
    pub batches: u64,
    pub latency_ms_sum: f64,
    pub rejections: u64,
}

impl EngineTotals {
    pub fn since(&self, before: &EngineTotals) -> EngineTotals {
        EngineTotals {
            requests: self.requests - before.requests,
            batches: self.batches - before.batches,
            latency_ms_sum: self.latency_ms_sum - before.latency_ms_sum,
            rejections: self.rejections - before.rejections,
        }
    }

    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_ms_sum / self.requests.max(1) as f64
    }

    pub fn mean_batch(&self) -> f64 {
        self.requests as f64 / self.batches.max(1) as f64
    }
}

fn serve_err(e: impl std::fmt::Display) -> String {
    format!("serve: {e}")
}

impl Deployment {
    /// One server hosting a single-model file, as `hkrr-serve serve` does.
    pub fn start_single(path: &Path) -> Result<Deployment, String> {
        let server = Server::start_with_source(
            ModelSource::File(path.to_path_buf()),
            ServerConfig::default(),
        )
        .map_err(serve_err)?;
        Ok(Deployment::Single(server))
    }

    /// One `shard-serve`-style server per shard of an ensemble file, and a
    /// router over them built from the file's layout, as `hkrr-serve route`
    /// does.
    pub fn start_fleet(path: &Path) -> Result<Deployment, String> {
        let layout = codec::load_layout(path).map_err(serve_err)?;
        let mut shards = Vec::with_capacity(layout.shards);
        for index in 0..layout.shards {
            let source = ModelSource::EnsembleShard {
                path: path.to_path_buf(),
                index,
            };
            shards.push(
                Server::start_with_source(source, ServerConfig::default()).map_err(serve_err)?,
            );
        }
        let groups = shards
            .iter()
            .map(|s| vec![s.local_addr().to_string()])
            .collect();
        let router = RouterServer::start(
            layout.centroids,
            layout.route_nearest,
            groups,
            RouterConfig::default(),
        )
        .map_err(serve_err)?;
        Ok(Deployment::Fleet { shards, router })
    }

    /// The address clients talk to.
    pub fn addr(&self) -> String {
        match self {
            Deployment::Single(s) => s.local_addr().to_string(),
            Deployment::Fleet { router, .. } => router.local_addr().to_string(),
        }
    }

    pub fn servers(&self) -> Vec<&Server> {
        match self {
            Deployment::Single(s) => vec![s],
            Deployment::Fleet { shards, .. } => shards.iter().collect(),
        }
    }

    pub fn router(&self) -> Option<&RouterServer> {
        match self {
            Deployment::Single(_) => None,
            Deployment::Fleet { router, .. } => Some(router),
        }
    }

    pub fn engine_totals(&self) -> EngineTotals {
        let mut t = EngineTotals::default();
        for s in self.servers() {
            let st = s.stats();
            t.requests += st.requests;
            t.batches += st.batches;
            t.latency_ms_sum += st.mean_latency_ms * st.requests as f64;
            t.rejections += st.queue_rejections;
        }
        t
    }

    /// Stops the router first so no dispatch races a stopping shard.
    pub fn shutdown(self) {
        match self {
            Deployment::Single(s) => s.shutdown(),
            Deployment::Fleet { shards, router } => {
                router.shutdown();
                for s in &shards {
                    s.shutdown();
                }
            }
        }
    }
}

/// Opens the measured phase's `n` client connections and warms each one up
/// with `WARMUP` predicts of `warm` rows. Returns the clients and the
/// control connection that issues refreshes.
pub fn connect_and_warm(
    addr: &str,
    n: usize,
    warm: &Matrix,
) -> Result<(Vec<Client>, Client), String> {
    let mut clients = Vec::with_capacity(n);
    for c in 0..n {
        let mut client = connect(addr)?;
        for i in 0..WARMUP {
            let row = warm.row((c * WARMUP + i) % warm.nrows()).to_vec();
            client.predict(row).map_err(serve_err)?;
        }
        clients.push(client);
    }
    let mut control = connect(addr)?;
    control.ping().map_err(serve_err)?;
    Ok((clients, control))
}

pub struct Request {
    pub query: usize,
    pub start_us: f64,
    pub end_us: f64,
    pub reply: Option<WirePrediction>,
    /// Whether the benchmark recorded a span for this request (every other
    /// request of a traced run, so the two halves compare).
    pub traced: bool,
}

impl Request {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-3
    }
}

pub struct Refresh {
    pub start_us: f64,
    pub end_us: f64,
    pub timing: Timing,
    pub ok: bool,
}

pub struct ServePhase {
    pub requests: Vec<Request>,
    pub refreshes: Vec<Refresh>,
    /// Readings of the host's steal counter every `WINDOW`: time since the
    /// phase started in µs, and CPU-seconds stolen since boot.
    pub steal: Vec<(f64, f64)>,
    pub wall_s: f64,
}

/// The measured serve phase: `clients` loop over their share of the query
/// stream (client `c` of `n` sends queries `c, c + n, …`) for `seconds`,
/// while `control` sends `REFRESHES` refreshes at evenly spaced times and
/// a sampler reads the host's steal counter every `WINDOW`. The phase ends
/// once both the time is up and every refresh has returned.
pub fn run_phase(
    clients: &mut [Client],
    control: &mut Client,
    queries: &Matrix,
    seconds: f64,
    rec: &Recorder,
    parent: Option<u64>,
) -> ServePhase {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let us = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e6;
    let n_clients = clients.len();
    let (per_client, refreshes) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut j = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let query = (c + j * n_clients) % queries.nrows();
                        let point = queries.row(query).to_vec();
                        let start = Instant::now();
                        let reply = client.predict(point).ok();
                        let end = Instant::now();
                        let traced = rec.enabled() && j.is_multiple_of(2);
                        if traced {
                            rec.record("client.predict", parent, query as u64, start, end);
                        }
                        out.push(Request {
                            query,
                            start_us: us(start),
                            end_us: us(end),
                            reply,
                            traced,
                        });
                        j += 1;
                    }
                    out
                })
            })
            .collect();

        let sampler = {
            let stop = &stop;
            scope.spawn(move || {
                let mut readings = Vec::new();
                loop {
                    let stolen = crate::steal_seconds();
                    readings.push((us(Instant::now()), stolen));
                    if stop.load(Ordering::Relaxed) {
                        return readings;
                    }
                    std::thread::sleep(WINDOW);
                }
            })
        };

        let mut refreshes = Vec::with_capacity(REFRESHES);
        for i in 0..REFRESHES {
            let due = seconds * (i + 1) as f64 / (REFRESHES + 1) as f64;
            sleep_until(t0, due);
            let watch = Stopwatch::start();
            let start = Instant::now();
            let ok = control.refresh().is_ok();
            let end = Instant::now();
            let timing = watch.stop();
            rec.record("client.refresh", parent, i as u64, start, end);
            refreshes.push(Refresh {
                start_us: us(start),
                end_us: us(end),
                timing,
                ok,
            });
        }
        sleep_until(t0, seconds);
        stop.store(true, Ordering::Relaxed);
        let per_client: Vec<Vec<Request>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let steal = sampler.join().expect("steal sampler panicked");
        (per_client, (refreshes, steal))
    });
    let (refreshes, steal) = refreshes;
    let mut requests: Vec<Request> = per_client.into_iter().flatten().collect();
    requests.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let last_end = requests
        .iter()
        .map(|r| r.end_us)
        .chain(refreshes.iter().map(|r| r.end_us))
        .fold(0.0, f64::max);
    ServePhase {
        requests,
        refreshes,
        steal,
        wall_s: last_end * 1e-6,
    }
}

fn sleep_until(t0: Instant, seconds: f64) {
    let due = t0 + Duration::from_secs_f64(seconds);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The requests of the phase's calm windows, the ones the end-to-end
/// serving metrics are taken from.
pub struct Calm {
    pub latencies: Latencies,
    pub answered: usize,
    pub seconds: f64,
    pub windows: usize,
    /// Windows clear of the refreshes, the candidates.
    pub candidates: usize,
    /// Host steal in the calm windows and in all candidates, CPU-seconds.
    pub steal_s: f64,
    pub candidate_steal_s: f64,
}

/// `IDLE_REFRESHES` refreshes on `control` while the serving clients are
/// idle: the reload cost itself, which `refresh_s` reports. Under load a
/// refresh shares the vCPUs with the serving threads, and where the
/// guest's scheduler put it set its time for the whole run: on train-hssh
/// the runs' median refresh under load read 0.30 or 0.41 s, and idle
/// refreshes in the same runs 0.27–0.32 s.
pub fn idle_refreshes(control: &mut Client) -> Vec<(Timing, bool)> {
    (0..IDLE_REFRESHES)
        .map(|_| {
            std::thread::sleep(IDLE_PAUSE);
            let watch = Stopwatch::start();
            let ok = control.refresh().is_ok();
            (watch.stop(), ok)
        })
        .collect()
}

/// Picks the phase's calm windows. The windows are the intervals between
/// consecutive steal readings. Those that overlap a refresh, or start
/// within `REFRESH_MARGIN_US` after one, are left out (refresh cost has
/// its own metrics); of the rest, the calm ones are the `CALM_SHARE` with
/// the least host steal, and every window that ties with them. A request
/// belongs to the window its start falls in.
///
/// On a shared host the hypervisor hands a vCPU to other guests for a
/// while; every wake-up of a serving thread then waits for the vCPU to
/// come back: 250 ms windows with 60 ms of steal or more read p50 18–33 %
/// slower than windows without, which read the same from run to run.
pub fn calm_windows(phase: &ServePhase) -> Calm {
    let all: Vec<(f64, f64, f64)> = phase
        .steal
        .windows(2)
        .map(|p| (p[0].0, p[1].0, p[1].1 - p[0].1))
        .collect();
    let clear = |&(start, end, _): &(f64, f64, f64)| {
        !phase
            .refreshes
            .iter()
            .any(|f| start < f.end_us + REFRESH_MARGIN_US && end > f.start_us)
    };
    let mut candidate: Vec<bool> = all.iter().map(clear).collect();
    if !candidate.contains(&true) {
        // A phase too short to hold a window clear of its refreshes.
        candidate.fill(true);
    }
    let mut steals: Vec<f64> = all
        .iter()
        .zip(&candidate)
        .filter(|(_, &c)| c)
        .map(|(w, _)| w.2)
        .collect();
    steals.sort_by(f64::total_cmp);
    let keep = (steals.len() as f64 * CALM_SHARE).ceil() as usize;
    let cut = steals.get(keep.saturating_sub(1)).copied().unwrap_or(0.0);
    let calm: Vec<bool> = all
        .iter()
        .zip(&candidate)
        .map(|(w, &c)| c && w.2 <= cut)
        .collect();

    let mut out = Calm {
        latencies: Latencies::default(),
        answered: 0,
        seconds: 0.0,
        windows: 0,
        candidates: steals.len(),
        steal_s: 0.0,
        candidate_steal_s: steals.iter().sum(),
    };
    for (w, _) in all.iter().zip(&calm).filter(|(_, &c)| c) {
        out.seconds += (w.1 - w.0) * 1e-6;
        out.windows += 1;
        out.steal_s += w.2;
    }
    for r in &phase.requests {
        let i = all.partition_point(|w| w.1 <= r.start_us);
        if i < all.len() && all[i].0 <= r.start_us && calm[i] {
            match r.reply {
                Some(_) => {
                    out.latencies.push_ok(r.ms());
                    out.answered += 1;
                }
                None => out.latencies.push_failed(),
            }
        }
    }
    out
}

/// For each refresh, the slowest predict that overlapped it; the median of
/// those, in ms.
pub fn refresh_stall_ms(phase: &ServePhase) -> f64 {
    let stalls: Vec<f64> = phase
        .refreshes
        .iter()
        .map(|f| {
            phase
                .requests
                .iter()
                .filter(|r| r.start_us < f.end_us && r.end_us > f.start_us)
                .map(Request::ms)
                .fold(0.0, f64::max)
        })
        .collect();
    if stalls.is_empty() {
        0.0
    } else {
        crate::stats::median(&stalls)
    }
}

/// Direct client round trips to the shard servers, bypassing the router:
/// one connection per server, each query sent to the servers `route`
/// names, one after another. Returns the mean client-observed latency and
/// the mean engine latency the servers reported in their replies, in ms.
pub fn direct_round_trips(
    servers: &[&Server],
    queries: &Matrix,
    count: usize,
    route: impl Fn(&[f64]) -> Vec<usize>,
) -> Result<(f64, f64), String> {
    let mut conns = Vec::with_capacity(servers.len());
    for s in servers {
        conns.push(connect(&s.local_addr().to_string())?);
    }
    let (mut client_ms, mut engine_ms, mut n) = (0.0, 0.0, 0usize);
    for q in 0..count.min(queries.nrows()) {
        let point = queries.row(q);
        for s in route(point) {
            let start = Instant::now();
            let reply = conns[s].predict(point.to_vec()).map_err(serve_err)?;
            client_ms += start.elapsed().as_secs_f64() * 1e3;
            engine_ms += reply.latency_micros as f64 * 1e-3;
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    Ok((client_ms / n, engine_ms / n))
}

/// Sum and count of every series of a histogram in the process's metrics
/// registry (Prometheus text exposition).
pub fn histogram_totals(name: &str) -> (f64, f64) {
    let text = hkrr_serve::server::metrics_exposition();
    let (sum_key, count_key) = (format!("{name}_sum"), format!("{name}_count"));
    let mut sum = 0.0;
    let mut count = 0.0;
    for line in text.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let metric = series.split('{').next().unwrap_or(series);
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        if metric == sum_key {
            sum += v;
        } else if metric == count_key {
            count += v;
        }
    }
    (sum, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(start_us: f64, end_us: f64) -> Request {
        Request {
            query: 0,
            start_us,
            end_us,
            reply: None,
            traced: false,
        }
    }

    #[test]
    fn calm_windows_skip_refreshes_and_keep_the_least_stolen_tenth_with_ties() {
        let answered = Some(WirePrediction {
            score: 0.0,
            label: 1.0,
            batch_size: 1,
            latency_micros: 0,
        });
        // Ten 0.1 s windows. Steal per window (CPU-s): windows 0, 3 and 8
        // none, the others 0.02 or more, except windows 5 and 6, which are
        // out with the refresh in window 4: they start within the margin
        // after it.
        let per_window = [0.0, 0.02, 0.05, 0.0, 0.03, 0.0, 0.0, 0.04, 0.0, 0.02];
        let mut steal = vec![(0.0, 10.0)];
        for (i, s) in per_window.iter().enumerate() {
            let last = steal.last().unwrap().1;
            steal.push(((i + 1) as f64 * 100_000.0, last + s));
        }
        // Two requests per window, 1 ms and 3 ms; the one at 0.85 s fails.
        let mut requests = Vec::new();
        for w in 0..10 {
            for (k, ms) in [1.0, 3.0].into_iter().enumerate() {
                let start = w as f64 * 100_000.0 + k as f64 * 50_000.0;
                requests.push(Request {
                    reply: if w == 8 && k == 1 { None } else { answered },
                    ..req(start, start + ms * 1e3)
                });
            }
        }
        let phase = ServePhase {
            requests,
            refreshes: vec![Refresh {
                start_us: 410_000.0,
                end_us: 440_000.0,
                timing: Timing::default(),
                ok: true,
            }],
            steal,
            wall_s: 1.0,
        };
        let calm = calm_windows(&phase);
        // Candidates: windows 0-3 and 7-9. The least stolen tenth of them
        // (one window) has steal 0, which windows 0, 3 and 8 share.
        assert_eq!(calm.candidates, 7);
        assert_eq!(calm.windows, 3);
        assert!((calm.seconds - 0.3).abs() < 1e-9);
        assert!((calm.candidate_steal_s - 0.13).abs() < 1e-9);
        assert!(calm.steal_s.abs() < 1e-9);
        assert_eq!(calm.latencies.count(), 6);
        assert_eq!(calm.answered, 5);
        // The failure counts as the slowest request.
        assert_eq!(calm.latencies.percentile(100.0).value_ms, None);
        assert_eq!(calm.latencies.percentile(50.0).value_ms, Some(1.0));
    }

    #[test]
    fn calm_windows_fall_back_to_all_windows_when_refreshes_cover_the_phase() {
        let phase = ServePhase {
            requests: vec![req(10_000.0, 20_000.0), req(150_000.0, 160_000.0)],
            refreshes: vec![Refresh {
                start_us: 0.0,
                end_us: 200_000.0,
                timing: Timing::default(),
                ok: true,
            }],
            steal: vec![(0.0, 1.0), (100_000.0, 1.01), (200_000.0, 1.01)],
            wall_s: 0.2,
        };
        let calm = calm_windows(&phase);
        assert_eq!(calm.candidates, 2);
        // The least stolen tenth: one window, window 1 (steal 0).
        assert_eq!(calm.windows, 1);
        assert_eq!(calm.latencies.count(), 1);
    }

    #[test]
    fn refresh_stall_takes_the_slowest_overlapping_predict() {
        let phase = ServePhase {
            requests: vec![
                req(0.0, 1_000.0),
                req(900.0, 301_000.0),
                req(400_000.0, 401_000.0),
                req(500_000.0, 520_000.0),
            ],
            refreshes: vec![
                Refresh {
                    start_us: 950.0,
                    end_us: 300_000.0,
                    timing: Timing::default(),
                    ok: true,
                },
                Refresh {
                    start_us: 510_000.0,
                    end_us: 600_000.0,
                    timing: Timing::default(),
                    ok: true,
                },
                Refresh {
                    start_us: 700_000.0,
                    end_us: 800_000.0,
                    timing: Timing::default(),
                    ok: true,
                },
            ],
            steal: Vec::new(),
            wall_s: 1.0,
        };
        // Stalls 300 ms, 20 ms and 0 ms: the median is 20 ms.
        assert!((refresh_stall_ms(&phase) - 20.0).abs() < 1e-9);
    }
}
