//! The three workloads. Each runs the same pipeline: generate inputs,
//! fit, round-trip the model through the codec, serve it over loopback
//! while refreshing it, then check every output. They differ in what
//! dominates (see `BENCHMARK.json` and `perfbench/METRICS.md`).

use crate::data::{generate_inputs, Inputs};
use crate::ops::EvalCounter;
use crate::rss;
use crate::serve::{self, Deployment, ServePhase};
use crate::spans::{self, Recorder};
use crate::stats::{self, Latencies, Stopwatch, Timing};
use crate::train::{self, bitwise_equal, Composed};
use hkrr_core::{KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::{LETTER, SUSY};
use hkrr_datasets::DatasetSpec;
use hkrr_ensemble::{combine_scores, EnsembleConfig, EnsembleKrr, ShardPlan, ShardStrategy};
use hkrr_linalg::Matrix;
use hkrr_serve::codec::{self, LoadedModel};
use rayon::prelude::*;
use std::path::Path;
use std::time::Instant;

pub struct Workload {
    pub name: &'static str,
    spec: DatasetSpec,
    /// Seed of the workload's fixed training set and held-out pool (see
    /// `data.rs`). LETTER at seed 7: max rank ~173, fit ~5 s.
    dataset_seed: u64,
    n_train: usize,
    solver: SolverKind,
    /// 0 for a single model, else the ensemble's shard count.
    shards: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train-hssh",
        spec: LETTER,
        dataset_seed: 7,
        n_train: 4000,
        solver: SolverKind::HssWithHSampling,
        shards: 0,
    },
    Workload {
        name: "train-pcg",
        spec: SUSY,
        dataset_seed: 1,
        n_train: 2000,
        solver: SolverKind::HssPcg,
        shards: 0,
    },
    Workload {
        name: "serve-fleet",
        spec: LETTER,
        dataset_seed: 7,
        n_train: 4000,
        solver: SolverKind::HssWithHSampling,
        shards: 4,
    },
];

/// Closed-loop clients in the serve phase, one request in flight each. With
/// two, their requests queue for the same shard connection of the router
/// or the same engine, and how often depends on the host's scheduling: on
/// serve-fleet the p50 spread over identical-code runs grew from 0.04 to
/// 0.10 of the median, and qps from 0.04 to 0.13.
const CLIENTS: usize = 1;
/// Held-out points generated per run; the serve phase cycles through them
/// in seeded order and never wraps at the rates seen so far.
const QUERY_POOL: usize = 60_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fits per run, on the same inputs; `fit_s` is their median (one fit
/// reads up to ±10 % apart on a shared 2-vCPU host). `fit_rss_mb` is the
/// first fit's peak: later fits start from a heap an earlier fit already
/// grew, and read several MB apart from run to run.
const FITS: usize = 3;
/// Held-out points compared between the trained and the decoded model.
const DECODE_PROBE: usize = 2_000;
/// Queries timed one by one for the per-layer serving metrics.
const DIRECT_QUERIES: usize = 300;
const ROUTE_NEAREST: usize = 2;

impl Workload {
    pub fn describe(&self) -> String {
        let shape = if self.shards > 0 {
            format!(
                "{}-shard ensemble (route_nearest {ROUTE_NEAREST}) of ",
                self.shards
            )
        } else {
            String::new()
        };
        format!(
            "{}{}-like d={} n={} solver {}",
            shape,
            self.spec.name,
            self.spec.dim,
            self.n_train,
            self.solver.label()
        )
    }

    fn config(&self) -> KrrConfig {
        KrrConfig {
            h: self.spec.default_h,
            lambda: self.spec.default_lambda,
            solver: self.solver,
            ..KrrConfig::default()
        }
    }

    fn ensemble_config(&self) -> EnsembleConfig {
        EnsembleConfig {
            shards: self.shards,
            route_nearest: ROUTE_NEAREST,
            strategy: ShardStrategy::Cluster,
            base: self.config(),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.end_to_end.push(Metric {
            name,
            value: value + 0.0,
            unit,
        });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name,
            value: value + 0.0,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

// One value per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Trained {
    Single(KrrModel),
    Fleet(EnsembleKrr),
}

impl Trained {
    fn decision_values(&self, m: &Matrix) -> Vec<f64> {
        match self {
            Trained::Single(model) => model.decision_values(m),
            Trained::Fleet(e) => e.decision_values(m),
        }
    }

    fn models(&self) -> &[KrrModel] {
        match self {
            Trained::Single(model) => std::slice::from_ref(model),
            Trained::Fleet(e) => e.models(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Trained::Single(model) => codec::encode_model(model),
            Trained::Fleet(e) => codec::encode_ensemble(e),
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<Trained, String> {
        let err = |e: codec::CodecError| format!("decode: {e}");
        match self {
            Trained::Single(_) => Ok(Trained::Single(codec::decode_model(bytes).map_err(err)?)),
            Trained::Fleet(_) => match codec::decode_any(bytes).map_err(err)? {
                LoadedModel::Ensemble(e) => Ok(Trained::Fleet(e)),
                LoadedModel::Single(_) => Err("decode: ensemble file decoded as one model".into()),
            },
        }
    }
}

fn fit(w: &Workload, inputs: &Inputs) -> Result<Trained, String> {
    let err = |e: hkrr_core::KrrError| format!("fit: {e}");
    if w.shards > 0 {
        EnsembleKrr::fit(&inputs.train, &inputs.labels, &w.ensemble_config())
            .map(Trained::Fleet)
            .map_err(err)
    } else {
        KrrModel::fit(&inputs.train, &inputs.labels, &w.config())
            .map(Trained::Single)
            .map_err(err)
    }
}

fn shard_plan(w: &Workload, train: &Matrix) -> Result<ShardPlan, String> {
    let c = w.ensemble_config();
    ShardPlan::build(
        train,
        c.shards,
        c.strategy,
        c.base.clustering,
        c.base.leaf_size,
    )
}

/// The composed, traced fit: one `core.fit` for a single model; for the
/// ensemble an `ensemble.fit` over the plan and the shards' `core.fit`s,
/// in parallel over shards as `EnsembleKrr::fit` runs them.
fn compose(
    w: &Workload,
    inputs: &Inputs,
    rec: &Recorder,
    evals: &EvalCounter,
) -> Result<Vec<Composed>, String> {
    let config = w.config();
    if w.shards == 0 {
        return Ok(vec![train::compose_fit(
            &inputs.train,
            &inputs.labels,
            &config,
            rec,
            None,
            0,
            evals,
        )?]);
    }
    let root = rec.span("ensemble.fit", None, 0);
    let plan = {
        let _s = rec.span("ensemble.plan", Some(root.id()), 0);
        shard_plan(w, &inputs.train)?
    };
    let indexed: Vec<(usize, &[usize])> = plan
        .shards()
        .iter()
        .map(Vec::as_slice)
        .enumerate()
        .collect();
    let root_id = Some(root.id());
    indexed
        .par_iter()
        .with_min_len(1)
        .map(|&(shard, rows)| {
            let points = inputs.train.select_rows(rows);
            let labels: Vec<f64> = rows.iter().map(|&i| inputs.labels[i]).collect();
            train::compose_fit(&points, &labels, &config, rec, root_id, shard as u64, evals)
        })
        .collect()
}

fn digits(residual: f64) -> f64 {
    -residual.max(f64::MIN_POSITIVE).log10()
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut setup = [Timing::default(); SETUPS];

    // Set-up, part 1: input generation.
    let mut inputs: Option<Inputs> = None;
    let mut repeatable = true;
    for s in setup.iter_mut() {
        let t = Stopwatch::start();
        let next = generate_inputs(&w.spec, w.dataset_seed, w.n_train, QUERY_POOL, seed);
        s.add(t.stop());
        match &inputs {
            None => inputs = Some(next),
            Some(first) => {
                repeatable &= first.train.data() == next.train.data()
                    && first.queries.data() == next.queries.data()
            }
        }
    }
    let inputs = inputs.expect("at least one set-up");
    o.check("inputs_repeat_for_the_seed", repeatable, String::new());

    // Measured: the fits. Each must reproduce the first bitwise; the
    // previous fit is dropped first so each peak covers one fit.
    let mut fits = Vec::with_capacity(FITS);
    let mut fit_rss_mb = Vec::with_capacity(FITS);
    let mut trained: Option<Trained> = None;
    let mut first_weights: Option<Vec<Vec<f64>>> = None;
    let mut refit_equal = true;
    for _ in 0..FITS {
        drop(trained.take());
        rss::reset_peak().map_err(|e| format!("clear_refs: {e}"))?;
        let t = Stopwatch::start();
        let next = fit(w, &inputs)?;
        fits.push(t.stop());
        fit_rss_mb.push(rss::peak_mb().map_err(|e| format!("VmHWM: {e}"))?);
        o.attempted += 1;
        let weights: Vec<Vec<f64>> = next.models().iter().map(|m| m.weights().to_vec()).collect();
        match &first_weights {
            None => first_weights = Some(weights),
            Some(first) => {
                refit_equal &= first.iter().zip(&weights).all(|(a, b)| bitwise_equal(a, b))
            }
        }
        trained = Some(next);
    }
    let trained = trained.expect("at least one fit");
    o.check("refits_equal_bitwise", refit_equal, format!("{FITS} fits"));
    o.notes.push(format!(
        "fits: {} s, peak RSS {:.1?} MB",
        fmt_timings(&fits),
        fit_rss_mb
    ));
    let fit_s = stats::least_disturbed(&fits, stats::steal_resolution_s());

    // Traced only: the same fit composed from the layers.
    let evals = EvalCounter::default();
    let composed = if rec.enabled() {
        let t = Instant::now();
        let c = compose(w, &inputs, rec, &evals)?;
        let traced_fit_s = t.elapsed().as_secs_f64();
        let matches = c.len() == trained.models().len()
            && c.iter()
                .zip(trained.models())
                .all(|(c, m)| bitwise_equal(&c.weights, m.weights()));
        o.check("composed_fit_matches_fit_bitwise", matches, String::new());
        Some((c, traced_fit_s, matches))
    } else {
        None
    };

    // Residual of the solve, from one exact kernel matvec per model.
    let config = w.config();
    let residual = if w.shards > 0 {
        let plan = shard_plan(w, &inputs.train)?;
        trained
            .models()
            .iter()
            .zip(plan.shards())
            .map(|(m, rows)| {
                let labels: Vec<f64> = rows.iter().map(|&i| inputs.labels[i]).collect();
                train::relative_residual(m, &labels)
            })
            .fold(0.0, f64::max)
    } else {
        train::relative_residual(&trained.models()[0], &inputs.labels)
    };
    if w.solver == SolverKind::HssPcg {
        o.check(
            "pcg_residual_meets_tolerance",
            residual <= config.pcg_tolerance,
            format!(
                "residual {residual:.3e}, tolerance {:.1e}",
                config.pcg_tolerance
            ),
        );
    }

    let fits: Vec<String> = trained
        .models()
        .iter()
        .map(|m| {
            let r = m.report();
            let (samples, restarts) = m.factors().map_or((0, 0), |f| {
                let c = f.hss.construction_stats();
                (c.samples_used, c.restarts)
            });
            format!(
                "max_rank {} samples {samples} restarts {restarts} pcg_iterations {}",
                r.max_rank, r.pcg_iterations
            )
        })
        .collect();
    o.notes.push(format!("fit: {}", fits.join("; ")));

    // Set-up, part 2: the codec round trip, then the servers and warm-up.
    let path = dir.join("model.hkrr");
    let mut encode_s = Vec::with_capacity(SETUPS);
    let mut decode_s = Vec::with_capacity(SETUPS);
    let mut model_bytes = 0usize;
    let mut live = None;
    for (rep, s) in setup.iter_mut().enumerate() {
        let t = Stopwatch::start();
        let t_enc = Instant::now();
        let bytes = trained.encode();
        let t_enc = t_enc.elapsed().as_secs_f64();
        std::fs::write(&path, &bytes).map_err(|e| format!("write model: {e}"))?;
        let back = std::fs::read(&path).map_err(|e| format!("read model: {e}"))?;
        let t_dec = Instant::now();
        let decoded = trained.decode(&back)?;
        decode_s.push(t_dec.elapsed().as_secs_f64());
        encode_s.push(t_enc);
        model_bytes = bytes.len();
        o.attempted += 1;
        let deployment = if w.shards > 0 {
            Deployment::start_fleet(&path)?
        } else {
            Deployment::start_single(&path)?
        };
        let (clients, control) =
            serve::connect_and_warm(&deployment.addr(), CLIENTS, &inputs.train)?;
        s.add(t.stop());
        if rep + 1 < SETUPS {
            drop((clients, control));
            deployment.shutdown();
        } else {
            live = Some((decoded, deployment, clients, control));
        }
    }
    let (decoded, deployment, mut clients, mut control) = live.expect("at least one set-up");
    let probe = inputs
        .queries
        .select_rows(&(0..DECODE_PROBE).collect::<Vec<_>>());
    o.check(
        "decoded_predictions_equal_trained_bitwise",
        bitwise_equal(
            &trained.decision_values(&probe),
            &decoded.decision_values(&probe),
        ),
        format!("{DECODE_PROBE} held-out points"),
    );
    // Serving needs only the decoded copy; the RSS read below then covers
    // what a serving process holds.
    drop(trained);

    // Measured: the serve phase.
    let engine_before = deployment.engine_totals();
    let dispatch_before = serve::histogram_totals("hkrr_router_replica_latency_micros");
    let routed_before = serve::histogram_totals("hkrr_router_request_latency_micros");
    rss::reset_peak().map_err(|e| format!("clear_refs: {e}"))?;
    // The footprint of the warmed-up deployment. The phase's peak adds the
    // refreshes, and how much of a refresh's freed memory glibc's
    // per-thread arenas keep depends on which arena each serving thread
    // drew: identical serve-fleet runs peaked at 296 or 324 MB. The peak
    // is printed, not bounded.
    let serve_rss_mb = rss::current_mb().map_err(|e| format!("VmRSS: {e}"))?;
    let phase = {
        let s = rec.span("serve.phase", None, 0);
        serve::run_phase(
            &mut clients,
            &mut control,
            &inputs.queries,
            seconds,
            rec,
            Some(s.id()),
        )
    };
    let serve_peak_mb = rss::peak_mb().map_err(|e| format!("VmHWM: {e}"))?;
    let engine = deployment.engine_totals().since(&engine_before);
    let dispatch = delta(
        serve::histogram_totals("hkrr_router_replica_latency_micros"),
        dispatch_before,
    );
    let routed = delta(
        serve::histogram_totals("hkrr_router_request_latency_micros"),
        routed_before,
    );
    let idle = serve::idle_refreshes(&mut control);
    o.attempted += idle.len() as u64;
    o.failed += idle.iter().filter(|(_, ok)| !ok).count() as u64;
    let idle: Vec<Timing> = idle.into_iter().map(|(t, _)| t).collect();

    let (lat, answered) = latencies(&phase, |_| true);
    o.attempted += (phase.requests.len() + phase.refreshes.len()) as u64;
    o.failed += (phase.requests.len() - answered) as u64;
    o.failed += phase.refreshes.iter().filter(|r| !r.ok).count() as u64;
    let served_check = check_served_scores(&phase, &decoded, &inputs);
    o.check(
        "served_scores_equal_in_process_bitwise",
        served_check.0,
        served_check.1,
    );
    let correct_labels = phase
        .requests
        .iter()
        .filter_map(|r| r.reply.map(|p| p.label == inputs.query_labels[r.query]))
        .filter(|&c| c)
        .count();

    let (failovers, degraded) = deployment
        .router()
        .map_or((0, 0), |r| (r.failovers(), r.degraded()));
    let rejections = deployment.engine_totals().rejections;
    o.check(
        "no_failover_degraded_or_rejected",
        failovers == 0 && degraded == 0 && rejections == 0,
        format!("failovers {failovers}, degraded {degraded}, queue rejections {rejections}"),
    );

    // The serving metrics come from the phase's calm windows (see
    // `serve::calm_windows`): clear of the refreshes, and among the least
    // stolen tenth on the shared host. The whole-phase figures and the
    // tail are printed below, unbounded.
    let calm = serve::calm_windows(&phase);
    if calm.latencies.count() == 0 {
        return Err("serve phase: no calm window held a request".into());
    }
    let ms = |p: stats::Percentile| p.value_ms.unwrap_or(f64::MAX);
    let p50 = lat.percentile(50.0);
    let p90 = lat.percentile(90.0);
    let loaded: Vec<Timing> = phase.refreshes.iter().map(|r| r.timing).collect();
    o.notes.push(format!(
        "set-ups: {} s; refreshes idle: {} s, under load (printed, not bounded): {} s",
        fmt_timings(&setup),
        fmt_timings(&idle),
        fmt_timings(&loaded)
    ));
    o.e2e(
        "setup_s",
        stats::least_disturbed(&setup, stats::steal_resolution_s()),
        "s",
    );
    o.e2e("fit_s", fit_s, "s");
    o.e2e("fit_rss_mb", fit_rss_mb[0], "MB");
    o.e2e("model_mb", model_bytes as f64 / 1e6, "MB");
    o.e2e(
        "accuracy",
        correct_labels as f64 / answered.max(1) as f64,
        "fraction",
    );
    o.e2e("residual_digits", digits(residual), "digits");
    o.e2e("serve_qps", calm.answered as f64 / calm.seconds, "1/s");
    o.e2e("serve_p50_ms", ms(calm.latencies.percentile(50.0)), "ms");
    o.e2e(
        "refresh_s",
        stats::least_disturbed(&idle, stats::steal_resolution_s()),
        "s",
    );
    o.e2e("serve_rss_mb", serve_rss_mb, "MB");
    o.notes.push(format!(
        "engine mean batch {:.3}, mean latency {:.3} ms",
        engine.mean_batch(),
        engine.mean_latency_ms()
    ));
    let tail = lat.supported_tail(10);
    let p99 = lat.percentile(99.0);
    o.notes.push(format!(
        "calm windows: {} of {} clear of refreshes, {:.2} s, {} requests; host steal {:.2} CPU-s in them, {:.2} in all {}",
        calm.windows,
        calm.candidates,
        calm.seconds,
        calm.latencies.count(),
        calm.steal_s,
        calm.candidate_steal_s,
        calm.candidates
    ));
    o.notes.push(format!(
        "serve-phase peak RSS {serve_peak_mb:.1} MB (with the refreshes; printed, not bounded)"
    ));
    o.notes.push(format!(
        "serve_p90_ms {:.6} ms (calm windows like p50; printed, not bounded)",
        ms(calm.latencies.percentile(90.0))
    ));
    o.notes.push(format!(
        "failed_frac {:.6} fraction ({} failed of {} operations)",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    ));
    o.notes.push(format!(
        "whole-phase serve latency (unbounded tail): n={} {:.1}/s p50={} p90={} p99={} ({} beyond) p{}={} ({} beyond); {} refreshes in {:.2} s",
        lat.count(),
        answered as f64 / phase.wall_s,
        fmt_ms(p50.value_ms),
        fmt_ms(p90.value_ms),
        fmt_ms(p99.value_ms),
        p99.beyond,
        tail.pct,
        fmt_ms(tail.value_ms),
        tail.beyond,
        phase.refreshes.len(),
        phase.wall_s
    ));

    if let Some((composed, traced_fit_s, matches)) = &composed {
        let direct = direct_timings(w, &decoded, &deployment, &inputs, &path)?;
        let spans = rec.snapshot();
        training_layers(&mut o, &spans, composed, evals.get(), w.shards > 0);
        o.layer("kernel.cross_us", direct.cross_us, "us");
        o.layer("ensemble.route_us", direct.route_us, "us");
        o.layer("ensemble.combine_us", direct.combine_us, "us");
        o.layer("codec.encode_s", stats::median(&encode_s), "s");
        o.layer("codec.decode_s", stats::median(&decode_s), "s");
        o.layer("codec.load_shard_s", direct.load_shard_s, "s");
        let engine_ms = engine.mean_latency_ms();
        o.layer("engine.latency_ms", engine_ms, "ms");
        o.layer("engine.wait_ms", engine_ms - direct.cross_us * 1e-3, "ms");
        o.layer("engine.batch_mean", engine.mean_batch(), "rows");
        o.layer("engine.rejections", engine.rejections as f64, "count");
        if let Some(router) = deployment.router() {
            let dispatch_ms = dispatch.0 / dispatch.1.max(1.0) * 1e-3;
            let per_query = dispatch.1 / routed.1.max(1.0);
            let routed_ms = routed.0 / routed.1.max(1.0) * 1e-3;
            o.layer("router.dispatch_ms", dispatch_ms, "ms");
            o.layer("router.self_ms", routed_ms - per_query * dispatch_ms, "ms");
            o.layer("router.dispatches", dispatch.1, "count");
            o.layer("router.failovers", router.failovers() as f64, "count");
            o.layer("router.degraded", router.degraded() as f64, "count");
            o.layer(
                "router.refresh_stall_ms",
                serve::refresh_stall_ms(&phase),
                "ms",
            );
        } else {
            for name in [
                "router.dispatch_ms",
                "router.self_ms",
                "router.dispatches",
                "router.failovers",
                "router.degraded",
                "router.refresh_stall_ms",
            ] {
                o.layer(
                    name,
                    0.0,
                    if name.ends_with("_ms") { "ms" } else { "count" },
                );
            }
        }
        o.layer("net.rtt_ms", direct.client_ms - direct.engine_ms, "ms");
        o.layer("trace.matches_fit", f64::from(u8::from(*matches)), "bool");
        o.layer("trace.overhead_fit", traced_fit_s / fit_s, "ratio");
        let (traced, _) = latencies(&phase, |r| r.traced);
        let (untraced, _) = latencies(&phase, |r| !r.traced);
        let ratio = match (
            traced.percentile(50.0).value_ms,
            untraced.percentile(50.0).value_ms,
        ) {
            (Some(a), Some(b)) => a / b,
            _ => f64::MAX,
        };
        o.layer("trace.overhead_p50", ratio, "ratio");
    }

    drop((clients, control));
    deployment.shutdown();
    Ok(o)
}

/// Repeated timings as `[seconds (steal CPU-s), …]`.
fn fmt_timings(timings: &[Timing]) -> String {
    let parts: Vec<String> = timings
        .iter()
        .map(|t| format!("{:.3} ({:.2})", t.seconds, t.steal_s))
        .collect();
    format!("[{}]", parts.join(", "))
}

fn fmt_ms(v: Option<f64>) -> String {
    v.map_or("failed".to_string(), |ms| format!("{ms:.3}ms"))
}

fn delta(after: (f64, f64), before: (f64, f64)) -> (f64, f64) {
    (after.0 - before.0, after.1 - before.1)
}

/// Latencies of the requests `keep` selects, and how many were answered.
fn latencies(phase: &ServePhase, keep: impl Fn(&serve::Request) -> bool) -> (Latencies, usize) {
    let mut lat = Latencies::default();
    for r in phase.requests.iter().filter(|r| keep(r)) {
        if r.reply.is_some() {
            lat.push_ok(r.ms());
        } else {
            lat.push_failed();
        }
    }
    let answered = lat.ok().len();
    (lat, answered)
}

/// Every answered score must equal the in-process model's score for the
/// same point bitwise, whichever side of a refresh it was served on.
fn check_served_scores(phase: &ServePhase, model: &Trained, inputs: &Inputs) -> (bool, String) {
    let answered: Vec<&serve::Request> = phase
        .requests
        .iter()
        .filter(|r| r.reply.is_some())
        .collect();
    let rows: Vec<usize> = answered.iter().map(|r| r.query).collect();
    let expected = model.decision_values(&inputs.queries.select_rows(&rows));
    let mismatches = answered
        .iter()
        .zip(&expected)
        .filter(|(r, e)| {
            let p = r.reply.expect("answered");
            p.score.to_bits() != e.to_bits() || p.label != if **e >= 0.0 { 1.0 } else { -1.0 }
        })
        .count();
    (
        mismatches == 0,
        format!(
            "{} of {} answered scores differ",
            mismatches,
            answered.len()
        ),
    )
}

struct Direct {
    cross_us: f64,
    route_us: f64,
    combine_us: f64,
    load_shard_s: f64,
    client_ms: f64,
    engine_ms: f64,
}

/// Per-layer serving timings taken directly, after the serve phase:
/// one-point model evaluations, routing and combining (ensemble only),
/// shard loads (ensemble only), and client round trips straight to the
/// shard servers.
fn direct_timings(
    w: &Workload,
    model: &Trained,
    deployment: &Deployment,
    inputs: &Inputs,
    path: &Path,
) -> Result<Direct, String> {
    let queries = &inputs.queries;
    let m = DIRECT_QUERIES.min(queries.nrows());
    let route = |point: &[f64]| -> Vec<usize> {
        match model {
            Trained::Single(_) => vec![0],
            Trained::Fleet(e) => e.router().route(point).iter().map(|&(s, _)| s).collect(),
        }
    };
    let models = model.models();
    let mut cross = Vec::with_capacity(m * ROUTE_NEAREST);
    let mut out = [0.0];
    for q in 0..m {
        let one = queries.select_rows(&[q]);
        for s in route(queries.row(q)) {
            let t = Instant::now();
            models[s].decision_values_into(&one, &mut out);
            cross.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let (mut route_us, mut combine_us, mut load_shard_s) = (0.0, 0.0, 0.0);
    if let Trained::Fleet(e) = model {
        // Routing and combining take well under a microsecond, so each is
        // timed over the whole query batch; the median of five batches.
        let mut buf = Vec::new();
        let mut batches = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            for q in 0..m {
                e.router().route_into(queries.row(q), &mut buf);
                std::hint::black_box(&buf);
            }
            batches.push(t.elapsed().as_secs_f64() * 1e6 / m as f64);
        }
        route_us = stats::median(&batches);
        let contributions: Vec<Vec<(f64, f64)>> = (0..m)
            .map(|q| {
                let one = queries.select_rows(&[q]);
                e.router()
                    .route(queries.row(q))
                    .into_iter()
                    .map(|(s, d2)| (d2, e.models()[s].decision_values(&one)[0]))
                    .collect()
            })
            .collect();
        batches.clear();
        for _ in 0..5 {
            let mut work = contributions.clone();
            let t = Instant::now();
            for c in work.iter_mut() {
                std::hint::black_box(combine_scores(c));
            }
            batches.push(t.elapsed().as_secs_f64() * 1e6 / m as f64);
        }
        combine_us = stats::median(&batches);
        let mut loads = Vec::with_capacity(w.shards);
        for s in 0..w.shards {
            let t = Instant::now();
            codec::load_shard(path, s).map_err(|e| format!("load_shard: {e}"))?;
            loads.push(t.elapsed().as_secs_f64());
        }
        load_shard_s = stats::median(&loads);
    }

    let (client_ms, engine_ms) =
        serve::direct_round_trips(&deployment.servers(), queries, m, route)?;
    Ok(Direct {
        cross_us: stats::median(&cross),
        route_us,
        combine_us,
        load_shard_s,
        client_ms,
        engine_ms,
    })
}

/// Per-layer training metrics from the composed fit's spans and results.
/// Times of an ensemble's shards are summed (busy time across threads).
fn training_layers(
    o: &mut Outcome,
    spans: &[spans::Span],
    composed: &[Composed],
    evals: u64,
    ensemble: bool,
) {
    let total = |name: &str| spans::total_seconds(spans, name);
    let self_of = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| spans::self_seconds(spans, s.id))
            .sum()
    };
    let sum = |f: &dyn Fn(&Composed) -> usize| composed.iter().map(f).sum::<usize>() as f64;

    o.layer("clustering.cluster_s", total("clustering.cluster"), "s");
    o.layer("kernel.evals", evals as f64, "count");
    o.layer(
        "kernel.matvec_s",
        total("kernel.matvec") + total("kernel.matmat"),
        "s",
    );
    o.layer("hmatrix.build_s", total("hmatrix.build"), "s");
    o.layer("hmatrix.sample_s", total("hmatrix.matmat"), "s");
    o.layer("hmatrix.mb", sum(&|c| c.h_bytes) / 1e6, "MB");
    let compress = total("hss.compress");
    let sampling: f64 = spans
        .iter()
        .filter(|s| s.name == "hmatrix.matmat" || s.name == "kernel.matmat")
        .map(spans::Span::seconds)
        .sum();
    let cols = sum(&|c| c.sample_cols.iter().sum());
    let used = sum(&|c| c.sample_cols.last().copied().unwrap_or(0));
    o.layer("hss.compress_s", compress, "s");
    o.layer("hss.other_s", compress - sampling, "s");
    o.layer("hss.sample_cols", cols, "count");
    o.layer("hss.samples_used", used, "count");
    o.layer(
        "hss.restarts",
        sum(&|c| c.sample_cols.len().saturating_sub(1)),
        "count",
    );
    o.layer("hss.sample_yield", used / cols.max(1.0), "ratio");
    o.layer(
        "hss.max_rank",
        composed.iter().map(|c| c.max_rank).max().unwrap_or(0) as f64,
        "count",
    );
    o.layer("hss.mb", sum(&|c| c.hss_bytes) / 1e6, "MB");
    o.layer("ulv.factor_s", total("ulv.factor"), "s");
    o.layer("ulv.solve_s", total("ulv.solve"), "s");
    o.layer(
        "ulv.applies",
        spans::count(spans, "ulv.apply") as f64,
        "count",
    );
    o.layer("ulv.apply_s", total("ulv.apply"), "s");
    o.layer("ulv.mb", sum(&|c| c.ulv_bytes) / 1e6, "MB");
    o.layer("pcg.iterations", sum(&|c| c.pcg_iterations), "count");
    o.layer("pcg.self_s", self_of("pcg"), "s");
    o.layer("core.fit_self_s", self_of("core.fit"), "s");
    let shard_fits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.fit")
        .map(spans::Span::seconds)
        .collect();
    let (max_fit, imbalance) = if ensemble && !shard_fits.is_empty() {
        let max = shard_fits.iter().copied().fold(0.0, f64::max);
        (max, max / stats::mean(&shard_fits))
    } else {
        (0.0, 0.0)
    };
    o.layer("ensemble.plan_s", total("ensemble.plan"), "s");
    o.layer("ensemble.shard_fit_max_s", max_fit, "s");
    o.layer("ensemble.shard_imbalance", imbalance, "ratio");
}
