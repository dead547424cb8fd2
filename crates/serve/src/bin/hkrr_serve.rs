//! `hkrr-serve` — train, persist and serve kernel ridge regression models
//! (single or cluster-sharded ensembles).
//!
//! ```text
//! hkrr-serve save    --out model.hkrr [--dataset LETTER] [--n-train 600]
//!                    [--seed 42] [--solver dense|hss|hss+h|hss-pcg]
//!                    [--factor-precision f64|f32]   # f32 needs hss-pcg
//!                    [--shards K] [--route-nearest M]
//!                    [--shard-strategy cluster|random]
//! hkrr-serve info    <model.hkrr>
//! hkrr-serve serve   <model.hkrr> [--addr 127.0.0.1:7878] [--workers N]
//!                    [--max-batch 64] [--linger-us 500]
//! hkrr-serve loadgen --addr 127.0.0.1:7878 [--requests 1000]
//!                    [--concurrency 8] [--out BENCH_serve.json]
//! hkrr-serve metrics --addr 127.0.0.1:7878 [--out FILE.prom]
//!                    # scrape a live server/router's metrics registry
//! hkrr-serve bench   [--requests 1000] [--concurrency 8] [--shards K]
//!                    [--out BENCH_serve.json]   # train→save→load→serve→loadgen
//! hkrr-serve shard-serve <model.hkrr> --shard I [--addr 127.0.0.1:0]
//!                    [--workers N]              # serve ONE shard of an ensemble
//! hkrr-serve route   <model.hkrr> --shard ADDR[,ADDR…] … [--addr 127.0.0.1:7878]
//!                    [--route-nearest M] [--health-interval-ms 500]
//!                    # fan-out router over shard-serve processes
//! hkrr-serve dbench  [--shards K] [--replicas R] [--requests 400]
//!                    [--out BENCH_serve_distributed.json]
//!                    # distributed bench: spawn K×R shard processes + router,
//!                    # kill one shard mid-run, assert availability
//! hkrr-serve trace-merge --out merged.json FILE [FILE…]
//!                    # merge per-process HKRR_TRACE files, grouping spans
//!                    # by trace id across process boundaries
//! hkrr-serve doctor  --addr ROUTER   # scrape health+metrics+stats across
//!                    # a router's fleet, print a one-page diagnosis
//! ```
//!
//! `--shards K` (K > 1) trains a cluster-sharded ensemble: the training
//! set is cut into `K` geometrically coherent shards, one model per shard
//! trains in parallel, and serving routes each query to its
//! `--route-nearest M` nearest shard centroids. `shard-serve` + `route`
//! run the same ensemble as separate processes (see `docs/OPERATIONS.md`).

use hkrr_core::{KrrConfig, SolverKind};
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use hkrr_serve::client::Client;
use hkrr_serve::codec::{self, LoadedModel};
use hkrr_serve::engine::EngineConfig;
use hkrr_serve::loadgen::{self, LoadgenConfig, RoutingStats};
use hkrr_serve::router::{RouterConfig, RouterServer};
use hkrr_serve::server::{ModelSource, Server, ServerConfig};
use hkrr_serve::{save_model, ServeError};
use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

/// Tiny `--flag value` parser over the raw argument list.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All occurrences of a repeatable flag, in order — `route` takes one
    /// `--shard` per shard.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn solver_from(name: &str) -> Result<SolverKind, String> {
    match name {
        "dense" => Ok(SolverKind::DenseCholesky),
        "hss" => Ok(SolverKind::Hss),
        "hss+h" => Ok(SolverKind::HssWithHSampling),
        "hss-pcg" => Ok(SolverKind::HssPcg),
        other => Err(format!(
            "unknown solver {other:?} (dense | hss | hss+h | hss-pcg)"
        )),
    }
}

fn strategy_from(name: &str, seed: u64) -> Result<ShardStrategy, String> {
    match name {
        "cluster" => Ok(ShardStrategy::Cluster),
        "random" => Ok(ShardStrategy::Random { seed }),
        other => Err(format!(
            "unknown shard strategy {other:?} (cluster | random)"
        )),
    }
}

/// Trains either a single model or (with `--shards K`, K > 1) a
/// cluster-sharded ensemble on a synthetic dataset.
fn train_model(args: &Args) -> Result<(LoadedModel, hkrr_datasets::Dataset), String> {
    let dataset = args.get("dataset").unwrap_or("LETTER");
    let spec = hkrr_datasets::spec_by_name(dataset)
        .ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let n_train = args.get_parsed("n-train", 600usize)?;
    let n_test = args.get_parsed("n-test", 150usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let solver = solver_from(args.get("solver").unwrap_or("hss"))?;
    let factor_precision = match args.get("factor-precision") {
        None => hkrr_core::FactorPrecision::F64,
        Some(raw) => hkrr_core::FactorPrecision::parse(raw)
            .ok_or_else(|| format!("--factor-precision: f64 or f32, got {raw:?}"))?,
    };
    let shards = args.get_parsed("shards", 1usize)?;
    let ds = hkrr_datasets::generate(&spec, n_train, n_test, seed);
    let cfg = KrrConfig {
        h: spec.default_h,
        lambda: spec.default_lambda,
        solver,
        factor_precision,
        ..KrrConfig::default()
    };
    cfg.validate()?;
    let model = if shards > 1 {
        let route_nearest = args.get_parsed("route-nearest", 2usize.min(shards))?;
        let strategy = strategy_from(args.get("shard-strategy").unwrap_or("cluster"), seed)?;
        let ens_cfg = EnsembleConfig {
            shards,
            route_nearest,
            strategy,
            base: cfg,
        };
        eprintln!(
            "training {}×{} ensemble ({} sharding, route {} nearest) on {dataset} (n={n_train}, d={}) …",
            shards,
            solver.label(),
            strategy.label(),
            route_nearest,
            spec.dim
        );
        let ens =
            EnsembleKrr::fit(&ds.train, &ds.train_labels, &ens_cfg).map_err(|e| e.to_string())?;
        eprintln!("{}", ens.report());
        LoadedModel::Ensemble(ens)
    } else {
        eprintln!(
            "training {} on {dataset} (n={n_train}, d={}) …",
            solver.label(),
            spec.dim
        );
        let model = hkrr_core::KrrModel::fit(&ds.train, &ds.train_labels, &cfg)
            .map_err(|e| e.to_string())?;
        eprintln!("{}", model.report());
        LoadedModel::Single(model)
    };
    let acc = hkrr_core::accuracy(&model.predict(&ds.test), &ds.test_labels);
    eprintln!(
        "test accuracy: {:.2}% on {n_test} held-out points",
        100.0 * acc
    );
    Ok((model, ds))
}

fn save_loaded(model: &LoadedModel, path: &str) -> Result<(), ServeError> {
    match model {
        LoadedModel::Single(m) => save_model(m, path)?,
        LoadedModel::Ensemble(e) => codec::save_ensemble(e, path)?,
    }
    Ok(())
}

fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let default = EngineConfig::default();
    let workers = args.get_parsed("workers", default.workers)?;
    if workers == 0 {
        // workers: 0 is a test-only engine mode (nothing ever drains the
        // queue); a server started that way would accept and then starve
        // every request.
        return Err("--workers must be at least 1".to_string());
    }
    Ok(EngineConfig {
        workers,
        max_batch: args.get_parsed("max-batch", default.max_batch)?,
        queue_capacity: args.get_parsed("queue-capacity", default.queue_capacity)?,
        linger: Duration::from_micros(
            args.get_parsed("linger-us", default.linger.as_micros() as u64)?,
        ),
    })
}

fn cmd_save(args: &Args) -> Result<(), String> {
    let out = args.get("out").unwrap_or("model.hkrr").to_string();
    let (model, _) = train_model(args)?;
    save_loaded(&model, &out).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved {out} ({bytes} bytes, schema {}, kind: {})",
        codec::SCHEMA,
        if model.is_ensemble() {
            "ensemble"
        } else {
            "single"
        }
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: hkrr-serve info <model.hkrr>")?;
    let model = codec::load_any(path).map_err(|e| e.to_string())?;
    for line in codec::info_lines(&model) {
        println!("{line}");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: hkrr-serve serve <model.hkrr> [--addr host:port]")?;
    let model = codec::load_any(path).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {path}: kind={}, n_train={}, dim={}, models={} (no re-factorization needed)",
        if model.is_ensemble() {
            "ensemble"
        } else {
            "single"
        },
        model.num_train(),
        model.dim(),
        model.num_models()
    );
    drop(model); // the server re-loads through its ModelSource
    let config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        engine: engine_config(args)?,
    };
    // Starting from a source (not a pre-loaded handle) enables the
    // `refresh` command: re-load the file and hot-swap without a restart.
    let server = Server::start_with_source(ModelSource::File(path.into()), config)
        .map_err(|e| e.to_string())?;
    println!("serving on {} (ctrl-c to stop)", server.local_addr());
    serve_forever()
}

/// Serve until killed: the accept loop runs on its own thread. The ticker
/// flushes buffered trace events so a SIGKILLed process (dbench's
/// kill-a-shard scenario, CI teardown) still leaves a usable `HKRR_TRACE`
/// file behind; the event log needs no help — its drain thread already
/// writes continuously.
fn serve_forever() -> ! {
    loop {
        std::thread::sleep(Duration::from_millis(200));
        hkrr_telemetry::trace::flush();
    }
}

/// Serves ONE shard of an ensemble file as its own process — the worker
/// tier of the distributed topology. Prints `listening <addr>` on stdout
/// so a parent (`dbench`, CI scripts) can scrape the bound port.
fn cmd_shard_serve(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: hkrr-serve shard-serve <model.hkrr> --shard I [--addr host:port]")?;
    let index = args.get_parsed("shard", usize::MAX)?;
    if index == usize::MAX {
        return Err("shard-serve needs --shard I (zero-based shard index)".to_string());
    }
    let config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        engine: engine_config(args)?,
    };
    let source = ModelSource::EnsembleShard {
        path: path.into(),
        index,
    };
    let server = Server::start_with_source(source, config).map_err(|e| e.to_string())?;
    let model = server.engine().model();
    eprintln!(
        "shard {index} of {path}: n_train={}, dim={}",
        model.num_train(),
        model.dim()
    );
    println!("listening {}", server.local_addr());
    // A parent process scrapes that line; make sure it is not stuck in a
    // pipe buffer.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    serve_forever()
}

/// Parses the repeated `--shard ADDR[,ADDR…]` flags into per-shard replica
/// address groups.
fn shard_addr_groups(args: &Args) -> Result<Vec<Vec<String>>, String> {
    let groups: Vec<Vec<String>> = args
        .get_all("shard")
        .iter()
        .map(|g| {
            g.split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect()
        })
        .collect();
    if groups.is_empty() {
        return Err("route needs one --shard ADDR[,ADDR…] per shard (in shard order)".to_string());
    }
    Ok(groups)
}

fn router_config(args: &Args) -> Result<RouterConfig, String> {
    let default = RouterConfig::default();
    Ok(RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        route_nearest: match args.get("route-nearest") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("--route-nearest: cannot parse {v:?}"))?,
            ),
        },
        health_interval: Duration::from_millis(args.get_parsed(
            "health-interval-ms",
            default.health_interval.as_millis() as u64,
        )?),
        connect_timeout: Duration::from_millis(args.get_parsed(
            "connect-timeout-ms",
            default.connect_timeout.as_millis() as u64,
        )?),
        io_timeout: Duration::from_millis(
            args.get_parsed("io-timeout-ms", default.io_timeout.as_millis() as u64)?,
        ),
    })
}

/// The router tier: reads only the centroids from the ensemble file and
/// fans queries out to shard-serve processes.
fn cmd_route(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: hkrr-serve route <model.hkrr> --shard ADDR[,ADDR…] … [--addr host:port]")?;
    let layout = codec::load_layout(path).map_err(|e| e.to_string())?;
    let groups = shard_addr_groups(args)?;
    let config = router_config(args)?;
    eprintln!(
        "router over {} shards ({} replicas total), route {} nearest",
        layout.shards,
        groups.iter().map(Vec::len).sum::<usize>(),
        config.route_nearest.unwrap_or(layout.route_nearest)
    );
    let router = RouterServer::start(layout.centroids, layout.route_nearest, groups, config)
        .map_err(|e| e.to_string())?;
    println!("listening {}", router.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    serve_forever()
}

fn write_snapshot(report: &loadgen::LoadgenReport, out: &str) -> Result<(), String> {
    std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("{}", report.summary());
    println!("wrote {out}");
    Ok(())
}

/// Scrapes a live server's metrics registry over the binary `metrics`
/// command, validates the exposition, and prints it (or writes `--out`).
fn cmd_metrics(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let text = Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("scraping {addr}: {e}"))?;
    hkrr_bench::prom::validate(&text)
        .map_err(|e| format!("{addr} returned invalid exposition: {e}"))?;
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {out} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Scrapes `addr` and writes the validated exposition to `out` — the
/// `.prom` artifacts `bench`/`dbench` leave next to their JSON snapshots.
fn write_prom_artifact(addr: &str, out: &str) -> Result<(), String> {
    let text = Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("scraping {addr}: {e}"))?;
    hkrr_bench::prom::validate(&text)
        .map_err(|e| format!("{addr} returned invalid exposition: {e}"))?;
    std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({} bytes)", text.len());
    Ok(())
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let config = LoadgenConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        requests: args.get_parsed("requests", 1000usize)?,
        concurrency: args.get_parsed("concurrency", 8usize)?,
        seed: args.get_parsed("seed", 0x10adu64)?,
        traced: args.get_parsed("traced", true)?,
    };
    let report = loadgen::run(&config).map_err(|e| e.to_string())?;
    write_snapshot(&report, args.get("out").unwrap_or("BENCH_serve.json"))
}

/// The zero-to-production walkthrough in one command: train a model, save
/// it, load it back, serve it on a loopback port, hammer it with the load
/// generator, and leave behind `BENCH_serve.json`.
fn cmd_bench(args: &Args) -> Result<(), String> {
    let (model, _) = train_model(args)?;
    let path = std::env::temp_dir().join(format!("hkrr_bench_{}.hkrr", std::process::id()));
    save_loaded(&model, &path.to_string_lossy()).map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let loaded = codec::load_any(&path).map_err(|e| e.to_string())?;
    std::fs::remove_file(&path).ok();
    println!(
        "save → load round trip ok ({file_bytes} bytes, kind: {}, models: {})",
        if loaded.is_ensemble() {
            "ensemble"
        } else {
            "single"
        },
        loaded.num_models()
    );

    let server = Server::start(
        loaded.into_handle(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: engine_config(args)?,
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    println!("serving on {addr}");

    let config = LoadgenConfig {
        addr,
        requests: args.get_parsed("requests", 1000usize)?,
        concurrency: args.get_parsed("concurrency", 8usize)?,
        seed: args.get_parsed("seed", 0x10adu64)?,
        traced: args.get_parsed("traced", true)?,
    };
    let report = loadgen::run(&config).map_err(|e| e.to_string())?;
    // Leave the post-run scrape next to the JSON snapshot (CI validates
    // it with prom_check).
    write_prom_artifact(
        &config.addr,
        args.get("prom-out").unwrap_or("BENCH_serve.prom"),
    )?;
    server.shutdown();
    hkrr_telemetry::trace::flush();
    let engine_stats = server.stats();
    println!(
        "engine: {} requests in {} batches (mean batch {:.2})",
        engine_stats.requests, engine_stats.batches, engine_stats.mean_batch_size
    );
    if !engine_stats.model_requests.is_empty() {
        println!(
            "per-shard routed queries: {:?}",
            engine_stats.model_requests
        );
    }
    write_snapshot(&report, args.get("out").unwrap_or("BENCH_serve.json"))?;
    if report.errors > 0 {
        return Err(format!("{} queries failed", report.errors));
    }
    Ok(())
}

/// One spawned `shard-serve` child process and the address it bound.
struct ShardProcess {
    child: std::process::Child,
    addr: String,
    shard: usize,
}

/// Spawns `hkrr-serve shard-serve` as a real child process on a free
/// loopback port and scrapes `listening <addr>` from its stdout. When the
/// parent runs under `HKRR_TRACE` or `HKRR_LOG`, each child gets its own
/// derived trace/event-log path (`<path>.shard<i>r<r>`) — two processes
/// appending to one file would interleave garbage. `HKRR_LOG=stderr` is
/// forwarded as-is (stderr interleaving is line-atomic enough for eyes).
fn spawn_shard_process(
    model_path: &str,
    shard: usize,
    replica: usize,
) -> Result<ShardProcess, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args([
            "shard-serve",
            model_path,
            "--shard",
            &shard.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if let Ok(trace) = std::env::var("HKRR_TRACE") {
        command.env("HKRR_TRACE", format!("{trace}.shard{shard}r{replica}"));
    }
    if let Ok(log) = std::env::var("HKRR_LOG") {
        if log == "stderr" {
            command.env("HKRR_LOG", log);
        } else {
            command.env("HKRR_LOG", format!("{log}.shard{shard}r{replica}"));
        }
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot spawn shard-serve: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading shard {shard} stdout: {e}"))?;
        if n == 0 {
            let _ = child.kill();
            return Err(format!(
                "shard {shard} process exited before announcing its port"
            ));
        }
        if let Some(addr) = line.trim().strip_prefix("listening ") {
            return Ok(ShardProcess {
                child,
                addr: addr.to_string(),
                shard,
            });
        }
    }
}

/// The distributed walkthrough in one command: train a sharded ensemble,
/// save it, launch one `shard-serve` OS process per shard replica, put an
/// in-process router in front, hammer it — and kill every replica of one
/// shard mid-run to measure availability under failover. Fails when the
/// post-disruption error rate exceeds 5% (degraded-but-answered queries
/// are fine; hangs are impossible by construction because every client
/// runs to quota under the router's I/O deadlines).
fn cmd_dbench(args: &Args) -> Result<(), String> {
    let shards = args.get_parsed("shards", 4usize)?;
    if shards < 2 {
        return Err("dbench needs --shards ≥ 2 (distributed implies sharded)".to_string());
    }
    let replicas = args.get_parsed("replicas", 1usize)?.max(1);
    let requests = args.get_parsed("requests", 400usize)?;

    // Train + save the ensemble the shard processes will each load a
    // nested section of.
    let mut train_args = Args {
        positional: args.positional.clone(),
        flags: args.flags.clone(),
    };
    if train_args.get("shards").is_none() {
        train_args
            .flags
            .push(("shards".to_string(), shards.to_string()));
    }
    let (model, _) = train_model(&train_args)?;
    let path = std::env::temp_dir().join(format!("hkrr_dbench_{}.hkrr", std::process::id()));
    let path_str = path.to_string_lossy().to_string();
    save_loaded(&model, &path_str).map_err(|e| e.to_string())?;
    let layout = codec::load_layout(&path_str).map_err(|e| e.to_string())?;
    drop(model);

    // One OS process per shard replica.
    let mut fleet: Vec<ShardProcess> = Vec::with_capacity(shards * replicas);
    for shard in 0..shards {
        for replica in 0..replicas {
            match spawn_shard_process(&path_str, shard, replica) {
                Ok(p) => fleet.push(p),
                Err(e) => {
                    for p in &mut fleet {
                        let _ = p.child.kill();
                    }
                    std::fs::remove_file(&path).ok();
                    return Err(e);
                }
            }
        }
    }
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); shards];
    for p in &fleet {
        groups[p.shard].push(p.addr.clone());
    }
    println!(
        "spawned {} shard-serve processes ({} shards × {} replicas)",
        fleet.len(),
        shards,
        replicas
    );

    // Kill-a-shard scenario: every replica of shard 0 dies mid-run.
    let victims: Vec<std::process::Child> = {
        let mut victims = Vec::new();
        let mut kept = Vec::new();
        for p in fleet {
            if p.shard == 0 {
                victims.push(p.child);
            } else {
                kept.push(p);
            }
        }
        fleet = kept;
        victims
    };

    let router = RouterServer::start(
        layout.centroids,
        layout.route_nearest,
        groups,
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            health_interval: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            route_nearest: None,
        },
    )
    .map_err(|e| e.to_string())?;
    println!("router listening on {}", router.local_addr());

    let config = LoadgenConfig {
        addr: router.local_addr().to_string(),
        requests,
        concurrency: args.get_parsed("concurrency", 4usize)?,
        seed: args.get_parsed("seed", 0x10adu64)?,
        traced: args.get_parsed("traced", true)?,
    };
    let disrupt_after = requests / 2;
    let report = loadgen::run_with_disruption(&config, disrupt_after, move || {
        for mut child in victims {
            let _ = child.kill();
            let _ = child.wait();
        }
    })
    .map_err(|e| e.to_string())?;

    let stats_json = router.stats_json();
    // The routing section comes from a registry scrape of the live router
    // (the same path an external monitoring system would use), not from
    // in-process accessors — and the scrapes are left behind as validated
    // .prom artifacts: the router's, and one surviving shard process's.
    let router_addr = router.local_addr().to_string();
    let router_scrape = Client::connect(&router_addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| e.to_string())
        .and_then(|t| {
            hkrr_bench::prom::validate(&t)
                .map(|s| (t, s))
                .map_err(|e| e.to_string())
        });
    let report = match &router_scrape {
        Ok((_, scrape)) => report.with_routing(RoutingStats::from_scrape(scrape)),
        Err(_) => report.with_routing(RoutingStats {
            failovers: router.failovers(),
            degraded: router.degraded(),
            exhausted: 0,
        }),
    };
    if let Ok((text, _)) = &router_scrape {
        let out = args.get("router-prom").unwrap_or("BENCH_router.prom");
        std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out} ({} bytes)", text.len());
    }
    if let Some(survivor) = fleet.first() {
        write_prom_artifact(
            &survivor.addr,
            args.get("shard-prom").unwrap_or("BENCH_shard.prom"),
        )?;
    }

    // Fleet doctor against the live (and deliberately disrupted) router —
    // the same one-page diagnosis `hkrr-serve doctor --addr` prints, taken
    // over TCP like an external operator would. The killed shard must show
    // up unhealthy here.
    let doctor = doctor_page(&router_addr)?;
    print!("{doctor}");
    if let Some(out) = args.get("doctor-out") {
        std::fs::write(out, &doctor).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }

    router.shutdown();
    hkrr_telemetry::trace::flush();
    hkrr_telemetry::log::flush();
    // Give the shard processes one flush tick so their trace files carry
    // the tail of the run before the SIGKILL below.
    std::thread::sleep(Duration::from_millis(400));
    for p in &mut fleet {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }
    std::fs::remove_file(&path).ok();

    // With HKRR_TRACE set, stitch the router's trace file and every shard
    // process's (spawn_shard_process derived `{base}.shardNrM` paths) into
    // one timeline — the artifact where a single query's spans line up
    // across process boundaries.
    if let Ok(trace_base) = std::env::var("HKRR_TRACE") {
        let mut inputs = vec![trace_base.clone()];
        for shard in 0..shards {
            for replica in 0..replicas {
                let p = format!("{trace_base}.shard{shard}r{replica}");
                if std::path::Path::new(&p).exists() {
                    inputs.push(p);
                }
            }
        }
        let merged = format!("{trace_base}.merged");
        match merge_trace_files(&inputs, &merged) {
            Ok(s) => println!(
                "trace-merge: {} events from {} files, {} traces ({} multi-process) → {merged}",
                s.events, s.files, s.traces, s.multi_process
            ),
            Err(e) => eprintln!("trace-merge skipped: {e}"),
        }
    }
    let (failovers_scraped, degraded_scraped) = match &report.routing {
        Some(r) => (r.failovers, r.degraded),
        None => (0, 0),
    };
    println!("registry scrape: {failovers_scraped} failovers, {degraded_scraped} degraded replies");

    println!("router stats: {stats_json}");
    write_snapshot(
        &report,
        args.get("out").unwrap_or("BENCH_serve_distributed.json"),
    )?;

    let d = report
        .disruption
        .as_ref()
        .ok_or("disruption never fired (run too short?)")?;
    if d.requests_after == 0 {
        return Err("no requests observed after the disruption".to_string());
    }
    let error_rate = d.errors_after as f64 / d.requests_after as f64;
    println!(
        "post-disruption availability: {}/{} answered ({:.1}% errors)",
        d.requests_after - d.errors_after,
        d.requests_after,
        100.0 * error_rate
    );
    if error_rate > 0.05 {
        return Err(format!(
            "post-disruption error rate {:.1}% exceeds the 5% budget",
            100.0 * error_rate
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Minimal JSON field extraction for the stats documents this binary's own
// JsonWriter produced — flat objects and arrays of flat objects, no general
// JSON parser needed (the workspace deliberately has none).
// ---------------------------------------------------------------------------

/// `"key":"value"` → the (escaped) string value.
fn json_str(doc: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = doc.find(&pat)? + pat.len();
    let bytes = doc.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(doc[start..i].to_string()),
            _ => i += 1,
        }
    }
    None
}

/// `"key":123` → the integer value.
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let digits: String = doc[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `"key":true|false` → the flag.
fn json_bool(doc: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let rest = &doc[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The top-level `{…}` elements of the array at `"key":[…]`, each returned
/// as its raw JSON text.
fn json_objects(doc: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":[");
    let Some(start) = doc.find(&pat).map(|i| i + pat.len()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in doc[start..].char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    obj_start = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(doc[start + obj_start..start + i + 1].to_string());
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// trace-merge: stitch per-process HKRR_TRACE files into one timeline.
// ---------------------------------------------------------------------------

/// What [`merge_trace_files`] found.
struct TraceMergeSummary {
    files: usize,
    events: usize,
    traced_events: usize,
    traces: usize,
    /// Traces whose spans came from more than one process id — the proof
    /// that cross-process propagation actually happened.
    multi_process: usize,
}

/// `"trace_id":"<32 hex>"` from one span line.
fn event_trace_id(line: &str) -> Option<&str> {
    let pat = "\"trace_id\":\"";
    let start = line.find(pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// `"pid":N` from one span line.
fn event_pid(line: &str) -> Option<u64> {
    json_u64(line, "pid")
}

/// Reads per-process Chrome trace files (the line-oriented format the
/// telemetry sink writes: `[` then one `{…},` event per line), merges every
/// event into `out` as a strictly-valid JSON array, and groups traced spans
/// by their `trace_id` across process boundaries.
fn merge_trace_files(inputs: &[String], out: &str) -> Result<TraceMergeSummary, String> {
    use std::collections::{HashMap, HashSet};
    let mut events: Vec<String> = Vec::new();
    let mut traces: HashMap<String, HashSet<u64>> = HashMap::new();
    let mut traced_events = 0usize;
    for path in inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for line in text.lines() {
            let line = line.trim();
            let line = line.strip_suffix(',').unwrap_or(line);
            if !line.starts_with('{') {
                continue; // the opening `[`, blanks, or a closing `]`
            }
            if let Some(trace_id) = event_trace_id(line) {
                traced_events += 1;
                traces
                    .entry(trace_id.to_string())
                    .or_default()
                    .insert(event_pid(line).unwrap_or(0));
            }
            events.push(line.to_string());
        }
    }
    let body = events.join(",\n");
    std::fs::write(out, format!("[\n{body}\n]\n"))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(TraceMergeSummary {
        files: inputs.len(),
        events: events.len(),
        traced_events,
        traces: traces.len(),
        multi_process: traces.values().filter(|pids| pids.len() > 1).count(),
    })
}

fn cmd_trace_merge(args: &Args) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err("usage: hkrr-serve trace-merge [--out merged.json] FILE [FILE…]".to_string());
    }
    let out = args.get("out").unwrap_or("trace_merged.json");
    let min_multi = args.get_parsed("min-multi-process", 0usize)?;
    let s = merge_trace_files(&args.positional, out)?;
    println!(
        "merged {} events from {} files into {out}",
        s.events, s.files
    );
    println!(
        "traces: {} distinct over {} traced spans, {} spanning multiple processes",
        s.traces, s.traced_events, s.multi_process
    );
    if s.multi_process < min_multi {
        return Err(format!(
            "only {} multi-process traces found, --min-multi-process demands {min_multi} \
             (was HKRR_TRACE set on every process, and did traced queries flow?)",
            s.multi_process
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// doctor: one-page fleet diagnosis off a live router.
// ---------------------------------------------------------------------------

fn fmt_p99(p99: Option<u64>) -> String {
    match p99 {
        None => "p99=n/a".to_string(),
        Some(us) => format!("p99={us}us"),
    }
}

/// Scrapes health + stats + metrics from the router at `addr`, then every
/// replica the router's stats document lists, and renders the one-page
/// diagnosis `hkrr-serve doctor` prints: per-replica health/dispatch/p99
/// deltas, queue rejections, failover counters, and the slowest traces.
fn doctor_page(addr: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let connect = Duration::from_millis(1000);
    let io = Duration::from_secs(2);
    let mut client = Client::connect_with(addr, connect, io)
        .map_err(|e| format!("cannot reach router {addr}: {e}"))?;
    let health = client
        .health()
        .map_err(|e| format!("health of {addr}: {e}"))?;
    let stats = client
        .stats()
        .map_err(|e| format!("stats of {addr}: {e}"))?;
    let metrics = client
        .metrics()
        .map_err(|e| format!("metrics of {addr}: {e}"))?;
    let scrape =
        hkrr_bench::prom::parse(&metrics).map_err(|e| format!("metrics of {addr}: {e}"))?;

    let mut page = String::new();
    let _ = writeln!(page, "== hkrr fleet doctor: {addr} ==");
    let role = if health.role == hkrr_serve::protocol::ROLE_ROUTER {
        "router"
    } else {
        "model server"
    };
    let _ = writeln!(
        page,
        "{role} v{} up {:.0}s, {} requests",
        json_str(&stats, "version").unwrap_or_else(|| "?".into()),
        json_u64(&stats, "uptime_seconds").unwrap_or(0),
        health.requests,
    );
    let failovers = json_u64(&stats, "failovers").unwrap_or(0);
    let degraded = json_u64(&stats, "degraded").unwrap_or(0);
    let exhausted = json_u64(&stats, "exhausted").unwrap_or(0);
    let _ = writeln!(
        page,
        "queries: {} | failovers {failovers} | degraded {degraded} | exhausted {exhausted}",
        json_u64(&stats, "requests").unwrap_or(0),
    );

    // Per-replica rows: router-side counters + p99 from the router's own
    // dispatch histogram, fleet-median delta, and a direct scrape of the
    // replica's engine stats (unreachable replicas are flagged, not fatal).
    // A p99 past the last finite bucket reads as that bucket's bound.
    let replicas = json_objects(&stats, "replicas");
    let p99s: Vec<Option<u64>> = replicas
        .iter()
        .map(|r| {
            let addr = json_str(r, "addr")?;
            let latency = scrape
                .histogram("hkrr_router_replica_latency_micros", &[("replica", &addr)])
                .filter(|h| h.count > 0)?;
            Some(latency.quantile(0.99) as u64)
        })
        .collect();
    let mut known: Vec<u64> = p99s.iter().flatten().copied().collect();
    known.sort_unstable();
    let median_p99 = known.get(known.len() / 2).copied();
    let mut unhealthy: Vec<String> = Vec::new();
    let mut total_rejections = 0u64;
    let mut shard_slow: Vec<(u64, String, String, String)> = Vec::new();
    let _ = writeln!(page, "replicas:");
    for (replica, p99) in replicas.iter().zip(&p99s) {
        let raddr = json_str(replica, "addr").unwrap_or_else(|| "?".into());
        let shard = json_u64(replica, "shard").unwrap_or(0);
        let healthy = json_bool(replica, "healthy").unwrap_or(false);
        if !healthy {
            unhealthy.push(format!("shard {shard} {raddr}"));
        }
        let delta = match (p99, median_p99) {
            (Some(p), Some(m)) if m > 0 => {
                format!(
                    " ({:+.0}% vs fleet median)",
                    100.0 * (*p as f64 - m as f64) / m as f64
                )
            }
            _ => String::new(),
        };
        // The replica's own view, over a short-deadline scrape.
        let direct = Client::connect_with(
            &raddr,
            Duration::from_millis(300),
            Duration::from_millis(1000),
        )
        .and_then(|mut c| c.stats());
        let engine_info = match &direct {
            Ok(estats) => {
                let rejections = json_u64(estats, "queue_rejections").unwrap_or(0);
                total_rejections += rejections;
                for entry in json_objects(estats, "slowlog") {
                    shard_slow.push((
                        json_u64(&entry, "latency_us").unwrap_or(0),
                        json_str(&entry, "trace_id").unwrap_or_else(|| "-".into()),
                        json_str(&entry, "detail").unwrap_or_default(),
                        format!("shard {shard} {raddr}"),
                    ));
                }
                format!("queue_rejections={rejections}")
            }
            Err(e) => format!("unreachable: {e}"),
        };
        let _ = writeln!(
            page,
            "  shard {shard} {raddr}  {}  dispatched={} failures={} {}{delta}  {engine_info}",
            if healthy { "healthy" } else { "UNHEALTHY" },
            json_u64(replica, "dispatched").unwrap_or(0),
            json_u64(replica, "failures").unwrap_or(0),
            fmt_p99(*p99),
        );
    }

    let _ = writeln!(page, "slowest traces (router):");
    for entry in json_objects(&stats, "slowlog") {
        let _ = writeln!(
            page,
            "  {:>8}us trace={} {}",
            json_u64(&entry, "latency_us").unwrap_or(0),
            json_str(&entry, "trace_id").unwrap_or_else(|| "-".into()),
            json_str(&entry, "detail").unwrap_or_default(),
        );
    }
    shard_slow.sort_by_key(|e| std::cmp::Reverse(e.0));
    if !shard_slow.is_empty() {
        let _ = writeln!(page, "slowest traces (shards):");
        for (latency_us, trace_id, detail, whom) in shard_slow.iter().take(5) {
            let _ = writeln!(
                page,
                "  {latency_us:>8}us trace={trace_id} {detail} [{whom}]"
            );
        }
    }

    let _ = writeln!(page, "diagnosis:");
    let mut findings = 0;
    if !unhealthy.is_empty() {
        findings += 1;
        let _ = writeln!(
            page,
            "  - {} replica(s) unhealthy: {}",
            unhealthy.len(),
            unhealthy.join(", ")
        );
    }
    if failovers > 0 {
        findings += 1;
        let _ = writeln!(page, "  - {failovers} queries needed failover");
    }
    if degraded > 0 || exhausted > 0 {
        findings += 1;
        let _ = writeln!(
            page,
            "  - degraded replies: {degraded}, exhausted (errored): {exhausted}"
        );
    }
    if total_rejections > 0 {
        findings += 1;
        let _ = writeln!(
            page,
            "  - {total_rejections} queue rejections across the fleet"
        );
    }
    if findings == 0 {
        let _ = writeln!(page, "  - all replicas healthy, no failovers — nominal");
    }
    Ok(page)
}

fn cmd_doctor(args: &Args) -> Result<(), String> {
    let addr = args
        .get("addr")
        .ok_or("usage: hkrr-serve doctor --addr ROUTER [--out FILE]")?;
    let page = doctor_page(addr)?;
    print!("{page}");
    if let Some(out) = args.get("out") {
        std::fs::write(out, &page).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(())
}

const USAGE: &str =
    "usage: hkrr-serve <save|train|info|serve|loadgen|metrics|bench|shard-serve|route|dbench|trace-merge|doctor> [options]
  save         train a model on a synthetic dataset and persist it (hkrr-model/1);
               --shards K (K>1) trains a cluster-sharded ensemble
  info         print a persisted model's metadata (line-oriented key: value)
  serve        load a model or ensemble and answer prediction queries over TCP
  loadgen      benchmark a running server, write BENCH_serve.json
  metrics      scrape a live server/router's metrics registry (Prometheus text)
  bench        end-to-end: train → save → load → serve → loadgen
  shard-serve  serve ONE shard of an ensemble file (--shard I) as its own process
  route        fan-out router over shard-serve processes (--shard ADDR[,ADDR…] per shard)
  dbench       distributed bench: spawn shard processes + router, kill a shard
               mid-run, assert availability, write BENCH_serve_distributed.json
  trace-merge  stitch per-process HKRR_TRACE files into one timeline
               (--out merged.json, --min-multi-process N) and count the
               traces that crossed process boundaries
  doctor       one-page fleet diagnosis off a live router (--addr ROUTER
               [--out FILE]): per-replica health/p99 deltas, failovers,
               queue rejections, slowest traces";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if std::env::var_os("HKRR_TRACE").is_some() {
        eprintln!("HKRR_TRACE set: writing chrome://tracing events");
    }
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        // `train` kept as an alias: saving is what makes training durable.
        "save" | "train" => cmd_save(&args),
        "info" => cmd_info(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "metrics" => cmd_metrics(&args),
        "bench" => cmd_bench(&args),
        "shard-serve" => cmd_shard_serve(&args),
        "route" => cmd_route(&args),
        "dbench" => cmd_dbench(&args),
        "trace-merge" => cmd_trace_merge(&args),
        "doctor" => cmd_doctor(&args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hkrr-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
