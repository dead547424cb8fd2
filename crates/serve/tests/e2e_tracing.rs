//! End-to-end request causality across OS process boundaries: a router
//! (this process) over real `shard-serve` child processes, every predict
//! frame carrying its trace context, one replica killed mid-run.
//!
//! The pins, per sampled query:
//! * its trace id appears in the router's span stream, and
//! * in at least one shard process's span stream — or the router's event
//!   log records a failover/degraded outcome for it;
//! * `hkrr-serve trace-merge` reconstructs one timeline with at least one
//!   multi-process trace, and `hkrr-serve doctor` lists the killed replica
//!   as unhealthy with a failover count.
//!
//! One test function only: the trace and event-log sinks are
//! process-global and installed once, which is the production contract.

use hkrr_core::{KrrConfig, SolverKind};
use hkrr_datasets::registry::LETTER;
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use hkrr_serve::client::Client;
use hkrr_serve::codec;
use hkrr_serve::router::{RouterConfig, RouterServer};
use hkrr_telemetry::{log, trace};
use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const EXE: &str = env!("CARGO_BIN_EXE_hkrr-serve");

fn temp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("hkrr_e2e_{name}_{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

fn spawn_shard(model: &str, shard: usize, trace_path: &str) -> (Child, String) {
    let mut child = Command::new(EXE)
        .args([
            "shard-serve",
            model,
            "--shard",
            &shard.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .env("HKRR_TRACE", trace_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard-serve");
    let stdout = child.stdout.take().unwrap();
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break None;
        }
        if let Some(addr) = line.trim().strip_prefix("listening ") {
            break Some(addr.to_string());
        }
    };
    match addr {
        Some(addr) => (child, addr),
        None => {
            // Reap the exited child before failing the test.
            let _ = child.wait();
            panic!("shard {shard} exited before announcing its port");
        }
    }
}

fn wait_until(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn hex(id: u128) -> String {
    format!("{id:032x}")
}

#[test]
fn traced_queries_reconstruct_across_processes_with_failover() {
    let trace_base = temp("trace.json");
    let log_path = temp("events.jsonl");
    let model_path = temp("model.hkrr");
    assert!(trace::init_with_path(&trace_base).unwrap());
    assert!(log::init_with_path(&log_path).unwrap());

    // A small cluster-sharded ensemble, saved for the shard processes.
    let ds = hkrr_datasets::generate(&LETTER, 180, 24, 41);
    let cfg = EnsembleConfig {
        shards: SHARDS,
        route_nearest: 2,
        strategy: ShardStrategy::Cluster,
        base: KrrConfig {
            h: LETTER.default_h,
            lambda: LETTER.default_lambda,
            solver: SolverKind::Hss,
            ..KrrConfig::default()
        },
    };
    let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).expect("ensemble training");
    codec::save_ensemble(&ens, &model_path).unwrap();
    let direct = ens.decision_values(&ds.test);

    // One shard-serve OS process per shard, each tracing to its own file.
    let shard_traces: Vec<String> = (0..SHARDS)
        .map(|i| format!("{trace_base}.shard{i}"))
        .collect();
    let mut fleet: Vec<(Child, String)> = (0..SHARDS)
        .map(|i| spawn_shard(&model_path, i, &shard_traces[i]))
        .collect();
    let groups: Vec<Vec<String>> = fleet.iter().map(|(_, addr)| vec![addr.clone()]).collect();

    let layout = codec::load_layout(&model_path).unwrap();
    let router = RouterServer::start(
        layout.centroids,
        layout.route_nearest,
        groups,
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            route_nearest: None,
            health_interval: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
        },
    )
    .unwrap();
    let router_addr = router.local_addr().to_string();

    // Phase A — healthy fleet: traced queries must be answered bitwise
    // identically to the in-process ensemble (tracing is observational).
    let mut client = Client::connect(&router_addr).unwrap();
    let mut sampled: Vec<u128> = Vec::new();
    for i in 0..12 {
        let id = trace::mint_trace_id();
        let p = client
            .predict_traced(ds.test.row(i).to_vec(), id, 0)
            .unwrap();
        assert_eq!(
            p.score, direct[i],
            "traced query {i} must stay bitwise identical"
        );
        sampled.push(id);
    }

    // Kill shard 0's only replica; the prober must mark it dark.
    let (mut victim, _) = fleet.remove(0);
    victim.kill().unwrap();
    victim.wait().unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || !router.replica_health()[0][0]),
        "prober must mark the killed replica unhealthy"
    );

    // Phase B — disrupted fleet: keep sending until at least one query
    // actually needed failover re-routing (queries whose nearest shards
    // include the dead one), sampling every id.
    let mut i = 0;
    while router.failovers() == 0 || i < 12 {
        let id = trace::mint_trace_id();
        let p = client
            .predict_traced(ds.test.row(i % ds.test.nrows()).to_vec(), id, 0)
            .unwrap();
        assert!(p.batch_size >= 1);
        sampled.push(id);
        i += 1;
        assert!(i < 120, "no failover after {i} post-kill queries");
    }
    assert!(router.failovers() > 0);

    // Fleet doctor over TCP against the live router: the killed replica
    // must show up unhealthy, with the failover count in the diagnosis.
    let doctor = Command::new(EXE)
        .args(["doctor", "--addr", &router_addr])
        .output()
        .expect("run doctor");
    let doctor_out = String::from_utf8_lossy(&doctor.stdout).to_string();
    assert!(doctor.status.success(), "doctor failed: {doctor_out}");
    assert!(
        doctor_out.contains("UNHEALTHY"),
        "doctor page: {doctor_out}"
    );
    assert!(
        doctor_out.contains("queries needed failover"),
        "doctor page: {doctor_out}"
    );

    // Tear down: flush this process's sinks, give the children a flush
    // tick (they write their trace files every 200 ms), then kill them.
    drop(client);
    router.shutdown();
    trace::flush();
    log::flush();
    std::thread::sleep(Duration::from_millis(500));
    for (child, _) in &mut fleet {
        let _ = child.kill();
        let _ = child.wait();
    }

    // Causality, per sampled query: the trace id is in the router's span
    // stream, and in a shard process's span stream unless the router's
    // event log explains it as a failover/degraded/rejected outcome.
    let router_stream = std::fs::read_to_string(&trace_base).unwrap();
    let shard_streams: Vec<String> = shard_traces
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap_or_default())
        .collect();
    let events = std::fs::read_to_string(&log_path).unwrap();
    for line in events.lines() {
        hkrr_bench::json::validate(line).unwrap_or_else(|e| panic!("bad event {line}: {e}"));
    }
    for id in &sampled {
        let h = hex(*id);
        assert!(
            router_stream.contains(&h),
            "trace {h} missing from the router span stream"
        );
        let in_shards = shard_streams.iter().filter(|s| s.contains(&h)).count();
        let explained = events.lines().any(|l| {
            l.contains(&h)
                && (l.contains("\"outcome\":\"failover\"")
                    || l.contains("\"outcome\":\"degraded\"")
                    || l.contains("\"outcome\":\"rejected\""))
        });
        assert!(
            in_shards >= 1 || explained,
            "trace {h} reached no shard and has no explaining event"
        );
    }
    // The disruption is visible in the event log, not just counters.
    assert!(
        events.contains("\"outcome\":\"failover\""),
        "no failover event logged: {events}"
    );

    // trace-merge reconstructs one timeline with cross-process traces.
    let merged_path = temp("merged.json");
    let mut merge_args = vec![
        "trace-merge".to_string(),
        "--out".to_string(),
        merged_path.clone(),
        "--min-multi-process".to_string(),
        "1".to_string(),
        trace_base.clone(),
    ];
    merge_args.extend(shard_traces.iter().cloned());
    let merge = Command::new(EXE)
        .args(&merge_args)
        .output()
        .expect("run trace-merge");
    assert!(
        merge.status.success(),
        "trace-merge failed: {}{}",
        String::from_utf8_lossy(&merge.stdout),
        String::from_utf8_lossy(&merge.stderr)
    );
    let merged = std::fs::read_to_string(&merged_path).unwrap();
    hkrr_bench::json::validate(&merged).expect("merged trace must be strictly valid JSON");
    assert!(merged.contains(&hex(sampled[0])));

    for p in [&trace_base, &log_path, &model_path, &merged_path] {
        std::fs::remove_file(p).ok();
    }
    for p in &shard_traces {
        std::fs::remove_file(p).ok();
    }
}
