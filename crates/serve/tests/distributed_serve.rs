//! The distributed serving topology end to end, over real TCP:
//!
//! * one `Server` per shard, each loading ONE nested `SHnn` model from the
//!   same saved ensemble file (`ModelSource::EnsembleShard`),
//! * a `RouterServer` in front holding only the file's centroids,
//!
//! and pins the acceptance criterion: a query routed over TCP through the
//! router is **bitwise identical** to the in-process `EnsembleKrr` on the
//! same shard set. On top of that: fleet-wide `refresh` through the
//! router, replication with least-loaded spread, health-prober dark-replica
//! detection, the kill-a-shard failover scenario (bounded error rate,
//! no hangs, disruption fields in the loadgen report), and typed refusal
//! of predict frames without a trace context.

use hkrr_core::{KrrConfig, SolverKind};
use hkrr_datasets::registry::LETTER;
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use hkrr_serve::client::Client;
use hkrr_serve::codec;
use hkrr_serve::engine::EngineConfig;
use hkrr_serve::loadgen::{self, LoadgenConfig};
use hkrr_serve::protocol::{self, Request, ROLE_MODEL, ROLE_ROUTER};
use hkrr_serve::router::{RouterConfig, RouterServer};
use hkrr_serve::server::{ModelSource, Server, ServerConfig};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn trained(k: usize, n: usize, seed: u64) -> (EnsembleKrr, hkrr_datasets::Dataset) {
    let ds = hkrr_datasets::generate(&LETTER, n, 24, seed);
    let cfg = EnsembleConfig {
        shards: k,
        route_nearest: 2.min(k),
        strategy: ShardStrategy::Cluster,
        base: KrrConfig {
            h: LETTER.default_h,
            lambda: LETTER.default_lambda,
            solver: SolverKind::Hss,
            ..KrrConfig::default()
        },
    };
    let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).expect("ensemble training");
    (ens, ds)
}

fn temp_model_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hkrr_distributed_{tag}_{}.hkrr",
        std::process::id()
    ))
}

/// One in-process (but real-TCP) shard server per replica of each shard.
fn spawn_fleet(path: &Path, shards: usize, replicas: usize) -> (Vec<Server>, Vec<Vec<String>>) {
    let mut servers = Vec::new();
    let mut groups = vec![Vec::new(); shards];
    for shard in 0..shards {
        for _ in 0..replicas {
            let server = Server::start_with_source(
                ModelSource::EnsembleShard {
                    path: path.to_path_buf(),
                    index: shard,
                },
                ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    engine: EngineConfig {
                        workers: 1,
                        ..EngineConfig::default()
                    },
                },
            )
            .expect("shard server start");
            groups[shard].push(server.local_addr().to_string());
            servers.push(server);
        }
    }
    (servers, groups)
}

fn router_over(path: &Path, groups: Vec<Vec<String>>, health_interval_ms: u64) -> RouterServer {
    let layout = codec::load_layout(path).expect("layout");
    RouterServer::start(
        layout.centroids,
        layout.route_nearest,
        groups,
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            route_nearest: None,
            health_interval: Duration::from_millis(health_interval_ms),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
        },
    )
    .expect("router start")
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

#[test]
fn routed_over_tcp_is_bitwise_identical_to_the_in_process_ensemble() {
    let (ens, ds) = trained(4, 240, 11);
    let path = temp_model_path("bitwise");
    codec::save_ensemble(&ens, &path).unwrap();

    let (servers, groups) = spawn_fleet(&path, 4, 1);
    let router = router_over(&path, groups, 100);
    let mut client = Client::connect(&router.local_addr().to_string()).unwrap();

    // Shard servers identify as models, the router as a router.
    let mut shard_client = Client::connect(&servers[0].local_addr().to_string()).unwrap();
    let shard_health = shard_client.health().unwrap();
    assert_eq!(shard_health.role, ROLE_MODEL);
    assert_eq!(client.health().unwrap().role, ROLE_ROUTER);

    // The acceptance pin: every routed-over-TCP score equals the
    // in-process ensemble's bitwise.
    let direct = ens.decision_values(&ds.test);
    for i in 0..ds.test.nrows() {
        let p = client.predict(ds.test.row(i).to_vec()).unwrap();
        assert_eq!(
            p.score, direct[i],
            "routed query {i} must be bitwise identical to the in-process ensemble"
        );
        // route_nearest = 2 shards answered each query.
        assert_eq!(p.batch_size, 2, "query {i} fan-out width");
    }
    assert_eq!(router.failovers(), 0);
    assert_eq!(router.degraded(), 0);

    // The prober's first sweep sums shard info into the router's `info`.
    assert!(
        wait_until(Duration::from_secs(5), || {
            let info = client.info().unwrap();
            (info.dim, info.n_train) == (16, 240)
        }),
        "router info must converge to (dim, total n_train)"
    );

    // Fleet-wide refresh through the router: every shard reloads from the
    // file; counters aggregate per shard.
    assert_eq!(client.refresh().unwrap(), (4, 240));

    // Router stats document parses and reports the topology.
    let stats = client.stats().unwrap();
    hkrr_bench::json::validate(&stats).unwrap();
    assert!(stats.contains("\"schema\":\"hkrr-router-stats/1\""));
    assert!(stats.contains("\"shards\":4"));

    router.shutdown();
    for s in &servers {
        s.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

/// A bare predict frame (`0x01` + `d × f64`, no trace context), as builds
/// before the one predict layout sent it, gets a status-1 reply from a
/// model server and from a router; the same connection then answers a
/// current-layout predict bitwise.
#[test]
fn bare_predict_frames_are_refused_and_the_connection_stays_usable() {
    let (ens, ds) = trained(2, 160, 5);
    let path = temp_model_path("bare_predict");
    codec::save_ensemble(&ens, &path).unwrap();
    let (servers, groups) = spawn_fleet(&path, 2, 1);
    let router = router_over(&path, groups, 100);

    let point = ds.test.row(0).to_vec();
    let mut bare = vec![protocol::OP_PREDICT];
    for v in &point {
        bare.extend_from_slice(&v.to_le_bytes());
    }
    let current = protocol::encode_request(&Request::Predict {
        point,
        trace_id: 0,
        parent_span: 0,
    });
    let targets = [
        (
            servers[0].local_addr(),
            ens.models()[0].decision_values(&ds.test)[0],
        ),
        (router.local_addr(), ens.decision_values(&ds.test)[0]),
    ];
    for (addr, expected) in targets {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&protocol::BINARY_HELLO).unwrap();
        protocol::write_frame(&mut stream, &bare).unwrap();
        let reply = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(
            reply[0],
            protocol::STATUS_ERR,
            "{addr}: a bare predict frame must be refused, got {:?}",
            String::from_utf8_lossy(&reply[1..])
        );
        protocol::write_frame(&mut stream, &current).unwrap();
        let reply = protocol::read_frame(&mut stream).unwrap();
        let body = protocol::decode_response(&reply).unwrap();
        let p = protocol::decode_prediction(body).unwrap();
        assert_eq!(p.score, expected, "{addr}: score after the refusal");
    }

    router.shutdown();
    for s in &servers {
        s.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn replication_spreads_load_and_the_prober_detects_dark_replicas() {
    let (ens, _) = trained(2, 200, 23);
    let path = temp_model_path("replicas");
    codec::save_ensemble(&ens, &path).unwrap();

    let (servers, groups) = spawn_fleet(&path, 2, 2);
    let router = router_over(&path, groups, 100);
    let addr = router.local_addr().to_string();

    // Concurrent load: with the per-replica connection serialized, the
    // least-loaded rule must route overlapping queries to both replicas.
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        requests: 200,
        concurrency: 8,
        seed: 7,
        traced: true,
    })
    .unwrap();
    assert_eq!(report.errors, 0, "healthy fleet must not error");
    let dispatched = router.replica_dispatched();
    // m = 2 of 2 shards: every query hits both shards once.
    for (shard, counts) in dispatched.iter().enumerate() {
        assert_eq!(
            counts.iter().sum::<u64>(),
            200,
            "shard {shard} must answer every query exactly once"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "least-loaded routing must spread shard {shard} across replicas, got {counts:?}"
        );
    }

    // Kill one replica of shard 0: the prober marks it dark, the other
    // replica keeps the shard fully available.
    servers[0].shutdown();
    assert!(
        wait_until(Duration::from_secs(5), || {
            let health = router.replica_health();
            !health[0][0] && health[0][1]
        }),
        "prober must mark the dead replica unhealthy and keep its sibling"
    );
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..8 {
        let p = client.predict(vec![0.1 * i as f64; 16]).unwrap();
        assert_eq!(p.batch_size, 2, "replicated shard stays fully available");
    }
    assert_eq!(router.degraded(), 0);

    router.shutdown();
    for s in &servers {
        s.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn killing_a_whole_shard_mid_run_keeps_the_service_available() {
    let (ens, _) = trained(4, 240, 37);
    let path = temp_model_path("failover");
    codec::save_ensemble(&ens, &path).unwrap();

    let (servers, groups) = spawn_fleet(&path, 4, 1);
    let router = router_over(&path, groups, 100);
    let addr = router.local_addr().to_string();

    // Hammer the router and kill shard 0's only server halfway through.
    // The run completing at all proves no hangs (client quotas run dry
    // under the router's I/O deadlines); the report's disruption section
    // carries the availability numbers.
    let victim = &servers[0];
    let report = loadgen::run_with_disruption(
        &LoadgenConfig {
            addr,
            requests: 200,
            concurrency: 4,
            seed: 99,
            traced: true,
        },
        100,
        || victim.shutdown(),
    )
    .unwrap();

    let d = report.disruption.as_ref().expect("disruption must fire");
    assert!(d.fired_at_request >= 100);
    assert!(d.requests_after > 0, "load must continue past the kill");
    // Queries routed at the dead shard fail over to the next-nearest
    // centroid's shard — answered, not errored. Allow the same 5% budget
    // the CLI dbench enforces.
    assert!(
        (d.errors_after as f64) <= 0.05 * d.requests_after as f64,
        "post-disruption error rate too high: {}/{}",
        d.errors_after,
        d.requests_after
    );

    // The JSON snapshot carries the new failover fields.
    let json = report
        .clone()
        .with_routing(loadgen::RoutingStats {
            failovers: router.failovers(),
            degraded: router.degraded(),
            exhausted: 0,
        })
        .to_json();
    hkrr_bench::json::validate(&json).unwrap();
    assert!(json.contains("\"disruption\""));
    assert!(json.contains("\"post_max_ms\""));
    assert!(json.contains("\"routing\""));

    // Queries that fell on the dead shard needed re-routing; with three
    // healthy shards left (> route_nearest = 2) every one of them could
    // still be answered at full fan-out width, so none is degraded.
    assert!(
        router.failovers() > 0,
        "killing a shard's only replica must trigger failover re-routing"
    );
    assert_eq!(router.degraded(), 0);

    router.shutdown();
    for s in &servers {
        s.shutdown();
    }
    std::fs::remove_file(&path).ok();
}
