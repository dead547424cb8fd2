//! The repository's benchmark. One workload per process:
//!
//! ```text
//! perfbench --workload <train-hssh|train-pcg|serve-fleet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! It prints an environment record, every metric by name and unit, the
//! output checks, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. It exits non-zero when an output check fails.

mod data;
mod ops;
mod rss;
mod serve;
mod spans;
mod stats;
mod train;
mod workload;

use std::path::{Path, PathBuf};
use workload::{Metric, Outcome, WORKLOADS};

/// Settings that change what the library computes or how it reports; a
/// result taken with any of them set would not compare with the others.
const REFUSED_ENV: [&str; 5] = [
    "HKRR_FACTOR_PRECISION",
    "HKRR_DENSE_BACKEND",
    "HKRR_BENCH_SCALE",
    "HKRR_TRACE",
    "HKRR_LOG",
];

/// Where spans and scratch model files go, relative to the directory the
/// benchmark runs in (the repository root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, read from `.git` in the working directory (the
/// benchmark starts no processes and reads nothing outside its checkout).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the library and benchmark sources (paths and contents, in
/// sorted order): identifies the code measured when the checkout carries
/// no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    for d in ["src", "crates", "perfbench/src"] {
        walk(Path::new(d), &mut files);
    }
    files.push(PathBuf::from("perfbench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x} ({} files)", files.len())
}

/// CPU time the hypervisor gave to other guests, summed over this host's
/// CPUs, in seconds (USER_HZ = 100); 0 where `/proc/stat` is missing. The
/// timings report what it disturbed least (`stats::least_disturbed`,
/// `serve::calm_windows`).
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            cpu.get(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |jiffies| jiffies / 100.0)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line. Written by hand rather than with
/// `hkrr_bench::json::JsonWriter`, which rounds floats to six decimals:
/// each value here keeps every digit it was measured with.
fn json_line(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            format!(
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train-hssh|train-pcg|serve-fleet> --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let refused: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: results would not compare",
            refused.join(", ")
        );
        std::process::exit(2);
    }
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };

    println!(
        "environment: dense_backend={} available_parallelism={} seed={} git_revision={} source_digest={}",
        hkrr_linalg::dense_backend().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
        git_revision(),
        source_digest()
    );
    println!(
        "workload {}: {}; serve phase {} s, trace {}",
        workload.name,
        workload.describe(),
        args.seconds,
        u8::from(args.trace)
    );

    let scratch = Path::new(OUT_DIR).join(format!("tmp-{}-{}", workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    rss::pin_allocator();
    let rec = spans::Recorder::new(args.trace);
    let (steal_before, started) = (steal_seconds(), std::time::Instant::now());
    let result = workload::run(workload, args.seed, args.seconds, &scratch, &rec);
    let steal = steal_seconds() - steal_before;
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name);
            std::process::exit(1);
        }
    };

    print_metrics("end-to-end (serve and fit untraced):", &outcome.end_to_end);
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  host steal {steal:.2} CPU-s over the run's {:.1} s",
        started.elapsed().as_secs_f64()
    );
    println!("checks:");
    for c in &outcome.checks {
        println!(
            "  {} {} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let metrics = if args.trace {
        print_metrics("per-layer (traced run):", &outcome.layers);
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", workload.name, args.seed));
        match rec.write_json(&path) {
            Ok(n) => println!("spans: {} ({n} spans)", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    println!("{}", json_line(&outcome, metrics));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
