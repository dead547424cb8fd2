//! Event log end to end: events emitted from several threads land as one
//! valid JSON object per line, below-threshold levels are filtered at the
//! emit site, and nothing is silently lost — every emitted event either
//! reaches the file or is counted by `dropped_events`.
//!
//! One test function only — the sink is process-global and can be
//! installed once per process, which is exactly the production contract
//! (the overflow and disabled paths live in their own test binaries).

use hkrr_telemetry::log::{self, Level};
use std::collections::HashSet;

#[test]
fn concurrent_emitters_write_valid_json_lines() {
    let path = std::env::temp_dir().join(format!("hkrr_event_log_{}.jsonl", std::process::id()));
    assert!(
        log::init_with_path(&path).unwrap(),
        "sink must install into a fresh process"
    );
    assert!(log::enabled());

    const THREADS: usize = 4;
    const PER_THREAD: usize = 64;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    log::event(Level::Info, "test.request")
                        .trace((t * PER_THREAD + i) as u128 + 1)
                        .field("outcome", "ok")
                        .num("latency_us", 100 + i)
                        .emit();
                }
            });
        }
    });
    // Below the default info threshold: filtered before formatting.
    log::event(Level::Debug, "test.invisible")
        .field("k", "v")
        .emit();
    log::flush();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The never-blocks contract: emitted = written + explicitly dropped.
    assert_eq!(
        lines.len() as u64 + log::dropped_events(),
        (THREADS * PER_THREAD) as u64,
        "every event must be written or counted as dropped"
    );
    assert!(
        !text.contains("test.invisible"),
        "debug filtered by default"
    );
    // A `try_lock` only loses to an emitter that holds the ring, so some
    // events are always written; which ones is up to the scheduler.
    assert!(!lines.is_empty(), "no event was written");
    let mut trace_ids = HashSet::new();
    for line in &lines {
        hkrr_bench::json::validate(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        for field in [
            "\"ts_us\":",
            "\"level\":\"info\"",
            "\"event\":\"test.request\"",
            "\"pid\":",
            "\"trace_id\":\"",
            "\"outcome\":\"ok\"",
            "\"latency_us\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
        // Trace ids render as the full 32 hex digits, joinable against the
        // span timeline's args.
        let hex = line
            .split("\"trace_id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("no trace id in {line}"));
        let id = u128::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("{hex}: {e}"));
        assert_eq!(hex, format!("{id:032x}"), "trace id rendering in {line}");
        assert!(
            (1..=(THREADS * PER_THREAD) as u128).contains(&id),
            "trace id {id} was never emitted"
        );
        assert!(trace_ids.insert(id), "trace id {id} written twice");
    }

    // A second init is refused but harmless.
    assert!(!log::init_with_path(&path).unwrap());
    std::fs::remove_file(&path).ok();
}
