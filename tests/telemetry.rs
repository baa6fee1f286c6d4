//! The observability determinism contract, pinned at integration level:
//! the telemetry files the pipeline exports — `trace.json` (span tree,
//! deterministic mode) and `metrics.json` (the registry) — must be
//! **byte-identical** for every `GOVHOST_THREADS` value. Timings vary
//! with scheduling; everything else in the capture is a pure function of
//! the world, and the deterministic export mode zeroes the nanoseconds,
//! so the bytes cannot be allowed to move.

use govhost::obs::export::{metrics_json, metrics_text, trace_json, TimeMode};
use govhost::prelude::*;

/// Build at `scale` with `threads` workers and export all three
/// telemetry documents — `trace.json`, `metrics.json`, and the
/// `/metrics` text exposition — in deterministic mode.
fn exports(world: &World, threads: usize) -> (String, String, String) {
    let ds = GovDataset::build(world, &BuildOptions { threads, ..Default::default() });
    (
        trace_json(&ds.telemetry, TimeMode::Deterministic),
        metrics_json(&ds.telemetry),
        metrics_text(&ds.telemetry, TimeMode::Deterministic),
    )
}

/// The acceptance invariant of the observability layer: at a realistic
/// scale, `trace.json`, `metrics.json`, and the text exposition are
/// byte-identical for 1, 2, and 4 build threads.
#[test]
fn telemetry_exports_are_byte_identical_across_thread_counts() {
    let world = World::generate(&GenParams { scale: 0.3, ..GenParams::default() });
    let (base_trace, base_metrics, base_text) = exports(&world, 1);
    for threads in [2, 4] {
        let (trace, metrics, text) = exports(&world, threads);
        assert_eq!(base_trace, trace, "trace.json differs at threads={threads}");
        assert_eq!(base_metrics, metrics, "metrics.json differs at threads={threads}");
        assert_eq!(base_text, text, "text exposition differs at threads={threads}");
    }
    assert!(base_text.contains("# TYPE"), "the exposition carries type metadata");
}

/// The deterministic exports are also stable across *runs* — two builds
/// of the same world produce the same bytes, so diffing telemetry files
/// between CI runs is meaningful.
#[test]
fn telemetry_exports_are_stable_across_runs() {
    let world = World::generate(&GenParams::tiny());
    let (t1, m1, x1) = exports(&world, 4);
    let (t2, m2, x2) = exports(&world, 4);
    assert_eq!(t1, t2);
    assert_eq!(m1, m2);
    assert_eq!(x1, x2);
}

/// The serving tier's own telemetry obeys the same contract: a fixed
/// request sequence answered through 1, 2, and 4 event-loop workers
/// yields a byte-identical deterministic `/metrics` exposition (the
/// `_ns` series are zeroed; counters and byte histograms are pure
/// functions of the sequence).
#[test]
fn serve_telemetry_is_byte_identical_across_worker_counts() {
    use govhost::serve::{MemConn, Pool, PoolConfig, ServeState};
    use std::sync::Arc;
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let snapshot_at = |workers: usize| -> String {
        let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
        let pool = Pool::start_with(Arc::clone(&state), workers, PoolConfig::default());
        for route in ["/healthz", "/countries", "/hhi", "/nope"] {
            let raw = format!("GET {route} HTTP/1.1\r\nConnection: close\r\n\r\n");
            let (conn, rx) = MemConn::scripted(raw.into_bytes());
            assert!(pool.submit(Box::new(conn)), "pool accepts while running");
            rx.recv().expect("connection was served");
        }
        pool.shutdown();
        metrics_text(&state.telemetry_snapshot(), TimeMode::Deterministic)
    };
    let base = snapshot_at(1);
    for workers in [2, 4] {
        let got = snapshot_at(workers);
        assert_eq!(base, got, "serve telemetry differs at workers={workers}");
    }
    assert!(base.contains("http_requests{route=\"/hhi\"} 1"), "{base}");
    assert!(base.contains("http_shed 0"), "{base}");
}

/// The capture actually contains the pipeline: the documented span names
/// and counter series all appear, with counts consistent with the
/// dataset they describe.
#[test]
fn capture_covers_every_pipeline_stage() {
    let world = World::generate(&GenParams::tiny());
    let ds = GovDataset::build(&world, &BuildOptions::default());
    let t = &ds.telemetry;
    for span in ["build", "country", "crawl", "classify", "identify", "geolocate", "locate"] {
        assert!(t.span_count(span) > 0, "span {span:?} missing from the capture");
    }
    for counter in [
        "crawl.pages",
        "classify.urls_examined",
        "identify.hosts",
        "dns.queries",
        "geoloc.tasks",
        "analyze.hosts",
    ] {
        assert!(
            t.registry.counter_total(counter) > 0,
            "counter {counter:?} missing from the capture"
        );
    }
    assert_eq!(t.registry.counter_total("analyze.hosts"), ds.hosts.len() as u64);
    assert_eq!(t.span_count("locate"), t.registry.counter_total("geoloc.tasks"));
    let trace = trace_json(t, TimeMode::Deterministic);
    assert!(trace.contains("\"busy_ns\": 0"), "deterministic mode zeroes time");
    assert!(!metrics_json(t).contains("busy_ns"), "metrics carry no span timings");
}

/// Verbose mode is the profiling escape hatch: it keeps the real
/// nanoseconds, so its bytes are *not* expected to be stable — but the
/// structure must match the deterministic export exactly.
#[test]
fn verbose_export_differs_only_in_nanoseconds() {
    let world = World::generate(&GenParams::tiny());
    let ds = GovDataset::build(&world, &BuildOptions::default());
    let det = trace_json(&ds.telemetry, TimeMode::Deterministic);
    let verbose = trace_json(&ds.telemetry, TimeMode::Verbose);
    assert!(verbose.contains("\"mode\": \"verbose\""));
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains("\"busy_ns\"") && !l.contains("\"self_ns\"") && !l.contains("\"mode\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&det), strip(&verbose), "structure must not depend on the mode");
}
