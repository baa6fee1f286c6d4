//! The what-if engine's determinism and acceptance contract, pinned at
//! integration level:
//!
//! * a scenario with **no shocks** rebuilds to the exact bytes of the
//!   baseline export, at every build thread count — applying nothing
//!   changes nothing;
//! * `diff(m, m)` is all-zero with every row a tie and **zero**
//!   insights — the comparison layer never invents a finding;
//! * a provider outage reports per-country dark fractions that include
//!   the shared-NS cascade: some country is dark *only* because its
//!   nameservers died with the provider (NS-only exposure), and that
//!   exposure is bounded by the country's total dark share;
//! * the `/scenario/{name}` and `/scenario/{name}/diff` responses are
//!   byte-identical whether the runs were built with 1, 2, or 4
//!   threads;
//! * `run_file`, which builds one baseline and forks it per scenario,
//!   produces the same run for every scenario as an independent
//!   `run_scenario` with its own baseline;
//! * shocks rewrite DNS, never web content, so no shocked rebuild
//!   crawls a page or classifies a URL.

use govhost::obs::TimeMode;
use govhost::prelude::*;
use govhost::core::export::export_csv;
use govhost::scenario::{
    diff, insights_for, parse, run_file, run_scenario, BuildMetrics, InsightContext,
    ScenarioRun, Winner,
};
use govhost::serve::{MemConn, Pool, PoolConfig, ScenarioIndex, ServeState};
use std::sync::Arc;

fn options(threads: usize) -> BuildOptions {
    BuildOptions { threads, ..BuildOptions::default() }
}

#[test]
fn empty_scenario_rebuilds_byte_identical_to_baseline() {
    let params = GenParams::tiny();
    let file = parse("scenario noop\n").expect("a shockless scenario parses");
    let base = run_scenario(&params, &file.scenarios[0], &options(1)).expect("runs");
    assert!(base.events.is_empty(), "no shocks, no events");
    assert!(base.dirty.is_empty(), "no shocks, no dirty countries");
    assert!(base.darkened.is_empty(), "no shocks, no darkened hosts");
    let baseline_csv = export_csv(&base.baseline);
    let shocked_csv = export_csv(&base.shocked);
    assert_eq!(baseline_csv.hosts, shocked_csv.hosts, "hosts export unchanged");
    assert_eq!(baseline_csv.urls, shocked_csv.urls, "urls export unchanged");
    for threads in [2usize, 4] {
        let run = run_scenario(&params, &file.scenarios[0], &options(threads)).expect("runs");
        let csv = export_csv(&run.shocked);
        assert_eq!(csv.hosts, shocked_csv.hosts, "threads={threads}");
        assert_eq!(csv.urls, shocked_csv.urls, "threads={threads}");
    }
}

#[test]
fn self_diff_is_all_zero_ties_with_zero_insights() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let m = BuildMetrics::measure(&dataset);
    let d = diff(&m, &m);
    assert!(!d.global.is_empty(), "global rows exist");
    assert!(!d.countries.is_empty(), "country rows exist");
    let rows = d.global.iter().chain(d.countries.iter().flat_map(|c| c.rows.iter()));
    for r in rows {
        assert_eq!(r.delta, 0.0, "zero delta: {}", r.label);
        assert_eq!(r.diff_pct, 0.0, "zero diff%: {}", r.label);
        assert_eq!(r.winner, Winner::Tie, "every row ties: {}", r.label);
    }
    assert!(
        insights_for(&d, &InsightContext::default()).is_empty(),
        "a self-diff yields no insights"
    );
}

/// The managed-DNS operators the generator hangs authoritative NS
/// records under; one of them must exhibit the shared-NS cascade even
/// at tiny scale.
const DNS_OPERATORS: [u32; 3] = [13335, 16509, 8075];

#[test]
fn provider_outage_reports_ns_only_cascade_dark_fractions() {
    let params = GenParams::tiny();
    let mut cascade_seen = false;
    for asn in DNS_OPERATORS {
        let file = parse(&format!("scenario s\noutage provider AS{asn}\n")).expect("parses");
        let run = run_scenario(&params, &file.scenarios[0], &options(1)).expect("runs");
        for (cc, ns_only) in &run.ns_only_percent {
            if *ns_only <= 0.0 {
                continue;
            }
            cascade_seen = true;
            let dark = run
                .shocked_metrics
                .countries
                .get(cc)
                .expect("darkened country is measured")
                .dark_percent;
            assert!(dark > 0.0, "NS-only exposure implies a nonzero dark fraction: {cc}");
            assert!(
                dark + 1e-9 >= *ns_only,
                "NS-only share is part of the dark share: {cc} ({ns_only} vs {dark})"
            );
        }
    }
    assert!(cascade_seen, "some operator outage must show NS-only exposure at tiny scale");
}

/// Serve the two scenario routes for every run through a one-worker
/// pool over in-process connections and return the raw response bytes.
fn scenario_responses(runs: &[ScenarioRun]) -> Vec<Vec<u8>> {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let index = ScenarioIndex::build(runs);
    let state = ServeState::with_mode(&dataset, TimeMode::Deterministic).with_scenarios(index);
    let pool = Pool::start_with(Arc::new(state), 1, PoolConfig::default());
    let mut out = Vec::new();
    for run in runs {
        for route in [format!("/scenario/{}", run.name), format!("/scenario/{}/diff", run.name)]
        {
            let raw = format!("GET {route} HTTP/1.1\r\nConnection: close\r\n\r\n");
            let (conn, rx) = MemConn::scripted(raw.into_bytes());
            assert!(pool.submit(Box::new(conn)), "pool accepts while running");
            let response = rx.recv().expect("serves");
            assert!(response.starts_with(b"HTTP/1.1 200 OK"), "{route} answers 200");
            out.push(response);
        }
    }
    pool.shutdown();
    out
}

#[test]
fn scenario_routes_are_byte_identical_across_build_thread_counts() {
    let params = GenParams::tiny();
    let file = parse(
        "scenario quake\noutage provider AS13335\n\nscenario shore\nonshore *\n",
    )
    .expect("parses");
    let base_runs = run_file(&params, &file, &options(1)).expect("runs");
    let base = scenario_responses(&base_runs);
    assert_eq!(base.len(), 4, "two scenarios, two routes each");
    for threads in [2usize, 4] {
        let runs = run_file(&params, &file, &options(threads)).expect("runs");
        let other = scenario_responses(&runs);
        assert_eq!(base, other, "scenario response bytes pinned at threads={threads}");
    }
}

#[test]
fn run_file_matches_independent_run_scenario() {
    let params = GenParams::tiny();
    let file = parse(include_str!("../examples/what-if.scn")).expect("the example file parses");
    assert_eq!(file.scenarios.len(), 5);
    for threads in [1usize, 2] {
        let runs = run_file(&params, &file, &options(threads)).expect("runs");
        assert_eq!(runs.len(), file.scenarios.len());
        for (shared, scenario) in runs.iter().zip(&file.scenarios) {
            let alone = run_scenario(&params, scenario, &options(threads)).expect("runs");
            let at = format!("{} at threads={threads}", scenario.name);
            for run in [shared, &alone] {
                assert_eq!(run.shocked.timings.crawl.items, 0, "pages crawled: {at}");
                assert_eq!(run.shocked.timings.classify.items, 0, "URLs classified: {at}");
            }
            for (a, b) in [(&shared.baseline, &alone.baseline), (&shared.shocked, &alone.shocked)] {
                let (a, b) = (export_csv(a), export_csv(b));
                assert_eq!(a.hosts, b.hosts, "hosts export: {at}");
                assert_eq!(a.urls, b.urls, "urls export: {at}");
                assert_eq!(a.meta, b.meta, "meta export: {at}");
            }
            assert_eq!(shared.name, alone.name, "{at}");
            assert_eq!(shared.baseline_metrics, alone.baseline_metrics, "{at}");
            assert_eq!(shared.shocked_metrics, alone.shocked_metrics, "{at}");
            assert_eq!(shared.dirty, alone.dirty, "{at}");
            assert_eq!(shared.darkened, alone.darkened, "{at}");
            assert_eq!(shared.events, alone.events, "{at}");
            assert_eq!(shared.outages, alone.outages, "{at}");
            assert_eq!(shared.ns_only_percent, alone.ns_only_percent, "{at}");
            assert_eq!(shared.insights(), alone.insights(), "{at}");
        }
    }
}
