//! Benchmarks for the what-if engine: how much a scenario costs on top
//! of a built dataset. Results land in `BENCH_scenario.json`.
//!
//! The headline series is **incremental vs full**: a provider outage
//! dirties a subset of countries, and the scenario path answers through
//! [`GovDataset::rebuild_incremental`] over that subset instead of
//! rebuilding the world. Both rebuilds run on the same shocked world
//! and must agree on the dataset dimensions — the root
//! `tests/scenario.rs` suite pins full byte-identity; here the wall
//! times are the point. The diff/insight reduction is timed separately
//! to show the comparison layer costs microseconds, never a rebuild.
//! `run_file_5` times `run_file` end to end over the five scenarios of
//! `examples/what-if.scn`: one shared baseline plus five incremental
//! rebuilds, the cost of asking N questions of one world.
//!
//! Full mode measures scales 0.3 and 1.0; smoke mode shrinks to the
//! tiny world, never dropping a series.

use govhost_core::prelude::*;
use govhost_harness::bench::{black_box, Bench};
use govhost_scenario::{diff, insights_for, parse, run_file, BuildMetrics, InsightContext};
use govhost_worldgen::prelude::*;
use govhost_worldgen::{provider_by_asn, shock};
use std::time::Instant;

/// The worked scenario file the `run_file_5` series evaluates.
const WHAT_IF: &str = include_str!("../../../examples/what-if.scn");

fn main() {
    let mut b = Bench::new("scenario");
    let configs: Vec<(&str, GenParams)> = if b.smoke() {
        vec![("tiny", GenParams::tiny())]
    } else {
        vec![
            ("scale03", GenParams { scale: 0.3, seed: 42, ..GenParams::default() }),
            ("scale1", GenParams { scale: 1.0, seed: 42, ..GenParams::default() }),
        ]
    };
    let provider = provider_by_asn(16509).expect("AS16509 is on the Fig. 10 roster");
    let options = BuildOptions::default();
    let what_if = parse(WHAT_IF).expect("examples/what-if.scn parses");
    assert_eq!(what_if.scenarios.len(), 5, "run_file_5 times five scenarios");
    for (label, params) in configs {
        let started = Instant::now();
        let runs = run_file(&params, &what_if, &options).expect("the example scenarios run");
        b.record(
            &format!("scenario/{label}/run_file_5"),
            started.elapsed(),
            Some(runs.len() as u64),
        );
        // Free its ten datasets before the per-stage series build theirs.
        drop(runs);

        let mut world = World::generate(&params);
        let started = Instant::now();
        let (baseline, _report, mut cache) =
            GovDataset::build_cached(&world, &options).expect("baseline build");
        b.record(
            &format!("scenario/{label}/baseline_build"),
            started.elapsed(),
            Some(baseline.urls.len() as u64),
        );

        let started = Instant::now();
        let report = shock::provider_outage(&mut world, provider);
        b.record(
            &format!("scenario/{label}/shock_apply"),
            started.elapsed(),
            Some(report.darkened.len() as u64),
        );

        let started = Instant::now();
        let (shocked, _r) =
            GovDataset::rebuild_incremental(&world, &options, &mut cache, &report.dirty)
                .expect("incremental rebuild");
        let incremental = started.elapsed();
        b.record(
            &format!("scenario/{label}/rebuild_incremental"),
            incremental,
            Some(report.dirty.len() as u64),
        );

        let started = Instant::now();
        let (full, _r) = GovDataset::try_build(&world, &options).expect("full rebuild");
        let full_elapsed = started.elapsed();
        b.record(
            &format!("scenario/{label}/rebuild_full"),
            full_elapsed,
            Some(full.urls.len() as u64),
        );
        assert_eq!(
            (shocked.urls.len(), shocked.hosts.len()),
            (full.urls.len(), full.hosts.len()),
            "incremental and full rebuilds agree on dataset dimensions"
        );

        let started = Instant::now();
        let a = BuildMetrics::measure(&baseline);
        let z = BuildMetrics::measure(&shocked);
        let d = diff(&a, &z);
        let insights = insights_for(&d, &InsightContext::default());
        b.record(
            &format!("scenario/{label}/diff_and_insights"),
            started.elapsed(),
            Some(d.countries.len() as u64),
        );
        black_box(insights.len());
        println!(
            "  {label}: {} hosts darkened, {} countries dirty, incremental {:.1}ms vs full {:.1}ms",
            report.darkened.len(),
            report.dirty.len(),
            incremental.as_secs_f64() * 1e3,
            full_elapsed.as_secs_f64() * 1e3,
        );
    }
    b.finish();
}
