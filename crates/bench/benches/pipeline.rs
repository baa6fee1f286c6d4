//! End-to-end pipeline benchmarks: world generation, dataset
//! construction, geolocation, the thread-scaling series for the
//! parallel dataset build, and per-stage wall-time records.
//!
//! The scaling series runs `GovDataset::build` at scale 0.3 for
//! 1/2/4/8 threads (best of three runs each; a single run in smoke
//! mode), records the per-stage timings from the widest run, times
//! one `BuildMetrics::measure` of its dataset, and asserts that
//! `export_csv` output is byte-identical across every thread count —
//! the determinism invariant the parallel build promises.

use govhost_core::dataset::{BuildOptions, GovDataset};
use govhost_core::export::export_csv;
use govhost_core::hosting::HostingAnalysis;
use govhost_core::metrics::BuildMetrics;
use govhost_geoloc::pipeline::{GeoTask, PipelineConfig};
use govhost_harness::bench::{black_box, Bench};
use govhost_harness::mem;
use govhost_types::CountryCode;
use govhost_web::Crawler;
use govhost_worldgen::{default_systems, run_year, GenParams, World};
use std::time::Instant;

/// Drain a crawl session from every landing page of every studied
/// country, on one thread and with nothing classified: the crawl alone.
/// Returns the pages rendered.
fn crawl_all(world: &World) -> usize {
    let crawler = Crawler::default();
    let mut pages = 0;
    for row in world.studied_countries() {
        let code = row.cc();
        let vantage = world.vantage(code).country;
        for landing_url in world.landing(code) {
            let mut session = crawler.session(&world.corpus, landing_url, Some(vantage));
            while let Some(visit) = session.next_page() {
                black_box(visit.page);
                pages += 1;
            }
        }
    }
    pages
}

fn main() {
    let mut b = Bench::new("pipeline");

    b.bench("pipeline/generate_world_tiny", || {
        black_box(World::generate(black_box(&GenParams::tiny())));
    });

    let world = World::generate(&GenParams::tiny());
    // The crawl bare and inside a collection scope, as every build runs
    // it: the difference is what telemetry costs the crawl (a `fetch`
    // and a `har` span per page).
    b.bench("pipeline/crawl", || {
        black_box(crawl_all(black_box(&world)));
    });
    b.bench("pipeline/crawl_collected", || {
        black_box(govhost_obs::collect(|| {
            let _crawl = govhost_obs::span!("crawl");
            crawl_all(black_box(&world))
        }));
    });
    b.bench("pipeline/dataset_build_tiny", || {
        black_box(GovDataset::build(black_box(&world), &BuildOptions::default()));
    });
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    b.bench("pipeline/hosting_analysis", || {
        black_box(HostingAnalysis::compute(black_box(&dataset)));
    });

    // Thread-scaling series. Scale 0.3 takes ~1-2 s per build in
    // release mode, so each point is recorded (best of 3) rather than
    // sampled 30 times; smoke mode shrinks to the tiny world and one
    // run per point.
    let (scaling_world, scale_label, runs) = if b.smoke() {
        (World::generate(&GenParams::tiny()), "tiny", 1usize)
    } else {
        (World::generate(&GenParams { scale: 0.3, ..Default::default() }), "scale03", 3usize)
    };
    let mut baseline_csv: Option<govhost_core::export::DatasetCsv> = None;
    let mut widest = None;
    for threads in [1usize, 2, 4, 8] {
        let options = BuildOptions { threads, ..Default::default() };
        let mut best = None;
        let mut built = None;
        for _ in 0..runs {
            let start = Instant::now();
            let ds = GovDataset::build(&scaling_world, &options);
            let elapsed = start.elapsed();
            if best.is_none_or(|b| elapsed < b) {
                best = Some(elapsed);
            }
            built = Some(ds);
        }
        let ds = built.expect("at least one run");
        b.record(
            &format!("pipeline/build_{scale_label}/threads_{threads}"),
            best.expect("at least one run"),
            Some(ds.hosts.len() as u64),
        );
        let csv = export_csv(&ds);
        match &baseline_csv {
            None => baseline_csv = Some(csv),
            Some(base) => {
                assert_eq!(base.hosts, csv.hosts, "hosts.csv must not depend on thread count");
                assert_eq!(base.urls, csv.urls, "urls.csv must not depend on thread count");
            }
        }
        widest = Some(ds);
    }
    // Per-stage wall time from the widest (8-thread) run. Stage nanos
    // are busy time summed across workers, so stage/elapsed ratios
    // estimate effective parallelism.
    let widest = widest.expect("scaling loop ran");
    for (name, stat) in widest.timings.stages() {
        b.record(
            &format!("pipeline/stage_{scale_label}/{name}"),
            stat.duration(),
            Some(stat.items),
        );
    }
    // Histogram summaries from the same run's telemetry capture
    // (page-weight and OLS-shape distributions). These are raw values,
    // not durations; the entry names carry the statistic.
    for (name, labels, h) in widest.telemetry.registry.histograms() {
        if h.count() == 0 || !labels.is_empty() {
            continue;
        }
        for (stat, value) in [
            ("p50", h.percentile(0.5)),
            ("p95", h.percentile(0.95)),
            ("max", h.max()),
        ] {
            b.record_value(
                &format!("pipeline/hist_{scale_label}/{name}/{stat}"),
                value as f64,
                Some(h.count()),
            );
        }
    }

    // One headline measurement of the same dataset: the reduction every
    // evolve year and every what-if scenario pays, folded by host.
    b.bench("pipeline/build_metrics_measure", || {
        black_box(BuildMetrics::measure(black_box(&widest)));
    });

    // ---- Longitudinal ticks: after each yearly tick, the dirty-set
    // incremental rebuild faces off against a full from-scratch build
    // of the same evolved world. The export bytes must match — the
    // wall-time ratio is the whole point of the incremental path. The
    // item count on each entry is the tick's dirty-country count.
    {
        let params = if b.smoke() {
            GenParams::tiny()
        } else {
            GenParams { scale: 0.3, ..Default::default() }
        };
        let mut world = World::generate(&params);
        let options = BuildOptions::default();
        let (_, _, mut cache) =
            GovDataset::build_cached(&world, &options).expect("seed build succeeds");
        let systems = default_systems();
        for year in 1..=3u32 {
            let report = run_year(&mut world, year, &systems);
            let dirty = report.dirty.len() as u64;
            let start = Instant::now();
            let (incremental, _) =
                GovDataset::rebuild_incremental(&world, &options, &mut cache, &report.dirty)
                    .expect("incremental rebuild succeeds");
            b.record(
                &format!("pipeline/evolve/tick_{year}/incremental"),
                start.elapsed(),
                Some(dirty),
            );
            let start = Instant::now();
            let full = GovDataset::build(&world, &options);
            b.record(&format!("pipeline/evolve/tick_{year}/full"), start.elapsed(), Some(dirty));
            let inc_csv = export_csv(&incremental);
            let full_csv = export_csv(&full);
            assert_eq!(inc_csv.hosts, full_csv.hosts, "tick {year}: incremental != full");
            assert_eq!(inc_csv.urls, full_csv.urls, "tick {year}: incremental != full");
        }
    }

    // ---- Scale sweep: per-stage wall time and peak RSS at 0.3/1/3/10
    // (only 0.3 in smoke mode). Every point is a single measured pass
    // (these builds take seconds to minutes; statistics come from the
    // per-stage item counts). Peak RSS brackets each pass with a
    // high-water-mark reset; when the kernel refuses the reset the
    // readings degrade to process-lifetime peaks and are recorded anyway.
    let sweep: &[(f64, &str)] = if b.smoke() {
        &[(0.3, "scale_0_3")]
    } else {
        &[(0.3, "scale_0_3"), (1.0, "scale_1"), (3.0, "scale_3"), (10.0, "scale_10")]
    };
    for &(scale, label) in sweep {
        let world = World::generate(&GenParams { scale, ..Default::default() });
        mem::reset_peak_rss();
        let start = Instant::now();
        let ds = GovDataset::build(&world, &BuildOptions::default());
        let wall = start.elapsed();
        let urls = ds.urls.len() as u64;
        b.record(&format!("pipeline/sweep/{label}/build_wall"), wall, Some(urls));
        if let Some(rss) = mem::peak_rss_bytes() {
            b.record_value(&format!("pipeline/sweep/{label}/build_peak_rss_bytes"), rss as f64, Some(urls));
        }
        for (name, stat) in ds.timings.stages() {
            b.record(
                &format!("pipeline/sweep/{label}/stage_{name}"),
                stat.duration(),
                Some(stat.items),
            );
        }
    }

    let vantage: CountryCode = "AR".parse().unwrap();
    let tasks: Vec<GeoTask> = world
        .registry
        .servers()
        .iter()
        .take(200)
        .map(|s| GeoTask { ip: s.ip, serving_country: vantage })
        .collect();
    let pipeline = world.geolocation(PipelineConfig::default());
    b.bench("pipeline/geolocate_200_addresses", || {
        black_box(pipeline.locate_all(black_box(&tasks)));
    });

    b.finish();
}
