//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! geolocation stages on/off, crawl depth, and per-country vs global
//! latency thresholds.

use govhost_core::dataset::BuildOptions;
use govhost_geoloc::pipeline::{GeoTask, PipelineConfig};
use govhost_geoloc::CountryThresholds;
use govhost_harness::bench::{black_box, Bench};
use govhost_types::CountryCode;
use govhost_web::crawler::Crawler;
use govhost_worldgen::{GenParams, World};

fn main() {
    let mut b = Bench::new("ablations");

    let world = World::generate(&GenParams::tiny());
    let vantage: CountryCode = "AR".parse().unwrap();
    let tasks: Vec<GeoTask> = world
        .registry
        .servers()
        .iter()
        .take(150)
        .map(|s| GeoTask { ip: s.ip, serving_country: vantage })
        .collect();
    let base = PipelineConfig::default();
    for (name, config) in [
        ("full", base),
        ("no_active_probing", PipelineConfig { use_active_probing: false, ..base }),
        ("no_hoiho", PipelineConfig { use_hoiho: false, ..base }),
        ("no_ipmap", PipelineConfig { use_ipmap: false, ..base }),
        ("no_single_radius", PipelineConfig { use_single_radius: false, ..base }),
        (
            "db_only",
            PipelineConfig {
                use_active_probing: false,
                use_hoiho: false,
                use_ipmap: false,
                use_single_radius: false,
                ..base
            },
        ),
    ] {
        let pipeline = world.geolocation(config);
        b.bench(&format!("ablation/geoloc_stages/{name}"), || {
            black_box(pipeline.locate_all(black_box(&tasks)));
        });
    }

    for depth in [1u32, 3, 7] {
        b.bench(&format!("ablation/crawl_depth/depth_{depth}"), || {
            black_box(govhost_core::dataset::GovDataset::build(
                &world,
                &BuildOptions { crawler: Crawler::with_depth(depth), ..Default::default() },
            ));
        });
    }

    // Per-country road-distance thresholds vs a single global threshold:
    // same verification work, different tables — the cost is identical,
    // so the interesting output is the accuracy delta, which the `repro`
    // harness and EXPERIMENTS.md report. Here we confirm lookup costs.
    let per_country = &world.thresholds;
    let flat = CountryThresholds::from_intercity_distances(std::iter::empty());
    let countries: Vec<CountryCode> =
        govhost_worldgen::countries::COUNTRIES.iter().map(|r| r.cc()).collect();
    b.bench("ablation/thresholds/per_country", || {
        black_box(
            countries
                .iter()
                .map(|cc| per_country.threshold_ms(*cc, &world.latency))
                .sum::<f64>(),
        );
    });
    b.bench("ablation/thresholds/global_fallback", || {
        black_box(
            countries.iter().map(|cc| flat.threshold_ms(*cc, &world.latency)).sum::<f64>(),
        );
    });

    b.finish();
}
