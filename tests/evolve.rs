//! Longitudinal determinism: the yearly tick is a pure function of
//! `(world, year, seed)`, the evolved timeline is bit-identical at any
//! build thread count, and the incremental dirty-set rebuild exports
//! the same bytes as a from-scratch build of the same evolved world.
//!
//! The scale-0.3 pins are `#[ignore]`d for the default (debug) run and
//! executed by `ci.sh`'s release pass with `--include-ignored`.

use govhost::core::export::export_csv;
use govhost::prelude::*;
use govhost::worldgen::{default_systems, run_year};
use std::collections::BTreeSet;

fn options(threads: usize) -> BuildOptions {
    BuildOptions { threads, ..BuildOptions::default() }
}

#[test]
fn same_seed_ticks_are_bit_identical() {
    let params = GenParams::tiny();
    let systems = default_systems();
    let mut a = World::generate(&params);
    let mut b = World::generate(&params);
    for year in 1..=5 {
        let ra = run_year(&mut a, year, &systems);
        let rb = run_year(&mut b, year, &systems);
        assert_eq!(ra, rb, "year {year} tick reports diverge under the same seed");
        assert!(!ra.dirty.is_empty() || ra.events.is_empty(), "events imply dirty countries");
    }
    // The mutated worlds build to identical datasets as well.
    let da = GovDataset::build(&a, &options(1));
    let db = GovDataset::build(&b, &options(1));
    assert_eq!(export_csv(&da).hosts, export_csv(&db).hosts);
    assert_eq!(export_csv(&da).urls, export_csv(&db).urls);
}

#[test]
fn ten_year_timeline_is_identical_across_thread_counts() {
    let params = GenParams::tiny();
    let mut base_world = World::generate(&params);
    let base = govhost::core::evolve::evolve_with_systems(
        &mut base_world,
        10,
        &options(1),
        &default_systems(),
    )
    .expect("tiny world evolves");
    assert_eq!(base.timeline.years.len(), 11, "year 0 plus ten ticks");
    let base_csv = export_csv(&base.dataset);
    for threads in [2, 4] {
        let mut world = World::generate(&params);
        let other = govhost::core::evolve::evolve_with_systems(
            &mut world,
            10,
            &options(threads),
            &default_systems(),
        )
        .expect("tiny world evolves");
        assert_eq!(base.timeline, other.timeline, "threads={threads}");
        let csv = export_csv(&other.dataset);
        assert_eq!(base_csv.hosts, csv.hosts, "threads={threads}");
        assert_eq!(base_csv.urls, csv.urls, "threads={threads}");
        for (t1, t2) in base.ticks.iter().zip(&other.ticks) {
            assert_eq!(t1.events, t2.events, "threads={threads} year {}", t1.year);
        }
    }
}

/// The (address, serving country) pairs §3.5 validates for a dataset.
fn geo_pairs(dataset: &GovDataset) -> BTreeSet<(std::net::Ipv4Addr, CountryCode)> {
    dataset.hosts.iter().filter_map(|h| h.ip.map(|ip| (ip, h.country))).collect()
}

/// The dataset's hosts that a re-point of `repointed` can reach: each
/// re-pointed host, and each host whose alias chain runs through the
/// zone of one (its CNAME dependents).
fn reach_of_repoints(world: &World, dataset: &GovDataset, repointed: &BTreeSet<String>) -> u64 {
    let moved = |name: &govhost::dns::DnsName| {
        world
            .resolver
            .zone_for(name)
            .is_some_and(|zone| repointed.contains(&zone.zone().origin().to_string()))
    };
    let reached = dataset.hosts.iter().filter(|h| {
        repointed.contains(h.hostname.as_str())
            || world
                .resolver
                .resolve_host(&h.hostname, Some(world.vantage(h.country).country))
                .is_ok_and(|answer| answer.chain.iter().any(moved))
    });
    reached.count() as u64
}

/// Run `years` ticks over one world, rebuilding incrementally after
/// each, and assert the export bytes match a from-scratch build of the
/// same evolved world every single year — also when a clone of the
/// cache is rebuilt with an empty dirty set, since the cache checks
/// every record itself. Ticks never touch the web
/// corpus, so every rebuild must also re-run §3.4 identify alone: no
/// page crawled, no URL classified. Identify re-resolves at most the
/// hosts the year's events re-pointed, plus their CNAME dependents. Nor
/// do ticks touch a geolocation surface or reverse DNS, so §3.5 locates
/// exactly the year's pairs that the previous year's dataset did not
/// have.
fn assert_incremental_matches_full(params: &GenParams, years: u32, threads: usize) {
    let options = options(threads);
    let mut world = World::generate(params);
    let (mut previous, _, mut cache) =
        GovDataset::build_cached(&world, &options).expect("seed build succeeds");
    let systems = default_systems();
    for year in 1..=years {
        let before = world.clone();
        let report = run_year(&mut world, year, &systems);
        // Each event reads "system: CC host -> destination".
        let repointed: BTreeSet<String> = report
            .events
            .iter()
            .filter_map(|event| event.split_whitespace().nth(2).map(str::to_string))
            .collect();
        let reach = reach_of_repoints(&before, &previous, &repointed);
        let mut untold = cache.clone();
        let (incremental, _) =
            GovDataset::rebuild_incremental(&world, &options, &mut cache, &report.dirty)
                .expect("incremental rebuild succeeds");
        let work = incremental.timings;
        assert_eq!(work.crawl.items, 0, "year {year}: a tick rebuild crawled pages");
        assert_eq!(work.classify.items, 0, "year {year}: a tick rebuild classified URLs");
        assert!(
            work.identify.items == reach,
            "year {year}: identified {} hosts, but the events reach only {reach}",
            work.identify.items
        );
        let seen = geo_pairs(&previous);
        let new_pairs = geo_pairs(&incremental).difference(&seen).count();
        assert_eq!(
            work.geolocate.items, new_pairs as u64,
            "year {year}: a tick rebuild located pairs other than the year's new ones"
        );
        let full = GovDataset::build(&world, &options);
        let inc_csv = export_csv(&incremental);
        let full_csv = export_csv(&full);
        assert_eq!(
            inc_csv.hosts, full_csv.hosts,
            "year {year}: hosts.csv diverges ({} dirty countries)",
            report.dirty.len()
        );
        assert_eq!(
            inc_csv.urls, full_csv.urls,
            "year {year}: urls.csv diverges ({} dirty countries)",
            report.dirty.len()
        );
        let (unreported, _) =
            GovDataset::rebuild_incremental(&world, &options, &mut untold, &BTreeSet::new())
                .expect("a rebuild with an empty dirty set succeeds");
        let unreported_csv = export_csv(&unreported);
        assert_eq!(unreported_csv.hosts, full_csv.hosts, "year {year}: hosts.csv, nothing dirty");
        assert_eq!(unreported_csv.urls, full_csv.urls, "year {year}: urls.csv, nothing dirty");
        previous = incremental;
    }
}

#[test]
fn incremental_rebuild_matches_full_build_bytes() {
    assert_incremental_matches_full(&GenParams::tiny(), 4, 1);
}

#[test]
fn empty_dirty_set_replays_the_cache_exactly() {
    let world = World::generate(&GenParams::tiny());
    let options = options(1);
    let (dataset, _, mut cache) =
        GovDataset::build_cached(&world, &options).expect("seed build succeeds");
    let (replayed, _) =
        GovDataset::rebuild_incremental(&world, &options, &mut cache, &BTreeSet::new())
            .expect("replay succeeds");
    assert_eq!(export_csv(&dataset).hosts, export_csv(&replayed).hosts);
    assert_eq!(export_csv(&dataset).urls, export_csv(&replayed).urls);
    assert_eq!(replayed.timings.geolocate.items, 0, "every verdict replays from the cache");
    assert_eq!(replayed.validation, dataset.validation);
}

/// A full build is an incremental rebuild from an empty cache with an
/// empty dirty set: every contributing country is missing from the
/// cache, so every one recomputes. The report, every export file and
/// the deterministic telemetry documents must all agree.
#[test]
fn full_build_is_an_empty_cache_rebuild() {
    use govhost::core::BuildCache;
    use govhost::obs::export::{metrics_json, trace_json};
    use govhost::obs::TimeMode;

    let world = World::generate(&GenParams::tiny());
    for threads in [1, 2] {
        let options = options(threads);
        let (full, full_report) = GovDataset::try_build(&world, &options).expect("clean build");
        let mut cache = BuildCache::default();
        let (rebuilt, rebuilt_report) =
            GovDataset::rebuild_incremental(&world, &options, &mut cache, &BTreeSet::new())
                .expect("empty-cache rebuild");
        assert_eq!(full_report, rebuilt_report, "threads={threads}: report");
        let full_csv = export_csv_full(&full, Some(&full_report));
        let rebuilt_csv = export_csv_full(&rebuilt, Some(&rebuilt_report));
        assert_eq!(full_csv.hosts, rebuilt_csv.hosts, "threads={threads}: hosts.csv");
        assert_eq!(full_csv.urls, rebuilt_csv.urls, "threads={threads}: urls.csv");
        assert_eq!(full_csv.meta, rebuilt_csv.meta, "threads={threads}: meta.csv");
        assert_eq!(
            metrics_json(&full.telemetry),
            metrics_json(&rebuilt.telemetry),
            "threads={threads}: metrics.json"
        );
        assert_eq!(
            trace_json(&full.telemetry, TimeMode::Deterministic),
            trace_json(&rebuilt.telemetry, TimeMode::Deterministic),
            "threads={threads}: trace.json"
        );
        assert_eq!(full.timings.item_counts(), rebuilt.timings.item_counts());
        let mut cached = cache.countries();
        cached.sort();
        assert_eq!(cached, full.countries(), "threads={threads}: cached countries");
    }
}

// Release-only pins at the paper's working scale, run by ci.sh with
// `--include-ignored`: too slow for the default debug test pass.

#[test]
#[ignore = "scale-0.3 pin; run in release via ci.sh"]
fn incremental_rebuild_is_bit_identical_at_scale() {
    let params = GenParams { scale: 0.3, ..GenParams::default() };
    assert_incremental_matches_full(&params, 3, 4);
}

#[test]
#[ignore = "scale-0.3 pin; run in release via ci.sh"]
fn evolved_exports_are_identical_across_thread_counts_at_scale() {
    let params = GenParams { scale: 0.3, ..GenParams::default() };
    let mut base_world = World::generate(&params);
    let base = govhost::core::evolve::evolve_with_systems(
        &mut base_world,
        3,
        &options(1),
        &default_systems(),
    )
    .expect("world evolves at scale");
    let base_csv = export_csv(&base.dataset);
    for threads in [2, 4] {
        let mut world = World::generate(&params);
        let other = govhost::core::evolve::evolve_with_systems(
            &mut world,
            3,
            &options(threads),
            &default_systems(),
        )
        .expect("world evolves at scale");
        assert_eq!(base.timeline, other.timeline, "threads={threads}");
        let csv = export_csv(&other.dataset);
        assert_eq!(base_csv.hosts, csv.hosts, "threads={threads}");
        assert_eq!(base_csv.urls, csv.urls, "threads={threads}");
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One line of the recorded event-log file: `<label> <fnv1a64 hex>
/// <event count>`, the digest taken over the events joined by newlines.
fn event_line<'a>(label: &str, events: impl IntoIterator<Item = &'a String>) -> String {
    let mut body = String::new();
    let mut count = 0;
    for event in events {
        body.push_str(event);
        body.push('\n');
        count += 1;
    }
    format!("{label} {:016x} {count}\n", fnv1a64(body.as_bytes()))
}

/// The tick and shock event logs are pinned absolutely, not only across
/// thread counts: ten years of `TickReport::events` at scale 0.05 for
/// seeds 7 and 42, and the `ShockReport::events` of each scenario in
/// `examples/what-if.scn` applied to a fork of the scale-0.05, seed-42
/// world (what `govhost scenario` evaluates). A change to how ticks or
/// shocks pick their hosts must leave every line of
/// `results/event_digests_scale0.05.txt` as it is.
#[test]
fn event_logs_match_the_recorded_digests() {
    use govhost::scenario::{parse, resolve_provider, Shock};
    use govhost::worldgen::shock;

    let mut got = String::new();
    for seed in [7, 42] {
        let mut world = World::generate(&GenParams { seed, scale: 0.05, ..GenParams::default() });
        let systems = default_systems();
        let events: Vec<String> =
            (1..=10).flat_map(|year| run_year(&mut world, year, &systems).events).collect();
        got.push_str(&event_line(&format!("ticks-seed{seed}"), &events));
    }
    let file = parse(include_str!("../examples/what-if.scn")).expect("the example parses");
    let base = World::generate(&GenParams { seed: 42, scale: 0.05, ..GenParams::default() });
    for scenario in &file.scenarios {
        let mut world = base.clone();
        let mut events = Vec::new();
        for s in &scenario.shocks {
            let report = match s {
                Shock::Outage(r) => {
                    shock::provider_outage(&mut world, resolve_provider(r).expect("known provider"))
                }
                Shock::Onshore(target) => shock::onshore(&mut world, *target),
                Shock::Vantage(key) => shock::vantage_shift(&mut world, key),
            };
            events.extend(report.events);
        }
        got.push_str(&event_line(&format!("shock-{}", scenario.name), &events));
    }
    let recorded: String = include_str!("../results/event_digests_scale0.05.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(got, recorded, "event logs differ from the recorded digests:\n{got}");
}
