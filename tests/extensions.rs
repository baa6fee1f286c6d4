//! Integration tests for the extension features: dataset export/import,
//! longitudinal consolidation under agency migration, HAR export of real
//! crawls, zone-file round trips of generated zones, and the
//! affordability lens.

use govhost::core::affordability::AffordabilityAnalysis;
use govhost::core::export::{export_csv, import_csv};
use govhost::core::evolve::evolve_with_systems;
use govhost::prelude::*;
use govhost::web::crawler::Crawler;
use govhost::worldgen::tick::{AgencyMigration, TickSystem};

fn build() -> (World, GovDataset) {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    (world, dataset)
}

#[test]
fn exported_dataset_reproduces_every_analysis() {
    let (_world, dataset) = build();
    let loaded = import_csv(&export_csv(&dataset)).expect("round trip");

    let h1 = HostingAnalysis::compute(&dataset);
    let h2 = HostingAnalysis::compute(&loaded);
    assert_eq!(h1.global, h2.global);
    assert_eq!(h1.per_region.len(), h2.per_region.len());

    let c1 = CrossBorderAnalysis::compute(&dataset);
    let c2 = CrossBorderAnalysis::compute(&loaded);
    assert_eq!(c1.location.total(), c2.location.total());
    assert_eq!(c1.registration.flows, c2.registration.flows);

    let p1 = ProviderAnalysis::compute(&dataset);
    let p2 = ProviderAnalysis::compute(&loaded);
    assert_eq!(p1.histogram(), p2.histogram());

    let a1 = AffordabilityAnalysis::compute(&dataset);
    let a2 = AffordabilityAnalysis::compute(&loaded);
    assert_eq!(a1.per_country.len(), a2.per_country.len());
}

/// The §2 consolidation trend, as agency migration drives it: every
/// year moves state-hosted agencies onto third parties, so the
/// third-party URL share only rises and the state-led count only falls.
#[test]
fn longitudinal_run_shows_consolidation() {
    let mut world = World::generate(&GenParams::tiny());
    let systems: Vec<Box<dyn TickSystem>> = vec![Box::new(AgencyMigration)];
    let outcome = evolve_with_systems(&mut world, 4, &BuildOptions::default(), &systems)
        .expect("tiny world evolves");
    let years: Vec<_> =outcome.timeline.years.iter().map(|y| &y.metrics).collect();
    assert_eq!(years.len(), 5, "year 0 plus four ticks");
    for w in years.windows(2) {
        assert!(w[1].third_party_urls >= w[0].third_party_urls, "3P share fell: {years:?}");
        assert!(w[1].state_led <= w[0].state_led, "state-led count rose: {years:?}");
    }
    let delta = years[4].third_party_urls - years[0].third_party_urls;
    assert!(delta > 0.03, "four migration years must visibly consolidate: Δ = {delta}");
}

#[test]
fn har_export_round_trips_a_real_crawl() {
    let (world, _) = build();
    let ar: CountryCode = "AR".parse().unwrap();
    let landing = &world.landing(ar)[0];
    let outcome = Crawler::default().crawl(&world.corpus, landing, Some(ar));
    assert!(!outcome.log.entries.is_empty());
    let json = govhost::web::to_har_json(&outcome.log);
    let parsed = govhost::web::read_har_entries(&json);
    assert_eq!(parsed.len(), outcome.log.entries.len());
    let total_bytes: u64 = parsed.iter().map(|(_, b, _)| b).sum();
    assert_eq!(total_bytes, outcome.log.total_bytes());
}

#[test]
fn generated_hostnames_survive_zone_file_round_trip() {
    let (world, dataset) = build();
    // Serialize a synthetic zone per resolved host and re-parse it.
    let mut checked = 0;
    for host in dataset.hosts.iter().take(50) {
        let Some(ip) = host.ip else { continue };
        let apex = govhost::dns::DnsName::from(&host.hostname);
        let mut zone = govhost::dns::Zone::new(apex.clone());
        zone.add(apex, govhost::dns::RData::A(ip));
        let text = govhost::dns::to_zone_file(&zone, 300);
        let parsed = govhost::dns::parse_zone_file(&text, None).expect("round trip");
        assert_eq!(parsed.origin().to_string(), host.hostname.as_str());
        checked += 1;
    }
    assert!(checked > 30);
    drop(world);
}

#[test]
fn affordability_burden_double_penalty_holds_end_to_end() {
    let (_world, dataset) = build();
    let afford = AffordabilityAnalysis::compute(&dataset);
    assert!(afford.burden_income_correlation() < -0.3);
    // The worst-burdened countries are not rich ones.
    for (code, _) in afford.worst(3) {
        let row = govhost::worldgen::countries::country(code).unwrap();
        assert!(row.gdp_k < 30.0, "{code} should not top the burden list");
    }
}
