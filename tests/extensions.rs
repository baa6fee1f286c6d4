//! Integration tests for the extension features: dataset export/import,
//! the longitudinal trends run, HAR export of real crawls, zone-file
//! round trips of generated zones, and the affordability lens.

use govhost::core::affordability::AffordabilityAnalysis;
use govhost::core::export::{export_csv, import_csv};
use govhost::core::trends::TrendAnalysis;
use govhost::prelude::*;
use govhost::web::crawler::Crawler;

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

#[test]
fn longitudinal_run_shows_consolidation() {
    let steps: Vec<(String, f64)> =
        [0.0, 0.25].iter().map(|d| (format!("t{d}"), *d)).collect();
    let trend = TrendAnalysis::run(&GenParams::tiny(), &steps, &BuildOptions::default());
    assert!(trend.consolidation_is_monotone());
    assert!(trend.third_party_delta() > 0.03);
    // Domestic serving erodes alongside.
    assert!(
        trend.snapshots[1].domestic_serving <= trend.snapshots[0].domestic_serving + 0.02
    );
}

#[test]
fn har_export_round_trips_a_real_crawl() {
    let (world, _) = build();
    let ar: CountryCode = "AR".parse().unwrap();
    let landing = &world.landing(ar)[0];
    let outcome = Crawler::default().crawl(world.corpus(), landing, Some(ar));
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
fn iterative_resolver_agrees_with_catalog_resolver_on_a_hierarchy() {
    // Build the same data both ways and compare resolutions.
    use govhost::dns::{
        AuthoritativeServer, DelegatingServer, DnsName, IterativeResolver, RData, Resolver, Zone,
    };
    let n = |s: &str| -> DnsName { s.parse().unwrap() };

    let mut gov_zone = Zone::new(n("tesoro.gob.ar"));
    gov_zone.add(n("www.tesoro.gob.ar"), RData::A("11.5.0.9".parse().unwrap()));

    // Catalog resolver.
    let mut catalog = Resolver::new();
    catalog.add_server(AuthoritativeServer::new(gov_zone.clone()));

    // Full delegation tree.
    let mut iterative = IterativeResolver::new();
    let mut root = DelegatingServer::new(Zone::new(DnsName::root()));
    root.delegate(n("ar"), n("ns.nic.ar"), "10.0.0.2".parse().unwrap());
    iterative.add_server("10.0.0.1".parse().unwrap(), root);
    let mut ar_tld = DelegatingServer::new(Zone::new(n("ar")));
    ar_tld.delegate(n("tesoro.gob.ar"), n("ns1.tesoro.gob.ar"), "10.0.0.3".parse().unwrap());
    iterative.add_server("10.0.0.2".parse().unwrap(), ar_tld);
    iterative.add_server("10.0.0.3".parse().unwrap(), DelegatingServer::new(gov_zone));

    let name = n("www.tesoro.gob.ar");
    let a = catalog.resolve(&name, None).expect("catalog resolves");
    let b = iterative.resolve(&name, None).expect("iterative resolves");
    assert_eq!(a.addresses, b.addresses);
    assert_eq!(a.chain, b.chain);
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
