//! Oracle tests: the measurement pipeline sees only observable surfaces
//! (crawls, DNS, WHOIS, PeeringDB, search, probes); the generator's
//! ground truth says what it *should* have recovered. These tests bound
//! the pipeline's recovery error.

use govhost::prelude::*;
use govhost::types::ProviderCategory;
use std::sync::Arc;

fn build() -> (World, GovDataset) {
    let world = World::generate(&GenParams { scale: 0.05, ..GenParams::default() });
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    (world, dataset)
}

#[test]
fn classification_finds_nearly_all_government_hostnames() {
    let (world, dataset) = build();
    // Recall: every ground-truth hostname with URL weight should appear.
    let mut found = 0;
    let mut missed = Vec::new();
    for host in world.truth.hosts.keys() {
        if dataset.host_id(host).is_some() {
            found += 1;
        } else {
            missed.push(host.clone());
        }
    }
    let total = world.truth.hosts.len();
    let recall = found as f64 / total as f64;
    assert!(
        recall > 0.9,
        "recall {recall} ({found}/{total}); first misses: {:?}",
        &missed[..missed.len().min(5)]
    );
}

#[test]
fn classification_admits_no_non_government_hostnames() {
    let (world, dataset) = build();
    // Precision against ground truth: every dataset hostname must be a
    // truth hostname (trackers and contractor sites are not).
    for h in &dataset.hosts {
        assert!(
            world.truth.host(&h.hostname).is_some(),
            "{} classified as government but is not",
            h.hostname
        );
    }
}

#[test]
fn category_recovery_is_accurate() {
    let (world, dataset) = build();
    let mut confusion: std::collections::HashMap<(ProviderCategory, ProviderCategory), usize> =
        std::collections::HashMap::new();
    let mut agree = 0;
    let mut total = 0;
    for h in &dataset.hosts {
        let (Some(truth), Some(got)) = (world.truth.host(&h.hostname), h.category) else {
            continue;
        };
        total += 1;
        if got == truth.category {
            agree += 1;
        } else {
            *confusion.entry((truth.category, got)).or_default() += 1;
        }
    }
    let accuracy = agree as f64 / total as f64;
    assert!(accuracy > 0.85, "category accuracy {accuracy}; confusion: {confusion:?}");
}

#[test]
fn state_classifier_has_high_precision_and_recall() {
    let (world, dataset) = build();
    let (mut tp, mut fp, mut fnv) = (0u32, 0u32, 0u32);
    for h in &dataset.hosts {
        let Some(truth) = world.truth.host(&h.hostname) else { continue };
        let truth_state = truth.category == ProviderCategory::GovtSoe;
        match (truth_state, h.state_operated) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fnv += 1,
            (false, false) => {}
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fnv).max(1) as f64;
    assert!(precision > 0.9, "state precision {precision} (tp {tp}, fp {fp})");
    assert!(recall > 0.8, "state recall {recall} (tp {tp}, fn {fnv})");
}

#[test]
fn validated_locations_agree_with_truth() {
    let (world, dataset) = build();
    let mut agree = 0;
    let mut total = 0;
    for h in &dataset.hosts {
        let (Some(truth), Some(got)) = (world.truth.host(&h.hostname), h.server_country)
        else {
            continue;
        };
        total += 1;
        if got == truth.location {
            agree += 1;
        }
    }
    assert!(total > 100, "enough validated hosts: {total}");
    let accuracy = agree as f64 / total as f64;
    assert!(
        accuracy > 0.93,
        "validated locations are trustworthy (the point of §3.5): {accuracy}"
    );
}

#[test]
fn san_only_hosts_recovered_via_san_method() {
    let (world, dataset) = build();
    let mut san_truth = 0;
    let mut san_found = 0;
    for (host, truth) in &world.truth.hosts {
        if !truth.san_only {
            continue;
        }
        san_truth += 1;
        if let Some(id) = dataset.host_id(host) {
            let rec = dataset.host(id);
            assert_eq!(
                rec.method,
                govhost::core::classify::ClassificationMethod::San,
                "{host} must be identified through SANs"
            );
            san_found += 1;
        }
    }
    assert!(san_truth > 30, "SAN-only affiliates exist in the world: {san_truth}");
    assert!(
        san_found as f64 / san_truth as f64 > 0.8,
        "most SAN affiliates recovered: {san_found}/{san_truth}"
    );
}

#[test]
fn france_new_caledonia_case_recovered() {
    let (world, dataset) = build();
    let gouv_nc: Hostname = "gouv.nc".parse().unwrap();
    assert!(world.truth.host(&gouv_nc).is_some());
    let id = dataset.host_id(&gouv_nc).expect("gouv.nc classified");
    let rec = dataset.host(id);
    assert_eq!(rec.country.as_str(), "FR", "collected through France's crawl");
    assert_eq!(rec.category, Some(ProviderCategory::GovtSoe), "OPT is state-owned");
    assert_eq!(rec.registration.map(|c| c.to_string()).as_deref(), Some("NC"));
    assert!(rec.state_operated, "the search evidence reveals OPT's state ownership");
}

#[test]
fn quarantine_counts_and_export_bytes_are_thread_count_invariant() {
    // Poison two countries so the quarantine list has an order to get
    // wrong; every thread count must produce the identical report and
    // identical export bytes (the determinism contract extends to the
    // fault-tolerant path).
    let mut world = World::generate(&GenParams::tiny());
    for code in ["AR", "DE"] {
        let country: CountryCode = code.parse().unwrap();
        let landing: Vec<govhost::types::Url> = world.landing(country).to_vec();
        assert!(!landing.is_empty());
        for url in &landing {
            Arc::make_mut(&mut world.corpus).site_mut(url.hostname()).unwrap().geo_restricted_to =
                Some("US".parse().unwrap());
        }
    }

    let build = |threads: usize| {
        let options = BuildOptions {
            threads,
            policy: FailurePolicy::Quarantine,
            ..BuildOptions::default()
        };
        GovDataset::try_build(&world, &options).expect("quarantine absorbs the faults")
    };
    let (base_ds, base_report) = build(1);
    assert_eq!(base_report.quarantined.len(), 2);
    // Fixed country order, independent of which worker hit the fault first.
    let quarantined: Vec<&str> =
        base_report.quarantined.iter().map(|q| q.country.as_str()).collect();
    assert_eq!(quarantined, ["AR", "DE"]);
    let base_csv = export_csv_full(&base_ds, Some(&base_report));

    for threads in [2, 8] {
        let (ds, report) = build(threads);
        assert_eq!(report, base_report, "report counts identical at threads={threads}");
        let csv = export_csv_full(&ds, Some(&report));
        assert_eq!(csv.hosts, base_csv.hosts, "threads={threads}");
        assert_eq!(csv.urls, base_csv.urls, "threads={threads}");
        assert_eq!(csv.meta, base_csv.meta, "threads={threads}");
    }

    // The report survives an export/import round trip byte-for-byte.
    let (_, imported_report) = import_csv_full(&base_csv).expect("imports");
    assert_eq!(imported_report, base_report);
}

#[test]
fn geo_restricted_sites_require_domestic_vantage() {
    let (world, _) = build();
    // Find a geo-restricted site and verify the corpus refuses foreign
    // fetches (the reason the paper uses VPNs).
    let site = world
        .corpus
        .sites()
        .find(|s| s.geo_restricted_to.is_some())
        .expect("geo-restricted sites exist");
    let home = site.geo_restricted_to.unwrap();
    let foreign: CountryCode = if home.as_str() == "US" { "DE" } else { "US" }.parse().unwrap();
    assert!(world.corpus.fetch(&site.landing, Some(home)).is_ok());
    assert!(world.corpus.fetch(&site.landing, Some(foreign)).is_err());
    assert!(world.corpus.fetch(&site.landing, None).is_err());
}
