//! Failure injection: the pipeline must degrade gracefully, not collapse,
//! when the measurement environment turns hostile — the situations §8
//! lists as limitations.

use govhost::geoloc::pipeline::PipelineConfig;
use govhost::prelude::*;
use std::sync::Arc;

#[test]
fn heavy_geodb_corruption_shrinks_confirmations_not_correctness() {
    let clean = World::generate(&GenParams::tiny());
    let dirty = World::generate(&GenParams { geodb_error_rate: 0.4, ..GenParams::tiny() });
    let d_clean = GovDataset::build(&clean, &BuildOptions::default());
    let d_dirty = GovDataset::build(&dirty, &BuildOptions::default());

    let conf_clean = d_clean.validation.confirmation_rate();
    let conf_dirty = d_dirty.validation.confirmation_rate();
    assert!(
        conf_dirty < conf_clean,
        "corrupting the database must cost confirmations: {conf_dirty} !< {conf_clean}"
    );

    // But what *is* confirmed stays accurate.
    let mut agree = 0;
    let mut total = 0;
    for h in &d_dirty.hosts {
        let (Some(truth), Some(got)) = (dirty.truth.host(&h.hostname), h.server_country)
        else {
            continue;
        };
        total += 1;
        if got == truth.location {
            agree += 1;
        }
    }
    assert!(total > 50);
    assert!(
        agree as f64 / total as f64 > 0.9,
        "confirmed locations stay accurate under corruption: {agree}/{total}"
    );
}

#[test]
fn anycast_detector_blindness_floods_unicast_lane() {
    // With the MAnycast2 snapshot missing everything, anycast addresses
    // are treated as unicast; the pipeline must still terminate and the
    // anycast lane of Table 4 goes quiet.
    let world = World::generate(&GenParams { anycast_false_negative: 1.0, ..GenParams::tiny() });
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let anycast_total: usize = dataset.validation.anycast.iter().sum();
    assert_eq!(anycast_total, 0, "nothing flagged anycast when the detector is blind");
    assert!(dataset.urls.len() > 1000, "pipeline still produces a dataset");
}

#[test]
fn disabling_all_geolocation_stages_excludes_everything() {
    let world = World::generate(&GenParams::tiny());
    let options = BuildOptions {
        geo: PipelineConfig {
            use_active_probing: false,
            use_hoiho: false,
            use_ipmap: false,
            use_single_radius: false,
            ..PipelineConfig::default()
        },
        ..BuildOptions::default()
    };
    let dataset = GovDataset::build(&world, &options);
    assert!(
        dataset.hosts.iter().all(|h| h.server_country.is_none()),
        "no stage, no validated location — the conservative policy"
    );
    // Location analysis over an all-excluded dataset is empty, not wrong.
    let location = LocationAnalysis::compute(&dataset);
    assert_eq!(location.geolocation.total, 0);
    assert!(location.geolocation.domestic_fraction().is_nan());
    // WHOIS lens is unaffected.
    assert!(location.registration.total > 0);
}

#[test]
fn korea_empty_row_is_handled_everywhere() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let kr: CountryCode = "KR".parse().unwrap();
    assert!(world.landing(kr).is_empty());
    assert_eq!(dataset.country_urls(kr).count(), 0);
    let hosting = HostingAnalysis::compute(&dataset);
    assert!(!hosting.per_country.contains_key(&kr));
    // Clustering and the explanatory model simply skip it.
    let sim = SimilarityAnalysis::compute(
        &hosting,
        govhost::core::similarity::SignatureKind::Urls,
    );
    assert!(!sim.countries.contains(&kr));
    let location = LocationAnalysis::compute(&dataset);
    assert!(location.offshore_percent(kr).is_none());
    assert!(ExplanatoryModel::fit(&location).is_some(), "model fits without Korea");
}

#[test]
fn crawler_depth_ablation_matches_coverage_claim() {
    // §4.2: 84% of URLs come from landing pages, 95% within one level.
    // Sweeping the crawl depth must show steeply diminishing returns.
    let world = World::generate(&GenParams::tiny());
    let mut last = 0usize;
    let mut counts = Vec::new();
    for depth in [0u32, 1, 3, 7] {
        let options = BuildOptions {
            crawler: govhost::web::crawler::Crawler::with_depth(depth),
            ..BuildOptions::default()
        };
        let dataset = GovDataset::build(&world, &options);
        assert!(dataset.urls.len() >= last, "URL count grows with depth");
        last = dataset.urls.len();
        counts.push((depth, dataset.urls.len()));
    }
    let at0 = counts[0].1 as f64;
    let at1 = counts[1].1 as f64;
    let at7 = counts[3].1 as f64;
    // At tiny scale the per-site page skeleton (7 HTML pages) dilutes the
    // 84% landing-page resource share; the claim converges at full scale.
    assert!(at0 / at7 > 0.62, "landing pages dominate: {at0}/{at7} (paper: 84%)");
    assert!(at1 / at7 > 0.85, "one more level nearly saturates: {at1}/{at7} (paper: 95%)");
}

#[test]
fn crawl_failures_are_counted_not_fatal() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    // Geo-blocked pages fetched from the right vantage succeed, so
    // failures should be rare but the counter must exist and not explode.
    assert!(
        (dataset.crawl_failures as usize) < dataset.urls.len(),
        "failures ({}) bounded",
        dataset.crawl_failures
    );
}

/// Make every landing site of `country` unreachable from its own vantage
/// by geo-restricting it to a foreign country — the domestic landing
/// fetch then fails with a geo-block, a crawl-stage fault.
fn poison_country(world: &mut World, country: CountryCode) {
    let foreign: CountryCode =
        if country.as_str() == "US" { "DE" } else { "US" }.parse().unwrap();
    let landing: Vec<govhost::types::Url> = world.landing(country).to_vec();
    assert!(!landing.is_empty(), "{country} has landing pages to poison");
    for url in &landing {
        Arc::make_mut(&mut world.corpus)
            .site_mut(url.hostname())
            .expect("landing site exists in the corpus")
            .geo_restricted_to = Some(foreign);
    }
}

#[test]
fn abort_policy_surfaces_poisoned_country_as_typed_error() {
    let mut world = World::generate(&GenParams::tiny());
    let br: CountryCode = "BR".parse().unwrap();
    poison_country(&mut world, br);
    let err = GovDataset::try_build(&world, &BuildOptions::default())
        .expect_err("abort policy stops at the fault");
    assert_eq!(err.country, br);
    assert_eq!(err.error.stage(), govhost::types::PipelineStage::Crawl);
    assert!(err.to_string().contains("BR"), "{err}");
}

#[test]
fn quarantine_drops_poisoned_country_but_builds_the_rest() {
    let clean = GovDataset::build(&World::generate(&GenParams::tiny()), &BuildOptions::default());
    let mut world = World::generate(&GenParams::tiny());
    let br: CountryCode = "BR".parse().unwrap();
    poison_country(&mut world, br);

    let options = BuildOptions { policy: FailurePolicy::Quarantine, ..BuildOptions::default() };
    let (ds, report) =
        GovDataset::try_build(&world, &options).expect("quarantine absorbs the fault");

    // The report names the country and the stage that faulted.
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.country, br);
    assert_eq!(q.stage, govhost::types::PipelineStage::Crawl);
    assert!(q.cause.contains("geo-blocked") || q.cause.contains("blocked"), "{}", q.cause);

    // One poisoned country never takes the others down with it.
    assert!(!ds.per_country.contains_key(&br));
    assert_eq!(ds.countries().len(), clean.countries().len() - 1);
    assert_eq!(ds.country_urls(br).count(), 0);
    assert!(ds.urls.len() > 1000, "the surviving countries still produce a dataset");
}

/// When two landing sites of one country fault, the country is named by
/// its earliest faulting landing page, whatever the policy and the thread
/// count. The later fault sits at landing index 8 or above, past the
/// first eight landing pages, so a crawl that split a country's landing
/// pages into groups and reported whichever group faulted last, or
/// first in time, would name the wrong page.
#[test]
fn the_earliest_faulting_landing_page_names_the_country() {
    let mut world = World::generate(&GenParams::tiny());
    // A country with more than eight landing pages, a landing page `lo`
    // below index 8 and one `hi` at index 8 or above, each the first
    // landing page on its site, so poisoning the two sites makes `lo`
    // the earliest faulting landing page.
    let first_on_site = |landing: &[govhost::types::Url], i: usize| {
        landing[..i].iter().all(|u| u.hostname() != landing[i].hostname())
    };
    let (country, lo, hi) = world
        .studied_countries()
        .iter()
        .find_map(|row| {
            let landing = world.landing(row.cc());
            let hi = (8..landing.len()).find(|&i| first_on_site(landing, i))?;
            let lo = (1..8).rev().find(|&i| first_on_site(landing, i))?;
            Some((row.cc(), landing[lo].clone(), landing[hi].clone()))
        })
        .expect("some country has more than eight landing pages on distinct sites");
    let foreign: CountryCode =
        if country.as_str() == "US" { "DE" } else { "US" }.parse().unwrap();
    for url in [&lo, &hi] {
        Arc::make_mut(&mut world.corpus)
            .site_mut(url.hostname())
            .expect("landing site exists in the corpus")
            .geo_restricted_to = Some(foreign);
    }
    let names_lo = |cause: &str| {
        assert!(cause.contains(&format!("crawl of {lo} failed")), "{cause} names {lo}");
        assert!(!cause.contains(&hi.to_string()), "{cause} does not name {hi}");
    };
    for threads in [1, 4] {
        let abort = BuildOptions { threads, ..BuildOptions::default() };
        let err = GovDataset::try_build(&world, &abort).expect_err("abort policy stops");
        assert_eq!(err.country, country, "threads={threads}");
        names_lo(&err.error.to_string());

        let quarantine = BuildOptions { policy: FailurePolicy::Quarantine, ..abort };
        let (_, report) =
            GovDataset::try_build(&world, &quarantine).expect("quarantine absorbs the fault");
        assert_eq!(report.quarantined.len(), 1, "threads={threads}");
        assert_eq!(report.quarantined[0].country, country);
        names_lo(&report.quarantined[0].cause);
    }
}

/// Faults during an incremental rebuild obey the same policies as a full
/// build: poisoning a country after a clean cached build and rebuilding
/// with only that country dirty either aborts without touching the
/// cache, or quarantines it exactly as a from-scratch build would. A
/// quarantined country has no cache entry, so once it is repaired, a
/// rebuild told that nothing changed brings it back.
#[test]
fn incremental_rebuild_applies_the_failure_policy() {
    let br: CountryCode = "BR".parse().unwrap();
    let dirty: std::collections::BTreeSet<CountryCode> = [br].into_iter().collect();
    for policy in [FailurePolicy::Abort, FailurePolicy::Quarantine] {
        let options = BuildOptions { policy, ..BuildOptions::default() };
        let mut world = World::generate(&GenParams::tiny());
        let (_, _, mut cache) =
            GovDataset::build_cached(&world, &options).expect("clean world builds");
        let before = cache.countries();
        assert!(before.contains(&br), "BR contributes to the clean build");
        let clean = Arc::clone(&world.corpus);
        poison_country(&mut world, br);
        let rebuilt = GovDataset::rebuild_incremental(&world, &options, &mut cache, &dirty);
        match policy {
            FailurePolicy::Abort => {
                let err = rebuilt.expect_err("abort policy stops at the fault");
                assert_eq!(err.country, br);
                assert_eq!(err.error.stage(), govhost::types::PipelineStage::Crawl);
                assert_eq!(cache.countries(), before, "a failed rebuild leaves the cache alone");
            }
            FailurePolicy::Quarantine => {
                let (ds, report) = rebuilt.expect("quarantine absorbs the fault");
                let (full, full_report) =
                    GovDataset::try_build(&world, &options).expect("full build quarantines too");
                assert_eq!(report, full_report);
                assert_eq!(report.quarantined.len(), 1);
                assert_eq!(report.quarantined[0].country, br);
                let inc_csv = export_csv_full(&ds, Some(&report));
                let full_csv = export_csv_full(&full, Some(&full_report));
                assert_eq!(inc_csv.hosts, full_csv.hosts);
                assert_eq!(inc_csv.urls, full_csv.urls);
                assert_eq!(inc_csv.meta, full_csv.meta);
                let after = cache.countries();
                assert!(!after.contains(&br), "the quarantined country leaves the cache");
                assert_eq!(after.len(), before.len() - 1);

                world.corpus = clean;
                let nothing = std::collections::BTreeSet::new();
                let (ds, report) =
                    GovDataset::rebuild_incremental(&world, &options, &mut cache, &nothing)
                        .expect("the repaired world rebuilds");
                let (full, full_report) =
                    GovDataset::try_build(&world, &options).expect("the repaired world builds");
                assert_eq!(report, full_report);
                assert!(report.quarantined.is_empty(), "{report:?}");
                assert_eq!(cache.countries(), before, "the repaired country is back");
                let inc_csv = export_csv_full(&ds, Some(&report));
                let full_csv = export_csv_full(&full, Some(&full_report));
                assert_eq!(inc_csv.hosts, full_csv.hosts);
                assert_eq!(inc_csv.urls, full_csv.urls);
                assert_eq!(inc_csv.meta, full_csv.meta);
            }
        }
    }
}

#[test]
fn zero_scale_world_is_empty_but_valid() {
    let world = World::generate(&GenParams { scale: 0.0, ..GenParams::default() });
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    // scale 0 rounds every per-country volume to the minimum floor via
    // `scaled`, except countries whose raw value is 0. Nothing crashes.
    let hosting = HostingAnalysis::compute(&dataset);
    let _ = hosting.global_country_mean();
    let _ = LocationAnalysis::compute(&dataset);
    let _ = CrossBorderAnalysis::compute(&dataset);
}
