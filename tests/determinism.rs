//! Reproducibility guarantees: the same parameters always produce the
//! same world, the same dataset, and the same analysis outputs — across
//! runs and across crawl thread counts.

use govhost::prelude::*;

#[test]
fn same_seed_same_world_same_dataset() {
    let params = GenParams::tiny();
    let w1 = World::generate(&params);
    let w2 = World::generate(&params);
    assert_eq!(w1.registry.servers().len(), w2.registry.servers().len());
    for (a, b) in w1.registry.servers().iter().zip(w2.registry.servers()) {
        assert_eq!(a.ip, b.ip);
        assert_eq!(a.asn, b.asn);
        assert_eq!(a.anycast, b.anycast);
        assert_eq!(a.icmp_responsive, b.icmp_responsive);
        assert_eq!(a.ptr, b.ptr);
    }

    let d1 = GovDataset::build(&w1, &BuildOptions::default());
    let d2 = GovDataset::build(&w2, &BuildOptions::default());
    assert_eq!(d1.urls.len(), d2.urls.len());
    assert_eq!(d1.hosts.len(), d2.hosts.len());
    assert_eq!(d1.method_counts, d2.method_counts);
    assert_eq!(d1.validation, d2.validation);
    for (a, b) in d1.hosts.iter().zip(&d2.hosts) {
        assert_eq!(a.hostname, b.hostname);
        assert_eq!(a.category, b.category);
        assert_eq!(a.server_country, b.server_country);
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let world = World::generate(&GenParams::tiny());
    let base = GovDataset::build(&world, &BuildOptions { threads: 1, ..Default::default() });
    for threads in [2, 4, 8] {
        let other =
            GovDataset::build(&world, &BuildOptions { threads, ..Default::default() });
        assert_eq!(base.urls.len(), other.urls.len(), "threads={threads}");
        assert_eq!(base.method_counts, other.method_counts, "threads={threads}");
        assert_eq!(base.validation, other.validation, "threads={threads}");
        let h1 = HostingAnalysis::compute(&base);
        let h2 = HostingAnalysis::compute(&other);
        assert_eq!(h1.global, h2.global, "threads={threads}");
    }
}

/// The tentpole invariant of the parallel build: at a realistic scale,
/// every observable surface of the dataset — host records (in order),
/// geolocation verdict-derived fields, per-stage item counts, and the
/// CSV export bytes — is identical for any thread count. Wall-clock
/// timings are the only thing allowed to differ.
#[test]
fn parallel_build_is_bit_identical_at_scale() {
    let world = World::generate(&GenParams { scale: 0.3, ..GenParams::default() });
    let base = GovDataset::build(&world, &BuildOptions { threads: 1, ..Default::default() });
    let base_csv = export_csv(&base);
    for threads in [2, 8] {
        let other = GovDataset::build(&world, &BuildOptions { threads, ..Default::default() });
        assert_eq!(base.urls.len(), other.urls.len(), "threads={threads}");
        assert_eq!(base.method_counts, other.method_counts, "threads={threads}");
        assert_eq!(base.validation, other.validation, "threads={threads}");
        assert_eq!(base.crawl_failures, other.crawl_failures, "threads={threads}");
        assert_eq!(base.hosts.len(), other.hosts.len(), "threads={threads}");
        for (a, b) in base.hosts.iter().zip(&other.hosts) {
            assert_eq!(a.hostname, b.hostname, "threads={threads}");
            assert_eq!(a.country, b.country, "threads={threads}");
            assert_eq!(a.method, b.method, "threads={threads}");
            assert_eq!(a.ip, b.ip, "threads={threads}");
            assert_eq!(a.asn, b.asn, "threads={threads}");
            assert_eq!(a.category, b.category, "threads={threads}");
            // Geolocation verdict order: server_country and the anycast
            // flag come straight out of locate_all_reading.
            assert_eq!(a.server_country, b.server_country, "threads={threads}");
            assert_eq!(a.anycast, b.anycast, "threads={threads}");
        }
        // Stage item counts are deterministic; wall times are not.
        assert_eq!(
            base.timings.item_counts(),
            other.timings.item_counts(),
            "threads={threads}"
        );
        let csv = export_csv(&other);
        assert_eq!(base_csv.hosts, csv.hosts, "hosts.csv differs at threads={threads}");
        assert_eq!(base_csv.urls, csv.urls, "urls.csv differs at threads={threads}");
    }
}

#[test]
fn different_seeds_produce_different_worlds_same_shape() {
    let a = World::generate(&GenParams { seed: 1, ..GenParams::tiny() });
    let b = World::generate(&GenParams { seed: 2, ..GenParams::tiny() });
    // Different micro-state...
    let differs = a
        .registry
        .servers()
        .iter()
        .zip(b.registry.servers())
        .any(|(x, y)| x.icmp_responsive != y.icmp_responsive || x.ptr != y.ptr);
    assert!(differs);
    // ...same macro-shape: headline aggregates stay within a band.
    let da = GovDataset::build(&a, &BuildOptions::default());
    let db = GovDataset::build(&b, &BuildOptions::default());
    let ha = HostingAnalysis::compute(&da).global_country_mean().third_party_urls();
    let hb = HostingAnalysis::compute(&db).global_country_mean().third_party_urls();
    assert!(
        (ha - hb).abs() < 0.10,
        "seed changes must not move the 3P share materially: {ha} vs {hb}"
    );
}

#[test]
fn scale_changes_volume_not_shape() {
    let small = World::generate(&GenParams { scale: 0.02, ..GenParams::default() });
    let larger = World::generate(&GenParams { scale: 0.06, ..GenParams::default() });
    let ds = GovDataset::build(&small, &BuildOptions::default());
    let dl = GovDataset::build(&larger, &BuildOptions::default());
    assert!(dl.urls.len() > ds.urls.len() * 2, "volume scales with the knob");
    let hs = HostingAnalysis::compute(&ds).global_country_mean();
    let hl = HostingAnalysis::compute(&dl).global_country_mean();
    assert!(
        (hs.third_party_urls() - hl.third_party_urls()).abs() < 0.12,
        "shape is scale-stable: {} vs {}",
        hs.third_party_urls(),
        hl.third_party_urls()
    );
}
