//! Property test for the per-host rollup behind every §5–§7 analysis:
//! each analysis folds over [`GovDataset::host_volumes`] (one row per
//! host with its URL count and byte sum), and must equal, bit for bit,
//! the per-URL fold it replaced. The per-URL folds live here as the
//! reference. Floats are compared by `to_bits`, so a regrouped sum or a
//! reordered float fold fails, and so does a different "first seen"
//! organisation name.
//!
//! Arbitrary datasets are built through `import_csv_full`, so the URL
//! rows may meet hosts in any order: hosts without a URL, a `hosts.csv`
//! order unlike first-URL order, one AS under two organisation names
//! and zero-byte URLs all occur (the property counts them and fails if
//! the generator stopped producing one). A fixed case checks every year
//! of a tiny four-year evolve. On the in-repo harness.

use govhost_core::classify::ClassificationMethod;
use govhost_core::crossborder::CrossBorderAnalysis;
use govhost_core::diversification::{CountryConcentration, DiversificationAnalysis};
use govhost_core::hosting::{CategoryShares, HostingAnalysis};
use govhost_core::location::{DomesticSplit, LocationAnalysis};
use govhost_core::providers::ProviderAnalysis;
use govhost_core::topsites::{map_government_category, TopsiteAnalysis};
use govhost_core::{
    evolve_with_systems, export_csv, import_csv_full, BuildCache, BuildMetrics, BuildOptions,
    CountryMetrics, GovDataset, HostRecord, UrlTable,
};
use govhost_harness::{gens, prop_assert, prop_assert_eq, Config, Gen};
use govhost_stats::hhi::hhi_from_counts;
use govhost_types::url::Scheme;
use govhost_types::{Asn, CountryCode, HostInterner, ProviderCategory, Region};
use govhost_worldgen::{default_systems, run_year, GenParams, World};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

const REGRESSIONS: &str = "tests/regressions/prop_host_fold.txt";

fn cfg(name: &str) -> Config {
    Config::new(name).cases(192).regressions(REGRESSIONS)
}

// ---------------------------------------------------------------------
// The per-URL reference folds.
// ---------------------------------------------------------------------

fn region_of(country: CountryCode) -> Option<Region> {
    govhost_worldgen::countries::any_country(country).map(|r| r.region)
}

#[derive(Default)]
struct Tally {
    urls: [u64; 4],
    bytes: [u64; 4],
}

impl Tally {
    fn add(&mut self, category: ProviderCategory, bytes: u64) {
        self.urls[category.index()] += 1;
        self.bytes[category.index()] += bytes;
    }

    fn shares(&self) -> CategoryShares {
        let url_total: u64 = self.urls.iter().sum();
        let byte_total: u64 = self.bytes.iter().sum();
        let mut out = CategoryShares::default();
        for i in 0..4 {
            out.urls[i] = if url_total > 0 { self.urls[i] as f64 / url_total as f64 } else { 0.0 };
            out.bytes[i] =
                if byte_total > 0 { self.bytes[i] as f64 / byte_total as f64 } else { 0.0 };
        }
        out
    }
}

fn hosting_per_url(dataset: &GovDataset) -> HostingAnalysis {
    let mut global = Tally::default();
    let mut per_region: HashMap<Region, Tally> = HashMap::new();
    let mut per_country: HashMap<CountryCode, Tally> = HashMap::new();
    for (url, host) in dataset.url_views() {
        let Some(category) = host.category else { continue };
        global.add(category, url.bytes);
        per_country.entry(host.country).or_default().add(category, url.bytes);
        if let Some(region) = region_of(host.country) {
            per_region.entry(region).or_default().add(category, url.bytes);
        }
    }
    HostingAnalysis {
        global: global.shares(),
        per_region: per_region.into_iter().map(|(k, v)| (k, v.shares())).collect(),
        per_country: per_country.into_iter().map(|(k, v)| (k, v.shares())).collect(),
    }
}

fn add_one(split: &mut DomesticSplit, is_domestic: bool) {
    split.total += 1;
    if is_domestic {
        split.domestic += 1;
    }
}

fn location_per_url(dataset: &GovDataset) -> LocationAnalysis {
    let mut out = LocationAnalysis::default();
    for (_, host) in dataset.url_views() {
        let region = region_of(host.country);
        if let Some(reg) = host.registration {
            let dom = reg == host.country;
            add_one(&mut out.registration, dom);
            if let Some(r) = region {
                add_one(out.registration_by_region.entry(r).or_default(), dom);
            }
        }
        if let Some(loc) = host.server_country {
            let dom = loc == host.country;
            add_one(&mut out.geolocation, dom);
            if let Some(r) = region {
                add_one(out.geolocation_by_region.entry(r).or_default(), dom);
            }
            add_one(out.geolocation_by_country.entry(host.country).or_default(), dom);
        }
    }
    out
}

/// `(asn, org, sorted countries, sorted byte shares)` per provider, in
/// the analysis's display order.
type ProviderRows = Vec<(u32, String, Vec<CountryCode>, Vec<(CountryCode, u64)>)>;

fn providers_per_url(dataset: &GovDataset) -> ProviderRows {
    let mut provider_bytes: HashMap<(Asn, CountryCode), u64> = HashMap::new();
    let mut provider_org: HashMap<Asn, String> = HashMap::new();
    let mut country_bytes: HashMap<CountryCode, u64> = HashMap::new();
    for (url, host) in dataset.url_views() {
        *country_bytes.entry(host.country).or_default() += url.bytes;
        if host.category != Some(ProviderCategory::ThirdPartyGlobal) {
            continue;
        }
        let Some(asn) = host.asn else { continue };
        *provider_bytes.entry((asn, host.country)).or_default() += url.bytes;
        if let Some(org) = &host.org {
            provider_org.entry(asn).or_insert_with(|| org.clone());
        }
    }
    let mut by_asn: BTreeMap<u32, (BTreeSet<CountryCode>, BTreeMap<CountryCode, u64>)> =
        BTreeMap::new();
    for ((asn, country), bytes) in provider_bytes {
        let entry = by_asn.entry(asn.value()).or_default();
        entry.0.insert(country);
        let total = country_bytes.get(&country).copied().unwrap_or(0);
        if total > 0 {
            entry.1.insert(country, (bytes as f64 / total as f64).to_bits());
        }
    }
    let mut rows: ProviderRows = by_asn
        .into_iter()
        .map(|(asn, (countries, shares))| {
            let org = provider_org.get(&Asn(asn)).cloned().unwrap_or_default();
            (asn, org, countries.into_iter().collect(), shares.into_iter().collect())
        })
        .collect();
    rows.sort_by(|a, b| b.2.len().cmp(&a.2.len()).then(a.0.cmp(&b.0)));
    rows
}

fn diversification_per_url(
    dataset: &GovDataset,
    hosting: &HostingAnalysis,
) -> DiversificationAnalysis {
    let mut url_counts: HashMap<CountryCode, HashMap<Asn, u64>> = HashMap::new();
    let mut byte_counts: HashMap<CountryCode, HashMap<Asn, u64>> = HashMap::new();
    for (url, host) in dataset.url_views() {
        let Some(asn) = host.asn else { continue };
        *url_counts.entry(host.country).or_default().entry(asn).or_default() += 1;
        *byte_counts.entry(host.country).or_default().entry(asn).or_default() += url.bytes;
    }
    let mut per_country = HashMap::new();
    for (country, urls) in &url_counts {
        let Some(shares) = hosting.per_country.get(country) else { continue };
        let mut url_vec: Vec<u64> = urls.values().copied().collect();
        url_vec.sort_unstable();
        let mut byte_vec: Vec<u64> = byte_counts[country].values().copied().collect();
        byte_vec.sort_unstable();
        let byte_total: u64 = byte_vec.iter().sum();
        let top = byte_vec.iter().max().copied().unwrap_or(0);
        per_country.insert(
            *country,
            CountryConcentration {
                dominant: shares.dominant_by_bytes(),
                hhi_urls: hhi_from_counts(&url_vec),
                hhi_bytes: hhi_from_counts(&byte_vec),
                top_network_byte_share: if byte_total > 0 {
                    top as f64 / byte_total as f64
                } else {
                    f64::NAN
                },
            },
        );
    }
    DiversificationAnalysis { per_country }
}

fn crossborder_per_url(dataset: &GovDataset) -> CrossBorderAnalysis {
    let mut out = CrossBorderAnalysis {
        registration: Default::default(),
        location: Default::default(),
        country_totals: HashMap::new(),
    };
    for (_, host) in dataset.url_views() {
        let totals = out.country_totals.entry(host.country).or_default();
        if let Some(reg) = host.registration {
            totals.0 += 1;
            if reg != host.country {
                *out.registration.flows.entry((host.country, reg)).or_default() += 1;
            }
        }
        if let Some(loc) = host.server_country {
            totals.1 += 1;
            if loc != host.country {
                *out.location.flows.entry((host.country, loc)).or_default() += 1;
            }
        }
    }
    out
}

/// The government side of App. D: `(urls, bytes, whois, geolocation)`
/// over the 14 comparison countries.
fn topsite_government_per_url(
    dataset: &GovDataset,
) -> ([u64; 4], [u64; 4], DomesticSplit, DomesticSplit) {
    let comparison: HashSet<CountryCode> = govhost_worldgen::countries::TOPSITE_COUNTRIES
        .iter()
        .map(|c| c.parse().expect("static code"))
        .collect();
    let (mut urls, mut bytes) = ([0u64; 4], [0u64; 4]);
    let (mut whois, mut geo) = (DomesticSplit::default(), DomesticSplit::default());
    for (url, host) in dataset.url_views() {
        if !comparison.contains(&host.country) {
            continue;
        }
        if let Some(category) = host.category {
            let idx = map_government_category(category).index();
            urls[idx] += 1;
            bytes[idx] += url.bytes;
        }
        if let Some(reg) = host.registration {
            add_one(&mut whois, reg == host.country);
        }
        if let Some(loc) = host.server_country {
            add_one(&mut geo, loc == host.country);
        }
    }
    (urls, bytes, whois, geo)
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// `BuildMetrics::measure` over the per-URL folds, rendered canonically.
fn metrics_per_url(dataset: &GovDataset) -> String {
    let hosting = hosting_per_url(dataset);
    let location = location_per_url(dataset);
    let providers = providers_per_url(dataset);
    let diversification = diversification_per_url(dataset, &hosting);
    let mut dark: BTreeMap<CountryCode, u64> = BTreeMap::new();
    let mut total: BTreeMap<CountryCode, u64> = BTreeMap::new();
    for (_url, host) in dataset.url_views() {
        *total.entry(host.country).or_default() += 1;
        if host.ip.is_none() {
            *dark.entry(host.country).or_default() += 1;
        }
    }
    let mut countries = BTreeMap::new();
    for code in dataset.countries() {
        let Some(stats) = dataset.country_stats(code) else { continue };
        let concentration = diversification.per_country.get(&code);
        countries.insert(
            code,
            CountryMetrics {
                urls: stats.urls,
                bytes: stats.bytes,
                hostnames: stats.hostnames,
                hhi_urls: concentration.map_or(0.0, |c| c.hhi_urls),
                hhi_bytes: concentration.map_or(0.0, |c| c.hhi_bytes),
                dominant: concentration.map(|c| c.dominant),
                offshore_percent: location.offshore_percent(code),
                dark_percent: percent(
                    dark.get(&code).copied().unwrap_or(0),
                    total.get(&code).copied().unwrap_or(0),
                ),
            },
        );
    }
    let n = countries.len().max(1) as f64;
    let metrics = BuildMetrics {
        mean_hhi_urls: countries.values().map(|c| c.hhi_urls).sum::<f64>() / n,
        mean_hhi_bytes: countries.values().map(|c| c.hhi_bytes).sum::<f64>() / n,
        state_led: countries
            .values()
            .filter(|c| c.dominant == Some(ProviderCategory::GovtSoe))
            .count(),
        countries,
        providers: BTreeMap::new(),
        third_party_urls: hosting.global_country_mean().third_party_urls(),
        dark_percent: percent(dark.values().sum(), total.values().sum()),
    };
    let footprints: Vec<(u32, String, usize)> =
        providers.into_iter().map(|(asn, org, cs, _)| (asn, org, cs.len())).collect();
    canon_metrics(&metrics, footprints)
}

// ---------------------------------------------------------------------
// Canonical renderings: every float as its bit pattern, every map in
// key order.
// ---------------------------------------------------------------------

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn canon_shares(s: &CategoryShares) -> (Vec<u64>, Vec<u64>) {
    (bits(&s.urls), bits(&s.bytes))
}

fn canon_hosting(h: &HostingAnalysis) -> String {
    let regions: BTreeMap<Region, _> =
        h.per_region.iter().map(|(r, s)| (*r, canon_shares(s))).collect();
    let countries: BTreeMap<CountryCode, _> =
        h.per_country.iter().map(|(c, s)| (*c, canon_shares(s))).collect();
    format!("{:?}\n{regions:?}\n{countries:?}", canon_shares(&h.global))
}

fn sorted<K: Ord + std::fmt::Debug>(m: &HashMap<K, DomesticSplit>) -> String {
    let m: BTreeMap<&K, &DomesticSplit> = m.iter().collect();
    format!("{m:?}")
}

fn canon_location(l: &LocationAnalysis) -> String {
    format!(
        "{:?}\n{:?}\n{}\n{}\n{}",
        l.registration,
        l.geolocation,
        sorted(&l.registration_by_region),
        sorted(&l.geolocation_by_region),
        sorted(&l.geolocation_by_country),
    )
}

fn canon_providers(p: &ProviderAnalysis) -> ProviderRows {
    p.providers
        .iter()
        .map(|f| {
            let mut shares: Vec<(CountryCode, u64)> =
                f.byte_share.iter().map(|(c, s)| (*c, s.to_bits())).collect();
            shares.sort();
            (f.asn.value(), f.org.clone(), f.countries_sorted(), shares)
        })
        .collect()
}

fn canon_diversification(d: &DiversificationAnalysis) -> String {
    let mut out = String::new();
    for (code, c) in d.sorted() {
        let _ = writeln!(
            out,
            "{code} {:?} {:?}",
            c.dominant,
            bits(&[c.hhi_urls, c.hhi_bytes, c.top_network_byte_share])
        );
    }
    out
}

fn canon_crossborder(x: &CrossBorderAnalysis) -> String {
    let totals: BTreeMap<CountryCode, (u64, u64)> =
        x.country_totals.iter().map(|(c, t)| (*c, *t)).collect();
    format!(
        "{:?}\n{:?}\n{totals:?}",
        x.registration.sorted_flows(),
        x.location.sorted_flows()
    )
}

fn canon_metrics(m: &BuildMetrics, providers: Vec<(u32, String, usize)>) -> String {
    let mut out = String::new();
    for (code, c) in &m.countries {
        let _ = writeln!(
            out,
            "{code} {} {} {} {:?} {:?} {:?} {}",
            c.urls,
            c.bytes,
            c.hostnames,
            bits(&[c.hhi_urls, c.hhi_bytes]),
            c.dominant,
            c.offshore_percent.map(f64::to_bits),
            c.dark_percent.to_bits(),
        );
    }
    let mut providers = providers;
    providers.sort();
    let _ = write!(
        out,
        "{providers:?}\n{:?} {} {:?}",
        bits(&[m.mean_hhi_urls, m.mean_hhi_bytes]),
        m.state_led,
        bits(&[m.third_party_urls, m.dark_percent]),
    );
    out
}

fn canon_measured(m: &BuildMetrics) -> String {
    let providers =
        m.providers.iter().map(|(asn, p)| (*asn, p.org.clone(), p.countries)).collect();
    canon_metrics(m, providers)
}

/// Every analysis and [`BuildMetrics`], host fold against per-URL
/// reference.
fn check_equal(dataset: &GovDataset) -> Result<(), String> {
    let hosting = HostingAnalysis::compute(dataset);
    prop_assert_eq!(canon_hosting(&hosting), canon_hosting(&hosting_per_url(dataset)));
    prop_assert_eq!(
        canon_location(&LocationAnalysis::compute(dataset)),
        canon_location(&location_per_url(dataset))
    );
    prop_assert_eq!(
        canon_providers(&ProviderAnalysis::compute(dataset)),
        providers_per_url(dataset)
    );
    prop_assert_eq!(
        canon_diversification(&DiversificationAnalysis::compute(dataset, &hosting)),
        canon_diversification(&diversification_per_url(dataset, &hosting))
    );
    prop_assert_eq!(
        canon_crossborder(&CrossBorderAnalysis::compute(dataset)),
        canon_crossborder(&crossborder_per_url(dataset))
    );
    prop_assert_eq!(canon_measured(&BuildMetrics::measure(dataset)), metrics_per_url(dataset));
    Ok(())
}

// ---------------------------------------------------------------------
// Arbitrary imported datasets.
// ---------------------------------------------------------------------

const COUNTRIES: [&str; 6] = ["MX", "BR", "US", "DE", "JP", "ZA"];
/// Few ASes and few names, so ASes recur across hosts and countries and
/// one AS often appears under two organisation names.
const ASNS: [u32; 3] = [13335, 16509, 64500];
const ORGS: [&str; 2] = ["Org A", "Org B"];

fn pick(bits: u64, shift: u32, len: usize) -> usize {
    (bits >> shift) as usize % len
}

fn country(bits: u64, shift: u32) -> CountryCode {
    COUNTRIES[pick(bits, shift, COUNTRIES.len())].parse().unwrap()
}

fn decode_host(i: usize, bits: u64) -> HostRecord {
    HostRecord {
        hostname: format!("h{i}.gov").parse().expect("valid hostname"),
        country: country(bits, 0),
        method: ClassificationMethod::GovTld,
        ip: (bits & 1 << 8 != 0).then_some(Ipv4Addr::from((bits >> 32) as u32)),
        asn: (bits & 1 << 9 != 0).then(|| Asn(ASNS[pick(bits, 10, ASNS.len())])),
        org: (bits & 1 << 12 != 0).then(|| ORGS[pick(bits, 13, ORGS.len())].to_string()),
        registration: (bits & 1 << 14 != 0).then(|| country(bits, 15)),
        state_operated: false,
        // Global half the time: the provider fold only counts those.
        category: match pick(bits, 18, 8) {
            0 => None,
            1 => Some(ProviderCategory::GovtSoe),
            2 => Some(ProviderCategory::ThirdPartyLocal),
            3 => Some(ProviderCategory::ThirdPartyRegional),
            _ => Some(ProviderCategory::ThirdPartyGlobal),
        },
        server_country: (bits & 1 << 21 != 0).then(|| country(bits, 22)),
        anycast: false,
        geo_excluded: bits & 1 << 21 == 0,
    }
}

/// `(host bits, url rows as (host pick, bytes))`.
type Case = (Vec<u64>, Vec<(u64, u64)>);

fn arb_case() -> Gen<Case> {
    let bytes = gens::one_of(vec![Gen::constant(0), gens::u64_range(0, 5000)]);
    gens::vec(gens::u64_any(), 1, 10).zip(gens::vec(gens::u64_any().zip(bytes), 0, 40))
}

/// The case exported and imported: the dataset as `govhost analyze`
/// would load it, with `hosts.csv` in generation order and the URL rows
/// meeting the hosts in whatever order the picks give.
fn dataset_of((host_bits, rows): &Case) -> Result<GovDataset, String> {
    let hosts: Vec<HostRecord> =
        host_bits.iter().enumerate().map(|(i, b)| decode_host(i, *b)).collect();
    let mut host_ids = HostInterner::new();
    for h in &hosts {
        host_ids.intern(&h.hostname);
    }
    let mut urls = UrlTable::new();
    for (j, (pick, bytes)) in rows.iter().enumerate() {
        let host = host_ids.get(&hosts[*pick as usize % hosts.len()].hostname).unwrap();
        urls.push(Scheme::Https, host, &format!("/p{j}"), *bytes);
    }
    let built = GovDataset {
        hosts,
        urls,
        host_ids,
        validation: Default::default(),
        method_counts: [0; 3],
        crawl_failures: 0,
        per_country: HashMap::new(),
        timings: Default::default(),
        telemetry: Default::default(),
    };
    import_csv_full(&export_csv(&built)).map(|(ds, _)| ds).map_err(|e| e.to_string())
}

/// Which of the generator's required shapes a dataset shows.
#[derive(Default)]
struct Shapes {
    hosts_without_urls: Cell<usize>,
    reordered: Cell<usize>,
    asn_two_orgs: Cell<usize>,
    zero_byte_urls: Cell<usize>,
}

impl Shapes {
    fn record(&self, ds: &GovDataset) {
        let bump = |c: &Cell<usize>, hit: bool| c.set(c.get() + usize::from(hit));
        let mut first_seen: Vec<u32> = Vec::new();
        for (url, _) in ds.url_views() {
            if !first_seen.contains(&url.host.raw()) {
                first_seen.push(url.host.raw());
            }
        }
        bump(&self.hosts_without_urls, first_seen.len() < ds.hosts.len());
        bump(&self.reordered, first_seen.windows(2).any(|w| w[0] > w[1]));
        let mut orgs: HashMap<Asn, BTreeSet<&str>> = HashMap::new();
        for (_, host) in ds.url_views() {
            if let (Some(asn), Some(org)) = (host.asn, &host.org) {
                orgs.entry(asn).or_default().insert(org);
            }
        }
        bump(&self.asn_two_orgs, orgs.values().any(|o| o.len() > 1));
        bump(&self.zero_byte_urls, ds.urls.iter().any(|u| u.bytes == 0));
    }
}

#[test]
fn host_fold_equals_per_url_fold_on_arbitrary_imported_datasets() {
    let shapes = Shapes::default();
    cfg("host_fold_equals_per_url_fold_on_arbitrary_imported_datasets").run(
        &arb_case(),
        |case| {
            let ds = dataset_of(case)?;
            shapes.record(&ds);
            check_equal(&ds)
        },
    );
    for (name, count) in [
        ("hosts without URLs", &shapes.hosts_without_urls),
        ("hosts.csv order unlike first-URL order", &shapes.reordered),
        ("one AS under two org names", &shapes.asn_two_orgs),
        ("zero-byte URLs", &shapes.zero_byte_urls),
    ] {
        assert!(count.get() > 0, "the generator never produced {name}");
    }
}

#[test]
fn host_volumes_roll_up_the_url_table() {
    cfg("host_volumes_roll_up_the_url_table").run(&arb_case(), |case| {
        let ds = dataset_of(case)?;
        let mut expected: Vec<(u32, u64, u64)> = Vec::new();
        for u in ds.urls.iter() {
            match expected.iter_mut().find(|e| e.0 == u.host.raw()) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += u.bytes;
                }
                None => expected.push((u.host.raw(), 1, u.bytes)),
            }
        }
        let got: Vec<(u32, u64, u64)> =
            ds.host_volumes().map(|v| (v.id.raw(), v.urls, v.bytes)).collect();
        prop_assert_eq!(got, expected);
        for v in ds.host_volumes() {
            prop_assert!(std::ptr::eq(v.host, ds.host(v.id)), "record of {:?}", v.id);
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// A fixed case: every year of a tiny evolve.
// ---------------------------------------------------------------------

#[test]
fn host_fold_equals_per_url_fold_over_a_tiny_evolve() {
    const YEARS: u32 = 4;
    let params = GenParams::tiny();
    let options = BuildOptions::default();
    let systems = default_systems();
    let timeline = evolve_with_systems(&mut World::generate(&params), YEARS, &options, &systems)
        .expect("tiny world evolves")
        .timeline;

    // The same evolve by hand, keeping each year's dataset.
    let mut world = World::generate(&params);
    let (mut dataset, _, mut cache): (GovDataset, _, BuildCache) =
        GovDataset::build_cached(&world, &options).expect("builds");
    for year in 0..=YEARS {
        if year > 0 {
            let report = run_year(&mut world, year, &systems);
            dataset = GovDataset::rebuild_incremental(&world, &options, &mut cache, &report.dirty)
                .expect("rebuilds")
                .0;
        }
        check_equal(&dataset).unwrap_or_else(|e| panic!("year {year}: {e}"));
        let measured = &timeline.years[year as usize].metrics;
        assert_eq!(canon_measured(measured), metrics_per_url(&dataset), "year {year}");

        let (urls, bytes, whois, geo) = topsite_government_per_url(&dataset);
        let topsites = TopsiteAnalysis::compute(&world, &dataset);
        let (u_total, b_total) = (urls.iter().sum::<u64>(), bytes.iter().sum::<u64>());
        for i in 0..4 {
            let share = |n: u64, total: u64| if total > 0 { n as f64 / total as f64 } else { 0.0 };
            assert_eq!(topsites.government.urls[i].to_bits(), share(urls[i], u_total).to_bits());
            assert_eq!(topsites.government.bytes[i].to_bits(), share(bytes[i], b_total).to_bits());
        }
        assert_eq!(topsites.government_domestic, (whois, geo), "year {year}");
    }
}
