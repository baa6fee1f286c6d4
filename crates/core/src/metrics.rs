//! One reduction of a built dataset to the paper's headline numbers.
//!
//! [`BuildMetrics::measure`] runs the §5.1 hosting, §6 location, §7.1
//! provider and §7.2 diversification analyses once and keeps, per
//! country, the URL/byte volume, the Fig. 11 HHIs, the dominant hosting
//! source and the offshore share, plus the *dark fraction*: the share
//! of government URLs on hosts that do not resolve. Around them sit the
//! global-provider footprints and the study-wide means.
//!
//! It is the only function that reduces a [`GovDataset`] to these
//! numbers. The evolve timeline ([`crate::evolve::YearMetrics`]) holds
//! one per simulated year, and the what-if engine (`govhost-scenario`)
//! diffs a baseline's against a shocked build's. All folds run in
//! `BTreeMap` (country-code) order, so the same dataset always yields
//! bit-identical metrics.

use crate::dataset::GovDataset;
use crate::diversification::DiversificationAnalysis;
use crate::hosting::HostingAnalysis;
use crate::location::LocationAnalysis;
use crate::providers::ProviderAnalysis;
use govhost_types::{CountryCode, ProviderCategory};
use std::collections::BTreeMap;

/// One country's headline numbers in one build.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryMetrics {
    /// Government URLs captured.
    pub urls: u64,
    /// Government bytes captured.
    pub bytes: u64,
    /// Distinct government hostnames.
    pub hostnames: u32,
    /// HHI of URLs across serving networks (Fig. 11 lens).
    pub hhi_urls: f64,
    /// HHI of bytes across serving networks.
    pub hhi_bytes: f64,
    /// Dominant hosting source by bytes, when computable.
    pub dominant: Option<ProviderCategory>,
    /// Share of URLs served from outside the country, in percent (§6),
    /// when geolocation validated at least one address.
    pub offshore_percent: Option<f64>,
    /// Share of URLs on hosts that do not resolve, in percent.
    pub dark_percent: f64,
}

/// One global provider's footprint in one build.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderFootprint {
    /// WHOIS organization name.
    pub org: String,
    /// Governments with at least one URL on this AS.
    pub countries: usize,
}

/// A whole build reduced to comparable numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildMetrics {
    /// Per-country metrics, keyed and ordered by country code.
    pub countries: BTreeMap<CountryCode, CountryMetrics>,
    /// Global-provider footprints, keyed by AS number.
    pub providers: BTreeMap<u32, ProviderFootprint>,
    /// Mean URL-HHI across measured countries.
    pub mean_hhi_urls: f64,
    /// Mean byte-HHI across measured countries.
    pub mean_hhi_bytes: f64,
    /// Countries whose dominant byte source is Govt&SOE.
    pub state_led: usize,
    /// Country-averaged third-party URL share (Fig. 2 lens).
    pub third_party_urls: f64,
    /// Share of all URLs on unresolving hosts, in percent.
    pub dark_percent: f64,
}

impl BuildMetrics {
    /// Measure one built dataset.
    pub fn measure(dataset: &GovDataset) -> BuildMetrics {
        let hosting = HostingAnalysis::compute(dataset);
        let location = LocationAnalysis::compute(dataset);
        let providers = ProviderAnalysis::compute(dataset);
        let diversification = DiversificationAnalysis::compute(dataset, &hosting);
        // Dark URLs: the URL table joined back to host records, counting
        // those whose host never resolved to an address.
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
        // Means fold in BTreeMap (country) order, so the float summation
        // order — and therefore the last ULP — is deterministic.
        let n = countries.len().max(1) as f64;
        let mean_hhi_urls = countries.values().map(|c| c.hhi_urls).sum::<f64>() / n;
        let mean_hhi_bytes = countries.values().map(|c| c.hhi_bytes).sum::<f64>() / n;
        let state_led = countries
            .values()
            .filter(|c| c.dominant == Some(ProviderCategory::GovtSoe))
            .count();
        BuildMetrics {
            countries,
            providers: providers
                .providers
                .iter()
                .map(|p| {
                    let footprint =
                        ProviderFootprint { org: p.org.clone(), countries: p.countries.len() };
                    (p.asn.value(), footprint)
                })
                .collect(),
            mean_hhi_urls,
            mean_hhi_bytes,
            state_led,
            third_party_urls: hosting.global_country_mean().third_party_urls(),
            dark_percent: percent(dark.values().sum(), total.values().sum()),
        }
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}
