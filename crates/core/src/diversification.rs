//! §7.2: diversification of hosting providers (Fig. 11).
//!
//! Per country, the HHI of URLs (and bytes) across serving *networks*
//! (ASes), grouped by the country's dominant hosting source. The paper's
//! finding: Govt&SOE-led countries are far more concentrated (63% serve
//! over half their bytes from one network) than 3P-Global-led ones (32%).

use crate::dataset::{GovDataset, HostVolume};
use crate::hosting::HostingAnalysis;
use govhost_stats::boxplot::FiveNumberSummary;
use govhost_stats::hhi::hhi_from_counts;
use govhost_types::{Asn, CountryCode, ProviderCategory};
use std::collections::HashMap;

/// Per-country concentration measures.
#[derive(Debug, Clone, Copy)]
pub struct CountryConcentration {
    /// Dominant hosting source (by bytes).
    pub dominant: ProviderCategory,
    /// HHI of URLs across networks.
    pub hhi_urls: f64,
    /// HHI of bytes across networks.
    pub hhi_bytes: f64,
    /// Byte share of the single largest network.
    pub top_network_byte_share: f64,
}

/// The Fig. 11 analysis.
#[derive(Debug, Clone)]
pub struct DiversificationAnalysis {
    /// Per-country concentration.
    pub per_country: HashMap<CountryCode, CountryConcentration>,
}

impl DiversificationAnalysis {
    /// Compute network-level HHIs per country.
    pub fn compute(dataset: &GovDataset, hosting: &HostingAnalysis) -> DiversificationAnalysis {
        let mut url_counts: HashMap<CountryCode, HashMap<Asn, u64>> = HashMap::new();
        let mut byte_counts: HashMap<CountryCode, HashMap<Asn, u64>> = HashMap::new();
        for HostVolume { host, urls, bytes, .. } in dataset.host_volumes() {
            let Some(asn) = host.asn else { continue };
            *url_counts.entry(host.country).or_default().entry(asn).or_default() += urls;
            *byte_counts.entry(host.country).or_default().entry(asn).or_default() += bytes;
        }
        let mut per_country = HashMap::new();
        for (country, urls) in &url_counts {
            let Some(shares) = hosting.per_country.get(country) else { continue };
            // Sort the per-network counts before the HHI float fold:
            // HashMap iteration order would otherwise vary the summation
            // order and flip last-ULP bits between runs.
            let mut url_vec: Vec<u64> = urls.values().copied().collect();
            url_vec.sort_unstable();
            let bytes = &byte_counts[country];
            let mut byte_vec: Vec<u64> = bytes.values().copied().collect();
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

    /// Per-country concentrations in deterministic country-code order —
    /// the filterable view exports and the serve layer iterate (the
    /// backing `HashMap` iterates in arbitrary order).
    pub fn sorted(&self) -> Vec<(CountryCode, CountryConcentration)> {
        let mut out: Vec<(CountryCode, CountryConcentration)> =
            self.per_country.iter().map(|(c, v)| (*c, *v)).collect();
        out.sort_by_key(|&(c, _)| c);
        out
    }

    /// HHI distributions per dominant category: `(category, urls summary,
    /// bytes summary)` — the boxplot rows of Fig. 11. Categories with no
    /// countries are omitted.
    pub fn boxplots(
        &self,
    ) -> Vec<(ProviderCategory, FiveNumberSummary, FiveNumberSummary)> {
        let mut out = Vec::new();
        for category in ProviderCategory::ALL {
            let urls: Vec<f64> = self
                .per_country
                .values()
                .filter(|c| c.dominant == category)
                .map(|c| c.hhi_urls)
                .collect();
            let bytes: Vec<f64> = self
                .per_country
                .values()
                .filter(|c| c.dominant == category)
                .map(|c| c.hhi_bytes)
                .collect();
            if let (Some(u), Some(b)) =
                (FiveNumberSummary::of(&urls), FiveNumberSummary::of(&bytes))
            {
                out.push((category, u, b));
            }
        }
        out
    }

    /// Fraction of countries in `category` that serve over half their
    /// bytes from a single network (the paper: 63% for Govt&SOE vs 32%
    /// for 3P Global).
    pub fn single_network_majority_rate(&self, category: ProviderCategory) -> f64 {
        let members: Vec<&CountryConcentration> =
            self.per_country.values().filter(|c| c.dominant == category).collect();
        if members.is_empty() {
            return f64::NAN;
        }
        let heavy = members.iter().filter(|c| c.top_network_byte_share > 0.5).count();
        heavy as f64 / members.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassificationMethod;
    use crate::dataset::HostRecord;
    use crate::hosting::HostingAnalysis;
    use crate::table::UrlTable;
    use govhost_types::url::Scheme;
    use govhost_types::{cc, HostId, HostInterner};

    /// UY: every URL on one government AS (HHI 1). AR: URLs spread over
    /// four provider ASes (HHI 0.25).
    fn dataset() -> GovDataset {
        let mk_host = |name: &str, country: CountryCode, asn: u32, cat: ProviderCategory| {
            HostRecord {
                hostname: name.parse().unwrap(),
                country,
                method: ClassificationMethod::GovTld,
                ip: None,
                asn: Some(Asn(asn)),
                org: None,
                registration: Some(country),
                state_operated: cat == ProviderCategory::GovtSoe,
                category: Some(cat),
                server_country: Some(country),
                anycast: false,
                geo_excluded: false,
            }
        };
        let mut hosts = vec![mk_host("a.gub.uy", cc!("UY"), 6057, ProviderCategory::GovtSoe)];
        for (i, asn) in [13335u32, 16509, 8075, 24940].iter().enumerate() {
            hosts.push(mk_host(
                &format!("h{i}.gob.ar"),
                cc!("AR"),
                *asn,
                ProviderCategory::ThirdPartyGlobal,
            ));
        }
        let mut host_ids = HostInterner::new();
        for h in &hosts {
            host_ids.intern(&h.hostname);
        }
        let mut urls = UrlTable::new();
        for n in 0..4 {
            urls.push(Scheme::Https, HostId::new(0), &format!("/r{n}"), 100);
        }
        for host in 1..=4 {
            urls.push(Scheme::Https, HostId::new(host), "/r", 100);
        }
        GovDataset {
            hosts,
            urls,
            host_ids,
            validation: Default::default(),
            method_counts: [8, 0, 0],
            crawl_failures: 0,
            per_country: HashMap::new(),
            timings: Default::default(),
            telemetry: Default::default(),
        }
    }

    #[test]
    fn hhi_extremes() {
        let ds = dataset();
        let hosting = HostingAnalysis::compute(&ds);
        let div = DiversificationAnalysis::compute(&ds, &hosting);
        let uy = div.per_country[&cc!("UY")];
        assert!((uy.hhi_urls - 1.0).abs() < 1e-12, "single network = HHI 1");
        assert_eq!(uy.dominant, ProviderCategory::GovtSoe);
        let ar = div.per_country[&cc!("AR")];
        assert!((ar.hhi_urls - 0.25).abs() < 1e-12, "four equal networks = HHI 0.25");
        assert_eq!(ar.dominant, ProviderCategory::ThirdPartyGlobal);
    }

    #[test]
    fn single_network_majority_rates() {
        let ds = dataset();
        let hosting = HostingAnalysis::compute(&ds);
        let div = DiversificationAnalysis::compute(&ds, &hosting);
        assert!((div.single_network_majority_rate(ProviderCategory::GovtSoe) - 1.0).abs() < 1e-12);
        assert!(
            (div.single_network_majority_rate(ProviderCategory::ThirdPartyGlobal) - 0.0).abs()
                < 1e-12
        );
        assert!(div
            .single_network_majority_rate(ProviderCategory::ThirdPartyRegional)
            .is_nan());
    }

    #[test]
    fn boxplots_only_for_present_categories() {
        let ds = dataset();
        let hosting = HostingAnalysis::compute(&ds);
        let div = DiversificationAnalysis::compute(&ds, &hosting);
        let plots = div.boxplots();
        assert_eq!(plots.len(), 2, "only Govt&SOE and 3P Global have members");
        for (_, urls, bytes) in plots {
            assert!(urls.min >= 0.0 && urls.max <= 1.0);
            assert!(bytes.min >= 0.0 && bytes.max <= 1.0);
        }
    }
}
