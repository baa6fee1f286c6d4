//! §5.1–5.2: trends in government hosting (Figs. 1, 2, 4).

use crate::dataset::{GovDataset, HostVolume};
use govhost_types::{CountryCode, ProviderCategory, Region};
use govhost_worldgen::countries::region_of;
use std::collections::HashMap;

/// URL and byte shares across the four provider categories, indexed by
/// [`ProviderCategory::index`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CategoryShares {
    /// Fraction of URLs per category.
    pub urls: [f64; 4],
    /// Fraction of bytes per category.
    pub bytes: [f64; 4],
}

impl CategoryShares {
    /// Share of URLs on any third-party category.
    pub fn third_party_urls(&self) -> f64 {
        ProviderCategory::ALL
            .iter()
            .filter(|c| c.is_third_party())
            .map(|c| self.urls[c.index()])
            .sum()
    }

    /// Share of bytes on any third-party category.
    pub fn third_party_bytes(&self) -> f64 {
        ProviderCategory::ALL
            .iter()
            .filter(|c| c.is_third_party())
            .map(|c| self.bytes[c.index()])
            .sum()
    }

    /// The category carrying the most bytes.
    pub fn dominant_by_bytes(&self) -> ProviderCategory {
        *ProviderCategory::ALL
            .iter()
            .max_by(|a, b| {
                self.bytes[a.index()]
                    .partial_cmp(&self.bytes[b.index()])
                    .expect("finite shares")
            })
            .expect("four categories")
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    urls: [u64; 4],
    bytes: [u64; 4],
}

impl Tally {
    fn add(&mut self, category: ProviderCategory, urls: u64, bytes: u64) {
        self.urls[category.index()] += urls;
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

/// The §5 hosting-trends analysis.
#[derive(Debug, Clone)]
pub struct HostingAnalysis {
    /// Global shares (Fig. 2).
    pub global: CategoryShares,
    /// Per-region shares (Fig. 4).
    pub per_region: HashMap<Region, CategoryShares>,
    /// Per-country shares (input to Figs. 1 and 5).
    pub per_country: HashMap<CountryCode, CategoryShares>,
}

impl HostingAnalysis {
    /// Compute URL/byte category shares at every aggregation level.
    /// URLs whose hosts could not be categorized (resolution failures)
    /// are skipped, as in the paper.
    pub fn compute(dataset: &GovDataset) -> HostingAnalysis {
        let mut global = Tally::default();
        let mut per_region: HashMap<Region, Tally> = HashMap::new();
        let mut per_country: HashMap<CountryCode, Tally> = HashMap::new();
        for HostVolume { host, urls, bytes, .. } in dataset.host_volumes() {
            let Some(category) = host.category else { continue };
            global.add(category, urls, bytes);
            per_country.entry(host.country).or_default().add(category, urls, bytes);
            if let Some(region) = region_of(host.country) {
                per_region.entry(region).or_default().add(category, urls, bytes);
            }
        }
        HostingAnalysis {
            global: global.shares(),
            per_region: per_region.into_iter().map(|(k, v)| (k, v.shares())).collect(),
            per_country: per_country.into_iter().map(|(k, v)| (k, v.shares())).collect(),
        }
    }

    /// One country's category shares, if the country produced any
    /// categorized URLs (the lookup behind `/country/{iso}` in
    /// `govhost-serve`).
    pub fn country(&self, code: CountryCode) -> Option<&CategoryShares> {
        self.per_country.get(&code)
    }

    /// Country-averaged global shares: each country contributes equally,
    /// regardless of how many URLs its crawl produced.
    ///
    /// The paper's Fig. 2 cannot be URL-weighted given its own Table 8
    /// (Belgium and Hungary alone hold 44% of all URLs, yet the global
    /// Govt&SOE share exceeds the ECA regional one) — the figure is
    /// consistent with equal country weighting, so we provide both.
    pub fn global_country_mean(&self) -> CategoryShares {
        let n = self.per_country.len();
        if n == 0 {
            return CategoryShares::default();
        }
        // Fold in sorted country order: HashMap iteration order would
        // otherwise vary the float summation order and flip last-ULP
        // bits between two computes over equal datasets.
        let mut codes: Vec<CountryCode> = self.per_country.keys().copied().collect();
        codes.sort_unstable();
        let mut out = CategoryShares::default();
        for code in codes {
            let shares = &self.per_country[&code];
            for i in 0..4 {
                out.urls[i] += shares.urls[i] / n as f64;
                out.bytes[i] += shares.bytes[i] / n as f64;
            }
        }
        out
    }

    /// Fig. 1's world map: per country, does the majority of bytes come
    /// from third parties (`true`) or from Govt&SOE (`false`)?
    pub fn majority_third_party(&self) -> HashMap<CountryCode, bool> {
        self.per_country
            .iter()
            .map(|(c, shares)| (*c, shares.third_party_bytes() > 0.5))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassificationMethod;
    use crate::dataset::HostRecord;
    use crate::table::UrlTable;
    use govhost_types::url::Scheme;
    use govhost_types::{cc, HostId, HostInterner};

    fn mini_dataset() -> GovDataset {
        // Two countries; AR global-heavy, UY government-heavy.
        let mk_host = |name: &str, country: CountryCode, cat: ProviderCategory| HostRecord {
            hostname: name.parse().unwrap(),
            country,
            method: ClassificationMethod::GovTld,
            ip: None,
            asn: None,
            org: None,
            registration: None,
            state_operated: cat == ProviderCategory::GovtSoe,
            category: Some(cat),
            server_country: Some(country),
            anycast: false,
            geo_excluded: false,
        };
        let hosts = vec![
            mk_host("a.gob.ar", cc!("AR"), ProviderCategory::ThirdPartyGlobal),
            mk_host("b.gob.ar", cc!("AR"), ProviderCategory::GovtSoe),
            mk_host("c.gub.uy", cc!("UY"), ProviderCategory::GovtSoe),
        ];
        let mut host_ids = HostInterner::new();
        for h in &hosts {
            host_ids.intern(&h.hostname);
        }
        let mut urls = UrlTable::new();
        // AR: 3 URLs global (100 bytes each), 1 URL govt (50 bytes).
        urls.push(Scheme::Https, HostId::new(0), "/r0", 100);
        urls.push(Scheme::Https, HostId::new(0), "/r1", 100);
        urls.push(Scheme::Https, HostId::new(0), "/r2", 100);
        urls.push(Scheme::Https, HostId::new(1), "/r3", 50);
        // UY: 2 URLs govt.
        urls.push(Scheme::Https, HostId::new(2), "/r4", 500);
        urls.push(Scheme::Https, HostId::new(2), "/r5", 500);
        let mut per_country = HashMap::new();
        per_country.insert(cc!("AR"), Default::default());
        per_country.insert(cc!("UY"), Default::default());
        GovDataset {
            hosts,
            urls,
            host_ids,
            validation: Default::default(),
            method_counts: [6, 0, 0],
            crawl_failures: 0,
            per_country,
            timings: Default::default(),
            telemetry: Default::default(),
        }
    }

    #[test]
    fn per_country_shares() {
        let analysis = HostingAnalysis::compute(&mini_dataset());
        let ar = analysis.per_country[&cc!("AR")];
        assert!((ar.urls[ProviderCategory::ThirdPartyGlobal.index()] - 0.75).abs() < 1e-12);
        assert!((ar.urls[ProviderCategory::GovtSoe.index()] - 0.25).abs() < 1e-12);
        assert!((ar.bytes[ProviderCategory::ThirdPartyGlobal.index()] - 300.0 / 350.0).abs() < 1e-12);
        let uy = analysis.per_country[&cc!("UY")];
        assert_eq!(uy.urls[ProviderCategory::GovtSoe.index()], 1.0);
    }

    #[test]
    fn global_shares_pool_countries() {
        let analysis = HostingAnalysis::compute(&mini_dataset());
        // 6 URLs total: 3 global, 3 govt.
        assert!((analysis.global.urls[ProviderCategory::ThirdPartyGlobal.index()] - 0.5).abs() < 1e-12);
        assert!((analysis.global.third_party_urls() - 0.5).abs() < 1e-12);
        // Bytes: global 300, govt 1050.
        assert!((analysis.global.bytes[ProviderCategory::GovtSoe.index()] - 1050.0 / 1350.0).abs() < 1e-12);
    }

    #[test]
    fn majority_map_matches_fig1_semantics() {
        let analysis = HostingAnalysis::compute(&mini_dataset());
        let map = analysis.majority_third_party();
        assert!(map[&cc!("AR")], "AR is third-party-majority by bytes? 300 vs 50 yes");
        assert!(!map[&cc!("UY")]);
    }

    #[test]
    fn regional_aggregation_uses_world_bank_regions() {
        let analysis = HostingAnalysis::compute(&mini_dataset());
        let lac = analysis.per_region[&Region::LatinAmericaCaribbean];
        // All six URLs are LAC.
        let total: f64 = lac.urls.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn country_mean_weighs_countries_equally() {
        let analysis = HostingAnalysis::compute(&mini_dataset());
        let mean = analysis.global_country_mean();
        // AR: global .75 URLs; UY: global 0. Equal weights -> .375,
        // whereas URL-weighted would be 3/6 = .5.
        assert!((mean.urls[ProviderCategory::ThirdPartyGlobal.index()] - 0.375).abs() < 1e-12);
        let total: f64 = mean.urls.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dominant_by_bytes() {
        let analysis = HostingAnalysis::compute(&mini_dataset());
        assert_eq!(
            analysis.per_country[&cc!("UY")].dominant_by_bytes(),
            ProviderCategory::GovtSoe
        );
    }
}
