//! §7.1: the role of global providers (Fig. 10).
//!
//! "Global provider" here is *measured*: an AS classified 3P Global by the
//! §5.1 pass (non-state, serving governments in multiple regions). For
//! each such AS the analysis counts the governments relying on it and the
//! byte share it carries within each country.

use crate::dataset::{GovDataset, HostVolume};
use govhost_types::{Asn, CountryCode, ProviderCategory};
use std::collections::{HashMap, HashSet};

/// One global provider's observed role.
#[derive(Debug, Clone)]
pub struct ProviderFootprint {
    /// The AS.
    pub asn: Asn,
    /// Organization name (from WHOIS).
    pub org: String,
    /// Governments with at least one URL on this AS.
    pub countries: HashSet<CountryCode>,
    /// Byte share of this AS within each country it serves.
    pub byte_share: HashMap<CountryCode, f64>,
}

impl ProviderFootprint {
    /// The served countries in sorted order — a deterministic view of
    /// the `HashSet` for export and serving.
    pub fn countries_sorted(&self) -> Vec<CountryCode> {
        let mut out: Vec<CountryCode> = self.countries.iter().copied().collect();
        out.sort();
        out
    }

    /// The country where this provider carries its biggest byte share
    /// (ties go to the alphabetically first country, so the answer does
    /// not depend on `HashMap` iteration order).
    pub fn peak_share(&self) -> Option<(CountryCode, f64)> {
        self.byte_share
            .iter()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1).expect("finite shares").then_with(|| b.0.cmp(a.0))
            })
            .map(|(c, s)| (*c, *s))
    }
}

/// The Fig. 10 analysis.
#[derive(Debug, Clone)]
pub struct ProviderAnalysis {
    /// Footprints, sorted by country count descending (the histogram's
    /// x-axis order).
    pub providers: Vec<ProviderFootprint>,
}

impl ProviderAnalysis {
    /// Compute provider footprints from the dataset.
    pub fn compute(dataset: &GovDataset) -> ProviderAnalysis {
        // Byte totals per (asn, country) for global-category hosts, and
        // per country overall.
        let mut provider_bytes: HashMap<(Asn, CountryCode), u64> = HashMap::new();
        let mut provider_org: HashMap<Asn, String> = HashMap::new();
        let mut country_bytes: HashMap<CountryCode, u64> = HashMap::new();
        // Hosts arrive in first-URL order, so the first org string seen
        // per AS is the one a per-URL pass would keep.
        for HostVolume { host, bytes, .. } in dataset.host_volumes() {
            *country_bytes.entry(host.country).or_default() += bytes;
            if host.category != Some(ProviderCategory::ThirdPartyGlobal) {
                continue;
            }
            let Some(asn) = host.asn else { continue };
            *provider_bytes.entry((asn, host.country)).or_default() += bytes;
            if let Some(org) = &host.org {
                provider_org.entry(asn).or_insert_with(|| org.clone());
            }
        }
        let mut by_asn: HashMap<Asn, ProviderFootprint> = HashMap::new();
        for ((asn, country), bytes) in provider_bytes {
            let entry = by_asn.entry(asn).or_insert_with(|| ProviderFootprint {
                asn,
                org: provider_org.get(&asn).cloned().unwrap_or_default(),
                countries: HashSet::new(),
                byte_share: HashMap::new(),
            });
            entry.countries.insert(country);
            let total = country_bytes.get(&country).copied().unwrap_or(0);
            if total > 0 {
                entry.byte_share.insert(country, bytes as f64 / total as f64);
            }
        }
        let mut providers: Vec<ProviderFootprint> = by_asn.into_values().collect();
        providers.sort_by(|a, b| {
            b.countries.len().cmp(&a.countries.len()).then(a.asn.cmp(&b.asn))
        });
        ProviderAnalysis { providers }
    }

    /// The provider reaching the most governments (Cloudflare in the
    /// paper, 49 of 61).
    pub fn leader(&self) -> Option<&ProviderFootprint> {
        self.providers.first()
    }

    /// Histogram pairs `(asn, #countries)` in display order.
    pub fn histogram(&self) -> Vec<(Asn, usize)> {
        self.providers.iter().map(|p| (p.asn, p.countries.len())).collect()
    }

    /// Footprint of a specific AS.
    pub fn by_asn(&self, asn: Asn) -> Option<&ProviderFootprint> {
        self.providers.iter().find(|p| p.asn == asn)
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

    fn dataset() -> GovDataset {
        let mk_host = |name: &str, country: CountryCode, asn: u32, cat: ProviderCategory| {
            HostRecord {
                hostname: name.parse().unwrap(),
                country,
                method: ClassificationMethod::GovTld,
                ip: None,
                asn: Some(Asn(asn)),
                org: Some(format!("Org {asn}")),
                registration: Some(cc!("US")),
                state_operated: cat == ProviderCategory::GovtSoe,
                category: Some(cat),
                server_country: Some(country),
                anycast: false,
                geo_excluded: false,
            }
        };
        let hosts = vec![
            mk_host("a.gob.ar", cc!("AR"), 13335, ProviderCategory::ThirdPartyGlobal),
            mk_host("b.gov.br", cc!("BR"), 13335, ProviderCategory::ThirdPartyGlobal),
            mk_host("c.gov.br", cc!("BR"), 16509, ProviderCategory::ThirdPartyGlobal),
            mk_host("d.gov.br", cc!("BR"), 64500, ProviderCategory::GovtSoe),
        ];
        let mut host_ids = HostInterner::new();
        for h in &hosts {
            host_ids.intern(&h.hostname);
        }
        let mut urls = UrlTable::new();
        urls.push(Scheme::Https, HostId::new(0), "/r0", 100); // AR on Cloudflare
        urls.push(Scheme::Https, HostId::new(1), "/r1", 300); // BR on Cloudflare
        urls.push(Scheme::Https, HostId::new(2), "/r2", 100); // BR on Amazon
        urls.push(Scheme::Https, HostId::new(3), "/r3", 600); // BR on government
        GovDataset {
            hosts,
            urls,
            host_ids,
            validation: Default::default(),
            method_counts: [4, 0, 0],
            crawl_failures: 0,
            per_country: HashMap::new(),
            timings: Default::default(),
            telemetry: Default::default(),
        }
    }

    #[test]
    fn leader_and_histogram() {
        let a = ProviderAnalysis::compute(&dataset());
        let leader = a.leader().unwrap();
        assert_eq!(leader.asn, Asn(13335));
        assert_eq!(leader.countries.len(), 2);
        assert_eq!(a.histogram(), vec![(Asn(13335), 2), (Asn(16509), 1)]);
    }

    #[test]
    fn byte_shares_within_country() {
        let a = ProviderAnalysis::compute(&dataset());
        let cf = a.by_asn(Asn(13335)).unwrap();
        // BR total bytes 1000, Cloudflare 300.
        assert!((cf.byte_share[&cc!("BR")] - 0.3).abs() < 1e-12);
        // AR total bytes 100, all Cloudflare.
        assert!((cf.byte_share[&cc!("AR")] - 1.0).abs() < 1e-12);
        assert_eq!(cf.peak_share().unwrap().0, cc!("AR"));
    }

    #[test]
    fn non_global_categories_excluded() {
        let a = ProviderAnalysis::compute(&dataset());
        assert!(a.by_asn(Asn(64500)).is_none(), "government AS is not a global provider");
    }
}
