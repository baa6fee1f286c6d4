//! §6.1–6.2: hosting registration and server locations (Figs. 6, 8).
//!
//! Two lenses per URL: the WHOIS *registration* country of the serving
//! organization, and the validated *physical location* of the server.
//! Both are split Domestic vs International relative to the government
//! the URL belongs to. URLs whose addresses the geolocation stage
//! excluded are left out of the location lens, per the paper's
//! conservative policy.

use crate::dataset::{GovDataset, HostVolume};
use govhost_types::{CountryCode, Region};
use govhost_worldgen::countries::region_of;
use std::collections::HashMap;

/// A domestic/international split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DomesticSplit {
    /// URLs attributable under this lens.
    pub total: u64,
    /// URLs whose country matches the government's.
    pub domestic: u64,
}

impl DomesticSplit {
    /// Record `urls` URLs of one host under this lens.
    pub fn add(&mut self, is_domestic: bool, urls: u64) {
        self.total += urls;
        if is_domestic {
            self.domestic += urls;
        }
    }

    /// Domestic fraction (`NaN` for empty splits).
    pub fn domestic_fraction(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.domestic as f64 / self.total as f64
        }
    }

    /// International fraction.
    pub fn international_fraction(&self) -> f64 {
        1.0 - self.domestic_fraction()
    }
}

/// The §6 registration/location analysis.
#[derive(Debug, Clone, Default)]
pub struct LocationAnalysis {
    /// Global WHOIS-registration split (Fig. 6 top bar).
    pub registration: DomesticSplit,
    /// Global server-location split (Fig. 6 bottom bar).
    pub geolocation: DomesticSplit,
    /// Per-region registration splits (Fig. 8a).
    pub registration_by_region: HashMap<Region, DomesticSplit>,
    /// Per-region location splits (Fig. 8b).
    pub geolocation_by_region: HashMap<Region, DomesticSplit>,
    /// Per-country location splits (feeds §6.3's bilateral cases).
    pub geolocation_by_country: HashMap<CountryCode, DomesticSplit>,
}

impl LocationAnalysis {
    /// Compute both lenses at global, regional and country level.
    pub fn compute(dataset: &GovDataset) -> LocationAnalysis {
        let mut out = LocationAnalysis::default();
        for HostVolume { host, urls, .. } in dataset.host_volumes() {
            let region = region_of(host.country);
            if let Some(reg) = host.registration {
                let dom = reg == host.country;
                out.registration.add(dom, urls);
                if let Some(r) = region {
                    out.registration_by_region.entry(r).or_default().add(dom, urls);
                }
            }
            if let Some(loc) = host.server_country {
                let dom = loc == host.country;
                out.geolocation.add(dom, urls);
                if let Some(r) = region {
                    out.geolocation_by_region.entry(r).or_default().add(dom, urls);
                }
                out.geolocation_by_country.entry(host.country).or_default().add(dom, urls);
            }
        }
        out
    }

    /// Offshore-hosting percentage per country (the App. E outcome
    /// variable).
    pub fn offshore_percent(&self, country: CountryCode) -> Option<f64> {
        self.geolocation_by_country
            .get(&country)
            .map(|s| s.international_fraction() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassificationMethod;
    use crate::dataset::HostRecord;
    use crate::table::UrlTable;
    use govhost_types::url::Scheme;
    use govhost_types::{cc, HostId, HostInterner, ProviderCategory};

    fn dataset() -> GovDataset {
        let mk_host = |name: &str,
                       country: CountryCode,
                       reg: Option<CountryCode>,
                       loc: Option<CountryCode>| HostRecord {
            hostname: name.parse().unwrap(),
            country,
            method: ClassificationMethod::GovTld,
            ip: None,
            asn: None,
            org: None,
            registration: reg,
            state_operated: false,
            category: Some(ProviderCategory::ThirdPartyGlobal),
            server_country: loc,
            anycast: false,
            geo_excluded: loc.is_none(),
        };
        let hosts = vec![
            // MX host on US infra, US-registered.
            mk_host("a.gob.mx", cc!("MX"), Some(cc!("US")), Some(cc!("US"))),
            // MX host domestic.
            mk_host("b.gob.mx", cc!("MX"), Some(cc!("MX")), Some(cc!("MX"))),
            // MX host excluded by geolocation: counts for WHOIS only.
            mk_host("c.gob.mx", cc!("MX"), Some(cc!("US")), None),
        ];
        let mut host_ids = HostInterner::new();
        let mut urls = UrlTable::new();
        for (i, h) in hosts.iter().enumerate() {
            host_ids.intern(&h.hostname);
            urls.push(Scheme::Https, HostId::new(i as u32), "/x", 10);
        }
        GovDataset {
            hosts,
            urls,
            host_ids,
            validation: Default::default(),
            method_counts: [3, 0, 0],
            crawl_failures: 0,
            per_country: HashMap::new(),
            timings: Default::default(),
            telemetry: Default::default(),
        }
    }

    #[test]
    fn registration_and_location_lenses_differ() {
        let a = LocationAnalysis::compute(&dataset());
        // Registration: 3 URLs, 1 domestic.
        assert_eq!(a.registration.total, 3);
        assert!((a.registration.domestic_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // Location: excluded host drops out -> 2 URLs, 1 domestic.
        assert_eq!(a.geolocation.total, 2);
        assert!((a.geolocation.domestic_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_region_and_per_country() {
        let a = LocationAnalysis::compute(&dataset());
        let lac = a.geolocation_by_region[&Region::LatinAmericaCaribbean];
        assert_eq!(lac.total, 2);
        let mx = a.geolocation_by_country[&cc!("MX")];
        assert_eq!(mx.total, 2);
        assert!((a.offshore_percent(cc!("MX")).unwrap() - 50.0).abs() < 1e-9);
        assert!(a.offshore_percent(cc!("BR")).is_none());
    }

    #[test]
    fn empty_split_is_nan() {
        let s = DomesticSplit::default();
        assert!(s.domestic_fraction().is_nan());
    }
}
