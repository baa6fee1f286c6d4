//! §6.3: cross-border dependencies (Fig. 9, Table 5), plus the GDPR
//! compliance check and the bilateral cases the paper highlights.

use crate::dataset::{GovDataset, HostVolume};
use govhost_types::{CountryCode, Region};
use govhost_worldgen::countries::region_of;
use std::collections::HashMap;

/// Which lens a flow matrix is built under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowLens {
    /// WHOIS registration country (Fig. 9a).
    Registration,
    /// Validated server location (Fig. 9b).
    ServerLocation,
}

/// Cross-border dependency flows: URL counts from a source government to
/// a foreign destination country.
#[derive(Debug, Clone, Default)]
pub struct FlowMatrix {
    /// `(source government, destination country) -> URLs`. Only foreign
    /// destinations appear (domestic URLs are not cross-border flows).
    pub flows: HashMap<(CountryCode, CountryCode), u64>,
}

impl FlowMatrix {
    /// Total cross-border URLs.
    pub fn total(&self) -> u64 {
        self.flows.values().sum()
    }

    /// Every flow as `(source, destination, urls)`, sorted by source
    /// then destination — a deterministic order for export and serving
    /// (the backing `HashMap` iterates in arbitrary order).
    pub fn sorted_flows(&self) -> Vec<(CountryCode, CountryCode, u64)> {
        let mut out: Vec<(CountryCode, CountryCode, u64)> =
            self.flows.iter().map(|((s, d), n)| (*s, *d, *n)).collect();
        out.sort_by_key(|&(from, to, _)| (from, to));
        out
    }

    /// Outflow of one government, by destination.
    pub fn outflows(&self, source: CountryCode) -> Vec<(CountryCode, u64)> {
        let mut out: Vec<(CountryCode, u64)> = self
            .flows
            .iter()
            .filter(|((s, _), _)| *s == source)
            .map(|((_, d), n)| (*d, *n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Fraction of a government's *cross-border* URLs going to `dest`.
    pub fn share_to(&self, source: CountryCode, dest: CountryCode) -> f64 {
        let total: u64 = self.outflows(source).iter().map(|(_, n)| n).sum();
        if total == 0 {
            return f64::NAN;
        }
        *self.flows.get(&(source, dest)).unwrap_or(&0) as f64 / total as f64
    }

    /// Table 5: percentage of each region's cross-border URLs that stay
    /// within the same region.
    pub fn in_region_percent(&self) -> HashMap<Region, f64> {
        let mut totals: HashMap<Region, (u64, u64)> = HashMap::new();
        for ((src, dst), n) in &self.flows {
            let (Some(sr), Some(dr)) = (region_of(*src), region_of(*dst)) else { continue };
            let entry = totals.entry(sr).or_default();
            entry.0 += n;
            if sr == dr {
                entry.1 += n;
            }
        }
        totals
            .into_iter()
            .map(|(r, (total, within))| {
                (r, if total > 0 { within as f64 / total as f64 * 100.0 } else { f64::NAN })
            })
            .collect()
    }

    /// Regional affinity: within each region's intra-region flows, which
    /// destination hosts the largest share? Returns
    /// `region -> (host country, share)`.
    pub fn regional_hubs(&self) -> HashMap<Region, (CountryCode, f64)> {
        let mut per_region: HashMap<Region, HashMap<CountryCode, u64>> = HashMap::new();
        let mut regional_totals: HashMap<Region, u64> = HashMap::new();
        for ((src, dst), n) in &self.flows {
            let (Some(sr), Some(dr)) = (region_of(*src), region_of(*dst)) else { continue };
            if sr == dr {
                *per_region.entry(sr).or_default().entry(*dst).or_default() += n;
                *regional_totals.entry(sr).or_default() += n;
            }
        }
        per_region
            .into_iter()
            .filter_map(|(region, dests)| {
                let total = regional_totals[&region];
                dests
                    .into_iter()
                    .max_by_key(|(_, n)| *n)
                    .map(|(host, n)| (region, (host, n as f64 / total as f64)))
            })
            .collect()
    }
}

/// The full §6.3 analysis.
#[derive(Debug, Clone)]
pub struct CrossBorderAnalysis {
    /// Flows under the registration lens (Fig. 9a).
    pub registration: FlowMatrix,
    /// Flows under the server-location lens (Fig. 9b).
    pub location: FlowMatrix,
    /// Per-country URL totals under each lens `(registration-attributed,
    /// location-attributed)` — denominators for "X% of country C's URLs".
    pub country_totals: HashMap<CountryCode, (u64, u64)>,
}

impl CrossBorderAnalysis {
    /// Build both flow matrices.
    pub fn compute(dataset: &GovDataset) -> CrossBorderAnalysis {
        let mut registration = FlowMatrix::default();
        let mut location = FlowMatrix::default();
        let mut country_totals: HashMap<CountryCode, (u64, u64)> = HashMap::new();
        for HostVolume { host, urls, .. } in dataset.host_volumes() {
            let totals = country_totals.entry(host.country).or_default();
            if let Some(reg) = host.registration {
                totals.0 += urls;
                if reg != host.country {
                    *registration.flows.entry((host.country, reg)).or_default() += urls;
                }
            }
            if let Some(loc) = host.server_country {
                totals.1 += urls;
                if loc != host.country {
                    *location.flows.entry((host.country, loc)).or_default() += urls;
                }
            }
        }
        CrossBorderAnalysis { registration, location, country_totals }
    }

    /// Percent of a government's URLs served from a specific foreign
    /// country (e.g. Mexico → US = 79.22% in the paper).
    pub fn percent_served_from(&self, source: CountryCode, dest: CountryCode) -> f64 {
        let total = self.country_totals.get(&source).map(|t| t.1).unwrap_or(0);
        if total == 0 {
            return f64::NAN;
        }
        *self.location.flows.get(&(source, dest)).unwrap_or(&0) as f64 / total as f64 * 100.0
    }

    /// GDPR check: fraction of EU governments' URLs served from inside
    /// the EU (the paper reports 98.3%).
    pub fn gdpr_compliance(&self) -> f64 {
        let mut total = 0u64;
        let mut within = 0u64;
        for (country, (_, located)) in &self.country_totals {
            if !govhost_worldgen::countries::is_eu(*country) {
                continue;
            }
            total += located;
            within += located;
            // Subtract flows that leave the EU.
            for (dest, n) in self.location.outflows(*country) {
                if !govhost_worldgen::countries::is_eu(dest) {
                    within -= n;
                }
            }
        }
        if total == 0 {
            f64::NAN
        } else {
            within as f64 / total as f64
        }
    }

    /// Share of all cross-border URLs served from North America + Western
    /// Europe (the paper reports 57%). "Western Europe" is approximated
    /// by the EU-15-ish members of the sample plus CH/NO/GB.
    pub fn na_weu_share(&self) -> f64 {
        const WEU: &[&str] =
            &["DE", "FR", "NL", "GB", "IT", "ES", "SE", "BE", "CH", "NO", "DK", "IE", "LU", "AT", "FI", "PT"];
        let total = self.location.total();
        if total == 0 {
            return f64::NAN;
        }
        let hits: u64 = self
            .location
            .flows
            .iter()
            .filter(|((_, dst), _)| {
                region_of(*dst) == Some(Region::NorthAmerica)
                    || WEU.iter().any(|w| dst.as_str() == *w)
            })
            .map(|(_, n)| n)
            .sum();
        hits as f64 / total as f64
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
                       reg: CountryCode,
                       loc: CountryCode| HostRecord {
            hostname: name.parse().unwrap(),
            country,
            method: ClassificationMethod::GovTld,
            ip: None,
            asn: None,
            org: None,
            registration: Some(reg),
            state_operated: false,
            category: Some(ProviderCategory::ThirdPartyGlobal),
            server_country: Some(loc),
            anycast: false,
            geo_excluded: false,
        };
        let hosts = vec![
            // 3 MX hosts on US soil, 1 domestic.
            mk_host("a.gob.mx", cc!("MX"), cc!("US"), cc!("US")),
            mk_host("b.gob.mx", cc!("MX"), cc!("US"), cc!("US")),
            mk_host("c.gob.mx", cc!("MX"), cc!("US"), cc!("US")),
            mk_host("d.gob.mx", cc!("MX"), cc!("MX"), cc!("MX")),
            // DE host in FR (in-region flow).
            mk_host("a.bund.de", cc!("DE"), cc!("DE"), cc!("FR")),
            // DE host domestic.
            mk_host("b.bund.de", cc!("DE"), cc!("DE"), cc!("DE")),
            // FR host in NC (leaves region and EU).
            mk_host("gouv.nc", cc!("FR"), cc!("NC"), cc!("NC")),
            // FR host domestic.
            mk_host("a.gouv.fr", cc!("FR"), cc!("FR"), cc!("FR")),
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
            method_counts: [8, 0, 0],
            crawl_failures: 0,
            per_country: HashMap::new(),
            timings: Default::default(),
            telemetry: Default::default(),
        }
    }

    #[test]
    fn bilateral_percentages() {
        let a = CrossBorderAnalysis::compute(&dataset());
        assert!((a.percent_served_from(cc!("MX"), cc!("US")) - 75.0).abs() < 1e-9);
        assert!((a.percent_served_from(cc!("FR"), cc!("NC")) - 50.0).abs() < 1e-9);
        assert!((a.percent_served_from(cc!("DE"), cc!("FR")) - 50.0).abs() < 1e-9);
        assert!(a.percent_served_from(cc!("BR"), cc!("US")).is_nan());
    }

    #[test]
    fn registration_lens_differs_from_location() {
        let a = CrossBorderAnalysis::compute(&dataset());
        // gouv.nc: registered NC and located NC -> appears in both.
        assert_eq!(a.registration.flows[&(cc!("FR"), cc!("NC"))], 1);
        // DE→FR: only a location flow (registration stayed domestic).
        assert!(!a.registration.flows.contains_key(&(cc!("DE"), cc!("FR"))));
        assert_eq!(a.location.flows[&(cc!("DE"), cc!("FR"))], 1);
    }

    #[test]
    fn in_region_percent_table5() {
        let a = CrossBorderAnalysis::compute(&dataset());
        let table5 = a.location.in_region_percent();
        // LAC: MX's 3 URLs go to the US (out of region) -> 0%.
        assert!((table5[&Region::LatinAmericaCaribbean] - 0.0).abs() < 1e-9);
        // ECA: DE→FR stays (1), FR→NC leaves (1) -> 50%.
        assert!((table5[&Region::EuropeCentralAsia] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn regional_hubs() {
        let a = CrossBorderAnalysis::compute(&dataset());
        let hubs = a.location.regional_hubs();
        let (host, share) = hubs[&Region::EuropeCentralAsia];
        assert_eq!(host, cc!("FR"));
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gdpr_compliance_counts_nc_as_outside() {
        let a = CrossBorderAnalysis::compute(&dataset());
        // EU members here: DE (2 URLs, both in EU: FR + DE) and FR
        // (2 URLs: NC outside + FR inside). 3/4 compliant.
        assert!((a.gdpr_compliance() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn na_weu_share_counts_us_and_france() {
        let a = CrossBorderAnalysis::compute(&dataset());
        // Cross-border URLs: 3×MX→US (NA), DE→FR (WEu), FR→NC (neither).
        assert!((a.na_weu_share() - 4.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn outflows_sorted_desc() {
        let a = CrossBorderAnalysis::compute(&dataset());
        let out = a.location.outflows(cc!("MX"));
        assert_eq!(out, vec![(cc!("US"), 3)]);
        assert!((a.location.share_to(cc!("MX"), cc!("US")) - 1.0).abs() < 1e-12);
    }
}
