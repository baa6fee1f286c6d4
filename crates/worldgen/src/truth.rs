//! Ground truth about the generated world.
//!
//! The measurement pipeline must never read this — it exists so tests can
//! compare what the pipeline *recovered* against what the generator
//! *built*, and so calibration tests can check the world matches the
//! paper's numbers before the pipeline even runs.

use crate::countries::COUNTRIES;
use govhost_types::{Asn, CountryCode, Hostname, ProviderCategory};
use std::collections::HashMap;

/// Ground truth for one government hostname.
#[derive(Debug, Clone)]
pub struct HostTruth {
    /// The government (country) this hostname belongs to.
    pub country: CountryCode,
    /// True provider category.
    pub category: ProviderCategory,
    /// Operating AS.
    pub asn: Asn,
    /// Country where the serving infrastructure physically sits (for
    /// anycast: whether a domestic site exists is what matters; this field
    /// holds the primary/domestic site country).
    pub location: CountryCode,
    /// Whether served from an anycast address.
    pub anycast: bool,
    /// Identification route the generator *intended*: true if the
    /// hostname carries a gov-TLD token, false if it is only identifiable
    /// by domain matching or SANs.
    pub gov_tld: bool,
    /// Whether the hostname is only reachable through a landing-page SAN
    /// (the 0.3% tail of §4.2).
    pub san_only: bool,
}

/// Everything the generator knows that the pipeline must rediscover.
#[derive(Debug, Default, Clone)]
pub struct GroundTruth {
    /// Per-hostname truths.
    pub hosts: HashMap<Hostname, HostTruth>,
    /// Planned URL count per country (scaled Table 8).
    pub planned_urls: HashMap<CountryCode, u64>,
    /// Planned landing-page count per country.
    pub planned_landing: HashMap<CountryCode, u32>,
    /// Which countries each global provider was assigned to serve — the
    /// Fig. 10 footprint invariant (usage converges to this at full
    /// scale).
    pub provider_assignments: HashMap<Asn, Vec<CountryCode>>,
}

impl GroundTruth {
    /// Truth for one hostname.
    pub fn host(&self, h: &Hostname) -> Option<&HostTruth> {
        self.hosts.get(h)
    }

    /// Count of hostnames whose true category matches.
    pub fn count_category(&self, country: CountryCode, category: ProviderCategory) -> usize {
        self.hosts
            .values()
            .filter(|t| t.country == country && t.category == category)
            .count()
    }
}

/// Every government hostname of a [`GroundTruth`], sorted by name, and
/// the same names grouped by country: the only orders in which ticks and
/// shocks visit hosts.
///
/// Ticks and shocks rewrite a host's truth but never add or remove a
/// host, so a world builds its index once, when it is generated, and its
/// forks share it.
#[derive(Debug, Default)]
pub(crate) struct HostIndex {
    /// Every hostname, sorted by name.
    sorted: Vec<Hostname>,
    /// Each studied country with at least one hostname, in [`COUNTRIES`]
    /// order, with its hostnames sorted by name.
    by_country: Vec<(CountryCode, Vec<Hostname>)>,
}

impl HostIndex {
    /// Index the hostnames of `truth`.
    pub(crate) fn of(truth: &GroundTruth) -> HostIndex {
        let mut sorted: Vec<Hostname> = truth.hosts.keys().cloned().collect();
        sorted.sort_unstable();
        let mut grouped: HashMap<CountryCode, Vec<Hostname>> = HashMap::new();
        for host in &sorted {
            grouped.entry(truth.hosts[host].country).or_default().push(host.clone());
        }
        let by_country = COUNTRIES
            .iter()
            .filter_map(|row| grouped.remove(&row.cc()).map(|hosts| (row.cc(), hosts)))
            .collect();
        HostIndex { sorted, by_country }
    }

    /// Number of indexed hostnames.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Every hostname, sorted by name.
    pub(crate) fn sorted(&self) -> &[Hostname] {
        &self.sorted
    }

    /// The studied countries that have hostnames, in [`COUNTRIES`] order,
    /// each with its hostnames sorted by name.
    pub(crate) fn countries(&self) -> impl Iterator<Item = (CountryCode, &[Hostname])> {
        self.by_country.iter().map(|(cc, hosts)| (*cc, hosts.as_slice()))
    }

    /// One country's hostnames, sorted by name.
    pub(crate) fn hosts_of(&self, country: CountryCode) -> &[Hostname] {
        self.countries().find(|(cc, _)| *cc == country).map_or(&[], |(_, hosts)| hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_types::cc;

    #[test]
    fn lookup_and_counting() {
        let mut truth = GroundTruth::default();
        let h: Hostname = "agency1.gov.xx".parse().unwrap();
        truth.hosts.insert(
            h.clone(),
            HostTruth {
                country: cc!("AR"),
                category: ProviderCategory::GovtSoe,
                asn: Asn(64500),
                location: cc!("AR"),
                anycast: false,
                gov_tld: true,
                san_only: false,
            },
        );
        assert!(truth.host(&h).is_some());
        assert_eq!(truth.count_category(cc!("AR"), ProviderCategory::GovtSoe), 1);
        assert_eq!(truth.count_category(cc!("AR"), ProviderCategory::ThirdPartyGlobal), 0);
        assert_eq!(truth.count_category(cc!("BR"), ProviderCategory::GovtSoe), 0);
    }
}
