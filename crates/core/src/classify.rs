//! §3.3: identifying internal government URLs.
//!
//! A crawl that goes seven levels deep inevitably leaves the government
//! domain (into contractors, trackers, embedded platforms). The paper
//! recovers the government subset with three ordered heuristics — the
//! exact Table 1 rules:
//!
//! 1. **Government TLD patterns** — hostnames under `.gov`, `.gouv`,
//!    `.gob`, `.go`, `.gub`, `.guv`, `.govt`, `.govern`, `.government`,
//!    `.mil`, `.fed`, `.admin` (per Singanamalla et al.'s rules).
//! 2. **Domain matching** — the hostname (or its registrable domain)
//!    matches a seed site from the §3.1 landing list.
//! 3. **SAN matching** — the hostname appears among the Subject
//!    Alternative Names of a landing page's TLS certificate, followed by
//!    manual verification (modelled as a search-index check).
//!
//! Unmatched hostnames are discarded as non-government.

use govhost_netsim::search::SearchIndex;
use govhost_types::Hostname;
use govhost_web::cert::TlsCert;
use std::collections::{HashMap, HashSet};

/// The gov-TLD tokens of Table 1.
pub const GOV_TLD_TOKENS: &[&str] = &[
    "gov", "govern", "government", "govt", "mil", "fed", "admin", "gouv", "gob", "go", "gub",
    "guv",
];

/// Which heuristic identified a URL as governmental (§4.2 reports the
/// split: 27.6% TLD, 72.1% domain matching, 0.3% SAN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassificationMethod {
    /// Matched a government TLD pattern.
    GovTld,
    /// Matched a seed hostname.
    DomainMatch,
    /// Appeared in a landing certificate's SANs and was verified.
    San,
}

impl ClassificationMethod {
    /// The method's slot in
    /// [`GovDataset::method_counts`](crate::dataset::GovDataset::method_counts):
    /// `[GovTld, DomainMatch, San]`.
    pub fn index(self) -> usize {
        match self {
            ClassificationMethod::GovTld => 0,
            ClassificationMethod::DomainMatch => 1,
            ClassificationMethod::San => 2,
        }
    }
}

/// Whether a hostname matches the Table 1 gov-TLD patterns: one of the
/// tokens as the TLD itself (`agency.gov`) or as the label right before
/// the ccTLD (`x.gov.br`, `y.go.jp`, `z.admin.ch`).
pub fn matches_gov_tld(host: &Hostname) -> bool {
    let labels: Vec<&str> = host.labels().collect();
    let n = labels.len();
    if n == 0 {
        return false;
    }
    if GOV_TLD_TOKENS.contains(&labels[n - 1]) {
        return true;
    }
    n >= 2 && labels[n - 1].len() == 2 && GOV_TLD_TOKENS.contains(&labels[n - 2])
}

/// The country's seed material for §3.3 classification: seed hostnames,
/// their registrable domains, and landing-certificate SANs.
///
/// This is the immutable, shareable half of the classifier — the
/// streaming build constructs one per country and consults it directly
/// (memoizing per chunk in its hostname interner); [`Classifier`] wraps
/// it with a per-instance cache for callers that classify ad hoc.
pub struct SeedSets {
    /// Seed hostnames from the §3.1 landing list.
    seeds: HashSet<Hostname>,
    /// Registrable domains of the seeds (a page on `portal.gov.br` matches
    /// the seed `www.gov.br`).
    seed_domains: HashSet<Hostname>,
    /// SANs collected from landing-page certificates.
    san_hosts: HashSet<Hostname>,
}

impl SeedSets {
    /// Build the seed sets from the country's seed hostnames and its
    /// landing certificates.
    pub fn new<'c>(
        seeds: impl IntoIterator<Item = Hostname>,
        landing_certs: impl IntoIterator<Item = &'c TlsCert>,
    ) -> Self {
        let seeds: HashSet<Hostname> = seeds.into_iter().collect();
        let seed_domains = seeds.iter().map(Hostname::registrable_domain).collect();
        let mut san_hosts = HashSet::new();
        for cert in landing_certs {
            for san in &cert.sans {
                san_hosts.insert(san.clone());
            }
        }
        Self { seeds, seed_domains, san_hosts }
    }

    /// Classify a hostname against the Table 1 rules; `None` means
    /// non-government (discarded). Not memoized — callers on hot paths
    /// key the result by interned hostname id.
    pub fn classify(&self, host: &Hostname, search: &SearchIndex) -> Option<ClassificationMethod> {
        if matches_gov_tld(host) {
            return Some(ClassificationMethod::GovTld);
        }
        if self.seeds.contains(host) || self.seed_domains.contains(&host.registrable_domain()) {
            return Some(ClassificationMethod::DomainMatch);
        }
        if self.san_hosts.contains(host) && self.verify_san(host, search) {
            return Some(ClassificationMethod::San);
        }
        None
    }

    /// "Manual verification" of a SAN hit: search the owner label and
    /// check the evidence connects it to the state (§3.3: hostnames that
    /// cannot be verified are discarded).
    fn verify_san(&self, host: &Hostname, search: &SearchIndex) -> bool {
        let owner = host.labels().next().unwrap_or_default();
        search
            .search(owner)
            .iter()
            .any(|r| r.indicates_government() || crate::fold::ascii_contains_ci(&r.snippet, "official"))
    }
}

/// The assembled §3.3 classifier for one country: [`SeedSets`] plus the
/// verification oracle and a memoization cache.
pub struct Classifier<'a> {
    seeds: SeedSets,
    /// The verification oracle for SAN hits.
    search: &'a SearchIndex,
    cache: HashMap<Hostname, Option<ClassificationMethod>>,
}

impl<'a> Classifier<'a> {
    /// Build a classifier from the country's seed hostnames and its
    /// landing certificates.
    pub fn new(
        seeds: impl IntoIterator<Item = Hostname>,
        landing_certs: impl IntoIterator<Item = &'a TlsCert>,
        search: &'a SearchIndex,
    ) -> Self {
        Self { seeds: SeedSets::new(seeds, landing_certs), search, cache: HashMap::new() }
    }

    /// Classify a hostname; `None` means non-government (discarded).
    /// Results are memoized — crawls contain the same hostname thousands
    /// of times.
    pub fn classify(&mut self, host: &Hostname) -> Option<ClassificationMethod> {
        if let Some(cached) = self.cache.get(host) {
            return *cached;
        }
        let result = self.seeds.classify(host, self.search);
        self.cache.insert(host.clone(), result);
        result
    }

    /// Number of memoized hostnames (diagnostics).
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_netsim::search::SearchResult;

    fn h(s: &str) -> Hostname {
        s.parse().unwrap()
    }

    #[test]
    fn gov_tld_patterns_match_table1_examples() {
        for name in [
            "nsf.gov",
            "irs.gov",
            "defense.mil",
            "x.gov.br",
            "tramites.gob.mx",
            "impots.gouv.fr",
            "portal.gub.uy",
            "soumu.go.jp",
            "stats.govt.nz",
            "meteo.admin.ch",
            "agency.fed.us",
            "x.guv.ro",
        ] {
            assert!(matches_gov_tld(&h(name)), "{name} must match");
        }
    }

    #[test]
    fn gov_tld_rejects_lookalikes() {
        for name in [
            "defensie.nl",       // the paper's own counter-example
            "parlement.ma",
            "landkreistag.de",
            "diego.cl",          // "go" must be a whole label
            "governor-blog.com", // "govern" must be a label, not a prefix
            "gob-news.mx",
            "cdn.webtrack1.com",
        ] {
            assert!(!matches_gov_tld(&h(name)), "{name} must not match");
        }
    }

    #[test]
    fn go_token_only_before_cctld() {
        assert!(matches_gov_tld(&h("ministry.go.th")));
        // "go" deeper inside the name is not the pattern position.
        assert!(!matches_gov_tld(&h("go.example.com")));
    }

    fn classifier<'a>(search: &'a SearchIndex, certs: &'a [TlsCert]) -> Classifier<'a> {
        Classifier::new(
            [h("www.bund-portal.de"), h("www.energia-argentina.com.ar")],
            certs.iter(),
            search,
        )
    }

    #[test]
    fn domain_matching_catches_seed_subdomains() {
        let search = SearchIndex::new();
        let certs = vec![];
        let mut c = classifier(&search, &certs);
        assert_eq!(c.classify(&h("www.bund-portal.de")), Some(ClassificationMethod::DomainMatch));
        assert_eq!(c.classify(&h("static.bund-portal.de")), Some(ClassificationMethod::DomainMatch));
        assert_eq!(
            c.classify(&h("cdn.energia-argentina.com.ar")),
            Some(ClassificationMethod::DomainMatch)
        );
        assert_eq!(c.classify(&h("other-site.de")), None);
    }

    #[test]
    fn tld_takes_priority_over_domain_match() {
        let search = SearchIndex::new();
        let certs = [];
        let mut c = Classifier::new([h("x.gov.br")], certs.iter(), &search);
        assert_eq!(c.classify(&h("x.gov.br")), Some(ClassificationMethod::GovTld));
    }

    #[test]
    fn san_requires_verification() {
        let mut search = SearchIndex::new();
        search.insert(
            "orniss",
            SearchResult {
                domain: "orniss.ro".into(),
                snippet: "ORNISS is the government office for classified information.".into(),
            },
        );
        let mut cert = TlsCert::for_host(h("www.presidency.ro"), "CA");
        cert.sans.push(h("orniss.ro"));
        cert.sans.push(h("randomshop.ro"));
        let certs = [cert];
        let mut c = Classifier::new([h("www.presidency.ro")], certs.iter(), &search);
        assert_eq!(c.classify(&h("orniss.ro")), Some(ClassificationMethod::San));
        // In the SANs but unverifiable -> discarded.
        assert_eq!(c.classify(&h("randomshop.ro")), None);
        // Not in the SANs at all.
        assert_eq!(c.classify(&h("unrelated.ro")), None);
    }

    #[test]
    fn cache_is_used() {
        let search = SearchIndex::new();
        let certs = vec![];
        let mut c = classifier(&search, &certs);
        let host = h("www.bund-portal.de");
        c.classify(&host);
        c.classify(&host);
        assert_eq!(c.cache_size(), 1);
    }
}
