//! §3.4: identifying the serving infrastructure.
//!
//! For every government hostname the pipeline resolves an address from an
//! in-country vantage, queries WHOIS for the origin AS, organization, and
//! registration country, then decides whether the operator is the state
//! itself. Government-AS classification follows the paper's evidence
//! chain: PeeringDB first, then WHOIS text (organization keywords, abuse
//! contacts under gov domains), then a web search on the organization
//! name (the route that catches SOEs like YPF).

use crate::classify::GOV_TLD_TOKENS;
use govhost_dns::{DnsName, ResolutionError, ResolutionRead, Resolver};
use govhost_netsim::peeringdb::PeeringDb;
use govhost_netsim::search::SearchIndex;
use govhost_netsim::whois::{WhoisRecord, WhoisService};
use govhost_types::{Asn, CountryCode, Hostname};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Which evidence source established government operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovEvidence {
    /// PeeringDB name / org / notes / website.
    PeeringDb,
    /// WHOIS organization keywords or a gov-domain abuse contact.
    Whois,
    /// Web search on the WHOIS organization name.
    Search,
}

/// The §3.4 resolution result for one hostname.
#[derive(Debug, Clone)]
pub struct InfraRecord {
    /// Address the hostname resolved to (from the domestic vantage).
    pub ip: Ipv4Addr,
    /// Origin AS per WHOIS.
    pub asn: Asn,
    /// Organization name per WHOIS.
    pub org: String,
    /// Country of registration per WHOIS.
    pub registration: CountryCode,
    /// Whether the operator was classified as government/state-owned, and
    /// by which evidence.
    pub state_operated: Option<GovEvidence>,
}

/// Keywords that mark an organization name as governmental. Includes
/// Romance-language spellings seen in WHOIS (e.g. "Administracion
/// Nacional" for Uruguay's ANTEL).
const ORG_KEYWORDS: &[&str] = &[
    "government", "ministry", "ministerio", "ministere", "federal", "national data center",
    "armed forces", "parliament", "senate", "administracion nacional", "administration",
    "dept.", "department of", "agency of", "office des postes",
];

/// The assembled identifier, borrowing the observable surfaces.
pub struct InfraIdentifier<'a> {
    resolver: &'a Resolver,
    whois: WhoisService<'a>,
    peeringdb: &'a PeeringDb,
    search: &'a SearchIndex,
    /// Memoized per-AS state classification.
    as_cache: HashMap<Asn, Option<GovEvidence>>,
}

impl<'a> InfraIdentifier<'a> {
    /// Assemble over the world's surfaces.
    pub fn new(
        resolver: &'a Resolver,
        registry: &'a govhost_netsim::asdb::AsRegistry,
        peeringdb: &'a PeeringDb,
        search: &'a SearchIndex,
    ) -> Self {
        Self {
            resolver,
            whois: WhoisService::new(registry),
            peeringdb,
            search,
            as_cache: HashMap::new(),
        }
    }

    /// Resolve a hostname from `vantage` and identify its infrastructure.
    ///
    /// Returns `Err` when resolution fails and `Ok(None)` when the address
    /// cannot be attributed (no WHOIS data).
    pub fn identify(
        &mut self,
        host: &Hostname,
        vantage: CountryCode,
    ) -> Result<Option<InfraRecord>, ResolutionError> {
        self.identify_reading(host, vantage).0
    }

    /// [`Self::identify`], also returning the zones its resolution read.
    ///
    /// Past resolution, the record is a function of the address and of
    /// the registry, PeeringDB and search index this identifier borrows.
    /// So while the read [holds](ResolutionRead::holds) and those three
    /// surfaces are unchanged, identifying the host again from the same
    /// vantage gives the same result.
    pub fn identify_reading(
        &mut self,
        host: &Hostname,
        vantage: CountryCode,
    ) -> (Result<Option<InfraRecord>, ResolutionError>, ResolutionRead) {
        let (answer, read) = self.resolver.resolve_reading(&DnsName::from(host), Some(vantage));
        (answer.map(|answer| self.identify_ip(answer.addresses[0])), read)
    }

    /// Identify an already-known address.
    pub fn identify_ip(&mut self, ip: Ipv4Addr) -> Option<InfraRecord> {
        let whois = self.whois.query(ip)?;
        let state_operated = self.classify_as(&whois);
        Some(InfraRecord {
            ip,
            asn: whois.origin,
            org: whois.org_name.clone(),
            registration: whois.country,
            state_operated,
        })
    }

    /// The §3.4 government-AS classifier (memoized per AS; cache
    /// effectiveness shows up as `identify.as_cache{result=hit|miss}`).
    pub fn classify_as(&mut self, whois: &WhoisRecord) -> Option<GovEvidence> {
        if let Some(cached) = self.as_cache.get(&whois.origin) {
            govhost_obs::counter_add("identify.as_cache", &[("result", "hit")], 1);
            return *cached;
        }
        govhost_obs::counter_add("identify.as_cache", &[("result", "miss")], 1);
        let result = self.classify_as_uncached(whois);
        self.as_cache.insert(whois.origin, result);
        result
    }

    fn classify_as_uncached(&self, whois: &WhoisRecord) -> Option<GovEvidence> {
        // Evidence 1: PeeringDB.
        if let Some(rec) = self.peeringdb.get(whois.origin) {
            let text = rec.searchable_text();
            if ORG_KEYWORDS.iter().any(|k| text.contains(k))
                || text.contains("government network")
                || rec
                    .website
                    .as_deref()
                    .map(website_has_gov_token)
                    .unwrap_or(false)
            {
                return Some(GovEvidence::PeeringDb);
            }
        }
        // Evidence 2: WHOIS text (ASCII fold only — Unicode folding would
        // let lookalikes such as U+212A KELVIN SIGN match ASCII keywords).
        if crate::fold::ascii_contains_any_ci(&whois.org_name, ORG_KEYWORDS) {
            return Some(GovEvidence::Whois);
        }
        if let Some(domain) = whois.abuse_domain() {
            if domain_has_gov_token(domain) {
                return Some(GovEvidence::Whois);
            }
        }
        // Evidence 3: web search on the organization name.
        if self.search.search(&whois.org_name).iter().any(|r| r.indicates_government()) {
            return Some(GovEvidence::Search);
        }
        None
    }
}

fn domain_has_gov_token(domain: &str) -> bool {
    let labels: Vec<&str> = domain.split('.').collect();
    let n = labels.len();
    if n == 0 {
        return false;
    }
    if GOV_TLD_TOKENS.contains(&labels[n - 1]) {
        return true;
    }
    n >= 2 && labels[n - 1].len() == 2 && GOV_TLD_TOKENS.contains(&labels[n - 2])
}

fn website_has_gov_token(url: &str) -> bool {
    url.strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .map(|rest| {
            let host = rest.split('/').next().unwrap_or_default();
            domain_has_gov_token(host)
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_dns::{AuthoritativeServer, RData, Zone};
    use govhost_netsim::asdb::{AsRecord, AsRegistry};
    use govhost_netsim::peeringdb::PeeringDbRecord;
    use govhost_netsim::search::SearchResult;
    use govhost_types::{cc, OrgKind};

    struct Fixture {
        registry: AsRegistry,
        peeringdb: PeeringDb,
        search: SearchIndex,
        resolver: Resolver,
    }

    fn fixture() -> Fixture {
        let mut registry = AsRegistry::new();
        // AS 1: government network, revealed by PeeringDB.
        registry.insert_as(AsRecord {
            asn: Asn(26810),
            name: "HHS-NET".into(),
            org: "HHS Infrastructure LLC".into(), // WHOIS alone is opaque
            kind: OrgKind::Government,
            registered_in: cc!("US"),
            website: None,
            abuse_email: "noc@hhsnet.example".into(),
            footprint: vec![cc!("US")],
        });
        registry.allocate("11.1.0.0/16".parse().unwrap(), Asn(26810));
        // AS 2: SOE revealed only by search (the YPF case).
        registry.insert_as(AsRecord {
            asn: Asn(27655),
            name: "YPF-AR".into(),
            org: "Yacimientos Petroliferos Fiscales".into(),
            kind: OrgKind::StateOwnedEnterprise,
            registered_in: cc!("AR"),
            website: Some("https://www.ypf.com".into()),
            abuse_email: "abuse@ypf.com".into(),
            footprint: vec![cc!("AR")],
        });
        registry.allocate("11.2.0.0/16".parse().unwrap(), Asn(27655));
        // AS 3: commercial host, not state.
        registry.insert_as(AsRecord {
            asn: Asn(64501),
            name: "HOSTCO".into(),
            org: "HostCo Ltd.".into(),
            kind: OrgKind::LocalProvider,
            registered_in: cc!("AR"),
            website: Some("https://www.hostco.example".into()),
            abuse_email: "abuse@hostco.example".into(),
            footprint: vec![cc!("AR")],
        });
        registry.allocate("11.3.0.0/16".parse().unwrap(), Asn(64501));
        // AS 4: ministry revealed directly by WHOIS org name.
        registry.insert_as(AsRecord {
            asn: Asn(64502),
            name: "MININT".into(),
            org: "Ministerio del Interior".into(),
            kind: OrgKind::Government,
            registered_in: cc!("AR"),
            website: None,
            abuse_email: "noc@mininterior.gob.ar".into(),
            footprint: vec![cc!("AR")],
        });
        registry.allocate("11.4.0.0/16".parse().unwrap(), Asn(64502));

        let mut peeringdb = PeeringDb::new();
        peeringdb.insert(PeeringDbRecord {
            asn: Asn(26810),
            name: "HHS".into(),
            org: "U.S. Dept. of Health and Human Services".into(),
            website: Some("https://www.hhs.gov".into()),
            notes: String::new(),
        });

        let mut search = SearchIndex::new();
        search.insert(
            "Yacimientos Petroliferos Fiscales",
            SearchResult {
                domain: "ypf.com".into(),
                snippet: "YPF is Argentina's state-owned oil and gas company.".into(),
            },
        );
        search.insert(
            "HostCo Ltd.",
            SearchResult {
                domain: "hostco.example".into(),
                snippet: "HostCo sells shared hosting plans.".into(),
            },
        );

        let mut zone = Zone::new("ypf.com.ar".parse().unwrap());
        zone.add("www.ypf.com.ar".parse().unwrap(), RData::A("11.2.0.1".parse().unwrap()));
        let mut resolver = Resolver::new();
        resolver.add_server(AuthoritativeServer::new(zone));

        Fixture { registry, peeringdb, search, resolver }
    }

    #[test]
    fn peeringdb_evidence_wins_first() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let rec = id.identify_ip("11.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(rec.state_operated, Some(GovEvidence::PeeringDb));
        assert_eq!(rec.asn, Asn(26810));
        assert_eq!(rec.registration, cc!("US"));
    }

    #[test]
    fn whois_org_keywords_detected() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let rec = id.identify_ip("11.4.0.9".parse().unwrap()).unwrap();
        assert_eq!(rec.state_operated, Some(GovEvidence::Whois));
    }

    #[test]
    fn search_fallback_catches_soe() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let rec = id.identify_ip("11.2.0.1".parse().unwrap()).unwrap();
        assert_eq!(rec.state_operated, Some(GovEvidence::Search), "the YPF case");
    }

    #[test]
    fn commercial_host_is_not_state() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let rec = id.identify_ip("11.3.0.1".parse().unwrap()).unwrap();
        assert_eq!(rec.state_operated, None);
    }

    #[test]
    fn identify_resolves_then_attributes() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let host: Hostname = "www.ypf.com.ar".parse().unwrap();
        let rec = id.identify(&host, cc!("AR")).unwrap().unwrap();
        assert_eq!(rec.asn, Asn(27655));
        assert_eq!(rec.ip, "11.2.0.1".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn unresolvable_host_errors() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let host: Hostname = "nothing.example.test".parse().unwrap();
        assert!(id.identify(&host, cc!("AR")).is_err());
    }

    #[test]
    fn unallocated_ip_is_none() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        assert!(id.identify_ip("203.0.113.1".parse().unwrap()).is_none());
    }

    #[test]
    fn org_keywords_fold_ascii_case_only() {
        let f = fixture();
        let mut id = InfraIdentifier::new(&f.resolver, &f.registry, &f.peeringdb, &f.search);
        let record = |asn: u32, org: &str| WhoisRecord {
            netname: "TESTNET".into(),
            org_name: org.into(),
            country: cc!("AR"),
            origin: Asn(asn),
            abuse_mailbox: "abuse@example.com".into(),
        };
        // Mixed ASCII case still matches the lowercase keyword table.
        assert_eq!(
            id.classify_as(&record(64900, "MINISTERIO del Interior")),
            Some(GovEvidence::Whois)
        );
        // Unicode lookalike letters never fold into ASCII keyword matches:
        // 'ſ' (U+017F LONG S) is not an ASCII 's'.
        assert_eq!(id.classify_as(&record(64901, "Miniſterio del Interior")), None);
    }

    #[test]
    fn gov_domain_tokens() {
        assert!(domain_has_gov_token("hhs.gov"));
        assert!(domain_has_gov_token("mininterior.gob.ar"));
        assert!(domain_has_gov_token("soumu.go.jp"));
        assert!(!domain_has_gov_token("ypf.com"));
        assert!(!domain_has_gov_token("governor.com"));
        assert!(website_has_gov_token("https://www.hhs.gov"));
        assert!(!website_has_gov_token("https://www.ypf.com"));
    }
}
