//! The AS registry: autonomous systems, prefix allocations, and servers.
//!
//! This is the substrate's ground truth. The measurement pipeline never
//! reads [`AsRecord::kind`] directly — it must classify operators from
//! WHOIS/PeeringDB/search evidence, mirroring §3.4 of the paper.

use crate::coords::City;
use crate::trie::PrefixTrie;
use govhost_types::{Asn, CountryCode, IpPrefix, OrgKind};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Metadata for one autonomous system.
#[derive(Debug, Clone)]
pub struct AsRecord {
    /// The AS number.
    pub asn: Asn,
    /// Short network name as it appears in registry data (e.g.
    /// `CLOUDFLARENET`).
    pub name: String,
    /// Organization legal name (e.g. `Administracion Nacional de
    /// Telecomunicaciones`).
    pub org: String,
    /// Ground-truth operator kind. Pipeline code must not read this; it is
    /// used by the world generator and by test oracles.
    pub kind: OrgKind,
    /// Country of registration (the WHOIS `country:` field).
    pub registered_in: CountryCode,
    /// Organization website, if one is advertised (used by the PeeringDB
    /// evidence path).
    pub website: Option<String>,
    /// Abuse-contact mailbox; the domain is WHOIS evidence (e.g. a `.gov`
    /// contact address reveals a government network).
    pub abuse_email: String,
    /// Countries in which this AS operates serving infrastructure.
    pub footprint: Vec<CountryCode>,
}

/// Identifier of a server inside the registry (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// A server (one IPv4 service address) in the simulated Internet.
///
/// A unicast server has exactly one site; an anycast address announces the
/// same IP from several sites, and measurement from a vantage reaches the
/// nearest one.
#[derive(Debug, Clone)]
pub struct Server {
    /// The service address.
    pub ip: Ipv4Addr,
    /// Owning AS.
    pub asn: Asn,
    /// Physical site(s). Non-empty; more than one ⇒ anycast.
    pub sites: Vec<City>,
    /// Whether the address is anycast (equivalently `sites.len() > 1`, but
    /// kept explicit so single-site anycast deployments can exist).
    pub anycast: bool,
    /// Whether the server answers ICMP echo (unresponsive servers defeat
    /// active-probing geolocation, one of the failure modes in §8).
    pub icmp_responsive: bool,
    /// PTR record name, if a reverse entry exists (HOIHO input).
    pub ptr: Option<String>,
}

impl Server {
    /// The geographically nearest site to `from`, used by the latency
    /// model to emulate anycast routing. Unicast servers return their only
    /// site.
    pub fn nearest_site(&self, from: &crate::coords::GeoPoint) -> &City {
        self.sites
            .iter()
            .min_by(|a, b| {
                let da = a.location.distance_km(from);
                let db = b.location.distance_km(from);
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("server has at least one site")
    }
}

/// The registry of ASes, prefix allocations and servers.
///
/// Prefix lookups (origin AS, per-inetnum registration country) run on
/// longest-prefix-match tries ([`PrefixTrie`]); the allocation list is
/// kept alongside for iteration.
#[derive(Debug, Default, Clone)]
pub struct AsRegistry {
    records: HashMap<Asn, AsRecord>,
    allocations: Vec<(IpPrefix, Asn)>,
    routes: PrefixTrie<Asn>,
    /// Per-prefix WHOIS `country:` overrides. Real inetnum objects carry
    /// their own country, which can differ from the operating AS's home —
    /// e.g. a US cloud's APNIC allocations registered under AU or SG.
    inetnum_country: PrefixTrie<CountryCode>,
    servers: Vec<Server>,
    by_ip: HashMap<Ipv4Addr, ServerId>,
}

impl AsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS. Replaces any previous record for the same ASN.
    pub fn insert_as(&mut self, record: AsRecord) {
        self.records.insert(record.asn, record);
    }

    /// Allocate a prefix to an AS.
    pub fn allocate(&mut self, prefix: IpPrefix, asn: Asn) {
        self.allocations.push((prefix, asn));
        self.routes.insert(prefix, asn);
    }

    /// Record a per-prefix WHOIS registration country (an inetnum whose
    /// `country:` differs from the AS's home registration).
    pub fn set_prefix_country(&mut self, prefix: IpPrefix, country: CountryCode) {
        self.inetnum_country.insert(prefix, country);
    }

    /// The WHOIS registration country for `ip`: the most specific
    /// inetnum-level override if any, else the owning AS's home country.
    pub fn registration_of(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        if let Some(c) = self.inetnum_country.longest_match(ip) {
            return Some(*c);
        }
        let asn = self.asn_of_ref(ip)?;
        self.as_record(asn).map(|r| r.registered_in)
    }

    /// Add a server; its IP must fall inside a prefix allocated to
    /// `server.asn` for the registry to be coherent (checked in debug).
    pub fn add_server(&mut self, server: Server) -> ServerId {
        debug_assert!(
            !server.sites.is_empty(),
            "server {} must have at least one site",
            server.ip
        );
        let id = ServerId(self.servers.len() as u32);
        self.by_ip.insert(server.ip, id);
        self.servers.push(server);
        id
    }

    /// Look up an AS record.
    pub fn as_record(&self, asn: Asn) -> Option<&AsRecord> {
        self.records.get(&asn)
    }

    /// Number of registered ASes.
    pub fn as_count(&self) -> usize {
        self.records.len()
    }

    /// Longest-prefix match: which AS originates `ip`?
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.routes.longest_match(ip).copied()
    }

    /// Alias kept for compatibility with earlier call sites.
    pub fn asn_of_ref(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.asn_of(ip)
    }

    /// Server behind an IP, if any.
    pub fn server_by_ip(&self, ip: Ipv4Addr) -> Option<&Server> {
        self.by_ip.get(&ip).map(|id| &self.servers[id.0 as usize])
    }

    /// Server by id.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// All prefix allocations (prefix, ASN).
    pub fn allocations(&self) -> &[(IpPrefix, Asn)] {
        &self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_types::cc;

    fn sample_as(asn: u32, country: CountryCode, kind: OrgKind) -> AsRecord {
        AsRecord {
            asn: Asn(asn),
            name: format!("AS-NAME-{asn}"),
            org: format!("Org {asn}"),
            kind,
            registered_in: country,
            website: None,
            abuse_email: format!("abuse@as{asn}.example"),
            footprint: vec![country],
        }
    }

    fn city(country: CountryCode) -> City {
        City::new("Testville", country, 10.0, 20.0)
    }

    #[test]
    fn longest_prefix_match_wins() {
        let mut reg = AsRegistry::new();
        reg.insert_as(sample_as(100, cc!("US"), OrgKind::GlobalProvider));
        reg.insert_as(sample_as(200, cc!("US"), OrgKind::LocalProvider));
        reg.allocate("10.0.0.0/8".parse().unwrap(), Asn(100));
        reg.allocate("10.1.0.0/16".parse().unwrap(), Asn(200));
        assert_eq!(reg.asn_of("10.1.2.3".parse().unwrap()), Some(Asn(200)));
        assert_eq!(reg.asn_of("10.2.2.3".parse().unwrap()), Some(Asn(100)));
        assert_eq!(reg.asn_of("11.0.0.1".parse().unwrap()), None);
        // Read-only variant agrees.
        assert_eq!(reg.asn_of_ref("10.1.2.3".parse().unwrap()), Some(Asn(200)));
    }

    #[test]
    fn server_lookup_by_ip() {
        let mut reg = AsRegistry::new();
        let id = reg.add_server(Server {
            ip: "192.0.2.1".parse().unwrap(),
            asn: Asn(64500),
            sites: vec![city(cc!("UY"))],
            anycast: false,
            icmp_responsive: true,
            ptr: None,
        });
        let s = reg.server_by_ip("192.0.2.1".parse().unwrap()).unwrap();
        assert_eq!(s.asn, Asn(64500));
        assert_eq!(reg.server(id).ip, s.ip);
        assert!(reg.server_by_ip("192.0.2.2".parse().unwrap()).is_none());
    }

    #[test]
    fn anycast_nearest_site() {
        let s = Server {
            ip: "198.51.100.1".parse().unwrap(),
            asn: Asn(13335),
            sites: vec![
                City::new("Ashburn", cc!("US"), 39.0, -77.5),
                City::new("Frankfurt", cc!("DE"), 50.1, 8.7),
                City::new("Singapore", cc!("SG"), 1.35, 103.8),
            ],
            anycast: true,
            icmp_responsive: true,
            ptr: None,
        };
        let from_paris = crate::coords::GeoPoint::new(48.86, 2.35);
        assert_eq!(s.nearest_site(&from_paris).country, cc!("DE"));
        let from_jakarta = crate::coords::GeoPoint::new(-6.2, 106.8);
        assert_eq!(s.nearest_site(&from_jakarta).country, cc!("SG"));
    }

    #[test]
    fn as_records_iterate() {
        let mut reg = AsRegistry::new();
        reg.insert_as(sample_as(1, cc!("AR"), OrgKind::Government));
        reg.insert_as(sample_as(2, cc!("AR"), OrgKind::LocalProvider));
        assert_eq!(reg.as_count(), 2);
        assert!(reg.as_record(Asn(1)).unwrap().kind.is_state());
    }
}
