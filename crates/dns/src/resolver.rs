//! The catalog resolver.
//!
//! Holds a catalog of authoritative servers (one per zone) and resolves a
//! name by repeatedly querying the server whose zone most specifically
//! covers the current name, chasing CNAME targets across zones. Every
//! query round-trips through wire encoding.
//!
//! The resolver reports the full alias chain: the topsites self-hosting
//! heuristic (paper App. D) classifies sites by comparing the 2LD of the
//! first CNAME target with the site's own 2LD.

use crate::name::DnsName;
use crate::rr::{RData, RecordType};
use crate::server::AuthoritativeServer;
use crate::wire::{Message, Rcode};
use govhost_types::hash::DetHashMap;
use govhost_types::{CountryCode, Hostname};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A PTR lookup plus the zones it read (see
/// [`Resolver::resolve_ptr_sourced`]).
#[derive(Debug)]
pub struct PtrLookup {
    /// The PTR name, as [`Resolver::resolve_ptr`] returns it.
    pub answer: Result<DnsName, ResolutionError>,
    /// The zones the lookup of the address's reverse name
    /// ([`reverse_name`](crate::reverse::reverse_name)) read.
    pub read: ResolutionRead,
}

/// Why a resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionError {
    /// No configured zone covers the name.
    NoZone(DnsName),
    /// The authoritative server answered NXDOMAIN.
    NxDomain(DnsName),
    /// The name exists but carries no A records.
    NoAddresses(DnsName),
    /// Alias chain exceeded the hop limit.
    ChainTooLong,
    /// The server returned an error rcode.
    ServerError(Rcode),
    /// A wire-level failure (should not happen between our own endpoints).
    Wire(String),
}

impl ResolutionError {
    /// Stable label for the `dns.failures{kind=...}` telemetry counter.
    pub fn kind(&self) -> &'static str {
        match self {
            ResolutionError::NoZone(_) => "no_zone",
            ResolutionError::NxDomain(_) => "nxdomain",
            ResolutionError::NoAddresses(_) => "no_addresses",
            ResolutionError::ChainTooLong => "chain_too_long",
            ResolutionError::ServerError(_) => "server_error",
            ResolutionError::Wire(_) => "wire",
        }
    }
}

impl fmt::Display for ResolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolutionError::NoZone(n) => write!(f, "no zone serves {n}"),
            ResolutionError::NxDomain(n) => write!(f, "NXDOMAIN for {n}"),
            ResolutionError::NoAddresses(n) => write!(f, "no A records for {n}"),
            ResolutionError::ChainTooLong => write!(f, "CNAME chain too long"),
            ResolutionError::ServerError(r) => write!(f, "server error rcode {}", r.code()),
            ResolutionError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for ResolutionError {}

/// A successful resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedAnswer {
    /// The names traversed, starting with the queried name; length > 1
    /// means aliases (CNAMEs) were followed.
    pub chain: Vec<DnsName>,
    /// The terminal A records.
    pub addresses: Vec<Ipv4Addr>,
}

impl ResolvedAnswer {
    /// The first alias target, if the queried name was a CNAME.
    pub fn first_cname(&self) -> Option<&DnsName> {
        self.chain.get(1)
    }

    /// The canonical (final) name.
    pub fn canonical(&self) -> &DnsName {
        self.chain.last().expect("chain starts with the query name")
    }
}

/// The `A` answer of a resolution, or `NoAddresses` when it has none.
fn addresses_of(
    (chain, rdatas): (Vec<DnsName>, Vec<RData>),
) -> Result<ResolvedAnswer, ResolutionError> {
    let addresses: Vec<Ipv4Addr> = rdatas
        .into_iter()
        .filter_map(|rd| match rd {
            RData::A(ip) => Some(ip),
            _ => None,
        })
        .collect();
    if addresses.is_empty() {
        Err(ResolutionError::NoAddresses(chain.last().expect("nonempty").clone()))
    } else {
        Ok(ResolvedAnswer { chain, addresses })
    }
}

/// What one resolution read: every query it sent, in order — first the
/// resolved name itself, then one per CNAME hop — with the name asked
/// and the zone [`Resolver::zone_for`] sent it to (`None`: no zone
/// covered the name, and the resolution stopped there).
///
/// Zones are immutable once registered, and [`Resolver::add_server`]
/// replaces one with a new allocation, so a resolution from the same
/// vantage whose every query still goes to the same zone gets the same
/// answer. Holding the `Arc`s keeps their allocations from being reused.
#[derive(Debug, Clone, Default)]
pub struct ResolutionRead {
    queries: Vec<(DnsName, Option<Arc<AuthoritativeServer>>)>,
}

impl ResolutionRead {
    /// Whether `resolver` still sends every query of this resolution to
    /// the zone it went to, and so gives the same answer. Reads the
    /// catalog only: no query is sent and nothing is allocated.
    pub fn holds(&self, resolver: &Resolver) -> bool {
        self.queries.iter().all(|(name, zone)| match (resolver.zone_for(name), zone) {
            (Some(now), Some(then)) => Arc::ptr_eq(now, then),
            (now, then) => now.is_none() && then.is_none(),
        })
    }
}

/// The resolver's catalog of authoritative servers.
///
/// Each server sits behind an [`Arc`], so a clone copies the catalog
/// and shares every zone; [`Resolver::add_server`] replaces a zone
/// rather than editing it, so clones never see each other's writes.
/// Zone apexes come from the generated world, so the catalog hashes
/// with the workspace's deterministic hasher.
#[derive(Debug, Default, Clone)]
pub struct Resolver {
    zones: DetHashMap<DnsName, Arc<AuthoritativeServer>>,
}

impl Resolver {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an authoritative server under its zone apex.
    pub fn add_server(&mut self, server: AuthoritativeServer) {
        self.zones.insert(server.zone().origin().clone(), Arc::new(server));
    }

    /// Number of registered zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// The zone a query for `name` is sent to: the most specific
    /// registered zone covering it. Probes the catalog once per label
    /// suffix, without building any parent name.
    pub fn zone_for(&self, name: &DnsName) -> Option<&Arc<AuthoritativeServer>> {
        let labels = name.labels();
        (0..=labels.len()).find_map(|i| self.zones.get(&labels[i..]))
    }

    /// Resolve `name` to addresses as seen from `vantage`, following CNAME
    /// chains across zones (bounded at 8 hops).
    pub fn resolve(
        &self,
        name: &DnsName,
        vantage: Option<CountryCode>,
    ) -> Result<ResolvedAnswer, ResolutionError> {
        self.resolve_rtype(name, RecordType::A, vantage).and_then(addresses_of)
    }

    /// Resolve a hostname (convenience wrapper).
    pub fn resolve_host(
        &self,
        host: &Hostname,
        vantage: Option<CountryCode>,
    ) -> Result<ResolvedAnswer, ResolutionError> {
        self.resolve(&DnsName::from(host), vantage)
    }

    /// [`Resolver::resolve`], also returning the zone each of its queries
    /// went to (see [`ResolutionRead`]).
    pub fn resolve_reading(
        &self,
        name: &DnsName,
        vantage: Option<CountryCode>,
    ) -> (Result<ResolvedAnswer, ResolutionError>, ResolutionRead) {
        let mut read = ResolutionRead::default();
        let result = self
            .resolve_rtype_traced(name, RecordType::A, vantage, |asked, zone| {
                read.queries.push((asked.clone(), zone.cloned()));
            })
            .and_then(addresses_of);
        (result, read)
    }

    /// The authoritative NS set of `name`: the nameserver target names
    /// its zone declares, in zone order.
    ///
    /// This is the dependency edge the shared-NS single-point-of-failure
    /// analysis walks: a domain whose *entire* NS set lives under one
    /// operator's namespace goes dark with that operator, even when the
    /// web servers it points at are run by somebody else. Unlike
    /// [`Resolver::resolve`] this does not chase CNAME chains — NS
    /// records describe the queried zone itself.
    pub fn resolve_ns(&self, name: &DnsName) -> Result<Vec<DnsName>, ResolutionError> {
        let (_, rdatas) = self.resolve_rtype(name, RecordType::Ns, None)?;
        let servers: Vec<DnsName> = rdatas
            .into_iter()
            .filter_map(|rd| match rd {
                RData::Ns(target) => Some(target),
                _ => None,
            })
            .collect();
        if servers.is_empty() {
            Err(ResolutionError::NoAddresses(name.clone()))
        } else {
            Ok(servers)
        }
    }

    /// Look up the PTR name for an address, if a reverse zone is loaded.
    pub fn resolve_ptr(&self, ip: Ipv4Addr) -> Result<DnsName, ResolutionError> {
        self.resolve_ptr_sourced(ip).answer
    }

    /// [`Resolver::resolve_ptr`], also returning the zones it read: while
    /// that read [holds](ResolutionRead::holds), the same lookup gets the
    /// same answer.
    pub fn resolve_ptr_sourced(&self, ip: Ipv4Addr) -> PtrLookup {
        let name = crate::reverse::reverse_name(ip);
        let mut read = ResolutionRead::default();
        let answer = self
            .resolve_rtype_traced(&name, RecordType::Ptr, None, |asked, zone| {
                read.queries.push((asked.clone(), zone.cloned()));
            })
            .and_then(|(_, rdatas)| {
                rdatas
                    .into_iter()
                    .find_map(|rd| match rd {
                        RData::Ptr(target) => Some(target),
                        _ => None,
                    })
                    .ok_or(ResolutionError::NoAddresses(name))
            });
        PtrLookup { answer, read }
    }

    /// Shared machinery: returns the alias chain and the terminal records.
    ///
    /// Telemetry: one `dns_resolve` span per call; counters `dns.queries`
    /// (per wire round trip), `dns.alias_hops` (per CNAME followed) and
    /// `dns.failures{kind=...}` (per failed resolution — wire-level
    /// truncation surfaces as `kind=wire`).
    fn resolve_rtype(
        &self,
        name: &DnsName,
        rtype: RecordType,
        vantage: Option<CountryCode>,
    ) -> Result<(Vec<DnsName>, Vec<RData>), ResolutionError> {
        self.resolve_rtype_traced(name, rtype, vantage, |_, _| {})
    }

    /// [`Resolver::resolve_rtype`] that reports each query to `hop`
    /// before sending it: the name asked and the zone it goes to.
    fn resolve_rtype_traced(
        &self,
        name: &DnsName,
        rtype: RecordType,
        vantage: Option<CountryCode>,
        hop: impl FnMut(&DnsName, Option<&Arc<AuthoritativeServer>>),
    ) -> Result<(Vec<DnsName>, Vec<RData>), ResolutionError> {
        let _span = govhost_obs::span!("dns_resolve");
        let result = self.resolve_rtype_inner(name, rtype, vantage, hop);
        if let Err(e) = &result {
            govhost_obs::counter_add("dns.failures", &[("kind", e.kind())], 1);
        }
        result
    }

    fn resolve_rtype_inner(
        &self,
        name: &DnsName,
        rtype: RecordType,
        vantage: Option<CountryCode>,
        mut on_hop: impl FnMut(&DnsName, Option<&Arc<AuthoritativeServer>>),
    ) -> Result<(Vec<DnsName>, Vec<RData>), ResolutionError> {
        let mut chain = vec![name.clone()];
        let mut current = name.clone();
        for hop in 0..8u16 {
            let server = self.zone_for(&current);
            on_hop(&current, server);
            let server = server.ok_or_else(|| ResolutionError::NoZone(current.clone()))?;
            govhost_obs::counter_add("dns.queries", &[], 1);
            let query = Message::query(hop + 1, current.clone(), rtype);
            let query_bytes = query.encode().map_err(|e| ResolutionError::Wire(e.to_string()))?;
            let resp_bytes = server
                .handle_bytes(&query_bytes, vantage)
                .map_err(|e| ResolutionError::Wire(e.to_string()))?;
            let resp =
                Message::decode(&resp_bytes).map_err(|e| ResolutionError::Wire(e.to_string()))?;
            match resp.rcode {
                Rcode::NoError => {}
                Rcode::NxDomain => return Err(ResolutionError::NxDomain(current)),
                other => return Err(ResolutionError::ServerError(other)),
            }
            // Walk the answer section: collect terminal records, follow
            // aliases.
            let mut terminal = Vec::new();
            let mut next: Option<DnsName> = None;
            for record in &resp.answers {
                match &record.rdata {
                    RData::Cname(target) if rtype != RecordType::Cname => {
                        govhost_obs::counter_add("dns.alias_hops", &[], 1);
                        chain.push(target.clone());
                        next = Some(target.clone());
                    }
                    rd if rd.record_type() == rtype => terminal.push(rd.clone()),
                    _ => {}
                }
            }
            if !terminal.is_empty() {
                return Ok((chain, terminal));
            }
            match next {
                Some(target) => current = target,
                None => return Err(ResolutionError::NoAddresses(current)),
            }
        }
        Err(ResolutionError::ChainTooLong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use govhost_types::cc;
    use std::collections::HashMap as Map;

    fn n(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn resolver() -> Resolver {
        let mut gov = Zone::new(n("ministerio.gob.ar"));
        gov.add(n("www.ministerio.gob.ar"), RData::Cname(n("www.ministerio.gob.ar.cdn.gphost.net")));
        gov.add(n("static.ministerio.gob.ar"), RData::A(ip("190.210.1.5")));

        let mut cdn = Zone::new(n("cdn.gphost.net"));
        let mut by_country = Map::new();
        by_country.insert(cc!("AR"), vec![ip("203.0.113.50")]);
        cdn.add_geo_a(
            n("www.ministerio.gob.ar.cdn.gphost.net"),
            vec![ip("203.0.113.99")],
            by_country,
        );

        let mut r = Resolver::new();
        r.add_server(AuthoritativeServer::new(gov));
        r.add_server(AuthoritativeServer::new(cdn));
        r
    }

    #[test]
    fn a_clone_shares_zones_until_one_is_replaced() {
        let parent = resolver();
        let mut fork = parent.clone();
        let apex = n("ministerio.gob.ar");
        assert!(Arc::ptr_eq(&parent.zones[&apex], &fork.zones[&apex]));
        let mut moved = Zone::new(apex.clone());
        moved.add(n("static.ministerio.gob.ar"), RData::A(ip("198.51.100.7")));
        fork.add_server(AuthoritativeServer::new(moved));
        let static_host = n("static.ministerio.gob.ar");
        assert_eq!(fork.resolve(&static_host, None).unwrap().addresses, [ip("198.51.100.7")]);
        assert_eq!(parent.resolve(&static_host, None).unwrap().addresses, [ip("190.210.1.5")]);
        let cdn = n("cdn.gphost.net");
        assert!(Arc::ptr_eq(&parent.zones[&cdn], &fork.zones[&cdn]), "other zones stay shared");
    }

    #[test]
    fn a_read_holds_until_a_zone_it_queried_is_replaced() {
        let mut r = resolver();
        let www = n("www.ministerio.gob.ar");
        let (answer, read) = r.resolve_reading(&www, Some(cc!("AR")));
        assert_eq!(answer, r.resolve(&www, Some(cc!("AR"))));
        let unknown = n("www.unknown.org");
        let (_, missing) = r.resolve_reading(&unknown, None);
        // A zone no query went to leaves both reads standing.
        r.add_server(AuthoritativeServer::new(Zone::new(n("other.example"))));
        assert!(read.holds(&r) && missing.holds(&r));
        // Replacing the zone of the CNAME hop breaks the read.
        let mut fork = r.clone();
        fork.add_server(AuthoritativeServer::new(Zone::new(n("cdn.gphost.net"))));
        assert!(!read.holds(&fork) && read.holds(&r));
        // So does a more specific zone appearing under a queried name, and
        // a zone appearing where there was none.
        let mut fork = r.clone();
        fork.add_server(AuthoritativeServer::new(Zone::new(n("www.ministerio.gob.ar"))));
        assert!(!read.holds(&fork));
        r.add_server(AuthoritativeServer::new(Zone::new(n("unknown.org"))));
        assert!(!missing.holds(&r));
    }

    #[test]
    fn direct_a_resolution() {
        let r = resolver();
        let ans = r.resolve(&n("static.ministerio.gob.ar"), None).unwrap();
        assert_eq!(ans.addresses, vec![ip("190.210.1.5")]);
        assert_eq!(ans.chain.len(), 1);
        assert!(ans.first_cname().is_none());
    }

    #[test]
    fn cross_zone_cname_chase_with_geo() {
        let r = resolver();
        let ans = r.resolve(&n("www.ministerio.gob.ar"), Some(cc!("AR"))).unwrap();
        assert_eq!(ans.addresses, vec![ip("203.0.113.50")]);
        assert_eq!(ans.chain.len(), 2);
        assert_eq!(ans.first_cname().unwrap(), &n("www.ministerio.gob.ar.cdn.gphost.net"));
        assert_eq!(ans.canonical(), &n("www.ministerio.gob.ar.cdn.gphost.net"));

        // From elsewhere, the CDN's default PoP answers.
        let ans_de = r.resolve(&n("www.ministerio.gob.ar"), Some(cc!("DE"))).unwrap();
        assert_eq!(ans_de.addresses, vec![ip("203.0.113.99")]);
    }

    #[test]
    fn missing_zone_reports_no_zone() {
        let r = resolver();
        match r.resolve(&n("www.unknown.org"), None) {
            Err(ResolutionError::NoZone(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_propagates() {
        let r = resolver();
        match r.resolve(&n("missing.ministerio.gob.ar"), None) {
            Err(ResolutionError::NxDomain(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dangling_cname_is_no_zone() {
        let mut z = Zone::new(n("dangling.example"));
        z.add(n("www.dangling.example"), RData::Cname(n("target.nowhere.test")));
        let mut r = Resolver::new();
        r.add_server(AuthoritativeServer::new(z));
        match r.resolve(&n("www.dangling.example"), None) {
            Err(ResolutionError::NoZone(name)) => assert_eq!(name, n("target.nowhere.test")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cross_zone_cname_loop_is_bounded() {
        let mut za = Zone::new(n("a.test"));
        za.add(n("x.a.test"), RData::Cname(n("x.b.test")));
        let mut zb = Zone::new(n("b.test"));
        zb.add(n("x.b.test"), RData::Cname(n("x.a.test")));
        let mut r = Resolver::new();
        r.add_server(AuthoritativeServer::new(za));
        r.add_server(AuthoritativeServer::new(zb));
        match r.resolve(&n("x.a.test"), None) {
            Err(ResolutionError::ChainTooLong) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut parent = Zone::new(n("example"));
        parent.add(n("www.sub.example"), RData::A(ip("10.0.0.1")));
        let mut child = Zone::new(n("sub.example"));
        child.add(n("www.sub.example"), RData::A(ip("10.0.0.2")));
        let mut r = Resolver::new();
        r.add_server(AuthoritativeServer::new(parent));
        r.add_server(AuthoritativeServer::new(child));
        let ans = r.resolve(&n("www.sub.example"), None).unwrap();
        assert_eq!(ans.addresses, vec![ip("10.0.0.2")]);
    }

    #[test]
    fn ptr_resolution() {
        let mut rev = Zone::new(n("in-addr.arpa"));
        rev.add(
            n("5.1.210.190.in-addr.arpa"),
            RData::Ptr(n("srv1.buenosaires.ministerio.gob.ar")),
        );
        let mut r = Resolver::new();
        r.add_server(AuthoritativeServer::new(rev));
        let ptr = r.resolve_ptr(ip("190.210.1.5")).unwrap();
        assert_eq!(ptr, n("srv1.buenosaires.ministerio.gob.ar"));
    }

    #[test]
    fn resolve_ns_reports_the_declared_ns_set() {
        let mut zone = Zone::new(n("ministerio.gob.ar"));
        zone.add(n("ministerio.gob.ar"), RData::Ns(n("ns1.dns.cloudflare.net")));
        zone.add(n("ministerio.gob.ar"), RData::Ns(n("ns2.dns.cloudflare.net")));
        zone.add(n("ministerio.gob.ar"), RData::A(ip("190.210.1.9")));
        let mut r = Resolver::new();
        r.add_server(AuthoritativeServer::new(zone));
        let ns = r.resolve_ns(&n("ministerio.gob.ar")).unwrap();
        assert_eq!(ns, vec![n("ns1.dns.cloudflare.net"), n("ns2.dns.cloudflare.net")]);
        // NS names live under the operator apex — the shared-fate edge.
        assert!(ns.iter().all(|name| name.is_under(&n("cloudflare.net"))));
        assert!(r.resolve_ns(&n("www.unknown.org")).is_err());
    }

    #[test]
    fn resolve_host_wrapper() {
        let r = resolver();
        let h: Hostname = "static.ministerio.gob.ar".parse().unwrap();
        assert!(r.resolve_host(&h, None).is_ok());
    }
}
