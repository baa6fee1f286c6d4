//! Counterfactual shocks: hand-authored world mutations for the
//! what-if engine in `govhost-scenario`.
//!
//! A shock is a [`tick`](crate::tick)-shaped mutation applied outside
//! the yearly evolution loop: it rewrites DNS zones (and, where the
//! mutation has a real-world operator, ground truth) and reports the
//! countries whose hosting surface changed (the scenario slabs show
//! them). `GovDataset::rebuild_incremental` in govhost-core does not
//! read that report: it checks every cached host's DNS reads itself and
//! re-identifies only the hosts whose reads changed. Shocks walk the
//! world's host index like ticks do. No shock writes a shared
//! surface — the web corpus and search index included — so a shocked
//! world keeps the allocations its baseline's cache holds (a unit test
//! in [`world`](crate::world) checks all three shocks) and its rebuild
//! re-runs only §3.4 identify. Shocks obey the tick
//! determinism laws — fixed iteration orders, randomness only through
//! seed-keyed hashes — with one deliberate exception: **a provider
//! outage breaks the "resolution stays total" law.** Going dark is the point; darkened hostnames stop
//! resolving and surface in the rebuilt dataset as unresolved host
//! records (the per-country *dark fraction*).
//!
//! The outage walks two dependency edges:
//!
//! * **tenancy** — the host is served from the failed provider's
//!   network (ground truth ASN, which also covers CDN-fronted hosts
//!   whose CNAME chain ends in the provider's zone), and
//! * **shared NS** — the host's authoritative NS set lives under the
//!   failed provider's namespace ([`Resolver::resolve_ns`]), the
//!   shared-nameserver single point of failure of the
//!   authoritative-DNS-resilience literature. A host dark *only*
//!   through this edge is "NS-only exposure": its web servers are fine,
//!   but nobody can find them.

use crate::providers::GlobalProvider;
use crate::tick::{domestic_server, repoint, truth_of};
use crate::world::World;
use govhost_dns::{AuthoritativeServer, DnsName, RData, Resolver, Zone};
use govhost_netsim::det;
use govhost_types::{Asn, CountryCode, Hostname};
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// The synthetic "year" a shock stamps into rewritten SOA serials —
/// far past any plausible tick year, so shocked zones are recognizable
/// and never collide with evolution serials.
pub const SHOCK_YEAR: u32 = 9_000;

/// Share of hostnames a vantage shock re-points (per vantage key).
const VANTAGE_SHIFT_FRACTION: f64 = 0.15;

/// Why a hostname went dark in a provider outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DarkCause {
    /// Served from the failed provider's network.
    Tenancy,
    /// Hosted elsewhere, but the entire authoritative NS set resolves
    /// through the failed provider — the shared-NS cascade.
    NsOnly,
}

impl DarkCause {
    /// Stable lowercase label (`"tenancy"` / `"ns-only"`).
    pub fn label(&self) -> &'static str {
        match self {
            DarkCause::Tenancy => "tenancy",
            DarkCause::NsOnly => "ns-only",
        }
    }
}

/// One hostname taken down by an outage shock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DarkHost {
    /// The darkened hostname.
    pub host: Hostname,
    /// The government it belongs to.
    pub country: CountryCode,
    /// Which dependency edge killed it.
    pub cause: DarkCause,
}

/// What one shock did to the world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShockReport {
    /// Countries whose hosting surface changed.
    pub dirty: BTreeSet<CountryCode>,
    /// Human-readable event log, one line per mutation, in hostname
    /// order.
    pub events: Vec<String>,
    /// Hosts an outage darkened (empty for non-outage shocks).
    pub darkened: Vec<DarkHost>,
}

/// Take a global provider down: every hosting tenancy on its network
/// and every domain whose authoritative NS set resolves through it
/// stops resolving.
///
/// Each darkened hostname's zone is replaced with an SOA-only shell (no
/// `A`, no `CNAME` — queries answer NoData, which the measurement
/// pipeline records as an unresolved host), and the provider's own zone
/// is emptied so its CDN edge names and managed-DNS server names
/// disappear with it.
pub fn provider_outage(world: &mut World, provider: &GlobalProvider) -> ShockReport {
    let apex = provider.zone_apex();
    let mut report = ShockReport::default();
    let index = world.host_index();
    for host in index.sorted() {
        let truth = truth_of(world, host);
        let country = truth.country;
        let tenancy = truth.asn.value() == provider.asn;
        let name = DnsName::from(host);
        let ns_dependent = match world.resolver.resolve_ns(&name) {
            Ok(ns) => ns.iter().all(|target| target.is_under(&apex)),
            Err(_) => false,
        };
        if !tenancy && !ns_dependent {
            continue;
        }
        let cause = if tenancy { DarkCause::Tenancy } else { DarkCause::NsOnly };
        blackhole(&mut world.resolver, &name);
        report.dirty.insert(country);
        report.events.push(format!(
            "outage: AS{} {country} {host} dark ({})",
            provider.asn,
            cause.label()
        ));
        report.darkened.push(DarkHost { host: host.clone(), country, cause });
    }
    // The provider's own zone goes with it: edge names and managed-DNS
    // server names under the apex stop answering.
    world.resolver.add_server(AuthoritativeServer::new(Zone::new(apex)));
    report
}

/// Replace a hostname's zone with an SOA-only shell: the name still has
/// a zone (so queries reach an authority) but answers no addresses.
fn blackhole(resolver: &mut Resolver, apex: &DnsName) {
    let mut zone = Zone::new(apex.clone());
    if let (Ok(mname), Ok(rname)) = (apex.child("ns1"), apex.child("hostmaster")) {
        zone.add(
            apex.clone(),
            RData::Soa { mname, rname, serial: 2_024_110_401 + SHOCK_YEAR },
        );
    }
    resolver.add_server(AuthoritativeServer::new(zone));
}

/// Forced data localization: re-home every offshore-located hosting
/// tenancy of `target` (or of every studied country, when `None`) onto
/// the best in-country unicast server, preferring state-run
/// infrastructure — the [`DataLocalization`](crate::tick::DataLocalization)
/// tick without its yearly budget.
pub fn onshore(world: &mut World, target: Option<CountryCode>) -> ShockReport {
    let mut report = ShockReport::default();
    let index = world.host_index();
    for (country, hosts) in index.countries() {
        if target.is_some_and(|t| t != country) {
            continue;
        }
        let movers: Vec<&Hostname> =
            hosts.iter().filter(|h| truth_of(world, h).location != country).collect();
        if movers.is_empty() {
            continue;
        }
        let Some(ip) = domestic_server(world, country) else { continue };
        let Some(asn) = world.registry.server_by_ip(ip).map(|s| s.asn) else { continue };
        for host in movers {
            if repoint(world, host, ip, SHOCK_YEAR).is_some() {
                report.dirty.insert(country);
                report.events.push(format!("onshore: {country} {host} -> {asn}"));
            }
        }
    }
    report
}

/// Vantage disagreement: re-point a deterministic, vantage-key-selected
/// share of hostnames onto a *different* server of the same operating
/// AS, so geolocation and resolution verdicts shift exactly where a
/// measurement from another vantage would disagree. The selection is a
/// pure hash of `(world seed, key, hostname)` — two runs with the same
/// key perturb the same hosts.
pub fn vantage_shift(world: &mut World, key: &str) -> ShockReport {
    let mut report = ShockReport::default();
    let seed = world.params.seed;
    // Each (AS, fabric)'s addresses in registry order, gathered in one
    // pass; ticks and shocks never write the registry.
    let mut fabrics: HashMap<(Asn, bool), Vec<Ipv4Addr>> = HashMap::new();
    for server in world.registry.servers() {
        fabrics.entry((server.asn, server.anycast)).or_default().push(server.ip);
    }
    let index = world.host_index();
    for host in index.sorted() {
        let gate = det::unit(
            seed,
            &[det::hash_str("vantage-shock"), det::hash_str(key), det::hash_str(host.as_str())],
        );
        if gate >= VANTAGE_SHIFT_FRACTION {
            continue;
        }
        let truth = truth_of(world, host);
        let (country, asn, anycast) = (truth.country, truth.asn, truth.anycast);
        let current = world
            .resolver
            .resolve(&DnsName::from(host), Some(country))
            .ok()
            .and_then(|ans| ans.addresses.first().copied());
        // A different address of the same AS and fabric (anycast hosts
        // stay anycast, unicast stays unicast), in registry order.
        let alternative = fabrics
            .get(&(asn, anycast))
            .and_then(|ips| ips.iter().copied().find(|ip| Some(*ip) != current));
        let Some(ip) = alternative else { continue };
        if repoint(world, host, ip, SHOCK_YEAR).is_some() {
            report.dirty.insert(country);
            report.events.push(format!("vantage[{key}]: {country} {host} -> {ip}"));
        }
    }
    report
}

impl ShockReport {
    /// Fold another shock's report into this one, preserving event
    /// order (shocks apply sequentially).
    pub fn absorb(&mut self, other: ShockReport) {
        self.dirty.extend(other.dirty);
        self.events.extend(other.events);
        self.darkened.extend(other.darkened);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GenParams;
    use crate::providers::GLOBAL_PROVIDERS;

    fn tiny_world() -> World {
        World::generate(&GenParams::tiny())
    }

    #[test]
    fn outage_darkens_tenancies_and_ns_dependents() {
        let mut world = tiny_world();
        // Find a provider with any exposure in the tiny world.
        let provider = GLOBAL_PROVIDERS
            .iter()
            .find(|p| {
                world.truth.hosts.values().any(|t| t.asn.value() == p.asn)
            })
            .expect("tiny worlds use global providers");
        let report = provider_outage(&mut world, provider);
        assert!(!report.darkened.is_empty());
        for dark in &report.darkened {
            let answer = world.resolver.resolve(&DnsName::from(&dark.host), Some(dark.country));
            assert!(answer.is_err(), "{} still resolves after the outage", dark.host);
            assert!(report.dirty.contains(&dark.country));
        }
        // Clean-country hosts keep resolving.
        for (host, truth) in &world.truth.hosts {
            if report.dirty.contains(&truth.country) {
                continue;
            }
            assert!(
                world.resolver.resolve(&DnsName::from(host), Some(truth.country)).is_ok(),
                "{host} in a clean country stopped resolving"
            );
        }
    }

    #[test]
    fn some_world_has_ns_only_exposure() {
        // The managed-DNS operators must create shared-NS cascades:
        // at least one (operator, host) pair where the host is hosted
        // elsewhere but its NS set is the operator's.
        let world = tiny_world();
        let ns_only = GLOBAL_PROVIDERS.iter().any(|p| {
            let apex = p.zone_apex();
            world.truth.hosts.iter().any(|(host, truth)| {
                truth.asn.value() != p.asn
                    && world
                        .resolver
                        .resolve_ns(&DnsName::from(host))
                        .map(|ns| ns.iter().all(|t| t.is_under(&apex)))
                        .unwrap_or(false)
            })
        });
        assert!(ns_only, "no NS-only exposure anywhere — managed DNS is not wired");
    }

    #[test]
    fn onshore_moves_offshore_hosts_home() {
        let mut world = tiny_world();
        let offshore_before = world
            .truth
            .hosts
            .values()
            .filter(|t| t.location != t.country)
            .count();
        assert!(offshore_before > 0, "tiny worlds host offshore");
        let report = onshore(&mut world, None);
        let offshore_after = world
            .truth
            .hosts
            .values()
            .filter(|t| t.location != t.country)
            .count();
        assert!(offshore_after < offshore_before, "onshore must repatriate hosts");
        assert_eq!(report.events.len(), offshore_before - offshore_after);
        // Everything still resolves — onshore re-points, never darkens.
        for (host, truth) in &world.truth.hosts {
            assert!(
                world.resolver.resolve(&DnsName::from(host), Some(truth.country)).is_ok(),
                "{host} stopped resolving after onshore"
            );
        }
    }

    #[test]
    fn vantage_shift_is_keyed_and_deterministic() {
        let mut a = tiny_world();
        let mut b = tiny_world();
        let ra = vantage_shift(&mut a, "probe-7");
        let rb = vantage_shift(&mut b, "probe-7");
        assert_eq!(ra, rb, "same key, same shift");
        let mut c = tiny_world();
        let rc = vantage_shift(&mut c, "probe-8");
        assert_ne!(ra.events, rc.events, "different keys select different hosts");
        assert!(!ra.events.is_empty(), "a vantage shock moves something");
    }
}
