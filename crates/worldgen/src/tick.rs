//! Deterministic yearly evolution of a generated world.
//!
//! The paper is a single 2024 snapshot; this module lets a [`World`]
//! advance through simulated years so the longitudinal questions (how do
//! concentration, HHI and provider footprints drift as agencies migrate?)
//! become measurable. Each concern is a [`TickSystem`] — provider
//! entry/exit, agency migration to hyperscalers, data-localization policy
//! adoption, anycast footprint growth — and a year advances by running
//! every system once, in a fixed order, each with its own seeded
//! [`DetRng`] stream.
//!
//! # Determinism laws
//!
//! * **Same-seed timeline identity.** A system's random stream is keyed
//!   only by `(world seed, system name, year)`, and all world scans run in
//!   fixed orders (hostnames sorted, countries in
//!   [`COUNTRIES`](crate::countries::COUNTRIES) order,
//!   providers in [`GLOBAL_PROVIDERS`] order, servers in registry order).
//!   Two worlds generated from the same [`GenParams`](crate::GenParams)
//!   therefore produce bit-identical timelines, independent of thread
//!   count — ticking itself is single-threaded by construction.
//! * **Bounded blast radius.** Ticks only re-point DNS (replacing a
//!   hostname's authoritative zone) and update ground truth. They never
//!   add or remove a host, and never mutate the AS registry, the web
//!   corpus, the search index or any geolocation surface, so the
//!   measurement pipeline's view of a country changes only if one of
//!   that country's hostnames was re-pointed. The set of such countries
//!   is the tick's *dirty set*, a report for users (the `dirty` column
//!   of `govhost evolve`, the `/history` routes), not a build input:
//!   `GovDataset::rebuild_incremental` in govhost-core checks the
//!   recorded DNS reads of every cached host itself and re-identifies
//!   only the hosts whose reads changed. The shared-surface half of the
//!   law is checked, not just stated: a unit test in
//!   [`world`](crate::world) checks that ticks leave every `Arc` surface
//!   the world's own allocation, so a cache that keeps clones of the
//!   corpus and search index still holds them after a tick, and a tick
//!   rebuild re-runs only §3.4 identify, never the crawl.
//! * **Cost follows the events.** Systems visit hosts through the
//!   world's host index (sorted by name, grouped by country, built once
//!   and shared by forks) and read each visited host's truth once; no
//!   system sorts or scans the whole truth table per country or per
//!   provider.
//! * **Resolution stays total.** A re-pointed hostname always receives a
//!   fresh zone with a valid `A` record, so ticks never introduce
//!   resolution failures that did not exist at generation time.

use crate::providers::{provider_by_asn, GlobalProvider, GLOBAL_PROVIDERS};
use crate::truth::{HostIndex, HostTruth};
use crate::world::World;
use govhost_det::DetRng;
use govhost_dns::{AuthoritativeServer, DnsName, RData, Zone};
use govhost_netsim::det;
use govhost_types::{Asn, CountryCode, Hostname, ProviderCategory};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Environment variable selecting which tick systems run, as a
/// comma-separated list of system names (see [`default_systems`]).
/// Unset or empty means all of them.
pub const TICKS_ENV: &str = "GOVHOST_TICKS";

/// What one system did to the world in one year.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TickOutcome {
    /// Countries whose hosting surface changed and must be rebuilt.
    pub dirty: BTreeSet<CountryCode>,
    /// Human-readable event log, one line per mutation.
    pub events: Vec<String>,
}

impl TickOutcome {
    fn record(&mut self, system: &str, host: &Hostname, country: CountryCode, asn: Asn) {
        self.dirty.insert(country);
        self.events.push(format!("{system}: {country} {host} -> {asn}"));
    }
}

/// The combined result of running every system for one year.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// The simulated year that was applied (1-based; the generated world
    /// is year 0).
    pub year: u32,
    /// Union of every system's dirty set.
    pub dirty: BTreeSet<CountryCode>,
    /// Concatenated event logs, in system order.
    pub events: Vec<String>,
}

/// One evolutionary concern, advanced a year at a time.
///
/// `apply` must be a pure function of `(world, year, rng)`: no ambient
/// randomness, no iteration over hash maps in storage order. See the
/// module docs for the determinism laws implementations must uphold.
pub trait TickSystem {
    /// Stable identifier; keys the system's random stream and the
    /// [`TICKS_ENV`] filter.
    fn name(&self) -> &'static str;
    /// Advance the world by one year for this concern.
    fn apply(&self, world: &mut World, year: u32, rng: &mut DetRng) -> TickOutcome;
}

/// Advance `world` by one simulated year using the given systems.
///
/// Each system gets an independent [`DetRng`] keyed by
/// `(seed, system name, year)`, so inserting or removing a system never
/// perturbs the streams of the others.
pub fn run_year(world: &mut World, year: u32, systems: &[Box<dyn TickSystem>]) -> TickReport {
    let mut report =
        TickReport { year, dirty: BTreeSet::new(), events: Vec::new() };
    for system in systems {
        let key = det::mix(world.params.seed, &[det::hash_str(system.name()), year as u64]);
        let mut rng = DetRng::new(key);
        let outcome = system.apply(world, year, &mut rng);
        report.dirty.extend(outcome.dirty);
        report.events.extend(outcome.events);
    }
    report
}

/// The standard four systems, in their canonical order.
pub fn default_systems() -> Vec<Box<dyn TickSystem>> {
    vec![
        Box::new(ProviderChurn),
        Box::new(AgencyMigration),
        Box::new(DataLocalization),
        Box::new(AnycastGrowth),
    ]
}

/// A tick-roster spec named a system that does not exist.
///
/// Raised by [`systems_from_spec`] (and therefore [`systems_from_env`])
/// so a typo in `GOVHOST_TICKS` or a scenario file fails loudly instead
/// of silently running a smaller roster than the one asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTickError {
    /// The unrecognized token, verbatim.
    pub token: String,
    /// Every valid system name, in canonical order.
    pub roster: Vec<&'static str>,
}

impl std::fmt::Display for UnknownTickError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown tick system {:?} (valid systems: {})",
            self.token,
            self.roster.join(", ")
        )
    }
}

impl std::error::Error for UnknownTickError {}

/// [`default_systems`] filtered by a comma-separated allow-list of
/// system names. An empty or all-whitespace spec selects every system;
/// a token naming no system is an [`UnknownTickError`] carrying the bad
/// token and the valid roster.
pub fn systems_from_spec(spec: &str) -> Result<Vec<Box<dyn TickSystem>>, UnknownTickError> {
    let all = default_systems();
    let wanted: Vec<&str> =
        spec.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if wanted.is_empty() {
        return Ok(all);
    }
    let roster: Vec<&'static str> = all.iter().map(|s| s.name()).collect();
    if let Some(bad) = wanted.iter().find(|w| !roster.iter().any(|r| r == *w)) {
        return Err(UnknownTickError { token: (*bad).to_string(), roster });
    }
    Ok(all.into_iter().filter(|s| wanted.contains(&s.name())).collect())
}

/// [`default_systems`] filtered by the [`TICKS_ENV`] variable via
/// [`systems_from_spec`]. Unset means all systems; an unknown name in
/// the variable is a typed error, never a silently smaller roster.
pub fn systems_from_env() -> Result<Vec<Box<dyn TickSystem>>, UnknownTickError> {
    match std::env::var(TICKS_ENV) {
        Ok(spec) => systems_from_spec(&spec),
        Err(_) => Ok(default_systems()),
    }
}

/// The ground truth of an indexed hostname (the index and the truth
/// table hold the same names; see [`World::host_index`]).
pub(crate) fn truth_of<'w>(world: &'w World, host: &Hostname) -> &'w HostTruth {
    &world.truth.hosts[host]
}

/// Whether any of `hosts` is served from `asn`.
fn uses(world: &World, hosts: &[Hostname], asn: u32) -> bool {
    hosts.iter().any(|h| truth_of(world, h).asn.value() == asn)
}

/// Countries (in [`COUNTRIES`](crate::countries::COUNTRIES) order) with at
/// least one host on `asn`.
fn users_of(world: &World, index: &HostIndex, asn: u32) -> Vec<CountryCode> {
    index.countries().filter(|(_, hosts)| uses(world, hosts, asn)).map(|(cc, _)| cc).collect()
}

/// The first `limit` of `hosts` (in name order) whose truth satisfies
/// `pick`.
fn pick_hosts(
    world: &World,
    hosts: &[Hostname],
    limit: usize,
    pick: impl Fn(&HostTruth) -> bool,
) -> Vec<Hostname> {
    hosts.iter().filter(|h| pick(truth_of(world, h))).take(limit).cloned().collect()
}

/// The first server of `asn` in registry order, preferring one with a
/// site in `prefer`; `want_anycast` filters on the anycast flag when set.
pub(crate) fn server_of_asn(
    world: &World,
    asn: u32,
    prefer: CountryCode,
    want_anycast: Option<bool>,
) -> Option<Ipv4Addr> {
    let mut fallback = None;
    for server in world.registry.servers() {
        if server.asn.value() != asn {
            continue;
        }
        if let Some(flag) = want_anycast {
            if server.anycast != flag {
                continue;
            }
        }
        if server.sites.iter().any(|site| site.country == prefer) {
            return Some(server.ip);
        }
        if fallback.is_none() {
            fallback = Some(server.ip);
        }
    }
    fallback
}

/// A unicast server physically inside `country`, preferring one run by a
/// state operator (government or SOE AS).
pub(crate) fn domestic_server(world: &World, country: CountryCode) -> Option<Ipv4Addr> {
    let mut fallback = None;
    for server in world.registry.servers() {
        if server.anycast || !server.sites.iter().any(|site| site.country == country) {
            continue;
        }
        let state = world
            .registry
            .as_record(server.asn)
            .map(|rec| rec.kind.is_state())
            .unwrap_or(false);
        if state {
            return Some(server.ip);
        }
        if fallback.is_none() {
            fallback = Some(server.ip);
        }
    }
    fallback
}

/// True provider category of a host in `gov` now served by `asn`,
/// mirroring the generator's classification: state operators are
/// Govt&SOE, the Fig. 10 providers are global, and everything else is
/// local or regional by registration country.
fn category_for(world: &World, asn: Asn, gov: CountryCode) -> ProviderCategory {
    match world.registry.as_record(asn) {
        Some(rec) if rec.kind.is_state() => ProviderCategory::GovtSoe,
        _ if provider_by_asn(asn.value()).is_some() => ProviderCategory::ThirdPartyGlobal,
        Some(rec) if rec.registered_in == gov => ProviderCategory::ThirdPartyLocal,
        _ => ProviderCategory::ThirdPartyRegional,
    }
}

/// Re-point `host` at the server holding `ip`: replace its authoritative
/// zone with a fresh one answering an `A` record, and update ground truth
/// (ASN, anycast flag, physical location, true category). Returns the
/// owning country on success.
pub(crate) fn repoint(
    world: &mut World,
    host: &Hostname,
    ip: Ipv4Addr,
    year: u32,
) -> Option<CountryCode> {
    let gov = world.truth.hosts.get(host)?.country;
    let (asn, anycast, location) = {
        let server = world.registry.server_by_ip(ip)?;
        let domestic = server.sites.iter().find(|site| site.country == gov);
        let location = domestic.or_else(|| server.sites.first())?.country;
        (server.asn, server.anycast, location)
    };
    let apex = DnsName::from(host);
    let mut zone = Zone::new(apex.clone());
    if let (Ok(mname), Ok(rname)) = (apex.child("ns1"), apex.child("hostmaster")) {
        // Serial advances with the simulated year, as a real operator's
        // zone would on migration day.
        zone.add(
            apex.clone(),
            RData::Soa { mname: mname.clone(), rname, serial: 2_024_110_401 + year },
        );
        zone.add(apex.clone(), RData::Ns(mname));
    }
    zone.add(apex.clone(), RData::A(ip));
    world.resolver.add_server(AuthoritativeServer::new(zone));
    let category = category_for(world, asn, gov);
    let truth = world.truth.hosts.get_mut(host)?;
    truth.asn = asn;
    truth.anycast = anycast;
    truth.location = location;
    truth.category = category;
    Some(gov)
}

/// Provider entry and exit (Fig. 10's footprint churn).
///
/// Every year one global provider *enters* a new market: the provider is
/// cycled from [`GLOBAL_PROVIDERS`] and one government not yet using it
/// moves a domestic host onto it. Every fourth year one provider from the
/// long tail *exits* a market: a government using it re-homes those hosts
/// onto domestic state infrastructure.
pub struct ProviderChurn;

impl TickSystem for ProviderChurn {
    fn name(&self) -> &'static str {
        "provider-churn"
    }

    fn apply(&self, world: &mut World, year: u32, rng: &mut DetRng) -> TickOutcome {
        let mut out = TickOutcome::default();
        let index = world.host_index();
        let entrant: &GlobalProvider =
            &GLOBAL_PROVIDERS[(year as usize - 1) % GLOBAL_PROVIDERS.len()];
        let candidates: Vec<CountryCode> = index
            .countries()
            .filter(|(_, hosts)| !uses(world, hosts, entrant.asn))
            .map(|(cc, _)| cc)
            .collect();
        if !candidates.is_empty() {
            let country = candidates[rng.index(candidates.len())];
            let mover = pick_hosts(world, index.hosts_of(country), 1, |t| {
                matches!(t.category, ProviderCategory::GovtSoe | ProviderCategory::ThirdPartyLocal)
            });
            if let Some(host) = mover.first() {
                let want_anycast = if entrant.anycast { Some(true) } else { None };
                if let Some(ip) = server_of_asn(world, entrant.asn, country, want_anycast) {
                    if repoint(world, host, ip, year).is_some() {
                        out.record(self.name(), host, country, entrant.asn());
                    }
                }
            }
        }
        if year.is_multiple_of(4) {
            let tail_index =
                GLOBAL_PROVIDERS.len() - 1 - ((year as usize / 4) % GLOBAL_PROVIDERS.len());
            let leaver = &GLOBAL_PROVIDERS[tail_index];
            let markets = users_of(world, &index, leaver.asn);
            if !markets.is_empty() {
                let country = markets[rng.index(markets.len())];
                let movers = pick_hosts(world, index.hosts_of(country), 2, |t| {
                    t.asn.value() == leaver.asn
                });
                rehome(world, self.name(), &movers, country, year, &mut out);
            }
        }
        out
    }
}

/// Re-point each of `movers` onto the best domestic server of `country`
/// (see [`domestic_server`]), recording the moves in `out`.
fn rehome(
    world: &mut World,
    system: &str,
    movers: &[Hostname],
    country: CountryCode,
    year: u32,
    out: &mut TickOutcome,
) {
    if movers.is_empty() {
        return;
    }
    let Some(ip) = domestic_server(world, country) else { return };
    let Some(asn) = world.registry.server_by_ip(ip).map(|s| s.asn) else { return };
    for host in movers {
        if repoint(world, host, ip, year).is_some() {
            out.record(system, host, country, asn);
        }
    }
}

/// Agency migration to hyperscalers (the §2 consolidation trend).
///
/// Each year roughly a quarter of the governments — chosen by a hash of
/// `(seed, "agency", year, country)`, so membership is stable under
/// replay — move up to two Govt&SOE hosts onto the most-used global
/// provider already serving that country (or Cloudflare when none does).
pub struct AgencyMigration;

impl TickSystem for AgencyMigration {
    fn name(&self) -> &'static str {
        "agency-migration"
    }

    fn apply(&self, world: &mut World, year: u32, _rng: &mut DetRng) -> TickOutcome {
        let mut out = TickOutcome::default();
        let seed = world.params.seed;
        let index = world.host_index();
        for (country, hosts) in index.countries() {
            let gate = det::unit(
                seed,
                &[det::hash_str("agency"), year as u64, det::hash_str(country.as_str())],
            );
            if gate >= 0.25 {
                continue;
            }
            // One pass over the country's hosts: the networks serving it
            // and its first two Govt&SOE hosts.
            let mut serving: BTreeSet<u32> = BTreeSet::new();
            let mut movers: Vec<&Hostname> = Vec::new();
            for host in hosts {
                let truth = truth_of(world, host);
                serving.insert(truth.asn.value());
                if truth.category == ProviderCategory::GovtSoe && movers.len() < 2 {
                    movers.push(host);
                }
            }
            // Destination: the first (most-footprint) Fig. 10 provider
            // already serving this country, else the headliner.
            let present = GLOBAL_PROVIDERS
                .iter()
                .find(|p| serving.contains(&p.asn))
                .unwrap_or(&GLOBAL_PROVIDERS[0]);
            if movers.is_empty() {
                continue;
            }
            let want_anycast = if present.anycast { Some(true) } else { None };
            let Some(ip) = server_of_asn(world, present.asn, country, want_anycast) else {
                continue;
            };
            for host in movers {
                if repoint(world, host, ip, year).is_some() {
                    out.record(self.name(), host, country, present.asn());
                }
            }
        }
        out
    }
}

/// Data-localization policy adoption (§6's sovereignty lens).
///
/// Every third year one government with foreign-located hosts passes a
/// localization mandate: up to three of those hosts are re-homed onto
/// unicast servers physically inside the country, preferring state-run
/// infrastructure.
pub struct DataLocalization;

impl TickSystem for DataLocalization {
    fn name(&self) -> &'static str {
        "data-localization"
    }

    fn apply(&self, world: &mut World, year: u32, rng: &mut DetRng) -> TickOutcome {
        let mut out = TickOutcome::default();
        if !year.is_multiple_of(3) {
            return out;
        }
        let index = world.host_index();
        let offshore: Vec<CountryCode> = index
            .countries()
            .filter(|(cc, hosts)| hosts.iter().any(|h| truth_of(world, h).location != *cc))
            .map(|(cc, _)| cc)
            .collect();
        if offshore.is_empty() {
            return out;
        }
        let country = offshore[rng.index(offshore.len())];
        let movers = pick_hosts(world, index.hosts_of(country), 3, |t| t.location != country);
        rehome(world, self.name(), &movers, country, year, &mut out);
        out
    }
}

/// Anycast footprint growth (§5's CDN-fronting trend).
///
/// Each year one government whose hosts sit on unicast addresses of an
/// anycast-capable provider moves up to two of them onto that provider's
/// anycast fabric, preferring an address with a domestic site.
pub struct AnycastGrowth;

impl TickSystem for AnycastGrowth {
    fn name(&self) -> &'static str {
        "anycast-growth"
    }

    fn apply(&self, world: &mut World, year: u32, rng: &mut DetRng) -> TickOutcome {
        let mut out = TickOutcome::default();
        let eligible = |t: &HostTruth| {
            !t.anycast
                && provider_by_asn(t.asn.value()).map(|p| p.anycast).unwrap_or(false)
        };
        let index = world.host_index();
        let candidates: Vec<CountryCode> = index
            .countries()
            .filter(|(_, hosts)| hosts.iter().any(|h| eligible(truth_of(world, h))))
            .map(|(cc, _)| cc)
            .collect();
        if candidates.is_empty() {
            return out;
        }
        let country = candidates[rng.index(candidates.len())];
        let movers = pick_hosts(world, index.hosts_of(country), 2, eligible);
        for host in movers {
            let asn = truth_of(world, &host).asn;
            if let Some(ip) = server_of_asn(world, asn.value(), country, Some(true)) {
                if repoint(world, &host, ip, year).is_some() {
                    out.record(self.name(), &host, country, asn);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GenParams;

    fn tiny_world() -> World {
        World::generate(&GenParams::tiny())
    }

    #[test]
    fn same_seed_same_timeline() {
        let mut a = tiny_world();
        let mut b = tiny_world();
        let systems = default_systems();
        for year in 1..=5 {
            let ra = run_year(&mut a, year, &systems);
            let rb = run_year(&mut b, year, &systems);
            assert_eq!(ra, rb, "year {year} diverged");
        }
        // The truths evolved identically too.
        let mut ka: Vec<_> = a.truth.hosts.keys().map(|h| h.as_str().to_string()).collect();
        let mut kb: Vec<_> = b.truth.hosts.keys().map(|h| h.as_str().to_string()).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
        for k in &ka {
            let h: Hostname = k.parse().unwrap();
            let ta = a.truth.hosts.get(&h).unwrap();
            let tb = b.truth.hosts.get(&h).unwrap();
            assert_eq!((ta.asn, ta.anycast, ta.location, ta.category),
                       (tb.asn, tb.anycast, tb.location, tb.category));
        }
    }

    #[test]
    fn ticks_mark_exactly_the_repointed_countries() {
        let mut world = tiny_world();
        let before = world.truth.clone();
        let report = run_year(&mut world, 1, &default_systems());
        let mut changed = BTreeSet::new();
        for (host, truth) in &world.truth.hosts {
            let old = before.hosts.get(host).expect("ticks never add hosts");
            if old.asn != truth.asn
                || old.anycast != truth.anycast
                || old.location != truth.location
                || old.category != truth.category
            {
                changed.insert(truth.country);
            }
        }
        assert_eq!(changed, report.dirty);
    }

    #[test]
    fn repointed_hosts_still_resolve() {
        let mut world = tiny_world();
        for year in 1..=3 {
            run_year(&mut world, year, &default_systems());
        }
        for host in world.host_index().sorted() {
            let gov = world.truth.hosts[host].country;
            let answer = world.resolver.resolve(&DnsName::from(host), Some(gov));
            assert!(answer.is_ok(), "{host} stopped resolving after ticks");
        }
    }

    #[test]
    fn env_filter_selects_by_name() {
        // Avoid mutating the process environment (other tests run in
        // parallel); exercise the parsing path through systems_from_spec.
        let names: Vec<&str> = default_systems().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["provider-churn", "agency-migration", "data-localization", "anycast-growth"]
        );
        let picked = systems_from_spec(" agency-migration , anycast-growth ").unwrap();
        let picked: Vec<&str> = picked.iter().map(|s| s.name()).collect();
        assert_eq!(picked, ["agency-migration", "anycast-growth"]);
        let all = systems_from_spec("  ").unwrap();
        assert_eq!(all.len(), default_systems().len());
    }

    #[test]
    fn unknown_tick_names_are_typed_errors_naming_token_and_roster() {
        let err = match systems_from_spec("provider-churn,provider-chrun") {
            Err(err) => err,
            Ok(_) => panic!("a typo'd system name must not parse"),
        };
        assert_eq!(err.token, "provider-chrun");
        assert_eq!(
            err.roster,
            ["provider-churn", "agency-migration", "data-localization", "anycast-growth"]
        );
        let msg = err.to_string();
        assert!(msg.contains("provider-chrun"), "names the bad token: {msg}");
        assert!(msg.contains("data-localization"), "names the valid roster: {msg}");
        // Case matters — names are stable identifiers, not fuzzy matches.
        assert!(systems_from_spec("Provider-Churn").is_err());
    }

    #[test]
    fn ticks_never_touch_clean_countries_resolution() {
        let mut world = tiny_world();
        let systems = default_systems();
        // Snapshot every host's resolved address, tick, and check that
        // hosts in clean countries answer exactly as before.
        let before: Vec<(Hostname, CountryCode, Option<Ipv4Addr>)> = world
            .host_index()
            .sorted()
            .iter()
            .map(|h| {
                let gov = world.truth.hosts[h].country;
                let ip = world
                    .resolver
                    .resolve(&DnsName::from(h), Some(gov))
                    .ok()
                    .and_then(|ans| ans.addresses.first().copied());
                (h.clone(), gov, ip)
            })
            .collect();
        let report = run_year(&mut world, 1, &systems);
        for (host, gov, ip) in before {
            if report.dirty.contains(&gov) {
                continue;
            }
            let now = world
                .resolver
                .resolve(&DnsName::from(&host), Some(gov))
                .ok()
                .and_then(|ans| ans.addresses.first().copied());
            assert_eq!(ip, now, "{host} changed despite {gov} being clean");
        }
    }
}
