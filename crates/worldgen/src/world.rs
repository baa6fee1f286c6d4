//! The assembled world: every substrate surface the measurement pipeline
//! talks to, in one struct.
//!
//! ## Forks
//!
//! Ticks and shocks write two surfaces only: DNS ([`World::resolver`])
//! and ground truth ([`World::truth`]). Every other surface is held
//! behind an [`Arc`], so `World::clone` — a *fork* — copies the
//! resolver (its zone catalog; the zones themselves are shared until a
//! tick or shock replaces one), the ground truth and the parameters,
//! and shares the AS registry, PeeringDB, search index, web corpus,
//! probe fleet, latency model, geolocation surfaces, landing lists,
//! topsite lists and the host index ticks and shocks walk with its
//! parent. A what-if scenario shocks a fork of the baseline world and
//! leaves the baseline untouched.
//!
//! ## Writes
//!
//! A shared surface is written through [`Arc::make_mut`]
//! (`Arc::make_mut(&mut world.corpus)`), so a write is copy-on-write:
//! while any other clone of the `Arc` is held — by a fork, a parent or
//! a cached build result — the writer gets its own copy at a new
//! allocation and the holder keeps the old one. That is the whole
//! contract a cache needs: a result that keeps strong clones of the
//! surfaces it read is still valid exactly while each clone is the
//! world's own allocation ([`Arc::ptr_eq`]).

use crate::countries::{CountryRow, COUNTRIES};
use crate::params::GenParams;
use crate::truth::{GroundTruth, HostIndex};
use govhost_dns::Resolver;
use govhost_geoloc::pipeline::{GeolocationPipeline, PipelineConfig};
use govhost_geoloc::{CountryThresholds, GeoDb, Hoiho, IpMapCache, MAnycastSnapshot};
use govhost_netsim::asdb::AsRegistry;
use govhost_netsim::latency::LatencyModel;
use govhost_netsim::peeringdb::PeeringDb;
use govhost_netsim::probes::ProbeFleet;
use govhost_netsim::search::SearchIndex;
use govhost_types::{CountryCode, Url};
use govhost_web::corpus::WebCorpus;
use govhost_web::vantage::{VantagePoint, VpnProvider};
use std::collections::HashMap;
use std::sync::Arc;

/// A fully-generated simulated Internet.
///
/// Build one with [`World::generate`]; the fields are the observable
/// surfaces of §3's methodology (plus [`World::truth`], which is reserved
/// for tests and calibration). Every surface but `resolver` and `truth`
/// is shared behind an [`Arc`], so `clone` is a cheap fork and a write
/// is copy-on-write (see the module docs).
#[derive(Debug, Clone)]
pub struct World {
    /// The parameters that built this world.
    pub params: GenParams,
    /// AS registry, prefix allocations and servers.
    pub registry: Arc<AsRegistry>,
    /// PeeringDB snapshot.
    pub peeringdb: Arc<PeeringDb>,
    /// The web-search index (last-resort classification evidence).
    pub search: Arc<SearchIndex>,
    /// DNS: every authoritative zone, including the reverse zone.
    pub resolver: Resolver,
    /// All websites.
    pub corpus: Arc<WebCorpus>,
    /// RIPE-Atlas-style probes.
    pub fleet: Arc<ProbeFleet>,
    /// The latency model shared by all active measurements.
    pub latency: Arc<LatencyModel>,
    /// IPInfo-like geolocation database (with injected errors).
    pub geodb: Arc<GeoDb>,
    /// MAnycast2 snapshot.
    pub manycast: Arc<MAnycastSnapshot>,
    /// Per-country latency thresholds.
    pub thresholds: Arc<CountryThresholds>,
    /// HOIHO hint dictionary.
    pub hoiho: Arc<Hoiho>,
    /// IPmap cache.
    pub ipmap: Arc<IpMapCache>,
    /// §3.1 output: the landing URLs per studied country.
    pub(crate) landing_pages: Arc<HashMap<CountryCode, Vec<Url>>>,
    /// CrUX-style topsite lists for the 14 comparison countries.
    pub topsites: Arc<HashMap<CountryCode, Vec<Url>>>,
    /// Ground truth (tests only).
    pub truth: GroundTruth,
    /// The hostnames of `truth`, sorted and grouped by country.
    pub(crate) host_index: Arc<HostIndex>,
}

impl World {
    /// Static rows for the 61 studied countries.
    pub fn studied_countries(&self) -> &'static [CountryRow] {
        COUNTRIES
    }

    /// The VPN vantage point used for a country (Table 9).
    pub fn vantage(&self, country: CountryCode) -> VantagePoint {
        let provider = crate::countries::country(country)
            .map(|row| row.vpn)
            .unwrap_or(VpnProvider::Nord);
        VantagePoint::new(country, provider)
    }

    /// Landing URLs for one country (empty for countries without data,
    /// e.g. KR).
    pub fn landing(&self, country: CountryCode) -> &[Url] {
        self.landing_pages.get(&country).map_or(&[], Vec::as_slice)
    }

    /// The index of this world's government hostnames, as a handle that
    /// outlives a borrow of the world, so a tick or shock can walk it
    /// while it rewrites DNS and ground truth.
    pub(crate) fn host_index(&self) -> Arc<HostIndex> {
        debug_assert_eq!(
            self.host_index.len(),
            self.truth.hosts.len(),
            "ground-truth hosts were added or removed after generation"
        );
        Arc::clone(&self.host_index)
    }

    /// The §3.5 geolocation pipeline over this world's surfaces, run
    /// with `config`.
    pub fn geolocation(&self, config: PipelineConfig) -> GeolocationPipeline<'_> {
        GeolocationPipeline {
            registry: &self.registry,
            geodb: &self.geodb,
            anycast: &self.manycast,
            fleet: &self.fleet,
            model: &self.latency,
            thresholds: &self.thresholds,
            hoiho: &self.hoiho,
            ipmap: &self.ipmap,
            resolver: &self.resolver,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::provider_by_asn;
    use crate::{default_systems, run_year, shock};

    fn tiny() -> World {
        World::generate(&GenParams::tiny())
    }

    /// Assert that `a` and `b` share every surface a fork shares.
    fn assert_shares_surfaces(a: &World, b: &World, what: &str) {
        let shared = [
            ("registry", Arc::ptr_eq(&a.registry, &b.registry)),
            ("peeringdb", Arc::ptr_eq(&a.peeringdb, &b.peeringdb)),
            ("search", Arc::ptr_eq(&a.search, &b.search)),
            ("corpus", Arc::ptr_eq(&a.corpus, &b.corpus)),
            ("fleet", Arc::ptr_eq(&a.fleet, &b.fleet)),
            ("latency", Arc::ptr_eq(&a.latency, &b.latency)),
            ("geodb", Arc::ptr_eq(&a.geodb, &b.geodb)),
            ("manycast", Arc::ptr_eq(&a.manycast, &b.manycast)),
            ("thresholds", Arc::ptr_eq(&a.thresholds, &b.thresholds)),
            ("hoiho", Arc::ptr_eq(&a.hoiho, &b.hoiho)),
            ("ipmap", Arc::ptr_eq(&a.ipmap, &b.ipmap)),
            ("landing_pages", Arc::ptr_eq(&a.landing_pages, &b.landing_pages)),
            ("topsites", Arc::ptr_eq(&a.topsites, &b.topsites)),
            ("host_index", Arc::ptr_eq(&a.host_index, &b.host_index)),
        ];
        for (surface, same) in shared {
            assert!(same, "{what} wrote the shared {surface}");
        }
    }

    /// Write the corpus and search index of a fork of `parent`, and
    /// assert the parent keeps its own allocations.
    fn assert_fork_writes_are_private(parent: &World) {
        let (corpus, search) = (Arc::as_ptr(&parent.corpus), Arc::as_ptr(&parent.search));
        let mut child = parent.clone();
        Arc::make_mut(&mut child.corpus);
        Arc::make_mut(&mut child.search);
        assert_eq!(Arc::as_ptr(&parent.corpus), corpus, "the parent keeps its corpus");
        assert_eq!(Arc::as_ptr(&parent.search), search, "the parent keeps its search index");
        assert!(!Arc::ptr_eq(&child.corpus, &parent.corpus), "the fork copied the corpus");
        assert!(!Arc::ptr_eq(&child.search, &parent.search), "the fork copied the index");
    }

    #[test]
    fn shared_surfaces_are_shared_by_a_fork() {
        let (a, b) = (tiny(), tiny());
        assert!(!Arc::ptr_eq(&a.corpus, &b.corpus), "two generated worlds share no corpus");
        assert!(!Arc::ptr_eq(&a.search, &b.search), "two generated worlds share no index");
        let fork = a.clone();
        assert_shares_surfaces(&a, &fork, "a fork");
    }

    /// The law a cached build result relies on: a write made while
    /// another clone of the surface is held lands at a new allocation,
    /// every time, and the holder keeps the old one. Without a holder
    /// the write is in place, which is why a cache keeps strong clones
    /// rather than addresses.
    #[test]
    fn shared_surfaces_written_while_held_move() {
        let mut world = tiny();
        for round in 0..2 {
            let (corpus, search) = (Arc::clone(&world.corpus), Arc::clone(&world.search));
            Arc::make_mut(&mut world.corpus);
            Arc::make_mut(&mut world.search);
            assert!(!Arc::ptr_eq(&corpus, &world.corpus), "round {round}: the corpus moved");
            assert!(!Arc::ptr_eq(&search, &world.search), "round {round}: the index moved");
        }
        let alone = Arc::as_ptr(&world.corpus);
        Arc::make_mut(&mut world.corpus);
        assert_eq!(Arc::as_ptr(&world.corpus), alone, "an unheld surface is written in place");
    }

    #[test]
    fn shared_surfaces_are_not_written_by_ticks() {
        let mut world = tiny();
        let fork = world.clone();
        let systems = default_systems();
        let mut events = 0;
        for year in 1..=4 {
            events += run_year(&mut world, year, &systems).events.len();
        }
        assert!(events > 0, "the ticks changed something");
        assert_shares_surfaces(&world, &fork, "a tick");
        assert_fork_writes_are_private(&world);
    }

    #[test]
    fn shared_surfaces_are_not_written_by_shocks() {
        let cloudflare = provider_by_asn(13335).expect("Cloudflare is in the roster");
        let base = tiny();
        for name in ["outage", "onshore", "vantage"] {
            let mut world = base.clone();
            let report = match name {
                "outage" => shock::provider_outage(&mut world, cloudflare),
                "onshore" => shock::onshore(&mut world, None),
                _ => shock::vantage_shift(&mut world, "probe-7"),
            };
            assert!(!report.dirty.is_empty(), "{name} changed something");
            assert_shares_surfaces(&world, &base, name);
            assert_fork_writes_are_private(&world);
        }
    }
}
