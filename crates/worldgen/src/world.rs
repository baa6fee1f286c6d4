//! The assembled world: every substrate surface the measurement pipeline
//! talks to, in one struct.
//!
//! ## Forks
//!
//! Ticks and shocks write two surfaces only: DNS ([`World::resolver`])
//! and ground truth ([`World::truth`]). Every other surface is held
//! behind an [`Arc`], so `World::clone` — a *fork* — copies the
//! resolver (its zone catalog; the zones themselves are shared until a
//! tick or shock replaces one), the ground truth, the parameters and
//! the content version, and shares the AS registry, PeeringDB, search
//! index, web corpus, probe fleet, latency model, geolocation surfaces,
//! landing lists, topsite lists and the host index ticks and shocks walk
//! with its parent. A what-if scenario
//! shocks a fork of the baseline world and leaves the baseline
//! untouched. The two crawl-side surfaces that can be written, the
//! corpus and the search index, are copy-on-write: [`World::corpus_mut`]
//! and [`World::search_mut`] go through [`Arc::make_mut`], so a fork
//! that writes one gets its own copy and its parent's is never reached.
//!
//! ## Content versions
//!
//! The surfaces a §3.2–§3.3 crawl reads — the web corpus, the search
//! index and the landing lists — are private. They can be read through
//! [`World::corpus`], [`World::search`] and [`World::landing`], and
//! written only through [`World::corpus_mut`] and [`World::search_mut`].
//! Each of those calls stamps a fresh, process-unique
//! [`ContentVersion`], and so does [`World::generate`]; a fork copies
//! its parent's. Two worlds whose [`World::content_version`]s are equal
//! are therefore one lineage with no crawl-side write since they forked,
//! and serve the same crawl bytes, which is what lets a dataset build
//! reuse a country's cached crawl instead of re-crawling it. Ticks and
//! shocks rewrite DNS and ground truth only, so they leave the version
//! alone.

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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which content a world's crawl-side surfaces (corpus, search index,
/// landing lists) hold.
///
/// [`World::generate`] and every write through [`World::corpus_mut`] or
/// [`World::search_mut`] take a number no other world in the process
/// has; a fork copies its parent's. Equal versions therefore mean equal
/// content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentVersion(u64);

impl ContentVersion {
    /// A version no other world in the process holds.
    pub(crate) fn fresh() -> ContentVersion {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the number publishes no other data; the atomic
        // fetch_add alone makes it unique.
        ContentVersion(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A fully-generated simulated Internet.
///
/// Build one with [`World::generate`]; the fields are the observable
/// surfaces of §3's methodology (plus [`World::truth`], which is reserved
/// for tests and calibration). The crawl-side surfaces are behind
/// accessors so every write to them is versioned. Every surface but
/// `resolver` and `truth` is shared behind an [`Arc`], so `clone` is a
/// cheap fork (see the module docs).
#[derive(Debug, Clone)]
pub struct World {
    /// The parameters that built this world.
    pub params: GenParams,
    /// AS registry, prefix allocations and servers.
    pub registry: Arc<AsRegistry>,
    /// PeeringDB snapshot.
    pub peeringdb: Arc<PeeringDb>,
    /// The web-search index (last-resort classification evidence).
    pub(crate) search: Arc<SearchIndex>,
    /// DNS: every authoritative zone, including the reverse zone.
    pub resolver: Resolver,
    /// All websites.
    pub(crate) corpus: Arc<WebCorpus>,
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
    /// What the crawl-side surfaces hold.
    pub(crate) content_version: ContentVersion,
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

    /// All websites.
    pub fn corpus(&self) -> &WebCorpus {
        &self.corpus
    }

    /// The web-search index (last-resort classification evidence).
    pub fn search(&self) -> &SearchIndex {
        &self.search
    }

    /// The search index's shared allocation: holding a clone tells a
    /// later caller whether the index was since written or replaced,
    /// since either lands at a new address.
    pub fn shared_search(&self) -> &Arc<SearchIndex> {
        &self.search
    }

    /// Write access to the web corpus. Stamps a fresh
    /// [`ContentVersion`], so crawls cached against the old content are
    /// never reused. Copy-on-write: a corpus shared with a fork or a
    /// parent is copied first, and the other world keeps the old one.
    pub fn corpus_mut(&mut self) -> &mut WebCorpus {
        self.content_version = ContentVersion::fresh();
        Arc::make_mut(&mut self.corpus)
    }

    /// Write access to the search index. Stamps a fresh
    /// [`ContentVersion`] and copies a shared index first, like
    /// [`World::corpus_mut`].
    pub fn search_mut(&mut self) -> &mut SearchIndex {
        self.content_version = ContentVersion::fresh();
        Arc::make_mut(&mut self.search)
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

    /// What the crawl-side surfaces (corpus, search index, landing
    /// lists) currently hold.
    pub fn content_version(&self) -> ContentVersion {
        self.content_version
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
    /// assert the parent keeps its own pointers and version.
    fn assert_fork_writes_are_private(parent: &World) {
        let (corpus, search) = (Arc::as_ptr(&parent.corpus), Arc::as_ptr(&parent.search));
        let version = parent.content_version();
        let mut child = parent.clone();
        child.corpus_mut();
        child.search_mut();
        assert_eq!(Arc::as_ptr(&parent.corpus), corpus, "the parent keeps its corpus");
        assert_eq!(Arc::as_ptr(&parent.search), search, "the parent keeps its search index");
        assert!(!Arc::ptr_eq(&child.corpus, &parent.corpus), "the fork copied the corpus");
        assert!(!Arc::ptr_eq(&child.search, &parent.search), "the fork copied the index");
        assert_eq!(parent.content_version(), version, "the parent keeps its version");
        assert_ne!(child.content_version(), version, "the fork's write is versioned");
    }

    #[test]
    fn content_version_follows_lineage() {
        let (a, b) = (tiny(), tiny());
        assert_ne!(
            a.content_version(),
            b.content_version(),
            "two generated worlds never share a version"
        );
        let fork = a.clone();
        assert_eq!(fork.content_version(), a.content_version(), "a fork shares its parent's");
        assert_shares_surfaces(&a, &fork, "a fork");
    }

    #[test]
    fn content_version_of_a_mutation_is_unique() {
        let mut a = tiny();
        let mut b = a.clone();
        let generated = b.content_version();
        a.corpus_mut();
        let after_corpus = a.content_version();
        assert_ne!(after_corpus, generated);
        b.search_mut();
        assert_ne!(b.content_version(), generated);
        assert_ne!(b.content_version(), after_corpus, "two worlds never share a mutation");
        a.search_mut();
        assert_ne!(a.content_version(), after_corpus, "every write takes a new version");
        assert_ne!(a.content_version(), b.content_version());
    }

    #[test]
    fn content_version_survives_ticks() {
        let mut world = tiny();
        let fork = world.clone();
        let before = world.content_version();
        let systems = default_systems();
        let mut events = 0;
        for year in 1..=4 {
            events += run_year(&mut world, year, &systems).events.len();
        }
        assert!(events > 0, "the ticks changed something");
        assert_eq!(world.content_version(), before, "ticks never touch crawl content");
        assert_shares_surfaces(&world, &fork, "a tick");
        assert_fork_writes_are_private(&world);
    }

    #[test]
    fn content_version_survives_shocks() {
        let cloudflare = provider_by_asn(13335).expect("Cloudflare is in the roster");
        let base = tiny();
        for name in ["outage", "onshore", "vantage"] {
            let mut world = base.clone();
            let before = world.content_version();
            let report = match name {
                "outage" => shock::provider_outage(&mut world, cloudflare),
                "onshore" => shock::onshore(&mut world, None),
                _ => shock::vantage_shift(&mut world, "probe-7"),
            };
            assert!(!report.dirty.is_empty(), "{name} changed something");
            assert_eq!(world.content_version(), before, "{name} never touches crawl content");
            assert_shares_surfaces(&world, &base, name);
            assert_fork_writes_are_private(&world);
        }
    }
}
