//! The assembled world: every substrate surface the measurement pipeline
//! talks to, in one struct.
//!
//! ## Content versions
//!
//! The surfaces a §3.2–§3.3 crawl reads — the web corpus, the search
//! index and the landing lists — are private. They can be read through
//! [`World::corpus`], [`World::search`] and [`World::landing`], and
//! written only through [`World::corpus_mut`] and [`World::search_mut`].
//! Each of those calls stamps a fresh, process-unique
//! [`ContentVersion::Mutated`]; [`World::generate`] stamps
//! [`ContentVersion::Generated`] with its parameters. Two worlds whose
//! [`World::content_version`]s are equal therefore serve the same crawl
//! bytes, which is what lets a dataset build reuse a country's cached
//! crawl instead of re-crawling it. Ticks and shocks rewrite DNS and
//! ground truth only, so they leave the version alone.

use crate::countries::{CountryRow, COUNTRIES};
use crate::params::GenParams;
use crate::truth::GroundTruth;
use govhost_dns::Resolver;
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

/// Which content a world's crawl-side surfaces (corpus, search index,
/// landing lists) hold.
///
/// Equal versions mean equal content: generation is a pure function of
/// its [`GenParams`], and every mutation takes a number no other world
/// in the process has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentVersion {
    /// Untouched since [`World::generate`] with these parameters.
    Generated(GenParams),
    /// Written through [`World::corpus_mut`] or [`World::search_mut`];
    /// the number is unique within the process.
    Mutated(u64),
}

impl ContentVersion {
    /// A version no other world in the process holds.
    fn fresh() -> ContentVersion {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the number publishes no other data; the atomic
        // fetch_add alone makes it unique.
        ContentVersion::Mutated(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A fully-generated simulated Internet.
///
/// Build one with [`World::generate`]; the fields are the observable
/// surfaces of §3's methodology (plus [`World::truth`], which is reserved
/// for tests and calibration). The crawl-side surfaces are behind
/// accessors so every write to them is versioned (see the module docs).
#[derive(Debug)]
pub struct World {
    /// The parameters that built this world.
    pub params: GenParams,
    /// AS registry, prefix allocations and servers.
    pub registry: AsRegistry,
    /// PeeringDB snapshot.
    pub peeringdb: PeeringDb,
    /// The web-search index (last-resort classification evidence).
    pub(crate) search: SearchIndex,
    /// DNS: every authoritative zone, including the reverse zone.
    pub resolver: Resolver,
    /// All websites.
    pub(crate) corpus: WebCorpus,
    /// RIPE-Atlas-style probes.
    pub fleet: ProbeFleet,
    /// The latency model shared by all active measurements.
    pub latency: LatencyModel,
    /// IPInfo-like geolocation database (with injected errors).
    pub geodb: GeoDb,
    /// MAnycast2 snapshot.
    pub manycast: MAnycastSnapshot,
    /// Per-country latency thresholds.
    pub thresholds: CountryThresholds,
    /// HOIHO hint dictionary.
    pub hoiho: Hoiho,
    /// IPmap cache.
    pub ipmap: IpMapCache,
    /// §3.1 output: the landing URLs per studied country.
    pub(crate) landing_pages: HashMap<CountryCode, Vec<Url>>,
    /// CrUX-style topsite lists for the 14 comparison countries.
    pub topsites: HashMap<CountryCode, Vec<Url>>,
    /// Ground truth (tests only).
    pub truth: GroundTruth,
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

    /// Write access to the web corpus. Stamps a fresh
    /// [`ContentVersion`], so crawls cached against the old content are
    /// never reused.
    pub fn corpus_mut(&mut self) -> &mut WebCorpus {
        self.content_version = ContentVersion::fresh();
        &mut self.corpus
    }

    /// Write access to the search index. Stamps a fresh
    /// [`ContentVersion`], like [`World::corpus_mut`].
    pub fn search_mut(&mut self) -> &mut SearchIndex {
        self.content_version = ContentVersion::fresh();
        &mut self.search
    }

    /// What the crawl-side surfaces (corpus, search index, landing
    /// lists) currently hold.
    pub fn content_version(&self) -> ContentVersion {
        self.content_version
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

    #[test]
    fn content_version_of_generated_worlds_is_their_params() {
        let (a, b) = (tiny(), tiny());
        assert_eq!(a.content_version(), b.content_version());
        assert_eq!(a.content_version(), ContentVersion::Generated(GenParams::tiny()));
        let other = World::generate(&GenParams { seed: 43, ..GenParams::tiny() });
        assert_ne!(a.content_version(), other.content_version());
    }

    #[test]
    fn content_version_of_a_mutation_is_unique() {
        let mut a = tiny();
        let mut b = tiny();
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
        let before = world.content_version();
        let systems = default_systems();
        let mut events = 0;
        for year in 1..=4 {
            events += run_year(&mut world, year, &systems).events.len();
        }
        assert!(events > 0, "the ticks changed something");
        assert_eq!(world.content_version(), before, "ticks never touch crawl content");
    }

    #[test]
    fn content_version_survives_shocks() {
        let cloudflare = provider_by_asn(13335).expect("Cloudflare is in the roster");
        for name in ["outage", "onshore", "vantage"] {
            let mut world = tiny();
            let before = world.content_version();
            let report = match name {
                "outage" => shock::provider_outage(&mut world, cloudflare),
                "onshore" => shock::onshore(&mut world, None),
                _ => shock::vantage_shift(&mut world, "probe-7"),
            };
            assert!(!report.dirty.is_empty(), "{name} changed something");
            assert_eq!(world.content_version(), before, "{name} never touches crawl content");
        }
    }
}
