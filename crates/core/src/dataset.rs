//! End-to-end dataset construction (§3 applied to all 61 countries).
//!
//! For each country: crawl every landing page seven levels deep from the
//! in-country VPN vantage (§3.2), filter the captured URLs down to
//! government URLs (§3.3), resolve each government hostname and identify
//! its serving infrastructure (§3.4), then validate every server address
//! through the multistage geolocation pipeline (§3.5). The result is the
//! paper's dataset: URL records joined to per-hostname infrastructure
//! records, plus the aggregate statistics of Tables 3, 4, and 8.
//!
//! ## Parallelism & determinism
//!
//! Crawling and classification fan out one job per contributing country
//! — the paper's unit, crawled from its own in-country vantage — on
//! [`BuildOptions::threads`] work-stealing worker threads
//! ([`govhost_par::parallel_map`]); identification fans out per country
//! too, and geolocation (§3.5) over address chunks. The longest country
//! job bounds the crawl/classify wall time: at scale 0.3, seed 7, the
//! largest country holds 9.5% of `crawl.pages` and the largest share of
//! `classify.urls_examined` is 21.4%. Each job streams crawled pages
//! straight through classification into its country's interned,
//! columnar content half (no whole-crawl HAR logs are ever
//! materialized), and the halves are merged **in fixed country order**
//! on the calling thread.
//! Because every worker computes a pure function of the immutable world
//! and the merge order never depends on scheduling, the dataset — down
//! to `export_csv` bytes — is identical for every thread count
//! (`tests/determinism.rs` pins this).
//!
//! ## Interned representation
//!
//! Hostnames are interned into a per-build arena
//! ([`govhost_types::HostInterner`]) whose dense [`HostId`]s double as
//! row indices of [`GovDataset::hosts`]; captured URLs live in a
//! columnar [`UrlTable`] (scheme / host-id / bytes / path-slice columns)
//! instead of a `Vec` of owned-`String` structs. See `DESIGN.md` for the
//! memory model.
//!
//! ## Telemetry
//!
//! The build runs inside a `govhost_obs` collection scope: every country
//! job records spans (`country` → `crawl`/`classify`/`identify`, with
//! `fetch`/`har`/`dns_resolve` below) and country-labelled counters into
//! a private shard that rides back inside its job result; the merge loop
//! grafts shards below the `build` span **in fixed country order**, so
//! the capture — like the dataset — is independent of scheduling. The
//! capture is the single source of truth for instrumentation:
//! [`StageTimings`] is read back from it, and [`GovDataset::telemetry`]
//! hands the full tree to the export layer (`results/trace.json`,
//! `results/metrics.json`). The [`BuildReport`] is derived from the
//! merge's own sums, and every build — full or incremental — asserts
//! that the registry agrees with them over the countries it recomputed.
//!
//! ## One build body
//!
//! [`GovDataset::rebuild_incremental`] is the only build body. A full
//! build ([`GovDataset::try_build`], [`GovDataset::build_cached`]) is
//! that rebuild from an empty [`BuildCache`], which recomputes every
//! country.
//!
//! ## Two halves per country
//!
//! Each cached country is split by what it read. The *content half*
//! (§3.2–§3.3: the government-host arena, methods, URL rows, examined
//! count, crawl failures) reads the web corpus, the search index and the
//! [`Crawler`]. The *infra half* (§3.4: identification and resolution
//! failures) reads DNS, the registry, PeeringDB and search, and records
//! per host the zone every query of its resolution went to. A country
//! whose content half still holds keeps it, and re-identifies only the
//! hosts whose reads changed; one whose records all hold is replayed
//! whole. Ticks and shocks only rewrite DNS and ground truth, so their
//! rebuilds crawl nothing.
//!
//! ## One cache rule
//!
//! A build takes one snapshot: strong clones of the world's eleven
//! shared surfaces (`Arc`s) plus its crawler and geolocation config.
//! Every content half, infra half and memo the build makes keeps it. A
//! cached result is kept exactly while each surface its stage reads is
//! still the world's own allocation (`Arc::ptr_eq`) and its options are
//! equal. Holding the clones is what makes that exact: a world writes a
//! shared surface through `Arc::make_mut`, which copies a surface
//! someone else holds, so a write always lands at a new address. Every
//! rebuild applies the rule to every cached result, so the cache alone
//! decides what is recomputed: no caller-supplied dirty set is read,
//! and incremental ≡ full holds in every build profile.
//!
//! ## Memoized verdicts
//!
//! The cache also keeps the build's §3.5 verdict per (address, serving
//! country). The next rebuild locates only the pairs it lacks or cannot
//! vouch for: a geolocation surface that is no longer the world's own,
//! or a different geolocation config, drops the memo whole, and a
//! verdict that consulted HOIHO is kept only while the resolver gives
//! the PTR answer it read. Ticks and shocks write no geolocation surface
//! and no reverse zone, so their rebuilds locate only the year's new
//! pairs.

use crate::classify::{ClassificationMethod, SeedSets};
use crate::infra::{InfraIdentifier, InfraRecord};
use crate::table::{UrlInterner, UrlRef, UrlTable};
use govhost_geoloc::pipeline::{GeoTask, GeoVerdict, PipelineConfig, PtrRead, ValidationStats};
use govhost_geoloc::{CountryThresholds, GeoDb, Hoiho, IpMapCache, MAnycastSnapshot};
use govhost_dns::{ResolutionRead, Resolver};
use govhost_netsim::asdb::AsRegistry;
use govhost_netsim::latency::LatencyModel;
use govhost_netsim::peeringdb::PeeringDb;
use govhost_netsim::probes::ProbeFleet;
use govhost_netsim::search::SearchIndex;
use govhost_types::{
    Asn, CountryCode, HostId, HostInterner, Hostname, PipelineError, PipelineStage,
    ProviderCategory, Region, Url,
};
use govhost_types::hash::DetHashSet;
use govhost_types::url::Scheme;
use govhost_web::corpus::WebCorpus;
use govhost_web::crawler::{Crawler, FailureCauses};
use govhost_web::page::Page;
use govhost_worldgen::countries::region_of;
use govhost_worldgen::World;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Options for [`GovDataset::build`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Crawl configuration (depth 7, as in the paper, by default).
    pub crawler: Crawler,
    /// Worker threads for the per-country and geolocation fan-outs.
    ///
    /// The default comes from [`govhost_par::resolve_threads`]:
    /// `GOVHOST_THREADS` when set, else the machine's available
    /// parallelism (clamped). Thread count never changes the output,
    /// only the speed.
    pub threads: usize,
    /// Geolocation-pipeline knobs (stage toggles for ablations).
    pub geo: PipelineConfig,
    /// What a build — full or incremental — does when a country faults.
    pub policy: FailurePolicy,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            crawler: Crawler::default(),
            threads: govhost_par::resolve_threads(),
            geo: PipelineConfig::default(),
            policy: FailurePolicy::default(),
        }
    }
}

/// What to do when a country's pipeline stage faults (its landing page
/// cannot be fetched, for instance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop the build and surface the fault as a [`BuildError`].
    #[default]
    Abort,
    /// Drop the failing country, keep building the rest, and record the
    /// skip — stage and cause — in the [`BuildReport`].
    Quarantine,
}

/// One country dropped by [`FailurePolicy::Quarantine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The country that was dropped.
    pub country: CountryCode,
    /// The stage that faulted.
    pub stage: PipelineStage,
    /// The rendered fault.
    pub cause: String,
}

/// What a fault-tolerant build skipped or absorbed, stage by stage.
///
/// Every count is a pure function of the world and the options — thread
/// count never changes a report (`tests/failure_injection.rs` pins this).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Countries dropped under [`FailurePolicy::Quarantine`], in fixed
    /// country order.
    pub quarantined: Vec<QuarantineEntry>,
    /// Non-fatal fetch failures during crawling, by cause.
    pub crawl_failures: FailureCauses,
    /// Hostnames whose resolution faulted (kept as unresolved records).
    pub resolution_failures: u64,
    /// Addresses §3.5 excluded from analysis (the UR buckets of Table 4).
    pub geo_excluded: usize,
    /// Exclusions where evidence contradicted the database claim (§4.2).
    pub geo_conflicts: usize,
}

impl BuildReport {
    /// Multi-line human-readable summary (pairs with
    /// [`StageTimings::render`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let c = self.crawl_failures;
        out.push_str(&format!(
            "  crawl failures      {:>6} (geo-blocked {}, not found {}, unknown host {})\n",
            c.total(),
            c.geo_blocked,
            c.not_found,
            c.unknown_host
        ));
        out.push_str(&format!("  resolution failures {:>6}\n", self.resolution_failures));
        out.push_str(&format!(
            "  geo excluded        {:>6} ({} conflicting)\n",
            self.geo_excluded, self.geo_conflicts
        ));
        out.push_str(&format!("  quarantined         {:>6}\n", self.quarantined.len()));
        for q in &self.quarantined {
            out.push_str(&format!("    {} at {}: {}\n", q.country, q.stage, q.cause));
        }
        out
    }
}

/// A fault that stopped a [`FailurePolicy::Abort`] build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    /// The country whose pipeline faulted.
    pub country: CountryCode,
    /// The fault itself.
    pub error: PipelineError,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "build failed for {}: {}", self.country, self.error)
    }
}

impl std::error::Error for BuildError {}

/// Wall time plus item count for one pipeline stage.
///
/// For fanned-out stages (crawl, classify, identify, geolocate) `nanos`
/// is *busy* time summed across worker threads; it can exceed the
/// elapsed wall-clock of the build, and `busy / elapsed` is the stage's
/// effective parallelism.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStat {
    /// Accumulated busy nanoseconds.
    pub nanos: u64,
    /// Items processed (the unit depends on the stage — see
    /// [`StageTimings`]).
    pub items: u64,
}

impl StageStat {
    /// Busy time as a [`std::time::Duration`].
    pub fn duration(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.nanos)
    }
}

/// Per-stage instrumentation for one [`GovDataset::build`] run.
///
/// Wall times vary run to run; item counts are deterministic and are
/// pinned across thread counts by `tests/determinism.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// §3.2 crawling; items = pages rendered.
    pub crawl: StageStat,
    /// §3.3 classification; items = unique URLs examined (by re-crawled
    /// countries only, in an incremental rebuild).
    pub classify: StageStat,
    /// §3.4 resolution + WHOIS; items = hostnames resolved and
    /// identified (an incremental rebuild keeps every cached record
    /// whose read set still holds and does not count it).
    pub identify: StageStat,
    /// §3.5 geolocation; items = unique (address, country) tasks
    /// located in this build (an incremental rebuild replays the
    /// verdicts it can reuse from the cache and does not count them).
    pub geolocate: StageStat,
    /// Merge + §5.1 category assignment: packing the crawled countries
    /// into entries, the assembly replay into the global tables and the
    /// category pass; items = host records.
    pub analyze: StageStat,
    /// Elapsed wall-clock of the whole build, in nanoseconds.
    pub build_nanos: u64,
}

impl StageTimings {
    /// Derive the per-stage view from a build's telemetry capture.
    ///
    /// `StageTimings` is a thin projection of the span tree and the
    /// metrics registry: busy time comes from the stage spans, item
    /// counts from the stage counters (`crawl.pages`,
    /// `classify.urls_examined`, `identify.hosts`, `geoloc.tasks`,
    /// `analyze.hosts`), and the build total from the `build` span.
    pub fn from_telemetry(t: &govhost_obs::Telemetry) -> StageTimings {
        let stat = |span: &str, counter: &str| StageStat {
            nanos: t.root.busy_of(span),
            items: t.registry.counter_total(counter),
        };
        StageTimings {
            crawl: stat("crawl", "crawl.pages"),
            classify: stat("classify", "classify.urls_examined"),
            identify: stat("identify", "identify.hosts"),
            geolocate: stat("geolocate", "geoloc.tasks"),
            analyze: stat("analyze", "analyze.hosts"),
            build_nanos: t.span_busy("build"),
        }
    }

    /// The five stages with their names, in pipeline order.
    pub fn stages(&self) -> [(&'static str, StageStat); 5] {
        [
            ("crawl", self.crawl),
            ("classify", self.classify),
            ("identify", self.identify),
            ("geolocate", self.geolocate),
            ("analyze", self.analyze),
        ]
    }

    /// Deterministic item counts only (crawl, classify, identify,
    /// geolocate, analyze) — what the determinism suite compares.
    pub fn item_counts(&self) -> [u64; 5] {
        self.stages().map(|(_, s)| s.items)
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, stat) in self.stages() {
            out.push_str(&format!(
                "  {name:<9} {:>10.1} ms busy  {:>9} items\n",
                stat.nanos as f64 / 1e6,
                stat.items
            ));
        }
        out.push_str(&format!(
            "  {:<9} {:>10.1} ms elapsed\n",
            "total",
            self.build_nanos as f64 / 1e6
        ));
        out
    }
}

/// Infrastructure record for one government hostname.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// The hostname.
    pub hostname: Hostname,
    /// The government (country) whose crawl surfaced it.
    pub country: CountryCode,
    /// Which §3.3 heuristic identified it.
    pub method: ClassificationMethod,
    /// Resolved address (from the domestic vantage), if resolution
    /// succeeded.
    pub ip: Option<Ipv4Addr>,
    /// Origin AS.
    pub asn: Option<Asn>,
    /// WHOIS organization name.
    pub org: Option<String>,
    /// WHOIS registration country.
    pub registration: Option<CountryCode>,
    /// Whether §3.4 classified the operator as government/state-owned.
    pub state_operated: bool,
    /// Final §5.1 category (requires the cross-country footprint pass).
    pub category: Option<ProviderCategory>,
    /// Validated server location; `None` when geolocation excluded the
    /// address (§3.5's conservative policy).
    pub server_country: Option<CountryCode>,
    /// Whether the address is anycast (per the MAnycast2 snapshot).
    pub anycast: bool,
    /// Whether §3.5 excluded the address.
    pub geo_excluded: bool,
}

/// One host's share of the URL table, yielded by
/// [`GovDataset::host_volumes`].
#[derive(Debug, Clone, Copy)]
pub struct HostVolume<'a> {
    /// The host's id in the build's arena.
    pub id: HostId,
    /// The host's infrastructure record.
    pub host: &'a HostRecord,
    /// Government URLs on this host (at least 1).
    pub urls: u64,
    /// Summed bytes of those URLs.
    pub bytes: u64,
}

/// Per-country collection statistics (Table 8 recomputed).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountryStats {
    /// Landing URLs crawled.
    pub landing: u32,
    /// Government URLs captured.
    pub urls: u64,
    /// Distinct government hostnames.
    pub hostnames: u32,
    /// Total government bytes.
    pub bytes: u64,
}

/// Dataset-wide summary (Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct DatasetSummary {
    /// Landing URLs crawled.
    pub landing_urls: usize,
    /// Government URLs (beyond landing pages).
    pub internal_urls: usize,
    /// Unique government URLs in total.
    pub unique_urls: usize,
    /// Unique government hostnames.
    pub unique_hostnames: usize,
    /// Distinct ASes serving them.
    pub ases: usize,
    /// Distinct ASes classified as government-operated.
    pub govt_ases: usize,
    /// Unique server addresses.
    pub unique_ips: usize,
    /// Addresses flagged anycast.
    pub anycast_ips: usize,
    /// Countries where (validated) servers were located.
    pub server_countries: usize,
}

/// The assembled dataset.
#[derive(Debug, Clone)]
pub struct GovDataset {
    /// Per-hostname infrastructure records, in [`HostId`] order.
    pub hosts: Vec<HostRecord>,
    /// Every captured government URL, columnar, host-ids interned.
    pub urls: UrlTable,
    /// The build's hostname arena: hostname ↔ [`HostId`] (= row index
    /// into [`GovDataset::hosts`]).
    pub host_ids: HostInterner,
    /// Geolocation validation statistics (Table 4).
    pub validation: ValidationStats,
    /// URL counts per §3.3 method `[GovTld, DomainMatch, San]` (§4.2),
    /// indexed by [`ClassificationMethod::index`].
    pub method_counts: [u64; 3],
    /// Failed page fetches (geo-blocks seen from the wrong vantage, dead
    /// links).
    pub crawl_failures: u32,
    /// Per-country statistics (Table 8).
    pub per_country: HashMap<CountryCode, CountryStats>,
    /// Per-stage instrumentation for this build (zeroed for imported
    /// datasets). A projection of [`GovDataset::telemetry`].
    pub timings: StageTimings,
    /// The full telemetry capture of this build: the aggregated span
    /// tree plus every counter and histogram, merged across worker
    /// threads in fixed country order (empty for imported datasets).
    /// Export with [`govhost_obs::export::trace_json`] /
    /// [`govhost_obs::export::metrics_json`].
    pub telemetry: govhost_obs::Telemetry,
}

/// Pages streamed per `crawl` span before a `classify` span processes
/// them — bounds the number of in-flight page borrows without paying a
/// span per page.
const CRAWL_BATCH: usize = 64;

/// One contributing country's crawl/classify job: vantage, landing
/// pages, and the §3.3 seed material.
struct CountryCtx<'w> {
    code: CountryCode,
    vantage: CountryCode,
    landing: &'w [Url],
    seeds: SeedSets,
}

/// The identity of one examined page within a build: the address of its
/// record in the corpus plus the scheme it was fetched under.
///
/// The corpus is borrowed immutably for the whole build, so a page's
/// address is stable and names exactly one `(host, path)`: sites are
/// keyed by hostname and pages by path. A page answers under either
/// scheme, and its own URL row carries the scheme it was fetched under,
/// so the scheme is part of the key: `http://` and `https://` visits of
/// the same page are two different examinations. Everything else the
/// examination reads — the page's byte count and its resource list — is
/// the record behind the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageKey {
    page: *const Page,
    scheme: Scheme,
}

impl std::hash::Hash for PageKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // One word for the deterministic hasher. Records are at least
        // word-aligned, so bit 0 of the address is free for the scheme.
        let word = self.page as usize as u64 | u64::from(self.scheme == Scheme::Https);
        state.write_u64(word);
    }
}

/// The §3.2–§3.3 streaming stage for one country: crawl each landing
/// page breadth-first, in landing order, and stream batches of pages
/// straight through classification into the country's content half,
/// which keeps the build's snapshot `now`. Pure in `(world, options,
/// ctx)` — scheduling cannot change its output.
///
/// Every examined URL row is interned once; the interner's length is the
/// half's `examined` count. A row's first sighting on a government host
/// appends it to `rows`, and the host joins `gov` at its first
/// government row, so both run in first-sighting crawl order — the order
/// the assembly's global merge first sees them in, which is what keeps
/// replay exact.
///
/// Each page is examined at most once, keyed by [`PageKey`]. A country's
/// landing crawls keep rendering the same pages (each re-walks its
/// shared sections), and a repeat can add nothing: on the first visit
/// its own URL row and every resource row were interned with the bytes
/// the same record lists, so a second examination would find every host
/// and every row already present and change no row, no row order and no
/// first-sighting byte count. The crawl itself still walks every page,
/// so page counts, HAR entries and fetch failures are unchanged.
///
/// A landing page that cannot be fetched is a crawl-stage fault
/// ([`PipelineError::Crawl`]): the site would contribute nothing, so the
/// country's result is unusable, and the earliest faulting landing page
/// names it. Deeper dead links stay non-fatal and are only counted.
fn stream_country(
    world: &World,
    options: &BuildOptions,
    ctx: &CountryCtx<'_>,
    now: &Arc<Snapshot>,
) -> Result<ContentHalf, PipelineError> {
    let mut hosts = HostInterner::new();
    // Per examined host: its §3.3 verdict (classification is a pure
    // function of the hostname, so computing it at intern time memoizes
    // it for every later URL on the host), and its id in `gov` once it
    // has one.
    let mut verdicts: Vec<Option<ClassificationMethod>> = Vec::new();
    let mut gov_ids: Vec<Option<HostId>> = Vec::new();
    let mut examined = UrlInterner::new();
    let mut gov = HostInterner::new();
    let mut gov_methods: Vec<ClassificationMethod> = Vec::new();
    let mut rows = UrlTable::new();
    let mut seen: DetHashSet<PageKey> = DetHashSet::default();
    let mut pages = 0u64;
    let mut crawl_failures = 0u32;
    let mut failure_causes = FailureCauses::default();

    let mut examine = |url: &Url, bytes: u64| {
        let (hid, new_host) = hosts.intern(url.hostname());
        if new_host {
            verdicts.push(ctx.seeds.classify(url.hostname(), &world.search));
            gov_ids.push(None);
        }
        if !examined.intern(url.scheme(), hid, url.path(), bytes).1 {
            return; // the first sighting holds the row
        }
        let Some(method) = verdicts[hid.index()] else {
            return; // non-government URL, discarded
        };
        // Later rows of the host read its `gov` id here instead of
        // hashing the hostname again.
        let lid = *gov_ids[hid.index()].get_or_insert_with(|| {
            gov_methods.push(method);
            gov.intern(url.hostname()).0
        });
        rows.push(url.scheme(), lid, url.path(), bytes);
    };

    for landing_url in ctx.landing {
        let mut session =
            options.crawler.session(&world.corpus, landing_url, Some(ctx.vantage));
        loop {
            let batch = {
                let _crawl = govhost_obs::span!("crawl");
                let mut batch = Vec::with_capacity(CRAWL_BATCH);
                while batch.len() < CRAWL_BATCH {
                    match session.next_page() {
                        Some(visit) => batch.push(visit),
                        None => break,
                    }
                }
                batch
            };
            if batch.is_empty() {
                break;
            }
            let _classify = govhost_obs::span!("classify");
            for visit in &batch {
                if !seen.insert(PageKey { page: visit.page, scheme: visit.url.scheme() }) {
                    continue; // every row this page lists is already interned
                }
                examine(visit.url, visit.page.html_bytes);
                for res in &visit.page.resources {
                    examine(&res.url, res.bytes);
                }
            }
        }
        if let Some(err) = session.take_landing_error() {
            return Err(err);
        }
        pages += session.pages_visited() as u64;
        crawl_failures += session.failures();
        failure_causes.merge(session.failure_causes());
    }
    govhost_obs::counter_add("crawl.pages", &[("country", ctx.code.as_str())], pages);

    Ok(ContentHalf {
        read: Arc::clone(now),
        landing: ctx.landing.len() as u32,
        gov,
        gov_methods,
        rows,
        examined: examined.len() as u64,
        crawl_failures,
        failure_causes,
    })
}

/// What one build read: strong clones of the world's eleven shared
/// surfaces, plus the crawler and geolocation config it ran with.
///
/// A build takes one snapshot and shares it, by `Arc`, into every
/// content half, infra half and [`GeoMemo`] it makes; the module docs'
/// "One cache rule" says why holding the clones makes pointer equality
/// exact. Each predicate below names the reads of one stage. DNS is not
/// a shared surface, so its reads are recorded per host
/// ([`ResolutionRead`]) and per verdict ([`PtrRead`]).
#[derive(Debug)]
struct Snapshot {
    registry: Arc<AsRegistry>,
    peeringdb: Arc<PeeringDb>,
    search: Arc<SearchIndex>,
    corpus: Arc<WebCorpus>,
    fleet: Arc<ProbeFleet>,
    latency: Arc<LatencyModel>,
    geodb: Arc<GeoDb>,
    manycast: Arc<MAnycastSnapshot>,
    thresholds: Arc<CountryThresholds>,
    hoiho: Arc<Hoiho>,
    ipmap: Arc<IpMapCache>,
    crawler: Crawler,
    geo: PipelineConfig,
}

impl Snapshot {
    fn of(world: &World, options: &BuildOptions) -> Snapshot {
        Snapshot {
            registry: Arc::clone(&world.registry),
            peeringdb: Arc::clone(&world.peeringdb),
            search: Arc::clone(&world.search),
            corpus: Arc::clone(&world.corpus),
            fleet: Arc::clone(&world.fleet),
            latency: Arc::clone(&world.latency),
            geodb: Arc::clone(&world.geodb),
            manycast: Arc::clone(&world.manycast),
            thresholds: Arc::clone(&world.thresholds),
            hoiho: Arc::clone(&world.hoiho),
            ipmap: Arc::clone(&world.ipmap),
            crawler: options.crawler,
            geo: options.geo,
        }
    }

    /// §3.2–§3.3: the crawler walks the corpus, and classification
    /// verifies SAN hits against the search index. (The landing lists
    /// are written only by generation, so a corpus allocation, which
    /// only a generated world or a copy-on-write of its corpus makes,
    /// pins them too.)
    fn crawl_holds(&self, now: &Snapshot) -> bool {
        Arc::ptr_eq(&self.corpus, &now.corpus)
            && Arc::ptr_eq(&self.search, &now.search)
            && self.crawler == now.crawler
    }

    /// §3.4 apart from DNS: WHOIS on the registry, and the PeeringDB and
    /// search evidence for a government operator.
    fn identify_holds(&self, now: &Snapshot) -> bool {
        Arc::ptr_eq(&self.registry, &now.registry)
            && Arc::ptr_eq(&self.peeringdb, &now.peeringdb)
            && Arc::ptr_eq(&self.search, &now.search)
    }

    /// §3.5 apart from PTR answers: the pipeline's eight surfaces and
    /// its config.
    fn locate_holds(&self, now: &Snapshot) -> bool {
        Arc::ptr_eq(&self.registry, &now.registry)
            && Arc::ptr_eq(&self.geodb, &now.geodb)
            && Arc::ptr_eq(&self.manycast, &now.manycast)
            && Arc::ptr_eq(&self.fleet, &now.fleet)
            && Arc::ptr_eq(&self.latency, &now.latency)
            && Arc::ptr_eq(&self.thresholds, &now.thresholds)
            && Arc::ptr_eq(&self.hoiho, &now.hoiho)
            && Arc::ptr_eq(&self.ipmap, &now.ipmap)
            && self.geo == now.geo
    }
}

/// One contributing country's partial build state: everything the
/// per-country phases (§3.2–§3.4) produce for it, *before* any global
/// interning. Entries are pure functions of `(world, options, country)`,
/// so replaying a set of them in fixed country order reconstructs the
/// global tables byte-for-byte — the seam that makes
/// [`GovDataset::rebuild_incremental`] exact.
///
/// The entry is split by what each half reads, so a rebuild can redo
/// one half without the other. Neither half is written after it is
/// made — a rebuild keeps a half whole or replaces it — so both sit
/// behind an `Arc`: cloning a [`BuildCache`] (every what-if scenario
/// forks the baseline's) copies pointers.
#[derive(Debug, Clone)]
struct CountryEntry {
    code: CountryCode,
    content: Arc<ContentHalf>,
    infra: Arc<InfraHalf>,
}

/// The §3.2–§3.3 half of a [`CountryEntry`]: what crawling and
/// classifying the country's sites produced. It stays valid while
/// [`Snapshot::crawl_holds`] for the snapshot it was made with.
#[derive(Debug, Clone)]
struct ContentHalf {
    /// The snapshot of the build that crawled it.
    read: Arc<Snapshot>,
    /// Landing URLs crawled (the fixed Table 8 denominator).
    landing: u32,
    /// Every distinct government hostname this country surfaced, interned
    /// in first-government-row crawl order — the same order the global
    /// merge first sees them in, which is what keeps replay exact.
    gov: HostInterner,
    /// §3.3 verdict per hostname, aligned with `gov`.
    gov_methods: Vec<ClassificationMethod>,
    /// Government URL rows in first-sighting crawl order; the host column
    /// holds `gov`-local ids.
    rows: UrlTable,
    /// Unique URLs examined, government or not (the
    /// `classify.urls_examined` counter).
    examined: u64,
    crawl_failures: u32,
    failure_causes: FailureCauses,
}

/// The §3.4 half of a [`CountryEntry`]: identification of every
/// hostname in the content half's `gov` arena, with what each one read —
/// the zones its resolution queried — and the snapshot of the build
/// that identified them. A rebuild re-identifies only the hosts whose
/// record is not [kept](InfraHalf::kept).
#[derive(Debug, Default)]
struct InfraHalf {
    /// The snapshot of the build that made the records; `None` until
    /// the country's hosts are first identified.
    read: Option<Arc<Snapshot>>,
    /// §3.4 identification per hostname, aligned with the content
    /// half's `gov`. Each record sits behind an `Arc`, so a recomputed
    /// country copies pointers for the records it keeps.
    hosts: Vec<Arc<Identified>>,
    resolution_failures: u64,
}

/// The §3.4 identification of one hostname, and the zones it read.
#[derive(Debug)]
struct Identified {
    /// `None` when resolution failed or WHOIS has no record.
    record: Option<InfraRecord>,
    /// Whether resolution failed (a fault the [`BuildReport`] counts).
    unresolved: bool,
    read: ResolutionRead,
}

impl InfraHalf {
    /// The record of host `i` of the content half's arena, if
    /// identifying it against `now` and `resolver` would still give it:
    /// [`Snapshot::identify_holds`], and every query of the host's
    /// resolution still goes to the zone it went to. The one keep check
    /// of §3.4: a rebuild keeps exactly these records.
    fn kept(&self, i: usize, now: &Snapshot, resolver: &Resolver) -> Option<&Arc<Identified>> {
        let kept = self.hosts.get(i)?;
        let holds = self.read.as_ref()?.identify_holds(now) && kept.read.holds(resolver);
        holds.then_some(kept)
    }

    /// The first host whose record is not [kept](Self::kept), where
    /// re-identifying the country starts; `None` when every record is.
    fn first_stale(&self, now: &Snapshot, resolver: &Resolver) -> Option<usize> {
        (0..self.hosts.len()).find(|&i| self.kept(i, now, resolver).is_none())
    }
}

/// Where a recomputed country's identify job starts, and the telemetry
/// the country carries into assembly (consumed there, never cached).
#[derive(Default)]
struct CountryShards {
    /// The first host the identify job checks; every host before it
    /// keeps its record (0 for a re-crawled country).
    stale: usize,
    /// The crawl/classify job's shard; `None` when the country's content
    /// half was kept and only identify ran.
    crawl: Option<govhost_obs::Telemetry>,
    /// The identify-job shard.
    identify: govhost_obs::Telemetry,
    /// Resolution failures among the hosts the identify job resolved.
    resolution_failures: u64,
}

/// One country of a build: its [`CountryEntry`], plus its shards when the
/// build recomputes any of it (`None`: replayed whole from the cache).
struct CountryWork {
    entry: CountryEntry,
    shards: Option<CountryShards>,
}

/// What the assembly replay produces from a set of entries.
struct Assembled {
    hosts: Vec<HostRecord>,
    urls: UrlTable,
    host_ids: HostInterner,
    geo: Geolocated,
    method_counts: [u64; 3],
    crawl_failures: u32,
    failure_causes: FailureCauses,
    resolution_failures: u64,
    per_country: HashMap<CountryCode, CountryStats>,
}

/// Table 4 for one build, split by where each verdict came from.
struct Geolocated {
    /// Over every (address, serving country) task.
    validation: ValidationStats,
    /// The share located in this build: what the `geoloc.*` counters saw.
    fresh: ValidationStats,
    /// The share replayed from the previous build's [`GeoMemo`].
    replayed: ValidationStats,
}

/// The last build's §3.5 verdicts, and what they read: the next rebuild
/// locates only the tasks this cannot vouch for (see [`geolocate`]).
#[derive(Debug)]
struct GeoMemo {
    /// The snapshot of the build that located them.
    read: Arc<Snapshot>,
    /// Every task of the build with its verdict and the PTR answer the
    /// verdict read, sorted by (address, serving country).
    verdicts: Vec<(GeoTask, GeoVerdict, Option<PtrRead>)>,
}

/// Per-country build state retained by [`GovDataset::build_cached`] so a
/// later [`GovDataset::rebuild_incremental`] can replay what still holds
/// instead of re-crawling it.
///
/// The cache holds one entry per country the build that produced it
/// built, in fixed studied-country order; a quarantined country has
/// none, so every rebuild retries it, as a full build does. Each entry
/// has two halves: a content half (the §3.2–§3.3 crawl and
/// classification) and an infra half (the §3.4 identification, with
/// the zones each record read). It also keeps the build's §3.5
/// verdicts. Every one of them keeps the snapshot of the build that
/// made it (the module docs' "One cache rule"), and is reused exactly
/// while the surfaces its stage reads are still the world's own. Every
/// rebuild checks every cached record itself, so no caller has to say
/// what changed.
#[derive(Debug, Default, Clone)]
pub struct BuildCache {
    entries: Vec<CountryEntry>,
    /// Shared, so a forked cache copies a pointer.
    geo: Option<Arc<GeoMemo>>,
}

impl BuildCache {
    /// Countries with a cached entry, in fixed country order.
    pub fn countries(&self) -> Vec<CountryCode> {
        self.entries.iter().map(|e| e.code).collect()
    }
}

/// The §3.4 stage for one country: resolve + WHOIS, from the domestic
/// vantage and in first-occurrence order, every distinct government
/// hostname whose record in `previous` no longer holds (all of them when
/// `previous` is empty), and keep the others. The first `stale` records
/// are already known to hold, so they are copied without a check.
/// Resolution faults are absorbed per-host (the record stays,
/// unresolved) and counted. Returns the new infra half, the resolution
/// failures among the hosts it resolved and the job's telemetry shard;
/// the `identify.hosts` counter counts the hosts resolved.
fn identify_country(
    world: &World,
    now: &Arc<Snapshot>,
    code: CountryCode,
    vantage: CountryCode,
    gov: &HostInterner,
    previous: &InfraHalf,
    stale: usize,
) -> (InfraHalf, u64, govhost_obs::Telemetry) {
    let ((infra, fresh_failures), shard) = govhost_obs::collect(|| {
        let _identify = govhost_obs::span!("identify");
        let mut identifier = InfraIdentifier::new(
            &world.resolver,
            &world.registry,
            &world.peeringdb,
            &world.search,
        );
        let mut hosts: Vec<Arc<Identified>> = Vec::with_capacity(gov.len());
        hosts.extend_from_slice(&previous.hosts[..stale]);
        let (mut resolved, mut fresh_failures) = (0u64, 0u64);
        for (lid, host) in gov.iter().skip(stale) {
            if let Some(kept) = previous.kept(lid.index(), now, &world.resolver) {
                hosts.push(Arc::clone(kept));
                continue;
            }
            // A resolution fault (NXDOMAIN, broken zone) keeps the host
            // record — unresolved — and is counted for the BuildReport,
            // instead of being silently conflated with "no record".
            let (result, read) = identifier.identify_reading(host, vantage);
            let unresolved = result.is_err();
            resolved += 1;
            fresh_failures += u64::from(unresolved);
            let record = result.unwrap_or(None);
            hosts.push(Arc::new(Identified { record, unresolved, read }));
        }
        govhost_obs::counter_add("identify.hosts", &[("country", code.as_str())], resolved);
        if fresh_failures > 0 {
            govhost_obs::counter_add(
                "identify.resolution_failures",
                &[("country", code.as_str())],
                fresh_failures,
            );
        }
        let resolution_failures = hosts.iter().filter(|h| h.unresolved).count() as u64;
        let read = Some(Arc::clone(now));
        (InfraHalf { read, hosts, resolution_failures }, fresh_failures)
    });
    (infra, fresh_failures, shard)
}

impl GovDataset {
    /// Run the full §3 methodology against a world.
    ///
    /// Convenience wrapper over [`Self::try_build`] for worlds that are
    /// known to build cleanly (every generated world does).
    ///
    /// # Panics
    ///
    /// If the build faults under [`FailurePolicy::Abort`].
    pub fn build(world: &World, options: &BuildOptions) -> GovDataset {
        match Self::try_build(world, options) {
            Ok((dataset, _report)) => dataset,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run the full §3 methodology against a world, reporting faults
    /// instead of swallowing them.
    ///
    /// Expected measurement faults (a geo-blocked landing page, a
    /// hostname that will not resolve) travel as typed
    /// [`PipelineError`]s. What happens next is
    /// [`BuildOptions::policy`]'s call: [`FailurePolicy::Abort`] stops
    /// the build at the first faulting country; with
    /// [`FailurePolicy::Quarantine`] a faulting country is dropped, the
    /// remaining countries still build, and every skip is recorded in
    /// the returned [`BuildReport`] with its stage and cause.
    ///
    /// The per-country stage fans out over [`BuildOptions::threads`]
    /// worker threads; partial results are merged in fixed country order,
    /// so the dataset *and the report* are bit-identical for every
    /// thread count.
    ///
    /// This is [`Self::build_cached`] with the cache dropped.
    pub fn try_build(
        world: &World,
        options: &BuildOptions,
    ) -> Result<(GovDataset, BuildReport), BuildError> {
        Self::build_cached(world, options).map(|(dataset, report, _cache)| (dataset, report))
    }

    /// [`Self::try_build`] that additionally returns the [`BuildCache`]
    /// needed for [`Self::rebuild_incremental`].
    ///
    /// A full build is an incremental rebuild from an empty cache: no
    /// country has a cached entry, so every contributing country is
    /// recomputed, and the cache comes back holding all of them.
    pub fn build_cached(
        world: &World,
        options: &BuildOptions,
    ) -> Result<(GovDataset, BuildReport, BuildCache), BuildError> {
        let mut cache = BuildCache::default();
        let (dataset, report) =
            Self::rebuild_incremental(world, options, &mut cache, &BTreeSet::new())?;
        Ok((dataset, report, cache))
    }

    /// Rebuild after a world mutation, checking every cached record.
    ///
    /// `cache` must come from [`Self::build_cached`] (or a previous
    /// incremental rebuild) against the same world lineage. `_dirty` is
    /// not read: the cache alone decides what to recompute, so a dirty
    /// set that misses a change cannot make the rebuild replay a stale
    /// record. (The argument stays for callers of the four-argument
    /// form; a tick's `TickReport::dirty` is a report for users, not an
    /// input here.)
    ///
    /// Every cached result is kept or recomputed by the module docs'
    /// "One cache rule". A cached content half is kept exactly while it
    /// still holds (the world's corpus and search index, the same
    /// [`BuildOptions::crawler`]); any other contributing country (a
    /// stale, quarantined or never-built one) re-runs the full
    /// per-country fan-out (crawl → classify → identify). Each kept
    /// country then checks its §3.4 records in order: each record keeps
    /// the zone every query of its resolution went to, and holds while
    /// those zones and the registry, PeeringDB and search index are
    /// unchanged. From its first stale record on, the country re-runs
    /// identify for the hosts whose record no longer holds; a country
    /// whose records all hold is *replayed* from its cached entry. Ticks
    /// and shocks rewrite DNS and ground truth only, so their rebuilds
    /// never crawl, and re-identify only the hosts they re-pointed and
    /// those whose CNAME chains run through them. The global merge and
    /// §5.1 category assignment run in full. §3.5 geolocation reuses
    /// the cached verdict of every (address, serving country) pair the
    /// previous build located, as long as the eight geolocation
    /// surfaces are the world's own, the [`BuildOptions::geo`] config is
    /// equal and, for a verdict that consulted HOIHO, the resolver still
    /// gives the PTR answer it read. Only the other pairs are located.
    /// So the resulting dataset — down to `export_csv` bytes — is
    /// identical to a from-scratch [`Self::try_build`] against the
    /// mutated world, in every build profile (`tests/evolve.rs` pins
    /// this). This is the only build body: a full build is this call on
    /// an empty cache.
    ///
    /// Telemetry is the one documented divergence: spans and counters are
    /// only emitted for the work that actually ran. A recomputed country
    /// gets a `country` span with its identify spans and counters
    /// (`identify.hosts` counts the hosts it re-identified); only
    /// a country that was also re-crawled adds crawl and classify ones;
    /// only a pair located afresh adds a `locate` span and `geoloc.*`
    /// counts. A replayed country emits nothing.
    /// So [`GovDataset::timings`] and [`GovDataset::telemetry`] describe
    /// the incremental work, not a full build. Every rebuild still asserts
    /// that this recomputed share of the registry agrees with the merge
    /// sums the [`BuildReport`] is derived from.
    ///
    /// On success the cache is updated in place to describe the rebuilt
    /// dataset; on error it is left untouched.
    pub fn rebuild_incremental(
        world: &World,
        options: &BuildOptions,
        cache: &mut BuildCache,
        _dirty: &BTreeSet<CountryCode>,
    ) -> Result<(GovDataset, BuildReport), BuildError> {
        let (result, telemetry) = govhost_obs::collect(|| -> Result<_, BuildError> {
            let _build = govhost_obs::span!("build");
            let now = Arc::new(Snapshot::of(world, options));
            // A cached content half is kept exactly while its crawl
            // holds; every other contributing country is crawled afresh.
            let mut kept: HashMap<CountryCode, CountryEntry> = cache
                .entries
                .iter()
                .filter(|e| e.content.read.crawl_holds(&now))
                .map(|e| (e.code, e.clone()))
                .collect();
            let (crawled, quarantined) = Self::crawl_countries(world, options, &kept, &now)?;
            let mut crawled: HashMap<CountryCode, CountryWork> =
                crawled.into_iter().map(|w| (w.entry.code, w)).collect();
            // In fixed studied-country order: a crawled country, or a
            // kept one, recomputed from its first stale §3.4 record on.
            let mut works: Vec<CountryWork> = Vec::new();
            for row in world.studied_countries() {
                let code = row.cc();
                if let Some(entry) = kept.remove(&code) {
                    let stale = entry.infra.first_stale(&now, &world.resolver);
                    let shards = stale.map(|stale| CountryShards { stale, ..Default::default() });
                    works.push(CountryWork { entry, shards });
                } else if let Some(work) = crawled.remove(&code) {
                    works.push(work);
                }
            }
            Self::identify_countries(world, options, &now, &mut works);
            let shards = works.iter().filter_map(|w| w.shards.as_ref());
            let resolved_failures: u64 = shards.map(|s| s.resolution_failures).sum();
            let (entries, shards): (Vec<CountryEntry>, Vec<Option<CountryShards>>) =
                works.into_iter().map(|w| (w.entry, w.shards)).unzip();
            // Per entry: `None` when replayed, else whether it was crawled.
            let recomputed: Vec<Option<bool>> =
                shards.iter().map(|s| s.as_ref().map(|s| s.crawl.is_some())).collect();
            let (asm, memo) =
                Self::assemble(world, options, &now, &entries, shards, cache.geo.as_deref());
            cache.entries = entries;
            cache.geo = Some(Arc::new(memo));
            Ok((asm, quarantined, recomputed, resolved_failures))
        });
        let (asm, quarantined, recomputed, resolved_failures) = result?;
        let fresh = cache.entries.iter().zip(recomputed).filter_map(|(e, r)| Some((e, r?)));
        Ok(Self::finish_checked(asm, quarantined, fresh, resolved_failures, telemetry))
    }

    /// The post-assembly half of every build: derive the report from the
    /// assembly's merge sums, and cross-check the telemetry registry
    /// against the freshly computed share of them.
    ///
    /// Only recomputed countries (`fresh`, each flagged with whether it
    /// was also re-crawled) emit telemetry — replayed ones did no
    /// measurement work. So the crawl-failure counters are checked
    /// against sums over the re-crawled entries, the resolution-failure
    /// counter against the failures among the hosts the identify jobs
    /// re-resolved (`resolved_failures`; a kept record is not resolved
    /// again), and `analyze.hosts` against the host records every
    /// recomputed entry owns. Geolocation
    /// counts only the pairs it located afresh, so its counters are
    /// checked against that fresh share of the [`ValidationStats`], and
    /// the fresh and replayed shares must add up to the whole. For a
    /// full build every country is fresh and re-crawled, and every pair
    /// is located.
    fn finish_checked<'a>(
        asm: Assembled,
        quarantined: Vec<QuarantineEntry>,
        fresh: impl Iterator<Item = (&'a CountryEntry, bool)>,
        resolved_failures: u64,
        telemetry: govhost_obs::Telemetry,
    ) -> (GovDataset, BuildReport) {
        let report = BuildReport {
            quarantined,
            crawl_failures: asm.failure_causes,
            resolution_failures: asm.resolution_failures,
            geo_excluded: asm.geo.validation.unicast[2] + asm.geo.validation.anycast[2],
            geo_conflicts: asm.geo.validation.conflicts,
        };

        // The registry is the single source of truth for the
        // instrumentation view, and it must agree with the merge: a
        // mismatch means an instrumentation bug (a missed counter, a
        // shard that leaked past quarantine), so fail loudly instead of
        // exporting numbers that disagree with the dataset.
        let mut fresh_causes = FailureCauses::default();
        let mut fresh_crawl_failures = 0u32;
        let mut fresh_codes: HashSet<CountryCode> = HashSet::new();
        for (entry, crawled) in fresh {
            if crawled {
                fresh_causes.merge(entry.content.failure_causes);
                fresh_crawl_failures += entry.content.crawl_failures;
            }
            fresh_codes.insert(entry.code);
        }
        let r = &telemetry.registry;
        let fetch_failures =
            |cause: &str| r.counter_filtered("crawl.fetch_failures", &[("cause", cause)]) as u32;
        let registry_causes = FailureCauses {
            geo_blocked: fetch_failures("geo_blocked"),
            not_found: fetch_failures("not_found"),
            unknown_host: fetch_failures("unknown_host"),
        };
        assert_eq!(
            registry_causes, fresh_causes,
            "registry fetch-failure counters must match the per-country merge"
        );
        assert_eq!(
            registry_causes.total(),
            fresh_crawl_failures,
            "fetch-failure causes must sum to the flat crawl-failure count"
        );
        assert_eq!(
            r.counter_total("identify.resolution_failures"),
            resolved_failures,
            "registry resolution-failure counter must match the identify jobs' counts"
        );
        let geo = &asm.geo;
        assert_eq!(
            r.counter_total("geoloc.tasks") as usize,
            geo.fresh.unicast_total() + geo.fresh.anycast_total(),
            "geolocation task counter must match the freshly located verdicts"
        );
        assert_eq!(
            r.counter_filtered("geoloc.verdict", &[("method", "unresolved")]) as usize,
            geo.fresh.unicast[2] + geo.fresh.anycast[2],
            "unresolved-verdict counter must match the fresh Table-4 UR buckets"
        );
        assert_eq!(
            r.counter_total("geoloc.conflicts") as usize,
            geo.fresh.conflicts,
            "conflict counter must match the fresh validation statistics"
        );
        let mut whole = geo.fresh;
        for i in 0..3 {
            whole.unicast[i] += geo.replayed.unicast[i];
            whole.anycast[i] += geo.replayed.anycast[i];
        }
        whole.conflicts += geo.replayed.conflicts;
        assert_eq!(
            whole, geo.validation,
            "fresh plus replayed verdicts must make up the validation statistics"
        );

        let timings = StageTimings::from_telemetry(&telemetry);
        assert_eq!(
            timings.analyze.items,
            asm.hosts.iter().filter(|h| fresh_codes.contains(&h.country)).count() as u64,
            "analyze.hosts counter must match the host records of recomputed countries"
        );

        let dataset = GovDataset {
            hosts: asm.hosts,
            urls: asm.urls,
            host_ids: asm.host_ids,
            validation: asm.geo.validation,
            method_counts: asm.method_counts,
            crawl_failures: asm.crawl_failures,
            per_country: asm.per_country,
            timings,
            telemetry,
        };
        (dataset, report)
    }

    /// Phases §3.2–§3.3 for every contributing country without a `kept`
    /// entry: the per-country crawl/classify fan-out into content halves
    /// that keep `now`. The returned entries carry an empty infra half
    /// for [`Self::identify_countries`] to fill.
    fn crawl_countries(
        world: &World,
        options: &BuildOptions,
        kept: &HashMap<CountryCode, CountryEntry>,
        now: &Arc<Snapshot>,
    ) -> Result<(Vec<CountryWork>, Vec<QuarantineEntry>), BuildError> {
        // Prep: one crawl/classify job per contributing country, in
        // fixed country order.
        let mut ctxs: Vec<CountryCtx<'_>> = Vec::new();
        for row in world.studied_countries() {
            let code = row.cc();
            if kept.contains_key(&code) {
                continue; // its content half still holds
            }
            let landing = world.landing(code);
            if landing.is_empty() {
                continue; // Korea's empty row: nothing to contribute
            }
            let seed_hosts: Vec<Hostname> =
                landing.iter().map(|u| u.hostname().clone()).collect();
            let landing_certs: Vec<&govhost_web::cert::TlsCert> =
                seed_hosts.iter().filter_map(|h| world.corpus.certificate(h)).collect();
            let seeds = SeedSets::new(seed_hosts, landing_certs);
            ctxs.push(CountryCtx { code, vantage: world.vantage(code).country, landing, seeds });
        }

        // Phase 1 (parallel, work-stealing): one job per country streams
        // its crawl through classification into its content half. Each
        // job collects its telemetry into a private shard that rides back
        // with the half; a faulted country's shard is dropped with its
        // result, so the capture only ever describes work that
        // contributed to the dataset.
        let results = govhost_par::try_parallel_map(
            &ctxs,
            options.threads,
            |ctx| format!("country {}", ctx.code),
            |_, ctx| {
                let (result, shard) =
                    govhost_obs::collect(|| stream_country(world, options, ctx, now));
                result.map(|content| (content, shard))
            },
        );

        // Entries and quarantines, in fixed country order, under the
        // first half of the `analyze` stage (the assembly replay is the
        // second). No global state is touched here — that is the
        // assembly's job — so an entry is a pure function of the world
        // and one country.
        let _analyze = govhost_obs::span!("analyze");
        let mut quarantined: Vec<QuarantineEntry> = Vec::new();
        let mut works: Vec<CountryWork> = Vec::with_capacity(ctxs.len());
        for (ctx, result) in ctxs.iter().zip(results) {
            let (content, crawl) = match result {
                Ok(pair) => pair,
                Err(e) => match options.policy {
                    FailurePolicy::Abort => {
                        return Err(BuildError { country: ctx.code, error: e.error })
                    }
                    FailurePolicy::Quarantine => {
                        quarantined.push(QuarantineEntry {
                            country: ctx.code,
                            stage: e.error.stage(),
                            cause: e.error.to_string(),
                        });
                        continue;
                    }
                },
            };
            works.push(CountryWork {
                entry: CountryEntry {
                    code: ctx.code,
                    content: Arc::new(content),
                    infra: Arc::default(),
                },
                shards: Some(CountryShards { crawl: Some(crawl), ..CountryShards::default() }),
            });
        }
        Ok((works, quarantined))
    }

    /// Phase §3.4 (parallel): identification, one job per recomputed
    /// country, whether its content half is fresh or kept. A country
    /// with a fresh content half identifies every distinct government
    /// hostname it surfaced, from its own vantage; one with a kept
    /// content half re-identifies, from its first stale record on, only
    /// the hosts whose cached record no longer holds, and keeps the rest.
    /// The new infra half replaces the entry's, aligned with its `gov`
    /// arena.
    fn identify_countries(
        world: &World,
        options: &BuildOptions,
        now: &Arc<Snapshot>,
        works: &mut [CountryWork],
    ) {
        let jobs: Vec<(CountryCode, CountryCode, &ContentHalf, &InfraHalf, usize)> = works
            .iter()
            .filter_map(|w| {
                let (code, stale) = (w.entry.code, w.shards.as_ref()?.stale);
                let vantage = world.vantage(code).country;
                Some((code, vantage, &*w.entry.content, &*w.entry.infra, stale))
            })
            .collect();
        let identified: Vec<(InfraHalf, u64, govhost_obs::Telemetry)> =
            govhost_par::parallel_map(
                &jobs,
                options.threads,
                |(code, ..)| format!("identify {code}"),
                |_, &(code, vantage, content, previous, stale)| {
                    identify_country(world, now, code, vantage, &content.gov, previous, stale)
                },
            );
        let recomputed = works.iter_mut().filter_map(|w| Some((&mut w.entry, w.shards.as_mut()?)));
        for ((entry, shards), (infra, failures, shard)) in recomputed.zip(identified) {
            entry.infra = Arc::new(infra);
            shards.identify = shard;
            shards.resolution_failures = failures;
        }
    }

    /// Assembly: replay entries in fixed country order into the global
    /// tables, then run the cross-country passes (§5.1 categories, §3.5
    /// geolocation over what `memo` cannot vouch for) over the merged
    /// whole. Returns the memo for the next build as well.
    ///
    /// `shards` is parallel to `entries`: `Some` for recomputed
    /// countries — their telemetry shards are grafted below a `country`
    /// span and the merge-side counters are emitted — and `None` for
    /// countries replayed from cache, which emit no telemetry because no
    /// measurement work happened. `classify.urls_examined` is emitted
    /// only for countries whose crawl actually ran. The replay and the
    /// category pass run under the `analyze` stage span.
    fn assemble(
        world: &World,
        options: &BuildOptions,
        now: &Arc<Snapshot>,
        entries: &[CountryEntry],
        shards: Vec<Option<CountryShards>>,
        memo: Option<&GeoMemo>,
    ) -> (Assembled, GeoMemo) {
        let mut recomputed: Vec<bool> = Vec::with_capacity(entries.len());
        for (entry, shard) in entries.iter().zip(shards) {
            recomputed.push(shard.is_some());
            let Some(shard) = shard else { continue };
            let code = entry.code;
            let _country = govhost_obs::span_labeled("country", &[("country", code.as_str())]);
            let country_ctx = govhost_obs::context();
            let crawled = shard.crawl.is_some();
            if let Some(crawl) = shard.crawl {
                govhost_obs::absorb(crawl, &country_ctx);
            }
            govhost_obs::absorb(shard.identify, &country_ctx);
            if crawled {
                govhost_obs::counter_add(
                    "classify.urls_examined",
                    &[("country", code.as_str())],
                    entry.content.examined,
                );
            }
        }

        let analyze = govhost_obs::span!("analyze");
        let mut hosts: Vec<HostRecord> = Vec::new();
        let mut host_ids = HostInterner::new();
        let mut urls = UrlTable::with_capacity_for(entries.iter().map(|e| &e.content.rows));
        let mut method_counts = [0u64; 3];
        let mut crawl_failures = 0u32;
        let mut failure_causes = FailureCauses::default();
        let mut resolution_failures = 0u64;
        let mut per_country: HashMap<CountryCode, CountryStats> = HashMap::new();
        for (entry, recomputed) in entries.iter().zip(recomputed) {
            let code = entry.code;
            let (content, infra) = (&entry.content, &entry.infra);
            // Replay the global merge: intern this country's government
            // hostnames (the first surfacing country wins the record),
            // then append its URL rows. Both orders equal the original
            // crawl-order merge, so the global tables come out
            // byte-identical whether the entry is fresh or cached.
            let first_new = hosts.len();
            let mut gids: Vec<HostId> = Vec::with_capacity(content.gov.len());
            for (lid, name) in content.gov.iter() {
                let (gid, new_global) = host_ids.intern(name);
                if new_global {
                    hosts.push(HostRecord {
                        hostname: name.clone(),
                        country: code,
                        method: content.gov_methods[lid.index()],
                        ip: None,
                        asn: None,
                        org: None,
                        registration: None,
                        state_operated: false,
                        category: None,
                        server_country: None,
                        anycast: false,
                        geo_excluded: false,
                    });
                }
                gids.push(gid);
            }
            if recomputed {
                // Host records are attributed to the first country that
                // surfaces them (fixed country order), and so is the
                // counter.
                govhost_obs::counter_add(
                    "analyze.hosts",
                    &[("country", code.as_str())],
                    (hosts.len() - first_new) as u64,
                );
            }
            let mut stats = CountryStats {
                landing: content.landing,
                hostnames: content.gov.len() as u32,
                urls: content.rows.len() as u64,
                ..Default::default()
            };
            for (host, bytes) in content.rows.host_bytes() {
                stats.bytes += bytes;
                method_counts[content.gov_methods[host.index()].index()] += 1;
            }
            urls.append_mapped(&content.rows, &gids);
            crawl_failures += content.crawl_failures;
            failure_causes.merge(content.failure_causes);
            resolution_failures += infra.resolution_failures;
            per_country.insert(code, stats);
            // Fill infrastructure into the host records this country
            // owns (the first surfacing country, same as the sequential
            // pipeline).
            for (lid, identified) in infra.hosts.iter().enumerate() {
                let host = &mut hosts[gids[lid].index()];
                if host.country != code {
                    continue;
                }
                if let Some(infra) = &identified.record {
                    host.ip = Some(infra.ip);
                    host.asn = Some(infra.asn);
                    host.org = Some(infra.org.clone());
                    host.registration = Some(infra.registration);
                    host.state_operated = infra.state_operated.is_some();
                }
            }
        }

        // Cross-country pass: provider footprints → §5.1 categories.
        assign_categories(&mut hosts);
        drop(analyze);

        // §3.5 (parallel): validate every (address, serving country) pair
        // the memo cannot vouch for.
        let (geo, memo) = {
            let _geo = govhost_obs::span!("geolocate");
            geolocate(world, &mut hosts, options, now, memo)
        };

        let asm = Assembled {
            hosts,
            urls,
            host_ids,
            geo,
            method_counts,
            crawl_failures,
            failure_causes,
            resolution_failures,
            per_country,
        };
        (asm, memo)
    }


    /// Table 3 summary.
    pub fn summary(&self) -> DatasetSummary {
        let landing_urls: usize =
            self.per_country.values().map(|s| s.landing as usize).sum();
        let unique_urls = self.urls.len();
        let ases: HashSet<Asn> = self.hosts.iter().filter_map(|h| h.asn).collect();
        let govt_ases: HashSet<Asn> = self
            .hosts
            .iter()
            .filter(|h| h.state_operated)
            .filter_map(|h| h.asn)
            .collect();
        let ips: HashSet<Ipv4Addr> = self.hosts.iter().filter_map(|h| h.ip).collect();
        let anycast_ips: HashSet<Ipv4Addr> =
            self.hosts.iter().filter(|h| h.anycast).filter_map(|h| h.ip).collect();
        let server_countries: HashSet<CountryCode> =
            self.hosts.iter().filter_map(|h| h.server_country).collect();
        DatasetSummary {
            landing_urls,
            internal_urls: unique_urls.saturating_sub(landing_urls),
            unique_urls,
            unique_hostnames: self.hosts.len(),
            ases: ases.len(),
            govt_ases: govt_ases.len(),
            unique_ips: ips.len(),
            anycast_ips: anycast_ips.len(),
            server_countries: server_countries.len(),
        }
    }

    /// Iterate URLs joined with their host records.
    ///
    /// Every §5–§7 analysis reads only the host side of this join, so
    /// they fold over [`GovDataset::host_volumes`] instead; this view is
    /// for callers that need the URL row itself.
    pub fn url_views(&self) -> impl Iterator<Item = (UrlRef<'_>, &HostRecord)> {
        self.urls.iter().map(move |u| (u, &self.hosts[u.host.index()]))
    }

    /// The URL table rolled up by host: each host with at least one URL,
    /// with its URL count and summed bytes.
    ///
    /// One pass over the table's host and byte columns
    /// ([`UrlTable::host_bytes`]). Hosts come out in *first-URL order* —
    /// the order in which [`GovDataset::url_views`] first meets them —
    /// so a fold that keeps the first value it sees (a provider's
    /// organisation name) keeps the same one as a per-URL fold. For a
    /// built dataset that is [`HostId`] order; for an imported one it
    /// follows the URL rows, not `hosts.csv`. Hosts without a URL are
    /// skipped, as a per-URL loop never meets them.
    ///
    /// A per-URL fold that adds 1 per URL and the URL's bytes to keys
    /// drawn from the host record equals the same fold adding `urls` and
    /// `bytes` once per host: the sums are integers, so regrouping them
    /// cannot change a bit.
    pub fn host_volumes(&self) -> impl Iterator<Item = HostVolume<'_>> {
        let mut volumes = vec![(0u64, 0u64); self.hosts.len()];
        let mut order: Vec<HostId> = Vec::new();
        for (host, bytes) in self.urls.host_bytes() {
            let volume = &mut volumes[host.index()];
            if volume.0 == 0 {
                order.push(host);
            }
            volume.0 += 1;
            volume.1 += bytes;
        }
        order.into_iter().map(move |id| {
            let (urls, bytes) = volumes[id.index()];
            HostVolume { id, host: &self.hosts[id.index()], urls, bytes }
        })
    }

    /// URLs of one country, joined.
    pub fn country_urls(
        &self,
        country: CountryCode,
    ) -> impl Iterator<Item = (UrlRef<'_>, &HostRecord)> {
        self.url_views().filter(move |(_, h)| h.country == country)
    }

    /// The id of a hostname in this build's arena, if it is a recorded
    /// government hostname.
    pub fn host_id(&self, name: &Hostname) -> Option<HostId> {
        self.host_ids.get(name)
    }

    /// The host record behind an id.
    ///
    /// # Panics
    ///
    /// If `id` did not come from this dataset's arena.
    pub fn host(&self, id: HostId) -> &HostRecord {
        &self.hosts[id.index()]
    }

    /// One country's crawl statistics, if it appears in the dataset (the
    /// lookup behind `/country/{iso}` in `govhost-serve`).
    pub fn country_stats(&self, country: CountryCode) -> Option<&CountryStats> {
        self.per_country.get(&country)
    }

    /// All countries present in the dataset, sorted.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut cs: Vec<CountryCode> = self.per_country.keys().copied().collect();
        cs.sort();
        cs
    }
}

/// §5.1 category assignment. Needs the whole dataset because "3P Global"
/// is defined by a network's *observed* multi-continent government
/// footprint.
fn assign_categories(hosts: &mut [HostRecord]) {
    // Footprint: regions of the governments each AS serves.
    let mut as_regions: HashMap<Asn, HashSet<Region>> = HashMap::new();
    for h in hosts.iter() {
        if let (Some(asn), Some(region)) = (h.asn, region_of(h.country)) {
            as_regions.entry(asn).or_default().insert(region);
        }
    }
    for h in hosts.iter_mut() {
        let Some(asn) = h.asn else { continue };
        let category = if h.state_operated {
            ProviderCategory::GovtSoe
        } else if as_regions.get(&asn).map_or(0, HashSet::len) > 1 {
            ProviderCategory::ThirdPartyGlobal
        } else if h.registration == Some(h.country) {
            ProviderCategory::ThirdPartyLocal
        } else {
            ProviderCategory::ThirdPartyRegional
        };
        h.category = Some(category);
    }
}

/// §3.5 validation over every unique (address, serving-country) pair.
///
/// A task keeps its verdict from `memo` when [`Snapshot::locate_holds`]
/// for the memo's snapshot against `now` and, if the verdict consulted
/// HOIHO, the resolver still gives the PTR answer it read.
/// Every other task is located afresh, and only those land in the
/// `geoloc.*` counters. Returns the Table 4 statistics with their fresh
/// and replayed shares, plus the next memo: this build's verdicts and
/// nothing older.
fn geolocate(
    world: &World,
    hosts: &mut [HostRecord],
    options: &BuildOptions,
    now: &Arc<Snapshot>,
    memo: Option<&GeoMemo>,
) -> (Geolocated, GeoMemo) {
    let pipeline = world.geolocation(options.geo);
    let key = |t: &GeoTask| (t.ip, t.serving_country);
    let mut tasks: Vec<GeoTask> = hosts
        .iter()
        .filter_map(|h| h.ip.map(|ip| GeoTask { ip, serving_country: h.country }))
        .collect();
    tasks.sort_by_key(key);
    tasks.dedup();

    // Tasks and memo are both sorted by key, so one merge pass finds
    // each task's memoized verdict.
    let memoized = memo
        .filter(|m| m.read.locate_holds(now))
        .map_or(&[][..], |m| &m.verdicts[..]);
    let mut next = 0;
    let kept: Vec<Option<(GeoVerdict, Option<PtrRead>)>> = tasks
        .iter()
        .map(|task| {
            while memoized.get(next).is_some_and(|(m, _, _)| key(m) < key(task)) {
                next += 1;
            }
            let (m, verdict, ptr) = memoized.get(next)?;
            let holds = m == task && ptr.as_ref().is_none_or(|p| p.holds(&world.resolver));
            holds.then(|| (*verdict, ptr.clone()))
        })
        .collect();
    let fresh: Vec<GeoTask> =
        tasks.iter().zip(&kept).filter(|(_, k)| k.is_none()).map(|(t, _)| *t).collect();
    let (located, fresh_stats) = pipeline.locate_all_reading(&fresh, options.threads);
    let replayed: ValidationStats = kept.iter().flatten().map(|(v, _)| v).collect();

    let mut located = located.into_iter();
    let verdicts: Vec<(GeoTask, GeoVerdict, Option<PtrRead>)> = tasks
        .into_iter()
        .zip(kept)
        .map(|(task, kept)| {
            let (v, ptr) = kept
                .or_else(|| located.next())
                .expect("one fresh verdict per task the memo did not keep");
            (task, v, ptr)
        })
        .collect();
    for h in hosts.iter_mut() {
        let Some(ip) = h.ip else { continue };
        let Ok(i) = verdicts.binary_search_by_key(&(ip, h.country), |(t, _, _)| key(t)) else {
            continue;
        };
        let v = &verdicts[i].1;
        h.anycast = v.anycast;
        h.geo_excluded = v.excluded;
        h.server_country = if v.excluded { None } else { v.location };
    }
    let geo = Geolocated {
        validation: verdicts.iter().map(|(_, v, _)| v).collect(),
        fresh: fresh_stats,
        replayed,
    };
    let memo = GeoMemo { read: Arc::clone(now), verdicts };
    (geo, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_worldgen::GenParams;

    fn dataset() -> GovDataset {
        let world = World::generate(&GenParams::tiny());
        GovDataset::build(&world, &BuildOptions::default())
    }

    /// The page key of `stream_country` includes the scheme: a page
    /// crawled under `https://` and again under `http://` in one country
    /// is two examinations with two URL rows. A landing page gains an
    /// `http://` link to a page it already links under `https://`; both
    /// rows must be exported, each with the page's bytes.
    #[test]
    fn a_page_fetched_under_both_schemes_exports_both_rows() {
        let mut world = World::generate(&GenParams::tiny());
        let options = BuildOptions::default();
        let before = GovDataset::build(&world, &options);
        let row_bytes = |ds: &GovDataset, scheme: Scheme, host: &Hostname, path: &str| {
            let id = ds.host_id(host)?;
            ds.urls
                .iter()
                .find(|r| r.scheme == scheme && r.host == id && r.path == path)
                .map(|r| r.bytes)
        };
        // A landing page with an https link to an existing page of its own
        // site whose http row the build does not export yet.
        let (landing, target) = world
            .studied_countries()
            .iter()
            .flat_map(|row| world.landing(row.cc()).iter())
            .find_map(|landing| {
                let site = world.corpus.site(landing.hostname())?;
                let link = site.landing_page().links.iter().find(|l| {
                    l.scheme() == Scheme::Https
                        && l.hostname() == landing.hostname()
                        && l.path() != landing.path()
                        && site.page(l.path()).is_some()
                        && row_bytes(&before, Scheme::Https, l.hostname(), l.path()).is_some()
                        && row_bytes(&before, Scheme::Http, l.hostname(), l.path()).is_none()
                })?;
                Some((landing.clone(), link.clone()))
            })
            .expect("some landing page links to a page of its own site");
        let host = target.hostname().clone();
        let http: Url = format!("http://{host}{}", target.path()).parse().unwrap();
        let site = Arc::make_mut(&mut world.corpus).site_mut(&host).unwrap();
        let page_bytes = site.page(target.path()).unwrap().html_bytes;
        site.page_mut(landing.path()).unwrap().links.push(http);

        let after = GovDataset::build(&world, &options);
        assert_eq!(row_bytes(&after, Scheme::Https, &host, target.path()), Some(page_bytes));
        assert_eq!(row_bytes(&after, Scheme::Http, &host, target.path()), Some(page_bytes));
        assert_eq!(after.urls.len(), before.urls.len() + 1, "exactly the http row is new");
    }

    #[test]
    fn builds_nonempty_dataset() {
        let ds = dataset();
        assert!(ds.hosts.len() > 150, "hosts: {}", ds.hosts.len());
        assert!(ds.urls.len() > 5_000, "urls: {}", ds.urls.len());
        let summary = ds.summary();
        assert!(summary.ases > 100);
        assert!(summary.govt_ases > 30);
        assert!(summary.unique_ips > 100);
    }

    #[test]
    fn every_url_points_at_valid_host() {
        let ds = dataset();
        assert_eq!(ds.host_ids.len(), ds.hosts.len(), "arena rows = host records");
        for u in ds.urls.iter() {
            assert!(u.host.index() < ds.hosts.len());
            let h = &ds.hosts[u.host.index()];
            assert_eq!(ds.host_ids.resolve(u.host), &h.hostname);
            assert_eq!(ds.host_id(&h.hostname), Some(u.host));
            assert!(u.path.starts_with('/'));
        }
    }

    #[test]
    fn trackers_are_filtered_out() {
        let ds = dataset();
        assert!(
            !ds.hosts.iter().any(|h| h.hostname.as_str().contains("webtrack")),
            "non-government trackers must be discarded by §3.3"
        );
    }

    #[test]
    fn hosts_have_infrastructure() {
        let ds = dataset();
        let resolved = ds.hosts.iter().filter(|h| h.ip.is_some()).count();
        assert!(
            resolved as f64 / ds.hosts.len() as f64 > 0.95,
            "nearly all hostnames must resolve ({resolved}/{})",
            ds.hosts.len()
        );
        let categorized = ds.hosts.iter().filter(|h| h.category.is_some()).count();
        assert_eq!(categorized, resolved, "every resolved host gets a category");
    }

    #[test]
    fn method_split_is_dominated_by_tld_and_domain() {
        let ds = dataset();
        let total: u64 = ds.method_counts.iter().sum();
        assert!(total > 0);
        let san_frac = ds.method_counts[2] as f64 / total as f64;
        assert!(san_frac < 0.05, "SAN identifications are a small tail, got {san_frac}");
        assert!(ds.method_counts[0] > 0, "some URLs identified by gov TLDs");
        assert!(ds.method_counts[1] > 0, "some URLs identified by domain matching");
    }

    #[test]
    fn validation_stats_cover_both_kinds() {
        let ds = dataset();
        let unicast_total: usize = ds.validation.unicast.iter().sum();
        assert!(unicast_total > 50);
        let conf = ds.validation.confirmation_rate();
        assert!(conf > 0.6, "most addresses must validate, got {conf}");
    }

    #[test]
    fn per_country_stats_match_url_records() {
        let ds = dataset();
        for (code, stats) in &ds.per_country {
            let counted = ds.country_urls(*code).count() as u64;
            assert_eq!(counted, stats.urls, "{code}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let world = World::generate(&GenParams::tiny());
        let a = GovDataset::build(&world, &BuildOptions::default());
        let b = GovDataset::build(&world, &BuildOptions::default());
        assert_eq!(a.urls.len(), b.urls.len());
        assert_eq!(a.hosts.len(), b.hosts.len());
        assert_eq!(a.method_counts, b.method_counts);
        assert_eq!(a.validation, b.validation);
    }

    #[test]
    fn single_threaded_build_matches_parallel() {
        let world = World::generate(&GenParams::tiny());
        let seq =
            GovDataset::build(&world, &BuildOptions { threads: 1, ..BuildOptions::default() });
        let par =
            GovDataset::build(&world, &BuildOptions { threads: 8, ..BuildOptions::default() });
        assert_eq!(seq.urls.len(), par.urls.len());
        assert_eq!(seq.method_counts, par.method_counts);
        assert_eq!(seq.validation, par.validation);
        assert_eq!(seq.crawl_failures, par.crawl_failures);
        // Host records (including §3.4 identification and §3.5 verdicts)
        // must be identical in order and content.
        assert_eq!(seq.hosts.len(), par.hosts.len());
        for (a, b) in seq.hosts.iter().zip(&par.hosts) {
            assert_eq!(a.hostname, b.hostname);
            assert_eq!(a.country, b.country);
            assert_eq!(a.method, b.method);
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.org, b.org);
            assert_eq!(a.category, b.category);
            assert_eq!(a.server_country, b.server_country);
            assert_eq!(a.anycast, b.anycast);
            assert_eq!(a.geo_excluded, b.geo_excluded);
        }
        // Stage item counts are deterministic even though wall times vary.
        assert_eq!(seq.timings.item_counts(), par.timings.item_counts());
    }

    #[test]
    fn stage_timings_are_populated() {
        let ds = dataset();
        let t = ds.timings;
        assert_eq!(t.analyze.items, ds.hosts.len() as u64);
        assert!(t.crawl.items > 0, "pages were crawled");
        assert!(t.classify.items >= ds.urls.len() as u64, "every kept URL was examined");
        let unique_ips: std::collections::HashSet<_> =
            ds.hosts.iter().filter_map(|h| h.ip.map(|ip| (ip, h.country))).collect();
        assert_eq!(t.geolocate.items, unique_ips.len() as u64);
        assert!(t.build_nanos > 0);
        let rendered = t.render();
        assert!(rendered.contains("geolocate"), "render names every stage: {rendered}");
        assert!(rendered.contains("total"));
    }

    #[test]
    fn telemetry_capture_matches_the_dataset() {
        let ds = dataset();
        let t = &ds.telemetry;
        assert_eq!(
            t.span_count("country"),
            ds.per_country.len() as u64,
            "one country span per contributing country"
        );
        assert_eq!(t.span_count("build"), 1);
        assert_eq!(t.registry.counter_total("crawl.pages"), ds.timings.crawl.items);
        assert_eq!(t.registry.counter_total("analyze.hosts"), ds.hosts.len() as u64);
        assert_eq!(
            t.registry.counter_total("geoloc.verdict"),
            t.registry.counter_total("geoloc.tasks"),
            "every geolocation task gets exactly one verdict"
        );
        assert_eq!(
            t.span_count("locate"),
            t.registry.counter_total("geoloc.tasks"),
            "worker locate spans grafted below the geolocate span"
        );
        assert!(
            t.registry.histogram("crawl.page_bytes", &govhost_obs::Labels::empty()).is_some(),
            "page-size histogram was recorded"
        );
        // The two exports are stable byte-for-byte across rebuilds.
        let other = dataset();
        use govhost_obs::export::{metrics_json, trace_json};
        assert_eq!(metrics_json(t), metrics_json(&other.telemetry));
        assert_eq!(
            trace_json(t, govhost_obs::TimeMode::Deterministic),
            trace_json(&other.telemetry, govhost_obs::TimeMode::Deterministic)
        );
    }

    #[test]
    fn try_build_on_clean_world_reports_no_quarantines() {
        let world = World::generate(&GenParams::tiny());
        let (ds, report) =
            GovDataset::try_build(&world, &BuildOptions::default()).expect("clean world builds");
        assert!(report.quarantined.is_empty());
        // The by-cause breakdown sums to the dataset's flat counter.
        assert_eq!(report.crawl_failures.total(), ds.crawl_failures);
        assert_eq!(
            report.geo_excluded,
            ds.validation.unicast[2] + ds.validation.anycast[2],
            "report mirrors the Table-4 UR buckets"
        );
        assert_eq!(report.geo_conflicts, ds.validation.conflicts);
        let rendered = report.render();
        assert!(rendered.contains("crawl failures"), "{rendered}");
        assert!(rendered.contains("quarantined"), "{rendered}");
    }

    #[test]
    fn thread_count_env_override_is_honoured_in_default() {
        // Can't mutate the environment safely in-process here; just pin
        // the clamp contract of the resolved default.
        let opts = BuildOptions::default();
        assert!((1..=govhost_par::MAX_THREADS).contains(&opts.threads));
    }

    #[test]
    fn categories_recover_ground_truth_mostly() {
        let world = World::generate(&GenParams::tiny());
        let ds = GovDataset::build(&world, &BuildOptions::default());
        let mut agree = 0usize;
        let mut total = 0usize;
        for h in &ds.hosts {
            let Some(truth) = world.truth.host(&h.hostname) else { continue };
            let Some(got) = h.category else { continue };
            total += 1;
            if got == truth.category {
                agree += 1;
            }
        }
        assert!(total > 100);
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.8, "category recovery rate {rate} ({agree}/{total})");
    }
}
