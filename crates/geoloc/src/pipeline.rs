//! The full §3.5 geolocation flow, combining all stages, plus the
//! aggregate validation statistics reported in Table 4.

use crate::anycast::MAnycastSnapshot;
use crate::geodb::GeoDb;
use crate::hoiho::Hoiho;
use crate::ipmap::IpMapCache;
use crate::probing::ActiveProber;
use crate::single_radius::single_radius;
use crate::thresholds::CountryThresholds;
use govhost_dns::{DnsName, ResolutionRead, Resolver};
use govhost_netsim::asdb::AsRegistry;
use govhost_netsim::latency::LatencyModel;
use govhost_netsim::probes::ProbeFleet;
use govhost_types::CountryCode;
use std::net::Ipv4Addr;

/// One address to geolocate, tagged with the country whose government it
/// serves (the vantage for in-country verification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoTask {
    /// The server address.
    pub ip: Ipv4Addr,
    /// The country whose government URLs resolve to this address.
    pub serving_country: CountryCode,
}

/// Which stage settled the verdict (the columns of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeoMethod {
    /// Confirmed by active probing against the country threshold.
    ActiveProbing,
    /// Confirmed by the multistage fallback (HOIHO → IPmap →
    /// single-radius).
    Multistage,
    /// Could not be confirmed; excluded from analysis.
    Unresolved,
}

/// The per-address outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoVerdict {
    /// The address.
    pub ip: Ipv4Addr,
    /// Whether the MAnycast2 snapshot flagged it anycast.
    pub anycast: bool,
    /// The commercial database's claim, if it had a row.
    pub claimed: Option<CountryCode>,
    /// The accepted location (country level), when confirmed.
    pub location: Option<CountryCode>,
    /// The confirming stage.
    pub method: GeoMethod,
    /// Whether multistage evidence *contradicted* the database claim
    /// (the 84 excluded instances in §4.2).
    pub conflict: bool,
    /// Whether the address is excluded from downstream analysis.
    pub excluded: bool,
}

/// Aggregate confirmation statistics (Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ValidationStats {
    /// Unicast counts: confirmed by AP, by MG, unresolved.
    pub unicast: [usize; 3],
    /// Anycast counts: confirmed by AP, by MG, unresolved.
    pub anycast: [usize; 3],
    /// Addresses whose evidence contradicted the database claim (the
    /// §4.2 conflicting exclusions; a subset of the UR buckets).
    pub conflicts: usize,
}

impl ValidationStats {
    fn bump(&mut self, verdict: &GeoVerdict) {
        if verdict.conflict {
            self.conflicts += 1;
        }
        let idx = match verdict.method {
            GeoMethod::ActiveProbing => 0,
            GeoMethod::Multistage => 1,
            GeoMethod::Unresolved => 2,
        };
        if verdict.anycast {
            self.anycast[idx] += 1;
        } else {
            self.unicast[idx] += 1;
        }
    }

    /// Fractions per method for unicast addresses `(AP, MG, UR)`.
    ///
    /// Returns `[NaN; 3]` when no unicast address was validated; callers
    /// that render these values must guard with [`Self::unicast_total`]
    /// (the report layer prints `—` for empty buckets).
    pub fn unicast_fractions(&self) -> [f64; 3] {
        Self::fractions(&self.unicast)
    }

    /// Fractions per method for anycast addresses `(AP, MG, UR)`.
    ///
    /// Returns `[NaN; 3]` when no anycast address was validated; guard
    /// with [`Self::anycast_total`] before rendering.
    pub fn anycast_fractions(&self) -> [f64; 3] {
        Self::fractions(&self.anycast)
    }

    /// Number of unicast addresses validated (all three outcomes).
    pub fn unicast_total(&self) -> usize {
        self.unicast.iter().sum()
    }

    /// Number of anycast addresses validated (all three outcomes).
    pub fn anycast_total(&self) -> usize {
        self.anycast.iter().sum()
    }

    fn fractions(counts: &[usize; 3]) -> [f64; 3] {
        let total: usize = counts.iter().sum();
        if total == 0 {
            return [f64::NAN; 3];
        }
        [0, 1, 2].map(|i| counts[i] as f64 / total as f64)
    }

    /// Overall confirmation rate (all addresses, both kinds).
    pub fn confirmation_rate(&self) -> f64 {
        let confirmed = self.unicast[0] + self.unicast[1] + self.anycast[0] + self.anycast[1];
        let total: usize = self.unicast.iter().chain(&self.anycast).sum();
        if total == 0 {
            f64::NAN
        } else {
            confirmed as f64 / total as f64
        }
    }
}

impl<'a> FromIterator<&'a GeoVerdict> for ValidationStats {
    /// Fold verdicts into Table 4 counts (the same fold
    /// [`GeolocationPipeline::locate_all`] applies).
    fn from_iter<I: IntoIterator<Item = &'a GeoVerdict>>(verdicts: I) -> Self {
        let mut stats = ValidationStats::default();
        for verdict in verdicts {
            stats.bump(verdict);
        }
        stats
    }
}

/// The PTR answer one verdict read from the resolver.
///
/// Every other surface the pipeline reads is a snapshot its owner never
/// writes in place; reverse DNS is the one that can change under a kept
/// verdict. Only a verdict whose multistage step asked HOIHO for a hint
/// has a `PtrRead`, and the verdict still holds while the resolver gives
/// the same answer (see [`PtrRead::holds`]).
#[derive(Debug, Clone)]
pub struct PtrRead {
    ip: Ipv4Addr,
    /// `None`: the lookup failed.
    answer: Option<DnsName>,
    /// The zones the lookup read.
    read: ResolutionRead,
}

impl PtrRead {
    /// Whether `resolver` still gives the PTR answer this read got.
    ///
    /// When every query of the lookup would still go to the zone it went
    /// to, the answer is the same without a query; otherwise the lookup
    /// runs again and the answers are compared.
    pub fn holds(&self, resolver: &Resolver) -> bool {
        self.read.holds(resolver) || resolver.resolve_ptr(self.ip).ok() == self.answer
    }
}

/// Configuration for the stages that take scalar knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// RTT bound for single-radius attribution, ms.
    pub single_radius_ms: f64,
    /// Stage toggles for the ablation benchmarks: disable HOIHO.
    pub use_hoiho: bool,
    /// Disable the IPmap cache.
    pub use_ipmap: bool,
    /// Disable single-radius.
    pub use_single_radius: bool,
    /// Disable active probing entirely (forces everything through MG).
    pub use_active_probing: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            single_radius_ms: 18.0,
            use_hoiho: true,
            use_ipmap: true,
            use_single_radius: true,
            use_active_probing: true,
        }
    }
}

/// The fewest tasks [`GeolocationPipeline::locate_all_reading`] hands a
/// worker thread at once. Locating one task costs about 10 µs, and a
/// two-thread fan-out about 66 µs to spawn and join (scale 0.3, seed 7,
/// two-core x86-64 host), so a chunk below about 13 tasks costs more to
/// hand off than to run inline; a tick rebuild's handful of fresh pairs
/// runs inline.
const MIN_CHUNK: usize = 16;

/// The assembled pipeline, borrowing every substrate surface it needs.
pub struct GeolocationPipeline<'a> {
    /// The AS/server registry (to find the server behind an IP).
    pub registry: &'a AsRegistry,
    /// The commercial geolocation database.
    pub geodb: &'a GeoDb,
    /// The anycast snapshot.
    pub anycast: &'a MAnycastSnapshot,
    /// The probe fleet.
    pub fleet: &'a ProbeFleet,
    /// The latency model.
    pub model: &'a LatencyModel,
    /// Per-country thresholds.
    pub thresholds: &'a CountryThresholds,
    /// HOIHO dictionary.
    pub hoiho: &'a Hoiho,
    /// IPmap cache.
    pub ipmap: &'a IpMapCache,
    /// Resolver for PTR lookups.
    pub resolver: &'a Resolver,
    /// Scalar knobs and ablation toggles.
    pub config: PipelineConfig,
}

impl<'a> GeolocationPipeline<'a> {
    /// Geolocate one address.
    ///
    /// Telemetry: one aggregated `locate` span plus counters
    /// `geoloc.tasks{country}`, `geoloc.verdict{country,method}` and
    /// `geoloc.conflicts`. The verdict counter deliberately carries only
    /// the serving country and the confirming method — never the
    /// anycast flag or claimed country — to keep the label space small
    /// and bounded (see `govhost_obs` on cardinality limits).
    pub fn locate(&self, task: GeoTask) -> GeoVerdict {
        self.locate_reading(task).0
    }

    /// [`Self::locate`], also returning the PTR answer the verdict read,
    /// if its multistage step consulted HOIHO (same telemetry).
    pub fn locate_reading(&self, task: GeoTask) -> (GeoVerdict, Option<PtrRead>) {
        let _span = govhost_obs::span!("locate");
        let country = task.serving_country;
        govhost_obs::counter_add("geoloc.tasks", &[("country", country.as_str())], 1);
        let mut ptr = None;
        let verdict = self.locate_inner(task, &mut ptr);
        let method = match verdict.method {
            GeoMethod::ActiveProbing => "active_probing",
            GeoMethod::Multistage => "multistage",
            GeoMethod::Unresolved => "unresolved",
        };
        govhost_obs::counter_add(
            "geoloc.verdict",
            &[("country", country.as_str()), ("method", method)],
            1,
        );
        if verdict.conflict {
            govhost_obs::counter_add("geoloc.conflicts", &[], 1);
        }
        (verdict, ptr)
    }

    fn locate_inner(&self, task: GeoTask, ptr: &mut Option<PtrRead>) -> GeoVerdict {
        let claimed = self.geodb.lookup(task.ip).map(|e| e.country);
        let is_anycast = self.anycast.is_anycast(task.ip);
        let server = self.registry.server_by_ip(task.ip);
        let prober = ActiveProber::new(self.fleet, self.model, self.thresholds);

        let mut verdict = GeoVerdict {
            ip: task.ip,
            anycast: is_anycast,
            claimed,
            location: None,
            method: GeoMethod::Unresolved,
            conflict: false,
            excluded: true,
        };
        let Some(server) = server else {
            return verdict; // nothing to measure
        };

        if is_anycast {
            // Anycast: the only question the paper answers is "does this
            // address have a site inside the serving country?".
            if self.config.use_active_probing
                && prober.verify_in_country(task.serving_country, server) == Some(true)
            {
                verdict.location = Some(task.serving_country);
                verdict.method = GeoMethod::ActiveProbing;
                verdict.excluded = false;
            }
            return verdict;
        }

        // Unicast, stage #3: verify the database claim by probing from the
        // claimed country.
        if self.config.use_active_probing {
            if let Some(c) = claimed {
                if prober.verify_in_country(c, server) == Some(true) {
                    verdict.location = Some(c);
                    verdict.method = GeoMethod::ActiveProbing;
                    verdict.excluded = false;
                    return verdict;
                }
            }
        }

        // Stage #4: multistage fallback.
        let mg = self.multistage(server, ptr);
        match (mg, claimed) {
            (Some(found), Some(c)) if found == c => {
                verdict.location = Some(c);
                verdict.method = GeoMethod::Multistage;
                verdict.excluded = false;
            }
            (Some(found), Some(_)) => {
                // Evidence contradicts the database: conservative exclude.
                // Table 4 counts these under "Unresolved" (the 84 excluded
                // conflicting instances of §4.2).
                verdict.conflict = true;
                verdict.location = Some(found);
                verdict.method = GeoMethod::Unresolved;
                verdict.excluded = true;
            }
            (Some(found), None) => {
                verdict.location = Some(found);
                verdict.method = GeoMethod::Multistage;
                verdict.excluded = false;
            }
            (None, _) => {}
        }
        verdict
    }

    fn multistage(
        &self,
        server: &govhost_netsim::asdb::Server,
        ptr: &mut Option<PtrRead>,
    ) -> Option<CountryCode> {
        if self.config.use_hoiho {
            let lookup = self.resolver.resolve_ptr_sourced(server.ip);
            let read = ptr.insert(PtrRead {
                ip: server.ip,
                answer: lookup.answer.ok(),
                read: lookup.read,
            });
            if let Some(name) = &read.answer {
                if let Some(c) = self.hoiho.infer(&name.to_string()) {
                    govhost_obs::counter_add("geoloc.stage_resolved", &[("stage", "hoiho")], 1);
                    return Some(c);
                }
            }
        }
        if self.config.use_ipmap {
            if let Some(c) = self.ipmap.lookup(server.ip) {
                govhost_obs::counter_add("geoloc.stage_resolved", &[("stage", "ipmap")], 1);
                return Some(c);
            }
        }
        if self.config.use_single_radius {
            if let Some(c) =
                single_radius(self.fleet, server, self.model, self.config.single_radius_ms, 3)
            {
                govhost_obs::counter_add(
                    "geoloc.stage_resolved",
                    &[("stage", "single_radius")],
                    1,
                );
                return Some(c);
            }
        }
        None
    }

    /// Geolocate a batch and accumulate Table 4 statistics.
    pub fn locate_all(&self, tasks: &[GeoTask]) -> (Vec<GeoVerdict>, ValidationStats) {
        let (located, stats) = self.locate_all_reading(tasks, 1);
        (located.into_iter().map(|(verdict, _)| verdict).collect(), stats)
    }

    /// [`Self::locate_all`] over [`Self::locate_reading`], fanned out over
    /// up to `threads` worker threads: each verdict comes with the PTR
    /// answer it read, if any.
    ///
    /// The pipeline holds only shared references to immutable substrate
    /// surfaces, so it is `Sync` by construction and each address can be
    /// located independently. Tasks are split into contiguous chunks of
    /// at least `MIN_CHUNK` tasks, chunks are mapped in parallel, and
    /// verdicts are reassembled — and the statistics folded — in input
    /// order, so the result is identical for every thread count. A batch
    /// of at most `MIN_CHUNK` tasks is one chunk and runs inline.
    ///
    /// Each chunk collects its telemetry into a private shard that is
    /// grafted back at the caller's span position. The chunk partition
    /// itself depends on `threads`, so no per-chunk span is recorded —
    /// only the per-task data from [`Self::locate`], whose aggregation
    /// is partition-blind.
    pub fn locate_all_reading(
        &self,
        tasks: &[GeoTask],
        threads: usize,
    ) -> (Vec<(GeoVerdict, Option<PtrRead>)>, ValidationStats) {
        let threads = threads.max(1);
        // A few chunks per worker evens out chunks of unequal cost
        // without paying per-address channel overhead.
        let chunk_len = tasks.len().div_ceil(threads * 4).max(MIN_CHUNK);
        let chunks: Vec<&[GeoTask]> = tasks.chunks(chunk_len).collect();
        let ctx = govhost_obs::context();
        let per_chunk = govhost_par::parallel_map(
            &chunks,
            threads,
            |c| match c.first() {
                Some(t) => format!("{} addresses from {}", c.len(), t.ip),
                None => "empty chunk".to_string(),
            },
            |_, c| {
                govhost_obs::collect(|| {
                    c.iter().map(|t| self.locate_reading(*t)).collect::<Vec<_>>()
                })
            },
        );
        let mut stats = ValidationStats::default();
        let located: Vec<(GeoVerdict, Option<PtrRead>)> = per_chunk
            .into_iter()
            .flat_map(|(located, shard)| {
                govhost_obs::absorb(shard, &ctx);
                located
            })
            .inspect(|(v, _)| stats.bump(v))
            .collect();
        (located, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geodb::GeoEntry;
    use govhost_dns::{reverse, AuthoritativeServer};
    use govhost_netsim::asdb::Server;
    use govhost_netsim::coords::{City, GeoPoint};
    use govhost_types::{cc, Asn};

    struct Fixture {
        registry: AsRegistry,
        geodb: GeoDb,
        anycast: MAnycastSnapshot,
        fleet: ProbeFleet,
        model: LatencyModel,
        thresholds: CountryThresholds,
        hoiho: Hoiho,
        ipmap: IpMapCache,
        resolver: Resolver,
    }

    impl Fixture {
        fn pipeline(&self) -> GeolocationPipeline<'_> {
            GeolocationPipeline {
                registry: &self.registry,
                geodb: &self.geodb,
                anycast: &self.anycast,
                fleet: &self.fleet,
                model: &self.model,
                thresholds: &self.thresholds,
                hoiho: &self.hoiho,
                ipmap: &self.ipmap,
                resolver: &self.resolver,
                config: PipelineConfig::default(),
            }
        }
    }

    /// World: AR has probes. Servers:
    ///  .1 unicast in AR, responsive, db says AR          -> AP confirm
    ///  .2 unicast in AR, ICMP-dead, PTR hints AR         -> MG confirm
    ///  .3 unicast in DE, db wrongly says AR, PTR says DE -> conflict
    ///  .4 unicast in AR, ICMP-dead, no PTR/ipmap         -> unresolved
    ///  .5 anycast with AR site                           -> AP confirm
    ///  .6 anycast without AR site                        -> unresolved
    fn fixture() -> Fixture {
        let mut registry = AsRegistry::new();
        let ar_city = || City::new("BuenosAires", cc!("AR"), -34.6, -58.4);
        let de_city = || City::new("Frankfurt", cc!("DE"), 50.1, 8.7);
        let mk = |last: u8, sites: Vec<City>, anycast: bool, responsive: bool, ptr: Option<&str>| {
            Server {
                ip: Ipv4Addr::new(198, 51, 100, last),
                asn: Asn(64500),
                sites,
                anycast,
                icmp_responsive: responsive,
                ptr: ptr.map(str::to_string),
            }
        };
        registry.add_server(mk(1, vec![ar_city()], false, true, None));
        registry.add_server(mk(2, vec![ar_city()], false, false, Some("srv.buenosaires.host.ar")));
        registry.add_server(mk(3, vec![de_city()], false, false, Some("core1.fra2.transit.de")));
        registry.add_server(mk(4, vec![ar_city()], false, false, None));
        registry.add_server(mk(5, vec![ar_city(), de_city()], true, true, None));
        registry.add_server(mk(6, vec![de_city()], true, true, None));

        let mut geodb = GeoDb::new();
        let ar = GeoEntry { country: cc!("AR"), location: GeoPoint::new(-34.6, -58.4) };
        for last in [1, 2, 4] {
            geodb.insert(Ipv4Addr::new(198, 51, 100, last), ar);
        }
        // .3's row wrongly claims AR.
        geodb.insert(Ipv4Addr::new(198, 51, 100, 3), ar);

        let mut anycast = MAnycastSnapshot::new();
        anycast.mark(Ipv4Addr::new(198, 51, 100, 5));
        anycast.mark(Ipv4Addr::new(198, 51, 100, 6));

        let mut fleet = ProbeFleet::new();
        for (name, lat, lon) in [
            ("BuenosAires", -34.6, -58.4),
            ("Cordoba", -31.4, -64.2),
            ("Rosario", -32.9, -60.7),
            ("Mendoza", -32.9, -68.8),
            ("Salta", -24.8, -65.4),
        ] {
            fleet.deploy(&City::new(name, cc!("AR"), lat, lon));
        }

        let mut hoiho = Hoiho::new();
        hoiho.learn("buenosaires", cc!("AR"));
        hoiho.learn("fra", cc!("DE"));

        let ptr_zone = reverse::build_reverse_zone(
            registry
                .servers()
                .iter()
                .filter_map(|s| s.ptr.as_deref().map(|p| (s.ip, p))),
        );
        let mut resolver = Resolver::new();
        resolver.add_server(AuthoritativeServer::new(ptr_zone));

        Fixture {
            registry,
            geodb,
            anycast,
            fleet,
            model: LatencyModel::default(),
            thresholds: CountryThresholds::from_intercity_distances([(cc!("AR"), 3100.0)]),
            hoiho,
            ipmap: IpMapCache::new(),
            resolver,
        }
    }

    fn task(last: u8) -> GeoTask {
        GeoTask { ip: Ipv4Addr::new(198, 51, 100, last), serving_country: cc!("AR") }
    }

    #[test]
    fn active_probing_confirms_responsive_domestic_unicast() {
        let f = fixture();
        let v = f.pipeline().locate(task(1));
        assert_eq!(v.method, GeoMethod::ActiveProbing);
        assert_eq!(v.location, Some(cc!("AR")));
        assert!(!v.excluded && !v.conflict && !v.anycast);
    }

    #[test]
    fn multistage_confirms_via_ptr_hint() {
        let f = fixture();
        let v = f.pipeline().locate(task(2));
        assert_eq!(v.method, GeoMethod::Multistage);
        assert_eq!(v.location, Some(cc!("AR")));
        assert!(!v.excluded);
    }

    #[test]
    fn conflict_excludes_address() {
        let f = fixture();
        let v = f.pipeline().locate(task(3));
        assert!(v.conflict);
        assert!(v.excluded);
        assert_eq!(v.method, GeoMethod::Unresolved, "conflicts count as UR in Table 4");
        assert_eq!(v.location, Some(cc!("DE")), "evidence found the true location");
    }

    #[test]
    fn unmeasurable_is_unresolved() {
        let f = fixture();
        let v = f.pipeline().locate(task(4));
        assert_eq!(v.method, GeoMethod::Unresolved);
        assert!(v.excluded);
    }

    #[test]
    fn anycast_with_domestic_site_confirms() {
        let f = fixture();
        let v = f.pipeline().locate(task(5));
        assert!(v.anycast);
        assert_eq!(v.method, GeoMethod::ActiveProbing);
        assert_eq!(v.location, Some(cc!("AR")));
        assert!(!v.excluded);
    }

    #[test]
    fn anycast_without_domestic_site_excluded() {
        let f = fixture();
        let v = f.pipeline().locate(task(6));
        assert!(v.anycast);
        assert_eq!(v.method, GeoMethod::Unresolved);
        assert!(v.excluded);
    }

    #[test]
    fn ipmap_cache_fallback_works() {
        let mut f = fixture();
        // .4 is otherwise unresolvable; seed the cache.
        f.ipmap.insert(Ipv4Addr::new(198, 51, 100, 4), cc!("AR"));
        let v = f.pipeline().locate(task(4));
        assert_eq!(v.method, GeoMethod::Multistage);
        assert!(!v.excluded);
    }

    #[test]
    fn batch_stats_match_verdicts() {
        let f = fixture();
        let tasks: Vec<GeoTask> = (1..=6).map(task).collect();
        let (verdicts, stats) = f.pipeline().locate_all(&tasks);
        assert_eq!(verdicts.len(), 6);
        // .3's conflicting evidence counts as Unresolved, not MG (Table-4
        // policy: conservative exclusion), so unicast splits 1 AP / 1 MG
        // / 2 UR with the conflict inside the UR bucket.
        assert!(verdicts[2].conflict, "the .3 db/evidence conflict is flagged");
        assert_eq!(
            verdicts[2].method,
            GeoMethod::Unresolved,
            "conflicts count as Unresolved in Table 4"
        );
        assert_eq!(stats.unicast, [1, 1, 2]); // AP, MG, UR (UR includes the conflict)
        assert_eq!(stats.anycast, [1, 0, 1]);
        assert_eq!(stats.conflicts, 1, "exactly the .3 conflict");
        let conf = stats.confirmation_rate();
        assert!((conf - 3.0 / 6.0).abs() < 1e-12, "3 confirmed of 6, got {conf}");
    }

    #[test]
    fn threaded_batches_match_sequential() {
        let f = fixture();
        let p = f.pipeline();
        let six: Vec<GeoTask> = (1..=6).map(task).collect();
        // More tasks than one chunk holds, so the batch fans out.
        let many: Vec<GeoTask> = (0..5).flat_map(|_| six.iter().copied()).collect();
        for tasks in [&six[..3], &six[..], &many[..]] {
            let (seq_verdicts, seq_stats) = p.locate_all(tasks);
            for threads in [2, 3, 8] {
                let (located, stats) = p.locate_all_reading(tasks, threads);
                let verdicts: Vec<GeoVerdict> = located.into_iter().map(|(v, _)| v).collect();
                assert_eq!(verdicts, seq_verdicts, "{} tasks, threads={threads}", tasks.len());
                assert_eq!(stats, seq_stats, "{} tasks, threads={threads}", tasks.len());
            }
        }
    }

    #[test]
    fn empty_batch_produces_empty_stats_without_nan_counts() {
        let f = fixture();
        let (verdicts, stats) = f.pipeline().locate_all_reading(&[], 4);
        assert!(verdicts.is_empty());
        assert_eq!(stats, ValidationStats::default());
        assert_eq!(stats.unicast_total(), 0);
        assert_eq!(stats.anycast_total(), 0);
        // The fraction accessors are explicitly undefined (NaN) here; the
        // report layer renders them as "—" (see govhost-bench).
        assert!(stats.unicast_fractions().iter().all(|v| v.is_nan()));
        assert!(stats.confirmation_rate().is_nan());
    }

    #[test]
    fn disabling_active_probing_forces_multistage() {
        let f = fixture();
        let mut p = f.pipeline();
        p.config.use_active_probing = false;
        let v = p.locate(task(1));
        // .1 has no PTR/ipmap and is near the BA probe -> single-radius.
        assert_eq!(v.method, GeoMethod::Multistage);
        assert_eq!(v.location, Some(cc!("AR")));
    }

    #[test]
    fn disabling_all_fallbacks_unresolves_everything_unprobed() {
        let f = fixture();
        let mut p = f.pipeline();
        p.config.use_hoiho = false;
        p.config.use_ipmap = false;
        p.config.use_single_radius = false;
        let v = p.locate(task(2));
        assert_eq!(v.method, GeoMethod::Unresolved);
    }
}
