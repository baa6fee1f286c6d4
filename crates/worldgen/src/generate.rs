//! The world generator: profiles → concrete simulated Internet.
//!
//! Generation is strictly deterministic in [`GenParams::seed`]: the
//! country loop runs in the fixed order of [`COUNTRIES`], and all
//! randomness flows through one seeded RNG plus order-independent
//! `det`-hashes for per-entity noise.
//!
//! The output volumes track the paper's Table 8 (scaled by
//! [`GenParams::scale`]); the hosting behaviour tracks the per-country
//! [`HostingProfile`]s; and measurement imperfections (ICMP-dead servers,
//! geo-database errors, anycast detector misses, partial PTR/PeeringDB
//! coverage) are injected at the rates in [`GenParams`].

use crate::countries::{any_country, CountryRow, COUNTRIES, TOPSITE_COUNTRIES};
use crate::params::GenParams;
use crate::profiles::{HostingProfile, TldStyle};
use crate::providers::GLOBAL_PROVIDERS;
use crate::truth::{GroundTruth, HostTruth};
use crate::world::{ContentVersion, World};
use govhost_dns::{AuthoritativeServer, DnsName, RData, Resolver, Zone};
use govhost_geoloc::geodb::GeoEntry;
use govhost_geoloc::{CountryThresholds, GeoDb, Hoiho, IpMapCache, MAnycastSnapshot};
use govhost_netsim::asdb::{AsRecord, AsRegistry, Server};
use govhost_netsim::coords::City;
use govhost_netsim::det;
use govhost_netsim::latency::LatencyModel;
use govhost_netsim::peeringdb::{PeeringDb, PeeringDbRecord};
use govhost_netsim::probes::ProbeFleet;
use govhost_netsim::search::{SearchIndex, SearchResult};
use govhost_types::{Asn, CountryCode, Hostname, IpPrefix, OrgKind, ProviderCategory, Url};
use govhost_web::cert::TlsCert;
use govhost_web::corpus::WebCorpus;
use govhost_web::page::Page;
use govhost_web::resource::{ContentType, Resource};
use govhost_web::site::Website;
use govhost_det::DetRng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Ministry/agency name stems used to synthesize hostnames.
const AGENCY_WORDS: &[&str] = &[
    "ministry", "treasury", "health", "education", "interior", "defense", "justice",
    "agriculture", "energy", "transport", "labor", "customs", "tax", "parliament", "senate",
    "police", "statistics", "environment", "culture", "science", "tourism", "trade", "planning",
    "housing", "water", "mining", "fisheries", "railways", "posts", "aviation", "pensions",
    "migration", "archives", "meteorology", "geology", "elections", "procurement", "standards",
    "ports", "roads",
];

/// State-owned-enterprise name stems.
const SOE_WORDS: &[&str] = &[
    "telecom", "petrol", "electric", "rail", "airline", "bank", "post", "gas", "water", "mining",
];

/// Content-type mix used for generated resources: (type, weight, base
/// bytes).
const CONTENT_MIX: &[(ContentType, f64, u64)] = &[
    (ContentType::Html, 0.22, 28_000),
    (ContentType::Script, 0.24, 90_000),
    (ContentType::Style, 0.10, 25_000),
    (ContentType::Image, 0.32, 140_000),
    (ContentType::Font, 0.05, 60_000),
    (ContentType::Json, 0.05, 8_000),
    (ContentType::Other, 0.02, 200_000),
];

/// Share of government hostnames whose authoritative DNS is outsourced to
/// a global managed-DNS operator (NS records under the operator's zone
/// instead of self-hosted `ns1.<apex>`).
const MANAGED_DNS_FRACTION: f64 = 0.3;

/// The managed-DNS market, mirroring its real concentration: Cloudflare,
/// Amazon (Route 53-style) and Microsoft operate the outsourced NS sets.
const MANAGED_DNS_OPERATORS: [u32; 3] = [13335, 16509, 8075];

struct Generator {
    params: GenParams,
    rng: DetRng,
    registry: AsRegistry,
    peeringdb: PeeringDb,
    search: SearchIndex,
    zones: Vec<Zone>,
    corpus: WebCorpus,
    fleet: ProbeFleet,
    latency: LatencyModel,
    geodb_truth: Vec<(Ipv4Addr, CountryCode)>,
    ipmap: IpMapCache,
    hoiho: Hoiho,
    landing_pages: HashMap<CountryCode, Vec<Url>>,
    topsites: HashMap<CountryCode, Vec<Url>>,
    truth: GroundTruth,
    next_prefix: u32,
    next_asn: u32,
    /// Per-AS address space: /24 blocks are handed out per
    /// (location, anycast) pool so that each block's WHOIS registration
    /// can be set per deployment country (the APNIC local-entity
    /// behaviour).
    as_space: HashMap<Asn, AsSpace>,
    /// (asn, location, anycast) -> (ip, hostnames already assigned).
    server_pool: HashMap<(Asn, CountryCode, bool), Vec<(Ipv4Addr, u32)>>,
    /// provider asn -> zone apex name for CDN CNAME targets.
    provider_zone: HashMap<Asn, DnsName>,
    provider_zone_data: HashMap<Asn, Zone>,
    /// provider asn -> countries it serves (drives Fig. 10).
    provider_countries: HashMap<Asn, Vec<CountryCode>>,
    /// country -> (provider asn, weight) usable by that country.
    country_providers: HashMap<CountryCode, Vec<(Asn, f64)>>,
    /// national ASes per country: (govt, soe, local, regional).
    national_as: HashMap<CountryCode, NationalAses>,
    all_cities: Vec<City>,
}

#[derive(Debug, Clone)]
struct AsSpace {
    prefix: IpPrefix,
    next_block: u32,
    /// (location, anycast) -> (block index, addresses used in block).
    blocks: HashMap<(CountryCode, bool), (u32, u32)>,
}

#[derive(Debug, Clone, Default)]
struct NationalAses {
    govt: Vec<Asn>,
    soe: Vec<Asn>,
    local: Vec<Asn>,
    regional: Vec<Asn>,
}

impl World {
    /// Generate a world from parameters. Deterministic: the same
    /// parameters always produce the same world.
    pub fn generate(params: &GenParams) -> World {
        Generator::new(*params).run()
    }
}

impl Generator {
    fn new(params: GenParams) -> Self {
        Self {
            params,
            rng: DetRng::new(params.seed),
            registry: AsRegistry::new(),
            peeringdb: PeeringDb::new(),
            search: SearchIndex::new(),
            zones: Vec::new(),
            corpus: WebCorpus::new(),
            fleet: ProbeFleet::new(),
            latency: LatencyModel { seed: params.seed, ..LatencyModel::default() },
            geodb_truth: Vec::new(),
            ipmap: IpMapCache::new(),
            hoiho: Hoiho::new(),
            landing_pages: HashMap::new(),
            topsites: HashMap::new(),
            truth: GroundTruth::default(),
            next_prefix: 0,
            next_asn: 200_000,
            as_space: HashMap::new(),
            server_pool: HashMap::new(),
            provider_zone: HashMap::new(),
            provider_zone_data: HashMap::new(),
            provider_countries: HashMap::new(),
            country_providers: HashMap::new(),
            national_as: HashMap::new(),
            all_cities: Vec::new(),
        }
    }

    fn run(mut self) -> World {
        self.deploy_probes();
        self.create_global_providers();
        self.assign_providers_to_countries();
        self.create_shared_third_party_sites();
        for row in COUNTRIES {
            self.build_country(row);
        }
        self.build_topsites();
        self.finish()
    }

    // ---- substrate helpers -------------------------------------------------

    fn alloc_prefix(&mut self) -> IpPrefix {
        // Sequential /16s starting at 11.0.0.0.
        let base = 0x0B00_0000u32 + (self.next_prefix << 16);
        self.next_prefix += 1;
        IpPrefix::new(Ipv4Addr::from(base), 16).expect("generated prefix is valid")
    }

    fn fresh_asn(&mut self) -> Asn {
        let asn = Asn(self.next_asn);
        self.next_asn += 1;
        asn
    }

    fn cities_of(&self, country: CountryCode) -> (City, City) {
        let row = any_country(country).unwrap_or_else(|| panic!("unknown country {country}"));
        (row.capital_city(), row.far_city_city())
    }

    #[allow(clippy::too_many_arguments)] // mirrors the AsRecord fields
    fn create_as(
        &mut self,
        asn: Asn,
        name: &str,
        org: &str,
        kind: OrgKind,
        registered_in: CountryCode,
        website: Option<String>,
        abuse_email: String,
        footprint: Vec<CountryCode>,
    ) {
        let prefix = self.alloc_prefix();
        self.registry.allocate(prefix, asn);
        self.as_space
            .insert(asn, AsSpace { prefix, next_block: 0, blocks: HashMap::new() });
        self.registry.insert_as(AsRecord {
            asn,
            name: name.to_string(),
            org: org.to_string(),
            kind,
            registered_in,
            website,
            abuse_email,
            footprint,
        });
    }

    /// Get (or create) a server of `asn` located in `location`, reusing
    /// pool servers until each carries ~3 hostnames.
    fn server_for(&mut self, asn: Asn, location: CountryCode, anycast: bool) -> Ipv4Addr {
        // CDN anycast addresses front far more hostnames per IP than
        // unicast servers do (Table 3: 433 anycast of 4,286 addresses for
        // 13,483 hostnames).
        let hosts_per_server: u32 = if anycast { 5 } else { 3 };
        let key = (asn, location, anycast);
        if let Some(pool) = self.server_pool.get_mut(&key) {
            if let Some(last) = pool.last_mut() {
                if last.1 < hosts_per_server {
                    last.1 += 1;
                    return last.0;
                }
            }
        }
        // Create a new server, carving addresses from a per-(location,
        // anycast) /24 block of the AS's space.
        let record_kind = self.registry.as_record(asn).expect("AS exists").kind;
        let record_home = self.registry.as_record(asn).expect("AS exists").registered_in;
        let (ip, host_index, new_block) = {
            let space = self.as_space.get_mut(&asn).expect("AS has allocated space");
            let entry = space.blocks.entry((location, anycast));
            let (block, used) = match entry {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let v = o.get_mut();
                    if v.1 >= 255 {
                        // Block exhausted: start a new one for this pool.
                        *v = (space.next_block, 0);
                        space.next_block += 1;
                    }
                    v.1 += 1;
                    (v.0, v.1)
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let block = space.next_block;
                    space.next_block += 1;
                    v.insert((block, 1));
                    (block, 1)
                }
            };
            let index = block * 256 + used;
            let ip = space.prefix.nth(index).expect("prefix space not exhausted");
            (ip, index, used == 1)
        };
        // APNIC-style local registration: a global provider's unicast
        // deployments in East Asia & Pacific or South Asia carry the
        // deployment country in their inetnum, not the provider's home.
        if new_block
            && !anycast
            && record_kind == OrgKind::GlobalProvider
            && location != record_home
        {
            let region = any_country(location).map(|r| r.region);
            if matches!(region, Some(govhost_types::Region::EastAsiaPacific) | Some(govhost_types::Region::SouthAsia))
            {
                let base = u32::from(ip) & 0xFFFF_FF00;
                let block_prefix = IpPrefix::new(Ipv4Addr::from(base), 24)
                    .expect("block prefix is valid");
                self.registry.set_prefix_country(block_prefix, location);
            }
        }
        let (capital, far) = self.cities_of(location);
        let primary = if det::unit(self.params.seed, &[u64::from(u32::from(ip)), 1]) < 0.7 {
            capital
        } else {
            far
        };
        let mut sites = vec![primary.clone()];
        if anycast {
            // A global anycast deployment: domestic site plus fixed PoPs —
            // except that CDNs do not build PoPs everywhere. About 15% of
            // deployments lack the domestic site and serve the country
            // from abroad; those are exactly the anycast addresses §3.5
            // cannot confirm in-country and excludes (17% in Table 4).
            let no_domestic_pop =
                det::unit(self.params.seed, &[u64::from(u32::from(ip)), 7]) < 0.15;
            if no_domestic_pop {
                sites.clear();
            }
            for cc in ["US", "DE", "SG"] {
                let c: CountryCode = cc.parse().expect("static code");
                if c != location {
                    sites.push(self.cities_of(c).0);
                }
            }
            if sites.is_empty() {
                sites.push(self.cities_of("US".parse().expect("static")).0);
            }
        }
        let record = self.registry.as_record(asn).expect("AS exists").clone();
        let responsive_rate = match record.kind {
            OrgKind::GlobalProvider if anycast => 0.92,
            OrgKind::GlobalProvider => 0.55,
            _ => {
                // National infrastructure: the country's profile decides.
                crate::countries::country(location)
                    .map(|row| HostingProfile::for_country(row).icmp_responsive_rate)
                    .unwrap_or(0.5)
            }
        };
        let ip_key = u64::from(u32::from(ip));
        let icmp_responsive = det::unit(self.params.seed, &[ip_key, 2]) < responsive_rate;
        let ptr = if det::unit(self.params.seed, &[ip_key, 3]) < self.params.ptr_coverage {
            let org_slug: String = record
                .name
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            Some(format!(
                "srv{}.{}.{}.net",
                host_index,
                primary.slug(),
                if org_slug.is_empty() { "host".to_string() } else { org_slug }
            ))
        } else {
            None
        };
        self.all_cities.push(primary);
        self.registry.add_server(Server {
            ip,
            asn,
            sites,
            anycast,
            icmp_responsive,
            ptr,
        });
        // IPInfo truth: unicast rows get the true country; anycast rows
        // mimic the classic failure of geolocating anycast to the
        // operator's registration country.
        let claimed = if anycast { record.registered_in } else { location };
        self.geodb_truth.push((ip, claimed));
        if !anycast && det::unit(self.params.seed, &[ip_key, 4]) < self.params.ipmap_coverage {
            self.ipmap.insert(ip, location);
        }
        self.server_pool.entry(key).or_default().push((ip, 1));
        ip
    }

    // ---- probes ------------------------------------------------------------

    fn deploy_probes(&mut self) {
        for row in COUNTRIES.iter().chain(crate::countries::HOST_ONLY_COUNTRIES) {
            let capital = row.capital_city();
            let far = row.far_city_city();
            self.fleet.deploy(&capital);
            self.fleet.deploy(&far);
            // Three interpolated inland probes for the studied countries.
            if row.landing > 0 || row.internal > 0 || crate::countries::country(row.cc()).is_some()
            {
                for t in [0.25, 0.5, 0.75] {
                    let lat = capital.location.lat * (1.0 - t) + far.location.lat * t;
                    let lon = capital.location.lon * (1.0 - t) + far.location.lon * t;
                    let city = City::new(format!("{}{}", row.capital.0, (t * 4.0) as u32), row.cc(), lat, lon);
                    self.fleet.deploy(&city);
                }
            }
            self.all_cities.push(capital);
            self.all_cities.push(far);
        }
    }

    // ---- global providers --------------------------------------------------

    fn create_global_providers(&mut self) {
        for p in GLOBAL_PROVIDERS {
            let slug = p.slug();
            let footprint: Vec<CountryCode> =
                ["US", "DE", "SG", "BR", "JP", "AU"].iter().map(|c| c.parse().unwrap()).collect();
            self.create_as(
                p.asn(),
                &format!("{}-NET", slug.to_uppercase()),
                p.org,
                OrgKind::GlobalProvider,
                p.cc(),
                Some(format!("https://www.{slug}.com")),
                format!("abuse@{slug}.com"),
                footprint,
            );
            self.peeringdb.insert(PeeringDbRecord {
                asn: p.asn(),
                name: p.name.to_string(),
                org: p.org.to_string(),
                website: Some(format!("https://www.{slug}.com")),
                notes: "Content delivery and cloud services".to_string(),
            });
            self.search.insert(
                p.org,
                SearchResult {
                    domain: format!("{slug}.com"),
                    snippet: format!("{} provides cloud and content delivery services.", p.name),
                },
            );
            let apex: DnsName = format!("{slug}.net").parse().expect("provider apex");
            self.provider_zone.insert(p.asn(), apex.clone());
            self.provider_zone_data.insert(p.asn(), Zone::new(apex));
        }
    }

    /// Assign providers to countries so each provider's footprint matches
    /// Fig. 10 exactly, with the paper's pinned provider–country pairs
    /// honoured (Hetzner→Norway, Amazon→Singapore, Cloudflare→Moldova…).
    fn assign_providers_to_countries(&mut self) {
        let all: Vec<CountryCode> = COUNTRIES.iter().map(CountryRow::cc).collect();
        let pinned: &[(&str, u32)] = &[
            ("NO", 24940),  // Hetzner serves 57% of a Scandinavian country's bytes
            ("SG", 16509),  // Amazon 97% of an East Asian country's bytes
            ("MD", 13335),  // Cloudflare 72% in Eastern Europe
            ("AR", 13335),  // Cloudflare 58% in South America
            ("HK", 13335),  // Cloudflare 56% in a small Asian country
        ];
        for p in GLOBAL_PROVIDERS {
            let mut scored: Vec<(f64, CountryCode)> = all
                .iter()
                .map(|c| {
                    let mut score =
                        det::unit(0x9097, &[u64::from(p.asn), det::hash_str(c.as_str())]);
                    if pinned.iter().any(|(pc, pa)| *pa == p.asn && c.as_str() == *pc) {
                        score += 10.0;
                    }
                    (score, *c)
                })
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            let chosen: Vec<CountryCode> =
                scored.into_iter().take(p.target_countries).map(|(_, c)| c).collect();
            self.truth.provider_assignments.insert(p.asn(), chosen.clone());
            self.provider_countries.insert(p.asn(), chosen);
        }
        // Coverage guarantee: every country must be reachable by at least
        // one global provider. Countries Cloudflare's cut missed get
        // swapped in for its lowest-scoring non-pinned members.
        let covered: std::collections::HashSet<CountryCode> =
            self.provider_countries.values().flatten().copied().collect();
        let missing: Vec<CountryCode> =
            all.iter().copied().filter(|c| !covered.contains(c)).collect();
        if !missing.is_empty() {
            let cf = self.provider_countries.get_mut(&Asn(13335)).expect("Cloudflare exists");
            for m in missing {
                // Drop the last (lowest-score) member to keep the count.
                cf.pop();
                cf.push(m);
            }
            self.truth.provider_assignments.insert(Asn(13335), cf.clone());
        }
        // Invert into per-country weighted provider lists.
        for p in GLOBAL_PROVIDERS {
            let countries = self.provider_countries[&p.asn()].clone();
            for (rank, c) in countries.iter().enumerate() {
                // Weight by global footprint so the Fig. 10 histogram
                // emerges even when a country has few global hostnames.
                let mut weight =
                    p.target_countries as f64 / 10.0 / (1.0 + rank as f64 * 0.05);
                if pinned.iter().any(|(pc, pa)| *pa == p.asn && c.as_str() == *pc) {
                    weight = 25.0; // the pinned provider dominates that country
                }
                self.country_providers.entry(*c).or_default().push((p.asn(), weight));
            }
        }
        // A third of countries concentrate on their leading provider —
        // §7.2: 32% of 3P-Global-led countries serve over half their bytes
        // from a single network.
        for (c, providers) in self.country_providers.iter_mut() {
            let key = det::hash_str(c.as_str());
            if det::unit(0xC0CE, &[key]) < 0.5 {
                if let Some(top) = providers
                    .iter_mut()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"))
                {
                    top.1 *= 60.0;
                }
            }
        }
    }

    /// Shared non-government third-party sites: trackers and analytics
    /// hosts that government pages embed and the classifier must filter
    /// out (§3.3).
    fn create_shared_third_party_sites(&mut self) {
        for i in 0..12u32 {
            let host: Hostname =
                format!("cdn{i}.webtrack{}.com", i % 4).parse().expect("valid host");
            let asn = GLOBAL_PROVIDERS[(i as usize) % 4].asn();
            let us: CountryCode = "US".parse().unwrap();
            let ip = self.server_for(asn, us, false);
            let mut zone = Zone::new(DnsName::from(&host));
            zone.add(DnsName::from(&host), RData::A(ip));
            self.zones.push(zone);
            let landing = Url::https(host.clone(), "/");
            let mut site = Website::new(landing);
            site.cert = Some(TlsCert::for_host(host, "TrackerTrust CA"));
            self.corpus.insert(site);
        }
    }

    // ---- per-country build --------------------------------------------------

    fn build_country(&mut self, row: &CountryRow) {
        let code = row.cc();
        let profile = HostingProfile::for_country(row);
        self.create_national_ases(row, &profile);

        let n_hosts = self.params.scaled(row.hostnames, 3) as usize;
        let n_urls = self.params.scaled(row.internal, 40) as u64;
        let n_landing = self.params.scaled(row.landing, 2) as usize;
        self.truth.planned_urls.insert(code, n_urls);
        self.truth.planned_landing.insert(code, n_landing as u32);
        if n_hosts == 0 || n_urls == 0 {
            self.landing_pages.insert(code, Vec::new());
            return;
        }

        let hosts = self.plan_hostnames(row, &profile, n_hosts);
        let weights: Vec<f64> = hosts.iter().map(|h| h.weight).collect();

        // Materialize infrastructure per hostname.
        let mut host_ips = Vec::with_capacity(hosts.len());
        for plan in &hosts {
            let ip = self.wire_hostname(plan);
            host_ips.push(ip);
        }

        // Websites: one per hostname, then the URL budget distributed.
        self.build_sites(row, &profile, &hosts, n_urls, &weights, n_landing);

        // Record truth.
        for plan in &hosts {
            self.truth.hosts.insert(
                plan.host.clone(),
                HostTruth {
                    country: code,
                    category: plan.category,
                    asn: plan.asn,
                    location: plan.location,
                    anycast: plan.anycast,
                    gov_tld: plan.gov_tld,
                    san_only: plan.san_only,
                },
            );
        }
    }

    fn create_national_ases(&mut self, row: &CountryRow, profile: &HostingProfile) {
        let code = row.cc();
        let cc_lower = code.as_str().to_lowercase();
        let mut nat = NationalAses::default();

        // Government networks (used exclusively by institutions).
        let gov_names =
            ["National Data Center", "Ministry of Interior Network", "Armed Forces Network"];
        for (i, base) in gov_names.iter().enumerate() {
            let asn = self.fresh_asn();
            let org = format!("{base} of {}", row.name);
            let gov_domain = match profile.tld_style.token() {
                Some(tok) if code.as_str() == "US" => format!("nic{i}.{tok}"),
                Some(tok) => format!("nic{i}.{tok}.{cc_lower}"),
                None => format!("govnet{i}.{cc_lower}"),
            };
            self.create_as(
                asn,
                &format!("GOVNET-{}-{i}", code),
                &org,
                OrgKind::Government,
                code,
                None,
                format!("noc@{gov_domain}"),
                vec![code],
            );
            let asn_key = u64::from(asn.value());
            if det::unit(self.params.seed, &[asn_key, 10]) < self.params.peeringdb_gov_coverage {
                self.peeringdb.insert(PeeringDbRecord {
                    asn,
                    name: format!("GOVNET-{code}"),
                    org: org.clone(),
                    website: Some(format!("https://www.{gov_domain}")),
                    notes: "Government network".to_string(),
                });
            }
            if det::unit(self.params.seed, &[asn_key, 11]) < self.params.search_coverage {
                self.search.insert(
                    &org,
                    SearchResult {
                        domain: gov_domain,
                        snippet: format!("{org} is a government agency of {}.", row.name),
                    },
                );
            }
            nat.govt.push(asn);
        }

        // State-owned enterprises: plain commercial names, the search
        // index is often the only evidence (the YPF case of §3.4).
        let n_soe = 2 + (det::mix(0x50E, &[det::hash_str(row.code)]) % 2) as usize;
        for i in 0..n_soe {
            let word = SOE_WORDS[(i * 3 + row.code.len()) % SOE_WORDS.len()];
            let asn = self.fresh_asn();
            let org = format!("{} {word} S.A.", row.name);
            let domain = format!("{word}-{cc_lower}.com");
            self.create_as(
                asn,
                &format!("{}-{}", word.to_uppercase(), code),
                &org,
                OrgKind::StateOwnedEnterprise,
                code,
                Some(format!("https://www.{domain}")),
                format!("abuse@{domain}"),
                vec![code],
            );
            let asn_key = u64::from(asn.value());
            if det::unit(self.params.seed, &[asn_key, 12]) < 0.3 {
                self.peeringdb.insert(PeeringDbRecord {
                    asn,
                    name: format!("{word}-{code}"),
                    org: org.clone(),
                    website: Some(format!("https://www.{domain}")),
                    notes: String::new(),
                });
            }
            if det::unit(self.params.seed, &[asn_key, 13]) < self.params.search_coverage {
                self.search.insert(
                    &org,
                    SearchResult {
                        domain,
                        snippet: format!(
                            "{org} is the state-owned {word} company of {}.",
                            row.name
                        ),
                    },
                );
            }
            nat.soe.push(asn);
        }

        // Local commercial providers.
        for i in 0..6 {
            let asn = self.fresh_asn();
            let org = format!("{} Hosting {i} Ltd.", row.name);
            let domain = format!("hosting{i}-{cc_lower}.com");
            self.create_as(
                asn,
                &format!("HOST{i}-{code}"),
                &org,
                OrgKind::LocalProvider,
                code,
                Some(format!("https://www.{domain}")),
                format!("abuse@{domain}"),
                vec![code],
            );
            self.search.insert(
                &org,
                SearchResult {
                    domain,
                    snippet: format!("{org} offers web hosting and colocation."),
                },
            );
            nat.local.push(asn);
        }

        // One regional provider, registered in a same-region neighbour.
        let neighbour = COUNTRIES
            .iter()
            .filter(|c| c.region == row.region && c.cc() != code)
            .min_by_key(|c| det::mix(0x4E16, &[det::hash_str(c.code), det::hash_str(row.code)]))
            .map(CountryRow::cc)
            .unwrap_or(code);
        let asn = self.fresh_asn();
        let org = format!("Regional Cloud {} GmbH", neighbour);
        self.create_as(
            asn,
            &format!("REGIO-{neighbour}"),
            &org,
            OrgKind::RegionalProvider,
            neighbour,
            Some(format!("https://www.regio-{}.com", neighbour.as_str().to_lowercase())),
            format!("abuse@regio-{}.com", neighbour.as_str().to_lowercase()),
            COUNTRIES.iter().filter(|c| c.region == row.region).map(CountryRow::cc).collect(),
        );
        nat.regional.push(asn);

        self.national_as.insert(code, nat);
    }

    fn plan_hostnames(
        &mut self,
        row: &CountryRow,
        profile: &HostingProfile,
        n_hosts: usize,
    ) -> Vec<HostPlan> {
        let code = row.cc();
        let cc_lower = code.as_str().to_lowercase();
        let mut plans: Vec<HostPlan> = Vec::with_capacity(n_hosts + 2);

        // France's New Caledonia dependency is a pinned special case:
        // gouv.nc carries 18% of French URLs from OPT's network (§6.3).
        let mut special_weight = 0.0;
        if code.as_str() == "FR" {
            let opt_asn = self.ensure_opt_nc();
            plans.push(HostPlan {
                host: "gouv.nc".parse().expect("valid host"),
                category: ProviderCategory::GovtSoe,
                asn: opt_asn,
                location: "NC".parse().unwrap(),
                anycast: false,
                weight: 0.1803,
                gov_tld: true,
                san_only: false,
            });
            special_weight = 0.1803;
        }

        // Category counts by largest remainder over the remaining weight.
        let remaining = 1.0 - special_weight;
        let budget = n_hosts.saturating_sub(plans.len()).max(1);
        let counts = largest_remainder(&profile.url_shares, budget);

        // Foreign-location budget: hostnames are sorted so that Regional
        // and Global categories absorb the foreign share first.
        let mut foreign_weight_needed =
            (1.0 - profile.domestic_server_share - if code.as_str() == "FR" { 0.1803 } else { 0.0 })
                .max(0.0);

        let mut word_idx = 0usize;
        let nat = self.national_as.get(&code).expect("national ASes built").clone();
        let order = [
            ProviderCategory::ThirdPartyRegional,
            ProviderCategory::ThirdPartyGlobal,
            ProviderCategory::ThirdPartyLocal,
            ProviderCategory::GovtSoe,
        ];
        for category in order {
            let n_c = counts[category.index()];
            if n_c == 0 {
                continue;
            }
            let w_each = remaining * profile.url_shares[category.index()] / n_c as f64;
            // For the Global category, the foreign quota is taken from the
            // *tail* of the list so the first global hostname can pin the
            // country's leading provider (the Fig. 10 usage signal), and
            // anycast CDN fronts stay domestic.
            let foreign_global = if category == ProviderCategory::ThirdPartyGlobal && w_each > 0.0
            {
                ((foreign_weight_needed / w_each).ceil() as usize).min(n_c)
            } else {
                0
            };
            for idx in 0..n_c {
                let word = AGENCY_WORDS[word_idx % AGENCY_WORDS.len()];
                let serial = word_idx / AGENCY_WORDS.len();
                word_idx += 1;
                let gov_tld = self.rng.f64() < profile.gov_tld_host_fraction
                    && category == ProviderCategory::GovtSoe
                    || (self.rng.f64() < profile.gov_tld_host_fraction * 0.8
                        && category != ProviderCategory::GovtSoe);
                let host_str = if gov_tld {
                    match profile.tld_style {
                        TldStyle::DotGov => format!("{word}{serial}.gov"),
                        style => format!(
                            "{word}{serial}.{}.{cc_lower}",
                            style.token().expect("non-plain style has token")
                        ),
                    }
                } else {
                    format!("{word}{serial}-{cc_lower}gov.{cc_lower}")
                };
                let host: Hostname = host_str.parse().expect("generated hostname is valid");

                // Pick operator + location.
                let wants_foreign = foreign_weight_needed > 0.0
                    && match category {
                        ProviderCategory::ThirdPartyRegional => true,
                        ProviderCategory::ThirdPartyGlobal => idx >= n_c - foreign_global,
                        _ => false,
                    };
                let force_top_provider =
                    category == ProviderCategory::ThirdPartyGlobal && idx == 0 && !wants_foreign;
                let (asn, location, anycast) =
                    self.pick_operator(code, profile, category, wants_foreign, force_top_provider, &nat);
                let is_foreign = location != code;
                if is_foreign {
                    foreign_weight_needed -= w_each;
                }
                plans.push(HostPlan {
                    host,
                    category,
                    asn,
                    location,
                    anycast,
                    weight: w_each,
                    gov_tld,
                    san_only: false,
                });
            }
        }

        // One SAN-only affiliate for countries with enough volume: a
        // hostname nothing but a landing-page SAN identifies (§3.3's
        // orniss.ro / energia-argentina.com.ar examples).
        if n_hosts >= 6 {
            let host: Hostname = format!("energia-{cc_lower}.com").parse().expect("valid host");
            let asn = nat.soe.first().copied().unwrap_or(nat.govt[0]);
            let org = self.registry.as_record(asn).expect("AS exists").org.clone();
            self.search.insert(
                &format!("energia-{cc_lower}"),
                SearchResult {
                    domain: format!("energia-{cc_lower}.com"),
                    snippet: format!("Official portal of {org}, a state-owned enterprise."),
                },
            );
            plans.push(HostPlan {
                host,
                category: ProviderCategory::GovtSoe,
                asn,
                location: code,
                anycast: false,
                weight: 0.003,
                gov_tld: false,
                san_only: true,
            });
        }

        // Renormalize weights.
        let total: f64 = plans.iter().map(|p| p.weight).sum();
        for p in &mut plans {
            p.weight /= total;
        }
        plans
    }

    fn ensure_opt_nc(&mut self) -> Asn {
        let asn = Asn(18200);
        if self.registry.as_record(asn).is_none() {
            let nc: CountryCode = "NC".parse().unwrap();
            self.create_as(
                asn,
                "OPT-NC",
                "Office des Postes et des Telecomm de Nouvelle Caledonie",
                OrgKind::StateOwnedEnterprise,
                nc,
                Some("https://www.opt.nc".to_string()),
                "abuse@opt.nc".to_string(),
                vec![nc],
            );
            self.search.insert(
                "Office des Postes et des Telecomm de Nouvelle Caledonie",
                SearchResult {
                    domain: "opt.nc".to_string(),
                    snippet: "OPT is New Caledonia's state-owned posts and telecom operator."
                        .to_string(),
                },
            );
        }
        asn
    }

    #[allow(clippy::too_many_arguments)]
    fn pick_operator(
        &mut self,
        code: CountryCode,
        profile: &HostingProfile,
        category: ProviderCategory,
        wants_foreign: bool,
        force_top_provider: bool,
        nat: &NationalAses,
    ) -> (Asn, CountryCode, bool) {
        let location = if wants_foreign {
            self.pick_foreign_dest(profile).unwrap_or(code)
        } else {
            code
        };
        match category {
            ProviderCategory::GovtSoe => {
                // Most state hosting concentrates on the primary national
                // data center: §7.2 finds 63% of Govt&SOE-led countries
                // serve over half their bytes from a single network.
                let pool: Vec<(Asn, f64)> = nat
                    .govt
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (*a, if i == 0 { 13.0 } else { 1.0 }))
                    .chain(nat.soe.iter().map(|a| (*a, 1.2)))
                    .collect();
                (weighted_pick(&mut self.rng, &pool), code, false)
            }
            ProviderCategory::ThirdPartyLocal => {
                // The biggest local host leads, but less starkly.
                let pool: Vec<(Asn, f64)> = nat
                    .local
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (*a, if i == 0 { 3.0 } else { 1.0 }))
                    .collect();
                (weighted_pick(&mut self.rng, &pool), code, false)
            }
            ProviderCategory::ThirdPartyRegional => {
                let asn = nat.regional[0];
                (asn, location, false)
            }
            ProviderCategory::ThirdPartyGlobal => {
                let providers = self
                    .country_providers
                    .get(&code)
                    .cloned()
                    .unwrap_or_else(|| vec![(Asn(13335), 1.0)]);
                let chosen = if force_top_provider {
                    providers
                        .iter()
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"))
                        .expect("nonempty provider list")
                        .0
                } else {
                    weighted_pick(&mut self.rng, &providers)
                };
                let provider =
                    crate::providers::provider_by_asn(chosen.value()).expect("known provider");
                // Foreign-assigned hostnames prefer unicast providers so
                // their location is measurable; anycast stays domestic.
                if wants_foreign && provider.anycast {
                    let unicast: Vec<(Asn, f64)> = providers
                        .iter()
                        .filter(|(a, _)| {
                            crate::providers::provider_by_asn(a.value())
                                .map(|p| !p.anycast)
                                .unwrap_or(false)
                        })
                        .copied()
                        .collect();
                    if !unicast.is_empty() {
                        return (weighted_pick(&mut self.rng, &unicast), location, false);
                    }
                }
                (chosen, location, provider.anycast && !wants_foreign)
            }
        }
    }

    fn pick_foreign_dest(&mut self, profile: &HostingProfile) -> Option<CountryCode> {
        if profile.foreign_dests.is_empty() {
            return None;
        }
        let total: f64 = profile.foreign_dests.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.f64() * total;
        for (c, w) in &profile.foreign_dests {
            pick -= w;
            if pick <= 0.0 {
                return Some(*c);
            }
        }
        profile.foreign_dests.last().map(|(c, _)| *c)
    }

    /// Create the server + DNS machinery for one planned hostname.
    fn wire_hostname(&mut self, plan: &HostPlan) -> Ipv4Addr {
        let apex = DnsName::from(&plan.host);
        let mut zone = Zone::new(apex.clone());
        // Apex housekeeping records, as real zones carry. A deterministic
        // fraction of governments outsource their authoritative DNS to a
        // global managed-DNS operator (the shared-NS dependence of the
        // authoritative-DNS-resilience literature): their NS set points
        // into the operator's zone instead of at themselves, so an
        // operator outage cascades to domains it does not even host.
        // The gate and operator choice are keyed hashes of the world
        // seed and hostname — never `self.rng` — so they perturb no
        // other generated surface, and NS records are invisible to
        // A-record resolution, so measured bytes are unchanged.
        if let (Ok(mname), Ok(rname)) = (apex.child("ns1"), apex.child("hostmaster")) {
            zone.add(
                apex.clone(),
                RData::Soa { mname: mname.clone(), rname, serial: 2_024_110_401 },
            );
            let seed = self.params.seed;
            let host_key = det::hash_str(plan.host.as_str());
            let managed = det::unit(seed, &[det::hash_str("managed-dns"), host_key])
                < MANAGED_DNS_FRACTION;
            let operator = managed.then(|| {
                let pick = det::mix(seed, &[det::hash_str("managed-dns-op"), host_key]);
                let asn = MANAGED_DNS_OPERATORS[pick as usize % MANAGED_DNS_OPERATORS.len()];
                crate::providers::provider_by_asn(asn).expect("static operator ASNs")
            });
            match operator {
                Some(op) => {
                    let dns_apex = op.zone_apex();
                    for ns in ["ns1.dns", "ns2.dns"] {
                        if let Ok(target) = dns_apex.child(ns) {
                            zone.add(apex.clone(), RData::Ns(target));
                        }
                    }
                }
                None => zone.add(apex.clone(), RData::Ns(mname)),
            }
        }
        let provider =
            crate::providers::provider_by_asn(plan.asn.value()).filter(|p| p.anycast);
        let ip = match provider {
            Some(_) if plan.anycast => {
                // CDN front: CNAME into the provider zone, answered by an
                // anycast address with a domestic site.
                let ip = self.server_for(plan.asn, plan.location, true);
                let slug: String =
                    plan.host.as_str().chars().map(|c| if c == '.' { '-' } else { c }).collect();
                let provider_apex = self.provider_zone[&plan.asn].clone();
                let edge = provider_apex
                    .child(&format!("{slug}.edge"))
                    .unwrap_or_else(|_| provider_apex.clone());
                zone.add(apex.clone(), RData::Cname(edge.clone()));
                let pz = self.provider_zone_data.get_mut(&plan.asn).expect("provider zone");
                pz.add(edge, RData::A(ip));
                ip
            }
            _ => {
                let ip = self.server_for(plan.asn, plan.location, false);
                zone.add(apex.clone(), RData::A(ip));
                ip
            }
        };
        self.zones.push(zone);
        ip
    }

    fn build_sites(
        &mut self,
        row: &CountryRow,
        profile: &HostingProfile,
        hosts: &[HostPlan],
        n_urls: u64,
        weights: &[f64],
        n_landing: usize,
    ) {
        let code = row.cc();
        // Sites: one per hostname, with a small page skeleton to depth 7.
        let mut sites: Vec<Website> = Vec::with_capacity(hosts.len());
        for (i, plan) in hosts.iter().enumerate() {
            let landing = Url::https(plan.host.clone(), "/");
            let mut site = Website::new(landing.clone());
            let mut cert = TlsCert::for_host(plan.host.clone(), "GovSign CA");
            // The first site's certificate carries the SAN-only affiliates.
            if i == 0 {
                for other in hosts.iter().filter(|p| p.san_only) {
                    cert.sans.push(other.host.clone());
                }
            }
            site.cert = Some(cert);
            // Countries with a meaningful restriction rate always get at
            // least one geo-blocked site, so the behaviour is exercised
            // even at tiny scales.
            let force_restricted = i == 1 && profile.geo_restricted_fraction >= 0.05;
            if force_restricted || self.rng.f64() < profile.geo_restricted_fraction {
                site.geo_restricted_to = Some(code);
            }
            // Page skeleton: a chain of pages to depth 7 so deep crawls
            // find something at every level.
            let mut parent_path = "/".to_string();
            for depth in 1..=7u32 {
                let path = format!("/d{depth}");
                let page = Page::empty(Url::https(plan.host.clone(), path.clone()), 9_000);
                site.insert_page(page);
                let parent_url = Url::https(plan.host.clone(), parent_path.clone());
                let link = Url::https(plan.host.clone(), path.clone());
                site.page_mut(parent_url.path()).expect("parent exists").links.push(link);
                parent_path = path;
            }
            // A couple of external links: one to another government site,
            // one to a contractor (non-government) the classifier must
            // drop.
            if hosts.len() > 1 {
                let other = &hosts[(i + 1) % hosts.len()];
                let target = Url::https(other.host.clone(), "/");
                site.page_mut("/").expect("landing").links.push(target);
            }
            let tracker: Url = format!("https://cdn{}.webtrack{}.com/", i % 12, i % 4)
                .parse()
                .expect("valid URL");
            site.page_mut("/").expect("landing").links.push(tracker);
            sites.push(site);
        }

        // Landing-URL list (§3.1): site roots first, then extra per-agency
        // paths on the biggest sites (gov.br/abin-style). SAN-only
        // affiliates are deliberately absent — nothing but a certificate
        // ties them to the government (§3.3's last heuristic).
        let seedable: Vec<usize> =
            (0..sites.len()).filter(|i| !hosts[*i].san_only).collect();
        let mut landing_list: Vec<Url> = Vec::with_capacity(n_landing);
        for i in 0..n_landing {
            if i < seedable.len() {
                landing_list.push(sites[seedable[i]].landing.clone());
            } else {
                let site_idx = seedable[i % seedable.len()];
                let path = format!("/agency{}", i / seedable.len());
                let url = Url::https(hosts[site_idx].host.clone(), path.clone());
                let mut page = Page::empty(url.clone(), 12_000);
                // Link extra landings into the main tree.
                page.links.push(sites[site_idx].landing.clone());
                sites[site_idx].insert_page(page);
                landing_list.push(url);
            }
        }

        // Distribute the URL budget: depth 0 carries 84%, depth 1 carries
        // 11%, the rest decays to depth 7 (§4.2).
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let n_extra = (n_urls as f64 * 0.06) as u64; // non-government embeds
        for u in 0..n_urls + n_extra {
            let is_extra = u >= n_urls;
            // Owner page.
            let site_idx = self.rng.index(sites.len());
            let depth = sample_depth(&mut self.rng);
            let page_path = if depth == 0 { "/".to_string() } else { format!("/d{depth}") };
            // Resource host: weighted government hostname, or a tracker.
            let (res_host, category) = if is_extra {
                let k = self.rng.range(12) as u32;
                let host: Hostname =
                    format!("cdn{k}.webtrack{}.com", k % 4).parse().expect("valid host");
                (host, None)
            } else {
                let pick = self.rng.f64();
                let idx = cumulative
                    .iter()
                    .position(|c| pick <= *c)
                    .unwrap_or(hosts.len() - 1);
                (hosts[idx].host.clone(), Some(hosts[idx].category))
            };
            let (ctype, base) = sample_content(&mut self.rng);
            let skew = category.map_or(1.0, |c| profile.byte_skew[c.index()]);
            let noise = 0.3 + 1.4 * self.rng.f64().powi(2);
            let bytes = ((base as f64) * skew * noise).max(64.0) as u64;
            let path = format!("/r/{u}");
            let url = Url::https(res_host, path);
            sites[site_idx]
                .page_mut(&page_path)
                .expect("skeleton page exists")
                .resources
                .push(Resource::new(url, bytes, ctype));
        }

        for site in sites {
            self.corpus.insert(site);
        }
        self.landing_pages.insert(code, landing_list);
    }

    // ---- topsites (App. D) ---------------------------------------------------

    fn build_topsites(&mut self) {
        for code_str in TOPSITE_COUNTRIES {
            let code: CountryCode = code_str.parse().expect("static code");
            let row = crate::countries::country(code).expect("in sample");
            let profile = HostingProfile::for_country(row);
            let cc_lower = code.as_str().to_lowercase();
            let nat = self.national_as.get(&code).expect("national ASes built").clone();
            let n_sites = 24usize;
            let mut urls = Vec::with_capacity(n_sites);
            for i in 0..n_sites {
                // Category mix per Fig. 3 (topsites): self 18%, global
                // 78%, local 3%, foreign 1%.
                let r = self.rng.f64();
                let host: Hostname = format!("top{i}-{cc_lower}site.com")
                    .parse()
                    .expect("valid host");
                let apex = DnsName::from(&host);
                let mut zone = Zone::new(apex.clone());
                if r < 0.18 {
                    // Self-hosting: CNAME whose 2LD matches the site 2LD.
                    // 40% domestic enterprises, 60% foreign (a local
                    // audience browsing a US platform).
                    let domestic = self.rng.f64() < 0.4;
                    let asn = if domestic {
                        nat.local[0]
                    } else {
                        Asn(16509) // their own racks in a US cloud region
                    };
                    let location = if domestic { code } else { "US".parse().unwrap() };
                    let ip = self.server_for(asn, location, false);
                    let cdn_host: Hostname = format!("cdn.top{i}-{cc_lower}site.com")
                        .parse()
                        .expect("valid host");
                    let cdn_name = DnsName::from(&cdn_host);
                    zone.add(apex.clone(), RData::Cname(cdn_name.clone()));
                    zone.add(cdn_name, RData::A(ip));
                } else if r < 0.96 {
                    // Global CDN; roughly half served domestically.
                    let providers = self.country_providers.get(&code).cloned().unwrap_or_default();
                    let (asn, _) = providers.first().copied().unwrap_or((Asn(13335), 1.0));
                    let domestic = self.rng.f64() < 0.52;
                    let location = if domestic { code } else { "US".parse().unwrap() };
                    let provider = crate::providers::provider_by_asn(asn.value());
                    let anycast = provider.map(|p| p.anycast).unwrap_or(false) && domestic;
                    let ip = self.server_for(asn, location, anycast);
                    let provider_apex = self.provider_zone[&asn].clone();
                    let slug: String =
                        host.as_str().chars().map(|c| if c == '.' { '-' } else { c }).collect();
                    let edge = provider_apex
                        .child(&format!("{slug}.edge"))
                        .unwrap_or_else(|_| provider_apex.clone());
                    zone.add(apex.clone(), RData::Cname(edge.clone()));
                    let pz = self.provider_zone_data.get_mut(&asn).expect("provider zone");
                    pz.add(edge, RData::A(ip));
                } else if r < 0.99 {
                    // Local provider, flat A record.
                    let asn = nat.local[1 % nat.local.len()];
                    let ip = self.server_for(asn, code, false);
                    zone.add(apex.clone(), RData::A(ip));
                } else {
                    // Foreign provider.
                    let asn = nat.regional[0];
                    let location = self.pick_foreign_dest(&profile).unwrap_or(code);
                    let ip = self.server_for(asn, location, false);
                    zone.add(apex.clone(), RData::A(ip));
                }
                self.zones.push(zone);

                let landing = Url::https(host.clone(), "/");
                let mut site = Website::new(landing.clone());
                site.cert = Some(TlsCert::for_host(host.clone(), "WebTrust CA"));
                // One level of depth with a handful of resources.
                let sub = Url::https(host.clone(), "/home");
                let mut sub_page = Page::empty(sub.clone(), 30_000);
                for rix in 0..6 {
                    let (ctype, base) = sample_content(&mut self.rng);
                    sub_page.resources.push(Resource::new(
                        Url::https(host.clone(), format!("/asset/{rix}")),
                        base,
                        ctype,
                    ));
                }
                site.insert_page(sub_page);
                site.page_mut("/").expect("landing").links.push(sub);
                self.corpus.insert(site);
                urls.push(landing);
            }
            self.topsites.insert(code, urls);
        }
    }

    // ---- assembly -------------------------------------------------------------

    fn finish(mut self) -> World {
        // Thresholds from intercity distances (every known country).
        let thresholds = CountryThresholds::from_intercity_distances(
            COUNTRIES
                .iter()
                .chain(crate::countries::HOST_ONLY_COUNTRIES)
                .map(|row| (row.cc(), row.intercity_km())),
        );

        // HOIHO dictionary: city slugs with partial coverage.
        self.all_cities.sort_by(|a, b| a.name.cmp(&b.name));
        self.all_cities.dedup_by(|a, b| a.name == b.name && a.country == b.country);
        for city in &self.all_cities {
            let slug = city.slug();
            if det::unit(self.params.seed, &[det::hash_str(&slug), 20]) < self.params.hoiho_coverage
            {
                self.hoiho.learn(slug, city.country);
            }
        }

        // Reverse zone from every PTR-bearing server.
        let reverse = govhost_dns::reverse::build_reverse_zone(
            self.registry
                .servers()
                .iter()
                .filter_map(|s| s.ptr.as_deref().map(|p| (s.ip, p))),
        );

        // Resolver catalog: hostname zones, provider zones, reverse zone.
        let mut resolver = Resolver::new();
        for zone in self.zones.drain(..) {
            resolver.add_server(AuthoritativeServer::new(zone));
        }
        for (_, zone) in self.provider_zone_data.drain() {
            resolver.add_server(AuthoritativeServer::new(zone));
        }
        resolver.add_server(AuthoritativeServer::new(reverse));

        // GeoDb: truth plus injected wrong-country errors.
        let mut geodb = GeoDb::new();
        for (ip, country) in &self.geodb_truth {
            let location = any_country(*country)
                .map(|row| row.capital_city().location)
                .unwrap_or(govhost_netsim::coords::GeoPoint::new(0.0, 0.0));
            geodb.insert(*ip, GeoEntry { country: *country, location });
        }
        let decoys: Vec<(CountryCode, govhost_netsim::coords::GeoPoint)> = ["US", "DE", "SG", "BR"]
            .iter()
            .map(|c| {
                let code: CountryCode = c.parse().unwrap();
                (code, any_country(code).unwrap().capital_city().location)
            })
            .collect();
        geodb.inject_errors(self.params.geodb_error_rate, self.params.seed ^ 0xE0, &decoys);

        // Measured anycast census: the GCV latency test over the probe
        // fleet (ICMP-dead targets and regionally-confined deployments
        // are natural misses), plus the configured budget miss rate.
        let manycast = MAnycastSnapshot::detect(
            &self.registry,
            &self.fleet,
            &self.latency,
            self.params.anycast_false_negative,
            self.params.seed ^ 0xAC,
        );

        World {
            params: self.params,
            registry: self.registry,
            peeringdb: self.peeringdb,
            search: self.search,
            resolver,
            corpus: self.corpus,
            fleet: self.fleet,
            latency: self.latency,
            geodb,
            manycast,
            thresholds,
            hoiho: self.hoiho,
            ipmap: self.ipmap,
            landing_pages: self.landing_pages,
            topsites: self.topsites,
            truth: self.truth,
            content_version: ContentVersion::Generated(self.params),
        }
    }
}

/// A planned government hostname, before materialization.
#[derive(Debug, Clone)]
struct HostPlan {
    host: Hostname,
    category: ProviderCategory,
    asn: Asn,
    location: CountryCode,
    anycast: bool,
    weight: f64,
    gov_tld: bool,
    san_only: bool,
}

/// Weighted random pick (deterministic given the RNG state).
fn weighted_pick(rng: &mut DetRng, pool: &[(Asn, f64)]) -> Asn {
    let total: f64 = pool.iter().map(|(_, w)| w).sum();
    let mut pick = rng.f64() * total;
    let mut chosen = pool[0].0;
    for (asn, w) in pool {
        pick -= w;
        chosen = *asn;
        if pick <= 0.0 {
            break;
        }
    }
    chosen
}

/// Integer apportionment by largest remainder.
fn largest_remainder(shares: &[f64; 4], total: usize) -> [usize; 4] {
    let mut counts = [0usize; 4];
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(4);
    let mut assigned = 0usize;
    for (i, s) in shares.iter().enumerate() {
        let exact = s * total as f64;
        counts[i] = exact.floor() as usize;
        assigned += counts[i];
        remainders.push((exact - exact.floor(), i));
    }
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite remainders"));
    for (_, i) in remainders.into_iter().take(total.saturating_sub(assigned)) {
        counts[i] += 1;
    }
    counts
}

/// Depth distribution matching §4.2: 84% on the landing page, 95% within
/// one level, the tail decaying to depth 7.
fn sample_depth(rng: &mut DetRng) -> u32 {
    let r = rng.f64();
    if r < 0.84 {
        0
    } else if r < 0.95 {
        1
    } else {
        // Geometric tail over depths 2..=7.
        let mut d = 2;
        let mut p = rng.f64();
        while p < 0.5 && d < 7 {
            d += 1;
            p = rng.f64();
        }
        d
    }
}

fn sample_content(rng: &mut DetRng) -> (ContentType, u64) {
    let r = rng.f64();
    let mut acc = 0.0;
    for (t, w, b) in CONTENT_MIX {
        acc += w;
        if r <= acc {
            return (*t, *b);
        }
    }
    let last = CONTENT_MIX.last().expect("nonempty mix");
    (last.0, last.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_remainder_sums_to_total() {
        for total in [1usize, 3, 10, 97] {
            let counts = largest_remainder(&[0.39, 0.34, 0.25, 0.02], total);
            assert_eq!(counts.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn largest_remainder_matches_shares() {
        let counts = largest_remainder(&[0.5, 0.25, 0.25, 0.0], 8);
        assert_eq!(counts, [4, 2, 2, 0]);
    }

    #[test]
    fn depth_distribution_shape() {
        let mut rng = DetRng::new(7);
        let n = 20_000;
        let mut at0 = 0;
        let mut within1 = 0;
        let mut max_d = 0;
        for _ in 0..n {
            let d = sample_depth(&mut rng);
            if d == 0 {
                at0 += 1;
            }
            if d <= 1 {
                within1 += 1;
            }
            max_d = max_d.max(d);
        }
        let f0 = at0 as f64 / n as f64;
        let f1 = within1 as f64 / n as f64;
        assert!((f0 - 0.84).abs() < 0.01, "depth-0 fraction {f0}");
        assert!((f1 - 0.95).abs() < 0.01, "within-1 fraction {f1}");
        assert!(max_d <= 7);
    }

    #[test]
    fn tiny_world_generates() {
        let world = World::generate(&GenParams::tiny());
        assert!(world.registry.as_count() > 600, "ASes: {}", world.registry.as_count());
        assert!(!world.registry.servers().is_empty());
        assert!(world.corpus.len() > 100);
        assert!(world.resolver.zone_count() > 100);
        // Every studied country except KR has landing pages.
        let ar: CountryCode = "AR".parse().unwrap();
        assert!(!world.landing(ar).is_empty());
        let kr: CountryCode = "KR".parse().unwrap();
        assert!(world.landing(kr).is_empty(), "Korea has no data in Table 8");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&GenParams::tiny());
        let b = World::generate(&GenParams::tiny());
        assert_eq!(a.registry.as_count(), b.registry.as_count());
        assert_eq!(a.registry.servers().len(), b.registry.servers().len());
        assert_eq!(a.corpus.len(), b.corpus.len());
        let ar: CountryCode = "AR".parse().unwrap();
        assert_eq!(a.landing(ar), b.landing(ar));
        // Spot-check server equality.
        for (sa, sb) in a.registry.servers().iter().zip(b.registry.servers()) {
            assert_eq!(sa.ip, sb.ip);
            assert_eq!(sa.asn, sb.asn);
            assert_eq!(sa.icmp_responsive, sb.icmp_responsive);
        }
    }

    #[test]
    fn seeds_differ() {
        let a = World::generate(&GenParams::tiny());
        let b = World::generate(&GenParams { seed: 43, ..GenParams::tiny() });
        let differs = a
            .registry
            .servers()
            .iter()
            .zip(b.registry.servers())
            .any(|(x, y)| x.icmp_responsive != y.icmp_responsive || x.ptr != y.ptr);
        assert!(differs, "different seeds must perturb the world");
    }

    #[test]
    fn france_depends_on_new_caledonia() {
        let world = World::generate(&GenParams::tiny());
        let gouv_nc: Hostname = "gouv.nc".parse().unwrap();
        let truth = world.truth.host(&gouv_nc).expect("gouv.nc exists");
        assert_eq!(truth.country.as_str(), "FR");
        assert_eq!(truth.location.as_str(), "NC");
        assert_eq!(truth.asn, Asn(18200), "hosted by OPT");
        // And it resolves.
        let ans = world.resolver.resolve_host(&gouv_nc, Some("FR".parse().unwrap()));
        assert!(ans.is_ok(), "gouv.nc must resolve: {ans:?}");
    }

    #[test]
    fn hostnames_resolve_from_domestic_vantage() {
        let world = World::generate(&GenParams::tiny());
        let mut checked = 0;
        for (host, truth) in world.truth.hosts.iter().take(200) {
            let ans = world.resolver.resolve_host(host, Some(truth.country));
            assert!(ans.is_ok(), "{host} must resolve: {ans:?}");
            let ips = ans.unwrap().addresses;
            assert!(!ips.is_empty());
            let server = world.registry.server_by_ip(ips[0]).expect("server exists");
            assert_eq!(server.asn, truth.asn, "{host} resolves into its operator's AS");
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn provider_footprints_match_fig10() {
        let world = World::generate(&GenParams::tiny());
        // Count countries per provider from ground truth.
        let mut counts: HashMap<Asn, std::collections::HashSet<CountryCode>> = HashMap::new();
        for t in world.truth.hosts.values() {
            if crate::providers::provider_by_asn(t.asn.value()).is_some() {
                counts.entry(t.asn).or_default().insert(t.country);
            }
        }
        // The assignment invariant is exact regardless of scale.
        let assigned = world.truth.provider_assignments.get(&Asn(13335)).unwrap();
        assert_eq!(assigned.len(), 49, "Cloudflare assigned to 49 countries (Fig. 10)");
        // Usage at tiny scale is sparse; full coverage is checked by the
        // full-scale calibration test.
        let cf = counts.get(&Asn(13335)).map(|s| s.len()).unwrap_or(0);
        assert!(cf >= 6, "Cloudflare used by several countries even tiny, got {cf}");
    }

    #[test]
    fn whois_surface_works_for_generated_servers() {
        let world = World::generate(&GenParams::tiny());
        let whois = govhost_netsim::whois::WhoisService::new(&world.registry);
        let mut ok = 0;
        for server in world.registry.servers().iter().take(100) {
            let rec = whois.query(server.ip).expect("every server IP is allocated");
            assert_eq!(rec.origin, server.asn);
            ok += 1;
        }
        assert_eq!(ok, 100);
    }

    #[test]
    fn geo_restricted_sites_exist_in_mexico() {
        let world = World::generate(&GenParams::tiny());
        let mx: CountryCode = "MX".parse().unwrap();
        let restricted = world
            .corpus
            .sites()
            .filter(|s| s.geo_restricted_to == Some(mx))
            .count();
        assert!(restricted > 0, "Mexico has geo-blocked sites (footnote 1)");
    }

    #[test]
    fn topsites_generated_for_comparison_countries() {
        let world = World::generate(&GenParams::tiny());
        for code in TOPSITE_COUNTRIES {
            let cc: CountryCode = code.parse().unwrap();
            let tops = world.topsites.get(&cc).expect("topsites exist");
            assert_eq!(tops.len(), 24);
            // They resolve.
            let ans = world.resolver.resolve_host(tops[0].hostname(), Some(cc));
            assert!(ans.is_ok(), "topsite resolves: {ans:?}");
        }
    }

    #[test]
    fn hostnames_follow_each_countrys_convention() {
        let world = World::generate(&GenParams::tiny());
        for (host, truth) in &world.truth.hosts {
            if truth.san_only || host.as_str() == "gouv.nc" {
                continue;
            }
            let cc_lower = truth.country.as_str().to_lowercase();
            if truth.gov_tld {
                // A gov-TLD hostname must actually match the Table 1
                // patterns the classifier implements.
                let labels: Vec<&str> = host.labels().collect();
                let n = labels.len();
                let tokens =
                    ["gov", "gob", "gouv", "gub", "go", "govt", "admin", "mil", "fed", "guv"];
                let ok = tokens.contains(&labels[n - 1])
                    || (n >= 2 && tokens.contains(&labels[n - 2]));
                assert!(ok, "{host} marked gov_tld but matches no pattern");
            } else {
                assert!(
                    host.as_str().ends_with(&format!(".{cc_lower}")),
                    "non-TLD hostname {host} must sit under the ccTLD"
                );
            }
        }
    }

    #[test]
    fn host_weights_sum_to_one_per_country() {
        // The planner normalizes per-country URL weights; verify via the
        // planned URL totals and generated volumes instead of private
        // state: every studied country with data has hosts.
        let world = World::generate(&GenParams::tiny());
        for row in COUNTRIES.iter().filter(|r| r.hostnames > 0) {
            let hosts = world
                .truth
                .hosts
                .values()
                .filter(|t| t.country == row.cc())
                .count();
            assert!(hosts >= 3, "{}: only {hosts} hosts", row.code);
        }
    }

    #[test]
    fn anycast_exists_and_snapshot_sees_most() {
        let world = World::generate(&GenParams::tiny());
        let anycast_servers =
            world.registry.servers().iter().filter(|s| s.anycast).count();
        assert!(anycast_servers > 10, "anycast servers: {anycast_servers}");
        assert!(world.manycast.len() > anycast_servers / 2);
    }
}
