//! Property test for the incremental rebuild contract: after any seeded
//! tick sequence, [`GovDataset::rebuild_incremental`] must report and
//! export the same bytes as a from-scratch build of the evolved world.
//! The rebuild does not read its dirty-set argument — the cache checks
//! every record it holds — so the properties pass sets that name
//! arbitrary clean countries, sets that miss what changed, and empty
//! sets, and each must give the same bytes. A second property mutates
//! web content between ticks, which must force a re-crawl where a tick
//! alone re-runs only §3.4 identify. A third rewrites reverse DNS
//! between ticks and rebuilds with an empty dirty set: the §3.5
//! verdicts the cache keeps must follow the PTR answers they read. A
//! fourth mutates forward DNS — re-points a host, aliases one
//! government host to another, replaces a zone several hosts resolve
//! through — and checks that a rebuild re-identifies exactly the hosts
//! whose resolution chain now reaches a different zone, counted here
//! from the chains themselves, whatever countries the dirty set names.
//! A fifth writes the search index between ticks so that a WHOIS
//! organisation gains state-operated evidence and a landing-certificate
//! SAN gains its verification, and rebuilds with an empty dirty set
//! too; a sixth rebuilds a cache under a different crawler or
//! geolocation config. A dirty set names countries, not surfaces or
//! options, so the cache must notice all of these itself. On the
//! in-repo harness.

use govhost_core::export::export_csv_full;
use govhost_dns::reverse::{build_reverse_zone, reverse_name};
use govhost_dns::{AuthoritativeServer, DnsName, RData, Zone};
use govhost_core::{
    BuildCache, BuildOptions, BuildReport, FailurePolicy, GovDataset, StageTimings,
};
use govhost_core::export::DatasetCsv;
use govhost_core::fold::ascii_contains_ci;
use govhost_geoloc::pipeline::PipelineConfig;
use govhost_netsim::search::SearchResult;
use govhost_web::crawler::Crawler;
use govhost_harness::{gens, prop_assert, prop_assert_eq, Config, Gen};
use govhost_types::{CountryCode, Hostname};
use govhost_worldgen::{default_systems, run_year, GenParams, World};
use std::collections::BTreeSet;
use std::sync::Arc;

const REGRESSIONS: &str = "tests/regressions/prop_incremental.txt";

/// Each case runs `2 + years` tiny-world builds, so keep the case count
/// modest — the seed space is what matters, not volume.
fn cfg(name: &str) -> Config {
    Config::new(name).cases(12).regressions(REGRESSIONS)
}

/// `(world seed, tick years, selection bits, threads)`: the bits pick
/// the padded countries, or the mutated ones.
fn arb_case() -> Gen<(u64, u64, u64, u64)> {
    gens::zip4(
        gens::u64_any(),
        gens::u64_inclusive(1, 3),
        gens::u64_any(),
        gens::u64_inclusive(1, 2),
    )
}

/// A from-scratch build of `world`: the dataset, its report and its
/// export files.
fn full_build(
    world: &World,
    options: &BuildOptions,
) -> Result<(GovDataset, BuildReport, DatasetCsv), String> {
    let (full, report) = GovDataset::try_build(world, options).map_err(|e| e.to_string())?;
    let csv = export_csv_full(&full, Some(&report));
    Ok((full, report, csv))
}

/// Rebuild over `dirty`, compare the report and every export file with
/// `full`'s, and return the rebuild's stage timings.
fn rebuild_timings(
    world: &World,
    options: &BuildOptions,
    cache: &mut BuildCache,
    dirty: &BTreeSet<CountryCode>,
    (full_report, full_csv): (&BuildReport, &DatasetCsv),
) -> Result<StageTimings, String> {
    let (incremental, inc_report) =
        GovDataset::rebuild_incremental(world, options, cache, dirty).map_err(|e| e.to_string())?;
    let inc_csv = export_csv_full(&incremental, Some(&inc_report));
    prop_assert_eq!(&inc_report, full_report);
    prop_assert_eq!(&inc_csv.hosts, &full_csv.hosts);
    prop_assert_eq!(&inc_csv.urls, &full_csv.urls);
    prop_assert_eq!(&inc_csv.meta, &full_csv.meta);
    Ok(incremental.timings)
}

/// [`rebuild_timings`], returning the rebuild's `identify.items`.
fn rebuild_matches(
    world: &World,
    options: &BuildOptions,
    cache: &mut BuildCache,
    dirty: &BTreeSet<CountryCode>,
    full: (&BuildReport, &DatasetCsv),
) -> Result<u64, String> {
    rebuild_timings(world, options, cache, dirty, full).map(|t| t.identify.items)
}

/// Rebuild over `dirty`, then compare the report and every export file
/// with a from-scratch build of the same world.
fn check_rebuild(
    world: &World,
    options: &BuildOptions,
    cache: &mut BuildCache,
    dirty: &BTreeSet<CountryCode>,
) -> Result<(), String> {
    let (_, report, csv) = full_build(world, options)?;
    rebuild_matches(world, options, cache, dirty, (&report, &csv)).map(|_| ())
}

#[test]
fn incremental_rebuild_matches_full_for_arbitrary_seeds_and_dirty_sets() {
    cfg("incremental_rebuild_matches_full_for_arbitrary_seeds_and_dirty_sets").run(
        &arb_case(),
        |&(seed, years, pad_bits, threads)| {
            let params = GenParams { seed, ..GenParams::tiny() };
            let options = BuildOptions { threads: threads as usize, ..BuildOptions::default() };
            let mut world = World::generate(&params);
            let (_, _, mut cache) = GovDataset::build_cached(&world, &options)
                .map_err(|e| e.to_string())?;
            let systems = default_systems();
            for year in 1..=years as u32 {
                let report = run_year(&mut world, year, &systems);
                // Over-approximate the dirty set: marking countries the
                // tick never touched must not change a single byte.
                let mut dirty = report.dirty;
                let studied = world.studied_countries();
                for (i, row) in studied.iter().enumerate() {
                    if pad_bits >> (i % 64) & 1 != 0 {
                        dirty.insert(row.cc());
                    }
                }
                check_rebuild(&world, &options, &mut cache, &dirty)?;
            }
            Ok(())
        },
    );
}

/// Geo-restrict every landing site of `country` to a foreign country,
/// writing the corpus copy-on-write: the domestic crawl of that country
/// now faults at its first landing page.
fn geo_restrict_landing(world: &mut World, country: CountryCode) {
    let foreign: CountryCode = if country.as_str() == "US" { "DE" } else { "US" }
        .parse()
        .expect("valid country code");
    for url in world.landing(country).to_vec() {
        Arc::make_mut(&mut world.corpus)
            .site_mut(url.hostname())
            .expect("landing site exists in the corpus")
            .geo_restricted_to = Some(foreign);
    }
}

#[test]
fn incremental_rebuild_matches_full_after_content_mutations() {
    cfg("incremental_rebuild_matches_full_after_content_mutations").run(
        &arb_case(),
        |&(seed, years, pick_bits, threads)| {
            let params = GenParams { seed, ..GenParams::tiny() };
            let options = BuildOptions {
                threads: threads as usize,
                policy: FailurePolicy::Quarantine,
                ..BuildOptions::default()
            };
            let mut world = World::generate(&params);
            let contributing: Vec<CountryCode> = world
                .studied_countries()
                .iter()
                .map(|row| row.cc())
                .filter(|cc| !world.landing(*cc).is_empty())
                .collect();
            let (_, _, mut cache) = GovDataset::build_cached(&world, &options)
                .map_err(|e| e.to_string())?;
            let systems = default_systems();
            for year in 1..=years as u32 {
                let report = run_year(&mut world, year, &systems);
                // A content mutation between ticks: the dirty set names
                // the mutated country, as the contract requires.
                let pick = (pick_bits >> (16 * (year - 1))) as u16 as usize;
                let victim = contributing[pick % contributing.len()];
                geo_restrict_landing(&mut world, victim);
                let mut dirty = report.dirty;
                dirty.insert(victim);
                check_rebuild(&world, &options, &mut cache, &dirty)?;
            }
            Ok(())
        },
    );
}

/// Rewrite reverse DNS so that already-located addresses read a
/// different PTR answer or none, picked by `bits`: rotate the PTR names
/// of the whole `in-addr.arpa` zone, empty it, or shadow one /24 with a
/// more specific reverse zone holding rotated names for half its
/// addresses and none for the rest.
fn rewrite_reverse_dns(world: &mut World, bits: u64) {
    let ptrs: Vec<(std::net::Ipv4Addr, String)> = world
        .registry
        .servers()
        .iter()
        .filter_map(|s| s.ptr.clone().map(|p| (s.ip, p)))
        .collect();
    if ptrs.len() < 2 {
        return;
    }
    let shift = 1 + (bits >> 2) as usize % (ptrs.len() - 1);
    let rotated = |i: usize| ptrs[(i + shift) % ptrs.len()].1.as_str();
    let zone = match bits & 3 {
        0 | 1 => build_reverse_zone(ptrs.iter().enumerate().map(|(i, (ip, _))| (*ip, rotated(i)))),
        2 => Zone::new("in-addr.arpa".parse().expect("static name")),
        _ => {
            let [a, b, c, _] = ptrs[(bits >> 32) as usize % ptrs.len()].0.octets();
            let origin: DnsName =
                format!("{c}.{b}.{a}.in-addr.arpa").parse().expect("octet-based name");
            let mut zone = Zone::new(origin);
            for (i, (ip, _)) in ptrs.iter().enumerate() {
                let [x, y, z, _] = ip.octets();
                if (x, y, z) == (a, b, c) && i % 2 == 0 {
                    if let Ok(name) = rotated(i).parse::<DnsName>() {
                        zone.add(reverse_name(*ip), RData::Ptr(name));
                    }
                }
            }
            zone
        }
    };
    world.resolver.add_server(AuthoritativeServer::new(zone));
}

#[test]
fn incremental_rebuild_matches_full_after_reverse_dns_rewrites() {
    cfg("incremental_rebuild_matches_full_after_reverse_dns_rewrites").run(
        &arb_case(),
        |&(seed, years, rewrite_bits, threads)| {
            let params = GenParams { seed, ..GenParams::tiny() };
            let options = BuildOptions { threads: threads as usize, ..BuildOptions::default() };
            let mut world = World::generate(&params);
            let (_, _, mut cache) = GovDataset::build_cached(&world, &options)
                .map_err(|e| e.to_string())?;
            let systems = default_systems();
            for year in 1..=years as u32 {
                let report = run_year(&mut world, year, &systems);
                check_rebuild(&world, &options, &mut cache, &report.dirty)?;
                // No country's identify inputs changed, so the dirty set
                // is empty; only the PTR answers behind some verdicts did.
                rewrite_reverse_dns(&mut world, rewrite_bits.rotate_left(13 * year));
                check_rebuild(&world, &options, &mut cache, &BTreeSet::new())?;
            }
            Ok(())
        },
    );
}

/// The names a host's resolution from `vantage` queries — its alias
/// chain — each with the apex of the zone it goes to.
fn chain_zones(
    world: &World,
    host: &Hostname,
    vantage: CountryCode,
) -> Result<Vec<(DnsName, DnsName)>, String> {
    let answer = world
        .resolver
        .resolve(&DnsName::from(host), Some(vantage))
        .map_err(|e| format!("{host} does not resolve: {e}"))?;
    answer
        .chain
        .into_iter()
        .map(|name| {
            let zone = world.resolver.zone_for(&name).ok_or(format!("no zone serves {name}"))?;
            let apex = zone.zone().origin().clone();
            Ok((name, apex))
        })
        .collect()
}

/// An SOA-stamped zone at `apex` holding `records`.
fn zone_with(apex: &DnsName, records: impl IntoIterator<Item = (DnsName, RData)>) -> Zone {
    let mut zone = Zone::new(apex.clone());
    if let (Ok(mname), Ok(rname)) = (apex.child("ns1"), apex.child("hostmaster")) {
        zone.add(apex.clone(), RData::Soa { mname, rname, serial: 2_024_110_499 });
    }
    for (name, rdata) in records {
        zone.add(name, rdata);
    }
    zone
}

/// One forward-DNS mutation, picked by `bits` over the dataset's hosts
/// (each with its resolution chain): re-point a host that
/// has a zone of its own at another address; alias one such host to
/// another with a CNAME (never to a host whose chain already runs
/// through it, so no loop forms); or replace a zone that the chains of
/// several hosts run through, answering each of their names in it with
/// a new address. Returns the apex of the zone it replaced.
fn mutate_forward_dns(
    world: &mut World,
    hosts: &[(Hostname, Vec<(DnsName, DnsName)>)],
    bits: u64,
) -> DnsName {
    let own: Vec<&(Hostname, Vec<(DnsName, DnsName)>)> =
        hosts.iter().filter(|(_, chain)| chain[0].0 == chain[0].1).collect();
    let servers = world.registry.servers();
    let address = |k: u64| servers[(k % servers.len() as u64) as usize].ip;
    // Zones the chains of two or more hosts run through, in apex order.
    let mut users: std::collections::BTreeMap<&DnsName, usize> = Default::default();
    for (_, chain) in hosts {
        let apexes: BTreeSet<&DnsName> = chain.iter().map(|(_, apex)| apex).collect();
        for apex in apexes {
            *users.entry(apex).or_default() += 1;
        }
    }
    let shared: Vec<DnsName> =
        users.into_iter().filter(|(_, n)| *n >= 2).map(|(apex, _)| apex.clone()).collect();
    let pick = |n: usize, salt: u32| (bits.rotate_left(salt) >> 2) as usize % n;
    let zone = match bits % 3 {
        1 if own.len() >= 2 => {
            let (alias, _) = own[pick(own.len(), 7)];
            let alias = DnsName::from(alias);
            let targets: Vec<&Hostname> = hosts
                .iter()
                .filter(|(_, chain)| chain.iter().all(|(_, apex)| *apex != alias))
                .map(|(host, _)| host)
                .collect();
            let target = DnsName::from(targets[pick(targets.len(), 23)]);
            zone_with(&alias, [(alias.clone(), RData::Cname(target))])
        }
        2 if !shared.is_empty() => {
            let apex = &shared[pick(shared.len(), 11)];
            let names: BTreeSet<&DnsName> = hosts
                .iter()
                .flat_map(|(_, chain)| chain.iter())
                .filter(|(_, covering)| covering == apex)
                .map(|(name, _)| name)
                .collect();
            let records = names
                .into_iter()
                .enumerate()
                .map(|(i, name)| (name.clone(), RData::A(address(bits >> 20 ^ i as u64))));
            zone_with(apex, records)
        }
        _ => {
            let (host, _) = own[pick(own.len(), 3)];
            let apex = DnsName::from(host);
            zone_with(&apex, [(apex.clone(), RData::A(address(bits >> 24)))])
        }
    };
    let apex = zone.origin().clone();
    world.resolver.add_server(AuthoritativeServer::new(zone));
    apex
}

#[test]
fn forward_dns_mutations_reidentify_exactly_the_hosts_whose_chain_moved() {
    cfg("forward_dns_mutations_reidentify_exactly_the_hosts_whose_chain_moved").run(
        &arb_case(),
        |&(seed, steps, bits, threads)| {
            let params = GenParams { seed, ..GenParams::tiny() };
            let options = BuildOptions { threads: threads as usize, ..BuildOptions::default() };
            let mut world = World::generate(&params);
            let (mut dataset, _, mut cache) = GovDataset::build_cached(&world, &options)
                .map_err(|e| e.to_string())?;
            for step in 1..=steps as u32 {
                let bits = bits.rotate_left(19 * step);
                // Every dataset host belongs to one country's arena, so
                // each host is identified at most once per rebuild.
                let mut hosts = Vec::with_capacity(dataset.hosts.len());
                for h in &dataset.hosts {
                    let vantage = world.vantage(h.country).country;
                    let chain = chain_zones(&world, &h.hostname, vantage)?;
                    hosts.push((h.hostname.clone(), chain, h.country));
                }
                let chains: Vec<(Hostname, Vec<(DnsName, DnsName)>)> =
                    hosts.iter().map(|(h, chain, _)| (h.clone(), chain.clone())).collect();
                let replaced = mutate_forward_dns(&mut world, &chains, bits);
                // The hosts whose chain ran through the replaced zone, and
                // their countries: the covering dirty set.
                let moved: Vec<CountryCode> = hosts
                    .iter()
                    .filter(|(_, chain, _)| chain.iter().any(|(_, apex)| *apex == replaced))
                    .map(|(_, _, country)| *country)
                    .collect();
                let dirty: BTreeSet<CountryCode> = moved.iter().copied().collect();
                let mut padded = dirty.clone();
                for (i, row) in world.studied_countries().iter().enumerate() {
                    if bits >> (i % 64) & 1 != 0 {
                        padded.insert(row.cc());
                    }
                }
                let (full, report, csv) = full_build(&world, &options)?;
                let mut padded_cache = cache.clone();
                let items = rebuild_matches(&world, &options, &mut cache, &dirty, (&report, &csv))?;
                prop_assert_eq!(items, moved.len() as u64);
                let padded_items = rebuild_matches(
                    &world,
                    &options,
                    &mut padded_cache,
                    &padded,
                    (&report, &csv),
                )?;
                prop_assert!(padded_items == items, "padding re-identified {padded_items} > {items}");
                dataset = full;
            }
            Ok(())
        },
    );
}

/// Countries with landing pages: the ones a build crawls.
fn contributing(world: &World) -> BTreeSet<CountryCode> {
    let studied = world.studied_countries().iter().map(|row| row.cc());
    studied.filter(|cc| !world.landing(*cc).is_empty()).collect()
}

/// The label a §3.3 SAN verification searches for.
fn owner(host: &Hostname) -> &str {
    host.labels().next().unwrap_or_default()
}

/// Whether the search index already verifies SANs owned by `label`.
fn verified(world: &World, label: &str) -> bool {
    let hits = world.search.search(label);
    hits.iter().any(|r| r.indicates_government() || ascii_contains_ci(&r.snippet, "official"))
}

/// Add up to `n` SANs that nothing verifies yet, one per country,
/// starting at the country `bits` picks: each names a host a landing
/// page of that country loads and `dataset` does not hold, and goes
/// into that landing site's certificate. Returns the planted hosts.
fn plant_unverified_sans(
    world: &mut World,
    dataset: &GovDataset,
    n: usize,
    bits: u64,
) -> Vec<Hostname> {
    let countries: Vec<CountryCode> = contributing(world).into_iter().collect();
    let mut planted: Vec<Hostname> = Vec::new();
    for k in 0..countries.len() {
        let country = countries[(bits as usize).wrapping_add(k) % countries.len()];
        let landing = world.landing(country)[0].clone();
        let Some(site) = world.corpus.site(landing.hostname()) else { continue };
        let candidate = site.landing_page().resources.iter().map(|r| r.url.hostname()).find(|h| {
            dataset.host_id(h).is_none() && !planted.contains(h) && !verified(world, owner(h))
        });
        let (Some(host), Some(_)) = (candidate.cloned(), &site.cert) else { continue };
        let site = Arc::make_mut(&mut world.corpus).site_mut(landing.hostname());
        let cert = site.and_then(|s| s.cert.as_mut()).expect("the site has a certificate");
        cert.sans.push(host.clone());
        planted.push(host);
        if planted.len() == n {
            break;
        }
    }
    planted
}

#[test]
fn search_index_writes_between_ticks_rebuild_like_a_full_build() {
    cfg("search_index_writes_between_ticks_rebuild_like_a_full_build").run(
        &arb_case(),
        |&(seed, years, bits, threads)| {
            let params = GenParams { seed, ..GenParams::tiny() };
            let options = BuildOptions { threads: threads as usize, ..BuildOptions::default() };
            let mut world = World::generate(&params);
            let (generated, _) =
                GovDataset::try_build(&world, &options).map_err(|e| e.to_string())?;
            let sans = plant_unverified_sans(&mut world, &generated, years as usize, bits);
            prop_assert_eq!(sans.len(), years as usize);
            let (_, _, mut cache) = GovDataset::build_cached(&world, &options)
                .map_err(|e| e.to_string())?;
            // The index is global, so every country a build crawls may
            // read the written entry.
            let everyone = contributing(&world);
            let systems = default_systems();
            for year in 1..=years as u32 {
                let report = run_year(&mut world, year, &systems);
                let (before, full_report, csv) = full_build(&world, &options)?;
                rebuild_matches(&world, &options, &mut cache, &report.dirty, (&full_report, &csv))?;
                // A WHOIS organisation that no evidence marks as a state
                // operator gains a search hit that does, and a planted
                // SAN gains its verification.
                let operators: Vec<_> =
                    before.hosts.iter().filter(|h| !h.state_operated && h.org.is_some()).collect();
                prop_assert!(!operators.is_empty(), "some host has a commercial operator");
                let flipped = operators[(bits >> year) as usize % operators.len()];
                let org = flipped.org.clone().expect("filtered on an organisation");
                Arc::make_mut(&mut world.search).insert(
                    &org,
                    SearchResult {
                        domain: "operator.example".into(),
                        snippet: format!("{org} is a state-owned enterprise."),
                    },
                );
                let san = &sans[year as usize - 1];
                Arc::make_mut(&mut world.search).insert(
                    owner(san),
                    SearchResult {
                        domain: san.to_string(),
                        snippet: "The official portal of a government agency.".into(),
                    },
                );
                let (after, full_report, csv) = full_build(&world, &options)?;
                let now = after.host_id(&flipped.hostname).map(|id| after.host(id).state_operated);
                prop_assert_eq!(now, Some(true));
                prop_assert!(after.host_id(san).is_some(), "{san} is now a verified SAN");
                // Every record read the old index, so a rebuild told that
                // nothing changed must still find every stale record.
                let mut untold = cache.clone();
                let nothing = BTreeSet::new();
                rebuild_matches(&world, &options, &mut untold, &nothing, (&full_report, &csv))?;
                rebuild_matches(&world, &options, &mut cache, &everyone, (&full_report, &csv))?;
            }
            Ok(())
        },
    );
}

#[test]
fn rebuilds_under_changed_build_options_match_full_builds() {
    cfg("rebuilds_under_changed_build_options_match_full_builds").run(
        &arb_case(),
        |&(seed, _, _, threads)| {
            let params = GenParams { seed, ..GenParams::tiny() };
            let defaults = BuildOptions { threads: threads as usize, ..BuildOptions::default() };
            let world = World::generate(&params);
            let (_, _, cache) = GovDataset::build_cached(&world, &defaults)
                .map_err(|e| e.to_string())?;

            // A shallower crawl, with every crawled country dirty: no
            // content half of the depth-7 build may be reused.
            let shallow = BuildOptions { crawler: Crawler::with_depth(2), ..defaults };
            let (_, report, csv) = full_build(&world, &shallow)?;
            let mut recrawled = cache.clone();
            let dirty = contributing(&world);
            rebuild_matches(&world, &shallow, &mut recrawled, &dirty, (&report, &csv))?;

            // Another geolocation config, and nothing dirty: the memo is
            // dropped whole, so every task is located again.
            let geo = PipelineConfig { use_hoiho: false, ..PipelineConfig::default() };
            let no_hoiho = BuildOptions { geo, ..defaults };
            let (full, report, csv) = full_build(&world, &no_hoiho)?;
            let mut relocated = cache;
            let nothing = BTreeSet::new();
            let timings =
                rebuild_timings(&world, &no_hoiho, &mut relocated, &nothing, (&report, &csv))?;
            let tasks: BTreeSet<_> =
                full.hosts.iter().filter_map(|h| h.ip.map(|ip| (ip, h.country))).collect();
            prop_assert_eq!(timings.geolocate.items, tasks.len() as u64);
            Ok(())
        },
    );
}
