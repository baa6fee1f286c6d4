//! Property test for the incremental rebuild contract: after any seeded
//! tick sequence, [`GovDataset::rebuild_incremental`] over the tick's
//! dirty set — padded with arbitrary *clean* countries, since the
//! contract only requires the set to cover what changed — must report
//! and export the same bytes as a from-scratch build of the evolved
//! world. A second property mutates web content between ticks, which
//! must force a re-crawl where a tick alone re-runs only §3.4 identify.
//! A third rewrites reverse DNS between ticks and rebuilds with an empty
//! dirty set: the §3.5 verdicts the cache keeps must follow the PTR
//! answers they read, not the dirty set. On the in-repo harness.

use govhost_core::export::export_csv_full;
use govhost_dns::reverse::{build_reverse_zone, reverse_name};
use govhost_dns::{AuthoritativeServer, DnsName, RData, Zone};
use govhost_core::{BuildCache, BuildOptions, FailurePolicy, GovDataset};
use govhost_harness::{gens, prop_assert_eq, Config, Gen};
use govhost_types::CountryCode;
use govhost_worldgen::{default_systems, run_year, GenParams, World};
use std::collections::BTreeSet;

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

/// Rebuild over `dirty`, then compare the report and every export file
/// with a from-scratch build of the same world.
fn check_rebuild(
    world: &World,
    options: &BuildOptions,
    cache: &mut BuildCache,
    dirty: &BTreeSet<CountryCode>,
) -> Result<(), String> {
    let (incremental, inc_report) =
        GovDataset::rebuild_incremental(world, options, cache, dirty).map_err(|e| e.to_string())?;
    let (full, full_report) = GovDataset::try_build(world, options).map_err(|e| e.to_string())?;
    let inc_csv = export_csv_full(&incremental, Some(&inc_report));
    let full_csv = export_csv_full(&full, Some(&full_report));
    prop_assert_eq!(inc_report, full_report);
    prop_assert_eq!(inc_csv.hosts, full_csv.hosts);
    prop_assert_eq!(inc_csv.urls, full_csv.urls);
    prop_assert_eq!(inc_csv.meta, full_csv.meta);
    Ok(())
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
/// through the versioned corpus accessor: the domestic crawl of that
/// country now faults at its first landing page.
fn geo_restrict_landing(world: &mut World, country: CountryCode) {
    let foreign: CountryCode = if country.as_str() == "US" { "DE" } else { "US" }
        .parse()
        .expect("valid country code");
    for url in world.landing(country).to_vec() {
        world
            .corpus_mut()
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
