//! Property test for the incremental rebuild contract: after any seeded
//! tick sequence, [`GovDataset::rebuild_incremental`] over the tick's
//! dirty set — padded with arbitrary *clean* countries, since the
//! contract only requires the set to cover what changed — must report
//! and export the same bytes as a from-scratch build of the evolved
//! world. On the in-repo harness.

use govhost_core::export::export_csv_full;
use govhost_core::{BuildOptions, GovDataset};
use govhost_harness::{gens, prop_assert_eq, Config, Gen};
use govhost_worldgen::{default_systems, run_year, GenParams, World};

const REGRESSIONS: &str = "tests/regressions/prop_incremental.txt";

/// Each case runs `2 + years` tiny-world builds, so keep the case count
/// modest — the seed space is what matters, not volume.
fn cfg(name: &str) -> Config {
    Config::new(name).cases(12).regressions(REGRESSIONS)
}

/// `(world seed, tick years, over-approximation bits, threads)`.
fn arb_case() -> Gen<(u64, u64, u64, u64)> {
    gens::zip4(
        gens::u64_any(),
        gens::u64_inclusive(1, 3),
        gens::u64_any(),
        gens::u64_inclusive(1, 2),
    )
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
                let (incremental, inc_report) =
                    GovDataset::rebuild_incremental(&world, &options, &mut cache, &dirty)
                        .map_err(|e| e.to_string())?;
                let (full, full_report) =
                    GovDataset::try_build(&world, &options).map_err(|e| e.to_string())?;
                let inc_csv = export_csv_full(&incremental, Some(&inc_report));
                let full_csv = export_csv_full(&full, Some(&full_report));
                prop_assert_eq!(inc_report, full_report);
                prop_assert_eq!(inc_csv.hosts, full_csv.hosts);
                prop_assert_eq!(inc_csv.urls, full_csv.urls);
                prop_assert_eq!(inc_csv.meta, full_csv.meta);
            }
            Ok(())
        },
    );
}
