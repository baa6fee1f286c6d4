//! Longitudinal evolution: tick the world, rebuild incrementally, and
//! measure the headline metrics per simulated year.
//!
//! This module advances *one* world through deterministic yearly ticks
//! ([`govhost_worldgen::tick`]) and rebuilds the dataset after each via
//! [`GovDataset::rebuild_incremental`] — the revisit-study design: the
//! same corpus re-measured as its hosting drifts. Ticks leave the corpus
//! alone, so each rebuild re-runs §3.4 identify for the dirty countries
//! and reuses their cached crawl. Each year is measured by
//! [`BuildMetrics::measure`], the same reduction the what-if engine
//! diffs, and the per-year [`YearMetrics`] assemble into a [`Timeline`],
//! which `govhost-serve` exposes through the `/hhi/history`,
//! `/country/{iso}/history` and `/providers/{name}/history` routes.
//!
//! Everything is a pure function of `(params, years, tick systems)`:
//! the same seed yields a bit-identical timeline at every thread count
//! (`tests/evolve.rs` pins 10 years across 1/2/4 threads).

use crate::dataset::{BuildError, BuildOptions, BuildReport, GovDataset};
use crate::metrics::BuildMetrics;
use govhost_types::CountryCode;
use govhost_worldgen::tick::{self, TickSystem};
use govhost_worldgen::World;
use std::collections::BTreeSet;
use std::time::Duration;

/// The measured state of the world in one simulated year.
#[derive(Debug, Clone, PartialEq)]
pub struct YearMetrics {
    /// Simulated year (0 = the freshly generated world).
    pub year: u32,
    /// Countries the year's tick re-pointed (empty for year 0).
    pub dirty: Vec<CountryCode>,
    /// The year's dataset, measured.
    pub metrics: BuildMetrics,
}

impl YearMetrics {
    /// Measure one already-built dataset as the state of `year`.
    pub fn measure(
        year: u32,
        dirty: &BTreeSet<CountryCode>,
        dataset: &GovDataset,
    ) -> YearMetrics {
        YearMetrics {
            year,
            dirty: dirty.iter().copied().collect(),
            metrics: BuildMetrics::measure(dataset),
        }
    }
}

/// Per-year snapshots of an evolving world, year 0 first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// One entry per measured year, in year order.
    pub years: Vec<YearMetrics>,
}

impl Timeline {
    /// A single-year timeline measured from an already-built dataset —
    /// what `govhost-serve` uses when no evolution ran, so the history
    /// routes always have (one year of) data.
    pub fn snapshot(dataset: &GovDataset) -> Timeline {
        Timeline { years: vec![YearMetrics::measure(0, &BTreeSet::new(), dataset)] }
    }

    /// The most recent year, if any.
    pub fn latest(&self) -> Option<&YearMetrics> {
        self.years.last()
    }
}

/// Bookkeeping for one applied tick.
#[derive(Debug, Clone)]
pub struct TickSummary {
    /// The simulated year.
    pub year: u32,
    /// The tick systems' event log.
    pub events: Vec<String>,
    /// Wall time of the incremental rebuild that followed.
    pub rebuild: Duration,
}

/// Everything an evolve run produces.
#[derive(Debug)]
pub struct EvolveOutcome {
    /// Per-year metric snapshots (years 0..=N).
    pub timeline: Timeline,
    /// The dataset after the final year.
    pub dataset: GovDataset,
    /// The report of the final rebuild.
    pub report: BuildReport,
    /// One summary per applied tick, in year order.
    pub ticks: Vec<TickSummary>,
}

/// Evolve `world` through `years` ticks of `systems`, rebuilding and
/// measuring after each. Callers that honor `GOVHOST_TICKS` resolve the
/// roster with [`govhost_worldgen::tick::systems_from_env`] first.
///
/// Builds year 0 with [`GovDataset::build_cached`], then for each year:
/// run the tick, rebuild just its dirty set with
/// [`GovDataset::rebuild_incremental`], and measure. The outcome's final
/// dataset is byte-identical to a from-scratch build against the final
/// world state.
pub fn evolve_with_systems(
    world: &mut World,
    years: u32,
    options: &BuildOptions,
    systems: &[Box<dyn TickSystem>],
) -> Result<EvolveOutcome, BuildError> {
    let (mut dataset, mut report, mut cache) = GovDataset::build_cached(world, options)?;
    let mut timeline =
        Timeline { years: vec![YearMetrics::measure(0, &BTreeSet::new(), &dataset)] };
    let mut ticks = Vec::new();
    for year in 1..=years {
        let tick_report = tick::run_year(world, year, systems);
        let start = std::time::Instant::now();
        let (ds, rep) =
            GovDataset::rebuild_incremental(world, options, &mut cache, &tick_report.dirty)?;
        let rebuild = start.elapsed();
        dataset = ds;
        report = rep;
        timeline.years.push(YearMetrics::measure(year, &tick_report.dirty, &dataset));
        ticks.push(TickSummary { year, events: tick_report.events, rebuild });
    }
    Ok(EvolveOutcome { timeline, dataset, report, ticks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_worldgen::{default_systems, GenParams};

    #[test]
    fn evolve_produces_one_snapshot_per_year() {
        let mut world = World::generate(&GenParams::tiny());
        let outcome =
            evolve_with_systems(&mut world, 3, &BuildOptions::default(), &default_systems())
                .expect("tiny world evolves");
        assert_eq!(outcome.timeline.years.len(), 4, "year 0 + 3 ticks");
        assert_eq!(outcome.ticks.len(), 3);
        for (i, year) in outcome.timeline.years.iter().enumerate() {
            assert_eq!(year.year, i as u32);
            assert!(!year.metrics.countries.is_empty());
        }
        assert_eq!(outcome.timeline.latest().unwrap().year, 3);
    }

    #[test]
    fn snapshot_timeline_is_year_zero_of_evolve() {
        let params = GenParams::tiny();
        let world = World::generate(&params);
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let snap = Timeline::snapshot(&dataset);

        let mut evolved_world = World::generate(&params);
        let outcome = evolve_with_systems(
            &mut evolved_world,
            1,
            &BuildOptions::default(),
            &default_systems(),
        )
        .expect("evolves");
        assert_eq!(snap.years[0], outcome.timeline.years[0]);
    }

    #[test]
    fn ticks_move_the_metrics() {
        let mut world = World::generate(&GenParams::tiny());
        let outcome =
            evolve_with_systems(&mut world, 4, &BuildOptions::default(), &default_systems())
                .expect("tiny world evolves");
        let moved = outcome.timeline.years.windows(2).any(|w| {
            w[0].metrics.countries != w[1].metrics.countries
                || w[0].metrics.providers != w[1].metrics.providers
        });
        assert!(moved, "four ticks must visibly change at least one year's metrics");
    }
}
