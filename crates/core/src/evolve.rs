//! Longitudinal evolution: tick the world, rebuild incrementally, and
//! measure the headline metrics per simulated year.
//!
//! Where [`crate::trends`] regenerates a fresh world per drift step (a
//! controlled experiment over one parameter), this module advances *one*
//! world through deterministic yearly ticks
//! ([`govhost_worldgen::tick`]) and rebuilds the dataset after each via
//! [`GovDataset::rebuild_incremental`] — the revisit-study design: the
//! same corpus re-measured as its hosting drifts. Ticks leave the corpus
//! alone, so each rebuild re-runs §3.4 identify for the dirty countries
//! and reuses their cached crawl. The per-year
//! [`YearMetrics`] snapshots assemble into a [`Timeline`], which
//! `govhost-serve` exposes through the `/hhi/history`,
//! `/country/{iso}/history` and `/providers/{name}/history` routes.
//!
//! Everything is a pure function of `(params, years, tick systems)`:
//! the same seed yields a bit-identical timeline at every thread count
//! (`tests/evolve.rs` pins 10 years across 1/2/4 threads).

use crate::dataset::{BuildError, BuildOptions, BuildReport, GovDataset};
use crate::diversification::DiversificationAnalysis;
use crate::hosting::HostingAnalysis;
use crate::location::LocationAnalysis;
use crate::providers::ProviderAnalysis;
use govhost_types::{CountryCode, ProviderCategory};
use govhost_worldgen::tick::{self, TickSystem, UnknownTickError};
use govhost_worldgen::World;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// One country's headline metrics in one simulated year.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryYear {
    /// Government URLs captured.
    pub urls: u64,
    /// Government bytes captured.
    pub bytes: u64,
    /// Distinct government hostnames.
    pub hostnames: u32,
    /// HHI of URLs across serving networks (Fig. 11 lens).
    pub hhi_urls: f64,
    /// HHI of bytes across serving networks.
    pub hhi_bytes: f64,
    /// Dominant hosting source by bytes, when computable.
    pub dominant: Option<ProviderCategory>,
    /// Share of URLs served from outside the country, in percent (§6),
    /// when geolocation validated at least one address.
    pub offshore_percent: Option<f64>,
}

/// One provider's footprint in one simulated year.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderYear {
    /// WHOIS organization name.
    pub org: String,
    /// Governments with at least one URL on this AS.
    pub countries: usize,
}

/// The measured state of the world in one simulated year.
#[derive(Debug, Clone, PartialEq)]
pub struct YearMetrics {
    /// Simulated year (0 = the freshly generated world).
    pub year: u32,
    /// Countries the year's tick re-pointed (empty for year 0).
    pub dirty: Vec<CountryCode>,
    /// Per-country metrics, keyed and ordered by country code.
    pub countries: BTreeMap<CountryCode, CountryYear>,
    /// Global-provider footprints, keyed by AS number.
    pub providers: BTreeMap<u32, ProviderYear>,
    /// Mean URL-HHI across all measured countries.
    pub mean_hhi_urls: f64,
    /// Mean byte-HHI across all measured countries.
    pub mean_hhi_bytes: f64,
    /// Countries whose dominant byte source is Govt&SOE.
    pub state_led: usize,
    /// Country-averaged third-party URL share (Fig. 2 lens).
    pub third_party_urls: f64,
}

impl YearMetrics {
    /// Measure one already-built dataset as the state of `year`.
    pub fn measure(
        year: u32,
        dirty: &BTreeSet<CountryCode>,
        dataset: &GovDataset,
    ) -> YearMetrics {
        let hosting = HostingAnalysis::compute(dataset);
        let location = LocationAnalysis::compute(dataset);
        let providers = ProviderAnalysis::compute(dataset);
        let diversification = DiversificationAnalysis::compute(dataset, &hosting);
        let mut countries = BTreeMap::new();
        for code in dataset.countries() {
            let Some(stats) = dataset.country_stats(code) else { continue };
            let concentration = diversification.per_country.get(&code);
            countries.insert(
                code,
                CountryYear {
                    urls: stats.urls,
                    bytes: stats.bytes,
                    hostnames: stats.hostnames,
                    hhi_urls: concentration.map_or(0.0, |c| c.hhi_urls),
                    hhi_bytes: concentration.map_or(0.0, |c| c.hhi_bytes),
                    dominant: concentration.map(|c| c.dominant),
                    offshore_percent: location.offshore_percent(code),
                },
            );
        }
        let provider_years: BTreeMap<u32, ProviderYear> = providers
            .providers
            .iter()
            .map(|p| {
                (p.asn.value(), ProviderYear { org: p.org.clone(), countries: p.countries.len() })
            })
            .collect();
        // Means fold in BTreeMap (country) order, so the float summation
        // order — and therefore the last ULP — is deterministic.
        let n = countries.len().max(1) as f64;
        let mean_hhi_urls = countries.values().map(|c| c.hhi_urls).sum::<f64>() / n;
        let mean_hhi_bytes = countries.values().map(|c| c.hhi_bytes).sum::<f64>() / n;
        let state_led = countries
            .values()
            .filter(|c| c.dominant == Some(ProviderCategory::GovtSoe))
            .count();
        YearMetrics {
            year,
            dirty: dirty.iter().copied().collect(),
            countries,
            providers: provider_years,
            mean_hhi_urls,
            mean_hhi_bytes,
            state_led,
            third_party_urls: hosting.global_country_mean().third_party_urls(),
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
    /// Countries the tick re-pointed.
    pub dirty: Vec<CountryCode>,
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

/// Why an [`evolve`] run could not complete.
#[derive(Debug)]
pub enum EvolveError {
    /// A yearly (re)build failed.
    Build(BuildError),
    /// The `GOVHOST_TICKS` roster named a system that does not exist.
    Ticks(UnknownTickError),
}

impl std::fmt::Display for EvolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvolveError::Build(e) => write!(f, "{e}"),
            EvolveError::Ticks(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvolveError {}

impl From<BuildError> for EvolveError {
    fn from(e: BuildError) -> Self {
        EvolveError::Build(e)
    }
}

impl From<UnknownTickError> for EvolveError {
    fn from(e: UnknownTickError) -> Self {
        EvolveError::Ticks(e)
    }
}

/// Evolve `world` through `years` ticks with the standard systems
/// (filtered by the `GOVHOST_TICKS` environment variable — see
/// [`govhost_worldgen::tick::systems_from_env`]), rebuilding and
/// measuring after each. A `GOVHOST_TICKS` value naming an unknown
/// system is a typed [`EvolveError::Ticks`], never a silently smaller
/// roster.
pub fn evolve(
    world: &mut World,
    years: u32,
    options: &BuildOptions,
) -> Result<EvolveOutcome, EvolveError> {
    let systems = tick::systems_from_env()?;
    Ok(evolve_with_systems(world, years, options, &systems)?)
}

/// [`evolve`] with an explicit system list.
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
        ticks.push(TickSummary {
            year,
            dirty: tick_report.dirty.into_iter().collect(),
            events: tick_report.events,
            rebuild,
        });
    }
    Ok(EvolveOutcome { timeline, dataset, report, ticks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_worldgen::GenParams;

    #[test]
    fn evolve_produces_one_snapshot_per_year() {
        let mut world = World::generate(&GenParams::tiny());
        let outcome =
            evolve(&mut world, 3, &BuildOptions::default()).expect("tiny world evolves");
        assert_eq!(outcome.timeline.years.len(), 4, "year 0 + 3 ticks");
        assert_eq!(outcome.ticks.len(), 3);
        for (i, year) in outcome.timeline.years.iter().enumerate() {
            assert_eq!(year.year, i as u32);
            assert!(!year.countries.is_empty());
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
        let outcome =
            evolve(&mut evolved_world, 1, &BuildOptions::default()).expect("evolves");
        assert_eq!(snap.years[0], outcome.timeline.years[0]);
    }

    #[test]
    fn ticks_move_the_metrics() {
        let mut world = World::generate(&GenParams::tiny());
        let outcome =
            evolve(&mut world, 4, &BuildOptions::default()).expect("tiny world evolves");
        let moved = outcome
            .timeline
            .years
            .windows(2)
            .any(|w| w[0].countries != w[1].countries || w[0].providers != w[1].providers);
        assert!(moved, "four ticks must visibly change at least one year's metrics");
    }
}
