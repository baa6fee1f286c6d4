//! Scenario application: a parsed scenario run against a generated
//! world as one synthetic tick.
//!
//! Every scenario in a file shocks the same *baseline*, so
//! [`run_file`] pays for it once: it generates the [`World`], builds
//! the baseline dataset with [`GovDataset::build_cached`] and reduces it
//! to [`BuildMetrics`]. Each scenario then forks the baseline — a clone
//! of the world, which copies only DNS and ground truth and shares every
//! other surface, plus clones of the dataset and the [`BuildCache`],
//! whose per-country crawl results are shared, so the cache clone copies
//! pointers and the §3.4 identification halves — applies its shocks to the fork in file order through
//! [`govhost_worldgen::shock`], and rebuilds the fork with
//! [`GovDataset::rebuild_incremental`], which re-identifies exactly the
//! hosts whose DNS reads the shocks changed: the what-if answer arrives
//! at incremental cost, not full-build cost. Shocks
//! rewrite DNS only, and a fork shares its parent's corpus and search
//! index, so that rebuild re-runs §3.4 identify and crawls nothing. The baseline
//! itself is never shocked. Only the shocked dataset is measured per
//! scenario. [`run_scenario`] is the one-scenario case of the same
//! path.
//!
//! Everything downstream of the same `(params, scenario, options)` is
//! bit-identical at every thread count, and a scenario's run is the
//! same whether it came from [`run_file`] or [`run_scenario`] — the
//! properties the root `tests/scenario.rs` suite pins.

use crate::diff::{diff, BuildMetrics, DiffReport};
use crate::dsl::{ProviderRef, Scenario, ScenarioFile, Shock};
use crate::insight::{insights_for, Insight, InsightContext};
use govhost_core::dataset::{BuildCache, BuildError, BuildOptions, GovDataset, HostVolume};
use govhost_types::CountryCode;
use govhost_worldgen::shock::{self, DarkCause, DarkHost, ShockReport};
use govhost_worldgen::{provider_by_asn, GenParams, GlobalProvider, World, GLOBAL_PROVIDERS};
use std::collections::BTreeMap;

/// Why a scenario could not be applied.
#[derive(Debug)]
pub enum ApplyError {
    /// An `outage` named a provider outside the Fig. 10 roster.
    UnknownProvider(ProviderRef),
    /// The baseline build or the shocked rebuild failed.
    Build(BuildError),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::UnknownProvider(r) => {
                write!(f, "unknown provider {r} (not in the global-provider roster)")
            }
            ApplyError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<BuildError> for ApplyError {
    fn from(e: BuildError) -> Self {
        ApplyError::Build(e)
    }
}

/// Resolve a DSL provider reference against the Fig. 10 roster.
pub fn resolve_provider(r: &ProviderRef) -> Result<&'static GlobalProvider, ApplyError> {
    let found = match r {
        ProviderRef::Asn(asn) => provider_by_asn(*asn),
        ProviderRef::Org(text) => GLOBAL_PROVIDERS.iter().find(|p| {
            p.name.eq_ignore_ascii_case(text) || p.org.eq_ignore_ascii_case(text)
        }),
    };
    found.ok_or_else(|| ApplyError::UnknownProvider(r.clone()))
}

/// One scenario, fully evaluated.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The scenario's name.
    pub name: String,
    /// Every shock's event log, in application order.
    pub events: Vec<String>,
    /// Countries the shocks touched, sorted.
    pub dirty: Vec<CountryCode>,
    /// Hosts darkened by outage shocks.
    pub darkened: Vec<DarkHost>,
    /// Providers taken down, as `(asn, org)` pairs in shock order.
    pub outages: Vec<(u32, String)>,
    /// The unshocked dataset.
    pub baseline: GovDataset,
    /// The dataset after all shocks.
    pub shocked: GovDataset,
    /// The baseline, reduced to comparable metrics.
    pub baseline_metrics: BuildMetrics,
    /// The shocked build, reduced to comparable metrics.
    pub shocked_metrics: BuildMetrics,
    /// Per-country share of URLs dark *only* through the shared-NS
    /// cascade (hosted on a healthy network, unreachable because every
    /// authoritative NS died with the provider), in percent.
    pub ns_only_percent: BTreeMap<CountryCode, f64>,
}

impl ScenarioRun {
    /// Baseline vs shocked, lined up.
    pub fn diff(&self) -> DiffReport {
        diff(&self.baseline_metrics, &self.shocked_metrics)
    }

    /// Ranked, deterministic findings about what the scenario changed.
    pub fn insights(&self) -> Vec<Insight> {
        let ctx = InsightContext {
            outages: self.outages.clone(),
            ns_only_percent: self.ns_only_percent.clone(),
        };
        insights_for(&self.diff(), &ctx)
    }
}

/// Resolve every `outage` of a scenario, in shock order.
fn resolve_outages(scenario: &Scenario) -> Result<Vec<&'static GlobalProvider>, ApplyError> {
    scenario
        .shocks
        .iter()
        .filter_map(|s| match s {
            Shock::Outage(r) => Some(resolve_provider(r)),
            _ => None,
        })
        .collect()
}

/// The unshocked side of every scenario in a file: the world, its
/// dataset and build cache, and the dataset's metrics. Scenarios fork
/// it in [`apply`] and never write it.
struct Baseline {
    world: World,
    dataset: GovDataset,
    cache: BuildCache,
    metrics: BuildMetrics,
}

impl Baseline {
    fn build(params: &GenParams, options: &BuildOptions) -> Result<Self, ApplyError> {
        let world = World::generate(params);
        let (dataset, _report, cache) = GovDataset::build_cached(&world, options)?;
        let metrics = BuildMetrics::measure(&dataset);
        Ok(Baseline { world, dataset, cache, metrics })
    }
}

/// Fork the baseline, shock the fork with one scenario whose outages
/// are already resolved, rebuild it incrementally, and measure the
/// result.
fn apply(
    options: &BuildOptions,
    base: &Baseline,
    scenario: &Scenario,
    providers: Vec<&'static GlobalProvider>,
) -> Result<ScenarioRun, ApplyError> {
    let outages: Vec<(u32, String)> =
        providers.iter().map(|p| (p.asn, p.org.to_string())).collect();
    // The fork lives only until its rebuild, so the measurement below
    // and the baseline copy in the run never hold it.
    let (shocked, combined) = {
        let mut world = base.world.clone();
        let mut combined = ShockReport::default();
        let mut providers = providers.into_iter();
        for s in &scenario.shocks {
            let report = match s {
                Shock::Outage(_) => {
                    let p = providers.next().expect("one resolved provider per outage");
                    shock::provider_outage(&mut world, p)
                }
                Shock::Onshore(target) => shock::onshore(&mut world, *target),
                Shock::Vantage(key) => shock::vantage_shift(&mut world, key),
            };
            combined.absorb(report);
        }
        let mut cache = base.cache.clone();
        let (shocked, _report) =
            GovDataset::rebuild_incremental(&world, options, &mut cache, &combined.dirty)?;
        (shocked, combined)
    };
    let shocked_metrics = BuildMetrics::measure(&shocked);
    let ns_only_percent = ns_only_share(&shocked, &combined.darkened);
    Ok(ScenarioRun {
        name: scenario.name.clone(),
        events: combined.events,
        dirty: combined.dirty.into_iter().collect(),
        outages,
        darkened: combined.darkened,
        baseline: base.dataset.clone(),
        shocked,
        baseline_metrics: base.metrics.clone(),
        shocked_metrics,
        ns_only_percent,
    })
}

/// Evaluate one scenario against a fresh world generated from `params`.
pub fn run_scenario(
    params: &GenParams,
    scenario: &Scenario,
    options: &BuildOptions,
) -> Result<ScenarioRun, ApplyError> {
    // Resolve every provider reference *before* paying for worldgen, so
    // a typo'd org name fails in microseconds.
    let providers = resolve_outages(scenario)?;
    apply(options, &Baseline::build(params, options)?, scenario, providers)
}

/// Evaluate every scenario in a file, in declaration order, against one
/// shared baseline.
pub fn run_file(
    params: &GenParams,
    file: &ScenarioFile,
    options: &BuildOptions,
) -> Result<Vec<ScenarioRun>, ApplyError> {
    // Every scenario's providers resolve before any worldgen, so a typo
    // in the last scenario fails as fast as one in the first.
    let resolved =
        file.scenarios.iter().map(resolve_outages).collect::<Result<Vec<_>, _>>()?;
    if resolved.is_empty() {
        return Ok(Vec::new());
    }
    let base = Baseline::build(params, options)?;
    file.scenarios
        .iter()
        .zip(resolved)
        .map(|(scenario, providers)| apply(options, &base, scenario, providers))
        .collect()
}

/// Per-country percentage of URLs whose host went dark *only* through
/// the shared-NS cascade.
fn ns_only_share(
    shocked: &GovDataset,
    darkened: &[DarkHost],
) -> BTreeMap<CountryCode, f64> {
    let mut ns_only = vec![false; shocked.hosts.len()];
    for d in darkened.iter().filter(|d| d.cause == DarkCause::NsOnly) {
        if let Some(id) = shocked.host_id(&d.host) {
            ns_only[id.index()] = true;
        }
    }
    let mut hit: BTreeMap<CountryCode, u64> = BTreeMap::new();
    let mut total: BTreeMap<CountryCode, u64> = BTreeMap::new();
    for HostVolume { id, host, urls, .. } in shocked.host_volumes() {
        *total.entry(host.country).or_default() += urls;
        if ns_only[id.index()] {
            *hit.entry(host.country).or_default() += urls;
        }
    }
    total
        .into_iter()
        .map(|(cc, n)| {
            let dark = *hit.get(&cc).unwrap_or(&0);
            (cc, if n == 0 { 0.0 } else { dark as f64 / n as f64 * 100.0 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;

    #[test]
    fn unknown_provider_fails_before_worldgen() {
        let file = dsl::parse("scenario s\noutage provider Nonexistent Cloud Ltd\n").unwrap();
        let err = run_scenario(&GenParams::tiny(), &file.scenarios[0], &BuildOptions::default())
            .expect_err("unknown provider must fail");
        assert!(err.to_string().contains("Nonexistent Cloud Ltd"), "{err}");

        // A bad provider in the *last* scenario fails before the first
        // one is built: at scale 0.5, generating the world alone takes
        // over a second in a debug build, resolving microseconds.
        let file = dsl::parse(
            "scenario ok\noutage provider AS16509\n\nscenario bad\noutage provider AS99999\n",
        )
        .unwrap();
        let params = GenParams { scale: 0.5, ..GenParams::default() };
        let started = std::time::Instant::now();
        let err = run_file(&params, &file, &BuildOptions::default())
            .expect_err("unknown provider must fail");
        assert!(
            matches!(&err, ApplyError::UnknownProvider(ProviderRef::Asn(99999))),
            "{err}"
        );
        let elapsed = started.elapsed();
        assert!(elapsed < std::time::Duration::from_millis(500), "took {elapsed:?}");
    }

    #[test]
    fn provider_refs_resolve_by_asn_name_and_org() {
        for spec in ["AS13335", "13335", "Cloudflare", "cloudflare, inc."] {
            let file = dsl::parse(&format!("scenario s\noutage provider {spec}\n")).unwrap();
            let Shock::Outage(r) = &file.scenarios[0].shocks[0] else { unreachable!() };
            assert_eq!(resolve_provider(r).expect(spec).asn, 13335, "{spec}");
        }
    }
}
