//! The batch workloads: `build` (`govhost dataset`), `evolve`
//! (`govhost evolve`) and `whatif` (`govhost scenario`).
//!
//! An untraced run times the production entry point. A traced run
//! spends the first half of its time on the same untraced ops (the
//! overhead baseline) and the second half on traced ops. For `evolve`
//! and `whatif` the traced op replays the entry point's sequence by
//! hand through the same public calls, and its outputs must equal the
//! entry point's.

use crate::stats::{fnv64, median, percentile};
use crate::trace::Tracer;
use crate::{report_trace, spans_path, Args, Outcome, BUILD_THREADS};
use govhost_core::evolve::{evolve_with_systems, Timeline, YearMetrics};
use govhost_core::{
    export_csv, BuildOptions, DiversificationAnalysis, FailurePolicy, GovDataset, HostingAnalysis,
    LocationAnalysis, ProviderAnalysis, StageTimings,
};
use govhost_geoloc::pipeline::PipelineConfig;
use govhost_scenario::{
    diff, insights_for, parse, report_cards, resolve_provider, run_file, BuildMetrics, Insight,
    InsightContext, ReportCard, Scenario, ScenarioFile, ScenarioRun, Shock,
};
use govhost_types::CountryCode;
use govhost_web::Crawler;
use govhost_worldgen::shock::{self, DarkCause, DarkHost, ShockReport};
use govhost_worldgen::tick::{default_systems, run_year, TickSystem};
use govhost_worldgen::{GenParams, World};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// World scale of the `build` workload.
const BUILD_SCALE: f64 = 0.3;
/// World scale and simulated years of the `evolve` workload.
const EVOLVE_SCALE: f64 = 0.05;
const EVOLVE_YEARS: u32 = 10;
/// `govhost scenario`'s default scale, and the scenario file it replays.
const WHATIF_SCALE: f64 = 0.05;
const WHATIF_FILE: &str = "examples/what-if.scn";
/// The `whatif` set-up takes microseconds: each sample, one before
/// every op, is the mean of a batch of set-ups, and `setup_s` the
/// median sample.
const WHATIF_SETUP_BATCH: usize = 2_000;

pub fn gen_params(scale: f64, seed: u64) -> GenParams {
    GenParams {
        seed,
        scale,
        ..GenParams::default()
    }
}

/// Every build option spelled out, so no environment knob applies.
pub fn build_options() -> BuildOptions {
    BuildOptions {
        crawler: Crawler::default(),
        threads: BUILD_THREADS,
        geo: PipelineConfig::default(),
        policy: FailurePolicy::Abort,
    }
}

/// Digest and byte count of a dataset's CSV export.
pub fn export_digest(dataset: &GovDataset) -> (u64, usize) {
    let csv = export_csv(dataset);
    let bytes = csv.hosts.len() + csv.urls.len() + csv.meta.len();
    (
        fnv64([
            csv.hosts.as_bytes(),
            csv.urls.as_bytes(),
            csv.meta.as_bytes(),
        ]),
        bytes,
    )
}

/// Op times of one phase, and the end-to-end metrics they give.
#[derive(Debug, Default)]
struct OpTimes(Vec<f64>);

impl OpTimes {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.0.push(start.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The batch workloads run tens of ops, too few for a percentile
    /// with ten samples beyond it; their tail is the upper quartile,
    /// which a quarter of the ops lie beyond.
    fn publish(&self, out: &mut Outcome, setup_s: &[f64]) {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        out.set("setup_s", median(setup_s));
        out.set("op_ms", self.median());
        out.set("tail_ms", percentile(&sorted, 0.75));
        out.set("ops_per_s", 1e3 / self.median());
        let ops: Vec<String> = self.0.iter().map(|ms| format!("{ms:.1}")).collect();
        out.note(format!(
            "op_ms is the median and tail_ms the p75 of {} ops [{}]; setup_s the median of {} set-ups",
            sorted.len(),
            ops.join(" "),
            setup_s.len()
        ));
    }
}

/// Run `op` until `seconds` have passed, at least once.
fn for_seconds(seconds: f64, mut op: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        op()?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// The untraced share of a run: all of it, or half of a traced run.
fn untraced_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

fn finish_trace(
    out: &mut Outcome,
    tracer: &Tracer,
    args: &Args,
    untraced: &OpTimes,
    traced: &OpTimes,
) {
    report_trace(out, tracer, untraced.median(), traced.median());
    let path = spans_path(args.workload);
    match tracer.write_csv(&path, |_| true) {
        Ok(written) => out.note(format!("spans: {} ({written} spans)", path.display())),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// `govhost dataset`: one op is one `GovDataset::try_build` of a
/// scale-0.3 world at two threads.
pub fn build(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let params = gen_params(BUILD_SCALE, args.seed);
    let options = build_options();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, origin);
    let mut setup_s = Vec::new();
    let mut first: Option<(u64, usize)> = None;
    let mut timings: Vec<StageTimings> = Vec::new();
    // Set-up runs before every op, timed apart from it, so its samples
    // spread over the run as the ops do.
    let mut op =
        |tracer: &mut Tracer, setup_s: &mut Vec<f64>, times: &mut OpTimes, out: &mut Outcome| {
            out.attempted += 1;
            let start = Instant::now();
            let world = tracer.span("worldgen.generate", |_| World::generate(&params));
            setup_s.push(start.elapsed().as_secs_f64());
            let built = times.time(|| {
                tracer.span("op", |t| {
                    t.span("dataset.try_build", |_| {
                        GovDataset::try_build(&world, &options)
                    })
                })
            });
            let (dataset, _report) = built.map_err(|e| e.to_string())?;
            let digest = tracer.span("export.csv", |_| export_digest(&dataset));
            if *first.get_or_insert(digest) != digest {
                out.failed += 1;
            }
            if tracer.enabled() {
                timings.push(dataset.timings);
            }
            Ok(digest)
        };
    let mut untraced = OpTimes::default();
    let mut digest = (0, 0);
    for_seconds(untraced_seconds(args), || {
        digest = op(&mut tracer, &mut setup_s, &mut untraced, &mut out)?;
        Ok(())
    })?;
    let (digest, bytes) = digest;
    out.note(format!(
        "build: export digest {digest:016x}, {bytes} bytes, identical across ops"
    ));
    if !args.trace {
        untraced.publish(&mut out, &setup_s);
        return Ok(out);
    }

    tracer.set_enabled(true);
    let mut traced = OpTimes::default();
    for_seconds(args.seconds / 2.0, || {
        op(&mut tracer, &mut setup_s, &mut traced, &mut out).map(drop)
    })?;
    out.set(
        "worldgen.generate_ms",
        median(&tracer.durations_ms("worldgen.generate")),
    );
    let stage_ms = |pick: fn(&StageTimings) -> u64| -> f64 {
        median(
            &timings
                .iter()
                .map(|t| pick(t) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    out.set("dataset.crawl_ms", stage_ms(|t| t.crawl.nanos));
    out.set("dataset.classify_ms", stage_ms(|t| t.classify.nanos));
    out.set("dataset.identify_ms", stage_ms(|t| t.identify.nanos));
    out.set("dataset.geolocate_ms", stage_ms(|t| t.geolocate.nanos));
    out.set("dataset.analyze_ms", stage_ms(|t| t.analyze.nanos));
    let last = timings.last().expect("a traced op ran");
    out.set("dataset.pages", last.crawl.items as f64);
    out.set("dataset.urls_examined", last.classify.items as f64);
    out.set("dataset.hosts", last.identify.items as f64);
    out.set("dataset.geo_tasks", last.geolocate.items as f64);
    let parallelism: Vec<f64> = timings
        .iter()
        .map(|t| {
            t.stages().iter().map(|(_, s)| s.nanos).sum::<u64>() as f64
                / t.build_nanos.max(1) as f64
        })
        .collect();
    out.set("dataset.parallelism", median(&parallelism));
    out.set("export.csv_ms", median(&tracer.durations_ms("export.csv")));
    out.set("export.bytes", bytes as f64);
    out.note(format!(
        "stage busy ms summed over {BUILD_THREADS} threads (median op): crawl {:.1}, classify {:.1}, identify {:.1}, geolocate {:.1}, analyze {:.1}; build wall {:.1}",
        stage_ms(|t| t.crawl.nanos),
        stage_ms(|t| t.classify.nanos),
        stage_ms(|t| t.identify.nanos),
        stage_ms(|t| t.geolocate.nanos),
        stage_ms(|t| t.analyze.nanos),
        stage_ms(|t| t.build_nanos),
    ));
    finish_trace(&mut out, &tracer, args, &untraced, &traced);
    Ok(out)
}

/// Per-op counts of the incremental path, gathered by the replays.
#[derive(Debug, Default, Clone, Copy)]
struct RebuildCounts {
    dirty: usize,
    recomputed: usize,
    replayed: usize,
}

/// How many of `dirty` a rebuild recomputes and how many cached
/// countries it replays, as seen from the cache before the rebuild.
fn split_rebuild(cached: &[CountryCode], dirty: &BTreeSet<CountryCode>) -> (usize, usize) {
    let recomputed = cached.iter().filter(|c| dirty.contains(c)).count();
    (recomputed, cached.len() - recomputed)
}

/// `evolve_with_systems` replayed call by call, with a span per call.
fn replay_evolve(
    t: &mut Tracer,
    world: &mut World,
    options: &BuildOptions,
    systems: &[Box<dyn TickSystem>],
    counts: &mut RebuildCounts,
) -> Result<(Timeline, GovDataset), String> {
    let (mut dataset, _report, mut cache) = t
        .span("dataset.build_cached", |_| {
            GovDataset::build_cached(world, options)
        })
        .map_err(|e| e.to_string())?;
    let mut years = vec![t.span("evolve.measure", |_| {
        YearMetrics::measure(0, &BTreeSet::new(), &dataset)
    })];
    for year in 1..=EVOLVE_YEARS {
        let tick = t.span("tick.run", |_| run_year(world, year, systems));
        let (recomputed, replayed) = split_rebuild(&cache.countries(), &tick.dirty);
        counts.dirty += tick.dirty.len();
        counts.recomputed += recomputed;
        counts.replayed += replayed;
        let (rebuilt, _report) = t
            .span("dataset.rebuild", |_| {
                GovDataset::rebuild_incremental(world, options, &mut cache, &tick.dirty)
            })
            .map_err(|e| e.to_string())?;
        dataset = rebuilt;
        years.push(t.span("evolve.measure", |_| {
            YearMetrics::measure(year, &tick.dirty, &dataset)
        }));
    }
    Ok((Timeline { years }, dataset))
}

/// `govhost evolve --years 10 --scale 0.05`: one op is one
/// `evolve_with_systems` over a freshly generated world; generating it
/// is set-up, timed apart from the op.
pub fn evolve(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let params = gen_params(EVOLVE_SCALE, args.seed);
    let options = build_options();
    let systems = default_systems();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, origin);
    let mut setup_s = Vec::new();
    let mut reference: Option<Timeline> = None;

    // Incremental ≡ full: the evolved dataset exports the same bytes as
    // a from-scratch build of the evolved world.
    let full_matches = |world: &World, dataset: &GovDataset| -> Result<bool, String> {
        let (full, _) = GovDataset::try_build(world, &options).map_err(|e| e.to_string())?;
        Ok(export_digest(&full) == export_digest(dataset))
    };

    let mut untraced = OpTimes::default();
    for_seconds(untraced_seconds(args), || {
        out.attempted += 1;
        let start = Instant::now();
        let mut world = World::generate(&params);
        setup_s.push(start.elapsed().as_secs_f64());
        let outcome = untraced
            .time(|| evolve_with_systems(&mut world, EVOLVE_YEARS, &options, &systems))
            .map_err(|e| e.to_string())?;
        let same = reference.get_or_insert_with(|| outcome.timeline.clone()) == &outcome.timeline;
        if !(same && full_matches(&world, &outcome.dataset)?) {
            out.failed += 1;
        }
        Ok(())
    })?;
    let reference = reference.expect("at least one op ran");
    let dirty: usize = reference.years.iter().map(|y| y.dirty.len()).sum();
    out.note(format!(
        "evolve: {} years, {dirty} dirty country-years, timeline identical across ops, incremental ≡ full checked per op",
        EVOLVE_YEARS
    ));
    if !args.trace {
        untraced.publish(&mut out, &setup_s);
        return Ok(out);
    }

    tracer.set_enabled(true);
    let mut traced = OpTimes::default();
    let mut counts = Vec::new();
    for_seconds(args.seconds / 2.0, || {
        out.attempted += 1;
        let mut world = tracer.span("worldgen.generate", |_| World::generate(&params));
        let mut c = RebuildCounts::default();
        let (timeline, dataset) = traced.time(|| {
            tracer.span("op", |t| {
                replay_evolve(t, &mut world, &options, &systems, &mut c)
            })
        })?;
        counts.push(c);
        // Each analysis of YearMetrics::measure, timed on its own on
        // the final year's dataset (outside the op).
        let hosting = tracer.span("analysis.hosting", |_| HostingAnalysis::compute(&dataset));
        tracer.span("analysis.location", |_| LocationAnalysis::compute(&dataset));
        tracer.span("analysis.providers", |_| {
            ProviderAnalysis::compute(&dataset)
        });
        tracer.span("analysis.diversification", |_| {
            DiversificationAnalysis::compute(&dataset, &hosting)
        });
        if !(timeline == reference && full_matches(&world, &dataset)?) {
            out.failed += 1;
            out.check(false, || {
                "evolve replay differs from evolve_with_systems".to_string()
            });
        }
        Ok(())
    })?;
    out.set(
        "worldgen.generate_ms",
        median(&tracer.durations_ms("worldgen.generate")),
    );
    let per_op = |name: &str| median(&tracer.per_root_ms("op", name));
    out.set("tick.run_ms", per_op("tick.run"));
    out.set("dataset.rebuild_ms", per_op("dataset.rebuild"));
    out.set("evolve.measure_ms", per_op("evolve.measure"));
    for (metric, span) in [
        ("analysis.hosting_ms", "analysis.hosting"),
        ("analysis.location_ms", "analysis.location"),
        ("analysis.providers_ms", "analysis.providers"),
        ("analysis.diversification_ms", "analysis.diversification"),
    ] {
        out.set(metric, median(&tracer.durations_ms(span)));
    }
    let c = counts.last().copied().unwrap_or_default();
    out.set("tick.dirty_countries", c.dirty as f64);
    out.set("dataset.recomputed_countries", c.recomputed as f64);
    out.set("dataset.replayed_countries", c.replayed as f64);
    out.note(format!(
        "per op: initial build_cached {:.1} ms, then {} ticks; the analysis.* rows are single computes on the final dataset",
        per_op("dataset.build_cached"),
        EVOLVE_YEARS
    ));
    finish_trace(&mut out, &tracer, args, &untraced, &traced);
    Ok(out)
}

/// Everything a scenario run must reproduce across ops and replays.
#[derive(Debug, Clone, PartialEq)]
struct ScenarioSummary {
    name: String,
    dirty: Vec<CountryCode>,
    darkened: usize,
    has_outage: bool,
    baseline: BuildMetrics,
    shocked: BuildMetrics,
    ns_only_percent: BTreeMap<CountryCode, f64>,
    insights: Vec<Insight>,
    cards: Vec<ReportCard>,
}

fn summarize(
    run: ScenarioRun,
    scenario: &Scenario,
    insights: Vec<Insight>,
    cards: Vec<ReportCard>,
) -> ScenarioSummary {
    ScenarioSummary {
        name: run.name,
        dirty: run.dirty,
        darkened: run.darkened.len(),
        has_outage: scenario
            .shocks
            .iter()
            .any(|s| matches!(s, Shock::Outage(_))),
        baseline: run.baseline_metrics,
        shocked: run.shocked_metrics,
        ns_only_percent: run.ns_only_percent,
        insights,
        cards,
    }
}

/// The share of each country's URLs dark only through the shared-NS
/// cascade: `run_scenario`'s join, repeated from the public datasets.
fn ns_only_share(shocked: &GovDataset, darkened: &[DarkHost]) -> BTreeMap<CountryCode, f64> {
    let ns_only: BTreeSet<&str> = darkened
        .iter()
        .filter(|d| d.cause == DarkCause::NsOnly)
        .map(|d| d.host.as_str())
        .collect();
    let mut hit: BTreeMap<CountryCode, u64> = BTreeMap::new();
    let mut total: BTreeMap<CountryCode, u64> = BTreeMap::new();
    for (_url, host) in shocked.url_views() {
        *total.entry(host.country).or_default() += 1;
        if ns_only.contains(host.hostname.as_str()) {
            *hit.entry(host.country).or_default() += 1;
        }
    }
    total
        .into_iter()
        .map(|(cc, n)| {
            let dark = *hit.get(&cc).unwrap_or(&0);
            (
                cc,
                if n == 0 {
                    0.0
                } else {
                    dark as f64 / n as f64 * 100.0
                },
            )
        })
        .collect()
}

/// `run_scenario` replayed call by call, with a span per call.
fn replay_scenario(
    t: &mut Tracer,
    params: &GenParams,
    scenario: &Scenario,
    options: &BuildOptions,
    counts: &mut RebuildCounts,
    darkened_hosts: &mut usize,
) -> Result<ScenarioSummary, String> {
    let mut providers = Vec::new();
    for s in &scenario.shocks {
        if let Shock::Outage(r) = s {
            providers.push(resolve_provider(r).map_err(|e| e.to_string())?);
        }
    }
    let outages: Vec<(u32, String)> = providers
        .iter()
        .map(|p| (p.asn, p.org.to_string()))
        .collect();
    let (mut world, baseline, mut cache) = t
        .span("scenario.baseline", |t| {
            let world = t.span("worldgen.generate", |_| World::generate(params));
            let built = t.span("dataset.build_cached", |_| {
                GovDataset::build_cached(&world, options)
            });
            built.map(|(baseline, _report, cache)| (world, baseline, cache))
        })
        .map_err(|e| e.to_string())?;
    let mut combined = ShockReport::default();
    let mut providers = providers.into_iter();
    for s in &scenario.shocks {
        let report = t.span("shock.apply", |_| match s {
            Shock::Outage(_) => {
                let p = providers.next().expect("one resolved provider per outage");
                shock::provider_outage(&mut world, p)
            }
            Shock::Onshore(target) => shock::onshore(&mut world, *target),
            Shock::Vantage(key) => shock::vantage_shift(&mut world, key),
        });
        combined.absorb(report);
    }
    let (recomputed, replayed) = split_rebuild(&cache.countries(), &combined.dirty);
    counts.dirty += combined.dirty.len();
    counts.recomputed += recomputed;
    counts.replayed += replayed;
    *darkened_hosts += combined.darkened.len();
    let (shocked, _report) = t
        .span("dataset.rebuild", |_| {
            GovDataset::rebuild_incremental(&world, options, &mut cache, &combined.dirty)
        })
        .map_err(|e| e.to_string())?;
    let (baseline_metrics, shocked_metrics, ns_only_percent) = t.span("scenario.measure", |_| {
        (
            BuildMetrics::measure(&baseline),
            BuildMetrics::measure(&shocked),
            ns_only_share(&shocked, &combined.darkened),
        )
    });
    let run = ScenarioRun {
        name: scenario.name.clone(),
        events: combined.events,
        dirty: combined.dirty.into_iter().collect(),
        darkened: combined.darkened,
        outages: outages.clone(),
        baseline,
        shocked,
        baseline_metrics,
        shocked_metrics,
        ns_only_percent,
    };
    let (insights, cards) = t.span("scenario.report", |_| {
        let ctx = InsightContext {
            outages,
            ns_only_percent: run.ns_only_percent.clone(),
        };
        let insights = insights_for(&diff(&run.baseline_metrics, &run.shocked_metrics), &ctx);
        (insights, report_cards(&run))
    });
    Ok(summarize(run, scenario, insights, cards))
}

/// `govhost scenario examples/what-if.scn` at scale 0.05: one op is
/// one `run_file` over the file's scenarios plus `insights()` and
/// `report_cards` for each run. Set-up reads and parses the file.
pub fn whatif(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let params = gen_params(WHATIF_SCALE, args.seed);
    let options = build_options();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, origin);
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| -> Result<ScenarioFile, String> {
        let start = Instant::now();
        let mut file = None;
        for _ in 0..WHATIF_SETUP_BATCH {
            let text =
                std::fs::read_to_string(WHATIF_FILE).map_err(|e| format!("{WHATIF_FILE}: {e}"))?;
            file = Some(parse(&text).map_err(|e| format!("{WHATIF_FILE}: {e}"))?);
        }
        setup_s.push(start.elapsed().as_secs_f64() / WHATIF_SETUP_BATCH as f64);
        Ok(file.expect("the batch is not empty"))
    };

    // Set-up runs before every untraced op, timed apart from it, so its
    // samples spread over the run as the ops do.
    let mut file: Option<ScenarioFile> = None;
    let mut reference: Option<Vec<ScenarioSummary>> = None;
    let mut untraced = OpTimes::default();
    for_seconds(untraced_seconds(args), || {
        let file = file.insert(set_up(&mut setup_s)?);
        out.attempted += 1;
        let summaries = untraced.time(|| -> Result<Vec<ScenarioSummary>, String> {
            let runs = run_file(&params, file, &options).map_err(|e| e.to_string())?;
            Ok(runs
                .into_iter()
                .zip(&file.scenarios)
                .map(|(run, scenario)| {
                    let insights = run.insights();
                    let cards = report_cards(&run);
                    summarize(run, scenario, insights, cards)
                })
                .collect())
        })?;
        let darkens = summaries.iter().all(|s| !s.has_outage || s.darkened > 0);
        let same = reference.get_or_insert_with(|| summaries.clone()) == &summaries;
        if !(darkens && same) {
            out.failed += 1;
        }
        Ok(())
    })?;
    let file = file.expect("at least one op ran");
    let reference = reference.expect("at least one op ran");
    for s in &reference {
        out.note(format!(
            "scenario {}: {} dirty countries, {} darkened hosts, {} insights, {} report cards",
            s.name,
            s.dirty.len(),
            s.darkened,
            s.insights.len(),
            s.cards.len()
        ));
    }
    if !args.trace {
        untraced.publish(&mut out, &setup_s);
        return Ok(out);
    }

    tracer.set_enabled(true);
    let mut traced = OpTimes::default();
    let mut counts = Vec::new();
    let mut darkened = Vec::new();
    for_seconds(args.seconds / 2.0, || {
        out.attempted += 1;
        let mut c = RebuildCounts::default();
        let mut dark = 0usize;
        let summaries = traced.time(|| {
            tracer.span("op", |t| {
                file.scenarios
                    .iter()
                    .map(|s| replay_scenario(t, &params, s, &options, &mut c, &mut dark))
                    .collect::<Result<Vec<_>, String>>()
            })
        })?;
        counts.push(c);
        darkened.push(dark);
        if summaries != reference {
            out.failed += 1;
            out.check(false, || {
                "scenario replay differs from run_file".to_string()
            });
        }
        Ok(())
    })?;
    let per_op = |name: &str| median(&tracer.per_root_ms("op", name));
    out.set(
        "worldgen.generate_ms",
        median(&tracer.durations_ms("worldgen.generate")),
    );
    out.set("scenario.baseline_ms", per_op("scenario.baseline"));
    out.set("shock.apply_ms", per_op("shock.apply"));
    out.set("dataset.rebuild_ms", per_op("dataset.rebuild"));
    out.set("scenario.measure_ms", per_op("scenario.measure"));
    out.set("scenario.report_ms", per_op("scenario.report"));
    let c = counts.last().copied().unwrap_or_default();
    out.set("shock.dirty_countries", c.dirty as f64);
    out.set("dataset.recomputed_countries", c.recomputed as f64);
    out.set("dataset.replayed_countries", c.replayed as f64);
    out.set(
        "shock.darkened_hosts",
        darkened.last().copied().unwrap_or_default() as f64,
    );
    finish_trace(&mut out, &tracer, args, &untraced, &traced);
    Ok(out)
}
