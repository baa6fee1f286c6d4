#![deny(missing_docs)]
//! # govhost-scenario
//!
//! The counterfactual what-if engine. The paper measures the government
//! web as it *is*; this crate asks what the same measurements would say
//! if the world were shocked — a hyperscaler fails, a parliament forces
//! data localization, a probe moves — and answers at incremental-rebuild
//! cost instead of full-build cost.
//!
//! The pipeline has four layers, each usable alone:
//!
//! 1. **[`dsl`]** — a zero-dependency, line-oriented scenario language
//!    (`scenario`, `outage provider`, `onshore`, `vantage` directives)
//!    with typed, line-numbered errors; total over hostile input.
//! 2. **[`apply`]** — [`run_file`] generates the world and builds and
//!    measures the baseline once; each scenario then forks it (a world
//!    clone that copies only DNS and ground truth, plus a clone of the
//!    build cache), applies its shocks via [`govhost_worldgen::shock`]
//!    as one synthetic tick on the fork, and rebuilds it incrementally:
//!    the cache re-identifies only the hosts whose DNS reads the shocks
//!    changed. [`run_scenario`] is the same path for one scenario.
//! 3. **[`mod@diff`] / [`insight`]** — any two builds reduced to
//!    [`BuildMetrics`] and lined up row by row with winners and
//!    dead-banded ties; the insight engine ranks the movements into
//!    deterministic English sentences.
//! 4. **[`report`]** — per-country A-F report cards over three axes:
//!    concentration (baseline HHI), exposure (offshore share) and
//!    resilience (post-shock reachability).
//!
//! Everything downstream of the same `(params, scenario, options)` is
//! bit-identical at every thread count, which is what lets
//! `govhost-serve` pre-render scenario routes into byte-pinned slabs.

pub mod apply;
pub mod diff;
pub mod dsl;
pub mod insight;
pub mod report;

pub use apply::{resolve_provider, run_file, run_scenario, ApplyError, ScenarioRun};
pub use diff::{diff, BuildMetrics, CountryDiff, CountryMetrics, DiffReport, MetricRow, Winner};
pub use dsl::{parse, ParseError, ParseErrorKind, ProviderRef, Scenario, ScenarioFile, Shock};
pub use insight::{insights_for, Insight, InsightContext};
pub use report::{report_cards, Grade, ReportCard};
