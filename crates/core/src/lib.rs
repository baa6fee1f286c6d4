#![warn(missing_docs)]
//! # govhost-core
//!
//! The paper's measurement pipeline and every analysis in its evaluation:
//!
//! | Module | Paper section | Artifact |
//! |---|---|---|
//! | [`classify`] | §3.3 | government-URL identification (TLD / domain / SAN) |
//! | [`infra`] | §3.4 | serving-infrastructure identification, govt-AS classifier |
//! | [`dataset`] | §3, §4 | end-to-end dataset construction (Tables 3, 4, 8) |
//! | [`hosting`] | §5.1–5.2 | category shares (Figs. 1, 2, 4) |
//! | [`similarity`] | §5.3 | country clustering (Fig. 5) |
//! | [`location`] | §6.1–6.2 | domestic vs international (Figs. 6, 8) |
//! | [`crossborder`] | §6.3 | dependency flows, Table 5, GDPR, bilateral cases (Fig. 9) |
//! | [`providers`] | §7.1 | global-provider concentration (Fig. 10) |
//! | [`diversification`] | §7.2 | HHI analysis (Fig. 11) |
//! | [`topsites`] | App. D | governments-vs-topsites comparison (Figs. 3, 7) |
//! | [`explain`] | App. E | OLS explanatory model (Fig. 12, Table 7) |
//! | [`metrics`] | §5–§7 | one dataset reduced to headline numbers (evolve, what-if) |
//!
//! The pipeline consumes only the observable surfaces of the simulated
//! world (crawls, DNS, WHOIS, PeeringDB, search, probes) — never the
//! generator's ground truth.

pub mod affordability;
pub mod classify;
pub mod crossborder;
pub mod dataset;
pub mod diversification;
pub mod evolve;
pub mod explain;
pub mod export;
pub mod fold;
pub mod hosting;
pub mod infra;
pub mod location;
pub mod metrics;
pub mod providers;
pub mod similarity;
pub mod table;
pub mod topsites;

pub use affordability::AffordabilityAnalysis;
pub use classify::{ClassificationMethod, Classifier, SeedSets};
pub use crossborder::CrossBorderAnalysis;
pub use dataset::{
    BuildCache, BuildError, BuildOptions, BuildReport, FailurePolicy, GovDataset, HostRecord,
    QuarantineEntry, StageStat, StageTimings,
};
pub use diversification::DiversificationAnalysis;
pub use evolve::{evolve_with_systems, EvolveOutcome, TickSummary, Timeline, YearMetrics};
pub use explain::ExplanatoryModel;
pub use export::{export_csv, export_csv_full, import_csv, import_csv_full, DatasetCsv};
pub use hosting::{CategoryShares, HostingAnalysis};
pub use infra::{GovEvidence, InfraIdentifier};
pub use location::LocationAnalysis;
pub use metrics::{BuildMetrics, CountryMetrics, ProviderFootprint};
pub use providers::ProviderAnalysis;
pub use similarity::SimilarityAnalysis;
pub use table::{UrlInterner, UrlRef, UrlTable};
pub use topsites::TopsiteAnalysis;

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::crossborder::CrossBorderAnalysis;
    pub use crate::dataset::{
        BuildError, BuildOptions, BuildReport, FailurePolicy, GovDataset, StageTimings,
    };
    pub use crate::export::{export_csv, export_csv_full, import_csv, import_csv_full, DatasetCsv};
    pub use crate::diversification::DiversificationAnalysis;
    pub use crate::explain::ExplanatoryModel;
    pub use crate::hosting::{CategoryShares, HostingAnalysis};
    pub use crate::location::LocationAnalysis;
    pub use crate::providers::ProviderAnalysis;
    pub use crate::similarity::SimilarityAnalysis;
    pub use crate::topsites::TopsiteAnalysis;
}
