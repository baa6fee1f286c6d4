#![deny(missing_docs)]
//! # govhost-worldgen
//!
//! The deterministic synthetic world generator. It embeds the paper's
//! *real* published data — Table 9 (country selection, indices, VPN
//! providers), Table 8 (per-country landing/internal URL and hostname
//! counts) — plus per-country hosting profiles reconstructed from every
//! number the paper quotes (Argentina ~90% third-party, Uruguay 98%
//! Govt&SOE bytes, Mexico serving 79% of URLs from the US, China 26% from
//! Japan, France 18% from New Caledonia, Cloudflare present in 49
//! countries, ...). Where the paper reports only regional aggregates, the
//! generator draws country-level values around those aggregates with
//! seeded dispersion.
//!
//! [`World::generate`] turns the profiles into a fully concrete simulated
//! Internet: AS registry and prefix allocations, servers (unicast and
//! anycast) with PTR records, WHOIS/PeeringDB/search surfaces, DNS zones
//! (with CDN-style CNAME chains and geo-routed answers), the web corpus of
//! government sites (and topsites for the 14 comparison countries), the
//! probe fleet, the imperfect geolocation database, and the MAnycast2
//! snapshot.
//!
//! The measurement pipeline in `govhost-core` then recovers the paper's
//! findings from these *observable surfaces only* — the ground truth kept
//! in [`truth::GroundTruth`] exists for test oracles and calibration
//! checks, never for the pipeline itself.

pub mod calibration;
pub mod countries;
pub mod generate;
pub mod params;
pub mod profiles;
pub mod providers;
pub mod shock;
pub mod tick;
pub mod truth;
pub mod world;

pub use calibration::{CalibrationCheck, CalibrationReport};
pub use countries::{CountryRow, COUNTRIES, HOST_ONLY_COUNTRIES};
pub use params::GenParams;
pub use profiles::{DominantCategory, HostingProfile, TldStyle};
pub use providers::{provider_by_asn, GlobalProvider, GLOBAL_PROVIDERS};
pub use shock::{DarkCause, DarkHost, ShockReport};
pub use tick::{
    default_systems, run_year, systems_from_env, systems_from_spec, TickOutcome, TickReport,
    TickSystem, UnknownTickError, TICKS_ENV,
};
pub use truth::GroundTruth;
pub use world::World;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::params::GenParams;
    pub use crate::world::World;
}
