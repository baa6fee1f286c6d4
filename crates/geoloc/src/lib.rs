#![warn(missing_docs)]
//! # govhost-geoloc
//!
//! The paper's multistage server-geolocation methodology (§3.5), stage by
//! stage:
//!
//! 1. **Geolocation database** ([`geodb`]) — an IPInfo-like lookup with
//!    imperfect data (the world generator injects a configurable error
//!    rate, calibrated to Darwich et al.'s 89%-within-40km finding).
//! 2. **Anycast identification** ([`anycast`]) — a MAnycast2-style
//!    snapshot of which addresses are anycast, with false negatives.
//! 3. **Country-level verification** ([`probing`], [`thresholds`]) — five
//!    in-country probes × three pings, minimum latency compared against a
//!    per-country threshold derived from the road distance between the
//!    country's two furthest cities.
//! 4. **Unicast fallbacks** ([`hoiho`], [`ipmap`], [`mod@single_radius`]) —
//!    PTR-hostname hints à la CAIDA HOIHO, a RIPE-IPmap-style cache, and
//!    single-radius probing.
//!
//! [`pipeline`] wires the stages into the full §3.5 flow and produces both
//! per-IP verdicts and the aggregate validation statistics of Table 4.

pub mod anycast;
pub mod geodb;
pub mod hoiho;
pub mod ipmap;
pub mod pipeline;
pub mod probing;
pub mod single_radius;
pub mod thresholds;

pub use anycast::MAnycastSnapshot;
pub use geodb::{GeoDb, GeoEntry};
pub use hoiho::Hoiho;
pub use ipmap::IpMapCache;
pub use pipeline::{
    GeoMethod, GeoTask, GeoVerdict, GeolocationPipeline, PtrRead, ValidationStats,
};
pub use probing::ActiveProber;
pub use single_radius::single_radius;
pub use thresholds::CountryThresholds;
