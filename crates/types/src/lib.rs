#![deny(missing_docs)]
//! # govhost-types
//!
//! Shared vocabulary for the govhost workspace: country codes, World Bank
//! regions, autonomous-system numbers, IPv4 prefixes, hostnames with
//! public-suffix-aware registrable-domain extraction, URLs, hosting
//! categories, and development indices.
//!
//! Every other crate in the workspace builds on these types; they carry no
//! simulation or analysis logic of their own.

pub mod category;
pub mod country;
pub mod error;
pub mod hash;
pub mod host;
pub mod id;
pub mod indices;
pub mod ip;
pub mod pipeline;
pub mod region;
pub mod url;

pub use category::{OrgKind, ProviderCategory, TopsiteCategory};
pub use country::CountryCode;
pub use error::ParseError;
pub use host::Hostname;
pub use id::{HostId, HostInterner, UrlId};
pub use indices::CountryIndices;
pub use ip::{Asn, IpPrefix};
pub use pipeline::{PipelineError, PipelineStage};
pub use region::Region;
pub use url::Url;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::category::{OrgKind, ProviderCategory, TopsiteCategory};
    pub use crate::country::CountryCode;
    pub use crate::error::ParseError;
    pub use crate::host::Hostname;
    pub use crate::id::{HostId, HostInterner, UrlId};
    pub use crate::indices::CountryIndices;
    pub use crate::ip::{Asn, IpPrefix};
    pub use crate::pipeline::{PipelineError, PipelineStage};
    pub use crate::region::Region;
    pub use crate::url::Url;
}
