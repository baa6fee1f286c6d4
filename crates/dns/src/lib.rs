#![warn(missing_docs)]
//! # govhost-dns
//!
//! A compact DNS implementation built for the measurement pipeline:
//!
//! - domain names with RFC 1035 length limits ([`name`]),
//! - resource records: A, AAAA, CNAME, NS, SOA, PTR, TXT ([`rr`]),
//! - full wire-format encoding and decoding with name compression
//!   ([`wire`]),
//! - authoritative zones with optionally *vantage-dependent* answers —
//!   split-horizon / CDN-style mapping where the A records returned depend
//!   on the querying country ([`zone`]),
//! - an authoritative server operating on wire bytes ([`server`]),
//! - a catalog resolver that finds the right zone, chases CNAME chains
//!   across zones, and reports the full chain ([`resolver`]) — the chain is
//!   what the topsites self-hosting heuristic (paper App. D) inspects,
//! - reverse-zone helpers (`in-addr.arpa`) for PTR lookups feeding the
//!   HOIHO geolocation stage ([`reverse`]).
//!
//! Resolution deliberately round-trips through encoded messages so the
//! wire-format code is exercised by every end-to-end experiment, not just
//! by its own unit tests.

pub mod name;
pub mod resolver;
pub mod reverse;
pub mod rr;
pub mod server;
pub mod wire;
pub mod zone;
pub mod zonefile;

pub use name::DnsName;
pub use resolver::{PtrLookup, ResolutionError, ResolutionRead, ResolvedAnswer, Resolver};
pub use reverse::reverse_name;
pub use rr::{RData, Record, RecordType};
pub use server::AuthoritativeServer;
pub use wire::{Message, Question, Rcode, WireError};
pub use zone::{RecordSet, Zone};
pub use zonefile::{parse_zone_file, to_zone_file, ZoneFileError};
