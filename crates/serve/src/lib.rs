#![deny(missing_docs)]
//! # govhost-serve
//!
//! The query-serving tier over a built [`GovDataset`]: an std-only
//! HTTP/1.1 server (zero dependencies, like the rest of the workspace)
//! that loads the dataset once, precomputes an immutable in-memory
//! [`QueryIndex`] from `govhost-core`'s analysis modules, and answers
//! JSON queries over it.
//!
//! ## Routes
//!
//! | Route | Body |
//! |---|---|
//! | `/healthz` | dataset dimensions + liveness |
//! | `/countries` | per-country crawl statistics (filter/sort/paginate) |
//! | `/country/{iso}` | one country: hosting mix, domestic split, concentration, outflows |
//! | `/country/{iso}/history` | one country's per-year timeline (window/paginate) |
//! | `/flows` | cross-border flows: full matrices, or filter/sort/paginate via parameters |
//! | `/providers` | provider footprints (Fig. 10; filter/sort/paginate) |
//! | `/providers/{name}/history` | one provider's per-year footprint, by AS number or org name |
//! | `/hhi` | per-country provider concentration |
//! | `/hhi/history` | the global concentration series across simulated years |
//! | `/scenario/{name}` | one what-if scenario: per-country report cards + ranked insights |
//! | `/scenario/{name}/diff` | the scenario's baseline-vs-shocked metric diff |
//! | `/metrics` | text exposition of the `govhost-obs` registry |
//!
//! `GET` and `HEAD` are served everywhere (`HEAD` answers the `GET`
//! headers with zero body bytes); paths are strictly percent-decoded
//! before routing. Parameterized routes go through [`RouteQuery`] —
//! parse, validate (typed `400`s naming the offending parameter),
//! canonicalize, execute — and land in a bounded deterministic
//! [`ResultCache`] whose entries carry their own head slab and ETag.
//! Fixed routes reject every query parameter with the same typed
//! `400`. The served [`QueryIndex`] is hot-swappable through
//! [`ServeState::swap_index`], which atomically invalidates the cache.
//!
//! ## Architecture
//!
//! A [`TcpListener`](std::net::TcpListener) acceptor feeds a fixed
//! [`Pool`] of **event-loop workers** (thread count from
//! [`resolve_serve_threads`], following the `govhost-par`
//! conventions). Accepted sockets are switched non-blocking and
//! distributed round-robin; each worker runs an [`EventLoop`] —
//! `poll(2)` readiness behind the [`Readiness`] trait — multiplexing
//! its share of keep-alive connections, so a slow or stalled peer
//! never pins a thread. Requests flow through the incremental
//! [`RequestParser`] with hard [`Limits`] and typed
//! `400/404/405/414/431/503` [`HttpError`]s into the [`ServeState`]
//! router.
//!
//! Responses are zero-copy: every route's header + body bytes are
//! precomputed once as immutable slabs ([`RouteSlab`]) inside the
//! [`QueryIndex`], carry a deterministic FNV-1a [`etag_of`] ETag
//! (`If-None-Match` answers `304`), and leave through vectored writes
//! without per-request allocation. Admission control sheds past
//! [`PoolConfig::max_conns`] with a canned `503 Retry-After`;
//! sheds, like every request, are accounted through `govhost-obs` and
//! rendered by `/metrics`.
//!
//! Transport hides behind the [`Connection`] trait and scheduling
//! behind [`Readiness`] + [`Clock`], so the production [`EventLoop`] —
//! the only code that turns bytes into requests and responses — runs
//! in-process over [`MemConn`]: tests that script scheduling or time
//! drive one loop with [`FakeReadiness`] and [`FakeClock`], everything
//! else submits to a [`Pool`]. Response bytes are pinned identical
//! across 1/2/4 event-loop workers; sockets never enter the tests.
//!
//! ```
//! use govhost_core::prelude::*;
//! use govhost_obs::TimeMode;
//! use govhost_serve::{MemConn, Pool, PoolConfig, ServeState};
//! use govhost_worldgen::prelude::*;
//! use std::sync::Arc;
//!
//! let world = World::generate(&GenParams::tiny());
//! let dataset = GovDataset::build(&world, &BuildOptions::default());
//! let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
//! let pool = Pool::start_with(state, 1, PoolConfig::default());
//! let (conn, response) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
//! assert!(pool.submit(Box::new(conn)));
//! assert!(response.recv().unwrap().starts_with(b"HTTP/1.1 200 OK"));
//! pool.shutdown();
//! ```

pub mod event;
pub mod history;
pub mod http;
pub mod index;
pub mod query;
pub mod router;
pub mod scenario;
pub mod server;

pub use event::{
    Clock, ConnPolicy, EventLoop, FakeClock, FakeReadiness, PollReadiness, PollSource, Readiness,
    ReadyEvent, SysClock, TurnReport,
};
pub use history::TimelineIndex;
pub use http::{percent_decode, HttpError, Limits, Request, RequestParser, Version};
pub use index::{etag_of, QueryIndex, RouteSlab};
pub use query::{HistoryParams, IndexHandle, ResultCache, RouteQuery, DEFAULT_RESULT_CACHE};
pub use router::{if_none_match, route_label, Bytes, Response, ServeState, ROUTES};
pub use scenario::ScenarioIndex;
pub use server::{Connection, MemConn, Pool, PoolConfig, Server};

#[allow(unused_imports)] // doc links
use govhost_core::prelude::GovDataset;

/// The serving worker-thread count: `GOVHOST_SERVE_THREADS` when set to
/// a positive integer (clamped to [`govhost_par::MAX_THREADS`]), else
/// the pipeline-wide [`govhost_par::resolve_threads`] default.
pub fn resolve_serve_threads() -> usize {
    if let Ok(raw) = std::env::var("GOVHOST_SERVE_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(govhost_par::MAX_THREADS);
            }
        }
    }
    govhost_par::resolve_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_threads_resolve_to_a_positive_bounded_count() {
        let n = resolve_serve_threads();
        assert!(n >= 1);
        assert!(n <= govhost_par::MAX_THREADS);
    }
}
