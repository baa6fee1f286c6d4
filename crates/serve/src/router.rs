//! Route dispatch, zero-copy response encoding, and per-request
//! instrumentation.
//!
//! [`ServeState`] is the shared immutable heart of the server: the
//! precomputed [`QueryIndex`], the dataset's build-time telemetry, and
//! a mutex-guarded request-telemetry capture that every response is
//! accounted into — per-route request counters, status-class counters,
//! response-byte / latency histograms, and the shed counter — all
//! through the `govhost-obs` registry. `/metrics` renders the merged
//! capture with [`metrics_text`], whose deterministic mode keeps the
//! exposition byte-stable across runs and worker counts.
//!
//! Each request path is parsed once into a private `Route`, the only
//! copy of the path grammar: that one value decides both the [`ROUTES`]
//! label the request is counted under and the handler that answers it,
//! so the two cannot drift apart. Every route that takes no parameters
//! (fixed, country, scenario and unknown paths alike) passes one
//! parameter gate, so a typed `400` always outranks a `404`.
//!
//! Responses are **zero-copy**: a [`Response`] is two immutable
//! [`Bytes`] segments — a precomputed header slab (status line through
//! the last fixed header, `ETag` included) and the body slab — plus a
//! static `Connection:` fragment chosen at send time. For the
//! precomputed routes both slabs come straight out of the
//! [`QueryIndex`], so answering a request is three `Arc` bumps and a
//! vectored write; nothing is re-rendered or copied per request.
//!
//! Accounting order matters for determinism under sequential clients:
//! a request's arrival counter is recorded *before* its handler runs
//! (so `/metrics` sees itself), and its status/size/latency series
//! *after* — visible to every later request regardless of which worker
//! served this one.

use crate::http::{HttpError, Request};
use crate::index::{QueryIndex, RouteSlab};
use crate::query::{IndexHandle, ResultCache, RouteQuery, DEFAULT_RESULT_CACHE};
use govhost_core::evolve::Timeline;
use govhost_core::prelude::*;
use govhost_obs::export::{metrics_text, TimeMode};
use govhost_obs::{Labels, Telemetry};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The route patterns the server exposes, used verbatim as the `route`
/// label on every HTTP metric (bounded cardinality by construction).
pub const ROUTES: [&str; 12] = [
    "/healthz",
    "/countries",
    "/country/{iso}",
    "/country/{iso}/history",
    "/flows",
    "/providers",
    "/providers/{name}/history",
    "/hhi",
    "/hhi/history",
    "/scenario/{name}",
    "/scenario/{name}/diff",
    "/metrics",
];

/// An immutable byte payload that can be handed around without copying:
/// either a `'static` fragment (the canned `Connection:` lines) or a
/// shared slab (`Arc<[u8]>` — precomputed route heads and bodies).
#[derive(Debug, Clone)]
pub enum Bytes {
    /// Borrowed from static storage.
    Static(&'static [u8]),
    /// A shared immutable slab; cloning bumps a refcount.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Static(b) => b,
            Bytes::Shared(b) => b,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::Shared(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::Static(b)
    }
}

/// The static `Connection:` fragment that terminates every header block.
const CONN_KEEP_ALIVE: &[u8] = b"Connection: keep-alive\r\n\r\n";
const CONN_CLOSE: &[u8] = b"Connection: close\r\n\r\n";

/// Everything that goes into a rendered header slab.
pub(crate) struct HeadSpec<'a> {
    pub status: u16,
    pub reason: &'static str,
    pub content_type: &'a str,
    /// `Content-Length` to declare; `None` omits the header entirely.
    /// `304`s omit it: per RFC 9110 §8.6 a Content-Length there would
    /// describe the `200` representation, and a literal `0` misleads
    /// caches that update stored metadata from `304` headers.
    pub content_length: Option<usize>,
    /// Emitted as an `ETag` header when present.
    pub etag: Option<&'a str>,
    /// Whether to advertise `Allow: GET, HEAD` (405 responses).
    pub allow_get: bool,
    /// Whether to advertise `Retry-After: 1` (503 shed responses).
    pub retry_after: bool,
}

/// Render the header slab: status line through the last fixed header
/// (ending in `\r\n`), *excluding* the `Connection:` line — that is a
/// static fragment appended at send time. The server never emits a
/// `Date` header: responses must be byte-stable across runs.
pub(crate) fn render_head(spec: &HeadSpec<'_>) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nServer: govhost-serve\r\nContent-Type: {}\r\n",
        spec.status, spec.reason, spec.content_type
    );
    if let Some(length) = spec.content_length {
        head.push_str(&format!("Content-Length: {length}\r\n"));
    }
    if let Some(etag) = spec.etag {
        head.push_str("ETag: ");
        head.push_str(etag);
        head.push_str("\r\n");
    }
    if spec.allow_get {
        head.push_str("Allow: GET, HEAD\r\n");
    }
    if spec.retry_after {
        head.push_str("Retry-After: 1\r\n");
    }
    head
}

/// One response: a precomputed header slab plus the body slab. Cloning
/// is cheap (`Arc` bumps), so the precomputed route responses are
/// cloned out of the [`QueryIndex`] per request without copying bytes.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Canonical reason phrase.
    pub reason: &'static str,
    head: Bytes,
    body: Bytes,
}

impl Response {
    /// Assemble a response from a rendered head and a body slab. The
    /// head must be what [`render_head`] produced for this body.
    pub(crate) fn from_parts(status: u16, reason: &'static str, head: Bytes, body: Bytes) -> Response {
        Response { status, reason, head, body }
    }

    /// Render a dynamic response (errors, `/metrics`): the head is
    /// built here, the body is the given bytes.
    pub(crate) fn dynamic(spec: &HeadSpec<'_>, body: Vec<u8>) -> Response {
        debug_assert_eq!(spec.content_length, Some(body.len()));
        Response {
            status: spec.status,
            reason: spec.reason,
            head: Bytes::from(render_head(spec).into_bytes()),
            body: Bytes::from(body),
        }
    }

    /// The JSON error representation of a typed [`HttpError`].
    pub fn from_error(err: &HttpError) -> Response {
        let body = format!(
            "{{\"error\":{},\"reason\":\"{}\",\"detail\":\"{}\"}}",
            err.status(),
            err.reason(),
            govhost_obs::export::escape_json(err.detail())
        )
        .into_bytes();
        Response::dynamic(
            &HeadSpec {
                status: err.status(),
                reason: err.reason(),
                content_type: "application/json",
                content_length: Some(body.len()),
                etag: None,
                allow_get: matches!(err, HttpError::MethodNotAllowed),
                retry_after: matches!(err, HttpError::Overloaded),
            },
            body,
        )
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        self.body.as_slice()
    }

    /// Strip the body for a `HEAD` answer. The head slab is untouched,
    /// so `Content-Length` and `ETag` still describe the `GET`
    /// representation — exactly what RFC 9110 §9.3.2 requires — while
    /// zero body bytes go on the wire.
    pub(crate) fn into_head_only(mut self) -> Response {
        self.body = Bytes::Static(b"");
        self
    }

    /// The three wire segments of this response — header slab,
    /// `Connection:` fragment, body slab — ready for a vectored write.
    /// No byte is copied: the slabs are shared and the fragment is
    /// static.
    pub fn segments(&self, keep_alive: bool) -> [Bytes; 3] {
        let conn = if keep_alive { CONN_KEEP_ALIVE } else { CONN_CLOSE };
        [self.head.clone(), Bytes::Static(conn), self.body.clone()]
    }

    /// Serialize status line, headers, and body into one owned buffer
    /// (the copying convenience for tests; the serving paths use
    /// [`Response::segments`]).
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let segs = self.segments(keep_alive);
        let mut out = Vec::with_capacity(segs.iter().map(Bytes::len).sum());
        for seg in &segs {
            out.extend_from_slice(seg.as_slice());
        }
        out
    }
}

/// The route label a path falls under (`"other"` for unknown paths,
/// bounding metric cardinality no matter what clients request).
pub fn route_label(path: &str) -> &'static str {
    Route::parse(path).label()
}

/// One request path, classified once: a variant per [`ROUTES`]
/// pattern, with its captured segment borrowed from the path, plus
/// `Other`. The same value picks the metric label and the handler.
#[derive(Clone, Copy)]
enum Route<'a> {
    Healthz,
    Countries,
    Country(&'a str),
    CountryHistory(&'a str),
    Flows,
    Providers,
    ProviderHistory(&'a str),
    Hhi,
    HhiHistory,
    Scenario(&'a str),
    ScenarioDiff(&'a str),
    Metrics,
    Other,
}

impl<'a> Route<'a> {
    /// The one copy of the path grammar, in precedence order: exact
    /// paths, the two `{segment}/history` suffixes, `/country/{iso}`
    /// (any remainder, so `/country//history` is a country lookup),
    /// then `/scenario/{name}[/diff]`. An empty history or scenario
    /// segment is `Other`: `/scenario//diff` names no scenario.
    fn parse(path: &'a str) -> Route<'a> {
        let history = |prefix: &str| {
            path.strip_prefix(prefix)?.strip_suffix("/history").filter(|s| !s.is_empty())
        };
        let scenario = || {
            let rest = path.strip_prefix("/scenario/")?;
            match rest.strip_suffix("/diff") {
                Some(name) => (!name.is_empty()).then_some(Route::ScenarioDiff(name)),
                None => (!rest.is_empty()).then_some(Route::Scenario(rest)),
            }
        };
        match path {
            "/healthz" => Route::Healthz,
            "/countries" => Route::Countries,
            "/flows" => Route::Flows,
            "/providers" => Route::Providers,
            "/hhi" => Route::Hhi,
            "/hhi/history" => Route::HhiHistory,
            "/metrics" => Route::Metrics,
            _ => history("/country/")
                .map(Route::CountryHistory)
                .or_else(|| history("/providers/").map(Route::ProviderHistory))
                .or_else(|| path.strip_prefix("/country/").map(Route::Country))
                .or_else(scenario)
                .unwrap_or(Route::Other),
        }
    }

    /// The [`ROUTES`] entry this route is counted under, or `"other"`.
    fn label(self) -> &'static str {
        let id = match self {
            Route::Healthz => 0,
            Route::Countries => 1,
            Route::Country(_) => 2,
            Route::CountryHistory(_) => 3,
            Route::Flows => 4,
            Route::Providers => 5,
            Route::ProviderHistory(_) => 6,
            Route::Hhi => 7,
            Route::HhiHistory => 8,
            Route::Scenario(_) => 9,
            Route::ScenarioDiff(_) => 10,
            Route::Metrics => 11,
            Route::Other => return "other",
        };
        ROUTES[id]
    }
}

/// Look a two-letter country code up case-insensitively. The fold
/// happens in a stack buffer (no per-request allocation) and touches
/// only ASCII bytes, so multibyte lookalikes (U+212A KELVIN SIGN folds
/// to 'k' under Unicode rules) can never match.
fn with_upper_iso<T>(iso: &str, lookup: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let &[a, b] = iso.as_bytes() else { return None };
    let upper = [a.to_ascii_uppercase(), b.to_ascii_uppercase()];
    std::str::from_utf8(&upper).ok().and_then(lookup)
}

/// Whether an `If-None-Match` header value matches `etag`: the
/// wildcard `*`, or any comma-separated entry equal to the (strong)
/// entity tag, with an optional `W/` weak prefix tolerated. Garbage
/// values simply fail to match and the full body is served.
pub fn if_none_match(header: &str, etag: &str) -> bool {
    header.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate == etag || candidate.strip_prefix("W/") == Some(etag)
    })
}

/// Everything a worker needs to answer requests: the hot-swappable
/// index handle, the bounded result cache for parameterized queries,
/// and the telemetry accounting.
#[derive(Debug)]
pub struct ServeState {
    index: IndexHandle,
    /// Rendered parameterized results, keyed by canonical query.
    cache: ResultCache,
    /// The dataset's build capture plus the index-build capture —
    /// the baseline `/metrics` starts from.
    base: Telemetry,
    /// Request-side telemetry, accumulated under a mutex (merge-based,
    /// so the capture is order-blind like the build-side shards).
    requests: Mutex<Telemetry>,
    /// The canned 503 sent when a connection is shed (prebuilt once:
    /// shedding must not allocate under load).
    overloaded: Response,
    /// Prerendered scenario slabs, when `serve --scenario` loaded any.
    scenarios: Option<Arc<crate::scenario::ScenarioIndex>>,
    mode: TimeMode,
}

impl ServeState {
    /// Build over `dataset` alone: the history routes answer its
    /// single-year [`Timeline::snapshot`], `/metrics` renders in `mode`
    /// (tests pin the deterministic one regardless of environment), and
    /// the result cache has the default capacity.
    pub fn with_mode(dataset: &GovDataset, mode: TimeMode) -> ServeState {
        ServeState::with_timeline(dataset, &Timeline::snapshot(dataset), mode)
    }

    /// Build with an evolved multi-year [`Timeline`] behind the history
    /// routes and the default result-cache capacity.
    pub fn with_timeline(dataset: &GovDataset, timeline: &Timeline, mode: TimeMode) -> ServeState {
        ServeState::with_timeline_config(dataset, timeline, mode, DEFAULT_RESULT_CACHE)
    }

    /// The one constructor body: index `dataset` with `timeline` behind
    /// the history routes, render `/metrics` in `mode`, and bound the
    /// result cache at `cache_capacity` entries (the CLI's
    /// `--query-cache`; zero disables caching).
    pub fn with_timeline_config(
        dataset: &GovDataset,
        timeline: &Timeline,
        mode: TimeMode,
        cache_capacity: usize,
    ) -> ServeState {
        let (index, build_capture) = govhost_obs::collect(|| {
            let _span = govhost_obs::span!("serve.index");
            let index = QueryIndex::with_timeline(dataset, timeline);
            govhost_obs::counter_add("serve.index.countries", &[], index.country_count() as u64);
            index
        });
        let mut base = dataset.telemetry.clone();
        base.merge(&build_capture);
        let mut requests = Telemetry::new();
        // Declare the shed and cache counters up front so `/metrics`
        // always shows them — a zero there is a meaningful signal, not
        // a missing series.
        requests.registry.declare_counter("http.shed", Labels::empty());
        for outcome in ["hit", "miss", "eviction"] {
            requests
                .registry
                .declare_counter("http.query_cache", Labels::new(&[("outcome", outcome)]));
        }
        ServeState {
            index: IndexHandle::new(index),
            cache: ResultCache::new(cache_capacity),
            base,
            requests: Mutex::new(requests),
            overloaded: Response::from_error(&HttpError::Overloaded),
            scenarios: None,
            mode,
        }
    }

    /// Attach prerendered scenario slabs: `/scenario/{name}` and
    /// `/scenario/{name}/diff` answer from them. The slabs are shared
    /// (`Arc`) across every worker, so scenario bytes are pinned no
    /// matter which worker serves the request.
    pub fn with_scenarios(mut self, scenarios: crate::scenario::ScenarioIndex) -> ServeState {
        self.scenarios = Some(Arc::new(scenarios));
        self
    }

    /// The `/metrics` time mode in effect.
    pub fn time_mode(&self) -> TimeMode {
        self.mode
    }

    /// A snapshot of the currently-served query index (an `Arc` bump;
    /// a concurrent [`ServeState::swap_index`] does not disturb it).
    pub fn index(&self) -> Arc<QueryIndex> {
        self.index.load()
    }

    /// The parameterized-query result cache.
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Hot-swap the served index with zero downtime: in-flight requests
    /// finish against the index they snapshotted, new requests see
    /// `next`, and the result cache is atomically invalidated (its
    /// epoch bump also drops in-flight renders against the old index).
    pub fn swap_index(&self, next: QueryIndex) {
        self.index.swap(next);
        self.cache.invalidate();
    }

    /// A merged snapshot of build-time and request-time telemetry.
    pub fn telemetry_snapshot(&self) -> Telemetry {
        let mut snap = self.base.clone();
        let requests = self.requests.lock().expect("telemetry lock");
        snap.merge(&requests);
        snap
    }

    /// Account one shed connection and hand back the canned
    /// `503 Retry-After` response to write before hanging up. The shed
    /// count lands in `/metrics` as `http_shed` plus a `5xx` response
    /// under the reserved `shed` route label, and the response-byte /
    /// latency histograms observe the shed like any other response —
    /// they must not undercount exactly when the server is overloaded.
    pub fn shed(&self) -> Response {
        let mut t = self.requests.lock().expect("telemetry lock");
        t.registry.add_counter("http.shed", Labels::empty(), 1);
        t.registry.add_counter(
            "http.responses",
            Labels::new(&[("route", "shed"), ("class", "5xx")]),
            1,
        );
        let labels = Labels::new(&[("route", "shed")]);
        t.registry.observe(
            "http.response_bytes",
            labels.clone(),
            self.overloaded.body().len() as u64,
        );
        // The canned 503 is prebuilt, so its serving latency is the
        // write itself; observe zero rather than invent a number.
        t.registry.observe("http.latency_ns", labels, 0);
        self.overloaded.clone()
    }

    /// How many connections have been shed so far.
    pub fn shed_count(&self) -> u64 {
        self.requests.lock().expect("telemetry lock").registry.counter_total("http.shed")
    }

    /// Answer one parse outcome: route, handle, and account the
    /// exchange into the request telemetry. The path is parsed into a
    /// `Route` once; that value labels the metrics and picks the
    /// handler.
    pub fn respond(&self, parsed: Result<&Request, &HttpError>) -> Response {
        let start = Instant::now();
        let parsed = parsed.map(|req| (req, Route::parse(req.path())));
        let label = parsed.map_or("error", |(_, route)| route.label());
        {
            let mut t = self.requests.lock().expect("telemetry lock");
            t.registry.add_counter("http.requests", Labels::new(&[("route", label)]), 1);
        }
        let response = match parsed {
            Err(err) => Response::from_error(err),
            Ok((req, _)) if req.method != "GET" && req.method != "HEAD" => {
                Response::from_error(&HttpError::MethodNotAllowed)
            }
            Ok((req, route)) => {
                let response =
                    self.handle(req, route).unwrap_or_else(|err| Response::from_error(&err));
                // HEAD runs the full GET pipeline (routing, conditionals,
                // accounting), then drops the body: the head slab already
                // describes the 200 representation (RFC 9110 §9.3.2).
                if req.method == "HEAD" {
                    response.into_head_only()
                } else {
                    response
                }
            }
        };
        let latency_ns = start.elapsed().as_nanos() as u64;
        let class = match response.status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        let mut t = self.requests.lock().expect("telemetry lock");
        let labels = Labels::new(&[("route", label)]);
        t.registry.add_counter(
            "http.responses",
            Labels::new(&[("route", label), ("class", class)]),
            1,
        );
        t.registry.observe("http.response_bytes", labels.clone(), response.body().len() as u64);
        t.registry.observe("http.latency_ns", labels, latency_ns);
        response
    }

    /// Serve a precomputed slab, honouring `If-None-Match`: a matching
    /// entity tag answers `304 Not Modified` with an empty body.
    fn conditional(&self, req: &Request, slab: &RouteSlab) -> Response {
        match req.header("if-none-match") {
            Some(header) if if_none_match(header, slab.etag()) => slab.not_modified(),
            _ => slab.ok(),
        }
    }

    /// Dispatch a `GET` (or `HEAD`, body-stripped by the caller) on its
    /// route. The query-engine and history routes take parameters;
    /// every other route, known or not, passes one parameter gate
    /// first, so a typed `400` names the parameter and outranks the
    /// `404`.
    fn handle(&self, req: &Request, route: Route<'_>) -> Result<Response, HttpError> {
        let raw = req.query().unwrap_or("");
        let index = match route {
            Route::Countries | Route::Flows | Route::Providers => {
                return self.parameterized(req, route, raw)
            }
            Route::HhiHistory | Route::CountryHistory(_) | Route::ProviderHistory(_) => {
                return self.history(req, route, raw)
            }
            _ => {
                crate::query::reject_params(raw)?;
                self.index.load()
            }
        };
        let scenarios = self.scenarios.as_deref();
        let slab = match route {
            Route::Healthz => Some(index.healthz_slab()),
            Route::Hhi => Some(index.hhi_slab()),
            Route::Country(iso) => with_upper_iso(iso, |code| index.country_slab(code)),
            Route::Scenario(name) => scenarios.and_then(|s| s.report_slab(name)),
            Route::ScenarioDiff(name) => scenarios.and_then(|s| s.diff_slab(name)),
            Route::Metrics => {
                let body = metrics_text(&self.telemetry_snapshot(), self.mode).into_bytes();
                return Ok(Response::dynamic(
                    &HeadSpec {
                        status: 200,
                        reason: "OK",
                        content_type: "text/plain; charset=utf-8",
                        content_length: Some(body.len()),
                        etag: None,
                        allow_get: false,
                        retry_after: false,
                    },
                    body,
                ));
            }
            _ => None,
        };
        slab.map(|slab| self.conditional(req, slab)).ok_or(HttpError::NotFound)
    }

    /// Serve one of `/flows`, `/providers`, `/countries`: the
    /// precomputed base slab when the query string is empty, otherwise
    /// parse, then answer through the result cache.
    fn parameterized(
        &self,
        req: &Request,
        route: Route<'_>,
        raw: &str,
    ) -> Result<Response, HttpError> {
        if raw.split('&').all(str::is_empty) {
            let index = self.index.load();
            let slab = match route {
                Route::Flows => index.flows_slab(),
                Route::Providers => index.providers_slab(),
                _ => index.countries_slab(),
            };
            return Ok(self.conditional(req, slab));
        }
        let query = RouteQuery::parse(route.label(), raw)?;
        let epoch = self.cache.epoch();
        Ok(self.cached(req, query.cache_key(), epoch, || query.execute(&self.index.load())))
    }

    /// Serve one history route: parameterless requests answer the
    /// precomputed full-series slab; a parameterized request parses
    /// (typed `400`s *before* target resolution, so a bad query never
    /// masquerades as a missing target), resolves the series (`404`
    /// when the country or provider is unknown), and answers through
    /// the result cache.
    fn history(&self, req: &Request, route: Route<'_>, raw: &str) -> Result<Response, HttpError> {
        let params = if raw.split('&').all(str::is_empty) {
            None
        } else {
            Some(crate::query::HistoryParams::parse(raw)?)
        };
        let epoch = self.cache.epoch();
        let index = self.index.load();
        let timeline = index.timeline();
        let (path, series) = match route {
            Route::CountryHistory(iso) => with_upper_iso(iso, |code| {
                timeline.country(code).map(|series| (format!("/country/{code}/history"), series))
            }),
            Route::ProviderHistory(name) => timeline
                .provider(name)
                .map(|(asn, p)| (format!("/providers/AS{asn}/history"), &p.series)),
            _ => Some(("/hhi/history".to_string(), timeline.hhi())),
        }
        .ok_or(HttpError::NotFound)?;
        let Some(params) = params else {
            return Ok(self.conditional(req, &series.slab));
        };
        let key = format!("{path}?{}", params.canonical());
        Ok(self.cached(req, key, epoch, || series.execute(&path, &params)))
    }

    /// Answer a parameterized request from the result cache, rendering
    /// and inserting on a miss. `epoch` must be read before the index
    /// `render` draws from is loaded: a swap in between bumps the epoch,
    /// so bytes from the displaced index are never inserted.
    fn cached(
        &self,
        req: &Request,
        key: String,
        epoch: u64,
        render: impl FnOnce() -> String,
    ) -> Response {
        if let Some(slab) = self.cache.get(&key) {
            self.count_cache_outcome("hit");
            return self.conditional(req, &slab);
        }
        self.count_cache_outcome("miss");
        let slab = Arc::new(RouteSlab::json(render()));
        if self.cache.insert(key, slab.clone(), epoch) {
            self.count_cache_outcome("eviction");
        }
        self.conditional(req, &slab)
    }

    fn count_cache_outcome(&self, outcome: &str) {
        let mut t = self.requests.lock().expect("telemetry lock");
        t.registry.add_counter("http.query_cache", Labels::new(&[("outcome", outcome)]), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Limits, RequestParser};
    use govhost_worldgen::prelude::*;

    fn state() -> ServeState {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        ServeState::with_mode(&dataset, TimeMode::Deterministic)
    }

    fn get(state: &ServeState, path: &str) -> Response {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        state.respond(Ok(&req))
    }

    #[test]
    fn every_route_answers_200() {
        let state = state();
        for path in ["/healthz", "/countries", "/flows", "/providers", "/hhi", "/metrics"] {
            assert_eq!(get(&state, path).status, 200, "{path}");
        }
    }

    #[test]
    fn country_lookup_is_case_insensitive_and_404s_unknowns() {
        let state = state();
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let code = dataset.countries()[0];
        let lower = code.as_str().to_ascii_lowercase();
        assert_eq!(get(&state, &format!("/country/{code}")).status, 200);
        assert_eq!(get(&state, &format!("/country/{lower}")).status, 200);
        assert_eq!(get(&state, "/country/ZZ").status, 404);
        assert_eq!(get(&state, "/nope").status, 404);
        // ASCII-only folding: Unicode lookalikes that case-fold into an
        // ASCII letter (U+212A KELVIN SIGN → 'k', U+017F LONG S → 's')
        // must stay 404 for every served country code.
        for code in dataset.countries() {
            let folded: String = code
                .as_str()
                .chars()
                .map(|c| match c {
                    'K' => '\u{212A}',
                    'S' => '\u{017F}',
                    c => c,
                })
                .collect();
            if folded.as_str() != code.as_str() {
                assert_eq!(get(&state, &format!("/country/{folded}")).status, 404, "{code}");
            }
        }
    }

    #[test]
    fn non_get_methods_are_405_with_allow() {
        let state = state();
        let mut parser = RequestParser::new(Limits::default());
        parser.push(b"POST /hhi HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let req = parser.next_request().unwrap().unwrap();
        let resp = state.respond(Ok(&req));
        assert_eq!(resp.status, 405);
        let encoded = String::from_utf8(resp.encode(false)).unwrap();
        assert!(encoded.contains("Allow: GET, HEAD\r\n"));
        assert!(encoded.contains("Connection: close\r\n"));
    }

    #[test]
    fn head_serves_the_get_head_slab_with_no_body() {
        let state = state();
        let get_resp = get(&state, "/hhi");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(b"HEAD /hhi HTTP/1.1\r\n\r\n");
        let req = parser.next_request().unwrap().unwrap();
        let head_resp = state.respond(Ok(&req));
        assert_eq!(head_resp.status, 200);
        assert!(head_resp.body().is_empty(), "HEAD sends zero body bytes");
        let get_encoded = get_resp.encode(true);
        let head_encoded = head_resp.encode(true);
        let get_head = &get_encoded[..get_encoded.len() - get_resp.body().len()];
        assert_eq!(
            head_encoded, get_head,
            "HEAD headers are byte-identical to GET's, Content-Length included"
        );
    }

    #[test]
    fn query_strings_on_fixed_routes_are_typed_400s() {
        let state = state();
        let resp = get(&state, "/hhi?verbose=1");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("verbose"), "names the parameter: {body}");
        // A bare '?' carries no parameters and serves the base slab.
        assert_eq!(get(&state, "/hhi?").status, 200);
        assert_eq!(get(&state, "/metrics?x=1").status, 400);
    }

    #[test]
    fn parameterized_queries_hit_the_cache_and_count_outcomes() {
        let state = state();
        let miss = get(&state, "/flows?sort=share&limit=5");
        let hit = get(&state, "/flows?limit=5&sort=share");
        assert_eq!(miss.status, 200);
        assert_eq!(
            miss.encode(true),
            hit.encode(true),
            "hit and miss are byte-identical for one canonical query"
        );
        let snap = state.telemetry_snapshot();
        assert_eq!(
            snap.registry.counter_filtered("http.query_cache", &[("outcome", "miss")]),
            1
        );
        assert_eq!(
            snap.registry.counter_filtered("http.query_cache", &[("outcome", "hit")]),
            1
        );
        assert_eq!(state.result_cache().len(), 1);
    }

    #[test]
    fn metrics_declares_cache_counters_at_zero() {
        let state = state();
        let metrics = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        for outcome in ["hit", "miss", "eviction"] {
            assert!(
                metrics.contains(&format!("http_query_cache{{outcome=\"{outcome}\"}} 0")),
                "{outcome} declared at zero: {metrics}"
            );
        }
    }

    #[test]
    fn swap_invalidates_the_result_cache() {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let state = ServeState::with_mode(&dataset, TimeMode::Deterministic);
        let before = get(&state, "/providers?sort=asn");
        assert_eq!(state.result_cache().len(), 1);
        state.swap_index(QueryIndex::build(&dataset));
        assert!(state.result_cache().is_empty(), "swap clears cached results");
        let after = get(&state, "/providers?sort=asn");
        assert_eq!(
            before.encode(true),
            after.encode(true),
            "identical-input swap leaves response bytes unchanged"
        );
    }

    #[test]
    fn encode_equals_concatenated_segments() {
        let state = state();
        let resp = get(&state, "/healthz");
        for keep in [true, false] {
            let mut joined = Vec::new();
            for seg in resp.segments(keep) {
                joined.extend_from_slice(seg.as_slice());
            }
            assert_eq!(joined, resp.encode(keep));
        }
    }

    #[test]
    fn conditional_get_answers_304_with_the_same_etag() {
        let state = state();
        let full = get(&state, "/hhi");
        let encoded = String::from_utf8(full.encode(false)).unwrap();
        let etag = encoded
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("precomputed routes carry an ETag")
            .to_string();
        let raw = format!("GET /hhi HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        let resp = state.respond(Ok(&req));
        assert_eq!(resp.status, 304);
        assert!(resp.body().is_empty(), "304 has no body");
        let encoded304 = String::from_utf8(resp.encode(false)).unwrap();
        assert!(encoded304.contains(&format!("ETag: {etag}\r\n")), "{encoded304}");
    }

    #[test]
    fn if_none_match_handles_lists_wildcards_and_garbage() {
        assert!(if_none_match("*", "\"abc\""));
        assert!(if_none_match("\"x\", \"abc\"", "\"abc\""));
        assert!(if_none_match("W/\"abc\"", "\"abc\""));
        assert!(!if_none_match("\"x\", \"y\"", "\"abc\""));
        assert!(!if_none_match("garbage", "\"abc\""));
        assert!(!if_none_match("", "\"abc\""));
    }

    #[test]
    fn shed_is_a_typed_503_with_retry_after_and_is_counted() {
        let state = state();
        assert_eq!(state.shed_count(), 0);
        let resp = state.shed();
        assert_eq!(resp.status, 503);
        let encoded = String::from_utf8(resp.encode(false)).unwrap();
        assert!(encoded.starts_with("HTTP/1.1 503 Service Unavailable"), "{encoded}");
        assert!(encoded.contains("Retry-After: 1\r\n"), "{encoded}");
        assert!(encoded.contains("server overloaded"), "{encoded}");
        assert_eq!(state.shed_count(), 1);
        let metrics = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        assert!(metrics.contains("http_shed 1"), "{metrics}");
        assert!(
            metrics.contains("http_responses{class=\"5xx\",route=\"shed\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn metrics_always_exposes_the_shed_counter() {
        let state = state();
        let metrics = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        assert!(metrics.contains("http_shed 0"), "declared at zero: {metrics}");
    }

    #[test]
    fn requests_are_accounted_per_route_and_class() {
        let state = state();
        let _ = get(&state, "/hhi");
        let _ = get(&state, "/hhi");
        let _ = get(&state, "/nope");
        let snap = state.telemetry_snapshot();
        assert_eq!(
            snap.registry.counter_filtered("http.requests", &[("route", "/hhi")]),
            2
        );
        assert_eq!(
            snap.registry.counter_filtered("http.responses", &[("class", "4xx")]),
            1
        );
        assert_eq!(snap.registry.counter_total("http.latency_ns"), 0, "latency is a histogram");
    }

    #[test]
    fn history_routes_answer_with_etag_slabs_and_use_the_cache() {
        let state = state();
        // Parameterless: the precomputed slab, ETag included, 304-able.
        let full = get(&state, "/hhi/history");
        assert_eq!(full.status, 200);
        let encoded = String::from_utf8(full.encode(false)).unwrap();
        let etag = encoded
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("history slabs carry an ETag")
            .to_string();
        let raw = format!("GET /hhi/history HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(state.respond(Ok(&req)).status, 304);
        // Parameterized: lands in the result cache like /flows does.
        let miss = get(&state, "/hhi/history?from=0&limit=10");
        let hit = get(&state, "/hhi/history?limit=10&from=0");
        assert_eq!(miss.status, 200);
        assert_eq!(miss.encode(true), hit.encode(true), "one canonical query, one entry");
        assert_eq!(state.result_cache().len(), 1);
    }

    #[test]
    fn history_targets_resolve_fold_and_404() {
        let state = state();
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let code = dataset.countries()[0];
        let lower = code.as_str().to_ascii_lowercase();
        assert_eq!(get(&state, &format!("/country/{code}/history")).status, 200);
        assert_eq!(get(&state, &format!("/country/{lower}/history")).status, 200);
        assert_eq!(get(&state, "/country/ZZ/history").status, 404);
        assert_eq!(get(&state, "/providers/AS13335/history").status, 200);
        assert_eq!(get(&state, "/providers/13335/history").status, 200);
        assert_eq!(get(&state, "/providers/AS99999/history").status, 404);
        assert_eq!(get(&state, "/providers/Nobody%20Inc./history").status, 404);
        // By org name, case-folded, percent-encoded on the wire.
        let body = String::from_utf8(get(&state, "/providers/AS13335/history").body().to_vec())
            .unwrap();
        assert!(body.contains("\"org\":\"Cloudflare, Inc.\""), "{body}");
        assert_eq!(get(&state, "/providers/cloudflare,%20inc./history").status, 200);
    }

    #[test]
    fn history_validates_before_resolving() {
        let state = state();
        // 400 before 404: a bad parameter on an unknown target is a 400.
        let resp = get(&state, "/country/ZZ/history?from=x");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("parameter \\\"from\\\""), "names the parameter: {body}");
        assert_eq!(get(&state, "/hhi/history?verbose=1").status, 400);
    }

    #[test]
    fn scenario_routes_serve_slabs_400_params_and_404_unknowns() {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        // No scenarios attached: everything under /scenario/ is a 404,
        // but a bad query is still a 400 (400-before-404).
        let bare = ServeState::with_mode(&dataset, TimeMode::Deterministic);
        assert_eq!(get(&bare, "/scenario/quake").status, 404);
        assert_eq!(get(&bare, "/scenario/quake?x=1").status, 400);
        let file = govhost_scenario::parse("scenario quake\noutage provider AS13335\n").unwrap();
        let runs = govhost_scenario::run_file(
            &GenParams::tiny(),
            &file,
            &BuildOptions::default(),
        )
        .unwrap();
        let state = ServeState::with_mode(&dataset, TimeMode::Deterministic)
            .with_scenarios(crate::scenario::ScenarioIndex::build(&runs));
        let report = get(&state, "/scenario/quake");
        assert_eq!(report.status, 200);
        let body = String::from_utf8(report.body().to_vec()).unwrap();
        assert!(body.starts_with("{\"scenario\":\"quake\""), "{body}");
        assert!(body.contains("\"cards\":["), "{body}");
        let diff = get(&state, "/scenario/quake/diff");
        assert_eq!(diff.status, 200);
        let diff_body = String::from_utf8(diff.body().to_vec()).unwrap();
        assert!(diff_body.contains("\"global\":["), "{diff_body}");
        // Unknowns, empty names, and parameters.
        assert_eq!(get(&state, "/scenario/nope").status, 404);
        assert_eq!(get(&state, "/scenario/nope/diff").status, 404);
        assert_eq!(get(&state, "/scenario/").status, 404);
        assert_eq!(get(&state, "/scenario").status, 404);
        let bad = get(&state, "/scenario/quake?verbose=1");
        assert_eq!(bad.status, 400);
        let bad_body = String::from_utf8(bad.body().to_vec()).unwrap();
        assert!(bad_body.contains("verbose"), "names the parameter: {bad_body}");
        // Conditional GET against the slab's ETag.
        let encoded = String::from_utf8(report.encode(false)).unwrap();
        let etag = encoded
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("scenario slabs carry an ETag")
            .to_string();
        let raw = format!("GET /scenario/quake HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(state.respond(Ok(&req)).status, 304);
    }

    /// The route grammar's edge paths: each row is `(request target,
    /// route label, status)`. The label is what `route_label` returns
    /// for the decoded path *and* what `respond` counts the arrival
    /// under; the status is what the handler answers.
    #[test]
    fn route_grammar_pins_labels_and_statuses() {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let file = govhost_scenario::parse("scenario quake\noutage provider AS13335\n").unwrap();
        let runs = govhost_scenario::run_file(&GenParams::tiny(), &file, &BuildOptions::default())
            .unwrap();
        let state = ServeState::with_mode(&dataset, TimeMode::Deterministic)
            .with_scenarios(crate::scenario::ScenarioIndex::build(&runs));
        let rows: [(&str, &str, u16); 29] = [
            // One 200 per route.
            ("/healthz", "/healthz", 200),
            ("/countries", "/countries", 200),
            ("/country/AR", "/country/{iso}", 200),
            ("/country/ar/history", "/country/{iso}/history", 200),
            ("/flows", "/flows", 200),
            ("/providers", "/providers", 200),
            ("/providers/AS13335/history", "/providers/{name}/history", 200),
            ("/hhi", "/hhi", 200),
            ("/hhi/history", "/hhi/history", 200),
            ("/scenario/quake", "/scenario/{name}", 200),
            ("/scenario/quake/diff", "/scenario/{name}/diff", 200),
            ("/metrics", "/metrics", 200),
            // Edges: empty segments, trailing slashes, wrong lengths.
            ("/countries/", "other", 404),
            ("/country/", "/country/{iso}", 404),
            ("/country/USA", "/country/{iso}", 404),
            ("/country//history", "/country/{iso}", 404),
            ("/providers//history", "other", 404),
            ("/providers/nope/history", "/providers/{name}/history", 404),
            ("/hhi/history/", "other", 404),
            ("/scenario", "other", 404),
            ("/scenario/", "other", 404),
            ("/scenario//diff", "other", 404),
            ("/scenario/x/diff", "/scenario/{name}/diff", 404),
            ("/", "other", 404),
            // A typed 400 outranks the 404, on every route shape.
            ("/country/ZZ/history?from=x", "/country/{iso}/history", 400),
            ("/country/USA?x=1", "/country/{iso}", 400),
            ("/scenario?y=1", "other", 400),
            ("/metrics?x=1", "/metrics", 400),
            ("/nope?x=1", "other", 400),
        ];
        for (target, label, status) in rows {
            let path = target.split('?').next().unwrap();
            assert_eq!(route_label(path), label, "{target}");
            let before = state
                .telemetry_snapshot()
                .registry
                .counter_filtered("http.requests", &[("route", label)]);
            assert_eq!(get(&state, target).status, status, "{target}");
            let after = state
                .telemetry_snapshot()
                .registry
                .counter_filtered("http.requests", &[("route", label)]);
            assert_eq!(after, before + 1, "{target} counted under {label}");
        }
        for route in ROUTES {
            assert!(rows.iter().any(|&(_, label, _)| label == route), "{route} has no row");
        }
    }

    #[test]
    fn metrics_route_sees_its_own_arrival() {
        let state = state();
        let body = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        assert!(
            body.contains("http_requests{route=\"/metrics\"} 1"),
            "arrival counter precedes rendering: {body}"
        );
        assert!(body.contains("# TYPE serve_index_countries counter"));
    }
}
