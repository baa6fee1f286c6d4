//! The immutable in-memory query index: every route's JSON body,
//! precomputed once from a built [`GovDataset`].
//!
//! The index reuses `govhost-core`'s analysis modules — hosting mix,
//! cross-border flows, provider footprints, geolocation splits, HHI
//! concentration — rather than re-deriving anything, and renders each
//! response body at build time. Serving is then a lookup plus a memcpy,
//! and the determinism contract is trivial: the bodies are pure
//! functions of the dataset, so response bytes cannot depend on worker
//! count or request interleaving (`tests/serve_http.rs` pins this at
//! 1/2/4 pool workers).
//!
//! JSON is hand-rendered like the telemetry exports (the workspace is
//! zero-dependency): sorted/fixed key order, [`escape_json`] for
//! strings, and non-finite floats rendered as `null`.

use crate::router::{render_head, Bytes, HeadSpec, Response};
use govhost_core::crossborder::FlowMatrix;
use govhost_core::prelude::*;
use govhost_obs::export::escape_json;
use govhost_types::prelude::*;
use govhost_worldgen::countries::region_of;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

/// A finite float renders via Rust's shortest-roundtrip `Display`
/// (deterministic); `NaN`/infinity render as `null`.
pub(crate) fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A quoted, escaped JSON string literal.
pub(crate) fn js(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// Compute the strong entity tag of a body: 64-bit FNV-1a over the
/// bytes, rendered as a quoted 16-digit hex string. Deterministic by
/// construction — the tag is a pure function of the body bytes, which
/// are themselves a pure function of the dataset.
pub fn etag_of(body: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("\"{hash:016x}\"")
}

/// One route's precomputed, immutable response slabs: the `200` with
/// its header bytes (ETag included) rendered once at build time, the
/// matching `304 Not Modified`, and the entity tag used to decide
/// between them. Serving either answer is a clone — `Arc` bumps, no
/// bytes copied.
#[derive(Debug, Clone)]
pub struct RouteSlab {
    etag: String,
    ok: Response,
    not_modified: Response,
}

impl RouteSlab {
    /// Render the slabs for a JSON body. Also used by the query engine
    /// to give each cached parameterized result its own head + ETag.
    pub(crate) fn json(body: String) -> RouteSlab {
        let etag = etag_of(body.as_bytes());
        let body: Arc<[u8]> = Arc::from(body.into_bytes());
        let head = render_head(&HeadSpec {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            content_length: Some(body.len()),
            etag: Some(&etag),
            allow_get: false,
            retry_after: false,
        });
        let ok = Response::from_parts(
            200,
            "OK",
            Bytes::from(head.into_bytes()),
            Bytes::Shared(body),
        );
        // No Content-Length on the 304: it would have to describe the
        // 200 representation (RFC 9110 §8.6), not the empty payload.
        let head = render_head(&HeadSpec {
            status: 304,
            reason: "Not Modified",
            content_type: "application/json",
            content_length: None,
            etag: Some(&etag),
            allow_get: false,
            retry_after: false,
        });
        let not_modified = Response::from_parts(
            304,
            "Not Modified",
            Bytes::from(head.into_bytes()),
            Bytes::Static(b""),
        );
        RouteSlab { etag, ok, not_modified }
    }

    /// The strong entity tag of the body (quoted, as it appears on the
    /// wire).
    pub fn etag(&self) -> &str {
        &self.etag
    }

    /// The full `200` response (an `Arc`-bump clone).
    pub fn ok(&self) -> Response {
        self.ok.clone()
    }

    /// The `304 Not Modified` response (an `Arc`-bump clone).
    pub fn not_modified(&self) -> Response {
        self.not_modified.clone()
    }

    /// The JSON body as text.
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(self.ok.body()).expect("slab bodies are rendered from String")
    }
}

/// Precomputed response slabs for every route `govhost-serve` answers,
/// plus the row tables the parameterized query engine scans.
#[derive(Debug, Clone)]
pub struct QueryIndex {
    healthz: RouteSlab,
    countries: RouteSlab,
    country: BTreeMap<String, RouteSlab>,
    flows: RouteSlab,
    providers: RouteSlab,
    hhi: RouteSlab,
    tables: crate::query::QueryTables,
    timeline: crate::history::TimelineIndex,
}

impl QueryIndex {
    /// Run the core analyses over `dataset` and render every body. The
    /// history routes get a single-year timeline
    /// ([`Timeline::snapshot`](govhost_core::evolve::Timeline::snapshot))
    /// — use [`QueryIndex::with_timeline`] after an evolution run.
    pub fn build(dataset: &GovDataset) -> QueryIndex {
        Self::with_timeline(dataset, &govhost_core::evolve::Timeline::snapshot(dataset))
    }

    /// Like [`QueryIndex::build`], but serving history routes from an
    /// evolved multi-year timeline.
    pub fn with_timeline(
        dataset: &GovDataset,
        timeline: &govhost_core::evolve::Timeline,
    ) -> QueryIndex {
        let hosting = HostingAnalysis::compute(dataset);
        let location = LocationAnalysis::compute(dataset);
        let cross = CrossBorderAnalysis::compute(dataset);
        let providers = ProviderAnalysis::compute(dataset);
        let diversification = DiversificationAnalysis::compute(dataset, &hosting);
        let codes = dataset.countries();

        let healthz = format!(
            "{{\"status\":\"ok\",\"countries\":{},\"hostnames\":{},\"urls\":{}}}",
            codes.len(),
            dataset.hosts.len(),
            dataset.urls.len()
        );

        let mut countries = String::from("{\"count\":");
        let _ = write!(countries, "{},\"countries\":[", codes.len());
        for (i, code) in codes.iter().enumerate() {
            if i > 0 {
                countries.push(',');
            }
            let stats = dataset.country_stats(*code).expect("listed country has stats");
            let _ = write!(
                countries,
                "{{\"code\":{},\"region\":{},\"landing\":{},\"hostnames\":{},\"urls\":{},\"bytes\":{}}}",
                js(code.as_str()),
                region_of(*code).map_or("null".to_string(), |r| js(r.code())),
                stats.landing,
                stats.hostnames,
                stats.urls,
                stats.bytes
            );
        }
        countries.push_str("]}");

        let mut country = BTreeMap::new();
        for code in &codes {
            country.insert(
                code.as_str().to_string(),
                RouteSlab::json(render_country(
                    *code,
                    dataset,
                    &hosting,
                    &location,
                    &cross,
                    &diversification,
                )),
            );
        }

        let flows = format!(
            "{{\"registration\":{},\"served\":{}}}",
            render_matrix(&cross.registration),
            render_matrix(&cross.location)
        );

        let mut providers_body = String::from("{\"count\":");
        let _ = write!(providers_body, "{},\"providers\":[", providers.providers.len());
        for (i, p) in providers.providers.iter().enumerate() {
            if i > 0 {
                providers_body.push(',');
            }
            let peak = p.peak_share();
            let _ = write!(
                providers_body,
                "{{\"asn\":{},\"org\":{},\"country_count\":{},\"countries\":[{}],\"peak_country\":{},\"peak_byte_share\":{}}}",
                p.asn.0,
                js(&p.org),
                p.countries.len(),
                p.countries_sorted()
                    .iter()
                    .map(|c| js(c.as_str()))
                    .collect::<Vec<_>>()
                    .join(","),
                peak.map_or("null".to_string(), |(c, _)| js(c.as_str())),
                peak.map_or("null".to_string(), |(_, s)| jf(s))
            );
        }
        providers_body.push_str("]}");

        let mut hhi = String::from("{\"count\":");
        let concentrations = diversification.sorted();
        let _ = write!(hhi, "{},\"countries\":[", concentrations.len());
        for (i, (code, conc)) in concentrations.iter().enumerate() {
            if i > 0 {
                hhi.push(',');
            }
            let _ = write!(
                hhi,
                "{{\"code\":{},\"dominant\":{},\"hhi_urls\":{},\"hhi_bytes\":{},\"top_network_byte_share\":{}}}",
                js(code.as_str()),
                js(conc.dominant.label()),
                jf(conc.hhi_urls),
                jf(conc.hhi_bytes),
                jf(conc.top_network_byte_share)
            );
        }
        hhi.push_str("]}");

        let tables =
            crate::query::QueryTables::build(dataset, &cross, &providers, &diversification);

        QueryIndex {
            healthz: RouteSlab::json(healthz),
            countries: RouteSlab::json(countries),
            country,
            flows: RouteSlab::json(flows),
            providers: RouteSlab::json(providers_body),
            hhi: RouteSlab::json(hhi),
            tables,
            timeline: crate::history::TimelineIndex::build(timeline),
        }
    }

    /// The row tables behind the parameterized routes.
    pub(crate) fn tables(&self) -> &crate::query::QueryTables {
        &self.tables
    }

    /// The per-year series behind the history routes.
    pub fn timeline(&self) -> &crate::history::TimelineIndex {
        &self.timeline
    }

    /// The `/healthz` response slabs.
    pub fn healthz_slab(&self) -> &RouteSlab {
        &self.healthz
    }

    /// The `/countries` response slabs.
    pub fn countries_slab(&self) -> &RouteSlab {
        &self.countries
    }

    /// The `/country/{iso}` response slabs (exact uppercase ISO code).
    pub fn country_slab(&self, iso: &str) -> Option<&RouteSlab> {
        self.country.get(iso)
    }

    /// The `/flows` response slabs.
    pub fn flows_slab(&self) -> &RouteSlab {
        &self.flows
    }

    /// The `/providers` response slabs.
    pub fn providers_slab(&self) -> &RouteSlab {
        &self.providers
    }

    /// The `/hhi` response slabs.
    pub fn hhi_slab(&self) -> &RouteSlab {
        &self.hhi
    }

    /// How many countries have a `/country/{iso}` body.
    pub fn country_count(&self) -> usize {
        self.country.len()
    }
}

/// Render one `/country/{iso}` body.
fn render_country(
    code: CountryCode,
    dataset: &GovDataset,
    hosting: &HostingAnalysis,
    location: &LocationAnalysis,
    cross: &CrossBorderAnalysis,
    diversification: &DiversificationAnalysis,
) -> String {
    let mut out = String::from("{");
    let stats = dataset.country_stats(code).expect("listed country has stats");
    let _ = write!(
        out,
        "\"code\":{},\"region\":{},\"stats\":{{\"landing\":{},\"hostnames\":{},\"urls\":{},\"bytes\":{}}}",
        js(code.as_str()),
        region_of(code).map_or("null".to_string(), |r| js(r.code())),
        stats.landing,
        stats.hostnames,
        stats.urls,
        stats.bytes
    );
    match hosting.country(code) {
        Some(shares) => {
            out.push_str(",\"hosting\":{\"categories\":[");
            for (i, cat) in ProviderCategory::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"category\":{},\"urls\":{},\"bytes\":{}}}",
                    js(cat.label()),
                    jf(shares.urls[cat.index()]),
                    jf(shares.bytes[cat.index()])
                );
            }
            let _ = write!(
                out,
                "],\"third_party_urls\":{},\"third_party_bytes\":{},\"dominant\":{}}}",
                jf(shares.third_party_urls()),
                jf(shares.third_party_bytes()),
                js(shares.dominant_by_bytes().label())
            );
        }
        None => out.push_str(",\"hosting\":null"),
    }
    let _ = write!(
        out,
        ",\"served_domestic\":{},\"offshore_percent\":{}",
        location
            .geolocation_by_country
            .get(&code)
            .map_or("null".to_string(), |s| jf(s.domestic_fraction())),
        location.offshore_percent(code).map_or("null".to_string(), jf)
    );
    match diversification.per_country.get(&code) {
        Some(conc) => {
            let _ = write!(
                out,
                ",\"concentration\":{{\"dominant\":{},\"hhi_urls\":{},\"hhi_bytes\":{},\"top_network_byte_share\":{}}}",
                js(conc.dominant.label()),
                jf(conc.hhi_urls),
                jf(conc.hhi_bytes),
                jf(conc.top_network_byte_share)
            );
        }
        None => out.push_str(",\"concentration\":null"),
    }
    let _ = write!(
        out,
        ",\"flows\":{{\"registration\":{},\"served\":{}}}}}",
        render_outflows(&cross.registration, code),
        render_outflows(&cross.location, code)
    );
    out
}

/// Render one government's outflows, largest first (the matrix's own
/// deterministic order).
fn render_outflows(matrix: &FlowMatrix, code: CountryCode) -> String {
    let mut out = String::from("[");
    for (i, (dest, urls)) in matrix.outflows(code).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"to\":{},\"urls\":{}}}", js(dest.as_str()), urls);
    }
    out.push(']');
    out
}

/// Render one full flow matrix in sorted `(from, to)` order.
fn render_matrix(matrix: &FlowMatrix) -> String {
    let mut out = String::from("{\"total\":");
    let _ = write!(out, "{},\"flows\":[", matrix.total());
    for (i, (from, to, urls)) in matrix.sorted_flows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"from\":{},\"to\":{},\"urls\":{}}}",
            js(from.as_str()),
            js(to.as_str()),
            urls
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_worldgen::prelude::*;

    fn index() -> QueryIndex {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        QueryIndex::build(&dataset)
    }

    #[test]
    fn bodies_cover_every_route_and_country() {
        let idx = index();
        assert!(idx.healthz_slab().body_str().contains("\"status\":\"ok\""));
        assert!(idx.countries_slab().body_str().starts_with("{\"count\":"));
        assert!(idx.country_count() > 0);
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        for code in dataset.countries() {
            let body = idx.country_slab(code.as_str()).expect("every country has a body").body_str();
            assert!(body.contains(&format!("\"code\":\"{code}\"")));
        }
        assert!(idx.country_slab("ZZ").is_none());
        assert!(idx.flows_slab().body_str().contains("\"registration\""));
        assert!(idx.providers_slab().body_str().contains("\"providers\""));
        assert!(idx.hhi_slab().body_str().contains("\"countries\""));
    }

    #[test]
    fn bodies_are_pure_functions_of_the_dataset() {
        let a = index();
        let b = index();
        assert_eq!(a.countries_slab().body_str(), b.countries_slab().body_str());
        assert_eq!(a.flows_slab().body_str(), b.flows_slab().body_str());
        assert_eq!(a.providers_slab().body_str(), b.providers_slab().body_str());
        assert_eq!(a.hhi_slab().body_str(), b.hhi_slab().body_str());
    }

    #[test]
    fn etags_are_deterministic_and_body_dependent() {
        assert_eq!(etag_of(b"abc"), etag_of(b"abc"));
        assert_ne!(etag_of(b"abc"), etag_of(b"abd"));
        let tag = etag_of(b"x");
        assert!(tag.starts_with('"') && tag.ends_with('"') && tag.len() == 18, "{tag}");
        let idx = index();
        assert_ne!(idx.healthz_slab().etag(), idx.hhi_slab().etag());
        assert_eq!(idx.healthz_slab().etag(), etag_of(idx.healthz_slab().body_str().as_bytes()));
    }

    #[test]
    fn slabs_carry_matching_200_and_304_heads() {
        let idx = index();
        let ok = String::from_utf8(idx.flows_slab().ok().encode(true)).unwrap();
        let nm = String::from_utf8(idx.flows_slab().not_modified().encode(true)).unwrap();
        let etag_line = format!("ETag: {}\r\n", idx.flows_slab().etag());
        assert!(ok.contains(&etag_line), "{ok}");
        assert!(nm.contains(&etag_line), "{nm}");
        assert!(nm.starts_with("HTTP/1.1 304 Not Modified"), "{nm}");
        assert!(!nm.contains("Content-Length:"), "no Content-Length on a 304: {nm}");
        assert!(nm.ends_with("\r\n\r\n"), "304 body is empty: {nm}");
    }

    #[test]
    fn non_finite_values_render_as_null() {
        assert_eq!(jf(f64::NAN), "null");
        assert_eq!(jf(f64::INFINITY), "null");
        assert_eq!(jf(0.25), "0.25");
    }
}
