//! The parameterized query engine: parse → validate → plan → execute
//! over the built [`QueryIndex`], plus the bounded result cache and the
//! hot-swappable index handle.
//!
//! Three routes accept parameters — `/flows`, `/providers`, and
//! `/countries` — each with a small closed grammar (filter, sort,
//! paginate). Parsing is strict: an unknown parameter, a duplicate, or
//! a malformed value is a typed `400` ([`HttpError::InvalidQuery`])
//! naming the offending parameter, never a silent alias onto another
//! cache entry. A parsed query canonicalizes to a single string
//! (alphabetical parameter order, defaults filled in, floats through
//! Rust's shortest-roundtrip `Display`), so `?limit=50` and `?` -free
//! spellings of the same question share one cache key and one ETag.
//!
//! Execution is deterministic by the same argument as the fixed slabs:
//! the row tables (`QueryTables`) are pure functions of the dataset,
//! every sort has a total tie-break, and pagination is slicing. A cache
//! hit therefore returns byte-identical responses to a miss — the cache
//! is an optimization, never an observable.
//!
//! Bounding follows the `govhost-obs` cardinality conventions: the
//! result cache holds at most a fixed number of entries (deterministic
//! least-recently-used eviction), `limit` is capped, and parameter
//! values echoed into error details are clipped to
//! [`MAX_PARAM_ECHO`] characters (the obs label-value bound).

use crate::http::{percent_decode, HttpError};
use crate::index::{jf, js, QueryIndex, RouteSlab};
use govhost_core::crossborder::{CrossBorderAnalysis, FlowMatrix};
use govhost_core::dataset::{GovDataset, HostVolume};
use govhost_core::diversification::{CountryConcentration, DiversificationAnalysis};
use govhost_core::providers::ProviderAnalysis;
use govhost_types::{CountryCode, ProviderCategory, Region};
use govhost_worldgen::countries::region_of;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex, RwLock};

/// Longest parameter name or value echoed back in a `400` detail —
/// the same bound `govhost-obs` puts on label values.
pub const MAX_PARAM_ECHO: usize = 64;

/// Largest accepted `limit` value (and the hard page-size bound).
pub const MAX_LIMIT: usize = 500;

/// The `limit` applied when the query does not name one.
pub const DEFAULT_LIMIT: usize = 50;

/// Default capacity of the per-server result cache, in entries.
pub const DEFAULT_RESULT_CACHE: usize = 128;

// ---------------------------------------------------------------------
// Row tables: the filterable views the engine scans.
// ---------------------------------------------------------------------

/// One cross-border flow under one lens, with everything a filter or
/// sort can ask of it precomputed.
#[derive(Debug, Clone)]
pub(crate) struct FlowRow {
    pub(crate) from: CountryCode,
    pub(crate) to: CountryCode,
    /// URLs on this flow, all categories.
    pub(crate) urls: u64,
    /// URLs on this flow by provider category
    /// ([`ProviderCategory::index`] order). Hosts without a category
    /// count toward `urls` but no bucket.
    pub(crate) by_category: [u64; 4],
    /// The source government's total cross-border URLs under this lens
    /// — the share denominator (never zero: the row exists).
    pub(crate) out_total: u64,
}

/// One provider footprint row.
#[derive(Debug, Clone)]
pub(crate) struct ProviderRow {
    pub(crate) asn: u32,
    pub(crate) org: String,
    /// Countries served, sorted (so membership checks and rendering are
    /// deterministic).
    pub(crate) countries: Vec<CountryCode>,
    /// `(country, byte share)` of the provider's largest single-country
    /// byte share, when any bytes were observed.
    pub(crate) peak: Option<(CountryCode, f64)>,
}

/// One country row: dataset stats joined with concentration measures.
#[derive(Debug, Clone)]
pub(crate) struct CountryRow {
    pub(crate) code: CountryCode,
    pub(crate) region: Option<Region>,
    pub(crate) landing: u32,
    pub(crate) hostnames: u32,
    pub(crate) urls: u64,
    pub(crate) bytes: u64,
    /// Absent when the country had no attributable networks.
    pub(crate) concentration: Option<CountryConcentration>,
}

/// The precomputed row tables behind the three parameterized routes.
/// Built once per [`QueryIndex`] and immutable thereafter.
#[derive(Debug, Clone)]
pub(crate) struct QueryTables {
    pub(crate) flows_registration: Vec<FlowRow>,
    pub(crate) flows_served: Vec<FlowRow>,
    pub(crate) providers: Vec<ProviderRow>,
    pub(crate) countries: Vec<CountryRow>,
}

impl QueryTables {
    /// Derive the tables from the same analyses the fixed slabs render.
    pub(crate) fn build(
        dataset: &GovDataset,
        cross: &CrossBorderAnalysis,
        providers: &ProviderAnalysis,
        diversification: &DiversificationAnalysis,
    ) -> QueryTables {
        // Per-(from, to) category buckets under each lens. The flow
        // matrices only carry totals; categories need one more pass.
        let mut reg_cat: HashMap<(CountryCode, CountryCode), [u64; 4]> = HashMap::new();
        let mut loc_cat: HashMap<(CountryCode, CountryCode), [u64; 4]> = HashMap::new();
        for HostVolume { host, urls, .. } in dataset.host_volumes() {
            let Some(cat) = host.category else { continue };
            if let Some(reg) = host.registration {
                if reg != host.country {
                    reg_cat.entry((host.country, reg)).or_default()[cat.index()] += urls;
                }
            }
            if let Some(loc) = host.server_country {
                if loc != host.country {
                    loc_cat.entry((host.country, loc)).or_default()[cat.index()] += urls;
                }
            }
        }
        let flow_rows = |matrix: &FlowMatrix,
                         cats: &HashMap<(CountryCode, CountryCode), [u64; 4]>|
         -> Vec<FlowRow> {
            let mut totals: HashMap<CountryCode, u64> = HashMap::new();
            for ((src, _), n) in &matrix.flows {
                *totals.entry(*src).or_default() += n;
            }
            matrix
                .sorted_flows()
                .into_iter()
                .map(|(from, to, urls)| FlowRow {
                    from,
                    to,
                    urls,
                    by_category: cats.get(&(from, to)).copied().unwrap_or([0; 4]),
                    out_total: totals[&from],
                })
                .collect()
        };
        let mut countries: Vec<CountryRow> = dataset
            .countries()
            .into_iter()
            .map(|code| {
                let stats = dataset.country_stats(code).expect("listed country has stats");
                CountryRow {
                    code,
                    region: region_of(code),
                    landing: stats.landing,
                    hostnames: stats.hostnames,
                    urls: stats.urls,
                    bytes: stats.bytes,
                    concentration: diversification.per_country.get(&code).copied(),
                }
            })
            .collect();
        countries.sort_by_key(|row| row.code);
        QueryTables {
            flows_registration: flow_rows(&cross.registration, &reg_cat),
            flows_served: flow_rows(&cross.location, &loc_cat),
            providers: providers
                .providers
                .iter()
                .map(|p| ProviderRow {
                    asn: p.asn.0,
                    org: p.org.clone(),
                    countries: p.countries_sorted(),
                    peak: p.peak_share(),
                })
                .collect(),
            countries,
        }
    }
}

// ---------------------------------------------------------------------
// Parsing: raw query string -> typed per-route query.
// ---------------------------------------------------------------------

/// Clip a parameter name or value for echoing into an error detail
/// (char-boundary safe, bounded by [`MAX_PARAM_ECHO`]).
fn echo(s: &str) -> &str {
    if s.len() <= MAX_PARAM_ECHO {
        return s;
    }
    let mut end = MAX_PARAM_ECHO;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn bad(msg: String) -> HttpError {
    HttpError::InvalidQuery(msg)
}

/// Split and strictly percent-decode a raw query string into
/// `(key, value)` pairs. `&`-separated segments, first `=` splits key
/// from value, empty segments are skipped, and each component decodes
/// separately (so `%26` inside a value never becomes a separator).
pub(crate) fn parse_pairs(raw: &str) -> Result<Vec<(String, String)>, HttpError> {
    let mut out = Vec::new();
    for segment in raw.split('&') {
        if segment.is_empty() {
            continue;
        }
        let (rk, rv) = match segment.find('=') {
            Some(eq) => (&segment[..eq], &segment[eq + 1..]),
            None => (segment, ""),
        };
        let key = percent_decode(rk)
            .map_err(|e| bad(format!("malformed parameter name \"{}\": {e}", echo(rk))))?;
        let value = percent_decode(rv)
            .map_err(|e| bad(format!("malformed value for parameter \"{}\": {e}", echo(&key))))?;
        out.push((key, value));
    }
    Ok(out)
}

/// Reject any parameter on a route that takes none. The detail names
/// the first parameter seen so the client knows what to remove.
pub(crate) fn reject_params(raw: &str) -> Result<(), HttpError> {
    let pairs = parse_pairs(raw)?;
    match pairs.first() {
        None => Ok(()),
        Some((key, _)) => {
            Err(bad(format!("parameter \"{}\" is not accepted on this route", echo(key))))
        }
    }
}

/// A country-scope filter: everything, the EU, one World Bank region,
/// or one country. Region codes win over ISO codes on collisions
/// (`NA`, `SA`), documented in the README.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scope {
    Any,
    Eu,
    Region(Region),
    Country(CountryCode),
}

impl Scope {
    fn parse(value: &str, param: &str, allow_country: bool) -> Result<Scope, HttpError> {
        if value == "*" {
            return Ok(Scope::Any);
        }
        if value.eq_ignore_ascii_case("EU") {
            return Ok(Scope::Eu);
        }
        if let Ok(region) = value.parse::<Region>() {
            return Ok(Scope::Region(region));
        }
        if allow_country {
            if let Ok(code) = value.to_ascii_uppercase().parse::<CountryCode>() {
                return Ok(Scope::Country(code));
            }
        }
        let expected = if allow_country {
            "expected \"*\", \"EU\", a region code, or an ISO country code"
        } else {
            "expected \"*\", \"EU\", or a region code"
        };
        Err(bad(format!("invalid value \"{}\" for parameter \"{param}\": {expected}", echo(value))))
    }

    fn matches(&self, code: CountryCode) -> bool {
        match self {
            Scope::Any => true,
            Scope::Eu => govhost_worldgen::countries::is_eu(code),
            Scope::Region(region) => region_of(code) == Some(*region),
            Scope::Country(c) => *c == code,
        }
    }

    /// The canonical spelling (uppercase codes, `*` for "everything").
    fn canonical(&self) -> String {
        match self {
            Scope::Any => "*".to_string(),
            Scope::Eu => "EU".to_string(),
            Scope::Region(region) => region.code().to_string(),
            Scope::Country(code) => code.as_str().to_string(),
        }
    }
}

/// Which flow matrix `/flows` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lens {
    Registration,
    Served,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowSort {
    Urls,
    Share,
    From,
    To,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProviderSort {
    Countries,
    Asn,
    PeakShare,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CountrySort {
    Code,
    Urls,
    Bytes,
    Hhi,
}

/// A validated `/flows` query.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowsQuery {
    lens: Lens,
    from: Scope,
    to: Scope,
    category: Option<ProviderCategory>,
    min_share: f64,
    sort: FlowSort,
    limit: usize,
    offset: usize,
}

/// A validated `/providers` query.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvidersQuery {
    country: Option<CountryCode>,
    min_countries: usize,
    sort: ProviderSort,
    limit: usize,
    offset: usize,
}

/// A validated `/countries` query.
#[derive(Debug, Clone, PartialEq)]
pub struct CountriesQuery {
    region: Scope,
    sort: CountrySort,
    limit: usize,
    offset: usize,
}

/// A parsed, validated query for one of the parameterized routes.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteQuery {
    /// `/flows?lens=&from=&to=&category=&min_share=&sort=&limit=&offset=`
    Flows(FlowsQuery),
    /// `/providers?country=&min_countries=&sort=&limit=&offset=`
    Providers(ProvidersQuery),
    /// `/countries?region=&sort=&limit=&offset=`
    Countries(CountriesQuery),
}

/// Tracks one parameter slot while parsing: rejects duplicates, knows
/// whether a value was seen.
struct Slot<'a> {
    name: &'static str,
    value: Option<&'a str>,
}

impl<'a> Slot<'a> {
    fn new(name: &'static str) -> Slot<'a> {
        Slot { name, value: None }
    }

    fn set(&mut self, value: &'a str) -> Result<(), HttpError> {
        if self.value.is_some() {
            return Err(bad(format!("duplicate parameter \"{}\"", self.name)));
        }
        self.value = Some(value);
        Ok(())
    }
}

/// Fill the matching slot for `key`, or fail naming the unknown key.
fn assign<'a>(
    slots: &mut [&mut Slot<'a>],
    key: &str,
    value: &'a str,
) -> Result<(), HttpError> {
    for slot in slots.iter_mut() {
        if slot.name == key {
            return slot.set(value);
        }
    }
    Err(bad(format!("unknown parameter \"{}\"", echo(key))))
}

fn parse_limit(slot: &Slot<'_>) -> Result<usize, HttpError> {
    let Some(raw) = slot.value else { return Ok(DEFAULT_LIMIT) };
    match raw.parse::<usize>() {
        Ok(n) if (1..=MAX_LIMIT).contains(&n) => Ok(n),
        _ => Err(bad(format!(
            "invalid value \"{}\" for parameter \"limit\": expected an integer in 1..={MAX_LIMIT}",
            echo(raw)
        ))),
    }
}

fn parse_offset(slot: &Slot<'_>) -> Result<usize, HttpError> {
    let Some(raw) = slot.value else { return Ok(0) };
    raw.parse::<usize>().map_err(|_| {
        bad(format!(
            "invalid value \"{}\" for parameter \"offset\": expected a non-negative integer",
            echo(raw)
        ))
    })
}

fn parse_unsigned(slot: &Slot<'_>, default: usize) -> Result<usize, HttpError> {
    let Some(raw) = slot.value else { return Ok(default) };
    raw.parse::<usize>().map_err(|_| {
        bad(format!(
            "invalid value \"{}\" for parameter \"{}\": expected a non-negative integer",
            echo(raw),
            slot.name
        ))
    })
}

fn category_slug(category: ProviderCategory) -> &'static str {
    match category {
        ProviderCategory::GovtSoe => "govt_soe",
        ProviderCategory::ThirdPartyLocal => "3p_local",
        ProviderCategory::ThirdPartyRegional => "3p_regional",
        ProviderCategory::ThirdPartyGlobal => "3p_global",
    }
}

fn parse_category(slot: &Slot<'_>) -> Result<Option<ProviderCategory>, HttpError> {
    let Some(raw) = slot.value else { return Ok(None) };
    if raw == "*" {
        return Ok(None);
    }
    ProviderCategory::ALL
        .into_iter()
        .find(|c| category_slug(*c) == raw)
        .map(Some)
        .ok_or_else(|| {
            bad(format!(
                "invalid value \"{}\" for parameter \"category\": expected \"*\", \"govt_soe\", \"3p_local\", \"3p_regional\", or \"3p_global\"",
                echo(raw)
            ))
        })
}

/// Validated parameters of the three history routes
/// (`/hhi/history`, `/country/{iso}/history`,
/// `/providers/{name}/history`): an inclusive year window plus
/// pagination. Parsing follows the same strict grammar as
/// [`RouteQuery`] — unknown or duplicate parameters and malformed
/// values are typed `400`s naming the offender.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryParams {
    /// First year included (`None` = from year 0).
    from: Option<u32>,
    /// Last year included (`None` = through the latest year).
    to: Option<u32>,
    limit: usize,
    offset: usize,
}

impl HistoryParams {
    /// Parse and validate a history route's raw query string.
    pub fn parse(raw: &str) -> Result<HistoryParams, HttpError> {
        let pairs = parse_pairs(raw)?;
        let mut from = Slot::new("from");
        let mut to = Slot::new("to");
        let mut limit = Slot::new("limit");
        let mut offset = Slot::new("offset");
        for (key, value) in &pairs {
            assign(&mut [&mut from, &mut to, &mut limit, &mut offset], key, value)?;
        }
        let parse_year = |slot: &Slot<'_>| -> Result<Option<u32>, HttpError> {
            match slot.value {
                None | Some("*") => Ok(None),
                Some(raw) => raw.parse::<u32>().map(Some).map_err(|_| {
                    bad(format!(
                        "invalid value \"{}\" for parameter \"{}\": expected \"*\" or a non-negative year",
                        echo(raw),
                        slot.name
                    ))
                }),
            }
        };
        Ok(HistoryParams {
            from: parse_year(&from)?,
            to: parse_year(&to)?,
            limit: parse_limit(&limit)?,
            offset: parse_offset(&offset)?,
        })
    }

    /// Whether `year` falls inside the requested window.
    pub(crate) fn contains_year(&self, year: u32) -> bool {
        self.from.is_none_or(|f| year >= f) && self.to.is_none_or(|t| year <= t)
    }

    /// The page size in effect.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// The page offset in effect.
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// The canonical query string (alphabetical parameters, defaults
    /// filled in, `*` for an open window end) — the cache-key suffix.
    pub fn canonical(&self) -> String {
        format!(
            "from={}&limit={}&offset={}&to={}",
            self.from.map_or("*".to_string(), |v| v.to_string()),
            self.limit,
            self.offset,
            self.to.map_or("*".to_string(), |v| v.to_string()),
        )
    }
}

impl RouteQuery {
    /// Parse and validate the raw query string of one parameterized
    /// route. `route` must be one of `/flows`, `/providers`,
    /// `/countries`.
    pub fn parse(route: &str, raw: &str) -> Result<RouteQuery, HttpError> {
        let pairs = parse_pairs(raw)?;
        match route {
            "/flows" => Self::parse_flows(&pairs),
            "/providers" => Self::parse_providers(&pairs),
            "/countries" => Self::parse_countries(&pairs),
            _ => unreachable!("RouteQuery::parse is only called for parameterized routes"),
        }
    }

    fn parse_flows(pairs: &[(String, String)]) -> Result<RouteQuery, HttpError> {
        let mut lens = Slot::new("lens");
        let mut from = Slot::new("from");
        let mut to = Slot::new("to");
        let mut category = Slot::new("category");
        let mut min_share = Slot::new("min_share");
        let mut sort = Slot::new("sort");
        let mut limit = Slot::new("limit");
        let mut offset = Slot::new("offset");
        for (key, value) in pairs {
            assign(
                &mut [
                    &mut lens,
                    &mut from,
                    &mut to,
                    &mut category,
                    &mut min_share,
                    &mut sort,
                    &mut limit,
                    &mut offset,
                ],
                key,
                value,
            )?;
        }
        let lens = match lens.value {
            None | Some("served") => Lens::Served,
            Some("registration") => Lens::Registration,
            Some(other) => {
                return Err(bad(format!(
                    "invalid value \"{}\" for parameter \"lens\": expected \"registration\" or \"served\"",
                    echo(other)
                )))
            }
        };
        let from = match from.value {
            None => Scope::Any,
            Some(v) => Scope::parse(v, "from", true)?,
        };
        let to = match to.value {
            None => Scope::Any,
            Some(v) => Scope::parse(v, "to", true)?,
        };
        let category = parse_category(&category)?;
        let min_share = match min_share.value {
            None => 0.0,
            Some(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() && (0.0..=1.0).contains(&v) => v,
                _ => {
                    return Err(bad(format!(
                        "invalid value \"{}\" for parameter \"min_share\": expected a number in 0..=1",
                        echo(raw)
                    )))
                }
            },
        };
        let sort = match sort.value {
            None | Some("urls") => FlowSort::Urls,
            Some("share") => FlowSort::Share,
            Some("from") => FlowSort::From,
            Some("to") => FlowSort::To,
            Some(other) => {
                return Err(bad(format!(
                    "invalid value \"{}\" for parameter \"sort\": expected \"urls\", \"share\", \"from\", or \"to\"",
                    echo(other)
                )))
            }
        };
        Ok(RouteQuery::Flows(FlowsQuery {
            lens,
            from,
            to,
            category,
            min_share,
            sort,
            limit: parse_limit(&limit)?,
            offset: parse_offset(&offset)?,
        }))
    }

    fn parse_providers(pairs: &[(String, String)]) -> Result<RouteQuery, HttpError> {
        let mut country = Slot::new("country");
        let mut min_countries = Slot::new("min_countries");
        let mut sort = Slot::new("sort");
        let mut limit = Slot::new("limit");
        let mut offset = Slot::new("offset");
        for (key, value) in pairs {
            assign(
                &mut [&mut country, &mut min_countries, &mut sort, &mut limit, &mut offset],
                key,
                value,
            )?;
        }
        let country = match country.value {
            None | Some("*") => None,
            Some(raw) => match raw.to_ascii_uppercase().parse::<CountryCode>() {
                Ok(code) => Some(code),
                Err(_) => {
                    return Err(bad(format!(
                        "invalid value \"{}\" for parameter \"country\": expected \"*\" or an ISO country code",
                        echo(raw)
                    )))
                }
            },
        };
        let sort = match sort.value {
            None | Some("countries") => ProviderSort::Countries,
            Some("asn") => ProviderSort::Asn,
            Some("peak_share") => ProviderSort::PeakShare,
            Some(other) => {
                return Err(bad(format!(
                    "invalid value \"{}\" for parameter \"sort\": expected \"countries\", \"asn\", or \"peak_share\"",
                    echo(other)
                )))
            }
        };
        Ok(RouteQuery::Providers(ProvidersQuery {
            country,
            min_countries: parse_unsigned(&min_countries, 0)?,
            sort,
            limit: parse_limit(&limit)?,
            offset: parse_offset(&offset)?,
        }))
    }

    fn parse_countries(pairs: &[(String, String)]) -> Result<RouteQuery, HttpError> {
        let mut region = Slot::new("region");
        let mut sort = Slot::new("sort");
        let mut limit = Slot::new("limit");
        let mut offset = Slot::new("offset");
        for (key, value) in pairs {
            assign(&mut [&mut region, &mut sort, &mut limit, &mut offset], key, value)?;
        }
        let region = match region.value {
            None => Scope::Any,
            Some(v) => Scope::parse(v, "region", false)?,
        };
        let sort = match sort.value {
            None | Some("code") => CountrySort::Code,
            Some("urls") => CountrySort::Urls,
            Some("bytes") => CountrySort::Bytes,
            Some("hhi") => CountrySort::Hhi,
            Some(other) => {
                return Err(bad(format!(
                    "invalid value \"{}\" for parameter \"sort\": expected \"code\", \"urls\", \"bytes\", or \"hhi\"",
                    echo(other)
                )))
            }
        };
        Ok(RouteQuery::Countries(CountriesQuery {
            region,
            sort,
            limit: parse_limit(&limit)?,
            offset: parse_offset(&offset)?,
        }))
    }

    /// The route this query executes against.
    pub fn route(&self) -> &'static str {
        match self {
            RouteQuery::Flows(_) => "/flows",
            RouteQuery::Providers(_) => "/providers",
            RouteQuery::Countries(_) => "/countries",
        }
    }

    /// The canonical query string: every parameter, alphabetical order,
    /// defaults filled in. Two raw queries asking the same question
    /// canonicalize identically, so they share a cache key and an ETag.
    pub fn canonical(&self) -> String {
        match self {
            RouteQuery::Flows(q) => format!(
                "category={}&from={}&lens={}&limit={}&min_share={}&offset={}&sort={}&to={}",
                q.category.map_or("*", category_slug),
                q.from.canonical(),
                match q.lens {
                    Lens::Registration => "registration",
                    Lens::Served => "served",
                },
                q.limit,
                q.min_share,
                q.offset,
                match q.sort {
                    FlowSort::Urls => "urls",
                    FlowSort::Share => "share",
                    FlowSort::From => "from",
                    FlowSort::To => "to",
                },
                q.to.canonical(),
            ),
            RouteQuery::Providers(q) => format!(
                "country={}&limit={}&min_countries={}&offset={}&sort={}",
                q.country.map_or("*".to_string(), |c| c.as_str().to_string()),
                q.limit,
                q.min_countries,
                q.offset,
                match q.sort {
                    ProviderSort::Countries => "countries",
                    ProviderSort::Asn => "asn",
                    ProviderSort::PeakShare => "peak_share",
                },
            ),
            RouteQuery::Countries(q) => format!(
                "limit={}&offset={}&region={}&sort={}",
                q.limit,
                q.offset,
                q.region.canonical(),
                match q.sort {
                    CountrySort::Code => "code",
                    CountrySort::Urls => "urls",
                    CountrySort::Bytes => "bytes",
                    CountrySort::Hhi => "hhi",
                },
            ),
        }
    }

    /// The result-cache key: route plus canonical query.
    pub fn cache_key(&self) -> String {
        format!("{}?{}", self.route(), self.canonical())
    }

    /// Execute against an index, rendering the full JSON body. Pure:
    /// the same query over the same index yields the same bytes.
    pub fn execute(&self, index: &QueryIndex) -> String {
        let tables = index.tables();
        match self {
            RouteQuery::Flows(q) => q.execute(tables),
            RouteQuery::Providers(q) => q.execute(tables),
            RouteQuery::Countries(q) => q.execute(tables),
        }
    }
}

/// Render the shared response envelope around pre-rendered rows.
pub(crate) fn envelope(
    route: &str,
    canonical: &str,
    total: usize,
    offset: usize,
    limit: usize,
    rows: &[String],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"route\":{},\"query\":{},\"total\":{},\"offset\":{},\"limit\":{},\"count\":{},\"results\":[",
        js(route),
        js(canonical),
        total,
        offset,
        limit,
        rows.len()
    );
    out.push_str(&rows.join(","));
    out.push_str("]}");
    out
}

/// Slice one page out of the matched rows.
pub(crate) fn page<T>(rows: &[T], offset: usize, limit: usize) -> &[T] {
    let start = offset.min(rows.len());
    let end = (start + limit).min(rows.len());
    &rows[start..end]
}

impl FlowsQuery {
    fn execute(&self, tables: &QueryTables) -> String {
        let table = match self.lens {
            Lens::Registration => &tables.flows_registration,
            Lens::Served => &tables.flows_served,
        };
        // Plan: filter -> sort -> paginate over (row, selected urls,
        // share). `selected` is the category-filtered count; the share
        // denominator stays all-category so thresholds mean "share of
        // everything this government sends abroad".
        let mut matched: Vec<(&FlowRow, u64, f64)> = Vec::new();
        for row in table {
            if !self.from.matches(row.from) || !self.to.matches(row.to) {
                continue;
            }
            let selected = match self.category {
                Some(cat) => row.by_category[cat.index()],
                None => row.urls,
            };
            if selected == 0 {
                continue;
            }
            let share = selected as f64 / row.out_total as f64;
            if share < self.min_share {
                continue;
            }
            matched.push((row, selected, share));
        }
        match self.sort {
            // `sorted_flows` order is already (from, to) ascending.
            FlowSort::From => {}
            FlowSort::To => matched.sort_by_key(|(row, _, _)| (row.to, row.from)),
            FlowSort::Urls => {
                matched.sort_by(|(a, an, _), (b, bn, _)| {
                    bn.cmp(an).then_with(|| (a.from, a.to).cmp(&(b.from, b.to)))
                });
            }
            FlowSort::Share => {
                matched.sort_by(|(a, _, ashare), (b, _, bshare)| {
                    bshare
                        .total_cmp(ashare)
                        .then_with(|| (a.from, a.to).cmp(&(b.from, b.to)))
                });
            }
        }
        let rows: Vec<String> = page(&matched, self.offset, self.limit)
            .iter()
            .map(|(row, selected, share)| {
                format!(
                    "{{\"from\":{},\"to\":{},\"urls\":{},\"share\":{}}}",
                    js(row.from.as_str()),
                    js(row.to.as_str()),
                    selected,
                    jf(*share)
                )
            })
            .collect();
        envelope("/flows", &self.canonical_str(), matched.len(), self.offset, self.limit, &rows)
    }

    fn canonical_str(&self) -> String {
        RouteQuery::Flows(self.clone()).canonical()
    }
}

impl ProvidersQuery {
    fn execute(&self, tables: &QueryTables) -> String {
        let mut matched: Vec<&ProviderRow> = tables
            .providers
            .iter()
            .filter(|row| {
                row.countries.len() >= self.min_countries
                    && self.country.is_none_or(|c| row.countries.binary_search(&c).is_ok())
            })
            .collect();
        match self.sort {
            ProviderSort::Countries => {
                matched.sort_by(|a, b| {
                    b.countries.len().cmp(&a.countries.len()).then_with(|| a.asn.cmp(&b.asn))
                });
            }
            ProviderSort::Asn => matched.sort_by_key(|row| row.asn),
            ProviderSort::PeakShare => {
                // Descending by peak share; providers without one last.
                matched.sort_by(|a, b| match (a.peak, b.peak) {
                    (Some((_, ap)), Some((_, bp))) => {
                        bp.total_cmp(&ap).then_with(|| a.asn.cmp(&b.asn))
                    }
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (None, None) => a.asn.cmp(&b.asn),
                });
            }
        }
        let rows: Vec<String> = page(&matched, self.offset, self.limit)
            .iter()
            .map(|row| {
                format!(
                    "{{\"asn\":{},\"org\":{},\"country_count\":{},\"peak_country\":{},\"peak_byte_share\":{}}}",
                    row.asn,
                    js(&row.org),
                    row.countries.len(),
                    row.peak.map_or("null".to_string(), |(c, _)| js(c.as_str())),
                    row.peak.map_or("null".to_string(), |(_, s)| jf(s)),
                )
            })
            .collect();
        envelope(
            "/providers",
            &RouteQuery::Providers(self.clone()).canonical(),
            matched.len(),
            self.offset,
            self.limit,
            &rows,
        )
    }
}

impl CountriesQuery {
    fn execute(&self, tables: &QueryTables) -> String {
        let mut matched: Vec<&CountryRow> =
            tables.countries.iter().filter(|row| self.region.matches(row.code)).collect();
        match self.sort {
            // The table is already in code order.
            CountrySort::Code => {}
            CountrySort::Urls => {
                matched.sort_by(|a, b| b.urls.cmp(&a.urls).then_with(|| a.code.cmp(&b.code)));
            }
            CountrySort::Bytes => {
                matched.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.code.cmp(&b.code)));
            }
            CountrySort::Hhi => {
                // Descending by URL-level HHI; countries without
                // concentration measures last.
                matched.sort_by(|a, b| {
                    match (&a.concentration, &b.concentration) {
                        (Some(ac), Some(bc)) => bc
                            .hhi_urls
                            .total_cmp(&ac.hhi_urls)
                            .then_with(|| a.code.cmp(&b.code)),
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, Some(_)) => std::cmp::Ordering::Greater,
                        (None, None) => a.code.cmp(&b.code),
                    }
                });
            }
        }
        let rows: Vec<String> = page(&matched, self.offset, self.limit)
            .iter()
            .map(|row| {
                let mut out = format!(
                    "{{\"code\":{},\"region\":{},\"landing\":{},\"hostnames\":{},\"urls\":{},\"bytes\":{}",
                    js(row.code.as_str()),
                    row.region.map_or("null".to_string(), |r| js(r.code())),
                    row.landing,
                    row.hostnames,
                    row.urls,
                    row.bytes,
                );
                match &row.concentration {
                    Some(conc) => {
                        let _ = write!(
                            out,
                            ",\"hhi_urls\":{},\"hhi_bytes\":{},\"dominant\":{}}}",
                            jf(conc.hhi_urls),
                            jf(conc.hhi_bytes),
                            js(conc.dominant.label()),
                        );
                    }
                    None => out.push_str(",\"hhi_urls\":null,\"hhi_bytes\":null,\"dominant\":null}"),
                }
                out
            })
            .collect();
        envelope(
            "/countries",
            &RouteQuery::Countries(self.clone()).canonical(),
            matched.len(),
            self.offset,
            self.limit,
            &rows,
        )
    }
}

// ---------------------------------------------------------------------
// The bounded result cache.
// ---------------------------------------------------------------------

/// What a cache probe observed — the router turns these into
/// `http.query_cache` counter increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The canonical key was present.
    Hit,
    /// The key was absent; the caller rendered and inserted.
    Miss,
}

/// A bounded, deterministic LRU cache of rendered query results.
///
/// Keys are canonical `route?query` strings; values are fully rendered
/// [`RouteSlab`]s (head + ETag + body), so a hit is an `Arc` bump like
/// a fixed-route answer. Eviction removes the least-recently-used
/// entry; recency ticks come from a logical counter, not wall time, so
/// behaviour is reproducible. An epoch guard makes invalidation
/// atomic with respect to index swaps: entries rendered against an old
/// index cannot be inserted after the swap bumped the epoch.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    epoch: u64,
    tick: u64,
    /// Keyed by request-derived strings, so it keeps the standard
    /// library's randomly keyed hasher; the workspace's deterministic
    /// `DetHasher` is for generated keys only.
    map: HashMap<String, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    slab: Arc<RouteSlab>,
    last_used: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` rendered results. Capacity
    /// zero disables caching (every probe is a miss, nothing inserts).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { capacity, inner: Mutex::new(CacheInner::default()) }
    }

    /// The current invalidation epoch. Read it *before* loading the
    /// index you render against, and pass it to [`ResultCache::insert`]
    /// — a swap between the two bumps the epoch and the stale insert is
    /// dropped.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("cache lock").epoch
    }

    /// Look up a canonical key, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<RouteSlab>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.slab.clone())
    }

    /// Insert a rendered result, evicting the least-recently-used entry
    /// when full. Returns `true` when an eviction happened. Inserts
    /// from before an invalidation (stale `epoch`) are dropped.
    pub fn insert(&self, key: String, slab: Arc<RouteSlab>, epoch: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.epoch != epoch {
            return false;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            // A concurrent miss on the same key already inserted; keep
            // the existing slab (byte-identical by determinism).
            entry.last_used = tick;
            return false;
        }
        let mut evicted = false;
        if inner.map.len() == self.capacity {
            // Ticks are unique, so the minimum is unique and eviction
            // is deterministic given the access history.
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache is non-empty when full");
            inner.map.remove(&oldest);
            evicted = true;
        }
        inner.map.insert(key, CacheEntry { slab, last_used: tick });
        evicted
    }

    /// Drop every entry and bump the epoch, so in-flight renders
    /// against the old index cannot repopulate the cache.
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.epoch += 1;
        inner.map.clear();
    }

    /// How many rendered results are currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// The hot-swappable index handle.
// ---------------------------------------------------------------------

/// An atomically swappable handle to the current [`QueryIndex`].
///
/// Readers take an `Arc` snapshot ([`IndexHandle::load`]) and serve
/// from it unlocked — a concurrent [`IndexHandle::swap`] never blocks
/// or tears an in-flight response; the old index stays alive until its
/// last reader drops it. The workspace is zero-dependency, so the
/// "arc-swap" is a `RwLock<Arc<_>>` whose critical sections are a
/// clone and a pointer replace.
#[derive(Debug)]
pub struct IndexHandle {
    inner: RwLock<Arc<QueryIndex>>,
}

impl IndexHandle {
    /// Wrap an index for serving.
    pub fn new(index: QueryIndex) -> IndexHandle {
        IndexHandle { inner: RwLock::new(Arc::new(index)) }
    }

    /// Snapshot the current index (an `Arc` bump).
    pub fn load(&self) -> Arc<QueryIndex> {
        self.inner.read().expect("index lock").clone()
    }

    /// Replace the served index, returning the one it displaced.
    pub fn swap(&self, next: QueryIndex) -> Arc<QueryIndex> {
        let mut slot = self.inner.write().expect("index lock");
        std::mem::replace(&mut *slot, Arc::new(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_core::dataset::BuildOptions;
    use govhost_worldgen::prelude::*;

    fn index() -> QueryIndex {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        QueryIndex::build(&dataset)
    }

    fn slab_for(idx: &QueryIndex, route: &str, raw: &str) -> String {
        RouteQuery::parse(route, raw).unwrap().execute(idx)
    }

    #[test]
    fn canonicalization_fills_defaults_and_sorts_params() {
        let q = RouteQuery::parse("/flows", "").unwrap();
        assert_eq!(
            q.canonical(),
            "category=*&from=*&lens=served&limit=50&min_share=0&offset=0&sort=urls&to=*"
        );
        // Different spellings of the same question share one key.
        let a = RouteQuery::parse("/flows", "min_share=0.10&from=eu").unwrap();
        let b = RouteQuery::parse("/flows", "from=EU&min_share=1e-1").unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert!(a.cache_key().starts_with("/flows?"));
        let q = RouteQuery::parse("/countries", "sort=hhi").unwrap();
        assert_eq!(q.canonical(), "limit=50&offset=0&region=*&sort=hhi");
    }

    #[test]
    fn region_codes_win_over_iso_collisions() {
        // "NA" is both the North America region and Namibia's ISO code;
        // the region interpretation wins (documented in the README).
        let q = RouteQuery::parse("/flows", "from=NA").unwrap();
        let RouteQuery::Flows(f) = &q else { panic!() };
        assert_eq!(f.from, Scope::Region(Region::NorthAmerica));
        // Lowercase parses the same way.
        let q = RouteQuery::parse("/flows", "from=na").unwrap();
        let RouteQuery::Flows(f) = &q else { panic!() };
        assert_eq!(f.from, Scope::Region(Region::NorthAmerica));
        // Codes that are no region fall through to countries.
        let q = RouteQuery::parse("/flows", "from=us").unwrap();
        let RouteQuery::Flows(f) = &q else { panic!() };
        assert_eq!(f.from, Scope::Country("US".parse().unwrap()));
    }

    #[test]
    fn invalid_parameters_name_the_offender() {
        for (route, raw, needle) in [
            ("/flows", "verbose=1", "unknown parameter \"verbose\""),
            ("/flows", "limit=0", "parameter \"limit\""),
            ("/flows", "limit=9999", "parameter \"limit\""),
            ("/flows", "limit=5&limit=6", "duplicate parameter \"limit\""),
            ("/flows", "min_share=2", "parameter \"min_share\""),
            ("/flows", "min_share=nan", "parameter \"min_share\""),
            ("/flows", "lens=x", "parameter \"lens\""),
            ("/flows", "from=XYZ", "parameter \"from\""),
            ("/flows", "category=cdn", "parameter \"category\""),
            ("/providers", "country=123", "parameter \"country\""),
            ("/providers", "min_countries=-1", "parameter \"min_countries\""),
            ("/countries", "region=US", "parameter \"region\""),
            ("/countries", "sort=hhi2", "parameter \"sort\""),
            ("/countries", "x=%zz", "malformed value for parameter \"x\""),
        ] {
            let err = RouteQuery::parse(route, raw).unwrap_err();
            let HttpError::InvalidQuery(detail) = &err else {
                panic!("expected InvalidQuery for {route}?{raw}, got {err:?}");
            };
            assert!(detail.contains(needle), "{route}?{raw}: {detail}");
        }
    }

    #[test]
    fn reject_params_names_the_first_parameter() {
        assert!(reject_params("").is_ok());
        assert!(reject_params("&&").is_ok());
        let err = reject_params("verbose=1&x=2").unwrap_err();
        assert!(err.detail().contains("\"verbose\""), "{err}");
    }

    #[test]
    fn execution_is_pure_and_filters_compose() {
        let idx = index();
        let a = slab_for(&idx, "/flows", "sort=share&limit=5");
        let b = slab_for(&idx, "/flows", "limit=5&sort=share");
        assert_eq!(a, b, "parameter order cannot matter");
        assert!(a.starts_with("{\"route\":\"/flows\""), "{a}");

        // min_share=1 keeps only governments with a single destination.
        let all = slab_for(&idx, "/flows", "limit=500");
        let solo = slab_for(&idx, "/flows", "min_share=1&limit=500");
        let total = |body: &str| -> usize {
            let t = body.split("\"total\":").nth(1).unwrap();
            t[..t.find(',').unwrap()].parse().unwrap()
        };
        assert!(total(&solo) <= total(&all));

        // Offset pagination tiles the result set without overlap.
        let page1 = slab_for(&idx, "/countries", "limit=3");
        let page2 = slab_for(&idx, "/countries", "limit=3&offset=3");
        assert_ne!(page1, page2);
        assert!(total(&page1) == total(&page2), "total is page-independent");
    }

    #[test]
    fn provider_and_country_filters_match_route_semantics() {
        let idx = index();
        let body = slab_for(&idx, "/providers", "min_countries=2&sort=peak_share&limit=500");
        assert!(body.contains("\"route\":\"/providers\""));
        let eu = slab_for(&idx, "/countries", "region=EU&limit=500");
        let all = slab_for(&idx, "/countries", "limit=500");
        let total = |body: &str| -> usize {
            let t = body.split("\"total\":").nth(1).unwrap();
            t[..t.find(',').unwrap()].parse().unwrap()
        };
        assert!(total(&eu) < total(&all), "the EU is a strict subset");
    }

    #[test]
    fn cache_hits_misses_and_deterministic_eviction() {
        let cache = ResultCache::new(2);
        let idx = index();
        let slab = |raw: &str| {
            Arc::new(RouteSlab::json(slab_for(&idx, "/flows", raw)))
        };
        let epoch = cache.epoch();
        assert!(cache.get("/flows?a").is_none());
        assert!(!cache.insert("/flows?a".into(), slab("limit=1"), epoch));
        assert!(!cache.insert("/flows?b".into(), slab("limit=2"), epoch));
        assert!(cache.get("/flows?a").is_some(), "refreshes a's recency");
        // Full: inserting c evicts b (least recently used).
        assert!(cache.insert("/flows?c".into(), slab("limit=3"), epoch));
        assert!(cache.get("/flows?b").is_none(), "b was evicted");
        assert!(cache.get("/flows?a").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidation_bumps_the_epoch_and_drops_stale_inserts() {
        let cache = ResultCache::new(8);
        let idx = index();
        let slab = Arc::new(RouteSlab::json(slab_for(&idx, "/flows", "limit=1")));
        let stale = cache.epoch();
        cache.invalidate();
        assert!(!cache.insert("/flows?x".into(), slab.clone(), stale));
        assert!(cache.is_empty(), "stale insert was dropped");
        assert!(!cache.insert("/flows?x".into(), slab, cache.epoch()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        let idx = index();
        let slab = Arc::new(RouteSlab::json(slab_for(&idx, "/flows", "limit=1")));
        assert!(!cache.insert("/flows?x".into(), slab, cache.epoch()));
        assert!(cache.get("/flows?x").is_none());
    }

    #[test]
    fn handle_swap_is_atomic_and_identical_inputs_are_byte_identical() {
        let handle = IndexHandle::new(index());
        let before = handle.load();
        let old = handle.swap(index());
        let after = handle.load();
        assert!(Arc::ptr_eq(&before, &old), "swap returns the displaced index");
        assert!(!Arc::ptr_eq(&before, &after));
        let q = RouteQuery::parse("/flows", "sort=share").unwrap();
        assert_eq!(q.execute(&before), q.execute(&after), "same dataset, same bytes");
        assert_eq!(before.hhi_slab().etag(), after.hhi_slab().etag());
    }
}
