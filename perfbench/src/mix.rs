//! The serve workload's seeded request mix and the reference answer
//! each request is checked against.
//!
//! Shares, per request: 40% fixed routes, 20% the same fixed routes
//! revalidated with a matching `If-None-Match` (answered `304`), 39%
//! parameterized `/flows`, `/providers` and `/countries` queries drawn
//! Zipf(s=1) over about 1,700 distinct canonical queries (about 13× the
//! default result cache), 1% typed-`400` bad parameters, and one
//! `/metrics` scrape per [`METRICS_EVERY`] requests. No request log
//! backs these shares or the Zipf exponent: the serve results depend
//! on an unverified mix.

use crate::conn::{split_head, Framer};
use govhost_det::DetRng;
use govhost_serve::{RequestParser, RouteQuery, ServeState};
use govhost_types::{CountryCode, Region};
use std::collections::BTreeSet;

/// One `/metrics` scrape per this many requests (by global index).
pub const METRICS_EVERY: u64 = 50_000;
/// Distinct canonical queries per parameterized route.
const FLOWS_QUERIES: usize = 1_000;
const PROVIDERS_QUERIES: usize = 400;
const COUNTRIES_QUERIES: usize = 300;
/// Fixed seed of the query universe: the set of queries is the same
/// for every benchmark seed; the seed picks their popularity ranks.
const UNIVERSE_SEED: u64 = 0x9e37_79b9;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Fixed,
    Conditional,
    Query,
    Bad,
    Metrics,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Fixed,
        Class::Conditional,
        Class::Query,
        Class::Bad,
        Class::Metrics,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Fixed => "fixed",
            Class::Conditional => "conditional",
            Class::Query => "query",
            Class::Bad => "bad",
            Class::Metrics => "metrics",
        }
    }
}

/// Which request to send: a class and an index into its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    pub class: Class,
    pub index: usize,
}

/// The answer a request must get: its status and, except for
/// `/metrics` (whose body grows as requests are counted), its body
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub status: u16,
    pub body_len: Option<usize>,
}

/// One request target with its reference answer.
#[derive(Debug, Clone)]
pub struct Target {
    pub path: String,
    /// The rendered keep-alive request.
    pub request: Vec<u8>,
    pub expect: Expect,
}

/// Class shares of the mix: 40% fixed, 20% conditional, 39% query,
/// the remaining 1% bad (the `/metrics` cadence is separate). The
/// repository has no request log to derive them from; they are an
/// unverified assumption.
const FIXED_SHARE: f64 = 0.40;
const CONDITIONAL_SHARE: f64 = 0.20;
const QUERY_SHARE: f64 = 0.39;

/// Zipf(s=1) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The whole mix: targets per class plus the samplers.
#[derive(Debug)]
pub struct Mix {
    pub fixed: Vec<Target>,
    pub conditional: Vec<Target>,
    /// Distinct canonical queries in popularity-rank order.
    pub queries: Vec<Target>,
    pub bad: Vec<Target>,
    pub metrics: Target,
    seed: u64,
    zipf: Zipf,
}

/// Render a GET for `path`, optionally revalidating or closing.
pub fn render_request(path: &str, etag: Option<&str>, close: bool) -> Vec<u8> {
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n");
    if let Some(etag) = etag {
        req.push_str(&format!("If-None-Match: {etag}\r\n"));
    }
    if close {
        req.push_str("Connection: close\r\n");
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// Answer `request` on `state` and frame the bytes as a client would:
/// the expectation plus the `ETag` header, if any.
pub fn answer(state: &ServeState, request: &[u8]) -> Result<(Expect, Option<String>), String> {
    let mut parser = RequestParser::new(Default::default());
    parser.push(request);
    let parsed = parser
        .next_request()
        .map_err(|e| format!("reference request: {e:?}"))?;
    let parsed = parsed.ok_or("reference request is incomplete")?;
    let bytes = state.respond(Ok(&parsed)).encode(true);
    let mut framer = Framer::default();
    let frame = framer
        .feed(&bytes)?
        .ok_or("reference response is incomplete")?;
    let etag = split_head(&bytes).and_then(|head| {
        head.split("\r\n").find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("etag")
                .then(|| value.trim().to_string())
        })
    });
    Ok((
        Expect {
            status: frame.status,
            body_len: Some(frame.body_len),
        },
        etag,
    ))
}

fn scopes(countries: &[CountryCode], with_countries: bool) -> Vec<String> {
    let mut out = vec!["*".to_string(), "EU".to_string()];
    out.extend(Region::ALL.iter().map(|r| r.code().to_string()));
    if with_countries {
        out.extend(countries.iter().map(|c| c.as_str().to_string()));
    }
    out
}

/// Raw parameterized queries: every combination, shuffled with a fixed
/// seed, deduplicated by canonical form, the first `take` kept.
fn query_universe(countries: &[CountryCode]) -> Result<Vec<String>, String> {
    let mut flows = Vec::new();
    for from in scopes(countries, true) {
        for to in scopes(countries, false) {
            for lens in ["served", "registration"] {
                for sort in ["urls", "share", "from", "to"] {
                    for limit in [10, 50] {
                        flows.push(format!(
                            "/flows?from={from}&to={to}&lens={lens}&sort={sort}&limit={limit}"
                        ));
                    }
                }
            }
        }
    }
    let mut providers = Vec::new();
    let provider_scopes = std::iter::once("*").chain(countries.iter().map(CountryCode::as_str));
    for country in provider_scopes {
        for min in [0, 1, 2, 3, 5] {
            for sort in ["countries", "asn", "peak_share"] {
                for limit in [10, 50] {
                    providers.push(format!(
                        "/providers?country={country}&min_countries={min}&sort={sort}&limit={limit}"
                    ));
                }
            }
        }
    }
    let mut listing = Vec::new();
    for region in scopes(countries, false) {
        for sort in ["code", "urls", "bytes", "hhi"] {
            for limit in [5, 10, 20, 50] {
                for offset in [0, 5, 10] {
                    listing.push(format!(
                        "/countries?region={region}&sort={sort}&limit={limit}&offset={offset}"
                    ));
                }
            }
        }
    }
    let mut rng = DetRng::new(UNIVERSE_SEED);
    let mut out = Vec::new();
    for (mut candidates, take) in [
        (flows, FLOWS_QUERIES),
        (providers, PROVIDERS_QUERIES),
        (listing, COUNTRIES_QUERIES),
    ] {
        rng.shuffle(&mut candidates);
        let mut seen = BTreeSet::new();
        for path in candidates {
            let (route, raw) = path.split_once('?').expect("every candidate has a query");
            let canonical = RouteQuery::parse(route, raw)
                .map_err(|e| format!("{path}: {e:?}"))?
                .canonical();
            if seen.insert(canonical) {
                out.push(path);
                if seen.len() == take {
                    break;
                }
            }
        }
    }
    Ok(out)
}

/// Typed-`400` targets: bad values and unknown parameters.
const BAD: [&str; 8] = [
    "/flows?limit=0",
    "/flows?lens=bogus",
    "/flows?from=ZZZ",
    "/flows?min_share=2",
    "/providers?sort=nope",
    "/providers?min_countries=-1",
    "/countries?limit=9999",
    "/hhi?x=1",
];

impl Mix {
    /// Build the mix for `seed` over `countries`, answering every
    /// target on `reference` (a state no measured request touches).
    pub fn build(
        seed: u64,
        countries: &[CountryCode],
        reference: &ServeState,
    ) -> Result<Mix, String> {
        let target = |path: String| -> Result<(Target, Option<String>), String> {
            let request = render_request(&path, None, false);
            let (expect, etag) = answer(reference, &request)?;
            Ok((
                Target {
                    path,
                    request,
                    expect,
                },
                etag,
            ))
        };
        let mut paths: Vec<String> = [
            "/healthz",
            "/countries",
            "/hhi",
            "/flows",
            "/providers",
            "/hhi/history",
        ]
        .map(String::from)
        .to_vec();
        for c in countries {
            paths.push(format!("/country/{}", c.as_str()));
            paths.push(format!("/country/{}/history", c.as_str()));
        }
        let mut fixed = Vec::new();
        let mut conditional = Vec::new();
        for path in paths {
            let (t, etag) = target(path)?;
            if t.expect.status != 200 {
                return Err(format!(
                    "fixed route {} answered {}",
                    t.path, t.expect.status
                ));
            }
            let etag = etag.ok_or_else(|| format!("fixed route {} has no ETag", t.path))?;
            let request = render_request(&t.path, Some(&etag), false);
            let (expect, _) = answer(reference, &request)?;
            if expect.status != 304 {
                return Err(format!(
                    "revalidating {} answered {}",
                    t.path, expect.status
                ));
            }
            conditional.push(Target {
                path: t.path.clone(),
                request,
                expect,
            });
            fixed.push(t);
        }
        let mut queries = Vec::new();
        for path in query_universe(countries)? {
            let (t, _) = target(path)?;
            if t.expect.status != 200 {
                return Err(format!("query {} answered {}", t.path, t.expect.status));
            }
            queries.push(t);
        }
        // The seed decides which query is how popular.
        DetRng::new(seed ^ 0x5eed_0f2a).shuffle(&mut queries);
        let mut bad = Vec::new();
        for path in BAD {
            let (t, _) = target(path.to_string())?;
            if t.expect.status != 400 {
                return Err(format!("bad target {path} answered {}", t.expect.status));
            }
            bad.push(t);
        }
        let (mut metrics, _) = target("/metrics".to_string())?;
        metrics.expect.body_len = None;
        let zipf = Zipf::new(queries.len());
        Ok(Mix {
            fixed,
            conditional,
            queries,
            bad,
            metrics,
            seed,
            zipf,
        })
    }

    /// The request stream of connection `conn`.
    pub fn rng_for(&self, conn: u64) -> DetRng {
        DetRng::new(
            self.seed.wrapping_mul(0x100_0000_01b3) ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
    }

    /// Draw the request with global index `global` from `rng`.
    pub fn draw(&self, rng: &mut DetRng, global: u64) -> Pick {
        if (global + 1).is_multiple_of(METRICS_EVERY) {
            return Pick {
                class: Class::Metrics,
                index: 0,
            };
        }
        let u = rng.f64();
        if u < FIXED_SHARE {
            Pick {
                class: Class::Fixed,
                index: rng.index(self.fixed.len()),
            }
        } else if u < FIXED_SHARE + CONDITIONAL_SHARE {
            Pick {
                class: Class::Conditional,
                index: rng.index(self.conditional.len()),
            }
        } else if u < FIXED_SHARE + CONDITIONAL_SHARE + QUERY_SHARE {
            Pick {
                class: Class::Query,
                index: self.zipf.sample(rng),
            }
        } else {
            Pick {
                class: Class::Bad,
                index: rng.index(self.bad.len()),
            }
        }
    }

    pub fn target(&self, pick: Pick) -> &Target {
        match pick.class {
            Class::Fixed => &self.fixed[pick.index],
            Class::Conditional => &self.conditional[pick.index],
            Class::Query => &self.queries[pick.index],
            Class::Bad => &self.bad[pick.index],
            Class::Metrics => &self.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_realized_shares_follow_one_over_rank() {
        let n = 1_700;
        let zipf = Zipf::new(n);
        let mut rng = DetRng::new(7);
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for rank in [1usize, 2, 3, 10] {
            let expected = 1.0 / (rank as f64 * harmonic);
            let realized = counts[rank - 1] as f64 / draws as f64;
            assert!(
                (realized - expected).abs() < 0.1 * expected,
                "rank {rank}: {realized} vs {expected}"
            );
        }
        // The 128 most popular queries (the default cache's size) carry
        // H(128)/H(1700) of the draws.
        let top: u64 = counts[..128].iter().sum();
        let expected_top = (1..=128).map(|k| 1.0 / k as f64).sum::<f64>() / harmonic;
        assert!((top as f64 / draws as f64 - expected_top).abs() < 0.01);
        assert!(counts.iter().all(|&c| c < draws));
    }

    #[test]
    fn zipf_stays_in_range() {
        let zipf = Zipf::new(3);
        let mut rng = DetRng::new(1);
        assert!((0..10_000).all(|_| zipf.sample(&mut rng) < 3));
        assert_eq!(Zipf::new(1).sample(&mut rng), 0);
    }

    fn dummy(n: usize) -> Vec<Target> {
        (0..n)
            .map(|i| Target {
                path: format!("/t{i}"),
                request: Vec::new(),
                expect: Expect {
                    status: 200,
                    body_len: Some(0),
                },
            })
            .collect()
    }

    #[test]
    fn class_shares_are_realized() {
        let mix = Mix {
            fixed: dummy(10),
            conditional: dummy(10),
            queries: dummy(100),
            bad: dummy(4),
            metrics: dummy(1).remove(0),
            seed: 3,
            zipf: Zipf::new(100),
        };
        let mut rng = mix.rng_for(0);
        let n = 200_000u64;
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..n {
            *counts.entry(mix.draw(&mut rng, i).class).or_insert(0u64) += 1;
        }
        let share = |c: Class| counts.get(&c).copied().unwrap_or(0) as f64 / n as f64;
        assert!((share(Class::Fixed) - 0.40).abs() < 0.01);
        assert!((share(Class::Conditional) - 0.20).abs() < 0.01);
        assert!((share(Class::Query) - 0.39).abs() < 0.01);
        assert!((share(Class::Bad) - 0.01).abs() < 0.002);
        assert_eq!(counts[&Class::Metrics], n / METRICS_EVERY);
    }

    #[test]
    fn streams_are_seeded() {
        let draw = |seed: u64, conn: u64| {
            let mix = Mix {
                fixed: dummy(10),
                conditional: dummy(10),
                queries: dummy(100),
                bad: dummy(4),
                metrics: dummy(1).remove(0),
                seed,
                zipf: Zipf::new(100),
            };
            let mut rng = mix.rng_for(conn);
            (0..50).map(|i| mix.draw(&mut rng, i)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }
}
