//! Property tests for the crawler over randomly-shaped site graphs: the
//! depth bound, the page cap, and visit-once semantics must hold for any
//! link structure, including cycles and dangling links; and the borrowed
//! streaming session must equal a reference model of the owned-URL
//! breadth-first crawl — traversal, failures and telemetry — on random
//! multi-host webs. On the in-repo harness.

use govhost_harness::{gens, prop_assert, prop_assert_eq, Config, Gen};
use govhost_obs::export::trace_json;
use govhost_obs::{Labels, TimeMode};
use govhost_types::{CountryCode, PipelineError, Url};
use govhost_web::corpus::{FetchError, WebCorpus};
use govhost_web::crawler::{Crawler, FailureCauses};
use govhost_web::page::Page;
use govhost_web::resource::{ContentType, Resource};
use govhost_web::site::Website;
use std::collections::{HashSet, VecDeque};

const REGRESSIONS: &str = "tests/regressions/prop_crawler.txt";

fn cfg(name: &str) -> Config {
    Config::new(name).cases(256).regressions(REGRESSIONS)
}

/// Build a random single-host site: `n` pages with arbitrary internal
/// links (possibly cyclic, possibly dangling).
fn arb_corpus() -> Gen<(WebCorpus, Url, usize)> {
    gens::usize_range(2, 25)
        .flat_map(|n| {
            // Each page links to 0-4 targets in 0..n+3 (+3 => dangling).
            gens::vec(gens::vec(gens::usize_range(0, n + 3), 0, 4), n, n)
        })
        .map(|link_table| {
            let n = link_table.len();
            let mut site = Website::new("https://site.gov/p0".parse().unwrap());
            for (i, links) in link_table.iter().enumerate() {
                let mut page =
                    Page::empty(format!("https://site.gov/p{i}").parse().unwrap(), 100);
                for target in links {
                    page.links.push(format!("https://site.gov/p{target}").parse().unwrap());
                }
                site.insert_page(page);
            }
            let mut corpus = WebCorpus::new();
            corpus.insert(site);
            (corpus, "https://site.gov/p0".parse().unwrap(), n)
        })
}

#[test]
fn depth_bound_holds() {
    let inputs = arb_corpus().zip(gens::u64_range(0, 8));
    cfg("depth_bound_holds").run(&inputs, |((corpus, landing, _n), depth)| {
        let depth = *depth as u32;
        let crawler = Crawler::with_depth(depth);
        let out = crawler.crawl(corpus, landing, None);
        prop_assert!(out.log.entries.iter().all(|e| e.depth <= depth));
        Ok(())
    });
}

#[test]
fn pages_visited_at_most_once() {
    cfg("pages_visited_at_most_once").run(&arb_corpus(), |(corpus, landing, n)| {
        let out = Crawler::default().crawl(corpus, landing, None);
        // Every entry is a page document here (no subresources), so
        // entries == pages visited, and no URL repeats.
        prop_assert!(out.pages_visited <= *n);
        let mut urls: Vec<_> = out.log.entries.iter().map(|e| e.url.clone()).collect();
        let before = urls.len();
        urls.sort();
        urls.dedup();
        prop_assert_eq!(urls.len(), before, "no page fetched twice");
        Ok(())
    });
}

#[test]
fn page_cap_is_respected() {
    let inputs = arb_corpus().zip(gens::usize_range(1, 10));
    cfg("page_cap_is_respected").run(&inputs, |((corpus, landing, _n), cap)| {
        let crawler = Crawler { max_depth: 7, max_pages: *cap };
        let out = crawler.crawl(corpus, landing, None);
        prop_assert!(out.pages_visited <= *cap);
        Ok(())
    });
}

#[test]
fn dangling_links_become_failures_not_crashes() {
    cfg("dangling_links_become_failures_not_crashes").run(&arb_corpus(), |(corpus, landing, n)| {
        let out = Crawler::default().crawl(corpus, landing, None);
        // Dangling targets (>= n) can only fail; the sum of successes and
        // failures is bounded by the reachable set.
        prop_assert!(out.pages_visited + out.log.failures as usize <= n + 3 * n * 5);
        Ok(())
    });
}

#[test]
fn deeper_crawls_never_see_fewer_pages() {
    cfg("deeper_crawls_never_see_fewer_pages").run(&arb_corpus(), |(corpus, landing, _n)| {
        let mut last = 0;
        for depth in [0u32, 1, 2, 4, 7] {
            let out = Crawler::with_depth(depth).crawl(corpus, landing, None);
            prop_assert!(out.pages_visited >= last);
            last = out.pages_visited;
        }
        Ok(())
    });
}

/// One generated link: target host (`hosts` = a host no site answers
/// for), target page (`pages` = a dead path) and whether it is `https`.
type LinkSpec = (usize, usize, bool);

/// One generated page: document bytes, resource count, links.
type PageSpec = (u64, usize, Vec<LinkSpec>);

/// A random multi-host corpus plus one crawl to run over it.
#[derive(Debug)]
struct WebSpec {
    /// Per host: geo-blocked to MX, and its pages `p0..`.
    hosts: Vec<(bool, Vec<PageSpec>)>,
    /// Landing `(host, page, https)`; host or page may be missing.
    landing: LinkSpec,
    /// Vantage: 0 = none, 1 = MX, 2 = US.
    vantage: usize,
    max_depth: u32,
    max_pages: usize,
    /// Stop reading after this many pages and drop the session early.
    stop_after: Option<usize>,
}

fn host_name(h: usize) -> String {
    format!("h{h}.gov")
}

fn spec_url((host, page, https): LinkSpec) -> Url {
    let scheme = if https { "https" } else { "http" };
    format!("{scheme}://{}/p{page}", host_name(host)).parse().unwrap()
}

fn arb_web() -> Gen<WebSpec> {
    gens::zip3(gens::usize_range(1, 5), gens::usize_range(1, 6), gens::bool_any()).flat_map(
        |(hosts, pages, twin)| {
            // Targets include one unknown host and one dead path; the
            // scheme varies, so a page is reached as http/https twins.
            let link = gens::zip3(
                gens::usize_range(0, hosts + 1),
                gens::usize_range(0, pages + 1),
                if twin { gens::bool_any() } else { Gen::constant(true) },
            );
            // A page lists 0-5 links; the flag repeats its first link.
            let links = gens::vec(link.clone(), 0, 5).zip(gens::bool_any()).map(|(mut ls, dup)| {
                if dup && !ls.is_empty() {
                    ls.push(ls[0]);
                }
                ls
            });
            let page = gens::zip3(gens::u64_range(0, 300_000), gens::usize_range(0, 4), links);
            let host = gens::u64_range(0, 4).map(|r| r == 0).zip(gens::vec(page, pages, pages));
            let crawl = gens::zip4(
                link,
                gens::usize_range(0, 3),
                gens::u64_range(0, 8).zip(gens::usize_range(1, 40)),
                gens::one_of(vec![
                    Gen::constant(None),
                    gens::usize_range(0, 6).map(Some),
                ]),
            );
            gens::vec(host, hosts, hosts).zip(crawl).map(
                |(hosts, (landing, vantage, (max_depth, max_pages), stop_after))| WebSpec {
                    hosts,
                    landing,
                    vantage,
                    max_depth: max_depth as u32,
                    max_pages,
                    stop_after,
                },
            )
        },
    )
}

fn build_corpus(spec: &WebSpec) -> WebCorpus {
    let mut corpus = WebCorpus::new();
    for (h, (blocked, pages)) in spec.hosts.iter().enumerate() {
        let mut site = Website::new(spec_url((h, 0, true)));
        if *blocked {
            site.geo_restricted_to = Some("MX".parse().unwrap());
        }
        for (p, (bytes, resources, links)) in pages.iter().enumerate() {
            let mut page = Page::empty(spec_url((h, p, true)), *bytes);
            for r in 0..*resources {
                page.resources.push(Resource::new(
                    format!("https://cdn.example/h{h}/p{p}/r{r}.js").parse().unwrap(),
                    100 + r as u64,
                    ContentType::Script,
                ));
            }
            page.links.extend(links.iter().map(|l| spec_url(*l)));
            site.insert_page(page);
        }
        corpus.insert(site);
    }
    corpus
}

/// Everything a crawl reports, for comparing two implementations.
#[derive(Debug, PartialEq)]
struct Observed {
    visits: Vec<(Url, u32)>,
    pages_visited: usize,
    failures: u32,
    causes: FailureCauses,
    landing_error: Option<PipelineError>,
    truncated: bool,
}

/// The reference model: the breadth-first crawl over owned URLs, with
/// a `HashSet<Url>` of visited links and per-page telemetry, as the
/// crawler was first written. `stop_after` abandons it after that many
/// pages, like a caller dropping a session early.
fn reference_crawl(
    crawler: &Crawler,
    corpus: &WebCorpus,
    landing: &Url,
    vantage: Option<CountryCode>,
    stop_after: Option<usize>,
) -> Observed {
    let mut queue: VecDeque<(Url, u32)> = VecDeque::from([(landing.clone(), 0)]);
    let mut visited: HashSet<Url> = HashSet::from([landing.clone()]);
    let mut seen = Observed {
        visits: Vec::new(),
        pages_visited: 0,
        failures: 0,
        causes: FailureCauses::default(),
        landing_error: None,
        truncated: false,
    };
    while let Some((url, depth)) = queue.pop_front() {
        if stop_after == Some(seen.visits.len()) {
            break;
        }
        if seen.pages_visited >= crawler.max_pages {
            seen.truncated = true;
            govhost_obs::counter_add("crawl.truncated", &[], 1);
            break;
        }
        let fetched = {
            let _fetch = govhost_obs::span!("fetch");
            corpus.fetch(&url, vantage)
        };
        let page = match fetched {
            Ok(page) => page,
            Err(e) => {
                seen.failures += 1;
                seen.causes.bump(&e);
                let cause = match e {
                    FetchError::GeoBlocked(_) => "geo_blocked",
                    FetchError::NotFound(_) => "not_found",
                    FetchError::UnknownHost(_) => "unknown_host",
                };
                govhost_obs::counter_add("crawl.fetch_failures", &[("cause", cause)], 1);
                if depth == 0 {
                    seen.landing_error =
                        Some(PipelineError::Crawl { url: url.clone(), cause: e.to_string() });
                }
                continue;
            }
        };
        seen.pages_visited += 1;
        govhost_obs::observe("crawl.page_bytes", &[], page.html_bytes);
        {
            let _har = govhost_obs::span!("har");
            govhost_obs::counter_add("crawl.har_entries", &[], 1 + page.resources.len() as u64);
            if depth < crawler.max_depth {
                for link in &page.links {
                    if !visited.contains(link) {
                        visited.insert(link.clone());
                        queue.push_back((link.clone(), depth + 1));
                    }
                }
            }
        }
        seen.visits.push((url, depth));
    }
    seen
}

/// The crawler under test, read the way the dataset build reads it.
fn session_crawl(
    crawler: &Crawler,
    corpus: &WebCorpus,
    landing: &Url,
    vantage: Option<CountryCode>,
    stop_after: Option<usize>,
) -> Observed {
    let mut session = crawler.session(corpus, landing, vantage);
    let mut visits = Vec::new();
    while stop_after != Some(visits.len()) {
        match session.next_page() {
            Some(visit) => visits.push((visit.url.clone(), visit.depth)),
            None => break,
        }
    }
    Observed {
        visits,
        pages_visited: session.pages_visited(),
        failures: session.failures(),
        causes: session.failure_causes(),
        landing_error: session.take_landing_error(),
        truncated: session.truncated(),
    }
}

#[test]
fn borrowed_session_matches_the_owned_reference_crawl() {
    cfg("borrowed_session_matches_the_owned_reference_crawl").run(&arb_web(), |spec| {
        let corpus = build_corpus(spec);
        let landing = spec_url(spec.landing);
        let vantage = [None, Some("MX"), Some("US")][spec.vantage].map(|c| c.parse().unwrap());
        let crawler = Crawler { max_depth: spec.max_depth, max_pages: spec.max_pages };

        let (want, want_t) = govhost_obs::collect(|| {
            let _crawl = govhost_obs::span!("crawl");
            reference_crawl(&crawler, &corpus, &landing, vantage, spec.stop_after)
        });
        let (got, got_t) = govhost_obs::collect(|| {
            let _crawl = govhost_obs::span!("crawl");
            session_crawl(&crawler, &corpus, &landing, vantage, spec.stop_after)
        });
        prop_assert_eq!(got, want, "same traversal, failures, landing fault and truncation");
        prop_assert_eq!(
            trace_json(&got_t, TimeMode::Deterministic),
            trace_json(&want_t, TimeMode::Deterministic),
            "same fetch/har span counts in the same places"
        );
        prop_assert_eq!(got_t.registry, want_t.registry, "same crawl series");
        if want.pages_visited == 0 {
            prop_assert!(got_t.registry.counter_total("crawl.har_entries") == 0);
            prop_assert!(got_t.registry.histogram("crawl.page_bytes", &Labels::empty()).is_none());
            prop_assert_eq!(got_t.registry.counters_named("crawl.har_entries").count(), 0);
        }

        // The materialized crawl is the drained session.
        if spec.stop_after.is_none() {
            let out = crawler.crawl(&corpus, &landing, vantage);
            let pages: Vec<(Url, u32)> = out
                .log
                .entries
                .iter()
                .filter(|e| e.content_type == ContentType::Html)
                .map(|e| (e.url.clone(), e.depth))
                .collect();
            prop_assert_eq!(pages, want.visits);
            prop_assert_eq!(out.failure_causes, want.causes);
            prop_assert_eq!(out.landing_error, want.landing_error);
            prop_assert_eq!(out.truncated, want.truncated);
        }
        Ok(())
    });
}
