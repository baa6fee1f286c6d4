//! The breadth-first crawler.
//!
//! Reproduces the paper's collection recipe (§3.2): starting from a landing
//! page, render each page (capturing every subresource into the HAR log)
//! and follow links up to seven levels deep. Links may leave the
//! government domain — deliberately so; filtering non-government URLs back
//! out is the classification step's job (§3.3), not the crawler's.
//!
//! Two consumption styles share one traversal:
//!
//! - [`CrawlSession`] is the streaming interface: [`CrawlSession::next_page`]
//!   yields rendered pages one at a time (borrowing their resources from
//!   the corpus), so a caller can classify each page as it is produced and
//!   never materialize a whole crawl. The dataset build uses this path —
//!   at scale, the materialized HAR logs were the dominant allocation.
//! - [`Crawler::crawl`] drains a session into a [`CrawlOutcome`] with a
//!   full [`HarLog`] for callers that want the classic materialized form.
//!
//! The traversal is borrowed from the corpus. The queue, the visited set
//! and each yielded [`CrawledPage::url`] are references to the landing
//! URL and to the link lists of the corpus's own pages, so following a
//! link copies no string. Visits are still deduplicated by URL value, and
//! the visited set hashes with [`govhost_types::hash::DetHasher`]. That
//! unkeyed hasher is for generated keys only: links come from the
//! generated corpus. It must never key a map filled from outside input,
//! such as the server's request-derived maps, which keep the standard
//! library's randomly keyed hasher.
//!
//! [`crawl_sites_parallel`] fans a batch of landing pages out over worker
//! threads (`govhost_par::parallel_map` and its work-stealing deques);
//! results are returned in input order, so parallel and sequential runs
//! produce identical output. A panic inside one crawl is reported once,
//! tagged with the landing URL that failed, instead of cascading into
//! unrelated channel panics.

use crate::corpus::{FetchError, WebCorpus};
use crate::har::{HarEntry, HarLog};
use crate::page::Page;
use crate::resource::ContentType;
use govhost_obs::Histogram;
use govhost_types::hash::DetHashSet;
use govhost_types::{CountryCode, PipelineError, Url};
use std::collections::VecDeque;

/// Crawl configuration.
///
/// ```
/// use govhost_web::{crawler::Crawler, site::Website, corpus::WebCorpus};
/// let mut corpus = WebCorpus::new();
/// corpus.insert(Website::new("https://agency.gov/".parse().unwrap()));
/// let out = Crawler::default().crawl(&corpus, &"https://agency.gov/".parse().unwrap(), None);
/// assert_eq!(out.pages_visited, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crawler {
    /// Maximum link depth below the landing page (the paper uses 7).
    pub max_depth: u32,
    /// Safety cap on pages visited per site.
    pub max_pages: usize,
}

impl Default for Crawler {
    fn default() -> Self {
        Self { max_depth: 7, max_pages: 50_000 }
    }
}

/// Fetch failures broken down by cause, for failure reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureCauses {
    /// The vantage was outside the site's allowed country.
    pub geo_blocked: u32,
    /// The site exists but the path does not (dead link).
    pub not_found: u32,
    /// No site answers for the hostname.
    pub unknown_host: u32,
}

impl FailureCauses {
    /// Count one failure under its cause.
    pub fn bump(&mut self, err: &FetchError) {
        match err {
            FetchError::GeoBlocked(_) => self.geo_blocked += 1,
            FetchError::NotFound(_) => self.not_found += 1,
            FetchError::UnknownHost(_) => self.unknown_host += 1,
        }
    }

    /// Total failures across causes.
    pub fn total(&self) -> u32 {
        self.geo_blocked + self.not_found + self.unknown_host
    }

    /// Fold another breakdown into this one.
    pub fn merge(&mut self, other: FailureCauses) {
        self.geo_blocked += other.geo_blocked;
        self.not_found += other.not_found;
        self.unknown_host += other.unknown_host;
    }
}

/// The result of crawling one landing page.
#[derive(Debug, Clone, Default)]
pub struct CrawlOutcome {
    /// Everything captured.
    pub log: HarLog,
    /// Number of pages successfully rendered.
    pub pages_visited: usize,
    /// Whether the page cap stopped the crawl early.
    pub truncated: bool,
    /// Fetch failures by cause (totals match `log.failures`).
    pub failure_causes: FailureCauses,
    /// Set when the *landing* fetch itself failed: the site contributed
    /// nothing, which a fault-tolerant build treats as a crawl-stage
    /// fault rather than an ordinary dead link deeper in the site.
    pub landing_error: Option<PipelineError>,
}

/// One page yielded by [`CrawlSession::next_page`]: the URL it was
/// reached by and its corpus record, both borrowed from the corpus.
#[derive(Debug)]
pub struct CrawledPage<'a> {
    /// The page's URL (BFS traversal order): the landing URL or the
    /// corpus link that first reached it.
    pub url: &'a Url,
    /// Link depth below the landing page.
    pub depth: u32,
    /// The rendered page: `html_bytes`, `resources` — borrowed straight
    /// from the corpus, nothing is copied per page.
    pub page: &'a Page,
}

/// An in-progress breadth-first crawl that yields pages one at a time.
///
/// The streaming counterpart of [`Crawler::crawl`]: same traversal,
/// same telemetry, but the caller consumes each rendered page as it is
/// produced instead of receiving a materialized [`HarLog`] at the end.
/// Failure accounting ([`CrawlSession::failures`],
/// [`CrawlSession::failure_causes`], the landing-page fault) accumulates
/// on the session and is read off after the final page.
///
/// The queue and the visited set borrow their URLs from the corpus (see
/// the [module docs](self)). `visited` compares URLs by value: two pages
/// linking the same URL share one visit, and the `http://` and
/// `https://` forms of one page are two.
///
/// Telemetry: each fetch runs in a `fetch` span and each rendered page
/// in a `har` span. The per-page series `crawl.har_entries` and
/// `crawl.page_bytes` are summed on the session and recorded once, when
/// the crawl ends or the session is dropped; counters sum and histograms
/// merge, so the registry is the same as if every page recorded its own.
pub struct CrawlSession<'a> {
    crawler: Crawler,
    corpus: &'a WebCorpus,
    vantage: Option<CountryCode>,
    queue: VecDeque<(&'a Url, u32)>,
    visited: DetHashSet<&'a Url>,
    pages_visited: usize,
    truncated: bool,
    failures: u32,
    failure_causes: FailureCauses,
    landing_error: Option<PipelineError>,
    /// `crawl.har_entries` not yet recorded.
    har_entries: u64,
    /// `crawl.page_bytes` observations not yet recorded.
    page_bytes: Histogram,
}

impl<'a> CrawlSession<'a> {
    /// The next successfully rendered page in BFS order, or `None` when
    /// the crawl is exhausted (or the page cap truncated it).
    ///
    /// Fetch failures are absorbed into the session's counters exactly
    /// as [`Crawler::crawl`] counts them; a failed *landing* fetch is
    /// additionally recorded as [`CrawlSession::take_landing_error`].
    pub fn next_page(&mut self) -> Option<CrawledPage<'a>> {
        while let Some((url, depth)) = self.queue.pop_front() {
            if self.pages_visited >= self.crawler.max_pages {
                self.truncated = true;
                govhost_obs::counter_add("crawl.truncated", &[], 1);
                self.queue.clear();
                break;
            }
            let fetched = {
                let _fetch = govhost_obs::span!("fetch");
                self.corpus.fetch(url, self.vantage)
            };
            let page = match fetched {
                Ok(p) => p,
                Err(e) => {
                    self.failures += 1;
                    self.failure_causes.bump(&e);
                    govhost_obs::counter_add(
                        "crawl.fetch_failures",
                        &[("cause", failure_label(&e))],
                        1,
                    );
                    if depth == 0 {
                        self.landing_error =
                            Some(PipelineError::Crawl { url: url.clone(), cause: e.to_string() });
                    }
                    continue;
                }
            };
            self.pages_visited += 1;
            self.page_bytes.observe(page.html_bytes);
            {
                let _har = govhost_obs::span!("har");
                self.har_entries += 1 + page.resources.len() as u64;
                if depth < self.crawler.max_depth {
                    for link in &page.links {
                        if self.visited.insert(link) {
                            self.queue.push_back((link, depth + 1));
                        }
                    }
                }
            }
            return Some(CrawledPage { url, depth, page });
        }
        self.record_page_series();
        None
    }

    /// Record the summed per-page series into the active telemetry scope
    /// and reset them, so a later call records only what came after.
    /// Nothing is recorded while no page has rendered, exactly as when
    /// every page recorded its own.
    fn record_page_series(&mut self) {
        if self.page_bytes.count() == 0 {
            return;
        }
        govhost_obs::counter_add("crawl.har_entries", &[], std::mem::take(&mut self.har_entries));
        govhost_obs::merge_histogram("crawl.page_bytes", &[], &std::mem::take(&mut self.page_bytes));
    }

    /// Pages successfully rendered so far.
    pub fn pages_visited(&self) -> usize {
        self.pages_visited
    }

    /// Whether the page cap stopped the crawl early.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Fetch failures so far (every cause).
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Fetch failures broken down by cause.
    pub fn failure_causes(&self) -> FailureCauses {
        self.failure_causes
    }

    /// Take the landing-page fault, if the landing fetch itself failed.
    pub fn take_landing_error(&mut self) -> Option<PipelineError> {
        self.landing_error.take()
    }
}

impl Drop for CrawlSession<'_> {
    /// A session abandoned before its last page still records the pages
    /// it rendered — unless the thread is unwinding, where recording
    /// could panic a second time.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.record_page_series();
        }
    }
}

impl Crawler {
    /// A crawler bounded at `max_depth` with the default page cap.
    pub fn with_depth(max_depth: u32) -> Self {
        Self { max_depth, ..Self::default() }
    }

    /// Start a streaming breadth-first crawl of `landing` as seen from
    /// `vantage`. See [`CrawlSession`].
    pub fn session<'a>(
        &self,
        corpus: &'a WebCorpus,
        landing: &'a Url,
        vantage: Option<CountryCode>,
    ) -> CrawlSession<'a> {
        let mut queue = VecDeque::new();
        queue.push_back((landing, 0));
        let mut visited = DetHashSet::default();
        visited.insert(landing);
        CrawlSession {
            crawler: *self,
            corpus,
            vantage,
            queue,
            visited,
            pages_visited: 0,
            truncated: false,
            failures: 0,
            failure_causes: FailureCauses::default(),
            landing_error: None,
            har_entries: 0,
            page_bytes: Histogram::new(),
        }
    }

    /// Breadth-first crawl of `landing` as seen from `vantage`,
    /// materialized: drains a [`CrawlSession`] into a [`CrawlOutcome`]
    /// with a full [`HarLog`].
    ///
    /// Telemetry (aggregated under the caller's open span): a `fetch`
    /// span per page request and a `har` span per rendered page (HAR
    /// capture + link extraction); counters
    /// `crawl.fetch_failures{cause=...}`, `crawl.truncated`, and
    /// `crawl.har_entries`; histogram `crawl.page_bytes` over rendered
    /// document sizes.
    pub fn crawl(
        &self,
        corpus: &WebCorpus,
        landing: &Url,
        vantage: Option<CountryCode>,
    ) -> CrawlOutcome {
        let mut session = self.session(corpus, landing, vantage);
        let mut log = HarLog::default();
        while let Some(visit) = session.next_page() {
            log.push(HarEntry {
                url: visit.url.clone(),
                bytes: visit.page.html_bytes,
                content_type: ContentType::Html,
                depth: visit.depth,
            });
            for res in &visit.page.resources {
                log.push(HarEntry {
                    url: res.url.clone(),
                    bytes: res.bytes,
                    content_type: res.content_type,
                    depth: visit.depth,
                });
            }
        }
        log.failures = session.failures;
        CrawlOutcome {
            log,
            pages_visited: session.pages_visited,
            truncated: session.truncated,
            failure_causes: session.failure_causes,
            landing_error: session.take_landing_error(),
        }
    }
}

/// The `cause` label value for a fetch failure counter (mirrors the
/// [`FailureCauses`] field names so the metrics and the report agree).
fn failure_label(err: &FetchError) -> &'static str {
    match err {
        FetchError::GeoBlocked(_) => "geo_blocked",
        FetchError::NotFound(_) => "not_found",
        FetchError::UnknownHost(_) => "unknown_host",
    }
}

/// Crawl many landing pages in parallel. `jobs` pairs each landing URL
/// with the vantage to crawl it from. Results come back in input order,
/// independent of `threads`.
///
/// # Panics
///
/// If a crawl panics, the original panic message is re-raised once from
/// the calling thread together with the failing landing URL.
pub fn crawl_sites_parallel(
    corpus: &WebCorpus,
    crawler: &Crawler,
    jobs: &[(Url, Option<CountryCode>)],
    threads: usize,
) -> Vec<CrawlOutcome> {
    govhost_par::parallel_map(
        jobs,
        threads,
        |(url, _)| url.to_string(),
        |_, (url, vantage)| crawler.crawl(corpus, url, *vantage),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::resource::Resource;
    use crate::site::Website;
    use govhost_types::cc;

    /// Corpus: a.gov with a chain of pages a.gov/p0 -> p1 -> ... -> p9,
    /// each page loading one CDN resource; plus a geo-blocked site.
    fn chain_corpus() -> WebCorpus {
        let mut corpus = WebCorpus::new();
        let mut site = Website::new("https://a.gov/p0".parse().unwrap());
        for i in 0..10 {
            let mut page = Page::empty(format!("https://a.gov/p{i}").parse().unwrap(), 1_000);
            page.resources.push(Resource::new(
                format!("https://cdn.example.net/asset{i}.js").parse().unwrap(),
                500,
                ContentType::Script,
            ));
            if i < 9 {
                page.links.push(format!("https://a.gov/p{}", i + 1).parse().unwrap());
            }
            site.insert_page(page);
        }
        corpus.insert(site);

        let mut blocked = Website::new("https://blocked.gob.mx/".parse().unwrap());
        blocked.geo_restricted_to = Some(cc!("MX"));
        corpus.insert(blocked);
        corpus
    }

    #[test]
    fn depth_limit_is_respected() {
        let corpus = chain_corpus();
        let crawler = Crawler::with_depth(3);
        let out = crawler.crawl(&corpus, &"https://a.gov/p0".parse().unwrap(), None);
        // Depths 0..=3 -> pages p0..p3.
        assert_eq!(out.pages_visited, 4);
        assert!(out.log.entries.iter().all(|e| e.depth <= 3));
        // Each page contributes the doc + one resource.
        assert_eq!(out.log.entries.len(), 8);
    }

    #[test]
    fn full_depth_seven_reaches_eight_pages() {
        let corpus = chain_corpus();
        let out = Crawler::default().crawl(&corpus, &"https://a.gov/p0".parse().unwrap(), None);
        assert_eq!(out.pages_visited, 8, "landing + 7 levels");
    }

    #[test]
    fn page_cap_truncates() {
        let corpus = chain_corpus();
        let crawler = Crawler { max_depth: 7, max_pages: 3 };
        let out = crawler.crawl(&corpus, &"https://a.gov/p0".parse().unwrap(), None);
        assert!(out.truncated);
        assert_eq!(out.pages_visited, 3);
    }

    #[test]
    fn geo_blocked_fetch_is_a_failure() {
        let corpus = chain_corpus();
        let out = Crawler::default().crawl(
            &corpus,
            &"https://blocked.gob.mx/".parse().unwrap(),
            Some(cc!("US")),
        );
        assert_eq!(out.pages_visited, 0);
        assert_eq!(out.log.failures, 1);
        assert_eq!(out.failure_causes.geo_blocked, 1);
        assert_eq!(out.failure_causes.total(), 1);
        // A failed landing fetch is a typed crawl-stage fault.
        let err = out.landing_error.expect("landing fetch failed");
        assert_eq!(err.stage(), govhost_types::PipelineStage::Crawl);
        assert!(err.to_string().contains("blocked.gob.mx"));
        // From inside Mexico, the same crawl works.
        let ok = Crawler::default().crawl(
            &corpus,
            &"https://blocked.gob.mx/".parse().unwrap(),
            Some(cc!("MX")),
        );
        assert_eq!(ok.pages_visited, 1);
        assert!(ok.landing_error.is_none());
    }

    #[test]
    fn dead_inner_link_is_not_a_landing_error() {
        let mut corpus = chain_corpus();
        let host: govhost_types::Hostname = "a.gov".parse().unwrap();
        corpus
            .site_mut(&host)
            .unwrap()
            .page_mut("/p0")
            .unwrap()
            .links
            .push("https://a.gov/missing".parse().unwrap());
        let out = Crawler::default().crawl(&corpus, &"https://a.gov/p0".parse().unwrap(), None);
        assert_eq!(out.log.failures, 1);
        assert_eq!(out.failure_causes.not_found, 1);
        assert!(out.landing_error.is_none(), "inner dead links stay non-fatal");
        assert_eq!(out.pages_visited, 8);
    }

    #[test]
    fn cycles_do_not_loop() {
        let mut corpus = WebCorpus::new();
        let mut site = Website::new("https://loop.gov/a".parse().unwrap());
        let mut a = Page::empty("https://loop.gov/a".parse().unwrap(), 10);
        a.links.push("https://loop.gov/b".parse().unwrap());
        let mut b = Page::empty("https://loop.gov/b".parse().unwrap(), 10);
        b.links.push("https://loop.gov/a".parse().unwrap());
        site.insert_page(a);
        site.insert_page(b);
        corpus.insert(site);
        let out = Crawler::default().crawl(&corpus, &"https://loop.gov/a".parse().unwrap(), None);
        assert_eq!(out.pages_visited, 2);
    }

    #[test]
    fn external_links_are_followed() {
        let mut corpus = chain_corpus();
        let mut contractor = Website::new("https://contractor.example/".parse().unwrap());
        contractor.insert_page(Page::empty("https://contractor.example/".parse().unwrap(), 77));
        corpus.insert(contractor);
        let host: govhost_types::Hostname = "a.gov".parse().unwrap();
        corpus
            .site_mut(&host)
            .unwrap()
            .page_mut("/p0")
            .unwrap()
            .links
            .push("https://contractor.example/".parse().unwrap());
        let out = Crawler::default().crawl(&corpus, &"https://a.gov/p0".parse().unwrap(), None);
        assert!(out
            .log
            .entries
            .iter()
            .any(|e| e.url.hostname().as_str() == "contractor.example"));
    }

    #[test]
    fn parallel_matches_sequential() {
        let corpus = chain_corpus();
        let crawler = Crawler::default();
        let jobs: Vec<(Url, Option<CountryCode>)> = vec![
            ("https://a.gov/p0".parse().unwrap(), None),
            ("https://blocked.gob.mx/".parse().unwrap(), Some(cc!("MX"))),
            ("https://a.gov/p5".parse().unwrap(), None),
        ];
        let seq = crawl_sites_parallel(&corpus, &crawler, &jobs, 1);
        let par = crawl_sites_parallel(&corpus, &crawler, &jobs, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.pages_visited, p.pages_visited);
            assert_eq!(s.log.entries, p.log.entries);
            assert_eq!(s.log.failures, p.log.failures);
        }
    }

    /// The streaming session and the materialized crawl are the same
    /// traversal: page-for-page, entry-for-entry, counter-for-counter.
    #[test]
    fn session_streams_exactly_what_crawl_materializes() {
        let corpus = chain_corpus();
        let crawler = Crawler::default();
        let landing: Url = "https://a.gov/p0".parse().unwrap();
        let out = crawler.crawl(&corpus, &landing, None);

        let mut session = crawler.session(&corpus, &landing, None);
        let mut streamed: Vec<HarEntry> = Vec::new();
        while let Some(visit) = session.next_page() {
            streamed.push(HarEntry {
                url: visit.url.clone(),
                bytes: visit.page.html_bytes,
                content_type: ContentType::Html,
                depth: visit.depth,
            });
            for res in &visit.page.resources {
                streamed.push(HarEntry {
                    url: res.url.clone(),
                    bytes: res.bytes,
                    content_type: res.content_type,
                    depth: visit.depth,
                });
            }
        }
        assert_eq!(streamed, out.log.entries);
        assert_eq!(session.pages_visited(), out.pages_visited);
        assert_eq!(session.failures(), out.log.failures);
        assert_eq!(session.failure_causes(), out.failure_causes);
        assert!(!session.truncated());
    }

    #[test]
    fn session_reports_landing_error_and_truncation() {
        let corpus = chain_corpus();
        let blocked: Url = "https://blocked.gob.mx/".parse().unwrap();
        let mut session = Crawler::default().session(&corpus, &blocked, Some(cc!("US")));
        assert!(session.next_page().is_none());
        assert_eq!(session.failures(), 1);
        let err = session.take_landing_error().expect("landing fetch failed");
        assert_eq!(err.stage(), govhost_types::PipelineStage::Crawl);
        assert!(session.take_landing_error().is_none(), "take consumes the fault");

        let capped = Crawler { max_depth: 7, max_pages: 3 };
        let landing: Url = "https://a.gov/p0".parse().unwrap();
        let mut session = capped.session(&corpus, &landing, None);
        let mut pages = 0;
        while session.next_page().is_some() {
            pages += 1;
        }
        assert_eq!(pages, 3);
        assert!(session.truncated());
    }

    #[test]
    fn zero_thread_request_is_clamped() {
        let corpus = chain_corpus();
        let crawler = Crawler::default();
        let jobs = vec![("https://a.gov/p0".parse::<Url>().unwrap(), None)];
        let out = crawl_sites_parallel(&corpus, &crawler, &jobs, 0);
        assert_eq!(out.len(), 1);
    }
}
