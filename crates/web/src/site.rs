//! Websites: a hostname's page tree plus its TLS certificate and access
//! policy.

use crate::cert::TlsCert;
use crate::page::Page;
use govhost_types::hash::DetHashMap;
use govhost_types::{CountryCode, Url};

/// A website served under one hostname.
#[derive(Debug, Clone)]
pub struct Website {
    /// The landing URL.
    pub landing: Url,
    /// The TLS certificate presented on HTTPS connections, if any.
    pub cert: Option<TlsCert>,
    /// Pages by path (generated keys: see [`govhost_types::hash`]).
    pages: DetHashMap<String, Page>,
    /// When set, the site only answers requests from this country
    /// (the paper's footnote 1: Mexico's prodecon.gob.mx refuses
    /// non-domestic clients).
    pub geo_restricted_to: Option<CountryCode>,
}

impl Website {
    /// Create a site with an empty landing page.
    pub fn new(landing: Url) -> Self {
        let mut pages = DetHashMap::default();
        pages.insert(landing.path().to_string(), Page::empty(landing.clone(), 8_192));
        Self { landing, cert: None, pages, geo_restricted_to: None }
    }

    /// Insert (or replace) a page.
    ///
    /// # Panics
    /// Panics if the page's hostname differs from the site's.
    pub fn insert_page(&mut self, page: Page) {
        assert_eq!(
            page.url.hostname(),
            self.landing.hostname(),
            "page belongs to another hostname"
        );
        self.pages.insert(page.url.path().to_string(), page);
    }

    /// Fetch a page by path.
    pub fn page(&self, path: &str) -> Option<&Page> {
        self.pages.get(path)
    }

    /// Mutable page access (used by generators wiring links).
    pub fn page_mut(&mut self, path: &str) -> Option<&mut Page> {
        self.pages.get_mut(path)
    }

    /// The landing page.
    pub fn landing_page(&self) -> &Page {
        self.pages.get(self.landing.path()).expect("landing page always exists")
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterate over all pages.
    pub fn pages(&self) -> impl Iterator<Item = &Page> {
        self.pages.values()
    }

    /// Whether a client in `vantage` may fetch from this site.
    pub fn accessible_from(&self, vantage: Option<CountryCode>) -> bool {
        match self.geo_restricted_to {
            None => true,
            Some(required) => vantage == Some(required),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_types::cc;

    #[test]
    fn new_site_has_landing_page() {
        let s = Website::new("https://www.gob.mx/".parse().unwrap());
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.landing_page().url, s.landing);
    }

    #[test]
    fn insert_and_lookup_pages() {
        let mut s = Website::new("https://www.gob.mx/".parse().unwrap());
        s.insert_page(Page::empty("https://www.gob.mx/tramites".parse().unwrap(), 1000));
        assert!(s.page("/tramites").is_some());
        assert!(s.page("/nope").is_none());
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    #[should_panic]
    fn foreign_page_rejected() {
        let mut s = Website::new("https://www.gob.mx/".parse().unwrap());
        s.insert_page(Page::empty("https://evil.example/".parse().unwrap(), 1));
    }

    #[test]
    fn geo_restriction() {
        let mut s = Website::new("https://www.prodecon.gob.mx/".parse().unwrap());
        assert!(s.accessible_from(None));
        s.geo_restricted_to = Some(cc!("MX"));
        assert!(s.accessible_from(Some(cc!("MX"))));
        assert!(!s.accessible_from(Some(cc!("US"))));
        assert!(!s.accessible_from(None));
    }
}
