//! The web corpus: every site in the simulated world, addressable by
//! hostname, fetched through an access-controlled interface.

use crate::cert::TlsCert;
use crate::page::Page;
use crate::site::Website;
use govhost_types::hash::DetHashMap;
use govhost_types::{CountryCode, Hostname, Url};
use std::fmt;

/// Why a fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// No site is served under the hostname.
    UnknownHost(Hostname),
    /// The site exists but the path does not.
    NotFound(Url),
    /// The site refuses non-domestic clients.
    GeoBlocked(Url),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::UnknownHost(h) => write!(f, "unknown host {h}"),
            FetchError::NotFound(u) => write!(f, "404 for {u}"),
            FetchError::GeoBlocked(u) => write!(f, "geo-blocked: {u}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// All websites in the world, keyed by hostname (generated keys, so the
/// map uses the deterministic [`govhost_types::hash::DetHasher`]).
#[derive(Debug, Default, Clone)]
pub struct WebCorpus {
    sites: DetHashMap<Hostname, Website>,
}

impl WebCorpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a site, keyed by its landing hostname.
    pub fn insert(&mut self, site: Website) {
        self.sites.insert(site.landing.hostname().clone(), site);
    }

    /// The site serving a hostname.
    pub fn site(&self, host: &Hostname) -> Option<&Website> {
        self.sites.get(host)
    }

    /// Mutable site access (generator wiring).
    pub fn site_mut(&mut self, host: &Hostname) -> Option<&mut Website> {
        self.sites.get_mut(host)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterate over all sites.
    pub fn sites(&self) -> impl Iterator<Item = &Website> {
        self.sites.values()
    }

    /// Fetch a page as a client in `vantage` would.
    pub fn fetch(&self, url: &Url, vantage: Option<CountryCode>) -> Result<&Page, FetchError> {
        let site = self
            .sites
            .get(url.hostname())
            .ok_or_else(|| FetchError::UnknownHost(url.hostname().clone()))?;
        if !site.accessible_from(vantage) {
            return Err(FetchError::GeoBlocked(url.clone()));
        }
        site.page(url.path()).ok_or_else(|| FetchError::NotFound(url.clone()))
    }

    /// The certificate presented for a hostname, if the site speaks TLS.
    pub fn certificate(&self, host: &Hostname) -> Option<&TlsCert> {
        self.sites.get(host).and_then(|s| s.cert.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_types::cc;

    fn corpus() -> WebCorpus {
        let mut c = WebCorpus::new();
        let mut site = Website::new("https://www.prodecon.gob.mx/".parse().unwrap());
        site.geo_restricted_to = Some(cc!("MX"));
        site.insert_page(Page::empty("https://www.prodecon.gob.mx/ayuda".parse().unwrap(), 500));
        c.insert(site);
        c.insert(Website::new("https://www.gov.br/".parse().unwrap()));
        c
    }

    #[test]
    fn fetch_respects_geo_blocking() {
        let c = corpus();
        let url: Url = "https://www.prodecon.gob.mx/ayuda".parse().unwrap();
        assert!(c.fetch(&url, Some(cc!("MX"))).is_ok());
        assert_eq!(c.fetch(&url, Some(cc!("US"))), Err(FetchError::GeoBlocked(url.clone())));
    }

    #[test]
    fn unknown_host_and_path() {
        let c = corpus();
        let bad_host: Url = "https://nonexistent.example/".parse().unwrap();
        assert!(matches!(c.fetch(&bad_host, None), Err(FetchError::UnknownHost(_))));
        let bad_path: Url = "https://www.gov.br/missing".parse().unwrap();
        assert!(matches!(c.fetch(&bad_path, None), Err(FetchError::NotFound(_))));
    }

    #[test]
    fn open_site_fetches_from_anywhere() {
        let c = corpus();
        let url: Url = "https://www.gov.br/".parse().unwrap();
        assert!(c.fetch(&url, Some(cc!("JP"))).is_ok());
        assert!(c.fetch(&url, None).is_ok());
    }

    #[test]
    fn certificate_lookup() {
        let mut c = corpus();
        let host: Hostname = "www.gov.br".parse().unwrap();
        assert!(c.certificate(&host).is_none());
        c.site_mut(&host).unwrap().cert = Some(TlsCert::for_host(host.clone(), "ICP-Brasil"));
        assert!(c.certificate(&host).is_some());
    }
}
