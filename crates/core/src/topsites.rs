//! App. D: governments vs popular websites (Figs. 3 and 7).
//!
//! For the 14 comparison countries (Table 6) the paper crawls CrUX top
//! sites one level deep and classifies their hosting into self-hosting /
//! global / local / foreign, using the CNAME heuristic from Kashaf et al.:
//! a CNAME whose registrable domain matches the site's own (or appears in
//! the site's certificate SANs) marks self-hosting; otherwise the serving
//! AS decides.

use crate::dataset::{GovDataset, HostVolume};
use crate::location::DomesticSplit;
use govhost_geoloc::pipeline::{GeoTask, PipelineConfig};
use govhost_types::{CountryCode, Hostname, ProviderCategory, Region, TopsiteCategory};
use govhost_worldgen::countries::region_of;
use govhost_web::crawler::Crawler;
use govhost_worldgen::World;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// URL/byte shares over the four topsite categories (Fig. 3), indexed by
/// [`TopsiteCategory::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupShares {
    /// URL shares.
    pub urls: [f64; 4],
    /// Byte shares.
    pub bytes: [f64; 4],
}

/// The App. D comparison.
#[derive(Debug, Clone)]
pub struct TopsiteAnalysis {
    /// Government shares within the 14 countries (Fig. 3 left).
    pub government: GroupShares,
    /// Topsite shares (Fig. 3 right).
    pub topsites: GroupShares,
    /// Government domestic/international (WHOIS, geolocation) — Fig. 7
    /// left.
    pub government_domestic: (DomesticSplit, DomesticSplit),
    /// Topsites domestic/international (WHOIS, geolocation) — Fig. 7
    /// right.
    pub topsites_domestic: (DomesticSplit, DomesticSplit),
}

/// Map a government category onto the topsite axis for the side-by-side
/// figure.
pub fn map_government_category(c: ProviderCategory) -> TopsiteCategory {
    match c {
        ProviderCategory::GovtSoe => TopsiteCategory::SelfHosting,
        ProviderCategory::ThirdPartyLocal => TopsiteCategory::Local,
        ProviderCategory::ThirdPartyGlobal => TopsiteCategory::Global,
        ProviderCategory::ThirdPartyRegional => TopsiteCategory::Foreign,
    }
}

impl TopsiteAnalysis {
    /// Run the App. D methodology: crawl topsites one level deep, apply
    /// the self-hosting heuristic, identify infrastructure and locations,
    /// and aggregate both groups.
    pub fn compute(world: &World, dataset: &GovDataset) -> TopsiteAnalysis {
        let comparison: HashSet<CountryCode> = govhost_worldgen::countries::TOPSITE_COUNTRIES
            .iter()
            .map(|c| c.parse().expect("static code"))
            .collect();

        // --- Government side, restricted to the 14 countries. ---
        let mut gov_urls = [0u64; 4];
        let mut gov_bytes = [0u64; 4];
        let mut gov_whois = DomesticSplit::default();
        let mut gov_geo = DomesticSplit::default();
        for HostVolume { host, urls, bytes, .. } in dataset.host_volumes() {
            if !comparison.contains(&host.country) {
                continue;
            }
            if let Some(category) = host.category {
                let idx = map_government_category(category).index();
                gov_urls[idx] += urls;
                gov_bytes[idx] += bytes;
            }
            if let Some(reg) = host.registration {
                gov_whois.add(reg == host.country, urls);
            }
            if let Some(loc) = host.server_country {
                gov_geo.add(loc == host.country, urls);
            }
        }

        // --- Topsites side. ---
        let crawler = Crawler::with_depth(1);
        let mut top_urls = [0u64; 4];
        let mut top_bytes = [0u64; 4];
        let mut top_whois = DomesticSplit::default();
        let mut top_geo = DomesticSplit::default();
        let whois = govhost_netsim::whois::WhoisService::new(&world.registry);
        let geo = world.geolocation(PipelineConfig::default());

        // Footprint pass for the global/foreign distinction: regions of
        // the client countries each AS serves in the topsite corpus plus
        // the government dataset.
        let mut as_regions: HashMap<govhost_types::Asn, HashSet<Region>> = HashMap::new();
        for h in &dataset.hosts {
            if let (Some(asn), Some(region)) = (h.asn, region_of(h.country)) {
                as_regions.entry(asn).or_default().insert(region);
            }
        }

        for (country, sites) in world.topsites.iter() {
            let vantage = world.vantage(*country);
            for landing in sites {
                let site_host = landing.hostname();
                let Ok(answer) = world.resolver.resolve_host(site_host, Some(vantage.country))
                else {
                    continue;
                };
                let ip = answer.addresses[0];
                let category = classify_topsite(
                    world,
                    site_host,
                    answer.first_cname().map(|n| n.to_string()),
                    ip,
                    *country,
                    &whois,
                    &as_regions,
                );
                // Count the site's URLs (landing + one level).
                let outcome = crawler.crawl(&world.corpus, landing, Some(vantage.country));
                let mut urls = 0u64;
                let mut bytes = 0u64;
                for entry in &outcome.log.entries {
                    urls += 1;
                    bytes += entry.bytes;
                }
                top_urls[category.index()] += urls;
                top_bytes[category.index()] += bytes;

                if let Some(rec) = whois.query(ip) {
                    top_whois.add(rec.country == *country, urls);
                }
                let verdict = geo.locate(GeoTask { ip, serving_country: *country });
                if let (false, Some(loc)) = (verdict.excluded, verdict.location) {
                    top_geo.add(loc == *country, urls);
                }
            }
        }

        TopsiteAnalysis {
            government: shares_of(gov_urls, gov_bytes),
            topsites: shares_of(top_urls, top_bytes),
            government_domestic: (gov_whois, gov_geo),
            topsites_domestic: (top_whois, top_geo),
        }
    }
}

fn shares_of(urls: [u64; 4], bytes: [u64; 4]) -> GroupShares {
    let u_total: u64 = urls.iter().sum();
    let b_total: u64 = bytes.iter().sum();
    let mut out = GroupShares::default();
    for i in 0..4 {
        out.urls[i] = if u_total > 0 { urls[i] as f64 / u_total as f64 } else { 0.0 };
        out.bytes[i] = if b_total > 0 { bytes[i] as f64 / b_total as f64 } else { 0.0 };
    }
    out
}

/// The App. D classification of one topsite.
fn classify_topsite(
    world: &World,
    site_host: &Hostname,
    first_cname: Option<String>,
    ip: Ipv4Addr,
    country: CountryCode,
    whois: &govhost_netsim::whois::WhoisService<'_>,
    as_regions: &HashMap<govhost_types::Asn, HashSet<Region>>,
) -> TopsiteCategory {
    // CNAME heuristic first.
    if let Some(cname) = &first_cname {
        if let Ok(cname_host) = cname.parse::<Hostname>() {
            if cname_host.registrable_domain() == site_host.registrable_domain() {
                return TopsiteCategory::SelfHosting;
            }
            // img.youtube.com-style: the CNAME's 2LD in the site's SANs.
            if let Some(cert) = world.corpus.certificate(site_host) {
                if cert.lists(&cname_host.registrable_domain()) || cert.lists(&cname_host) {
                    return TopsiteCategory::SelfHosting;
                }
            }
        }
    }
    // Otherwise the serving AS decides.
    let Some(rec) = whois.query(ip) else {
        return TopsiteCategory::Foreign;
    };
    let multi_region = as_regions.get(&rec.origin).is_some_and(|r| r.len() > 1);
    if multi_region {
        TopsiteCategory::Global
    } else if rec.country == country {
        TopsiteCategory::Local
    } else {
        TopsiteCategory::Foreign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::BuildOptions;
    use govhost_worldgen::GenParams;

    fn analysis() -> TopsiteAnalysis {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        TopsiteAnalysis::compute(&world, &dataset)
    }

    #[test]
    fn topsites_lean_global_governments_lean_state() {
        let a = analysis();
        let top_global = a.topsites.urls[TopsiteCategory::Global.index()];
        let gov_self = a.government.urls[TopsiteCategory::SelfHosting.index()];
        let top_self = a.topsites.urls[TopsiteCategory::SelfHosting.index()];
        assert!(
            top_global > 0.5,
            "topsites are global-CDN-heavy (paper: 78%), got {top_global}"
        );
        assert!(
            gov_self > top_self,
            "governments self-host more than topsites ({gov_self} vs {top_self})"
        );
    }

    #[test]
    fn governments_more_domestic_than_topsites() {
        let a = analysis();
        let gov_geo = a.government_domestic.1.domestic_fraction();
        let top_geo = a.topsites_domestic.1.domestic_fraction();
        assert!(
            gov_geo > top_geo,
            "paper Fig. 7: 89% vs 49% domestic ({gov_geo} vs {top_geo})"
        );
        let gov_whois = a.government_domestic.0.domestic_fraction();
        let top_whois = a.topsites_domestic.0.domestic_fraction();
        assert!(gov_whois > top_whois, "registration: {gov_whois} vs {top_whois}");
    }

    #[test]
    fn shares_sum_to_one() {
        let a = analysis();
        for shares in [a.government, a.topsites] {
            let u: f64 = shares.urls.iter().sum();
            let b: f64 = shares.bytes.iter().sum();
            assert!((u - 1.0).abs() < 1e-9, "url shares sum {u}");
            assert!((b - 1.0).abs() < 1e-9, "byte shares sum {b}");
        }
    }

    #[test]
    fn category_mapping_is_total() {
        assert_eq!(
            map_government_category(ProviderCategory::GovtSoe),
            TopsiteCategory::SelfHosting
        );
        assert_eq!(
            map_government_category(ProviderCategory::ThirdPartyRegional),
            TopsiteCategory::Foreign
        );
    }
}
