//! Per-country hosting profiles: the calibration layer between the
//! paper's published findings and the concrete world the generator builds.
//!
//! Every country gets a [`HostingProfile`] describing how its government
//! hosts: the URL share per provider category, byte-weight skew, the share
//! of URLs served from domestic soil, where the foreign remainder sits,
//! the domain-naming convention, and measurement-hostility knobs (ICMP
//! responsiveness, geo-restriction).
//!
//! Profiles come from three sources, in priority order:
//! 1. **Country-specific overrides** for every country the paper quotes a
//!    number for (Argentina ~90% third-party, Uruguay 98% Govt&SOE bytes,
//!    Italy 93% 3P Local, Mexico 79% of URLs from US servers, China 26%
//!    from Japan, France 18% from New Caledonia, NZ 40% from Australia,
//!    India 99.3% domestic, ...).
//! 2. **Dominant-category defaults** — the paper's Fig. 5 dendrogram
//!    splits the 61 countries into three branches by their leading hosting
//!    source; countries without specific quotes inherit their branch's
//!    default mix with deterministic per-country jitter.
//! 3. **Regional foreign-destination mixes** reproducing Fig. 9 and
//!    Table 5 (e.g. ECA cross-border stays 94.87% in-region, concentrated
//!    on Germany; MENA depends on France and the US; LAC leaves the region
//!    almost entirely, toward the US).

use crate::countries::CountryRow;
use govhost_netsim::det;
use govhost_types::{CountryCode, Region};

/// The leading hosting source of a country (Fig. 5's three branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DominantCategory {
    /// Government & state-owned infrastructure leads.
    GovtSoe,
    /// Local third-party providers lead.
    Local,
    /// Global providers lead.
    Global,
}

/// Government domain-naming convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TldStyle {
    /// `agency.gov` / `agency.mil` (United States).
    DotGov,
    /// `agency.gov.cc` (UK, Brazil-style English variant).
    GovCc,
    /// `agencia.gob.cc` (Spanish-speaking).
    GobCc,
    /// `agence.gouv.cc` (French-speaking).
    GouvCc,
    /// `agencia.gub.cc` (Uruguay).
    GubCc,
    /// `agency.go.cc` (Japan, Korea, Indonesia, Thailand).
    GoCc,
    /// `agency.govt.cc` (New Zealand).
    GovtCc,
    /// `amt.admin.cc` (Switzerland).
    AdminCc,
    /// No government suffix convention at all (Germany, Netherlands,
    /// Poland — the §8 limitation).
    Plain,
}

impl TldStyle {
    /// The suffix token this style places before the ccTLD, if any.
    pub fn token(&self) -> Option<&'static str> {
        match self {
            TldStyle::DotGov => Some("gov"),
            TldStyle::GovCc => Some("gov"),
            TldStyle::GobCc => Some("gob"),
            TldStyle::GouvCc => Some("gouv"),
            TldStyle::GubCc => Some("gub"),
            TldStyle::GoCc => Some("go"),
            TldStyle::GovtCc => Some("govt"),
            TldStyle::AdminCc => Some("admin"),
            TldStyle::Plain => None,
        }
    }
}

/// A country's complete hosting behaviour description.
#[derive(Debug, Clone)]
pub struct HostingProfile {
    /// Country code.
    pub code: CountryCode,
    /// Leading hosting source.
    pub dominant: DominantCategory,
    /// URL share per category: `[Govt&SOE, 3P Local, 3P Global,
    /// 3P Regional]`. Sums to 1.
    pub url_shares: [f64; 4],
    /// Mean bytes-per-URL multiplier per category (same order). Values
    /// above 1 make a category's bytes outweigh its URL count, which is
    /// how Fig. 2's URL/byte divergence (39% vs 47% for Govt&SOE) arises.
    pub byte_skew: [f64; 4],
    /// Fraction of URLs served from servers on domestic soil (Fig. 8b).
    pub domestic_server_share: f64,
    /// Where the foreign-served remainder sits: `(country, weight)`,
    /// weights summing to 1.
    pub foreign_dests: Vec<(CountryCode, f64)>,
    /// Domain-naming convention.
    pub tld_style: TldStyle,
    /// Fraction of government hostnames carrying the gov-TLD token
    /// (the rest are only identifiable by domain matching or SANs, §3.3).
    pub gov_tld_host_fraction: f64,
    /// Fraction of servers answering ICMP (drives the AP-vs-MG split in
    /// Table 4).
    pub icmp_responsive_rate: f64,
    /// Fraction of sites refusing non-domestic clients (footnote 1).
    pub geo_restricted_fraction: f64,
}

fn cc(code: &str) -> CountryCode {
    code.parse().expect("static country code")
}

/// Fig. 5 branch membership: countries whose leading source is
/// government/state-owned infrastructure.
const GOVT_DOMINANT: &[&str] = &[
    "BR", "VN", "RU", "IN", "AE", "UY", "CN", "EG", "RS", "BD", "DZ", "ES", "IL", "PK", "SE",
    "KR", "RO", "ID", "LV",
];

/// Countries whose leading source is local third parties.
const LOCAL_DOMINANT: &[&str] = &[
    "IT", "ZA", "TR", "PL", "EE", "DE", "BG", "CL", "CZ", "KZ", "PY", "HU", "UA", "PT", "BE",
    "NG", "JP",
];

/// Everyone else leads with global providers (25 countries, §7.2).
fn dominant_of(code: CountryCode) -> DominantCategory {
    if GOVT_DOMINANT.iter().any(|c| cc(c) == code) {
        DominantCategory::GovtSoe
    } else if LOCAL_DOMINANT.iter().any(|c| cc(c) == code) {
        DominantCategory::Local
    } else {
        DominantCategory::Global
    }
}

fn tld_style_of(code: CountryCode) -> TldStyle {
    match code.as_str() {
        "US" => TldStyle::DotGov,
        "MX" | "AR" | "CL" | "BO" | "ES" | "CR" | "PE" => TldStyle::GobCc,
        "UY" => TldStyle::GubCc,
        "FR" | "MA" | "DZ" | "NC" => TldStyle::GouvCc,
        "JP" | "KR" | "ID" | "TH" => TldStyle::GoCc,
        "NZ" => TldStyle::GovtCc,
        "CH" => TldStyle::AdminCc,
        // The paper's §8 names Germany, Poland and the Netherlands as
        // convention-free; Belgium and Hungary behave likewise (their huge
        // URL volumes drive the 72% domain-matching share of §4.2).
        "DE" | "PL" | "NL" | "BE" | "HU" | "DK" | "NO" | "FI" | "AT" => TldStyle::Plain,
        _ => TldStyle::GovCc,
    }
}

/// Deterministic per-country jitter in `[-amp, +amp]`, stable across runs
/// and independent of the generation seed (profiles are calibration, not
/// randomness).
fn jitter(code: CountryCode, channel: u64, amp: f64) -> f64 {
    let key = govhost_netsim::det::hash_str(code.as_str());
    (det::unit(0xCA11_B4A7E, &[key, channel]) * 2.0 - 1.0) * amp
}

fn normalize(mut shares: [f64; 4]) -> [f64; 4] {
    for s in &mut shares {
        *s = s.max(0.0);
    }
    let total: f64 = shares.iter().sum();
    if total > 0.0 {
        for s in &mut shares {
            *s /= total;
        }
    }
    shares
}

/// Category URL shares `[Govt&SOE, Local, Global, Regional]`.
fn url_shares_of(code: CountryCode, dominant: DominantCategory) -> [f64; 4] {
    // Countries with specific quotes in the paper come first.
    let specific: Option<[f64; 4]> = match code.as_str() {
        "UY" => Some([0.95, 0.03, 0.02, 0.00]), // 98% of bytes Govt&SOE, 2% 3P
        "AR" => Some([0.10, 0.14, 0.73, 0.03]), // ~90% third-party, global-led
        "BR" => Some([0.72, 0.14, 0.13, 0.01]),
        "CL" => Some([0.15, 0.62, 0.21, 0.02]),
        "ES" => Some([0.64, 0.20, 0.15, 0.01]), // 64% Govt&SOE
        "IT" => Some([0.04, 0.93, 0.03, 0.00]), // 93% 3P Local
        "NL" => Some([0.29, 0.27, 0.41, 0.03]), // 41% 3P Global
        "IN" => Some([0.86, 0.06, 0.07, 0.01]),
        "MY" => Some([0.18, 0.24, 0.56, 0.02]),
        "ID" => Some([0.60, 0.25, 0.13, 0.02]), // 58% of bytes Govt&SOE
        "US" => Some([0.25, 0.17, 0.58, 0.00]), // NA Fig. 4a
        "MX" => Some([0.12, 0.06, 0.79, 0.03]), // foreign reliance dwarfs the rest
        "CA" => Some([0.22, 0.15, 0.62, 0.01]), // 79% of bytes global
        "FR" => Some([0.22, 0.28, 0.44, 0.06]), // 42% of bytes global
        "NG" => Some([0.01, 0.45, 0.40, 0.14]), // SSA Fig. 4a
        "ZA" => Some([0.02, 0.47, 0.38, 0.13]),
        "MA" => Some([0.16, 0.08, 0.72, 0.04]), // MENA's global-led outlier
        "CN" => Some([0.62, 0.10, 0.05, 0.23]), // 26% served from Japan (regional 3P)
        "MD" => Some([0.10, 0.13, 0.75, 0.02]), // Cloudflare up to 72% of bytes
        "SG" => Some([0.08, 0.12, 0.79, 0.01]), // Amazon 97% of bytes
        "NO" => Some([0.18, 0.17, 0.64, 0.01]), // Hetzner 57% of bytes
        "KZ" => Some([0.25, 0.61, 0.13, 0.01]),
        "VN" => Some([0.78, 0.12, 0.08, 0.02]),
        "RU" => Some([0.75, 0.18, 0.05, 0.02]), // Jonker et al.: hosted within RU
        // Belgium and Hungary carry 44% of all URLs (Table 8); their mixes
        // dominate the URL-weighted aggregates.
        "BE" => Some([0.30, 0.45, 0.22, 0.03]),
        "HU" => Some([0.35, 0.45, 0.18, 0.02]),
        _ => None,
    };
    if let Some(s) = specific {
        return normalize(s);
    }
    let base = match dominant {
        DominantCategory::GovtSoe => [0.68, 0.14, 0.15, 0.03],
        DominantCategory::Local => [0.25, 0.55, 0.18, 0.02],
        // A plurality on global providers, not a majority: regional
        // aggregates (Fig. 4) show even global-led countries keep large
        // state/local shares.
        DominantCategory::Global => [0.27, 0.22, 0.48, 0.03],
    };
    let mut shares = base;
    for (i, s) in shares.iter_mut().enumerate() {
        *s += jitter(code, i as u64, 0.06);
    }
    normalize(shares)
}

/// Byte-weight multipliers per category.
fn byte_skew_of(code: CountryCode) -> [f64; 4] {
    match code.as_str() {
        // Uruguay: 98% of bytes from Govt&SOE on 95% of URLs.
        "UY" => [2.0, 0.6, 0.6, 0.5],
        // Canada: 79% of bytes global on ~62% of URLs.
        "CA" => [0.55, 0.55, 1.7, 0.5],
        // France: 42% of bytes global on 44% of URLs (near-neutral).
        "FR" => [1.2, 0.9, 0.95, 0.8],
        // Indonesia: 58% bytes Govt&SOE on ~60% URLs (near-neutral).
        "ID" => [1.0, 1.0, 1.0, 1.0],
        // Singapore: Amazon serves 97% of bytes.
        "SG" => [0.2, 0.2, 2.2, 0.2],
        // Norway: Hetzner 57% of bytes.
        "NO" => [0.7, 0.7, 1.5, 0.6],
        // South Asia: 95% of bytes from Govt&SOE (Fig. 4b) on ~80% of URLs.
        "IN" | "BD" | "PK" => [1.9, 0.4, 0.4, 0.4],
        // MENA: 71% bytes Govt&SOE on 43% of URLs.
        "EG" | "DZ" | "AE" | "IL" => [2.2, 0.5, 0.5, 0.4],
        // Default: government pages are heavier (Fig. 2: 39%→47%).
        _ => [1.35, 0.85, 0.9, 0.8],
    }
}

/// Countries whose §6.3 offshore figures the paper quotes exactly.
fn has_specific_location(code: CountryCode) -> bool {
    matches!(
        code.as_str(),
        "MX" | "CR" | "NZ" | "CN" | "MA" | "EG" | "DZ" | "FR" | "BR" | "IN" | "US" | "CA"
            | "NL" | "RU"
    )
}

/// Domestic-service share and foreign destinations (Figs. 8b, 9b; §6.3).
fn location_of(code: CountryCode, region: Region) -> (f64, Vec<(CountryCode, f64)>) {
    let d = |pairs: &[(&str, f64)]| -> Vec<(CountryCode, f64)> {
        pairs.iter().map(|(c, w)| (cc(c), *w)).collect()
    };
    // Country-specific bilateral cases quoted in §6.3.
    match code.as_str() {
        "MX" => return (0.2078, d(&[("US", 1.0)])), // 79.22% from the US
        "CR" => return (0.503, d(&[("US", 0.98), ("BR", 0.02)])), // 49.70% from the US
        "NZ" => return (0.58, d(&[("AU", 0.96), ("US", 0.04)])), // 40% from Australia
        "CN" => return (0.736, d(&[("JP", 1.0)])), // 26.4% from Japan
        "MA" => return (0.5162, d(&[("FR", 0.617), ("US", 0.23), ("DE", 0.153)])), // 48.38% foreign, 29.82% France
        "EG" => return (0.789, d(&[("FR", 0.40), ("US", 0.40), ("DE", 0.20)])), // 21.1% foreign
        "DZ" => return (0.8138, d(&[("FR", 0.62), ("US", 0.38)])), // 18.62% foreign
        "FR" => return (0.797, d(&[("NC", 0.888), ("DE", 0.06), ("US", 0.052)])), // 18.03% from New Caledonia
        "BR" => return (0.9805, d(&[("US", 0.92), ("DE", 0.08)])), // only 1.78% from the US
        "IN" => return (0.993, d(&[("US", 0.55), ("SG", 0.45)])), // 99.3% domestic
        "US" => return (0.998, d(&[("CA", 0.55), ("DE", 0.45)])),
        "CA" => return (0.952, d(&[("US", 0.85), ("DE", 0.09), ("GB", 0.06)])),
        "NL" => return (0.90, d(&[("DE", 0.55), ("IE", 0.25), ("US", 0.20)])),
        "RU" => return (0.97, d(&[("DE", 0.7), ("NL", 0.3)])), // mostly within RU
        _ => {}
    }
    // EU members keep foreign hosting overwhelmingly inside the EU
    // (the paper's GDPR finding: 98.3% of EU URLs served within the EU).
    if crate::countries::is_eu(code) {
        return (
            0.87,
            d(&[
                ("DE", 0.30),
                ("FR", 0.14),
                ("NL", 0.13),
                ("IE", 0.08),
                ("AT", 0.07),
                ("FI", 0.05),
                ("LU", 0.04),
                ("SK", 0.05),
                ("PL", 0.06),
                ("CZ", 0.04),
                ("US", 0.02),
                ("GB", 0.04),
            ]),
        );
    }
    // Regional defaults (Fig. 8b medians; Table 5 in-region mixes).
    match region {
        Region::NorthAmerica => (0.98, d(&[("US", 0.6), ("DE", 0.4)])),
        Region::LatinAmericaCaribbean => {
            (0.80, d(&[("US", 0.90), ("BR", 0.029), ("DE", 0.05), ("NL", 0.021)]))
        }
        Region::EuropeCentralAsia => (
            0.86,
            d(&[
                ("DE", 0.30),
                ("FR", 0.11),
                ("NL", 0.11),
                ("GB", 0.07),
                ("AT", 0.05),
                ("FI", 0.04),
                ("IE", 0.04),
                ("LU", 0.02),
                ("SK", 0.04),
                ("PL", 0.06),
                ("CZ", 0.05),
                ("RO", 0.04),
                ("TR", 0.03),
                ("US", 0.02),
            ]),
        ),
        Region::MiddleEastNorthAfrica => (0.74, d(&[("FR", 0.45), ("US", 0.35), ("DE", 0.20)])),
        Region::SubSaharanAfrica => {
            (0.52, d(&[("US", 0.47), ("DE", 0.25), ("FR", 0.20), ("IE", 0.05), ("ZA", 0.03)]))
        }
        Region::SouthAsia => (0.94, d(&[("US", 0.60), ("SG", 0.40)])),
        Region::EastAsiaPacific => {
            (0.96, d(&[("JP", 0.57), ("AU", 0.12), ("SG", 0.11), ("US", 0.20)]))
        }
    }
}

/// Share of hostnames carrying the country's gov-TLD token.
fn gov_tld_fraction_of(code: CountryCode, style: TldStyle) -> f64 {
    match style {
        TldStyle::Plain => 0.0,
        _ => match code.as_str() {
            // Heavy, disciplined gov-TLD users.
            "US" | "GB" | "AU" | "NZ" | "IN" | "BD" | "UY" | "TR" => 0.80,
            // Most countries mix gov-TLD portals with plainly-named SOEs
            // and agencies (the 72% domain-matching share of §4.2).
            _ => 0.45,
        },
    }
}

impl HostingProfile {
    /// The profile for a studied country.
    pub fn for_country(row: &CountryRow) -> HostingProfile {
        let code = row.cc();
        let dominant = dominant_of(code);
        let tld_style = tld_style_of(code);
        let (base_domestic, mut foreign_dests) = location_of(code, row.region);
        // App. E's observed effects, planted: richer / network-readier
        // countries host more domestically; larger Internet populations
        // host more abroad. Applied only where the paper gives no
        // country-specific figure (specific overrides stay exact).
        let domestic_server_share = if has_specific_location(code) {
            base_domestic
        } else {
            // Raw-scale z-scores, matching the regression's standardized
            // features (users and GDP are heavy-tailed, so the few large
            // countries carry the effect, as in the paper's data).
            let z_nri = (row.nri - 58.0) / 14.0;
            let z_gdp = ((row.gdp_k - 25.0) / 25.0).clamp(-1.5, 2.0);
            // Log-scaled population kick: countries past ~60M users host
            // visibly more abroad (capacity pressure), the paper's
            // strongest coefficient.
            let users_kick = (row.internet_users_m() / 60.0).ln().max(0.0);
            (base_domestic + 0.06 * z_nri + 0.06 * z_gdp - 0.12 * users_kick).clamp(0.30, 0.995)
        };
        // A country never lists itself as a foreign destination.
        foreign_dests.retain(|(c, _)| *c != code);
        let total: f64 = foreign_dests.iter().map(|(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in &mut foreign_dests {
                *w /= total;
            }
        }
        HostingProfile {
            code,
            dominant,
            url_shares: url_shares_of(code, dominant),
            byte_skew: byte_skew_of(code),
            domestic_server_share,
            foreign_dests,
            tld_style,
            gov_tld_host_fraction: gov_tld_fraction_of(code, tld_style),
            // ~40% of unicast validations succeed via AP in Table 4; the
            // rest lean on multistage. Driven by ICMP responsiveness.
            icmp_responsive_rate: 0.44 + jitter(code, 77, 0.08),
            geo_restricted_fraction: match code.as_str() {
                "MX" => 0.08, // prodecon.gob.mx and friends
                "CN" | "RU" => 0.10,
                _ => 0.01,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countries::{country, COUNTRIES};

    fn profile(code: &str) -> HostingProfile {
        let row = country(code.parse().unwrap()).expect("in sample");
        HostingProfile::for_country(row)
    }

    #[test]
    fn shares_normalized_for_every_country() {
        for row in COUNTRIES {
            let p = HostingProfile::for_country(row);
            let sum: f64 = p.url_shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: shares sum {sum}", row.code);
            assert!(p.url_shares.iter().all(|s| *s >= 0.0));
            let fsum: f64 = p.foreign_dests.iter().map(|(_, w)| w).sum();
            assert!(
                p.foreign_dests.is_empty() || (fsum - 1.0).abs() < 1e-9,
                "{}: foreign weights sum {fsum}",
                row.code
            );
            assert!((0.0..=1.0).contains(&p.domestic_server_share));
            assert!((0.0..=1.0).contains(&p.gov_tld_host_fraction));
        }
    }

    #[test]
    fn dendrogram_branch_sizes_match_section7() {
        let mut govt = 0;
        let mut local = 0;
        let mut global = 0;
        for row in COUNTRIES {
            match dominant_of(row.cc()) {
                DominantCategory::GovtSoe => govt += 1,
                DominantCategory::Local => local += 1,
                DominantCategory::Global => global += 1,
            }
        }
        assert_eq!(govt, 19, "19 Govt&SOE-dominant countries (§7.2)");
        assert_eq!(global, 25, "25 3P-Global-dominant countries (§7.2)");
        assert_eq!(local, 17);
    }

    #[test]
    fn quoted_countries_have_quoted_leanings() {
        assert!(profile("UY").url_shares[0] > 0.9, "Uruguay is Govt&SOE");
        let ar = profile("AR");
        assert!(ar.url_shares[1] + ar.url_shares[2] + ar.url_shares[3] > 0.85, "Argentina ~90% 3P");
        assert!(profile("IT").url_shares[1] > 0.9, "Italy 93% 3P Local");
        assert!(profile("ES").url_shares[0] > 0.6, "Spain 64% Govt&SOE");
    }

    #[test]
    fn bilateral_destinations_match_section6() {
        let mx = profile("MX");
        assert!((mx.domestic_server_share - 0.2078).abs() < 1e-9);
        assert_eq!(mx.foreign_dests[0].0.as_str(), "US");

        let fr = profile("FR");
        let nc_weight =
            fr.foreign_dests.iter().find(|(c, _)| c.as_str() == "NC").map(|(_, w)| *w);
        let foreign_total = 1.0 - fr.domestic_server_share;
        let nc_share = nc_weight.unwrap() * foreign_total;
        assert!((nc_share - 0.1803).abs() < 0.01, "France→NC ≈ 18.03%, got {nc_share}");

        let cn = profile("CN");
        let jp_share = (1.0 - cn.domestic_server_share)
            * cn.foreign_dests.iter().find(|(c, _)| c.as_str() == "JP").unwrap().1;
        assert!((jp_share - 0.264).abs() < 0.01, "China→Japan ≈ 26.4%, got {jp_share}");
    }

    #[test]
    fn no_country_is_its_own_foreign_destination() {
        for row in COUNTRIES {
            let p = HostingProfile::for_country(row);
            assert!(p.foreign_dests.iter().all(|(c, _)| *c != row.cc()), "{}", row.code);
        }
    }

    #[test]
    fn plain_style_has_no_gov_hosts() {
        assert_eq!(profile("DE").gov_tld_host_fraction, 0.0);
        assert_eq!(profile("NL").gov_tld_host_fraction, 0.0);
        assert!(profile("GB").gov_tld_host_fraction > 0.5);
    }

    #[test]
    fn tld_tokens() {
        assert_eq!(TldStyle::GouvCc.token(), Some("gouv"));
        assert_eq!(TldStyle::Plain.token(), None);
        assert_eq!(profile("UY").tld_style, TldStyle::GubCc);
        assert_eq!(profile("JP").tld_style, TldStyle::GoCc);
        assert_eq!(profile("US").tld_style, TldStyle::DotGov);
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = profile("GE");
        let b = profile("GE");
        assert_eq!(a.url_shares, b.url_shares);
        assert_eq!(a.icmp_responsive_rate, b.icmp_responsive_rate);
    }
}
