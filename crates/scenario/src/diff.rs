//! The diff engine: line two measured builds up and rank where they
//! disagree.
//!
//! Both sides are [`BuildMetrics`], the one reduction of a dataset that
//! `govhost-core` defines (and the evolve timeline also records): per
//! country URL/byte volume, network concentration (HHI), offshore share
//! and the *dark fraction* — the share of government URLs on hosts that
//! no longer resolve. [`diff`] lines two measurements up row by row,
//! computes deltas and declares winners, with a ±1% dead-band so float
//! noise never flips a verdict. All folds run in `BTreeMap`
//! (country-code) order, so the same pair of datasets always yields the
//! byte-identical report.

pub use govhost_core::metrics::{BuildMetrics, CountryMetrics};
use govhost_types::CountryCode;

/// Which side a metric row favors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// Side A (the first build) is better.
    A,
    /// Side B (the second build) is better.
    B,
    /// Within the ±1% dead-band: no meaningful difference.
    Tie,
}

impl Winner {
    /// Stable single-character label (`a` / `b` / `=`).
    pub fn label(&self) -> &'static str {
        match self {
            Winner::A => "a",
            Winner::B => "b",
            Winner::Tie => "=",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name (stable, lowercase).
    pub label: String,
    /// Side A's value.
    pub a: f64,
    /// Side B's value.
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
    /// Relative difference in percent of A (sign follows `delta`).
    pub diff_pct: f64,
    /// Who wins, honoring `lower_is_better`.
    pub winner: Winner,
    /// Whether smaller values are better for this metric.
    pub lower_is_better: bool,
}

/// All compared metrics for one country.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryDiff {
    /// The country.
    pub country: CountryCode,
    /// Its metric rows, in a fixed label order.
    pub rows: Vec<MetricRow>,
}

/// Two builds, lined up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Whole-study rows (means, global dark fraction).
    pub global: Vec<MetricRow>,
    /// Per-country rows, in country-code order; only countries present
    /// in both builds are compared.
    pub countries: Vec<CountryDiff>,
}

/// Relative-difference dead band (percent) inside which a row is a tie.
const TIE_BAND_PCT: f64 = 1.0;

fn row(label: &str, a: f64, b: f64, lower_is_better: bool) -> MetricRow {
    let delta = b - a;
    let diff_pct = if a.abs() > 1e-12 {
        delta / a.abs() * 100.0
    } else if b.abs() > 1e-12 {
        100.0 * delta.signum()
    } else {
        0.0
    };
    let winner = if diff_pct.abs() <= TIE_BAND_PCT {
        Winner::Tie
    } else if (delta < 0.0) == lower_is_better {
        Winner::B
    } else {
        Winner::A
    };
    MetricRow { label: label.to_string(), a, b, delta, diff_pct, winner, lower_is_better }
}

/// Line two measurements up. `diff(x, x)` is all-zero: every delta 0,
/// every row a tie.
pub fn diff(a: &BuildMetrics, b: &BuildMetrics) -> DiffReport {
    let mut report = DiffReport {
        global: vec![
            row("mean hhi (urls)", a.mean_hhi_urls, b.mean_hhi_urls, true),
            row("mean hhi (bytes)", a.mean_hhi_bytes, b.mean_hhi_bytes, true),
            row("dark urls %", a.dark_percent, b.dark_percent, true),
            row(
                "countries measured",
                a.countries.len() as f64,
                b.countries.len() as f64,
                false,
            ),
        ],
        countries: Vec::new(),
    };
    for (code, ca) in &a.countries {
        let Some(cb) = b.countries.get(code) else { continue };
        let offshore = match (ca.offshore_percent, cb.offshore_percent) {
            (Some(x), Some(y)) => Some(row("offshore %", x, y, true)),
            _ => None,
        };
        let mut rows = vec![
            row("urls", ca.urls as f64, cb.urls as f64, false),
            row("hostnames", ca.hostnames as f64, cb.hostnames as f64, false),
            row("hhi (urls)", ca.hhi_urls, cb.hhi_urls, true),
            row("hhi (bytes)", ca.hhi_bytes, cb.hhi_bytes, true),
            row("dark %", ca.dark_percent, cb.dark_percent, true),
        ];
        rows.extend(offshore);
        report.countries.push(CountryDiff { country: *code, rows });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_core::metrics::ProviderFootprint;
    use std::collections::BTreeMap;

    #[test]
    fn self_diff_is_all_zero_ties() {
        let m = BuildMetrics {
            countries: BTreeMap::from([(
                "NL".parse().unwrap(),
                CountryMetrics {
                    urls: 100,
                    bytes: 5000,
                    hostnames: 10,
                    hhi_urls: 0.3,
                    hhi_bytes: 0.4,
                    dominant: None,
                    offshore_percent: Some(25.0),
                    dark_percent: 0.0,
                },
            )]),
            providers: BTreeMap::from([(
                13335,
                ProviderFootprint { org: "Cloudflare, Inc.".to_string(), countries: 3 },
            )]),
            mean_hhi_urls: 0.3,
            mean_hhi_bytes: 0.4,
            state_led: 0,
            third_party_urls: 0.0,
            dark_percent: 0.0,
        };
        let d = diff(&m, &m);
        for r in d.global.iter().chain(d.countries.iter().flat_map(|c| c.rows.iter())) {
            assert_eq!(r.delta, 0.0, "{}", r.label);
            assert_eq!(r.diff_pct, 0.0, "{}", r.label);
            assert_eq!(r.winner, Winner::Tie, "{}", r.label);
        }
    }

    #[test]
    fn winners_honor_direction() {
        let r = row("hhi", 0.2, 0.4, true);
        assert_eq!(r.winner, Winner::A, "lower-is-better, A lower");
        let r = row("urls", 100.0, 140.0, false);
        assert_eq!(r.winner, Winner::B, "higher-is-better, B higher");
        let r = row("hhi", 0.400, 0.401, true);
        assert_eq!(r.winner, Winner::Tie, "inside the dead band");
        let r = row("dark", 0.0, 12.0, true);
        assert_eq!(r.winner, Winner::A, "zero baseline, B worse");
        assert_eq!(r.diff_pct, 100.0);
    }
}
