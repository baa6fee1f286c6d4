//! Generation parameters.

/// Knobs controlling world generation. Everything is deterministic in
/// `seed`; `scale` trades fidelity for speed by sampling the paper's URL
/// volumes down proportionally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Master seed; every derived random stream is keyed off it.
    pub seed: u64,
    /// Fraction of the paper's per-country URL/hostname volumes to
    /// generate. `1.0` reproduces Table 3's ~1M-URL dataset; `0.02` builds
    /// a laptop-test world in milliseconds.
    pub scale: f64,
    /// MAnycast2 false-negative rate (anycast addresses the detector
    /// misses).
    pub anycast_false_negative: f64,
    /// Fraction of geolocation-database rows corrupted to a wrong country
    /// (Darwich et al.'s error tail).
    pub geodb_error_rate: f64,
    /// Fraction of server IPs present in the IPmap cache.
    pub ipmap_coverage: f64,
    /// Fraction of servers with PTR records.
    pub ptr_coverage: f64,
    /// Fraction of city tokens the HOIHO dictionary knows.
    pub hoiho_coverage: f64,
    /// PeeringDB coverage of government networks (PeeringDB famously
    /// under-covers them, §3.4).
    pub peeringdb_gov_coverage: f64,
    /// Fraction of state organizations discoverable through web search.
    pub search_coverage: f64,
}

impl Default for GenParams {
    fn default() -> Self {
        Self {
            seed: 42,
            scale: 0.1,
            anycast_false_negative: 0.03,
            geodb_error_rate: 0.03,
            ipmap_coverage: 0.75,
            ptr_coverage: 0.8,
            hoiho_coverage: 0.9,
            peeringdb_gov_coverage: 0.35,
            search_coverage: 0.88,
        }
    }
}

impl GenParams {
    /// Full-fidelity parameters (Table 3 volumes).
    pub fn full() -> Self {
        Self { scale: 1.0, ..Self::default() }
    }

    /// A tiny world for fast tests.
    pub fn tiny() -> Self {
        Self { scale: 0.02, ..Self::default() }
    }

    /// Scale a paper volume down, keeping small-country minimums sane.
    pub fn scaled(&self, value: u32, min_if_nonzero: u32) -> u32 {
        if value == 0 {
            return 0;
        }
        ((value as f64 * self.scale).round() as u32).max(min_if_nonzero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_zero_and_minimum() {
        let p = GenParams { scale: 0.01, ..GenParams::default() };
        assert_eq!(p.scaled(0, 3), 0);
        assert_eq!(p.scaled(50, 3), 3, "0.5 rounds to 1, then min 3 applies");
        assert_eq!(p.scaled(10_000, 3), 100);
    }

    #[test]
    fn full_scale_is_identity() {
        let p = GenParams::full();
        assert_eq!(p.scaled(15_878, 1), 15_878);
    }

    #[test]
    fn defaults_are_probabilities() {
        let p = GenParams::default();
        for v in [
            p.anycast_false_negative,
            p.geodb_error_rate,
            p.ipmap_coverage,
            p.ptr_coverage,
            p.hoiho_coverage,
            p.peeringdb_gov_coverage,
            p.search_coverage,
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
