//! Calibration self-check: does a generated world actually embody the
//! paper's published statistics?
//!
//! The generator promises that Table 8 volumes (scaled), hosting profiles,
//! and the pinned bilateral cases hold in the concrete world. This module
//! verifies those promises against the *ground truth* (not the pipeline —
//! pipeline recovery is `govhost-core`'s job), producing a report the
//! tests and the `repro` harness can assert on.

use crate::countries::COUNTRIES;
use crate::profiles::HostingProfile;
use crate::world::World;
use govhost_types::ProviderCategory;

/// One calibration check's outcome.
#[derive(Debug, Clone)]
pub struct CalibrationCheck {
    /// What was checked.
    pub name: String,
    /// Target value.
    pub expected: f64,
    /// Value found in the generated world.
    pub actual: f64,
    /// Acceptable absolute deviation.
    pub tolerance: f64,
}

impl CalibrationCheck {
    /// Whether the check passes.
    pub fn ok(&self) -> bool {
        (self.actual - self.expected).abs() <= self.tolerance
    }
}

/// The full calibration report.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// Every check performed.
    pub checks: Vec<CalibrationCheck>,
}

impl CalibrationReport {
    /// Run all checks against a world.
    pub fn check(world: &World) -> CalibrationReport {
        let mut report = CalibrationReport::default();
        let scale = world.params.scale;

        // Volumes: hostname counts per country track Table 8 × scale.
        for row in COUNTRIES {
            let code = row.cc();
            let expected = if row.hostnames == 0 {
                0.0
            } else {
                (row.hostnames as f64 * scale).max(3.0)
            };
            let actual = world
                .truth
                .hosts
                .values()
                .filter(|t| t.country == code && !t.san_only)
                .count() as f64;
            report.checks.push(CalibrationCheck {
                name: format!("{code} hostname volume"),
                expected,
                actual,
                // Rounding, category apportionment and the FR special case
                // move counts by a few.
                tolerance: (expected * 0.25).max(3.0),
            });
        }

        // Category weights: per-country URL-weight shares track profiles.
        for row in COUNTRIES.iter().filter(|r| r.hostnames > 0) {
            let code = row.cc();
            let profile = HostingProfile::for_country(row);
            let mut weights = [0.0f64; 4];
            let mut total = 0.0;
            for t in world.truth.hosts.values().filter(|t| t.country == code) {
                // Ground truth has no per-host weight; approximate with
                // counts (weights are near-uniform within categories).
                weights[t.category.index()] += 1.0;
                total += 1.0;
            }
            if total < 8.0 {
                continue; // too few hosts for shares to mean anything
            }
            let govt_share = weights[ProviderCategory::GovtSoe.index()] / total;
            report.checks.push(CalibrationCheck {
                name: format!("{code} Govt&SOE hostname share"),
                expected: profile.url_shares[0],
                actual: govt_share,
                tolerance: 0.22,
            });
        }

        // Pinned special case: France → New Caledonia exists.
        let gouv_nc: govhost_types::Hostname = "gouv.nc".parse().expect("static");
        let fr_nc = world.truth.host(&gouv_nc).map(|t| {
            (t.country.as_str() == "FR" && t.location.as_str() == "NC") as u32 as f64
        });
        report.checks.push(CalibrationCheck {
            name: "France gouv.nc hosted in NC".into(),
            expected: 1.0,
            actual: fr_nc.unwrap_or(0.0),
            tolerance: 0.0,
        });

        // Anycast share of servers near the paper's 10%.
        let servers = world.registry.servers();
        let anycast = servers.iter().filter(|s| s.anycast).count() as f64;
        report.checks.push(CalibrationCheck {
            name: "anycast server share".into(),
            expected: 0.10,
            actual: anycast / servers.len().max(1) as f64,
            tolerance: 0.08,
        });

        // Provider assignments hit Fig. 10's headline counts exactly.
        for (asn, expected) in [(13335u32, 49.0), (16509, 31.0), (8075, 28.0)] {
            let actual = world
                .truth
                .provider_assignments
                .get(&govhost_types::Asn(asn))
                .map(|v| v.len() as f64)
                .unwrap_or(0.0);
            report.checks.push(CalibrationCheck {
                name: format!("AS{asn} assigned-country count"),
                expected,
                actual,
                tolerance: 0.0,
            });
        }

        report
    }

    /// Checks that failed.
    pub fn failures(&self) -> Vec<&CalibrationCheck> {
        self.checks.iter().filter(|c| !c.ok()).collect()
    }

    /// Pass rate in `[0, 1]`.
    pub fn pass_rate(&self) -> f64 {
        if self.checks.is_empty() {
            return f64::NAN;
        }
        1.0 - self.failures().len() as f64 / self.checks.len() as f64
    }

    /// Human-readable summary (failures listed first).
    pub fn render(&self) -> String {
        let mut out = format!(
            "calibration: {}/{} checks pass ({:.0}%)\n",
            self.checks.len() - self.failures().len(),
            self.checks.len(),
            self.pass_rate() * 100.0
        );
        for c in self.failures() {
            out.push_str(&format!(
                "  FAIL {}: expected {:.3}±{:.3}, got {:.3}\n",
                c.name, c.expected, c.tolerance, c.actual
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GenParams;

    #[test]
    fn tiny_world_calibrates() {
        let world = World::generate(&GenParams::tiny());
        let report = CalibrationReport::check(&world);
        assert!(report.checks.len() > 60, "checks: {}", report.checks.len());
        assert!(
            report.pass_rate() > 0.9,
            "calibration pass rate {:.2}:\n{}",
            report.pass_rate(),
            report.render()
        );
    }

    #[test]
    fn provider_assignment_checks_are_exact() {
        let world = World::generate(&GenParams::tiny());
        let report = CalibrationReport::check(&world);
        for c in &report.checks {
            if c.name.contains("assigned-country") {
                assert!(c.ok(), "{}: {} != {}", c.name, c.actual, c.expected);
            }
        }
    }
}
