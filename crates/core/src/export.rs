//! Dataset export and import.
//!
//! The paper "makes our dataset available upon request" — this module is
//! that artifact for the reproduction: the full [`GovDataset`] as three
//! CSV documents (per-hostname infrastructure records, per-URL records,
//! and a key-value metadata section carrying the build-level counters:
//! crawl failures by cause, validation statistics, per-country landing
//! counts, and the [`BuildReport`]), plus a loader that reconstructs
//! dataset *and* report from them so the analyses can run without
//! regenerating the world.
//!
//! The import side reads records with [`govhost_report::read_records`],
//! a real RFC 4180 record reader — quoted fields may span lines, so an
//! organisation name with an embedded newline survives the round trip.

use crate::classify::ClassificationMethod;
use crate::dataset::{BuildReport, CountryStats, GovDataset, HostRecord, QuarantineEntry};
use crate::table::UrlTable;
use govhost_geoloc::pipeline::ValidationStats;
use govhost_report::{read_records, Csv};
use govhost_types::{
    Asn, CountryCode, HostInterner, Hostname, PipelineStage, ProviderCategory, Url,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A dataset rendered as CSV documents.
#[derive(Debug, Clone)]
pub struct DatasetCsv {
    /// One row per government hostname with its infrastructure record.
    pub hosts: String,
    /// One row per captured URL.
    pub urls: String,
    /// Key-first metadata rows: dataset counters ([`GovDataset::crawl_failures`],
    /// validation statistics, per-country landing counts) and the
    /// [`BuildReport`]. May be empty for documents written before the
    /// section existed; unknown keys are ignored on import.
    pub meta: String,
}

const HOST_HEADER: [&str; 12] = [
    "hostname",
    "country",
    "method",
    "ip",
    "asn",
    "org",
    "registration",
    "state_operated",
    "category",
    "server_country",
    "anycast",
    "geo_excluded",
];

fn method_str(m: ClassificationMethod) -> &'static str {
    match m {
        ClassificationMethod::GovTld => "gov_tld",
        ClassificationMethod::DomainMatch => "domain_match",
        ClassificationMethod::San => "san",
    }
}

fn method_parse(s: &str) -> Option<ClassificationMethod> {
    Some(match s {
        "gov_tld" => ClassificationMethod::GovTld,
        "domain_match" => ClassificationMethod::DomainMatch,
        "san" => ClassificationMethod::San,
        _ => return None,
    })
}

fn category_str(c: ProviderCategory) -> &'static str {
    match c {
        ProviderCategory::GovtSoe => "govt_soe",
        ProviderCategory::ThirdPartyLocal => "3p_local",
        ProviderCategory::ThirdPartyRegional => "3p_regional",
        ProviderCategory::ThirdPartyGlobal => "3p_global",
    }
}

fn category_parse(s: &str) -> Option<ProviderCategory> {
    Some(match s {
        "govt_soe" => ProviderCategory::GovtSoe,
        "3p_local" => ProviderCategory::ThirdPartyLocal,
        "3p_regional" => ProviderCategory::ThirdPartyRegional,
        "3p_global" => ProviderCategory::ThirdPartyGlobal,
        _ => return None,
    })
}

/// Export a dataset to CSV without a build report (the metadata section
/// still carries the dataset-level counters). See [`export_csv_full`].
pub fn export_csv(dataset: &GovDataset) -> DatasetCsv {
    export_csv_full(dataset, None)
}

/// Export a dataset (and, when available, its [`BuildReport`]) to CSV.
///
/// The export is lossless for every host-record field — including
/// `geo_excluded` — and for the dataset's `crawl_failures` and validation
/// statistics, which travel in the metadata section rather than being
/// re-derived heuristically on import.
pub fn export_csv_full(dataset: &GovDataset, report: Option<&BuildReport>) -> DatasetCsv {
    let mut hosts = Csv::new();
    hosts.row(HOST_HEADER);
    for h in &dataset.hosts {
        hosts.row([
            h.hostname.to_string(),
            h.country.to_string(),
            method_str(h.method).to_string(),
            h.ip.map(|ip| ip.to_string()).unwrap_or_default(),
            h.asn.map(|a| a.value().to_string()).unwrap_or_default(),
            h.org.clone().unwrap_or_default(),
            h.registration.map(|c| c.to_string()).unwrap_or_default(),
            h.state_operated.to_string(),
            h.category.map(|c| category_str(c).to_string()).unwrap_or_default(),
            h.server_country.map(|c| c.to_string()).unwrap_or_default(),
            h.anycast.to_string(),
            h.geo_excluded.to_string(),
        ]);
    }
    let mut urls = Csv::new();
    urls.row(["url", "hostname", "bytes"]);
    for u in dataset.urls.iter() {
        let hostname = &dataset.hosts[u.host.index()].hostname;
        urls.row([u.render(hostname), hostname.to_string(), u.bytes.to_string()]);
    }
    let mut meta = Csv::new();
    meta.row(["crawl_failures".to_string(), dataset.crawl_failures.to_string()]);
    let v = &dataset.validation;
    meta.row(std::iter::once("validation_unicast".to_string())
        .chain(v.unicast.iter().map(|n| n.to_string())));
    meta.row(std::iter::once("validation_anycast".to_string())
        .chain(v.anycast.iter().map(|n| n.to_string())));
    meta.row(["validation_conflicts".to_string(), v.conflicts.to_string()]);
    let mut landing: Vec<(CountryCode, u32)> =
        dataset.per_country.iter().map(|(cc, s)| (*cc, s.landing)).collect();
    landing.sort_unstable();
    for (cc, n) in landing {
        meta.row(["landing".to_string(), cc.to_string(), n.to_string()]);
    }
    if let Some(report) = report {
        let c = report.crawl_failures;
        meta.row([
            "crawl_causes".to_string(),
            c.geo_blocked.to_string(),
            c.not_found.to_string(),
            c.unknown_host.to_string(),
        ]);
        meta.row(["resolution_failures".to_string(), report.resolution_failures.to_string()]);
        meta.row(["geo_excluded".to_string(), report.geo_excluded.to_string()]);
        meta.row(["geo_conflicts".to_string(), report.geo_conflicts.to_string()]);
        for q in &report.quarantined {
            meta.row([
                "quarantined".to_string(),
                q.country.to_string(),
                q.stage.to_string(),
                q.cause.clone(),
            ]);
        }
    }
    DatasetCsv { hosts: hosts.finish(), urls: urls.finish(), meta: meta.finish() }
}

/// Errors loading a CSV dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based row number within the offending document.
    pub row: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset import, row {}: {}", self.row, self.message)
    }
}

impl std::error::Error for ImportError {}

fn import_err(row: usize, message: impl Into<String>) -> ImportError {
    ImportError { row, message: message.into() }
}

/// Reconstruct a dataset from the CSV documents produced by
/// [`export_csv`], discarding the build report. See [`import_csv_full`].
pub fn import_csv(csv: &DatasetCsv) -> Result<GovDataset, ImportError> {
    import_csv_full(csv).map(|(dataset, _report)| dataset)
}

/// Reconstruct a dataset and its [`BuildReport`] from the CSV documents
/// produced by [`export_csv_full`]. Per-country aggregates are recomputed
/// from the rows; geolocation verdicts (anycast flags, exclusions) are
/// carried in the host rows; crawl-failure counts, validation statistics
/// and per-country landing counts come from the metadata section
/// (defaulting to zero when the section is absent).
pub fn import_csv_full(csv: &DatasetCsv) -> Result<(GovDataset, BuildReport), ImportError> {
    let mut hosts: Vec<HostRecord> = Vec::new();
    let mut host_ids = HostInterner::new();
    let host_records = read_records(&csv.hosts);
    if host_records.first().map(Vec::as_slice).is_none_or(|h| h != HOST_HEADER) {
        return Err(import_err(1, "unexpected hosts header"));
    }
    for (idx, f) in host_records.iter().enumerate().skip(1) {
        let row = idx + 1;
        if f.len() != HOST_HEADER.len() {
            return Err(import_err(row, format!("expected {} fields", HOST_HEADER.len())));
        }
        let hostname: Hostname =
            f[0].parse().map_err(|_| import_err(row, format!("bad hostname {:?}", f[0])))?;
        let country: CountryCode =
            f[1].parse().map_err(|_| import_err(row, format!("bad country {:?}", f[1])))?;
        let method =
            method_parse(&f[2]).ok_or_else(|| import_err(row, format!("bad method {:?}", f[2])))?;
        let parse_opt_cc = |s: &str| -> Result<Option<CountryCode>, ImportError> {
            if s.is_empty() {
                Ok(None)
            } else {
                s.parse().map(Some).map_err(|_| import_err(row, format!("bad country {s:?}")))
            }
        };
        let ip: Option<Ipv4Addr> = if f[3].is_empty() {
            None
        } else {
            Some(f[3].parse().map_err(|_| import_err(row, format!("bad ip {:?}", f[3])))?)
        };
        let record = HostRecord {
            hostname: hostname.clone(),
            country,
            method,
            ip,
            asn: if f[4].is_empty() {
                None
            } else {
                Some(Asn(f[4]
                    .parse()
                    .map_err(|_| import_err(row, format!("bad asn {:?}", f[4])))?))
            },
            org: if f[5].is_empty() { None } else { Some(f[5].clone()) },
            registration: parse_opt_cc(&f[6])?,
            state_operated: f[7] == "true",
            category: if f[8].is_empty() {
                None
            } else {
                Some(
                    category_parse(&f[8])
                        .ok_or_else(|| import_err(row, format!("bad category {:?}", f[8])))?,
                )
            },
            server_country: parse_opt_cc(&f[9])?,
            anycast: f[10] == "true",
            geo_excluded: f[11] == "true",
        };
        let (_, first_sighting) = host_ids.intern(&hostname);
        if !first_sighting {
            return Err(import_err(row, format!("duplicate hostname {hostname}")));
        }
        hosts.push(record);
    }

    let mut urls = UrlTable::new();
    let mut method_counts = [0u64; 3];
    let mut per_country: HashMap<CountryCode, CountryStats> = HashMap::new();
    for (idx, f) in read_records(&csv.urls).iter().enumerate().skip(1) {
        let row = idx + 1;
        if f.len() != 3 {
            return Err(import_err(row, "expected 3 fields"));
        }
        let url: Url =
            f[0].parse().map_err(|_| import_err(row, format!("bad url {:?}", f[0])))?;
        let hostname: Hostname =
            f[1].parse().map_err(|_| import_err(row, format!("bad hostname {:?}", f[1])))?;
        let bytes: u64 =
            f[2].parse().map_err(|_| import_err(row, format!("bad bytes {:?}", f[2])))?;
        if url.hostname() != &hostname {
            return Err(import_err(
                row,
                format!("url host {} does not match hostname column {hostname}", url.hostname()),
            ));
        }
        let host = host_ids
            .get(&hostname)
            .ok_or_else(|| import_err(row, format!("unknown hostname {hostname}")))?;
        let record = &hosts[host.index()];
        method_counts[record.method.index()] += 1;
        let stats = per_country.entry(record.country).or_default();
        stats.urls += 1;
        stats.bytes += bytes;
        urls.push(url.scheme(), host, url.path(), bytes);
    }
    // Hostname counts per country.
    for h in &hosts {
        per_country.entry(h.country).or_default().hostnames += 1;
    }

    let (crawl_failures, validation, report) = parse_meta(&csv.meta, &mut per_country)?;

    let dataset = GovDataset {
        hosts,
        urls,
        host_ids,
        validation,
        method_counts,
        crawl_failures,
        per_country,
        timings: Default::default(), // no build ran, so no stage timings
        telemetry: Default::default(), // ...and no telemetry capture
    };
    Ok((dataset, report))
}

/// A `u64` metadata value narrowed to `u32`, erroring — with the field's
/// name — instead of silently wrapping on hostile input.
fn meta_u32(value: u64, row: usize, name: &str) -> Result<u32, ImportError> {
    value
        .try_into()
        .map_err(|_| import_err(row, format!("{name} out of range for u32: {value}")))
}

/// Same as [`meta_u32`] for `usize` targets.
fn meta_usize(value: u64, row: usize, name: &str) -> Result<usize, ImportError> {
    value
        .try_into()
        .map_err(|_| import_err(row, format!("{name} out of range for usize: {value}")))
}

/// Parse the key-first metadata rows, setting each country's landing
/// count in `per_country`. Unknown keys are ignored (forward
/// compatibility); an empty document yields all-zero counters. Every
/// narrowing conversion is checked — a value too large for its counter
/// is an [`ImportError`] naming the field, never a silent wrap.
fn parse_meta(
    meta: &str,
    per_country: &mut HashMap<CountryCode, CountryStats>,
) -> Result<(u32, ValidationStats, BuildReport), ImportError> {
    let mut crawl_failures = 0u32;
    let mut validation = ValidationStats::default();
    let mut report = BuildReport::default();
    for (idx, rec) in read_records(meta).iter().enumerate() {
        let row = idx + 1;
        let field = |i: usize| -> Result<&str, ImportError> {
            rec.get(i)
                .map(String::as_str)
                .ok_or_else(|| import_err(row, format!("metadata field {i} missing")))
        };
        let num = |i: usize| -> Result<u64, ImportError> {
            let s = field(i)?;
            s.parse().map_err(|_| import_err(row, format!("bad metadata number {s:?}")))
        };
        let country = |i: usize| -> Result<CountryCode, ImportError> {
            let cc = field(i)?;
            cc.parse().map_err(|_| import_err(row, format!("bad country {cc:?}")))
        };
        match field(0)? {
            "crawl_failures" => crawl_failures = meta_u32(num(1)?, row, "crawl_failures")?,
            "validation_unicast" => {
                for (slot, i) in validation.unicast.iter_mut().zip(1..) {
                    *slot = meta_usize(num(i)?, row, "validation_unicast")?;
                }
            }
            "validation_anycast" => {
                for (slot, i) in validation.anycast.iter_mut().zip(1..) {
                    *slot = meta_usize(num(i)?, row, "validation_anycast")?;
                }
            }
            "validation_conflicts" => {
                validation.conflicts = meta_usize(num(1)?, row, "validation_conflicts")?
            }
            "crawl_causes" => {
                report.crawl_failures.geo_blocked =
                    meta_u32(num(1)?, row, "crawl_causes.geo_blocked")?;
                report.crawl_failures.not_found =
                    meta_u32(num(2)?, row, "crawl_causes.not_found")?;
                report.crawl_failures.unknown_host =
                    meta_u32(num(3)?, row, "crawl_causes.unknown_host")?;
            }
            "resolution_failures" => report.resolution_failures = num(1)?,
            "geo_excluded" => report.geo_excluded = meta_usize(num(1)?, row, "geo_excluded")?,
            "geo_conflicts" => report.geo_conflicts = meta_usize(num(1)?, row, "geo_conflicts")?,
            "landing" => {
                per_country.entry(country(1)?).or_default().landing =
                    meta_u32(num(2)?, row, "landing")?;
            }
            "quarantined" => {
                let stage_name = field(2)?;
                let stage = PipelineStage::parse(stage_name)
                    .ok_or_else(|| import_err(row, format!("bad stage {stage_name:?}")))?;
                report.quarantined.push(QuarantineEntry {
                    country: country(1)?,
                    stage,
                    cause: field(3)?.to_string(),
                });
            }
            _ => {} // unknown key: tolerated for forward compatibility
        }
    }
    Ok((crawl_failures, validation, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::BuildOptions;
    use crate::hosting::HostingAnalysis;
    use govhost_worldgen::{GenParams, World};

    fn dataset() -> GovDataset {
        let world = World::generate(&GenParams::tiny());
        GovDataset::build(&world, &BuildOptions::default())
    }

    #[test]
    fn export_import_round_trips_records() {
        let world = World::generate(&GenParams::tiny());
        let (original, report) =
            GovDataset::try_build(&world, &BuildOptions::default()).expect("builds");
        let csv = export_csv_full(&original, Some(&report));
        let (loaded, loaded_report) = import_csv_full(&csv).expect("own export imports");
        assert_eq!(loaded.hosts.len(), original.hosts.len());
        assert_eq!(loaded.urls.len(), original.urls.len());
        assert_eq!(loaded.method_counts, original.method_counts);
        for (a, b) in original.hosts.iter().zip(&loaded.hosts) {
            assert_eq!(a.hostname, b.hostname);
            assert_eq!(a.country, b.country);
            assert_eq!(a.method, b.method);
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.asn, b.asn);
            assert_eq!(a.org, b.org);
            assert_eq!(a.category, b.category);
            assert_eq!(a.registration, b.registration);
            assert_eq!(a.server_country, b.server_country);
            assert_eq!(a.state_operated, b.state_operated);
            assert_eq!(a.anycast, b.anycast);
            assert_eq!(a.geo_excluded, b.geo_excluded, "carried, not re-derived");
        }
        // Dataset counters and the build report survive via the metadata
        // section instead of being zeroed or invented on import.
        assert_eq!(loaded.crawl_failures, original.crawl_failures);
        assert_eq!(loaded.validation, original.validation);
        assert_eq!(loaded_report, report);
        // Per-country aggregates: landing counts travel in the metadata
        // section, the rest is recomputed from the rows.
        assert_eq!(loaded.per_country.len(), original.per_country.len());
        for (cc, a) in &original.per_country {
            let b = &loaded.per_country[cc];
            assert_eq!(a.landing, b.landing, "{cc} landing");
            assert_eq!(a.urls, b.urls, "{cc} urls");
            assert_eq!(a.hostnames, b.hostnames, "{cc} hostnames");
            assert_eq!(a.bytes, b.bytes, "{cc} bytes");
        }
    }

    #[test]
    fn import_without_meta_defaults_counters() {
        let csv = export_csv(&dataset());
        let legacy = DatasetCsv { meta: String::new(), ..csv };
        let (loaded, report) = import_csv_full(&legacy).expect("imports");
        assert_eq!(loaded.crawl_failures, 0);
        assert_eq!(report, BuildReport::default());
    }

    #[test]
    fn analyses_agree_on_imported_dataset() {
        let original = dataset();
        let loaded = import_csv(&export_csv(&original)).expect("imports");
        let a = HostingAnalysis::compute(&original);
        let b = HostingAnalysis::compute(&loaded);
        assert_eq!(a.global, b.global, "hosting analysis identical after round trip");
        let la = crate::location::LocationAnalysis::compute(&original);
        let lb = crate::location::LocationAnalysis::compute(&loaded);
        assert_eq!(la.registration, lb.registration);
        assert_eq!(la.geolocation, lb.geolocation);
    }

    #[test]
    fn org_names_with_commas_survive() {
        let mut ds = dataset();
        ds.hosts[0].org = Some("Cloudflare, Inc. \"CDN\"".to_string());
        // Embedded newlines (both kinds) must survive too: the writer
        // quotes them, and the reader consumes quoted newlines instead of
        // splitting records on them.
        ds.hosts[1].org = Some("Dirección General\nde Informática".to_string());
        ds.hosts[2].org = Some("Windows\r\nHosting GmbH".to_string());
        let loaded = import_csv(&export_csv(&ds)).expect("imports");
        assert_eq!(loaded.hosts[0].org.as_deref(), Some("Cloudflare, Inc. \"CDN\""));
        assert_eq!(loaded.hosts[1].org.as_deref(), Some("Dirección General\nde Informática"));
        assert_eq!(loaded.hosts[2].org.as_deref(), Some("Windows\r\nHosting GmbH"));
        assert_eq!(loaded.hosts.len(), ds.hosts.len(), "no records split in half");
    }

    #[test]
    fn corrupted_input_reports_row() {
        let csv = export_csv(&dataset());
        let broken = DatasetCsv {
            hosts: csv.hosts.replace("true", "true,extra-field"),
            urls: csv.urls.clone(),
            meta: csv.meta.clone(),
        };
        let e = import_csv(&broken).unwrap_err();
        assert!(e.row > 1);

        let bad_header = DatasetCsv {
            hosts: "nope\n".to_string(),
            urls: csv.urls.clone(),
            meta: csv.meta.clone(),
        };
        assert!(import_csv(&bad_header).is_err());

        let bad_meta = DatasetCsv {
            meta: "crawl_failures,not-a-number\n".to_string(),
            ..csv.clone()
        };
        assert!(import_csv(&bad_meta).is_err());
    }
}
