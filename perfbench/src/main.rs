//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <build|evolve|whatif|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload drives one `govhost` entry point through its public
//! functions for `S` seconds, checks every output, and prints a report
//! followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` they are the per-layer ones, taken from spans the
//! benchmark records around each layer's public calls. See README.md.

mod batch;
mod conn;
mod mix;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads for every build fan-out (`BuildOptions::threads`).
pub const BUILD_THREADS: usize = 2;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never calls reads 0 and is listed as bypassed in the report.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("worldgen.generate_ms", "ms"),
    ("dataset.crawl_ms", "ms"),
    ("dataset.classify_ms", "ms"),
    ("dataset.identify_ms", "ms"),
    ("dataset.geolocate_ms", "ms"),
    ("dataset.analyze_ms", "ms"),
    ("dataset.pages", "count"),
    ("dataset.urls_examined", "count"),
    ("dataset.hosts", "count"),
    ("dataset.geo_tasks", "count"),
    ("dataset.parallelism", "ratio"),
    ("tick.run_ms", "ms"),
    ("tick.dirty_countries", "count"),
    ("dataset.rebuild_ms", "ms"),
    ("dataset.recomputed_countries", "count"),
    ("dataset.replayed_countries", "count"),
    ("evolve.measure_ms", "ms"),
    ("analysis.hosting_ms", "ms"),
    ("analysis.location_ms", "ms"),
    ("analysis.providers_ms", "ms"),
    ("analysis.diversification_ms", "ms"),
    ("scenario.baseline_ms", "ms"),
    ("shock.apply_ms", "ms"),
    ("shock.darkened_hosts", "count"),
    ("shock.dirty_countries", "count"),
    ("scenario.measure_ms", "ms"),
    ("scenario.report_ms", "ms"),
    ("export.csv_ms", "ms"),
    ("export.bytes", "bytes"),
    ("index.build_ms", "ms"),
    ("http.parse_us", "us"),
    ("router.slab_us", "us"),
    ("router.revalidate_us", "us"),
    ("history.respond_us", "us"),
    ("query.hit_us", "us"),
    ("query.miss_us", "us"),
    ("query.hit_ratio", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("event.turn_us", "us"),
    ("serve.contention_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Build,
    Evolve,
    Whatif,
    Serve,
}

impl Workload {
    fn parse(raw: &str) -> Result<Workload, String> {
        match raw {
            "build" => Ok(Workload::Build),
            "evolve" => Ok(Workload::Evolve),
            "whatif" => Ok(Workload::Whatif),
            "serve" => Ok(Workload::Serve),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Evolve => "evolve",
            Workload::Whatif => "whatif",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <build|evolve|whatif|serve> --seed N --seconds S --trace <0|1>";

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad("0 or 1")),
                },
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not tied to one op (cross-op identity,
    /// replay ≡ entry point); any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Where a traced run writes its spans: inside the working directory.
pub fn spans_path(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}.csv", workload.name()))
}

/// Put the tracing-overhead rows and the layer table into the report.
pub fn report_trace(
    out: &mut Outcome,
    tracer: &trace::Tracer,
    untraced_op_ms: f64,
    traced_op_ms: f64,
) {
    out.set("trace.untraced_op_ms", untraced_op_ms);
    out.set("trace.traced_op_ms", traced_op_ms);
    out.set(
        "trace.overhead_pct",
        (traced_op_ms / untraced_op_ms - 1.0) * 100.0,
    );
    out.note(format!(
        "untraced op_ms {untraced_op_ms:.4}, traced op_ms {traced_op_ms:.4}, tracing overhead {:+.2}%",
        (traced_op_ms / untraced_op_ms - 1.0) * 100.0
    ));
    out.note(format!(
        "{:<28} {:>9} {:>14} {:>14}",
        "span", "calls", "inclusive ms", "self ms"
    ));
    for (name, calls, inclusive, own) in tracer.summary() {
        out.note(format!(
            "{name:<28} {calls:>9} {inclusive:>14.3} {own:>14.3}"
        ));
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Every option is set explicitly below; no knob from the
    // environment may change a workload.
    for var in [
        "GOVHOST_THREADS",
        "GOVHOST_TRACE",
        "GOVHOST_TICKS",
        "GOVHOST_SERVE_THREADS",
    ] {
        std::env::remove_var(var);
    }
    let origin = Instant::now();
    let result = match args.workload {
        Workload::Build => batch::build(&args, origin),
        Workload::Evolve => batch::evolve(&args, origin),
        Workload::Whatif => batch::whatif(&args, origin),
        Workload::Serve => serve::run(&args, origin),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    if !args.trace {
        match stats::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => {
                eprintln!("perfbench: peak RSS needs /proc/self/status");
                std::process::exit(1);
            }
        }
    }
    for line in &out.report {
        println!("{line}");
    }
    for failure in &out.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => {
                println!(
                    "{name}: bypassed by the {} workload (reads 0)",
                    args.workload.name()
                );
                0.0
            }
            None => {
                eprintln!("perfbench: {} produced no {name}", args.workload.name());
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            std::process::exit(1);
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\": ["))
                .expect("section present");
            let body = &json[start..start + json[start..].find(']').expect("section closes")];
            body.lines()
                .filter_map(|l| {
                    let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                    let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                    Some((name.to_string(), unit.to_string()))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload serve --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::Serve, 7, 2.5, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload build --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload build --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload build --seconds 1").is_err());
    }
}
