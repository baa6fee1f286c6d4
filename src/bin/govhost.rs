//! The `govhost` command-line tool: generate worlds, build and export
//! datasets, re-analyze exported data, dump crawl/zone artifacts, evolve
//! a world through yearly ticks, serve, and evaluate what-if scenarios.
//!
//! ```text
//! govhost dataset --scale 0.1 --out ./data        # build + export CSVs
//! govhost analyze --dir ./data                    # analyses from CSVs
//! govhost har --country AR --out ./data           # HAR of one country crawl
//! govhost zone --host <hostname>                  # dump a zone file
//! govhost serve --scale 0.1 --addr 127.0.0.1:8080 # HTTP query server
//! govhost evolve --years 10 --scale 0.05          # yearly ticks + trend table
//! govhost scenario what-if.scn --scale 0.1        # counterfactual report cards
//! ```

use govhost::core::evolve::evolve_with_systems;
use govhost::core::export::{export_csv_full, import_csv, DatasetCsv};
use govhost::prelude::*;
use govhost::web::crawler::{crawl_sites_parallel, Crawler};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_die("missing command");
    };
    // `scenario` takes its file as a positional argument, before flags.
    if command == "scenario" {
        let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
            usage_die("scenario needs a file: govhost scenario FILE [flags]");
        };
        let flags = Flags::parse(&args[2..]);
        cmd_scenario(std::path::Path::new(file), &flags);
        return;
    }
    let flags = Flags::parse(&args[1..]);
    match command.as_str() {
        "dataset" => cmd_dataset(&flags),
        "analyze" => cmd_analyze(&flags),
        "har" => cmd_har(&flags),
        "zone" => cmd_zone(&flags),
        "serve" => cmd_serve(&flags),
        "evolve" => cmd_evolve(&flags),
        "--help" | "-h" | "help" => usage(),
        other => usage_die(&format!("unknown command {other:?}")),
    }
}

fn usage() {
    eprintln!(
        "usage: govhost <command> [flags]\n\
         commands:\n\
           dataset  --scale S --seed N --out DIR    build the dataset and export CSVs\n\
           analyze  --dir DIR                       run the analyses over exported CSVs\n\
           har      --country CC --out DIR          export one country's crawl as HAR JSON\n\
           zone     --host HOSTNAME                 print a hostname's zone as a master file\n\
           serve    --scale S --addr HOST:PORT      build the dataset and serve JSON queries\n\
                    [--threads N]                   (worker count; GOVHOST_THREADS)\n\
                    [--max-conns N]                 (in-flight cap before 503 shedding)\n\
                    [--idle-timeout-ms N]           (idle keep-alive eviction deadline)\n\
                    [--query-cache N]               (parameterized result-cache entries; 0 disables)\n\
                    [--years N]                     (evolve N yearly ticks; history routes cover them)\n\
                    [--scenario FILE]               (evaluate a scenario file; /scenario/.. routes)\n\
           evolve   --years N --scale S --seed N    tick the world N years and print the trend table\n\
                                                    (tick roster via GOVHOST_TICKS; default 5 years)\n\
           scenario FILE --scale S --seed N         evaluate what-if scenarios and print report cards"
    );
}

struct Flags {
    scale: f64,
    seed: u64,
    out: PathBuf,
    dir: PathBuf,
    country: String,
    host: String,
    addr: String,
    /// `None` when `--years` is absent, so an explicit 0 stays 0.
    years: Option<u32>,
    threads: usize,
    max_conns: usize,
    idle_timeout_ms: u64,
    query_cache: usize,
    scenario: PathBuf,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut f = Flags {
            scale: 0.05,
            seed: 42,
            out: PathBuf::from("."),
            dir: PathBuf::from("."),
            country: "AR".to_string(),
            host: String::new(),
            addr: "127.0.0.1:8080".to_string(),
            years: None,
            threads: 0,
            max_conns: 0,
            idle_timeout_ms: 0,
            query_cache: govhost::serve::DEFAULT_RESULT_CACHE,
            scenario: PathBuf::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            match args[i].as_str() {
                "--scale" => {
                    // A world needs a positive, finite size: 0 or a
                    // negative scale would silently build the minimum
                    // world, and inf would saturate every count.
                    f.scale = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage_die("bad --scale"))
                }
                "--seed" => f.seed = value.parse().unwrap_or_else(|_| usage_die("bad --seed")),
                "--out" => f.out = PathBuf::from(&value),
                "--dir" => f.dir = PathBuf::from(&value),
                "--country" => f.country = value.clone(),
                "--host" => f.host = value.clone(),
                "--addr" => f.addr = value.clone(),
                "--years" => {
                    f.years = Some(value.parse().unwrap_or_else(|_| usage_die("bad --years")))
                }
                "--threads" => {
                    f.threads = value.parse().unwrap_or_else(|_| usage_die("bad --threads"))
                }
                "--max-conns" => {
                    f.max_conns =
                        value.parse().unwrap_or_else(|_| usage_die("bad --max-conns"))
                }
                "--idle-timeout-ms" => {
                    f.idle_timeout_ms =
                        value.parse().unwrap_or_else(|_| usage_die("bad --idle-timeout-ms"))
                }
                "--query-cache" => {
                    f.query_cache =
                        value.parse().unwrap_or_else(|_| usage_die("bad --query-cache"))
                }
                "--scenario" => f.scenario = PathBuf::from(&value),
                other => usage_die(&format!("unknown flag {other}")),
            }
            i += 2;
        }
        f
    }
}

/// A runtime failure (I/O, bad data): report and exit nonzero.
fn die(msg: &str) -> ! {
    eprintln!("govhost: {msg}");
    std::process::exit(2);
}

/// A usage error (unknown command/flag, unparsable value): report,
/// print usage to stderr, exit nonzero.
fn usage_die(msg: &str) -> ! {
    eprintln!("govhost: {msg}");
    usage();
    std::process::exit(2);
}

fn params(flags: &Flags) -> GenParams {
    GenParams { scale: flags.scale, seed: flags.seed, ..GenParams::default() }
}

/// The tick roster `GOVHOST_TICKS` selects; an unknown system name is
/// fatal.
fn tick_systems() -> Vec<Box<dyn govhost::worldgen::TickSystem>> {
    govhost::worldgen::systems_from_env().unwrap_or_else(|e| die(&e.to_string()))
}

fn cmd_dataset(flags: &Flags) {
    eprintln!("generating world (seed {}, scale {})...", flags.seed, flags.scale);
    let world = World::generate(&params(flags));
    let (dataset, report) = GovDataset::try_build(&world, &BuildOptions::default())
        .unwrap_or_else(|e| die(&e.to_string()));
    let summary = dataset.summary();
    eprintln!(
        "built: {} URLs, {} hostnames, {} ASes ({} government)",
        summary.unique_urls, summary.unique_hostnames, summary.ases, summary.govt_ases
    );
    let csv = export_csv_full(&dataset, Some(&report));
    std::fs::create_dir_all(&flags.out).unwrap_or_else(|e| die(&e.to_string()));
    let hosts_path = flags.out.join("hosts.csv");
    let urls_path = flags.out.join("urls.csv");
    let meta_path = flags.out.join("meta.csv");
    std::fs::write(&hosts_path, csv.hosts).unwrap_or_else(|e| die(&e.to_string()));
    std::fs::write(&urls_path, csv.urls).unwrap_or_else(|e| die(&e.to_string()));
    std::fs::write(&meta_path, csv.meta).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "wrote {}, {} and {}",
        hosts_path.display(),
        urls_path.display(),
        meta_path.display()
    );
    // The build's telemetry capture rides along with the CSVs unless
    // GOVHOST_TRACE=0 turned it off.
    let written = govhost::obs::export::write_files(&dataset.telemetry, &flags.out)
        .unwrap_or_else(|e| die(&e.to_string()));
    for path in written {
        println!("wrote {}", path.display());
    }
}

fn cmd_analyze(flags: &Flags) {
    let hosts = std::fs::read_to_string(flags.dir.join("hosts.csv"))
        .unwrap_or_else(|e| die(&format!("hosts.csv: {e}")));
    let urls = std::fs::read_to_string(flags.dir.join("urls.csv"))
        .unwrap_or_else(|e| die(&format!("urls.csv: {e}")));
    // Older exports have no metadata document; counters default to zero.
    let meta = std::fs::read_to_string(flags.dir.join("meta.csv")).unwrap_or_default();
    let dataset =
        import_csv(&DatasetCsv { hosts, urls, meta }).unwrap_or_else(|e| die(&e.to_string()));
    let hosting = HostingAnalysis::compute(&dataset);
    let mean = hosting.global_country_mean();
    let location = LocationAnalysis::compute(&dataset);
    let providers = ProviderAnalysis::compute(&dataset);
    println!("dataset: {} URLs / {} hostnames", dataset.urls.len(), dataset.hosts.len());
    println!(
        "third-party share: {:.1}% of URLs, {:.1}% of bytes",
        mean.third_party_urls() * 100.0,
        mean.third_party_bytes() * 100.0
    );
    println!(
        "domestic: {:.1}% served, {:.1}% registered",
        location.geolocation.domestic_fraction() * 100.0,
        location.registration.domestic_fraction() * 100.0
    );
    if let Some(leader) = providers.leader() {
        println!("leading provider: {} ({} governments)", leader.org, leader.countries.len());
    }
}

fn cmd_har(flags: &Flags) {
    let code: CountryCode =
        flags.country.parse().unwrap_or_else(|_| die("bad --country code"));
    let world = World::generate(&params(flags));
    let landing = world.landing(code);
    if landing.is_empty() {
        die(&format!("no landing pages for {code}"));
    }
    let vantage = world.vantage(code);
    let jobs: Vec<_> =
        landing.iter().map(|u| (u.clone(), Some(vantage.country))).collect();
    let outcomes = crawl_sites_parallel(
        &world.corpus,
        &Crawler::default(),
        &jobs,
        govhost_par::resolve_threads(),
    );
    let mut log = govhost::web::har::HarLog::new();
    for outcome in outcomes {
        log.merge(outcome.log);
    }
    let json = govhost::web::to_har_json(&log);
    std::fs::create_dir_all(&flags.out).unwrap_or_else(|e| die(&e.to_string()));
    let path = flags.out.join(format!("{}.har.json", code.as_str().to_lowercase()));
    std::fs::write(&path, &json).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "wrote {} ({} entries, {} bytes captured)",
        path.display(),
        log.entries.len(),
        log.total_bytes()
    );
}

fn cmd_serve(flags: &Flags) {
    use govhost::core::evolve::Timeline;
    use govhost::obs::export::trace_level;
    use govhost::serve::{PoolConfig, ServeState, Server, ROUTES};
    // A bad `GOVHOST_TICKS` roster fails before any world is generated.
    let years = flags.years.unwrap_or(0);
    let systems = if years > 0 { tick_systems() } else { Vec::new() };
    eprintln!("generating world (seed {}, scale {})...", flags.seed, flags.scale);
    let mut world = World::generate(&params(flags));
    // `--years N` runs the longitudinal ticks up front and serves the
    // evolved world's final dataset with the full multi-year timeline
    // behind the history routes; without it those routes answer the
    // single year-0 snapshot. The dataset is dropped once indexed.
    let state = {
        let (dataset, timeline) = if years > 0 {
            eprintln!("evolving {years} years...");
            let outcome = evolve_with_systems(
                &mut world,
                years,
                &BuildOptions::default(),
                &systems,
            )
            .unwrap_or_else(|e| die(&e.to_string()));
            (outcome.dataset, outcome.timeline)
        } else {
            let (dataset, _report) = GovDataset::try_build(&world, &BuildOptions::default())
                .unwrap_or_else(|e| die(&e.to_string()));
            let timeline = Timeline::snapshot(&dataset);
            (dataset, timeline)
        };
        // `GOVHOST_TRACE=verbose` keeps real latency numbers in
        // `/metrics`; the default exposition stays deterministic.
        ServeState::with_timeline_config(
            &dataset,
            &timeline,
            trace_level().time_mode(),
            flags.query_cache,
        )
    };
    // `--scenario FILE` evaluates the what-if file against the same
    // year-0 parameters and prerenders `/scenario/{name}[/diff]`.
    let state = if flags.scenario.as_os_str().is_empty() {
        state
    } else {
        let runs = load_scenarios(&flags.scenario, flags);
        let index = govhost::serve::ScenarioIndex::build(&runs);
        eprintln!(
            "scenarios: {}",
            index.names().collect::<Vec<_>>().join(" ")
        );
        state.with_scenarios(index)
    };
    let state = std::sync::Arc::new(state);
    let threads =
        if flags.threads > 0 { flags.threads } else { govhost_par::resolve_threads() };
    let mut config = PoolConfig::default();
    if flags.max_conns > 0 {
        config.max_conns = flags.max_conns;
    }
    if flags.idle_timeout_ms > 0 {
        config.policy.idle_timeout = std::time::Duration::from_millis(flags.idle_timeout_ms);
    }
    let (max_conns, idle) = (config.max_conns, config.policy.idle_timeout);
    let server = Server::bind(state, flags.addr.as_str(), threads, config)
        .unwrap_or_else(|e| die(&format!("bind {}: {e}", flags.addr)));
    println!(
        "serving on http://{} with {threads} workers (max-conns {max_conns}, idle-timeout {:?})",
        server.local_addr(),
        idle
    );
    println!("routes: {}", ROUTES.join(" "));
    println!("press Ctrl-C to stop");
    // Serve until the process is killed; the acceptor and workers run
    // in background threads.
    loop {
        std::thread::park();
    }
}

/// Read, parse and evaluate a scenario file; any failure is fatal with
/// the parser's `line N:` diagnostics passed through verbatim.
fn load_scenarios(file: &std::path::Path, flags: &Flags) -> Vec<govhost::scenario::ScenarioRun> {
    let text = std::fs::read_to_string(file)
        .unwrap_or_else(|e| die(&format!("{}: {e}", file.display())));
    let parsed = govhost::scenario::parse(&text)
        .unwrap_or_else(|e| die(&format!("{}: {e}", file.display())));
    if parsed.scenarios.is_empty() {
        die(&format!("{}: no scenarios declared", file.display()));
    }
    eprintln!(
        "evaluating {} scenario(s) (seed {}, scale {})...",
        parsed.scenarios.len(),
        flags.seed,
        flags.scale
    );
    govhost::scenario::run_file(&params(flags), &parsed, &BuildOptions::default())
        .unwrap_or_else(|e| die(&e.to_string()))
}

fn cmd_scenario(file: &std::path::Path, flags: &Flags) {
    let runs = load_scenarios(file, flags);
    for run in &runs {
        println!(
            "scenario {}: {} events, {} countries touched",
            run.name,
            run.events.len(),
            run.dirty.len()
        );
        let mut table = govhost::report::Table::new(vec![
            "country",
            "overall",
            "concentration",
            "exposure",
            "resilience",
            "hhi(bytes)",
            "offshore%",
            "dark%",
            "ns-only%",
        ]);
        for c in govhost::scenario::report_cards(run) {
            table.row(vec![
                c.country.as_str().to_string(),
                c.overall.to_string(),
                c.concentration.to_string(),
                c.exposure.to_string(),
                c.resilience.to_string(),
                format!("{:.3}", c.hhi_bytes),
                c.offshore_percent.map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
                format!("{:.1}", c.dark_percent),
                format!("{:.1}", c.ns_only_percent),
            ]);
        }
        print!("{}", table.render());
        let insights = run.insights();
        if insights.is_empty() {
            println!("no measurable change against the baseline");
        } else {
            for (i, insight) in insights.iter().enumerate() {
                println!("{:>3}. {}", i + 1, insight.text);
            }
        }
        println!();
    }
}

fn cmd_evolve(flags: &Flags) {
    let years = flags.years.unwrap_or(5);
    let systems = tick_systems();
    eprintln!("generating world (seed {}, scale {})...", flags.seed, flags.scale);
    let mut world = World::generate(&params(flags));
    eprintln!("evolving {years} years...");
    let outcome = evolve_with_systems(&mut world, years, &BuildOptions::default(), &systems)
        .unwrap_or_else(|e| die(&e.to_string()));
    println!("year  dirty  events  HHI(urls)  HHI(bytes)  state-led  3P-URLs  rebuild-ms");
    for y in &outcome.timeline.years {
        // Year 0 is the pre-tick baseline: no events, no rebuild.
        let tick = outcome.ticks.iter().find(|t| t.year == y.year);
        let events = tick.map_or("-".to_string(), |t| t.events.len().to_string());
        let rebuild = tick
            .map_or("-".to_string(), |t| format!("{:.1}", t.rebuild.as_secs_f64() * 1000.0));
        let m = &y.metrics;
        println!(
            "{:<5} {:<6} {:<7} {:<10.4} {:<11.4} {:<10} {:<8.4} {rebuild}",
            y.year,
            y.dirty.len(),
            events,
            m.mean_hhi_urls,
            m.mean_hhi_bytes,
            m.state_led,
            m.third_party_urls
        );
    }
    let last = &outcome.timeline.latest().expect("timeline has year 0").metrics;
    let first = &outcome.timeline.years[0].metrics;
    println!(
        "Δ over {years} years: mean HHI(urls) {:+.4}, state-led {:+}, 3P URLs {:+.4}",
        last.mean_hhi_urls - first.mean_hhi_urls,
        last.state_led as i64 - first.state_led as i64,
        last.third_party_urls - first.third_party_urls
    );
}

fn cmd_zone(flags: &Flags) {
    if flags.host.is_empty() {
        die("zone needs --host");
    }
    let host: Hostname = flags.host.parse().unwrap_or_else(|_| die("bad --host"));
    let world = World::generate(&params(flags));
    // Reconstruct the zone content by resolving: print what the
    // authoritative data looks like for this hostname.
    let vantage = world
        .truth
        .host(&host)
        .map(|t| t.country)
        .unwrap_or_else(|| "US".parse().expect("static"));
    match world.resolver.resolve_host(&host, Some(vantage)) {
        Ok(answer) => {
            let mut zone = govhost::dns::Zone::new(govhost::dns::DnsName::from(&host));
            let apex = govhost::dns::DnsName::from(&host);
            if let Some(target) = answer.first_cname() {
                zone.add(apex, govhost::dns::RData::Cname(target.clone()));
            } else {
                for ip in &answer.addresses {
                    zone.add(apex.clone(), govhost::dns::RData::A(*ip));
                }
            }
            print!("{}", govhost::dns::to_zone_file(&zone, 300));
        }
        Err(e) => die(&format!("{host} does not resolve: {e}")),
    }
}
