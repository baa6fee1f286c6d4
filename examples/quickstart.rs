//! Quickstart: generate a world, run the full measurement pipeline, print
//! the paper's headline findings.
//!
//! ```text
//! cargo run --release --example quickstart [scale]
//! ```

use govhost::prelude::*;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    println!("generating a simulated Internet at scale {scale}...");
    let params = GenParams { scale, ..GenParams::default() };
    let world = World::generate(&params);
    println!(
        "  {} ASes, {} servers, {} websites, {} DNS zones",
        world.registry.as_count(),
        world.registry.servers().len(),
        world.corpus.len(),
        world.resolver.zone_count()
    );

    println!("running the §3 methodology (crawl → classify → identify → geolocate)...");
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let summary = dataset.summary();
    println!(
        "  {} unique URLs on {} government hostnames across {} ASes ({} government-operated)",
        summary.unique_urls, summary.unique_hostnames, summary.ases, summary.govt_ases
    );

    let hosting = HostingAnalysis::compute(&dataset);
    let shares = hosting.global_country_mean();
    println!("\nheadline findings (paper values in parentheses):");
    println!(
        "  third-party hosting: {:.0}% of URLs (62%), {:.0}% of bytes (53%)",
        shares.third_party_urls() * 100.0,
        shares.third_party_bytes() * 100.0
    );

    let location = LocationAnalysis::compute(&dataset);
    println!(
        "  served domestically: {:.0}% of URLs (87%); domestically registered: {:.0}% (77%)",
        location.geolocation.domestic_fraction() * 100.0,
        location.registration.domestic_fraction() * 100.0
    );

    let providers = ProviderAnalysis::compute(&dataset);
    if let Some(leader) = providers.leader() {
        println!(
            "  most-adopted global provider: {} serving {} governments (Cloudflare, 49)",
            leader.org,
            leader.countries.len()
        );
    }

    let crossborder = CrossBorderAnalysis::compute(&dataset);
    println!(
        "  GDPR: {:.1}% of EU government URLs served within the EU (98.3%)",
        crossborder.gdpr_compliance() * 100.0
    );
    println!("\ndone. Try `cargo run --release -p govhost-bench --bin repro` for every table & figure.");
}
