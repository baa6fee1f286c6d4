//! Walk the §3.5 multistage geolocation pipeline on concrete servers,
//! showing what each stage contributes and what breaks when stages are
//! disabled (the paper's limitations discussion, §8).
//!
//! ```text
//! cargo run --release --example geolocation_demo
//! ```

use govhost::geoloc::pipeline::{GeoTask, PipelineConfig};
use govhost::prelude::*;

fn main() {
    let world = World::generate(&GenParams::tiny());
    let base = PipelineConfig::default();

    // Pick a few interesting servers: one responsive unicast, one
    // ICMP-dead with a PTR record, one anycast.
    let mut picks = Vec::new();
    for server in world.registry.servers() {
        let kind = if server.anycast {
            "anycast"
        } else if !server.icmp_responsive && server.ptr.is_some() {
            "icmp-dead with PTR"
        } else if server.icmp_responsive {
            "responsive unicast"
        } else {
            continue;
        };
        if picks.iter().any(|(_, k)| *k == kind) {
            continue;
        }
        picks.push((server.ip, kind));
        if picks.len() == 3 {
            break;
        }
    }

    println!("=== §3.5 multistage geolocation, stage by stage ===");
    let vantage: CountryCode = "AR".parse().expect("static code");
    for (ip, kind) in &picks {
        println!("\nserver {ip} ({kind}):");
        let task = GeoTask { ip: *ip, serving_country: vantage };
        let db = world.geodb.lookup(*ip);
        println!("  step 1 geo database : {:?}", db.map(|e| e.country.to_string()));
        println!("  step 2 anycast flag : {}", world.manycast.is_anycast(*ip));
        let verdict = world.geolocation(base).locate(task);
        println!(
            "  full pipeline       : location {:?}, method {:?}, excluded {}",
            verdict.location.map(|c| c.to_string()),
            verdict.method,
            verdict.excluded
        );
        // Ablation: no active probing.
        let mut no_ap = base;
        no_ap.use_active_probing = false;
        let v = world.geolocation(no_ap).locate(task);
        println!(
            "  without probing     : location {:?}, method {:?}, excluded {}",
            v.location.map(|c| c.to_string()),
            v.method,
            v.excluded
        );
        // Ablation: nothing but the database.
        let blind = PipelineConfig {
            use_active_probing: false,
            use_hoiho: false,
            use_ipmap: false,
            use_single_radius: false,
            ..base
        };
        let v = world.geolocation(blind).locate(task);
        println!(
            "  database only       : location {:?}, excluded {} (unvalidated claims are excluded — the paper's conservative policy)",
            v.location.map(|c| c.to_string()),
            v.excluded
        );
    }

    // Aggregate effect of each stage (the Table 4 ablation).
    println!("\n=== stage ablations over every discovered address ===");
    let tasks: Vec<GeoTask> = world
        .registry
        .servers()
        .iter()
        .take(400)
        .map(|s| GeoTask { ip: s.ip, serving_country: vantage })
        .collect();
    for (name, config) in [
        ("full pipeline", base),
        ("no active probing", PipelineConfig { use_active_probing: false, ..base }),
        ("no HOIHO", PipelineConfig { use_hoiho: false, ..base }),
        ("no IPmap", PipelineConfig { use_ipmap: false, ..base }),
        ("no single-radius", PipelineConfig { use_single_radius: false, ..base }),
    ] {
        let (_, stats) = world.geolocation(config).locate_all(&tasks);
        println!("  {name:<18}: confirmation rate {:.1}%", stats.confirmation_rate() * 100.0);
    }
}
