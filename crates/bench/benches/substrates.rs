//! Benchmarks for the substrate layers: DNS wire format, resolution,
//! WHOIS, latency model, the crawler, and the telemetry recorder's span
//! cost.

use govhost_dns::{
    AuthoritativeServer, DnsName, Message, RData, Record, RecordType, Resolver, Zone,
};
use govhost_harness::bench::{black_box, Bench};
use govhost_netsim::coords::GeoPoint;
use govhost_netsim::latency::LatencyModel;
use govhost_netsim::trie::PrefixTrie;
use govhost_netsim::whois::WhoisService;
use govhost_web::crawler::Crawler;
use govhost_worldgen::{GenParams, World};

fn n(s: &str) -> DnsName {
    s.parse().unwrap()
}

fn main() {
    let mut b = Bench::new("substrates");

    // A realistic response: question + CNAME chain + 4 A records, with
    // compressible names.
    let mut msg = Message::response_to(
        &Message::query(7, n("www.ministerio.gob.ar"), RecordType::A),
        govhost_dns::Rcode::NoError,
    );
    msg.answers.push(Record::new(
        n("www.ministerio.gob.ar"),
        300,
        RData::Cname(n("www-ministerio.edge.cloudflare.net")),
    ));
    for i in 0..4 {
        msg.answers.push(Record::new(
            n("www-ministerio.edge.cloudflare.net"),
            60,
            RData::A(format!("203.0.113.{i}").parse().unwrap()),
        ));
    }
    let bytes = msg.encode().unwrap();
    b.bench("dns_wire/encode", || {
        black_box(msg.encode().unwrap());
    });
    b.bench("dns_wire/decode", || {
        black_box(Message::decode(black_box(&bytes)).unwrap());
    });

    let mut gov = Zone::new(n("ministerio.gob.ar"));
    gov.add(n("www.ministerio.gob.ar"), RData::Cname(n("edge.cdn.example")));
    let mut cdn = Zone::new(n("cdn.example"));
    cdn.add(n("edge.cdn.example"), RData::A("203.0.113.9".parse().unwrap()));
    let mut resolver = Resolver::new();
    resolver.add_server(AuthoritativeServer::new(gov));
    resolver.add_server(AuthoritativeServer::new(cdn));
    let name = n("www.ministerio.gob.ar");
    b.bench("dns/resolve_cname_chain", || {
        black_box(resolver.resolve(black_box(&name), None).unwrap());
    });

    let world = World::generate(&GenParams::tiny());
    let whois = WhoisService::new(&world.registry);
    let ip = world.registry.servers()[0].ip;
    b.bench("whois/query_render_parse", || {
        black_box(whois.query(black_box(ip)).unwrap());
    });

    let model = LatencyModel::default();
    let a = GeoPoint::new(-34.6, -58.4);
    let bpt = GeoPoint::new(40.4, -3.7);
    b.bench("latency/min_of_3_pings", || {
        black_box(model.min_of_pings(black_box(&a), black_box(&bpt), 3));
    });

    let ar: govhost_types::CountryCode = "AR".parse().unwrap();
    let landing = world.landing(ar)[0].clone();
    let crawler = Crawler::default();
    b.bench_with_input("crawler/one_site_depth7", &landing, |url| {
        black_box(crawler.crawl(&world.corpus, &url, Some(ar)));
    });

    // The recorder's per-span cost inside a collection scope: 64 pairs
    // of sibling spans under one parent per iteration, the shape of the
    // crawl's `fetch`/`har` pair under `crawl`.
    let ((), _spans) = govhost_obs::collect(|| {
        b.bench("substrates/obs_span_open_close", || {
            let _parent = govhost_obs::span!("parent");
            for _ in 0..64 {
                drop(black_box(govhost_obs::span!("first")));
                drop(black_box(govhost_obs::span!("second")));
            }
        });
    });

    // A routing-table-sized trie vs the naive linear scan.
    let mut trie = PrefixTrie::new();
    let mut list = Vec::new();
    let mut x: u64 = 0xDEAD_BEEF;
    for i in 0..2_000u32 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let prefix = govhost_types::IpPrefix::new(
            std::net::Ipv4Addr::from((x >> 16) as u32),
            (8 + (x >> 3) % 17) as u8,
        )
        .expect("valid");
        trie.insert(prefix, i);
        list.push((prefix, i));
    }
    let addr: std::net::Ipv4Addr = "137.99.12.7".parse().unwrap();
    b.bench("trie/longest_match_2000_prefixes", || {
        black_box(trie.longest_match(black_box(addr)));
    });
    b.bench("trie/linear_scan_2000_prefixes", || {
        black_box(
            list.iter()
                .filter(|(p, _)| p.contains(black_box(addr)))
                .max_by_key(|(p, _)| p.len())
                .map(|(_, v)| *v),
        );
    });

    // Zone-file round trip at realistic zone size.
    let mut text = String::from("$ORIGIN example.gov.\n$TTL 300\n");
    for i in 0..200 {
        text.push_str(&format!("host{i} IN A 11.0.{}.{}\n", i / 200, i % 200));
    }
    b.bench("zonefile/parse_200_records", || {
        black_box(govhost_dns::parse_zone_file(black_box(&text), None).unwrap());
    });
    let zone = govhost_dns::parse_zone_file(&text, None).unwrap();
    b.bench("zonefile/serialize_200_records", || {
        black_box(govhost_dns::to_zone_file(black_box(&zone), 300));
    });

    // HAR export of a thousand-entry log.
    let mut log = govhost_web::har::HarLog::new();
    for i in 0..1_000 {
        log.push(govhost_web::har::HarEntry {
            url: format!("https://site{i}.gov/r/{i}").parse().unwrap(),
            bytes: 1000 + i as u64,
            content_type: govhost_web::resource::ContentType::Html,
            depth: (i % 8) as u32,
        });
    }
    b.bench("har/export_1000_entries", || {
        black_box(govhost_web::to_har_json(black_box(&log)));
    });

    b.finish();
}
