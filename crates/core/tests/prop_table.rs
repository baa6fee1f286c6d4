//! Property tests for the interned build-path containers: the columnar
//! [`UrlTable`]/[`UrlInterner`] and the [`HostInterner`] arena must agree
//! with naive reference models (a `HashMap` over owned keys) on any
//! operation sequence — same ids, same first-sighting flags, same final
//! rows in the same order.

use govhost_core::table::{UrlInterner, UrlTable};
use govhost_harness::{gens, Config, Gen};
use govhost_types::url::Scheme;
use govhost_types::{HostId, HostInterner, Hostname};
use std::collections::HashMap;

const REGRESSIONS: &str = "tests/regressions/prop_table.txt";

fn cfg(name: &str) -> Config {
    Config::new(name).cases(128).regressions(REGRESSIONS)
}

/// Decode one raw draw into a URL row. Tiny alphabets on every column
/// force identity collisions (same row seen again) and hash-bucket
/// reuse, which is where an interner can go wrong.
fn decode_row(bits: u64) -> (Scheme, HostId, String, u64) {
    let scheme = if bits & 1 == 0 { Scheme::Https } else { Scheme::Http };
    let host = HostId::new((bits >> 1 & 0x7) as u32);
    let path = match bits >> 4 & 0x7 {
        0 => String::new(),
        1 => "/".to_string(),
        2 => "/a".to_string(),
        3 => "/b".to_string(),
        4 => "/a/b".to_string(),
        5 => "/index.html".to_string(),
        6 => format!("/p{}", bits >> 7 & 0x3),
        _ => "/deep/nested/page".to_string(),
    };
    let bytes = bits >> 16 & 0xFF;
    (scheme, host, path, bytes)
}

fn ops() -> Gen<Vec<u64>> {
    gens::vec(gens::u64_any(), 1, 96)
}

#[test]
fn url_interner_matches_a_hashmap_reference_model() {
    cfg("url_interner_matches_a_hashmap_reference_model").run(&ops(), |raw| {
        let mut it = UrlInterner::new();
        // Reference: identity key -> (expected row index, first-seen bytes).
        let mut model: HashMap<(Scheme, u32, String), (usize, u64)> = HashMap::new();
        let mut order: Vec<(Scheme, u32, String, u64)> = Vec::new();
        for &bits in raw {
            let (scheme, host, path, bytes) = decode_row(bits);
            let (id, first) = it.intern(scheme, host, &path, bytes);
            let key = (scheme, host.raw(), path.clone());
            match model.get(&key) {
                Some(&(expect_idx, expect_bytes)) => {
                    if first {
                        return Err(format!("repeat row {key:?} reported as first sighting"));
                    }
                    govhost_harness::prop_assert_eq!(id.index(), expect_idx);
                    govhost_harness::prop_assert_eq!(it.table().get(id).bytes, expect_bytes);
                }
                None => {
                    if !first {
                        return Err(format!("new row {key:?} not reported as first sighting"));
                    }
                    govhost_harness::prop_assert_eq!(id.index(), order.len());
                    model.insert(key, (order.len(), bytes));
                    order.push((scheme, host.raw(), path, bytes));
                }
            }
        }
        govhost_harness::prop_assert_eq!(it.len(), order.len());
        for (i, row) in it.table().iter().enumerate() {
            let (scheme, host, ref path, bytes) = order[i];
            govhost_harness::prop_assert_eq!(row.scheme, scheme);
            govhost_harness::prop_assert_eq!(row.host.raw(), host);
            govhost_harness::prop_assert_eq!(row.path, path.as_str());
            govhost_harness::prop_assert_eq!(row.bytes, bytes);
        }
        Ok(())
    });
}

#[test]
fn host_interner_matches_a_hashmap_reference_model() {
    let names: Gen<Vec<u64>> = gens::vec(gens::u64_range(0, 12), 1, 64);
    cfg("host_interner_matches_a_hashmap_reference_model").run(&names, |raw| {
        let mut it = HostInterner::new();
        let mut model: HashMap<Hostname, usize> = HashMap::new();
        let mut order: Vec<Hostname> = Vec::new();
        for &n in raw {
            let host: Hostname = format!("h{n}.example.gov").parse().expect("valid");
            let (id, first) = it.intern(&host);
            match model.get(&host) {
                Some(&idx) => {
                    govhost_harness::prop_assert_eq!(first, false);
                    govhost_harness::prop_assert_eq!(id.index(), idx);
                }
                None => {
                    govhost_harness::prop_assert_eq!(first, true);
                    govhost_harness::prop_assert_eq!(id.index(), order.len());
                    model.insert(host.clone(), order.len());
                    order.push(host.clone());
                }
            }
            // resolve is the inverse of intern at every point in time.
            govhost_harness::prop_assert_eq!(it.resolve(id), &host);
            govhost_harness::prop_assert_eq!(it.get(&host), Some(id));
        }
        govhost_harness::prop_assert_eq!(it.len(), order.len());
        for (i, (id, name)) in it.iter().enumerate() {
            govhost_harness::prop_assert_eq!(id.index(), i);
            govhost_harness::prop_assert_eq!(name, &order[i]);
        }
        Ok(())
    });
}

/// The columnar table round-trips arbitrary pushes positionally — no
/// dedup, shared path buffer slicing exact.
#[test]
fn url_table_round_trips_pushed_rows() {
    cfg("url_table_round_trips_pushed_rows").run(&ops(), |raw| {
        let mut t = UrlTable::new();
        let rows: Vec<(Scheme, HostId, String, u64)> =
            raw.iter().map(|&b| decode_row(b)).collect();
        for (scheme, host, path, bytes) in &rows {
            t.push(*scheme, *host, path, *bytes);
        }
        govhost_harness::prop_assert_eq!(t.len(), rows.len());
        for (i, row) in t.iter().enumerate() {
            let (scheme, host, ref path, bytes) = rows[i];
            govhost_harness::prop_assert_eq!(row.scheme, scheme);
            govhost_harness::prop_assert_eq!(row.host, host);
            govhost_harness::prop_assert_eq!(row.path, path.as_str());
            govhost_harness::prop_assert_eq!(row.bytes, bytes);
        }
        Ok(())
    });
}

/// `append_mapped` is per-row `push` through the same host map: the
/// same columns, path buffer and offsets (the leading 0 included), on a
/// possibly empty destination, possibly empty sources, and any sequence
/// of appends into one table, pre-sized or not.
#[test]
fn bulk_append_equals_per_row_push() {
    // (destination prefix rows, source tables, host map draw)
    let case = gens::zip3(
        gens::vec(gens::u64_any(), 0, 24),
        gens::vec(gens::vec(gens::u64_any(), 0, 24), 1, 5),
        gens::u64_any(),
    );
    cfg("bulk_append_equals_per_row_push").run(&case, |(prefix, sources, map_bits)| {
        // Source tables draw host ids 0..8; map each to a different id.
        let map: Vec<HostId> =
            (0..8).map(|i| HostId::new((map_bits >> (i * 8) & 0xFF) as u32)).collect();
        let sources: Vec<UrlTable> = sources
            .iter()
            .map(|raw| {
                let mut src = UrlTable::new();
                for &bits in raw {
                    let (scheme, host, path, bytes) = decode_row(bits);
                    src.push(scheme, host, &path, bytes);
                }
                src
            })
            .collect();
        // Pre-sized for the sources, as the build's assembly does;
        // capacity must not show in the rows.
        let mut bulk = UrlTable::with_capacity_for(&sources);
        let mut pushed = UrlTable::new();
        for &bits in prefix {
            let (scheme, host, path, bytes) = decode_row(bits);
            bulk.push(scheme, host, &path, bytes);
            pushed.push(scheme, host, &path, bytes);
        }
        for src in &sources {
            bulk.append_mapped(src, &map);
            for row in src.iter() {
                pushed.push(row.scheme, map[row.host.index()], row.path, row.bytes);
            }
            govhost_harness::prop_assert_eq!(&bulk, &pushed);
        }
        govhost_harness::prop_assert_eq!(bulk.len(), pushed.len());
        Ok(())
    });
}
