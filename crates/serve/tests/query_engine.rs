//! Integration suite for the parameterized query engine: wire-level
//! canonicalization (equivalent spellings share one representation and
//! one cache entry), typed 400s naming the offending parameter,
//! cache-hit/miss/eviction accounting in `/metrics`, and the hot-swap
//! contract — swapping in an index built from identical inputs leaves
//! every route's bytes and ETags unchanged, across 1/2/4 workers.

use govhost_core::prelude::*;
use govhost_obs::TimeMode;
use govhost_serve::{MemConn, Pool, PoolConfig, QueryIndex, RouteQuery, ServeState};
use govhost_worldgen::prelude::*;
use std::sync::Arc;

fn fresh_state() -> (GovDataset, Arc<ServeState>) {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
    (dataset, state)
}

/// One `Connection: close` GET through a one-worker pool.
fn get(state: &Arc<ServeState>, target: &str) -> String {
    let out = pool_responses(state, &[target.to_string()], 1);
    String::from_utf8_lossy(&out[0]).into_owned()
}

fn etag_of(out: &str) -> &str {
    out.lines().find_map(|l| l.strip_prefix("ETag: ")).expect("response carries an ETag")
}

fn metrics_count(state: &Arc<ServeState>, needle: &str) -> u64 {
    let metrics = get(state, "/metrics");
    let (_, body) = metrics.split_once("\r\n\r\n").expect("metrics body");
    body.lines()
        .find_map(|l| l.strip_prefix(needle).map(|rest| rest.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("no series {needle:?} in:\n{body}"))
}

#[test]
fn equivalent_spellings_share_one_representation_and_cache_entry() {
    let (_dataset, state) = fresh_state();
    // Three spellings of the same canonical query: reordered params,
    // explicit defaults, alternative numeric forms, case-folded scope.
    let a = get(&state, "/flows?from=eu&min_share=0.10&limit=50");
    let b = get(&state, "/flows?min_share=1e-1&from=EU");
    let c = get(&state, "/flows?offset=0&from=EU&min_share=0.1");
    assert!(a.starts_with("HTTP/1.1 200 OK"), "{a}");
    assert_eq!(a, b, "spellings canonicalize to one representation");
    assert_eq!(a, c);
    assert_eq!(state.result_cache().len(), 1, "one cache entry for all spellings");
    assert_eq!(metrics_count(&state, "http_query_cache{outcome=\"miss\"} "), 1);
    assert_eq!(metrics_count(&state, "http_query_cache{outcome=\"hit\"} "), 2);
    // The body echoes the canonical query string, so clients can see
    // the normalization.
    assert!(a.contains("\"query\":\""), "{a}");
    let parsed = RouteQuery::parse("/flows", "from=eu&min_share=0.10&limit=50").unwrap();
    assert!(a.contains(&format!("\"query\":\"{}\"", parsed.canonical())), "{a}");
}

#[test]
fn typed_400s_name_the_offending_parameter() {
    let (_dataset, state) = fresh_state();
    for (target, param) in [
        ("/flows?bogus=1", "bogus"),
        ("/flows?limit=junk", "limit"),
        ("/flows?limit=0", "limit"),
        ("/flows?min_share=nan", "min_share"),
        ("/flows?sort=hhi", "sort"),
        ("/flows?from=EU&from=US", "from"),
        ("/flows?category=gov", "category"),
        ("/providers?country=EUU", "country"),
        ("/providers?min_countries=-1", "min_countries"),
        ("/countries?region=atlantis", "region"),
        ("/countries?sort=share", "sort"),
        ("/flows?a=%zz", "a"),
    ] {
        let out = get(&state, target);
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{target}: {out}");
        assert!(
            out.contains(&format!("\\\"{param}\\\"")),
            "{target}: the 400 must name {param:?}: {out}"
        );
    }
    // Typed 400s are never cached.
    assert!(state.result_cache().is_empty());
    assert_eq!(metrics_count(&state, "http_query_cache{outcome=\"miss\"} "), 0);
}

#[test]
fn eviction_is_deterministic_lru_and_counted() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let state = Arc::new(ServeState::with_config(&dataset, TimeMode::Deterministic, 2));
    let q1 = get(&state, "/flows?limit=1");
    let _q2 = get(&state, "/flows?limit=2");
    let _q3 = get(&state, "/flows?limit=3"); // evicts limit=1 (LRU)
    let _q2_again = get(&state, "/flows?limit=2"); // hit, bumps recency
    let q1_again = get(&state, "/flows?limit=1"); // miss again, evicts limit=3
    assert_eq!(q1, q1_again, "a re-render after eviction is byte-identical");
    assert_eq!(metrics_count(&state, "http_query_cache{outcome=\"miss\"} "), 4);
    assert_eq!(metrics_count(&state, "http_query_cache{outcome=\"hit\"} "), 1);
    assert_eq!(metrics_count(&state, "http_query_cache{outcome=\"eviction\"} "), 2);
    assert_eq!(state.result_cache().len(), 2, "capacity holds");
    // And a zero capacity disables caching entirely without changing bytes.
    let uncached = Arc::new(ServeState::with_config(&dataset, TimeMode::Deterministic, 0));
    assert_eq!(get(&uncached, "/flows?limit=1"), q1);
    assert!(uncached.result_cache().is_empty());
}

/// The fixed request mix for the swap pin: every fixed route plus a
/// spread of parameterized queries (each canonical query distinct, so
/// cache accounting stays deterministic). `/metrics` is excluded — its
/// body legitimately accumulates across the pre/post sequences.
fn swap_mix(dataset: &GovDataset) -> Vec<String> {
    let country = dataset.countries()[0];
    vec![
        "/healthz".to_string(),
        "/countries".to_string(),
        format!("/country/{country}"),
        "/flows".to_string(),
        "/providers".to_string(),
        "/hhi".to_string(),
        "/flows?limit=5".to_string(),
        "/flows?sort=share&min_share=0.01".to_string(),
        "/flows?lens=registration&category=3p_global".to_string(),
        "/providers?sort=countries&limit=10".to_string(),
        "/countries?sort=hhi&limit=10".to_string(),
    ]
}

/// Serve the mix through a real `threads`-worker pool, one sequential
/// client, returning the full response bytes per target.
fn pool_responses(state: &Arc<ServeState>, targets: &[String], threads: usize) -> Vec<Vec<u8>> {
    let pool = Pool::start_with(Arc::clone(state), threads, PoolConfig::default());
    let mut out = Vec::new();
    for target in targets {
        let raw = format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let (conn, rx) = MemConn::scripted(raw.into_bytes());
        assert!(pool.submit(Box::new(conn)), "pool accepts while running");
        out.push(rx.recv().expect("connection was served"));
    }
    pool.shutdown();
    out
}

#[test]
fn identical_input_swap_leaves_every_route_byte_identical() {
    let world = World::generate(&GenParams::tiny());
    for threads in [1usize, 2, 4] {
        let dataset = GovDataset::build(&world, &BuildOptions { threads, ..Default::default() });
        let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
        let targets = swap_mix(&dataset);
        let before = pool_responses(&state, &targets, threads);
        assert!(!state.result_cache().is_empty(), "the mix populated the cache");

        // Hot-swap in an index built from the same dataset.
        state.swap_index(QueryIndex::build(&dataset));
        assert!(state.result_cache().is_empty(), "swap invalidates the result cache");

        let after = pool_responses(&state, &targets, threads);
        for ((target, b), a) in targets.iter().zip(&before).zip(&after) {
            assert_eq!(
                b, a,
                "workers={threads}: {target} changed across an identical-input swap"
            );
            let text = String::from_utf8_lossy(b);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{target}: {text}");
            // ETags are part of the bytes, but pin them explicitly:
            // revalidation tokens survive the swap.
            let text_after = String::from_utf8_lossy(a);
            assert_eq!(etag_of(&text), etag_of(&text_after), "{target}");
        }
    }
}

/// The history-route request mix: every history route, parameterless
/// (precomputed slab) and parameterized (result-cache path).
fn history_mix(dataset: &GovDataset) -> Vec<String> {
    let country = dataset.countries()[0];
    vec![
        "/hhi/history".to_string(),
        format!("/country/{country}/history"),
        "/providers/AS13335/history".to_string(),
        "/hhi/history?from=1&to=3".to_string(),
        format!("/country/{country}/history?limit=2&offset=1"),
        "/providers/13335/history?from=0".to_string(),
    ]
}

#[test]
fn history_routes_are_byte_identical_across_worker_counts() {
    let mut world = World::generate(&GenParams::tiny());
    let outcome = govhost_core::evolve::evolve_with_systems(
        &mut world,
        3,
        &BuildOptions::default(),
        &govhost_worldgen::default_systems(),
    )
    .expect("tiny world evolves");
    let targets = history_mix(&outcome.dataset);
    let mut base: Option<Vec<Vec<u8>>> = None;
    for threads in [1usize, 2, 4] {
        let state = Arc::new(ServeState::with_timeline_config(
            &outcome.dataset,
            &outcome.timeline,
            TimeMode::Deterministic,
            govhost_serve::DEFAULT_RESULT_CACHE,
        ));
        let responses = pool_responses(&state, &targets, threads);
        for (target, out) in targets.iter().zip(&responses) {
            let text = String::from_utf8_lossy(out);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "workers={threads} {target}: {text}");
            // Every history response revalidates: panics if no ETag.
            etag_of(&text);
        }
        // The three parameterized requests land in the shared result
        // cache; the parameterless ones answer from precomputed slabs.
        assert_eq!(state.result_cache().len(), 3, "workers={threads}");
        match &base {
            None => base = Some(responses),
            Some(base) => {
                for ((target, b), r) in targets.iter().zip(base).zip(&responses) {
                    assert_eq!(b, r, "workers={threads}: {target} bytes drifted");
                }
            }
        }
    }
}

#[test]
fn a_swap_reaches_new_requests_while_old_snapshots_stand() {
    let (dataset, state) = fresh_state();
    let pinned = state.index();
    let etag_before = pinned.hhi_slab().etag().to_string();
    state.swap_index(QueryIndex::build(&dataset));
    // The pre-swap snapshot is untouched (in-flight requests finish
    // against it) and the new index serves identical bytes for
    // identical inputs.
    assert_eq!(pinned.hhi_slab().etag(), etag_before);
    assert_eq!(state.index().hhi_slab().etag(), etag_before);
    let out = get(&state, "/hhi");
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert!(out.contains(&format!("ETag: {etag_before}\r\n")), "{out}");
}
