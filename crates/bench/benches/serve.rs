//! Load generator for `govhost-serve`: a sustained keep-alive run that
//! pushes one million requests (full mode) through the production
//! `Pool` → `EventLoop` → parser → router → encoder path over
//! in-process connections, plus a deliberate overload window that
//! exercises the `503 Retry-After` shedding path. Results land in
//! `BENCH_serve.json`.
//!
//! The run asserts SLOs, not just liveness:
//!
//! - **zero 5xx** across the whole keep-alive load (the only 5xx the
//!   server ever emits is the deliberate shed window, measured and
//!   asserted separately);
//! - **p99 latency under budget** (100ms — generous because CI shares
//!   one core across the client and worker threads and the scheduler
//!   preempts at will);
//! - every request answered: responses == requests, and the connection
//!   reuse ratio matches the configured pipeline depth.
//!
//! Latency is measured per request at the transport: from the read
//! that issues a request to the write that starts its response head,
//! matched through a per-connection FIFO (responses leave in request
//! order). The client pipelines without waiting, so a sample includes
//! the time its request queued behind earlier ones in the same read
//! burst — what a pipelining client observes. Smoke mode shrinks the
//! volume, never the checks.

use govhost_core::prelude::*;
use govhost_harness::bench::{black_box, Bench};
use govhost_obs::TimeMode;
use govhost_serve::{ConnPolicy, MemConn, Pool, PoolConfig, QueryIndex, ServeState};
use govhost_worldgen::prelude::*;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUTES: [&str; 5] = ["/healthz", "/countries", "/flows", "/providers", "/hhi"];

/// The p99 latency budget. Single-core CI absorbs scheduler preemption
/// into the tail, so the budget is far above the typical latency.
const P99_BUDGET: Duration = Duration::from_millis(100);

/// What one load connection observed.
#[derive(Debug, Default)]
struct Tally {
    latencies_ns: Vec<u64>,
    responses: u64,
    five_xx: u64,
}

impl Tally {
    fn absorb(&mut self, mut other: Tally) {
        self.latencies_ns.append(&mut other.latencies_ns);
        self.responses += other.responses;
        self.five_xx += other.five_xx;
    }
}

/// A synthetic keep-alive client as a transport: generates `requests`
/// pipelined requests on demand (the last carries `Connection: close`),
/// stamps each one's issue time into a FIFO, and pops the FIFO as each
/// response head is written back. Its tally is sent on `done` when the
/// pool drops the connection.
struct LoadConn {
    requests: usize,
    issued: usize,
    cur: Vec<u8>,
    pos: usize,
    route: usize,
    in_flight: VecDeque<Instant>,
    tally: Tally,
    done: Sender<Tally>,
}

impl LoadConn {
    fn new(requests: usize, route: usize) -> (LoadConn, Receiver<Tally>) {
        let (done, rx) = channel();
        let conn = LoadConn {
            requests,
            issued: 0,
            cur: Vec::new(),
            pos: 0,
            route,
            in_flight: VecDeque::new(),
            tally: Tally { latencies_ns: Vec::with_capacity(requests), ..Tally::default() },
            done,
        };
        (conn, rx)
    }
}

impl Read for LoadConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.cur.len() {
            if self.issued == self.requests {
                return Ok(0);
            }
            let path = ROUTES[(self.route + self.issued) % ROUTES.len()];
            let close =
                if self.issued + 1 == self.requests { "Connection: close\r\n" } else { "" };
            self.cur = format!("GET {path} HTTP/1.1\r\n{close}\r\n").into_bytes();
            self.pos = 0;
            self.issued += 1;
            self.in_flight.push_back(Instant::now());
        }
        let n = buf.len().min(self.cur.len() - self.pos);
        buf[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for LoadConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Each response head is its own segment, and the default
        // `write_vectored` hands over one segment per call, so status
        // lines always open a write.
        if buf.starts_with(b"HTTP/1.1 ") {
            if let Some(issued) = self.in_flight.pop_front() {
                self.tally.latencies_ns.push(issued.elapsed().as_nanos() as u64);
            }
            self.tally.responses += 1;
            if buf.starts_with(b"HTTP/1.1 5") {
                self.tally.five_xx += 1;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for LoadConn {
    fn drop(&mut self) {
        let _ = self.done.send(std::mem::take(&mut self.tally));
    }
}

/// A connection that never completes a request: it occupies its pool
/// slot so follow-up submissions hit the shed path deterministically.
struct Stuck;

impl Read for Stuck {
    fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::WouldBlock.into())
    }
}

impl Write for Stuck {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One `Connection: close` GET through `pool`, returning the response.
fn roundtrip(pool: &Pool, target: &str) -> Vec<u8> {
    let raw = format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (conn, rx) = MemConn::scripted(raw.into_bytes());
    assert!(pool.submit(Box::new(conn)), "the pool accepts while running");
    rx.recv().expect("the pool served the connection")
}

fn main() {
    let mut b = Bench::new("serve");

    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));

    b.bench("serve/index_build_tiny", || {
        black_box(QueryIndex::build(black_box(&dataset)));
    });

    let pool = Pool::start_with(Arc::clone(&state), 1, PoolConfig::default());
    b.bench("serve/healthz_roundtrip", || {
        black_box(roundtrip(&pool, "/healthz").len());
    });

    // ---- the parameterized-query mix: cache-hot vs cache-cold ----
    //
    // The same query mix runs against a warmed result cache (every
    // request a hit: zero-copy slab reuse) and against a
    // cache-disabled state (every request re-runs parse → plan →
    // execute → render). The responses must agree byte-for-byte — the
    // cache is pure memoization — so the two series isolate its win.
    let mix = [
        "/flows?limit=25",
        "/flows?sort=share&min_share=0.01",
        "/providers?sort=asn&limit=20",
        "/countries?sort=hhi&limit=20",
    ];
    let cold_state = Arc::new(ServeState::with_config(&dataset, TimeMode::Deterministic, 0));
    let cold_pool = Pool::start_with(Arc::clone(&cold_state), 1, PoolConfig::default());
    for target in mix {
        let hot = roundtrip(&pool, target); // warms the cache on first touch
        let cold = roundtrip(&cold_pool, target);
        assert!(hot.starts_with(b"HTTP/1.1 200 OK"), "query mix answers 200: {target}");
        assert_eq!(hot, cold, "cache hit and uncached render agree byte-for-byte: {target}");
    }
    assert!(cold_state.result_cache().is_empty(), "capacity 0 disables caching");
    b.bench("serve/query_mix_cache_hot", || {
        for target in mix {
            black_box(roundtrip(&pool, target).len());
        }
    });
    b.bench("serve/query_mix_cache_cold", || {
        for target in mix {
            black_box(roundtrip(&cold_pool, target).len());
        }
    });
    pool.shutdown();
    cold_pool.shutdown();

    // ---- the sustained keep-alive run ----
    //
    // `clients` threads, each submitting `conns_per_client` sequential
    // keep-alive connections of `reqs_per_conn` pipelined requests to a
    // pool of `clients` event-loop workers: full mode is
    // 4 × 250 × 1000 = 1,000,000 requests.
    let (clients, conns_per_client, reqs_per_conn) =
        if b.smoke() { (2usize, 4usize, 64usize) } else { (4, 250, 1000) };
    let total = clients * conns_per_client * reqs_per_conn;
    let total_conns = clients * conns_per_client;
    let pool = Pool::start_with(Arc::clone(&state), clients, PoolConfig::default());
    let started = Instant::now();
    let mut tally = Tally { latencies_ns: Vec::with_capacity(total), ..Tally::default() };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for c in 0..conns_per_client {
                        let (conn, rx) = LoadConn::new(reqs_per_conn, client + c);
                        assert!(pool.submit(Box::new(conn)), "the pool accepts while running");
                        tally.absorb(rx.recv().expect("the pool served the connection"));
                    }
                    tally
                })
            })
            .collect();
        for handle in handles {
            tally.absorb(handle.join().expect("client thread"));
        }
    });
    let elapsed = started.elapsed();
    pool.shutdown();
    let Tally { mut latencies_ns, responses, five_xx } = tally;

    // ---- SLOs ----
    assert_eq!(responses, total as u64, "every request is answered exactly once");
    assert_eq!(latencies_ns.len(), total, "every response head matched its request");
    assert_eq!(five_xx, 0, "the keep-alive load must complete with zero 5xx responses");
    latencies_ns.sort_unstable();
    let percentile =
        |q: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * q).round() as usize];
    let p50 = percentile(0.50);
    let p95 = percentile(0.95);
    let p99 = percentile(0.99);
    assert!(
        Duration::from_nanos(p99) < P99_BUDGET,
        "p99 {:?} blows the {:?} budget",
        Duration::from_nanos(p99),
        P99_BUDGET
    );
    let reuse_ratio = total as f64 / total_conns as f64;
    let rps = total as f64 / elapsed.as_secs_f64();
    println!(
        "  keep-alive: {total} requests over {total_conns} conns ({clients} clients, \
         {clients} workers), {five_xx} 5xx, {rps:.0} req/s, p50 {p50}ns p95 {p95}ns \
         p99 {p99}ns"
    );
    b.record("serve/keepalive/wall_time", elapsed, Some(total as u64));
    b.record_value("serve/keepalive/throughput_rps", rps, Some(total as u64));
    b.record_value("serve/keepalive/latency_p50_ns", p50 as f64, Some(total as u64));
    b.record_value("serve/keepalive/latency_p95_ns", p95 as f64, Some(total as u64));
    b.record_value("serve/keepalive/latency_p99_ns", p99 as f64, Some(total as u64));
    b.record_value("serve/keepalive/reuse_ratio", reuse_ratio, Some(total_conns as u64));
    b.record_value("serve/keepalive/five_xx", five_xx as f64, Some(total as u64));

    // ---- the deliberate shed window ----
    //
    // A one-slot pool is saturated by a stuck connection; every
    // follow-up submission must shed with a counted `503 Retry-After`.
    // This is the only window where 5xx responses are expected, and
    // every one of them must be a shed.
    let shed_state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
    let overload = if b.smoke() { 16usize } else { 256 };
    let policy = ConnPolicy { idle_timeout: Duration::from_millis(50), ..ConnPolicy::default() };
    let pool = Pool::start_with(Arc::clone(&shed_state), 1, PoolConfig { policy, max_conns: 1 });
    let started = Instant::now();
    assert!(pool.submit(Box::new(Stuck)), "the stuck connection takes the only slot");
    let mut shed_five_xx = 0u64;
    for i in 0..overload {
        let raw = format!("GET {} HTTP/1.1\r\n\r\n", ROUTES[i % ROUTES.len()]);
        let (conn, rx) = MemConn::scripted(raw.into_bytes());
        assert!(pool.submit(Box::new(conn)), "shed submissions are still handled");
        let out = rx.recv().expect("shed response is written synchronously");
        assert!(
            out.starts_with(b"HTTP/1.1 503 Service Unavailable"),
            "overloaded submissions shed with 503"
        );
        shed_five_xx += 1;
    }
    let shed_elapsed = started.elapsed();
    pool.shutdown();
    let shed_count = shed_state.shed_count();
    assert_eq!(shed_count, overload as u64, "every shed is counted in telemetry");
    assert_eq!(shed_five_xx, shed_count, "all 5xx in the window are sheds");
    println!(
        "  shed window: {overload} submissions shed in {:.1}ms, all 503 + counted",
        shed_elapsed.as_secs_f64() * 1e3
    );
    b.record("serve/shed/wall_time", shed_elapsed, Some(overload as u64));
    b.record_value("serve/shed/count", shed_count as f64, Some(overload as u64));

    b.finish();
}
