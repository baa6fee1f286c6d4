//! The serving determinism contract, pinned at integration level: for a
//! fixed world and a fixed request sequence, every response the server
//! produces — including `If-None-Match` 304 revalidations, every ETag
//! header, and the `/metrics` exposition — must be **byte-identical**
//! whether the dataset was built and served with 1, 2, or 4 event-loop
//! workers. The requests run through the real worker [`Pool`] over
//! in-process connections; a fairness case pins that a slow-reading
//! connection cannot stall others on the same loop, and a smoke test
//! exercises the actual TCP path (skipping cleanly where sockets are
//! unavailable).

use govhost::obs::TimeMode;
use govhost::prelude::*;
use govhost::serve::{
    ConnPolicy, EventLoop, FakeClock, FakeReadiness, MemConn, Pool, PoolConfig, ServeState,
    Server, ServerConfig,
};
use std::io::{Read as _, Write as _};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every route the server exposes, in a fixed request order, as
/// `(label, raw request bytes)`. A conditional `/hhi` revalidation
/// pins the 304 bytes, an unknown path pins the 404 bytes, and
/// `/metrics` goes last so its body reflects the whole (deterministic)
/// sequence.
fn request_sequence(dataset: &GovDataset, state: &ServeState) -> Vec<(String, Vec<u8>)> {
    let country = dataset.countries()[0];
    let mut wires: Vec<(String, Vec<u8>)> = [
        "/healthz".to_string(),
        "/countries".to_string(),
        format!("/country/{country}"),
        "/flows".to_string(),
        "/providers".to_string(),
        "/hhi".to_string(),
        "/nope".to_string(),
    ]
    .into_iter()
    .map(|route| {
        let raw = format!("GET {route} HTTP/1.1\r\nConnection: close\r\n\r\n");
        (route, raw.into_bytes())
    })
    .collect();
    let etag = state.index().hhi_slab().etag().to_string();
    wires.push((
        "/hhi revalidation".to_string(),
        format!("GET /hhi HTTP/1.1\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n")
            .into_bytes(),
    ));
    // HEAD, parameterized queries (a miss, then its hit — duplicates
    // are safe here because the sequence is served serially), and a
    // typed query 400.
    wires.push((
        "HEAD /hhi".to_string(),
        b"HEAD /hhi HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
    ));
    for label in ["/flows?limit=5", "/flows?limit=5", "/flows?bogus=1"] {
        wires.push((
            label.to_string(),
            format!("GET {label} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes(),
        ));
    }
    wires.push((
        "/metrics".to_string(),
        b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
    ));
    wires
}

/// Build at `threads`, serve through a `threads`-worker pool, and
/// collect the full response bytes of the fixed request sequence,
/// issued by a single sequential client.
fn responses_at(world: &World, threads: usize) -> Vec<Vec<u8>> {
    let dataset = GovDataset::build(world, &BuildOptions { threads, ..Default::default() });
    let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
    let wires = request_sequence(&dataset, &state);
    let pool = Pool::start_with(state, threads, PoolConfig::default());
    let mut responses = Vec::new();
    for (_, raw) in &wires {
        let (conn, rx) = MemConn::scripted(raw.clone());
        assert!(pool.submit(Box::new(conn)), "pool accepts while running");
        responses.push(rx.recv().expect("connection was served"));
    }
    pool.shutdown();
    responses
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    let world = World::generate(&GenParams::tiny());
    let labels: Vec<String> = {
        let ds = GovDataset::build(&world, &BuildOptions::default());
        let state = ServeState::with_mode(&ds, TimeMode::Deterministic);
        request_sequence(&ds, &state).into_iter().map(|(label, _)| label).collect()
    };
    let baseline = responses_at(&world, 1);
    for threads in [2, 4] {
        let got = responses_at(&world, threads);
        assert_eq!(baseline.len(), got.len());
        for ((label, base), other) in labels.iter().zip(&baseline).zip(&got) {
            assert_eq!(
                base, other,
                "{label} response differs between workers=1 and workers={threads}"
            );
        }
    }
    // Sanity: the pinned bytes are real answers, not empty shells.
    for (label, response) in labels.iter().zip(&baseline) {
        let text = String::from_utf8_lossy(response);
        let expected = match label.as_str() {
            "/nope" => "HTTP/1.1 404",
            "/hhi revalidation" => "HTTP/1.1 304",
            "/flows?bogus=1" => "HTTP/1.1 400",
            _ => "HTTP/1.1 200",
        };
        assert!(text.starts_with(expected), "{label}: {text}");
        if !matches!(label.as_str(), "/nope" | "/metrics" | "/flows?bogus=1") {
            assert!(text.contains("\r\nETag: \""), "{label} carries an ETag: {text}");
        }
        if label == "HEAD /hhi" {
            let (_, body) = text.split_once("\r\n\r\n").expect("head/body split");
            assert!(body.is_empty(), "HEAD puts zero body bytes on the wire: {text}");
        }
    }
    // The 304 revalidation answered with the same ETag and no body.
    let full = String::from_utf8_lossy(&baseline[5]);
    let revalidated = String::from_utf8_lossy(&baseline[7]);
    let etag_of = |text: &str| {
        text.lines().find_map(|l| l.strip_prefix("ETag: ").map(str::to_string)).unwrap()
    };
    assert_eq!(etag_of(&full), etag_of(&revalidated));
    assert!(
        !revalidated.contains("Content-Length:"),
        "a 304 omits Content-Length: {revalidated}"
    );
    let metrics = String::from_utf8_lossy(baseline.last().expect("metrics response"));
    assert!(metrics.contains("http_requests{route=\"/hhi\"} 3"), "{metrics}");
    assert!(metrics.contains("http_requests{route=\"/flows\"} 4"), "{metrics}");
    assert!(metrics.contains("http_requests{route=\"other\"} 1"), "{metrics}");
    assert!(metrics.contains("http_responses{class=\"3xx\",route=\"/hhi\"} 1"), "{metrics}");
    assert!(metrics.contains("http_responses{class=\"4xx\",route=\"/flows\"} 1"), "{metrics}");
    assert!(metrics.contains("http_query_cache{outcome=\"miss\"} 1"), "{metrics}");
    assert!(metrics.contains("http_query_cache{outcome=\"hit\"} 1"), "{metrics}");
    assert!(metrics.contains("http_query_cache{outcome=\"eviction\"} 0"), "{metrics}");
    assert!(metrics.contains("http_shed 0"), "{metrics}");
    assert!(metrics.contains("# TYPE http_latency_ns histogram"), "{metrics}");
}

#[test]
fn repeated_runs_produce_the_same_bytes() {
    let world = World::generate(&GenParams::tiny());
    assert_eq!(responses_at(&world, 2), responses_at(&world, 2));
}

/// A connection whose peer never drains its responses (every write
/// would block) while pipelining requests forever — the classic
/// head-of-line hazard for a shared event loop.
struct SlowReader;

impl std::io::Read for SlowReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let wire = b"GET /countries HTTP/1.1\r\n\r\n";
        let n = wire.len().min(buf.len());
        buf[..n].copy_from_slice(&wire[..n]);
        Ok(n)
    }
}

impl std::io::Write for SlowReader {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::WouldBlock.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A well-behaved connection sharing the loop with the slow reader.
struct Normal {
    sent: bool,
    out: Arc<Mutex<Vec<u8>>>,
}

impl std::io::Read for Normal {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.sent {
            return Ok(0);
        }
        self.sent = true;
        let wire = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        buf[..wire.len()].copy_from_slice(wire);
        Ok(wire.len())
    }
}

impl std::io::Write for Normal {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Fairness: a connection whose peer reads nothing (and keeps
/// pipelining) cannot stall another connection on the same event loop.
/// Backpressure parks the slow connection once its output queue passes
/// the bound; the well-behaved one is served to completion.
#[test]
fn a_slow_reader_cannot_stall_other_connections() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
    let policy = ConnPolicy { max_pending_out: 4096, ..ConnPolicy::default() };
    let mut el = EventLoop::new(
        Arc::clone(&state),
        Box::new(FakeReadiness::always()),
        Arc::new(FakeClock::new()),
        policy,
        Arc::new(AtomicBool::new(false)),
    );
    el.register(Box::new(SlowReader), None);
    let out = Arc::new(Mutex::new(Vec::new()));
    el.register(Box::new(Normal { sent: false, out: Arc::clone(&out) }), None);
    let mut turns = 0;
    while el.len() > 1 {
        el.turn(Some(Duration::from_millis(1))).unwrap();
        turns += 1;
        assert!(turns < 1000, "the well-behaved connection never completed");
    }
    assert_eq!(el.len(), 1, "the slow reader is parked, not evicted");
    let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert!(text.ends_with('}'), "full body delivered: {text}");
}

/// Drive the server over a real loopback socket: bind an ephemeral
/// port, send a pipelined pair of requests, read both answers back.
/// Environments without socket support skip cleanly instead of failing.
#[test]
fn loopback_smoke_answers_real_sockets() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
    let config = ServerConfig { threads: 2, ..ServerConfig::default() };
    let server = match Server::bind(state, "127.0.0.1:0", config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("skipping loopback smoke test: cannot bind a loopback socket ({e})");
            return;
        }
    };
    let mut stream = match std::net::TcpStream::connect(server.local_addr()) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("skipping loopback smoke test: cannot connect over loopback ({e})");
            server.shutdown();
            return;
        }
    };
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              GET /countries HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .expect("write requests");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read responses");
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    assert!(text.contains("Connection: keep-alive"), "{text}");
    assert!(text.ends_with('}') || text.ends_with(']'), "JSON body last: {text}");
    server.shutdown();
}

/// Overload shedding on the real TCP path: with `max_conns: 1` and the
/// single slot held by an idle connection, the next connect must read a
/// complete `503 Retry-After` — the acceptor writes it before the
/// socket is switched non-blocking, so a full buffer cannot silently
/// truncate it. Skips cleanly where sockets are unavailable.
#[test]
fn loopback_shed_delivers_a_complete_503() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let state = Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic));
    let config = ServerConfig { threads: 1, max_conns: 1, ..ServerConfig::default() };
    let server = match Server::bind(state, "127.0.0.1:0", config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("skipping loopback shed test: cannot bind a loopback socket ({e})");
            return;
        }
    };
    let holder = match std::net::TcpStream::connect(server.local_addr()) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("skipping loopback shed test: cannot connect over loopback ({e})");
            server.shutdown();
            return;
        }
    };
    // Give the acceptor a beat to claim the only slot for `holder`.
    std::thread::sleep(Duration::from_millis(100));
    let mut shed = std::net::TcpStream::connect(server.local_addr()).expect("second connect");
    let mut raw = Vec::new();
    shed.read_to_end(&mut raw).expect("read the shed response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503 Service Unavailable"), "{text}");
    assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert!(text.ends_with('}'), "complete JSON body delivered: {text}");
    drop(holder);
    server.shutdown();
}
