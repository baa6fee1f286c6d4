//! The transport layer: a connection trait, the event-loop worker
//! pool, and the TCP acceptor.
//!
//! Transport is abstracted behind [`Connection`] (`Read + Write +
//! Send`), so the pool serves a real [`std::net::TcpStream`] and the
//! in-process [`MemConn`] through the same [`EventLoop`] — which is how
//! the conformance, determinism, and load tests drive the production
//! serving path without sockets. The event loop is the only code that
//! turns bytes into requests and responses.
//!
//! The pool runs one [`EventLoop`] per worker thread: accepted sockets
//! are switched to non-blocking mode and distributed round-robin, each
//! worker multiplexes its share with `poll(2)` readiness (a blocked or
//! slow connection never pins the thread), and a per-worker wake pipe
//! lets the acceptor interrupt a sleeping poll when new work arrives.
//! Admission control happens before the queue: past
//! [`PoolConfig::max_conns`] in-flight connections the acceptor sheds
//! with a canned `503 Retry-After` instead of queueing unboundedly —
//! written while the socket is still in blocking mode (bounded by a
//! short write timeout), so the 503 actually reaches the peer under
//! the very overload that triggers it.
//!
//! Shutdown is graceful: the drain flag stops keep-alive after the
//! in-flight request, queued connections are still served, quiet
//! keep-alive peers are closed immediately instead of waiting out
//! their idle timeout, and every thread is joined.

use crate::event::{ConnPolicy, EventLoop, PollReadiness, SysClock};
use crate::router::{Response, ServeState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A bidirectional byte stream the server can answer on. Blanket-implemented
/// for every `Read + Write + Send` type ([`TcpStream`], [`MemConn`], ...).
pub trait Connection: Read + Write + Send {}

impl<T: Read + Write + Send> Connection for T {}

/// How long an event-loop worker sleeps in `poll(2)` with no readiness:
/// the fallback intake latency when the wake pipe is unavailable.
const WORKER_TICK: Duration = Duration::from_millis(25);

/// Write-timeout bound on the acceptor's blocking shed write: a shed
/// peer that refuses to read its `503` cannot hold the accept loop for
/// longer than this.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

type BoxConn = Box<dyn Connection>;
type Job = (BoxConn, Option<i32>);

/// Configuration for [`Pool::start_with`] and [`Server::bind`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Per-connection serving policy (limits, keep-alive caps,
    /// idle timeout, backpressure bound).
    pub policy: ConnPolicy,
    /// Most in-flight connections across all workers; submissions past
    /// this are shed with `503 Retry-After` instead of queued. Zero
    /// means the default, 1024.
    pub max_conns: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig { policy: ConnPolicy::default(), max_conns: 1024 }
    }
}

impl PoolConfig {
    fn normalized(mut self) -> PoolConfig {
        if self.max_conns == 0 {
            self.max_conns = PoolConfig::default().max_conns;
        }
        self
    }
}

/// A fixed set of event-loop workers, each multiplexing its share of
/// connections with readiness polling.
pub struct Pool {
    state: Arc<ServeState>,
    senders: Option<Vec<Sender<Job>>>,
    wakers: Vec<Option<std::io::PipeWriter>>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
    active: Arc<AtomicUsize>,
    max_conns: usize,
    draining: Arc<AtomicBool>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .field("active", &self.active.load(Ordering::SeqCst))
            .field("max_conns", &self.max_conns)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Start `threads` event-loop workers (at least one) serving
    /// `state` under `config`.
    pub fn start_with(state: Arc<ServeState>, threads: usize, config: PoolConfig) -> Pool {
        let config = config.normalized();
        let threads = threads.max(1);
        let draining = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let mut senders = Vec::with_capacity(threads);
        let mut wakers = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = channel::<Job>();
            let (wake_reader, wake_writer) = match std::io::pipe() {
                Ok((r, w)) => (Some(r), Some(w)),
                Err(_) => (None, None), // WORKER_TICK bounds intake latency
            };
            senders.push(tx);
            wakers.push(wake_writer);
            let state = Arc::clone(&state);
            let draining = Arc::clone(&draining);
            let active = Arc::clone(&active);
            let policy = config.policy.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("govhost-serve-{i}"))
                    .spawn(move || worker_loop(state, rx, wake_reader, policy, draining, active))
                    .expect("spawn serve worker"),
            );
        }
        Pool {
            state,
            senders: Some(senders),
            wakers,
            workers,
            next: AtomicUsize::new(0),
            active,
            max_conns: config.max_conns,
            draining,
        }
    }

    /// Queue a connection (no descriptor: treated as always ready);
    /// `false` once the pool is shutting down.
    pub fn submit(&self, conn: BoxConn) -> bool {
        self.submit_with_fd(conn, None)
    }

    /// Whether a new submission would be shed right now.
    pub fn is_saturated(&self) -> bool {
        self.active.load(Ordering::SeqCst) >= self.max_conns
    }

    /// Write the canned, accounted `503 Retry-After` shed response to a
    /// connection that will not be served. Best effort — the peer may
    /// already be gone — but a transiently full non-blocking socket is
    /// retried briefly instead of truncating the 503 mid-header.
    pub fn shed(&self, conn: &mut dyn Write) {
        write_shed(conn, &self.state.shed());
    }

    /// Queue a connection together with its raw descriptor so the
    /// worker's readiness loop can poll it. Past
    /// [`PoolConfig::max_conns`] in-flight connections the submission
    /// is shed — answered directly with the canned `503 Retry-After`
    /// and counted in `/metrics` — which still returns `true`: the
    /// connection was handled, just not served. (The acceptor sheds
    /// before switching sockets non-blocking; this in-submit path is
    /// the backstop for the race between that check and the queue.)
    pub fn submit_with_fd(&self, mut conn: BoxConn, fd: Option<i32>) -> bool {
        let Some(senders) = &self.senders else { return false };
        if self.is_saturated() {
            self.shed(&mut *conn);
            return true;
        }
        self.active.fetch_add(1, Ordering::SeqCst);
        let slot = self.next.fetch_add(1, Ordering::SeqCst) % senders.len();
        if senders[slot].send((conn, fd)).is_err() {
            self.active.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        if let Some(mut writer) = self.wakers[slot].as_ref() {
            let _ = writer.write(&[1u8]); // `impl Write for &PipeWriter`
        }
        true
    }

    /// Connections currently queued or being served.
    pub fn active_conns(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Flip the drain flag: keep-alive loops close after their current
    /// request. Already-queued connections are still served.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Drain and join every worker (also what `Drop` does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.begin_drain();
        self.senders = None; // close the queues: workers exit once drained
        for mut writer in self.wakers.iter().flatten() {
            let _ = writer.write(&[1u8]); // interrupt sleeping polls
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Write every segment of a shed `response`, tolerating partial writes
/// and retrying a transiently full socket a handful of times (1 ms
/// apart) — under overload, a bare connection close where the client
/// expected `503 Retry-After` would defeat the point of shedding. Any
/// persistent error gives up: the peer is gone or not reading.
fn write_shed(conn: &mut dyn Write, response: &Response) {
    const WOULD_BLOCK_RETRIES: u32 = 20;
    let mut retries = 0u32;
    for seg in response.segments(false) {
        let mut buf = seg.as_slice();
        while !buf.is_empty() {
            match conn.write(buf) {
                Ok(0) => return,
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && retries < WOULD_BLOCK_RETRIES =>
                {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return,
            }
        }
    }
    let _ = conn.flush();
}

/// One event-loop worker: adopt submitted connections, spin
/// [`EventLoop::turn`]s, keep the shared in-flight count honest.
fn worker_loop(
    state: Arc<ServeState>,
    rx: Receiver<Job>,
    wake_reader: Option<std::io::PipeReader>,
    policy: ConnPolicy,
    draining: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    let mut el = EventLoop::new(
        state,
        Box::new(PollReadiness::new()),
        Arc::new(SysClock::new()),
        policy,
        Arc::clone(&draining),
    );
    let mut wake_reader = wake_reader;
    #[cfg(unix)]
    if let Some(reader) = &wake_reader {
        use std::os::fd::AsRawFd;
        el.set_wake_fd(Some(reader.as_raw_fd()));
    }
    #[cfg(not(unix))]
    {
        wake_reader = None; // no raw fd to poll; rely on WORKER_TICK
    }
    loop {
        if el.is_empty() {
            // Nothing to poll: block on the queue until work or close.
            match rx.recv() {
                Ok((conn, fd)) => el.register(conn, fd),
                Err(_) => return,
            }
        }
        while let Ok((conn, fd)) = rx.try_recv() {
            el.register(conn, fd);
        }
        let before = el.len();
        match el.turn(Some(WORKER_TICK)) {
            Ok(report) => {
                if report.woken {
                    if let Some(reader) = &mut wake_reader {
                        let mut sink = [0u8; 64];
                        let _ = reader.read(&mut sink);
                    }
                }
            }
            Err(_) => std::thread::sleep(WORKER_TICK), // poll failure: back off
        }
        if draining.load(Ordering::SeqCst) {
            el.close_idle_now();
        }
        let after = el.len();
        if before > after {
            active.fetch_sub(before - after, Ordering::SeqCst);
        }
    }
}

/// A TCP acceptor feeding the event-loop worker pool.
#[derive(Debug)]
pub struct Server {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<Arc<Pool>>,
}

impl Server {
    /// Bind `addr` and start accepting into a pool of `threads`
    /// event-loop workers (at least one) configured like
    /// [`Pool::start_with`]. The returned server runs in the background
    /// until [`Server::shutdown`] (or drop).
    pub fn bind<A: ToSocketAddrs>(
        state: Arc<ServeState>,
        addr: A,
        threads: usize,
        config: PoolConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(Pool::start_with(state, threads, config));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("govhost-serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        let _ = stream.set_nodelay(true);
                        if pool.is_saturated() {
                            // Shed while the socket still blocks, so
                            // the 503 is not truncated by WouldBlock on
                            // a full buffer — the exact condition
                            // shedding exists for. The write timeout
                            // bounds a peer that never reads.
                            let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
                            pool.shed(&mut stream);
                            continue;
                        }
                        // The readiness loop owns scheduling; the
                        // socket itself must never block a worker.
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        #[cfg(unix)]
                        let fd = {
                            use std::os::fd::AsRawFd;
                            let fd = stream.as_raw_fd();
                            crate::event::enable_tcp_keepalive(fd);
                            Some(fd)
                        };
                        #[cfg(not(unix))]
                        let fd = None;
                        if !pool.submit_with_fd(Box::new(stream), fd) {
                            break;
                        }
                    }
                })
                .expect("spawn acceptor")
        };
        Ok(Server { local, stop, acceptor: Some(acceptor), pool: Some(pool) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Graceful shutdown: stop accepting, drain in-flight and queued
    /// connections, join every thread (also what `Drop` does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pool) = &self.pool {
            pool.begin_drain();
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.pool = None; // Pool::drop drains the queues and joins workers
    }
}

/// An in-process [`Connection`]: a scripted input buffer plus a
/// captured output buffer, handed back through a channel once the
/// connection is dropped — so the real [`Pool`] (or an [`EventLoop`]
/// driven directly) can own it and serve it without sockets.
#[derive(Debug)]
pub struct MemConn {
    input: std::io::Cursor<Vec<u8>>,
    output: Vec<u8>,
    done: Sender<Vec<u8>>,
}

impl MemConn {
    /// A connection that will replay `input` (then report EOF), plus a
    /// receiver that yields every byte the server wrote once the
    /// connection is dropped — i.e. when the loop serving it closes it.
    pub fn scripted(input: impl Into<Vec<u8>>) -> (MemConn, Receiver<Vec<u8>>) {
        let (done, rx) = channel();
        let conn = MemConn { input: std::io::Cursor::new(input.into()), output: Vec::new(), done };
        (conn, rx)
    }
}

impl Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for MemConn {
    fn drop(&mut self) {
        let _ = self.done.send(std::mem::take(&mut self.output));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_core::prelude::*;
    use govhost_obs::TimeMode;
    use govhost_worldgen::prelude::*;

    fn state() -> Arc<ServeState> {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        Arc::new(ServeState::with_mode(&dataset, TimeMode::Deterministic))
    }

    /// Serve `input` on one connection through a one-worker pool.
    fn roundtrip(state: Arc<ServeState>, input: &[u8]) -> String {
        let pool = Pool::start_with(state, 1, PoolConfig::default());
        let (conn, rx) = MemConn::scripted(input);
        assert!(pool.submit(Box::new(conn)));
        let out = rx.recv().expect("connection was served");
        pool.shutdown();
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn keep_alive_pipelining_answers_in_order() {
        let out = roundtrip(
            state(),
            b"GET /healthz HTTP/1.1\r\n\r\nGET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2);
        let first = out.find("Connection: keep-alive").unwrap();
        let second = out.find("Connection: close").unwrap();
        assert!(first < second);
    }

    #[test]
    fn truncated_request_is_answered_400_on_eof() {
        let out = roundtrip(state(), b"GET /hhi HTTP/1.1\r\nHost");
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
        assert!(out.contains("truncated request"));
    }

    #[test]
    fn pool_serves_queued_connections_through_shutdown() {
        let pool = Pool::start_with(state(), 2, PoolConfig::default());
        let receivers: Vec<_> = (0..8)
            .map(|_| {
                let (conn, rx) = MemConn::scripted(&b"GET /countries HTTP/1.1\r\n\r\n"[..]);
                assert!(pool.submit(Box::new(conn)));
                rx
            })
            .collect();
        pool.shutdown(); // drains the queue before joining
        for rx in receivers {
            let out = rx.recv().expect("connection was served");
            assert!(out.starts_with(b"HTTP/1.1 200 OK"));
        }
    }

    #[test]
    fn draining_pool_closes_keep_alive_after_inflight_request() {
        let pool = Pool::start_with(state(), 1, PoolConfig::default());
        pool.begin_drain();
        let (conn, rx) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
        assert!(pool.submit(Box::new(conn)));
        let out = String::from_utf8(rx.recv().unwrap()).unwrap();
        assert!(out.contains("Connection: close"), "drain closes keep-alive: {out}");
        pool.shutdown();
    }

    #[test]
    fn saturated_pool_sheds_with_503_retry_after() {
        let state = state();
        let config = PoolConfig { max_conns: 1, ..PoolConfig::default() };
        let pool = Pool::start_with(Arc::clone(&state), 1, config);
        // Artificially saturate: claim the only slot without a worker
        // ever seeing it, then submit a real connection.
        pool.active.fetch_add(1, Ordering::SeqCst);
        let (conn, rx) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
        assert!(pool.submit(Box::new(conn)), "shed connections are handled");
        let out = String::from_utf8(rx.recv().unwrap()).unwrap();
        assert!(out.starts_with("HTTP/1.1 503 Service Unavailable"), "{out}");
        assert!(out.contains("Retry-After: 1"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        assert_eq!(state.shed_count(), 1);
        pool.active.fetch_sub(1, Ordering::SeqCst);
        pool.shutdown();
    }

    #[test]
    fn pool_tracks_active_connections_back_to_zero() {
        let pool = Pool::start_with(state(), 2, PoolConfig::default());
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let (conn, rx) = MemConn::scripted(&b"GET /hhi HTTP/1.1\r\n\r\n"[..]);
                assert!(pool.submit(Box::new(conn)));
                rx
            })
            .collect();
        for rx in receivers {
            let _ = rx.recv().expect("served");
        }
        // Workers decrement after reaping; give the loops a beat.
        for _ in 0..200 {
            if pool.active_conns() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.active_conns(), 0);
        pool.shutdown();
    }
}
