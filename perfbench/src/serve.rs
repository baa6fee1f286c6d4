//! `govhost serve --scale 0.1 --years 2`: the production event-loop
//! pool answering a closed loop of in-process connections.
//!
//! Set-up generates the world, evolves it two years, builds the served
//! state with its default result cache, and starts a two-worker
//! [`Pool`]. Two [`BenchConn`]s each keep one request in flight; every
//! connection sends [`REQUESTS_PER_CONN`] requests, the last with
//! `Connection: close`, and a new connection takes its place until the
//! run's time is up. One op is one request.

use crate::batch::{build_options, gen_params};
use crate::conn::{BenchConn, ConnReport};
use crate::mix::{Class, Mix, Pick, Target};
use crate::stats::{beyond, median, Histogram};
use crate::trace::{Span, Tracer};
use crate::{report_trace, spans_path, Args, Outcome};
use govhost_core::evolve::{evolve_with_systems, EvolveOutcome};
use govhost_obs::TimeMode;
use govhost_serve::{ConnPolicy, Limits, Pool, PoolConfig, RequestParser, ServeState};
use govhost_worldgen::tick::default_systems;
use govhost_worldgen::{GenParams, World};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVE_SCALE: f64 = 0.1;
const SERVE_YEARS: u32 = 2;
const SERVE_WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const REQUESTS_PER_CONN: u64 = 1_000;
/// How often set-up runs in a run, spread over the drive; `setup_s` is
/// the median.
const SETUP_REPS: usize = 5;
/// Traced-run replays: the cache-hit set stays below the default
/// 128-entry cache so every timed lookup hits.
const HIT_SET: usize = 100;
const HIT_ROUNDS: usize = 10;
const MISS_SET: usize = 300;
const SCRAPES: usize = 20;
/// Connections' worth of requests replayed call by call.
const REPLAY_CONNS: usize = 50;
/// The spans file keeps this many pool request spans; every other
/// span is written.
const WRITTEN_REQUEST_SPANS: usize = 100_000;
/// The end-to-end serve metrics are medians over windows this long, so
/// a host stall confined to a few windows does not move them.
const WINDOW_US: u64 = 1_000_000;
/// A connection that reports nothing for this long has stalled.
const STALL: Duration = Duration::from_secs(60);

fn pool_config() -> PoolConfig {
    PoolConfig {
        policy: ConnPolicy::default(),
        max_conns: 1024,
    }
}

/// What one closed-loop drive of the pool produced. Latencies go into
/// fixed-size histograms as each connection reports, so the drive's
/// memory does not grow with the number of requests it serves.
#[derive(Debug, Default)]
struct PoolRun {
    /// Every request's latency.
    all: Histogram,
    /// Latencies per [`WINDOW_US`] window, by completion time.
    windows: Vec<Histogram>,
    /// When the drive started, in µs since the origin.
    start_us: u64,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    per_class: [u64; 5],
    status_304: u64,
    status_400: u64,
    spans: Vec<(u64, u64, u64)>,
    errors: Vec<String>,
}

impl PoolRun {
    fn absorb(&mut self, r: ConnReport) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        for (&end, &ns) in r.ends_us.iter().zip(&r.latencies_ns) {
            self.all.record(ns);
            let w = (u64::from(end).saturating_sub(self.start_us) / WINDOW_US) as usize;
            if self.windows.len() <= w {
                self.windows.resize_with(w + 1, Histogram::default);
            }
            self.windows[w].record(ns);
        }
        self.spans.extend(r.spans);
        for (total, n) in self.per_class.iter_mut().zip(r.per_class) {
            *total += n;
        }
        self.status_304 += r.status_304;
        self.status_400 += r.status_400;
        self.errors.extend(r.error);
    }

    /// The `q`-quantile request latency of the whole drive, in µs.
    /// Add a later drive's requests; its windows are not kept.
    fn append(&mut self, other: PoolRun) {
        self.all.merge(&other.all);
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (total, n) in self.per_class.iter_mut().zip(other.per_class) {
            *total += n;
        }
        self.status_304 += other.status_304;
        self.status_400 += other.status_400;
        self.spans.extend(other.spans);
        self.errors.extend(other.errors);
    }

    fn percentile_us(&self, q: f64) -> f64 {
        self.all.percentile(q) / 1e3
    }

    /// The drive's whole windows (the last, partial one is left out);
    /// a drive shorter than one window is one window.
    fn whole_windows(&self) -> Vec<Window> {
        let whole = (self.wall_s * 1e6) as u64 / WINDOW_US;
        if whole == 0 {
            return vec![Window::of(&self.all, self.wall_s)];
        }
        self.windows
            .iter()
            .take(whole as usize)
            .filter(|h| h.len() > 0)
            .map(|h| Window::of(h, WINDOW_US as f64 / 1e6))
            .collect()
    }
}

/// One window of a drive.
#[derive(Debug, Clone, Copy)]
struct Window {
    requests: u64,
    seconds: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Window {
    fn of(hist: &Histogram, seconds: f64) -> Window {
        Window {
            requests: hist.len(),
            seconds,
            p50_us: hist.percentile(0.5) / 1e3,
            p99_us: hist.percentile(0.99) / 1e3,
        }
    }

    fn rate(&self) -> f64 {
        self.requests as f64 / self.seconds
    }
}

/// Drive `pool` with `conns` closed-loop connections, opening a fresh
/// connection whenever one closes during the first `seconds` of the
/// drive, then wait for the open ones to finish. Connection numbers
/// continue from `next_conn`.
fn drive(
    pool: &Pool,
    mix: &Arc<Mix>,
    conns: usize,
    seconds: f64,
    trace: bool,
    next_conn: &mut u64,
    origin: Instant,
) -> Result<PoolRun, String> {
    let (tx, rx) = channel();
    let mut submit = || -> Result<(), String> {
        let conn = BenchConn::new(
            Arc::clone(mix),
            *next_conn,
            REQUESTS_PER_CONN,
            origin,
            trace,
            tx.clone(),
        );
        *next_conn += 1;
        if pool.submit(Box::new(conn)) {
            Ok(())
        } else {
            Err("the pool refused a connection".to_string())
        }
    };
    let start = Instant::now();
    let mut run = PoolRun {
        start_us: start.duration_since(origin).as_micros() as u64,
        ..PoolRun::default()
    };
    for _ in 0..conns {
        submit()?;
    }
    let mut open = conns;
    while open > 0 {
        let report = rx
            .recv_timeout(STALL)
            .map_err(|_| "a connection stalled".to_string())?;
        open -= 1;
        run.absorb(report);
        if start.elapsed().as_secs_f64() < seconds {
            submit()?;
            open += 1;
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    Ok(run)
}

/// `(hits, misses)` of the result cache so far.
fn cache_counts(state: &ServeState) -> (u64, u64) {
    let snap = state.telemetry_snapshot();
    let count = |outcome| {
        snap.registry
            .counter_filtered("http.query_cache", &[("outcome", outcome)])
    };
    (count("hit"), count("miss"))
}

fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    hits as f64 / (hits + misses).max(1) as f64
}

/// The realized shape of a drive, for the report.
fn describe(out: &mut Outcome, label: &str, run: &PoolRun, ratio: f64) {
    let n = run.attempted.max(1) as f64;
    let shares: Vec<String> = Class::ALL
        .iter()
        .zip(run.per_class)
        .map(|(c, k)| format!("{} {:.3}%", c.label(), k as f64 / n * 100.0))
        .collect();
    out.note(format!(
        "{label}: {} requests in {:.3} s over {} connections; {}; 304 share {:.3}%, 400 share {:.3}%; query cache hit ratio {:.4}",
        run.attempted,
        run.wall_s,
        run.attempted.div_ceil(REQUESTS_PER_CONN),
        shares.join(", "),
        run.status_304 as f64 / n * 100.0,
        run.status_400 as f64 / n * 100.0,
        ratio
    ));
    for e in run.errors.iter().take(5) {
        out.note(format!("{label}: connection error: {e}"));
    }
}

fn parse(request: &[u8]) -> Option<govhost_serve::Request> {
    let mut parser = RequestParser::new(Limits::default());
    parser.push(request);
    parser.next_request().ok().flatten()
}

/// The layer a request class exercises inside `ServeState::respond`.
fn layer_of(pick: Pick, target: &Target) -> &'static str {
    match pick.class {
        Class::Fixed if target.path.ends_with("/history") => "history.respond",
        Class::Fixed => "router.slab",
        Class::Conditional => "router.revalidate",
        Class::Query => "query.respond",
        Class::Bad => "router.error",
        Class::Metrics => "obs.scrape",
    }
}

/// Answer `target` on `state` inside a span; false if the status is
/// not the reference one.
fn respond_traced(t: &mut Tracer, name: &'static str, state: &ServeState, target: &Target) -> bool {
    let Some(request) = parse(&target.request) else {
        return false;
    };
    t.span(name, |_| state.respond(Ok(&request)).status) == target.expect.status
}

/// What one set-up leaves running.
struct Served {
    evolved: EvolveOutcome,
    state: Arc<ServeState>,
    pool: Pool,
}

/// One set-up: generate the world, evolve it, build the served state
/// and start the pool. Returns it with its wall time in seconds.
fn set_up(tracer: &mut Tracer, params: &GenParams) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let mut world = tracer.span("worldgen.generate", |_| World::generate(params));
    let evolved = evolve_with_systems(
        &mut world,
        SERVE_YEARS,
        &build_options(),
        &default_systems(),
    )
    .map_err(|e| e.to_string())?;
    let state = Arc::new(tracer.span("index.build", |_| {
        ServeState::with_timeline(&evolved.dataset, &evolved.timeline, TimeMode::Deterministic)
    }));
    let pool = Pool::start_with(Arc::clone(&state), SERVE_WORKERS, pool_config());
    let seconds = start.elapsed().as_secs_f64();
    Ok((
        Served {
            evolved,
            state,
            pool,
        },
        seconds,
    ))
}

pub fn run(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let params = gen_params(SERVE_SCALE, args.seed);
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace, origin);
    let (served, first_setup_s) = set_up(&mut tracer, &params)?;
    let mut setup_s = vec![first_setup_s];
    let Served {
        evolved,
        state,
        pool,
    } = served;

    // Reference answers come from a second state no measured request
    // touches, so they neither warm the cache nor count in /metrics.
    let reference =
        ServeState::with_timeline(&evolved.dataset, &evolved.timeline, TimeMode::Deterministic);
    let mix = Arc::new(Mix::build(
        args.seed,
        &evolved.dataset.countries(),
        &reference,
    )?);
    drop(reference);
    out.note(format!(
        "serve mix: {} fixed targets (and as many revalidations), {} distinct queries, {} bad targets",
        mix.fixed.len(),
        mix.queries.len(),
        mix.bad.len()
    ));

    // The drive runs in SETUP_REPS segments with one more set-up between
    // each two, so the set-up samples spread over the run as the
    // windows do. A repeated set-up is timed and dropped; the drive
    // stays on the first one's pool.
    let mut next_conn = 0u64;
    let phase_s = if args.trace {
        args.seconds * 0.35
    } else {
        args.seconds
    };
    let before = cache_counts(&state);
    let mut run = PoolRun::default();
    let mut windows = Vec::new();
    for segment in 0..SETUP_REPS {
        if segment > 0 {
            let (again, seconds) = set_up(&mut tracer, &params)?;
            setup_s.push(seconds);
            drop(again); // joins its pool's workers
        }
        let part = drive(
            &pool,
            &mix,
            CONNECTIONS,
            phase_s / SETUP_REPS as f64,
            false,
            &mut next_conn,
            origin,
        )?;
        windows.extend(part.whole_windows());
        run.append(part);
    }
    let ratio = hit_ratio(before, cache_counts(&state));
    out.attempted += run.attempted;
    out.failed += run.failed;
    describe(&mut out, "pool, 2 workers", &run, ratio);
    let p50_us = run.percentile_us(0.5);
    if !args.trace {
        let pick = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        out.set("setup_s", median(&setup_s));
        out.set("op_ms", pick(|w| w.p50_us) / 1e3);
        out.set("tail_ms", pick(|w| w.p99_us) / 1e3);
        out.set("ops_per_s", pick(Window::rate));
        let fewest = windows.iter().map(|w| w.requests).min().unwrap_or(0);
        out.note(format!(
            "op_ms, tail_ms and ops_per_s are medians over {} windows of {:.3} s of the p50, the p99 and the request rate (the p99 of every window has at least {} samples beyond it); setup_s is the median of {} set-ups [{}]",
            windows.len(),
            windows.first().map_or(0.0, |w| w.seconds),
            beyond(fewest as usize, 0.99),
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let requests = run.all.len() as usize;
        out.note(format!(
            "whole run: p50 {p50_us:.3} us, p99 {:.3} us over {requests} requests ({} beyond the p99), {:.0} requests/s",
            run.percentile_us(0.99),
            beyond(requests, 0.99),
            requests as f64 / run.wall_s
        ));
        return Ok(out);
    }

    // Traced pool: the connections record a span per request.
    let traced = drive(
        &pool,
        &mix,
        CONNECTIONS,
        phase_s,
        true,
        &mut next_conn,
        origin,
    )?;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    for &(id, start, end) in &traced.spans {
        tracer.record("serve.request", start, end, Some(id));
    }
    let traced_p50_us = traced.percentile_us(0.5);

    // One worker, one connection, on the same state and mix.
    let single = Pool::start_with(Arc::clone(&state), 1, pool_config());
    let lone = drive(
        &single,
        &mix,
        1,
        args.seconds * 0.3,
        false,
        &mut next_conn,
        origin,
    )?;
    drop(single);
    out.attempted += lone.attempted;
    out.failed += lone.failed;
    let lone_p50_us = lone.percentile_us(0.5);

    // The mix again, replayed call by call on the warmed state.
    let mut replayed = 0u64;
    for _ in 0..REPLAY_CONNS {
        let conn = next_conn;
        next_conn += 1;
        let mut rng = mix.rng_for(conn);
        for i in 0..REQUESTS_PER_CONN {
            let id = conn * REQUESTS_PER_CONN + i;
            let pick = mix.draw(&mut rng, id);
            let target = mix.target(pick);
            let layer = layer_of(pick, target);
            let ok = tracer.span_req("request", Some(id), |t| {
                let Some(request) = t.span_req("http.parse", Some(id), |_| parse(&target.request))
                else {
                    return false;
                };
                t.span_req(layer, Some(id), |_| state.respond(Ok(&request)).status)
                    == target.expect.status
            });
            replayed += 1;
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
    }

    // Cache hits: warm a set smaller than the cache, then time lookups.
    let hot = &mix.queries[..HIT_SET.min(mix.queries.len())];
    for target in hot {
        parse(&target.request).map(|r| state.respond(Ok(&r)));
    }
    let warm = cache_counts(&state);
    for _ in 0..HIT_ROUNDS {
        for target in hot {
            out.attempted += 1;
            out.failed += u64::from(!respond_traced(&mut tracer, "query.hit", &state, target));
        }
    }
    let (hits, misses) = cache_counts(&state);
    out.check(
        misses == warm.1 && hits - warm.0 == (HIT_ROUNDS * hot.len()) as u64,
        || {
            format!(
                "query.hit replay missed the cache ({} misses)",
                misses - warm.1
            )
        },
    );
    // Cache misses: the same queries on a state without a cache.
    let cold = ServeState::with_timeline_config(
        &evolved.dataset,
        &evolved.timeline,
        TimeMode::Deterministic,
        0,
    );
    for target in mix.queries.iter().take(MISS_SET) {
        out.attempted += 1;
        out.failed += u64::from(!respond_traced(&mut tracer, "query.miss", &cold, target));
    }
    for _ in 0..SCRAPES {
        out.attempted += 1;
        out.failed += u64::from(!respond_traced(
            &mut tracer,
            "obs.scrape",
            &state,
            &mix.metrics,
        ));
    }
    drop(pool);

    let us = |name: &str| median(&tracer.durations_ms(name)) * 1e3;
    out.set(
        "worldgen.generate_ms",
        median(&tracer.durations_ms("worldgen.generate")),
    );
    out.set(
        "index.build_ms",
        median(&tracer.durations_ms("index.build")),
    );
    out.set("http.parse_us", us("http.parse"));
    out.set("router.slab_us", us("router.slab"));
    out.set("router.revalidate_us", us("router.revalidate"));
    out.set("history.respond_us", us("history.respond"));
    out.set("query.hit_us", us("query.hit"));
    out.set("query.miss_us", us("query.miss"));
    out.set("query.hit_ratio", ratio);
    out.set("obs.scrape_ms", median(&tracer.durations_ms("obs.scrape")));
    let in_process_us = us("request");
    out.set("event.turn_us", p50_us - in_process_us);
    out.set("serve.contention_us", p50_us - lone_p50_us);
    out.note(format!(
        "p50 request through the pool {p50_us:.3} us = parse + respond {in_process_us:.3} us (median of {replayed} replayed) + event loop and transport {:.3} us",
        p50_us - in_process_us
    ));
    out.note(format!(
        "p50 with 2 workers and 2 connections {p50_us:.3} us, with 1 worker and 1 connection {lone_p50_us:.3} us"
    ));
    report_trace(&mut out, &tracer, p50_us / 1e3, traced_p50_us / 1e3);
    let path = spans_path(args.workload);
    let mut pool_spans = 0;
    let keep = |s: &Span| {
        pool_spans += usize::from(s.name == "serve.request");
        s.name != "serve.request" || pool_spans <= WRITTEN_REQUEST_SPANS
    };
    match tracer.write_csv(&path, keep) {
        Ok(written) => out.note(format!(
            "spans: {} ({written} of {} spans; pool request spans past the first {WRITTEN_REQUEST_SPANS} are not written)",
            path.display(),
            tracer.spans().len()
        )),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_core::evolve::Timeline;
    use govhost_core::GovDataset;

    #[test]
    fn connections_keep_alive_through_304s_and_400s_and_reconnect_after_close() {
        let world = World::generate(&GenParams::tiny());
        let (dataset, _) =
            GovDataset::try_build(&world, &build_options()).expect("tiny world builds");
        let timeline = Timeline::snapshot(&dataset);
        let served = || ServeState::with_timeline(&dataset, &timeline, TimeMode::Deterministic);
        let state = Arc::new(served());
        let mix = Arc::new(Mix::build(9, &dataset.countries(), &served()).expect("mix builds"));
        let pool = Pool::start_with(Arc::clone(&state), 1, pool_config());
        let mut next_conn = 0;
        // Three connections in a row on one worker: each opens after
        // the previous one's `Connection: close`, and the 304s and 400s
        // before that must all stay on the connection.
        let (mut status_304, mut status_400) = (0, 0);
        for _ in 0..3 {
            let run =
                drive(&pool, &mix, 1, 0.0, false, &mut next_conn, Instant::now()).expect("drive");
            assert_eq!(run.attempted, REQUESTS_PER_CONN);
            assert_eq!(run.all.len(), run.attempted);
            assert_eq!(run.failed, 0, "{:?}", run.errors);
            status_304 += run.status_304;
            status_400 += run.status_400;
        }
        assert_eq!(next_conn, 3);
        assert!(status_304 > 0 && status_400 > 0);
    }
}
