#![deny(missing_docs)]
//! # govhost-obs
//!
//! The workspace's observability layer: a span-based tracer and a
//! metrics registry, hermetic and zero-dependency like everything else
//! in the workspace, designed around one non-negotiable constraint —
//! **telemetry must not break the determinism contract**. The pipeline
//! promises bit-identical output for every `GOVHOST_THREADS` value, and
//! that promise now extends to the exported telemetry files.
//!
//! ## Model
//!
//! - **Spans** ([`span!`], [`span()`], [`span_labeled`]) are RAII guards
//!   measuring monotonic busy time. Executions aggregate into a tree of
//!   [`trace::SpanNode`]s keyed by `(name, labels)` under their parent
//!   path, so the tree's *shape* reflects the instrumentation, not the
//!   data volume or the scheduling.
//! - **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]) land in a
//!   [`metrics::Registry`] with cardinality-bounded labels.
//! - **Collection scopes** ([`collect`]) make the whole thing work
//!   across the `govhost-par` thread pool without locks: recording is
//!   thread-local, and a scope returns its captured [`Telemetry`] as a
//!   value. Worker shards ride back to the coordinating thread inside
//!   job results and are grafted into the parent capture with
//!   [`absorb`] at a position captured beforehand with [`context`].
//!   Every merge (span nodes, counters, histograms) is commutative and
//!   associative, so the shard fold order — the only thing scheduling
//!   can influence — cannot change the result.
//! - **Export** ([`export::trace_json`], [`export::metrics_json`])
//!   renders `trace.json` / `metrics.json`; the default mode zeroes the
//!   (necessarily nondeterministic) nanosecond fields so the bytes are
//!   identical across thread counts, while `GOVHOST_TRACE=verbose`
//!   keeps real timings for profiling. See `DESIGN.md` §5d.
//!
//! ## Example
//!
//! ```
//! use govhost_obs as obs;
//!
//! let (result, telemetry) = obs::collect(|| {
//!     let _build = obs::span!("build");
//!     obs::counter_add("crawl.pages", &[("country", "AR")], 12);
//!     // Fan work out: each job collects into its own shard...
//!     let ctx = obs::context();
//!     let (job_result, shard) = obs::collect(|| {
//!         let _s = obs::span!("country", country = "AR");
//!         40 + 2
//!     });
//!     // ...and the coordinator grafts it back deterministically.
//!     obs::absorb(shard, &ctx);
//!     job_result
//! });
//! assert_eq!(result, 42);
//! assert_eq!(telemetry.registry.counter_total("crawl.pages"), 12);
//! assert_eq!(telemetry.span_count("country"), 1);
//! ```
//!
//! Recording outside any [`collect`] scope is a cheap no-op, so library
//! code can stay instrumented unconditionally.

pub mod export;
pub mod metrics;
pub mod trace;

pub use export::{trace_level, TimeMode, TraceLevel};
pub use metrics::{Histogram, Labels, Registry};
pub use trace::{SpanContext, SpanKey, SpanNode};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One complete capture: the aggregated span tree plus the metrics
/// registry. Returned by [`collect`]; merged with [`Telemetry::merge`]
/// or grafted with [`Telemetry::absorb_at`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// The virtual root of the span tree (its own count/busy stay zero).
    pub root: SpanNode,
    /// Counters, gauges, histograms.
    pub registry: Registry,
}

impl Telemetry {
    /// An empty capture.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.root.children.is_empty() && self.registry.is_empty()
    }

    /// Fold another capture into this one at the root.
    pub fn merge(&mut self, other: &Telemetry) {
        self.absorb_at(other, &SpanContext::root());
    }

    /// Graft another capture into this one: `other`'s span tree hangs
    /// below the node `ctx` points at; its registry merges globally.
    pub fn absorb_at(&mut self, other: &Telemetry, ctx: &SpanContext) {
        let node = self.root.node_at_mut(&ctx.0);
        for (key, child) in &other.root.children {
            node.children.entry(key.clone()).or_default().merge(child);
        }
        self.registry.merge(&other.registry);
    }

    /// Total busy nanoseconds across every span named `name`.
    pub fn span_busy(&self, name: &str) -> u64 {
        self.root.busy_of(name)
    }

    /// Total executions across every span named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.root.count_of(name)
    }
}

/// One node of a scope's span arena: a [`SpanNode`] whose children are
/// arena indices, so an open span is addressed by its index instead of
/// by its path from the root.
#[derive(Debug)]
struct ArenaNode {
    /// The node's key under its parent (empty for the root), kept so
    /// [`context`] can spell out the open path.
    key: SpanKey,
    count: u64,
    busy_ns: u64,
    children: BTreeMap<SpanKey, usize>,
}

impl ArenaNode {
    fn new(key: SpanKey) -> ArenaNode {
        ArenaNode { key, count: 0, busy_ns: 0, children: BTreeMap::new() }
    }
}

/// The arena index of the virtual root.
const ROOT: usize = 0;

/// A per-thread capture in progress: the span tree being built, as an
/// arena, plus the stack of open spans and the metrics registry.
///
/// Opening a span looks its key up among the children of the innermost
/// open node and pushes the child's index; closing one pops the index and
/// adds to that node. Neither walks the path from the root nor clones a
/// key unless the node is new. The arena becomes the [`SpanNode`] tree
/// of the returned [`Telemetry`] when the scope ends.
struct Shard {
    nodes: Vec<ArenaNode>,
    /// Arena indices of the open spans, outermost first.
    open: Vec<usize>,
    registry: Registry,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            nodes: vec![ArenaNode::new(("", Labels::empty()))],
            open: Vec::new(),
            registry: Registry::new(),
        }
    }

    /// The child of `parent` under `key`, created empty if missing.
    fn child(&mut self, parent: usize, key: &SpanKey) -> usize {
        if let Some(&index) = self.nodes[parent].children.get(key) {
            return index;
        }
        let index = self.nodes.len();
        self.nodes.push(ArenaNode::new(key.clone()));
        self.nodes[parent].children.insert(key.clone(), index);
        index
    }

    /// Fold `node`'s subtree into the children of arena node `at` (the
    /// arena form of [`SpanNode::merge`] over `node.children`).
    fn graft(&mut self, at: usize, node: &SpanNode) {
        for (key, child) in &node.children {
            let index = self.child(at, key);
            self.nodes[index].count += child.count;
            self.nodes[index].busy_ns += child.busy_ns;
            self.graft(index, child);
        }
    }

    /// Move arena node `index` and its subtree out as a [`SpanNode`].
    fn take_tree(&mut self, index: usize) -> SpanNode {
        let children = std::mem::take(&mut self.nodes[index].children);
        let node = &self.nodes[index];
        let (count, busy_ns) = (node.count, node.busy_ns);
        SpanNode {
            count,
            busy_ns,
            children: children.into_iter().map(|(key, c)| (key, self.take_tree(c))).collect(),
        }
    }

    fn into_telemetry(mut self) -> Telemetry {
        Telemetry { root: self.take_tree(ROOT), registry: self.registry }
    }
}

thread_local! {
    static SHARDS: RefCell<Vec<Shard>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` inside a fresh collection scope and return its result along
/// with everything recorded during the call.
///
/// Scopes nest: an inner [`collect`] shadows the outer one for its
/// duration (spans and metrics land in the inner capture only), which is
/// exactly what a worker job wants — its shard travels back inside the
/// job result instead of racing other threads for shared state.
///
/// A panic inside `f` closes the scope on its way out: its shard is
/// dropped, not left on the thread to catch what is recorded later.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Telemetry) {
    /// Pops the scope's shard however `f` exits.
    struct Scope;
    impl Drop for Scope {
        fn drop(&mut self) {
            SHARDS.with(|s| s.borrow_mut().pop());
        }
    }
    SHARDS.with(|s| s.borrow_mut().push(Shard::new()));
    let scope = Scope;
    let result = f();
    let shard = SHARDS.with(|s| s.borrow_mut().pop().expect("collect scope still open"));
    std::mem::forget(scope);
    debug_assert!(shard.open.is_empty(), "span guards must not outlive their collect scope");
    (result, shard.into_telemetry())
}

/// The current position in the active scope's span tree (the root
/// context when no scope is active). Capture this *before* fanning work
/// out; pass it to [`absorb`] when the shards come back.
pub fn context() -> SpanContext {
    SHARDS.with(|s| {
        s.borrow()
            .last()
            .map(|shard| {
                SpanContext(shard.open.iter().map(|&i| shard.nodes[i].key.clone()).collect())
            })
            .unwrap_or_default()
    })
}

/// Graft a shard captured elsewhere (usually by a worker job) into the
/// active scope at `ctx`. A no-op when no scope is active.
///
/// `ctx` is a path of keys from the root, so it may name the open span,
/// an open ancestor of it, or a span that has closed since; nodes on the
/// path that do not exist yet are created empty.
pub fn absorb(shard: Telemetry, ctx: &SpanContext) {
    SHARDS.with(|s| {
        if let Some(active) = s.borrow_mut().last_mut() {
            let mut at = ROOT;
            for key in &ctx.0 {
                at = active.child(at, key);
            }
            active.graft(at, &shard.root);
            active.registry.merge(&shard.registry);
        }
    });
}

/// Add `n` to a counter. A no-op outside a [`collect`] scope.
pub fn counter_add(name: &'static str, labels: &[(&'static str, &str)], n: u64) {
    SHARDS.with(|s| {
        if let Some(shard) = s.borrow_mut().last_mut() {
            shard.registry.add_counter(name, Labels::new(labels), n);
        }
    });
}

/// Set a gauge. A no-op outside a [`collect`] scope. Gauges merge by
/// maximum across shards; only record values that are pure functions of
/// the input (never e.g. thread counts), or determinism breaks.
pub fn gauge_set(name: &'static str, labels: &[(&'static str, &str)], value: i64) {
    SHARDS.with(|s| {
        if let Some(shard) = s.borrow_mut().last_mut() {
            shard.registry.set_gauge(name, Labels::new(labels), value);
        }
    });
}

/// Fold a histogram of observations into `name{labels}`: the same
/// capture as calling [`observe`] with each of its values. Lets a hot
/// loop sum its observations locally and record them once. A no-op
/// outside a [`collect`] scope.
pub fn merge_histogram(name: &'static str, labels: &[(&'static str, &str)], histogram: &Histogram) {
    SHARDS.with(|s| {
        if let Some(shard) = s.borrow_mut().last_mut() {
            shard.registry.merge_histogram(name, Labels::new(labels), histogram);
        }
    });
}

/// Record a histogram observation. A no-op outside a [`collect`] scope.
/// Observe deterministic quantities only (sizes, counts — not wall
/// time); the exported `metrics.json` has no nondeterministic mode.
pub fn observe(name: &'static str, labels: &[(&'static str, &str)], value: u64) {
    SHARDS.with(|s| {
        if let Some(shard) = s.borrow_mut().last_mut() {
            shard.registry.observe(name, Labels::new(labels), value);
        }
    });
}

/// An RAII span guard: measures monotonic time from creation to drop
/// and aggregates it into the active scope's span tree.
///
/// Guards must drop in LIFO order (the natural consequence of binding
/// them to lexical scopes) and must not be sent across threads.
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    active: bool,
    start: Instant,
}

/// Open an unlabelled span. See [`span!`] for the macro form.
pub fn span(name: &'static str) -> Span {
    span_labeled(name, &[])
}

/// Open a labelled span: the guard aggregates into the node identified
/// by `(name, labels)` under the currently open span.
pub fn span_labeled(name: &'static str, labels: &[(&'static str, &str)]) -> Span {
    let active = SHARDS.with(|s| {
        let mut shards = s.borrow_mut();
        match shards.last_mut() {
            Some(shard) => {
                let parent = shard.open.last().copied().unwrap_or(ROOT);
                let index = shard.child(parent, &(name, Labels::new(labels)));
                shard.open.push(index);
                true
            }
            None => false,
        }
    });
    Span { active, start: Instant::now() }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let elapsed = self.start.elapsed().as_nanos() as u64;
        SHARDS.with(|s| {
            let mut shards = s.borrow_mut();
            if let Some(shard) = shards.last_mut() {
                if let Some(index) = shard.open.pop() {
                    let node = &mut shard.nodes[index];
                    node.count += 1;
                    node.busy_ns += elapsed;
                }
            }
        });
    }
}

/// Open a span with optional labels:
///
/// ```
/// use govhost_obs as obs;
/// let ((), t) = obs::collect(|| {
///     let _crawl = obs::span!("crawl", country = "AR");
///     let _fetch = obs::span!("fetch");
/// });
/// assert_eq!(t.span_count("crawl"), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span_labeled($name, &[$((stringify!($key), $value)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_scope_leaves_no_shard_behind() {
        let ((), outer) = collect(|| {
            let caught = std::panic::catch_unwind(|| {
                collect(|| {
                    let _doomed = span("doomed");
                    counter_add("doomed", &[], 1);
                    panic!("the closure panics");
                })
            });
            assert!(caught.is_err());
            // Recorded after the panic: the enclosing scope's, not the
            // panicked one's.
            counter_add("after", &[], 1);
        });
        assert_eq!(outer.registry.counter_total("after"), 1);
        assert_eq!(outer.registry.counter_total("doomed"), 0);
        assert_eq!(outer.span_count("doomed"), 0);
        assert_eq!(SHARDS.with(|s| s.borrow().len()), 0, "the outer scope popped its own shard");

        let caught = std::panic::catch_unwind(|| collect(|| panic!("the closure panics")));
        assert!(caught.is_err());
        counter_add("stray", &[], 1);
        // No shard is left behind for the counter to land in: it is
        // dropped, as outside any scope.
        assert_eq!(SHARDS.with(|s| s.borrow().len()), 0);
    }

    #[test]
    fn recording_outside_a_scope_is_a_noop() {
        counter_add("orphan", &[], 1);
        let _s = span("orphan");
        let ((), t) = collect(|| {});
        assert!(t.is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let ((), t) = collect(|| {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
            }
            {
                let _inner = span!("inner");
            }
        });
        let outer = &t.root.children[&("outer", Labels::empty())];
        assert_eq!(outer.count, 1);
        let inner = &outer.children[&("inner", Labels::empty())];
        assert_eq!(inner.count, 2, "same key aggregates");
        assert_eq!(t.span_count("inner"), 2);
        assert!(t.span_busy("outer") >= t.span_busy("inner"));
    }

    #[test]
    fn nested_collect_shadows_the_outer_scope() {
        let ((), outer) = collect(|| {
            counter_add("outer.c", &[], 1);
            let ((), inner) = collect(|| counter_add("inner.c", &[], 5));
            assert_eq!(inner.registry.counter_total("inner.c"), 5);
            assert_eq!(inner.registry.counter_total("outer.c"), 0);
        });
        assert_eq!(outer.registry.counter_total("outer.c"), 1);
        assert_eq!(outer.registry.counter_total("inner.c"), 0, "inner shard was dropped");
    }

    #[test]
    fn absorb_grafts_at_the_captured_context() {
        let ((), t) = collect(|| {
            let _g = span!("geolocate");
            let ctx = context();
            // Simulate two worker shards produced in either order.
            let ((), shard_a) = collect(|| {
                let _s = span!("locate");
                counter_add("geoloc.tasks", &[], 2);
            });
            let ((), shard_b) = collect(|| {
                let _s = span!("locate");
                counter_add("geoloc.tasks", &[], 3);
            });
            absorb(shard_b, &ctx);
            absorb(shard_a, &ctx);
        });
        let geo = &t.root.children[&("geolocate", Labels::empty())];
        let locate = &geo.children[&("locate", Labels::empty())];
        assert_eq!(locate.count, 2, "worker spans grafted below the coordinator span");
        assert_eq!(t.registry.counter_total("geoloc.tasks"), 5);
    }

    #[test]
    fn absorb_order_does_not_change_the_capture() {
        let shard = |country: &str, n: u64| {
            let ((), t) = collect(|| {
                let _s = span_labeled("country", &[("country", country)]);
                counter_add("crawl.pages", &[("country", country)], n);
            });
            t
        };
        let (a, b, c) = (shard("AR", 1), shard("DE", 2), shard("US", 3));
        let fold = |order: [&Telemetry; 3]| {
            let mut t = Telemetry::new();
            for s in order {
                t.merge(s);
            }
            t
        };
        let abc = fold([&a, &b, &c]);
        let cba = fold([&c, &b, &a]);
        assert_eq!(abc, cba);
        assert_eq!(
            export::trace_json(&abc, TimeMode::Deterministic),
            export::trace_json(&cba, TimeMode::Deterministic)
        );
        assert_eq!(export::metrics_json(&abc), export::metrics_json(&cba));
    }

    #[test]
    fn threads_collect_independent_shards() {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let (_, t) = collect(|| {
                        let _s = span!("job");
                        counter_add("jobs", &[], 1);
                        i
                    });
                    t
                })
            })
            .collect();
        let mut total = Telemetry::new();
        for h in handles {
            total.merge(&h.join().expect("worker"));
        }
        assert_eq!(total.registry.counter_total("jobs"), 4);
        assert_eq!(total.span_count("job"), 4);
    }
}
