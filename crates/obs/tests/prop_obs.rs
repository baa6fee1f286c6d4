//! Property tests for the telemetry merge algebra: histogram merge must
//! be associative and commutative with the empty histogram as identity,
//! over arbitrary shard contents and arbitrary shard orders — that is
//! the exact property the deterministic cross-thread telemetry contract
//! rests on (worker shards fold together in whatever grouping the
//! scheduler produced; the export must not care). And the recorder
//! itself: random programs of nested spans, metrics, nested collection
//! scopes and grafts must record exactly what a reference recorder that
//! walks each span's path from the root records. On the in-repo harness.

use govhost_harness::{gens, prop_assert_eq, Config, Gen};
use govhost_obs::{Histogram, Labels, Registry, SpanContext, SpanKey, SpanNode, Telemetry};

const REGRESSIONS: &str = "tests/regressions/prop_obs.txt";

fn cfg(name: &str) -> Config {
    Config::new(name).cases(192).regressions(REGRESSIONS)
}

/// Arbitrary observation shards: a few shards, each with a few values
/// spanning the full bucket range (zeros, small, huge).
fn arb_shards() -> Gen<Vec<Vec<u64>>> {
    let value = gens::one_of(vec![
        Gen::constant(0u64),
        gens::u64_range(1, 64),
        gens::u64_range(1, 1 << 20),
        gens::u64_any(),
    ]);
    gens::vec(gens::vec(value, 0, 12), 0, 6)
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for v in values {
        h.observe(*v);
    }
    h
}

#[test]
fn histogram_merge_is_commutative() {
    cfg("histogram_merge_is_commutative").run(
        &arb_shards().zip(gens::vec(gens::u64_any(), 0, 12)),
        |(shards, extra)| {
            let a = histogram_of(&shards.concat());
            let b = histogram_of(extra);
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba, "a+b == b+a");
            Ok(())
        },
    );
}

#[test]
fn histogram_merge_is_associative() {
    cfg("histogram_merge_is_associative").run(&arb_shards(), |shards| {
        let hs: Vec<Histogram> = shards.iter().map(|s| histogram_of(s)).collect();
        if hs.len() < 3 {
            return Ok(());
        }
        // ((h0 + h1) + h2) vs (h0 + (h1 + h2)), folded over all shards.
        let mut left = hs[0].clone();
        for h in &hs[1..] {
            left.merge(h);
        }
        let mut tail = hs[hs.len() - 1].clone();
        for h in hs[..hs.len() - 1].iter().rev() {
            let mut acc = h.clone();
            acc.merge(&tail);
            tail = acc;
        }
        prop_assert_eq!(&left, &tail, "left fold == right fold");
        Ok(())
    });
}

#[test]
fn empty_histogram_is_the_merge_identity() {
    cfg("empty_histogram_is_the_merge_identity").run(&arb_shards(), |shards| {
        let h = histogram_of(&shards.concat());
        let mut with_empty = h.clone();
        with_empty.merge(&Histogram::new());
        prop_assert_eq!(&with_empty, &h, "h + 0 == h");
        let mut empty_first = Histogram::new();
        empty_first.merge(&h);
        prop_assert_eq!(&empty_first, &h, "0 + h == h");
        Ok(())
    });
}

#[test]
fn merged_shards_equal_direct_observation_in_any_order() {
    cfg("merged_shards_equal_direct_observation_in_any_order").run(
        &arb_shards().zip(gens::u64_any()),
        |(shards, seed)| {
            let direct = histogram_of(&shards.concat());
            // Fold the shards in a seed-derived permutation.
            let mut order: Vec<usize> = (0..shards.len()).collect();
            let mut s = *seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            let mut merged = Histogram::new();
            for i in order {
                merged.merge(&histogram_of(&shards[i]));
            }
            prop_assert_eq!(&merged, &direct, "shard order is irrelevant");
            Ok(())
        },
    );
}

#[test]
fn registry_level_merge_is_shard_order_independent() {
    cfg("registry_level_merge_is_shard_order_independent").run(&arb_shards(), |shards| {
        let countries = ["AR", "BR", "DE", "FR", "US", "MX"];
        let shard_registry = |i: usize, values: &[u64]| {
            let mut r = Registry::new();
            let labels = Labels::new(&[("country", countries[i % countries.len()])]);
            for v in values {
                r.observe("page_bytes", labels.clone(), *v);
                r.add_counter("pages", labels.clone(), 1);
            }
            r
        };
        let registries: Vec<Registry> =
            shards.iter().enumerate().map(|(i, s)| shard_registry(i, s)).collect();
        let mut forward = Registry::new();
        for r in &registries {
            forward.merge(r);
        }
        let mut backward = Registry::new();
        for r in registries.iter().rev() {
            backward.merge(r);
        }
        prop_assert_eq!(&forward, &backward, "registry fold order is irrelevant");

        // And the whole-telemetry export is equally order-blind.
        let wrap = |r: &Registry| Telemetry { root: Default::default(), registry: r.clone() };
        prop_assert_eq!(
            govhost_obs::export::metrics_json(&wrap(&forward)),
            govhost_obs::export::metrics_json(&wrap(&backward)),
            "metrics.json bytes are fold-order independent"
        );
        Ok(())
    });
}

/// Where a nested scope's capture is grafted back.
#[derive(Debug, Clone, Copy)]
enum Graft {
    /// At [`govhost_obs::context`] right now.
    Current,
    /// At the context of the open span this many levels up (clamped at
    /// the root), while its descendants are still open.
    Ancestor(usize),
    /// At the context of the last sibling span that closed at this
    /// level (the current context when none has).
    ClosedSibling,
}

/// One step of a recording program.
#[derive(Debug)]
enum Op {
    /// Open a span (labelled when `Some`), run the body, close it.
    Span(&'static str, Option<&'static str>, Vec<Op>),
    Counter(&'static str, Option<&'static str>, u64),
    Observe(&'static str, u64),
    /// Fold a batch of observations in at once.
    ObserveAll(&'static str, Vec<u64>),
    /// Run the body in a nested `collect` and graft its capture back.
    Collect(Vec<Op>, Graft),
}

fn arb_program(depth: u32) -> Gen<Vec<Op>> {
    let name = || gens::select(vec!["a", "b", "c"]);
    let label = || gens::select(vec![None, Some("x"), Some("y")]);
    let value = gens::u64_range(0, 1 << 20);
    let mut ops = vec![
        name().zip(label()).zip(gens::u64_range(0, 9)).map(|((n, l), v)| Op::Counter(n, l, v)),
        name().zip(value.clone()).map(|(n, v)| Op::Observe(n, v)),
        name().zip(gens::vec(value, 0, 4)).map(|(n, vs)| Op::ObserveAll(n, vs)),
    ];
    if depth > 0 {
        let graft = gens::one_of(vec![
            Gen::constant(Graft::Current),
            gens::usize_range(1, 4).map(Graft::Ancestor),
            Gen::constant(Graft::ClosedSibling),
        ]);
        ops.push(
            gens::zip3(name(), label(), arb_program(depth - 1)).map(|(n, l, b)| Op::Span(n, l, b)),
        );
        ops.push(arb_program(depth - 1).zip(graft).map(|(b, g)| Op::Collect(b, g)));
    }
    gens::vec(gens::one_of(ops), 0, 5)
}

fn labels_of(label: Option<&'static str>) -> Vec<(&'static str, &'static str)> {
    label.map(|v| vec![("k", v)]).unwrap_or_default()
}

/// The context a [`Graft`] names, given the contexts captured at each
/// open span (root first) and at the last closed sibling.
fn graft_target<C: Clone>(graft: Graft, open: &[C], closed: &Option<C>, current: C) -> C {
    match graft {
        Graft::Current => current,
        Graft::Ancestor(k) => open[open.len() - 1 - k.min(open.len() - 1)].clone(),
        Graft::ClosedSibling => closed.clone().unwrap_or(current),
    }
}

/// Run a program against the real recorder.
fn run_real(ops: &[Op], open: &mut Vec<SpanContext>) {
    let mut closed = None;
    for op in ops {
        match op {
            Op::Span(name, label, body) => {
                let _span = govhost_obs::span_labeled(name, &labels_of(*label));
                open.push(govhost_obs::context());
                run_real(body, open);
                closed = open.pop();
            }
            Op::Counter(name, label, n) => govhost_obs::counter_add(name, &labels_of(*label), *n),
            Op::Observe(name, v) => govhost_obs::observe(name, &[], *v),
            Op::ObserveAll(name, values) => {
                let mut h = Histogram::new();
                values.iter().for_each(|v| h.observe(*v));
                govhost_obs::merge_histogram(name, &[], &h);
            }
            Op::Collect(body, graft) => {
                let ((), shard) =
                    govhost_obs::collect(|| run_real(body, &mut vec![SpanContext::root()]));
                let ctx = graft_target(*graft, open, &closed, govhost_obs::context());
                govhost_obs::absorb(shard, &ctx);
            }
        }
    }
}

/// The reference recorder: the span tree plus the path of open keys;
/// every open, close and graft walks the path from the root.
#[derive(Default)]
struct Reference {
    root: SpanNode,
    path: Vec<SpanKey>,
    registry: Registry,
}

fn node_at<'a>(mut node: &'a mut SpanNode, path: &[SpanKey]) -> &'a mut SpanNode {
    for key in path {
        node = node.children.entry(key.clone()).or_default();
    }
    node
}

impl Reference {
    fn run(&mut self, ops: &[Op], open: &mut Vec<Vec<SpanKey>>) {
        let mut closed = None;
        for op in ops {
            match op {
                Op::Span(name, label, body) => {
                    let key: SpanKey = (name, Labels::new(&labels_of(*label)));
                    node_at(&mut self.root, &self.path).children.entry(key.clone()).or_default();
                    self.path.push(key);
                    open.push(self.path.clone());
                    self.run(body, open);
                    closed = open.pop();
                    node_at(&mut self.root, &self.path).count += 1;
                    self.path.pop();
                }
                Op::Counter(name, label, n) => {
                    self.registry.add_counter(name, Labels::new(&labels_of(*label)), *n)
                }
                Op::Observe(name, v) => self.registry.observe(name, Labels::empty(), *v),
                Op::ObserveAll(name, values) => {
                    values.iter().for_each(|v| self.registry.observe(name, Labels::empty(), *v))
                }
                Op::Collect(body, graft) => {
                    let mut inner = Reference::default();
                    inner.run(body, &mut vec![Vec::new()]);
                    let path = graft_target(*graft, open, &closed, self.path.clone());
                    let at = node_at(&mut self.root, &path);
                    for (key, child) in &inner.root.children {
                        at.children.entry(key.clone()).or_default().merge(child);
                    }
                    self.registry.merge(&inner.registry);
                }
            }
        }
    }
}

fn zero_busy(node: &mut SpanNode) {
    node.busy_ns = 0;
    node.children.values_mut().for_each(zero_busy);
}

#[test]
fn recorder_matches_the_path_walking_reference() {
    cfg("recorder_matches_the_path_walking_reference").run(&arb_program(3), |program| {
        let ((), mut got) = govhost_obs::collect(|| run_real(program, &mut vec![SpanContext::root()]));
        zero_busy(&mut got.root);
        let mut want = Reference::default();
        want.run(program, &mut vec![Vec::new()]);
        prop_assert_eq!(got.root, want.root, "span tree");
        prop_assert_eq!(got.registry, want.registry, "registry");
        Ok(())
    });
}
