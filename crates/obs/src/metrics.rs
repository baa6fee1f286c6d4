//! The metrics registry: counters, gauges, and fixed-bucket histograms,
//! keyed by metric name plus a cardinality-bounded label set.
//!
//! Everything lives in `BTreeMap`s so iteration order — and therefore
//! exported JSON — is independent of insertion order. [`Registry::merge`]
//! is commutative and associative, which is what lets per-thread shards
//! be folded together in any order without changing the result.

use std::collections::BTreeMap;

/// Ceiling on distinct label sets per metric name within one registry
/// shard. Inserts beyond the ceiling collapse into [`Labels::overflow`]
/// instead of growing without bound (the guard against accidentally
/// labelling by URL or address). The pipeline's real label spaces —
/// country × cause/method/stage — stay far below this.
pub const MAX_SERIES_PER_METRIC: usize = 1024;

/// Ceiling on one label value's length, in bytes; longer values are
/// truncated at a character boundary.
pub const MAX_LABEL_VALUE_LEN: usize = 64;

/// Number of histogram buckets (powers of four: bucket 0 holds zeros,
/// bucket `i` holds values in `[4^(i-1), 4^i)`, the last bucket is
/// open-ended).
pub const HISTOGRAM_BUCKETS: usize = 17;

/// A sorted, de-duplicated set of `key=value` labels.
///
/// Label keys are `&'static str` (they come from instrumentation sites);
/// values are owned strings, truncated to [`MAX_LABEL_VALUE_LEN`]. Two
/// `Labels` built from the same pairs in any order compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Vec<(&'static str, String)>);

impl Labels {
    /// Build a label set from `(key, value)` pairs. Pairs are sorted by
    /// key; a repeated key keeps the last value.
    pub fn new(pairs: &[(&'static str, &str)]) -> Labels {
        let mut v: Vec<(&'static str, String)> =
            pairs.iter().map(|(k, val)| (*k, truncate_value(val))).collect();
        v.sort_by_key(|(k, _)| *k);
        v.dedup_by(|a, b| {
            if a.0 == b.0 {
                // `dedup_by` keeps `b` (the earlier element); overwrite it
                // with the later value so "last one wins" holds.
                b.1 = std::mem::take(&mut a.1);
                true
            } else {
                false
            }
        });
        Labels(v)
    }

    /// The empty label set.
    pub fn empty() -> Labels {
        Labels::default()
    }

    /// The sentinel label set that series beyond
    /// [`MAX_SERIES_PER_METRIC`] collapse into.
    pub fn overflow() -> Labels {
        Labels(vec![("overflow", "true".to_string())])
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(&'static str, String)] {
        &self.0
    }

    /// The value of one label key, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether no labels are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn truncate_value(v: &str) -> String {
    if v.len() <= MAX_LABEL_VALUE_LEN {
        return v.to_string();
    }
    let mut end = MAX_LABEL_VALUE_LEN;
    while !v.is_char_boundary(end) {
        end -= 1;
    }
    v[..end].to_string()
}

/// A fixed-bucket histogram over `u64` values.
///
/// Buckets are powers of four ([`HISTOGRAM_BUCKETS`] of them), so the
/// layout never depends on the data and [`Histogram::merge`] is a plain
/// element-wise sum — commutative and associative, with the empty
/// histogram as identity (`crates/obs/tests/prop_obs.rs` pins this over
/// arbitrary shard orders).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    /// `u64::MAX` until the first observation (so `merge` is `min`).
    min: u64,
    /// `0` until the first observation (so `merge` is `max`).
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    /// The empty histogram (the identity of [`Histogram::merge`]).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let bits = 64 - value.leading_zeros() as usize;
        bits.div_ceil(2).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The exclusive upper edge of bucket `i` (`None` for the open-ended
    /// last bucket).
    pub fn bucket_upper_edge(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some(4u64.pow(i as u32))
        }
    }

    /// Record one value.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed value (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of observed values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper edge of the
    /// bucket where the cumulative count crosses `q`, clamped to the
    /// observed `[min, max]` range. `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= target {
                let edge = Self::bucket_upper_edge(i).map_or(self.max, |e| e - 1);
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

type SeriesKey = (&'static str, Labels);

/// The metric store: three maps (counters, gauges, histograms) keyed by
/// `(name, labels)`.
///
/// Per-kind merge rules — counter: sum; gauge: max; histogram:
/// [`Histogram::merge`] — are all commutative and associative, so a
/// registry folded together from per-thread shards never depends on the
/// fold order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, i64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

/// Count the series already registered under `name`, and decide the key
/// a new series should use: the requested labels, or the overflow
/// sentinel once the per-metric ceiling is hit.
fn bounded_key<V>(map: &BTreeMap<SeriesKey, V>, name: &'static str, labels: Labels) -> SeriesKey {
    let key = (name, labels);
    if map.contains_key(&key) {
        return key;
    }
    let existing = map
        .range((name, Labels::empty())..)
        .take_while(|((n, _), _)| *n == name)
        .count();
    if existing >= MAX_SERIES_PER_METRIC {
        (name, Labels::overflow())
    } else {
        key
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Whether no series of any kind are registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `n` to the counter `name{labels}`.
    pub fn add_counter(&mut self, name: &'static str, labels: Labels, n: u64) {
        let key = bounded_key(&self.counters, name, labels);
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Register the counter `name{labels}` at zero without incrementing
    /// it. Expositions only render series that exist, so declaring a
    /// counter up front makes its zero visible — a meaningful signal
    /// for series like shed counts, where "0" and "never happened yet"
    /// must read differently from "not exported".
    pub fn declare_counter(&mut self, name: &'static str, labels: Labels) {
        self.add_counter(name, labels, 0);
    }

    /// Set the gauge `name{labels}` to `value` (merge keeps the max).
    pub fn set_gauge(&mut self, name: &'static str, labels: Labels, value: i64) {
        let key = bounded_key(&self.gauges, name, labels);
        self.gauges.insert(key, value);
    }

    /// Record `value` into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &'static str, labels: Labels, value: u64) {
        let key = bounded_key(&self.histograms, name, labels);
        self.histograms.entry(key).or_default().observe(value);
    }

    /// Fold a histogram of observations into `name{labels}`: the same
    /// registry as observing each of its values there one by one, so an
    /// empty histogram registers no series.
    pub fn merge_histogram(&mut self, name: &'static str, labels: Labels, histogram: &Histogram) {
        if histogram.count() == 0 {
            return;
        }
        let key = bounded_key(&self.histograms, name, labels);
        self.histograms.entry(key).or_default().merge(histogram);
    }

    /// Fold another registry into this one (sum counters, max gauges,
    /// merge histograms).
    pub fn merge(&mut self, other: &Registry) {
        for ((name, labels), v) in &other.counters {
            *self.counters.entry((name, labels.clone())).or_insert(0) += v;
        }
        for ((name, labels), v) in &other.gauges {
            let e = self.gauges.entry((name, labels.clone())).or_insert(i64::MIN);
            *e = (*e).max(*v);
        }
        for ((name, labels), h) in &other.histograms {
            self.histograms.entry((name, labels.clone())).or_default().merge(h);
        }
    }

    /// Sum of one counter across all its label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters_named(name).map(|(_, v)| v).sum()
    }

    /// Sum of one counter over the series whose labels contain every
    /// `(key, value)` pair in `filter`.
    pub fn counter_filtered(&self, name: &str, filter: &[(&str, &str)]) -> u64 {
        self.counters_named(name)
            .filter(|(labels, _)| filter.iter().all(|(k, v)| labels.get(k) == Some(*v)))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate one counter's `(labels, value)` series.
    pub fn counters_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a Labels, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |((n, _), _)| *n == name)
            .map(|((_, labels), v)| (labels, *v))
    }

    /// Iterate every counter as `(name, labels, value)`, sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &Labels, u64)> + '_ {
        self.counters.iter().map(|((n, l), v)| (*n, l, *v))
    }

    /// Iterate every gauge as `(name, labels, value)`, sorted.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &Labels, i64)> + '_ {
        self.gauges.iter().map(|((n, l), v)| (*n, l, *v))
    }

    /// Iterate every histogram as `(name, labels, histogram)`, sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Labels, &Histogram)> + '_ {
        self.histograms.iter().map(|((n, l), h)| (*n, l, h))
    }

    /// Look up one histogram.
    pub fn histogram(&self, name: &'static str, labels: &Labels) -> Option<&Histogram> {
        self.histograms.get(&(name, labels.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_counters_exist_at_zero_and_merge_cleanly() {
        let mut r = Registry::new();
        r.declare_counter("shed", Labels::empty());
        assert_eq!(r.counter_total("shed"), 0);
        assert_eq!(r.counters_named("shed").count(), 1, "the series exists");
        let mut other = Registry::new();
        other.add_counter("shed", Labels::empty(), 3);
        r.merge(&other);
        assert_eq!(r.counter_total("shed"), 3, "declaration does not skew merges");
    }

    #[test]
    fn labels_sort_and_dedup() {
        let a = Labels::new(&[("b", "2"), ("a", "1")]);
        let b = Labels::new(&[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.get("a"), Some("1"));
        let last_wins = Labels::new(&[("k", "first"), ("k", "second")]);
        assert_eq!(last_wins.get("k"), Some("second"));
        assert_eq!(last_wins.pairs().len(), 1);
    }

    #[test]
    fn label_values_truncate_at_char_boundaries() {
        let long = "é".repeat(100); // 2 bytes per char
        let l = Labels::new(&[("k", &long)]);
        let v = l.get("k").unwrap();
        assert!(v.len() <= MAX_LABEL_VALUE_LEN);
        assert!(!v.is_empty());
    }

    #[test]
    fn bucket_boundaries_are_powers_of_four() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(15), 2);
        assert_eq!(Histogram::bucket_index(16), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_equals_direct_observation() {
        let values = [0u64, 1, 7, 900, 65_536, 12, 4, 3];
        let mut direct = Histogram::new();
        for v in values {
            direct.observe(v);
        }
        let (left, right) = values.split_at(3);
        let mut a = Histogram::new();
        left.iter().for_each(|v| a.observe(*v));
        let mut b = Histogram::new();
        right.iter().for_each(|v| b.observe(*v));
        let mut merged = Histogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, direct);
        assert_eq!(merged.min(), 0);
        assert_eq!(merged.max(), 65_536);
    }

    #[test]
    fn percentile_is_bounded_by_observed_range() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.observe(v);
        }
        assert!(h.percentile(0.5) >= h.min());
        assert!(h.percentile(0.5) <= h.max());
        assert_eq!(h.percentile(1.0).max(h.percentile(0.99)), h.percentile(1.0));
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn registry_counters_sum_and_filter() {
        let mut r = Registry::new();
        r.add_counter("x", Labels::new(&[("country", "AR"), ("cause", "a")]), 2);
        r.add_counter("x", Labels::new(&[("country", "DE"), ("cause", "a")]), 3);
        r.add_counter("x", Labels::new(&[("country", "AR"), ("cause", "b")]), 5);
        r.add_counter("y", Labels::empty(), 100);
        assert_eq!(r.counter_total("x"), 10);
        assert_eq!(r.counter_filtered("x", &[("country", "AR")]), 7);
        assert_eq!(r.counter_filtered("x", &[("cause", "a")]), 5);
        assert_eq!(r.counter_filtered("x", &[("country", "AR"), ("cause", "b")]), 5);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mut a = Registry::new();
        a.add_counter("c", Labels::empty(), 1);
        a.set_gauge("g", Labels::empty(), 5);
        a.observe("h", Labels::empty(), 3);
        let mut b = Registry::new();
        b.add_counter("c", Labels::empty(), 2);
        b.set_gauge("g", Labels::empty(), 9);
        b.observe("h", Labels::empty(), 300);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter_total("c"), 3);
        assert_eq!(ab.gauges().next().unwrap().2, 9);
    }

    #[test]
    fn series_beyond_the_ceiling_collapse_into_overflow() {
        let mut r = Registry::new();
        let values: Vec<String> = (0..MAX_SERIES_PER_METRIC + 10).map(|i| i.to_string()).collect();
        for v in &values {
            r.add_counter("burst", Labels::new(&[("id", v)]), 1);
        }
        assert_eq!(r.counter_total("burst"), values.len() as u64);
        let overflowed = r.counter_filtered("burst", &[("overflow", "true")]);
        assert_eq!(overflowed, 10, "post-ceiling series share the sentinel");
    }
}
