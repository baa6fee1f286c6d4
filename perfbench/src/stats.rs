//! Order statistics, digests and process accounting shared by every
//! workload.

/// Index of the `q`-quantile in a sorted sample of `n` values by the
/// nearest-rank rule: the smallest rank whose cumulative share reaches
/// `q`. `q` is clamped to `[0, 1]`; `n` must be positive.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The `q`-quantile of an ascending slice (nearest rank).
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[nearest_rank(sorted.len(), q)]
}

/// How many samples lie strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - nearest_rank(n, q)
}

/// The median of `values` (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Sub-buckets per power of two in a [`Histogram`]: a recorded value
/// reads back within 1/512 (0.2%) of itself.
const SUB_BITS: u32 = 9;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (32 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram of `u32` values (nanoseconds here): exact below
/// 512, then 512 equal buckets per power of two. Its size is fixed, so
/// recording a sample allocates nothing.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(value: u32) -> usize {
        if (value as usize) < SUB {
            return value as usize;
        }
        let octave = 31 - value.leading_zeros(); // >= SUB_BITS
        let shift = octave - SUB_BITS;
        (shift as usize + 1) * SUB + ((value >> shift) as usize - SUB)
    }

    /// The middle of bucket `index`'s value range.
    fn value(index: usize) -> f64 {
        if index < SUB {
            return index as f64;
        }
        let shift = (index / SUB - 1) as u32;
        let low = ((SUB + index % SUB) as u64) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, value: u32) {
        self.counts[Histogram::bucket(value)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile by the nearest-rank rule of [`percentile`].
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = nearest_rank(self.total as usize, q) as u64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen > rank {
                return Histogram::value(index);
            }
        }
        unreachable!("the rank lies within the recorded samples")
    }
}

/// FNV-1a over a sequence of byte strings, each followed by a `0xff`
/// separator so `["ab", "c"]` and `["a", "bc"]` differ.
pub fn fnv64<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in part.iter().chain(&[0xffu8]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// This process's peak resident set size in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.001), 1);
        assert_eq!(percentile(&sorted, 0.991), 100);
    }

    #[test]
    fn small_samples_round_up() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.9), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.0);
    }

    #[test]
    fn tail_counts_samples_beyond_the_rank() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(100_000, 0.99), 1000);
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn histogram_percentiles_match_sorted_samples() {
        let mut hist = Histogram::default();
        let mut samples: Vec<u32> = (0..10_000u32)
            .map(|i| 100 + i.wrapping_mul(2_654_435_761) % 200_000)
            .chain([u32::MAX, 0, 511, 512, 513])
            .collect();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.len(), samples.len() as u64);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            let exact = f64::from(percentile(&samples, q));
            let read = hist.percentile(q);
            assert!(
                (read - exact).abs() <= exact / 512.0,
                "q {q}: {read} vs {exact}"
            );
        }
        // Exact below 512, and every bucket reads back inside itself.
        for v in [0u32, 1, 511, 512, 1_023, 1_024, 6_130, 77_700, u32::MAX] {
            let read = Histogram::value(Histogram::bucket(v));
            assert!(
                (read - f64::from(v)).abs() <= f64::from(v) / 512.0,
                "{v}: {read}"
            );
        }
        let mut merged = Histogram::default();
        merged.merge(&hist);
        merged.merge(&hist);
        assert_eq!(merged.len(), 2 * hist.len());
        assert_eq!(merged.percentile(0.5), hist.percentile(0.5));
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(fnv64([&b"ab"[..], b"c"]), fnv64([&b"a"[..], b"bc"]));
        assert_eq!(fnv64([&b"x"[..]]), fnv64([&b"x"[..]]));
    }
}
