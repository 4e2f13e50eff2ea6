//! Counters and sim-time histograms for protocol instrumentation.
//!
//! A [`MetricsRegistry`] is a flat, name-keyed set of monotonic counters
//! and log-scale histograms. Protocol layers own one registry per replica
//! or client and record into it unconditionally — recording is a couple of
//! array/BTree operations on simulated quantities, cheap enough to stay on
//! all the time — while campaign and bench code aggregates registries with
//! [`MetricsRegistry::merge`], which is order-insensitive and therefore
//! deterministic regardless of how many workers produced the parts.

use crate::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of power-of-two buckets; covers the full `u64` range.
const BUCKETS: usize = 65;

/// A fixed-bucket log₂-scale histogram of `u64` samples (typically
/// nanoseconds of sim time or byte counts).
///
/// Bucket `i` holds samples whose value has `i` significant bits, i.e.
/// bucket 0 is exactly `{0}`, bucket 1 is `{1}`, bucket 2 is `{2,3}`,
/// bucket 3 is `{4..8}` and so on — fixed boundaries, so histograms from
/// different runs merge exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` (in `[0,1]`), or 0
    /// when empty. Log-bucket resolution: good for orders of magnitude,
    /// not exact ranks.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Largest value with i significant bits.
                return if i == 0 { 0 } else { (u64::MAX >> (BUCKETS - 1 - i)).max(1) };
            }
        }
        self.max
    }

    /// Adds `other`'s samples into `self` (exact: buckets are fixed).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A named set of counters and histograms.
///
/// Names are usually `&'static str` literals by convention
/// (`"replica.batch_occupancy"`, `"client.request_latency_ns"`), but any
/// `Into<String>` works — multi-group aggregation namespaces registries
/// with computed prefixes like `"s1.replica2."`
/// ([`MetricsRegistry::merge_prefixed`]). `BTreeMap` keys keep every
/// iteration — and therefore every JSON export — deterministically
/// ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to counter `name`.
    pub fn inc(&mut self, name: impl Into<String> + AsRef<str>) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`. Looks the name up borrowed: only the
    /// first touch of a name allocates its key.
    pub fn add(&mut self, name: impl Into<String> + AsRef<str>, n: u64) {
        match self.counters.get_mut(name.as_ref()) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(name.into(), n);
            }
        }
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into histogram `name` (allocation as in
    /// [`MetricsRegistry::add`]).
    pub fn observe(&mut self, name: impl Into<String> + AsRef<str>, value: u64) {
        match self.histograms.get_mut(name.as_ref()) {
            Some(h) => h.observe(value),
            None => self.histograms.entry(name.into()).or_default().observe(value),
        }
    }

    /// Records a sim-duration sample (in nanoseconds) into `name`.
    pub fn observe_duration(&mut self, name: impl Into<String> + AsRef<str>, d: SimDuration) {
        self.observe(name, d.as_nanos());
    }

    /// The histogram named `name`, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Adds every counter and histogram of `other` into `self`.
    /// Commutative and associative, so parallel campaign workers can merge
    /// in any grouping and the result is identical.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Adds every counter and histogram of `other` into `self` under
    /// `prefix` (e.g. `"s1.replica2."` for shard 1's replica 2), so merged
    /// multi-group registries cannot collide: the same protocol metric from
    /// two replica groups lands under two distinct names instead of summing
    /// silently. As with [`MetricsRegistry::merge`], prefixed merges are
    /// order-insensitive — any interleaving of sources yields the same
    /// registry.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(format!("{prefix}{name}")).or_default() += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(format!("{prefix}{name}")).or_default().merge(h);
        }
    }

    /// Deterministic single-line JSON rendering (name-ordered).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\
                 \"p999\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.999)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_have_fixed_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 2);
        assert!(h.quantile(1.0) >= 100);
    }

    #[test]
    fn quantile_from_buckets_is_exact_per_bucket() {
        // 90 samples in the [4,7] bucket and 10 in the [512,1023] bucket:
        // the quantile helper must return each bucket's upper bound at the
        // exact rank boundaries (rank = ceil(q * count), minimum 1).
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(4);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        assert_eq!(h.quantile(0.0), 7, "rank clamps to 1: first bucket's bound");
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.90), 7, "rank 90 is still inside the first bucket");
        assert_eq!(h.quantile(0.91), 1023, "rank 91 crosses into the tail bucket");
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);

        // Boundary buckets: zero lands in bucket 0 (bound 0); an empty
        // histogram reports 0 everywhere.
        let mut z = Histogram::default();
        z.observe(0);
        assert_eq!(z.quantile(1.0), 0);
        assert_eq!(Histogram::default().quantile(0.99), 0);

        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-1.0), 7);
        assert_eq!(h.quantile(2.0), 1023);
    }

    #[test]
    fn p999_from_buckets_is_exact_at_the_rank_boundary() {
        // 999 samples in the [4,7] bucket plus one tail sample: rank
        // ceil(0.999 * 1000) = 999 is the last sample still inside the
        // first bucket, so p999 reports that bucket's upper bound.
        let mut h = Histogram::default();
        for _ in 0..999 {
            h.observe(4);
        }
        h.observe(1000);
        assert_eq!(h.quantile(0.999), 7);
        // One more tail sample shifts rank 1000 across the boundary: with
        // 998 + 2 the 0.999 rank lands in the [512,1023] bucket.
        let mut h = Histogram::default();
        for _ in 0..998 {
            h.observe(4);
        }
        h.observe(1000);
        h.observe(1000);
        assert_eq!(h.quantile(0.999), 1023);
        // p999 shows up in the JSON rendering.
        let mut m = MetricsRegistry::new();
        m.observe("lat", 4);
        assert!(m.to_json().contains("\"p999\":7"), "{}", m.to_json());
    }

    #[test]
    fn quantile_is_merge_invariant() {
        // Splitting the same samples across two histograms and merging
        // yields the same bucket quantiles as observing them in one.
        let samples = [3u64, 9, 17, 170, 9_000, 64_000, 1_000_000];
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, &s) in samples.iter().enumerate() {
            whole.observe(s);
            if i % 2 == 0 { left.observe(s) } else { right.observe(s) }
        }
        left.merge(&right);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_is_exact_and_order_insensitive() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("x");
        a.observe("h", 7);
        b.add("x", 2);
        b.observe("h", 900);
        b.inc("y");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.counter("y"), 1);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn prefixed_merge_namespaces_and_is_order_insensitive() {
        // Two replica groups report the same protocol metric names; a shard
        // aggregator must keep them apart and must not depend on which
        // group's registry arrives first.
        let mut s0r1 = MetricsRegistry::new();
        s0r1.add("replica.commits", 5);
        s0r1.observe("replica.batch_occupancy", 3);
        let mut s1r1 = MetricsRegistry::new();
        s1r1.add("replica.commits", 9);
        s1r1.observe("replica.batch_occupancy", 4);

        let mut fwd = MetricsRegistry::new();
        fwd.merge_prefixed("s0.replica1.", &s0r1);
        fwd.merge_prefixed("s1.replica1.", &s1r1);
        let mut rev = MetricsRegistry::new();
        rev.merge_prefixed("s1.replica1.", &s1r1);
        rev.merge_prefixed("s0.replica1.", &s0r1);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_json(), rev.to_json());

        // No silent summing across groups.
        assert_eq!(fwd.counter("s0.replica1.replica.commits"), 5);
        assert_eq!(fwd.counter("s1.replica1.replica.commits"), 9);
        assert_eq!(fwd.counter("replica.commits"), 0);
        assert_eq!(
            fwd.histogram("s1.replica1.replica.batch_occupancy")
                .unwrap()
                .count(),
            1
        );

        // Prefixed merge with the same prefix still accumulates exactly.
        let mut again = fwd.clone();
        again.merge_prefixed("s0.replica1.", &s0r1);
        assert_eq!(again.counter("s0.replica1.replica.commits"), 10);
    }

    #[test]
    fn json_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.inc("zeta");
        m.inc("alpha");
        let j = m.to_json();
        assert!(j.find("alpha").unwrap() < j.find("zeta").unwrap(), "{j}");
    }
}
