//! Deterministic, mergeable distribution metrics.
//!
//! End-of-run sums ([`crate::JobStats`], [`crate::OpCounters`]) answer *how
//! much*; this module answers *how it was distributed* — task-duration
//! tails, shuffle partition skew, record sizes, β-unnest group widths —
//! without giving up the engine's core invariant: **worker-count
//! determinism**. A [`Histogram`] has fixed power-of-two bucket boundaries
//! and integer state only, so merging per-task histograms in any grouping
//! or order produces bit-identical results, and quantile queries are pure
//! functions of the merged state. The same holds across fault regimes:
//! recording happens on the deterministic data plane (records, bytes,
//! group widths) and on fault-free cost-model phase times, never on
//! wall-clock measurements.
//!
//! ## Bucket scheme
//!
//! Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i − 1]` (i.e. `bucket(v) = 64 − v.leading_zeros()`); 65
//! buckets cover the full `u64` range. Boundaries are fixed — they never
//! adapt to the data — which is what makes merge commutative/associative
//! bucket-wise and quantiles independent of merge order. Relative quantile
//! error is bounded by the bucket width: a reported quantile is the
//! bucket's inclusive upper bound (clamped to the recorded maximum), at
//! most 2× the true value.
//!
//! A [`MetricsRegistry`] keys histograms by `&'static str` metric names
//! (the [`name`] module), mirroring how [`crate::OpCounters`] keys sums.

use crate::trace::JsonObject;
use std::collections::BTreeMap;

/// Metric-name constants recorded by the engine. Operator layers (e.g.
/// `ntga-core`) declare their own names next to their counter names.
pub mod name {
    /// Per-map-task cost-model duration, in rounded microseconds.
    pub const TASK_MAP_MICROS: &str = "task.map.micros";
    /// Per-reduce-task cost-model duration, in rounded microseconds.
    pub const TASK_REDUCE_MICROS: &str = "task.reduce.micros";
    /// Shuffle text bytes routed to one reduce partition.
    pub const SHUFFLE_PARTITION_BYTES: &str = "shuffle.partition.bytes";
    /// Encoded (wire) size of one shuffled record, key + value bytes.
    pub const RECORD_SHUFFLE_BYTES: &str = "record.shuffle.bytes";
    /// Number of values in one reduce group (reduce-side key fanout).
    pub const REDUCE_GROUP_WIDTH: &str = "reduce.group.width";
    /// Entries in one map-side-sorted spill bucket (one sorted run).
    /// Recorded only under the radix strategy, which sorts map-side.
    ///
    /// Sort-work histograms record deterministic quantities (entries,
    /// runs), not wall-clock time: profiling output must stay bit-
    /// identical across worker counts and fault regimes, and wall-clock
    /// is neither. Wall-clock sort time lives in the `sort_only`
    /// Criterion bench instead.
    pub const SORT_MAP_RUN_ENTRIES: &str = "sort.map.run.entries";
    /// Index entries one reduce partition brings into canonical order
    /// (by k-way merge or full sort; see `SORT_MAP_RUN_ENTRIES` for why
    /// this is work, not time).
    pub const SORT_REDUCE_ENTRIES: &str = "sort.reduce.entries";
    /// Sorted runs available to one reduce partition's k-way merge
    /// (0 under the comparison strategy: nothing arrives sorted).
    pub const SORT_MERGE_RUNS: &str = "sort.merge.runs";
}

/// Number of buckets: one for 0, one per power of two up to `2^63`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value (see the module docs for the scheme).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the value a quantile in that
/// bucket reports, before clamping to the recorded max).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-boundary log2 histogram over `u64` values.
///
/// All state is integral and all boundaries are fixed, so `merge` is
/// commutative and associative and two histograms built from the same
/// multiset of values — in any recording order, via any merge tree — are
/// bit-identical. See the module docs for the determinism argument.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The fixed 65-bucket array is noise in `{:?}` dumps (and in the
        // engine's determinism tests, which compare `format!("{stats:?}")`);
        // the summary fields pin the distribution just as hard.
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min_or_zero())
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .finish()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration in seconds as rounded non-negative microseconds
    /// (the resolution task-duration metrics use; negative and non-finite
    /// inputs clamp to 0).
    #[inline]
    pub fn record_seconds(&mut self, seconds: f64) {
        let micros = seconds * 1e6;
        self.record(if micros.is_finite() && micros > 0.0 { micros.round() as u64 } else { 0 });
    }

    /// Fold another histogram in. Commutative and associative.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as the upper bound of the bucket
    /// holding the value of rank `⌈q·count⌉`, clamped to the recorded
    /// max — a deterministic integer computation with ≤ 2× relative error.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // rank in 1..=count, computed in integers: ceil(q * count) via
        // rounding the (exactly representable for any realistic count)
        // f64 product up.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`Histogram::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Histogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Iterate the non-empty buckets as `(bucket upper bound, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (bucket_upper(i), n))
    }

    /// Render as a JSON object: summary fields plus the sparse bucket list
    /// (`[[upper_bound, count], ...]`).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("count", self.count);
        o.u64("sum", self.sum);
        o.u64("min", self.min_or_zero());
        o.u64("max", self.max);
        o.u64("p50", self.p50());
        o.u64("p95", self.p95());
        o.u64("p99", self.p99());
        let pair = |(upper, n): (u64, u64)| JsonObject::array([upper.to_string(), n.to_string()]);
        o.raw("buckets", &JsonObject::array(self.buckets().map(pair)));
        o.finish()
    }
}

/// A registry of named [`Histogram`]s, keyed like [`crate::OpCounters`]
/// (static metric names, `BTreeMap` for deterministic iteration and
/// rendering order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value into the named histogram.
    #[inline]
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.metrics.entry(name).or_default().record(v);
    }

    /// Record a duration in seconds (see [`Histogram::record_seconds`]).
    #[inline]
    pub fn record_seconds(&mut self, name: &'static str, seconds: f64) {
        self.metrics.entry(name).or_default().record_seconds(seconds);
    }

    /// The named histogram, if anything was recorded under it.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.metrics.get(name)
    }

    /// Fold another registry in, histogram-by-histogram.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, h) in &other.metrics {
            self.metrics.entry(name).or_default().merge(h);
        }
    }

    /// True when no histogram has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate `(name, histogram)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.metrics.iter().map(|(k, v)| (*k, v))
    }

    /// Render as one JSON object mapping metric names to
    /// [`Histogram::to_json`] objects.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (name, h) in self.iter() {
            o.raw(name, &h.to_json());
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_json;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's upper bound maps back into that bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn summary_fields_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.p50(), h.p99(), h.max(), h.min_or_zero()), (0, 0, 0, 0));
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min_or_zero(), 0);
        assert_eq!(h.max(), 1000);
        // rank(0.5 * 6) = 3 -> third value (2), bucket [2,3] -> upper 3.
        assert_eq!(h.p50(), 3);
        // p99 -> rank 6 -> bucket [512,1023], clamped to max 1000.
        assert_eq!(h.p99(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_upper_bound_is_at_most_double() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.5f64, 0.9, 0.95, 0.99, 1.0] {
            let true_v = (q * 10_000.0).ceil() as u64;
            let est = h.quantile(q);
            assert!(est >= true_v, "q={q}: {est} < true {true_v}");
            assert!(est < true_v * 2, "q={q}: {est} >= 2x true {true_v}");
        }
    }

    #[test]
    fn merge_is_order_invariant_and_matches_single_recorder() {
        let values: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9e37_79b9) % 10_000).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        // Split into 1, 4 and 8 shards, merge in forward and reverse order.
        for shards in [1usize, 4, 8] {
            let mut parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                parts[i % shards].record(v);
            }
            for reverse in [false, true] {
                let mut merged = Histogram::new();
                let order: Vec<&Histogram> =
                    if reverse { parts.iter().rev().collect() } else { parts.iter().collect() };
                for p in order {
                    merged.merge(p);
                }
                assert_eq!(merged, whole, "shards={shards} reverse={reverse}");
                assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
            }
        }
    }

    #[test]
    fn record_seconds_rounds_micros() {
        let mut h = Histogram::new();
        h.record_seconds(1.5); // 1_500_000 us
        h.record_seconds(0.0000004); // rounds to 0
        h.record_seconds(-3.0); // clamps to 0
        h.record_seconds(f64::NAN); // clamps to 0
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1_500_000);
        assert_eq!(h.min_or_zero(), 0);
    }

    #[test]
    fn registry_records_merges_and_renders() {
        let mut a = MetricsRegistry::new();
        assert!(a.is_empty());
        a.record(name::REDUCE_GROUP_WIDTH, 3);
        a.record(name::REDUCE_GROUP_WIDTH, 5);
        a.record_seconds(name::TASK_MAP_MICROS, 0.25);
        let mut b = MetricsRegistry::new();
        b.record(name::REDUCE_GROUP_WIDTH, 7);
        a.merge(&b);
        assert_eq!(a.get(name::REDUCE_GROUP_WIDTH).unwrap().count(), 3);
        assert_eq!(a.get(name::TASK_MAP_MICROS).unwrap().max(), 250_000);
        assert!(a.get("no.such.metric").is_none());
        assert_eq!(a.iter().count(), 2);
        let json = a.to_json();
        validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"reduce.group.width\""), "{json}");
        assert!(json.contains("\"buckets\":[["), "{json}");
        assert_eq!(MetricsRegistry::new().to_json(), "{}");
    }

    #[test]
    fn histogram_json_is_valid_and_sparse() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(9);
        h.record(9);
        let json = h.to_json();
        validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        // Bucket 0 (upper 0, count 1) and bucket [8,15] (upper 15, count 2).
        assert!(json.contains("\"buckets\":[[0,1],[15,2]]"), "{json}");
        assert!(json.contains("\"count\":3"), "{json}");
    }
}
