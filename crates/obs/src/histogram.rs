//! Log-bucketed latency histogram for tail-latency reporting.
//!
//! Extracted from `tstorm::metrics` so every crate in the workspace — the
//! stream runtime, the stores, the serving layer — records into the same
//! histogram type and their snapshots merge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution bits: 32 linear sub-buckets per power of two,
/// bounding relative quantile error at ~3%.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Enough buckets to cover the full `u64` nanosecond range.
pub(crate) const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

#[inline]
fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS as u64 {
        nanos as usize
    } else {
        let msb = 63 - nanos.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((nanos >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }
}

/// Lower bound in nanoseconds of the bucket at `index`.
#[inline]
fn bucket_floor(index: usize) -> u64 {
    let exp = (index / SUB_BUCKETS) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    if exp == 0 {
        sub
    } else {
        (SUB_BUCKETS as u64 + sub) << (exp - 1)
    }
}

/// A log-bucketed latency histogram: powers of two split into 32 linear
/// sub-buckets (HdrHistogram-style), so any recorded duration lands in a
/// bucket within ~3% of its true value while the whole structure is a
/// flat array of counters.
///
/// Recording is wait-free (one relaxed atomic increment), so one
/// histogram can be shared by every worker thread of a server; snapshots
/// are consistent enough for monitoring and [`LatencySnapshot::merge`]
/// combines per-thread or per-shard histograms into one distribution —
/// percentiles of merged histograms are exact over the merged buckets,
/// unlike averaging per-thread percentiles.
///
/// The unit is nominally nanoseconds, but nothing in the structure assumes
/// time: the same type records dimensionless values (batch sizes, queue
/// lengths) with the same ~3% relative bucketing.
pub struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LatencyHistogram {
            counts: counts.into_boxed_slice(),
            total: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("total", &self.total.load(Ordering::Relaxed))
            .field("max_nanos", &self.max_nanos.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        self.record_nanos(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one observation in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.counts[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records `n` identical observations with one increment per counter
    /// (the bulk path for batched executes).
    pub fn record_nanos_n(&self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(nanos)].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(nanos.saturating_mul(n), Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a batch of `(nanos, n)` pairs, each `n` identical
    /// observations, with one atomic add per touched bucket and one each
    /// for the count, the sum and the max: the flush of a caller that
    /// gathered its observations locally. Sorts `samples` in place.
    pub fn record_batch(&self, samples: &mut [(u64, u64)]) {
        samples.sort_unstable_by_key(|&(nanos, _)| nanos);
        let (mut total, mut sum, mut max) = (0u64, 0u64, 0u64);
        // The bucket being counted and its count so far: sorted values
        // visit each bucket in one stretch.
        let mut open = (0usize, 0u64);
        for &(nanos, n) in samples.iter().filter(|&&(_, n)| n > 0) {
            total += n;
            sum = sum.wrapping_add(nanos.saturating_mul(n));
            max = nanos;
            let bucket = bucket_index(nanos);
            if bucket != open.0 && open.1 > 0 {
                self.counts[open.0].fetch_add(open.1, Ordering::Relaxed);
                open.1 = 0;
            }
            open = (bucket, open.1 + n);
        }
        if total == 0 {
            return;
        }
        self.counts[open.0].fetch_add(open.1, Ordering::Relaxed);
        self.total.fetch_add(total, Ordering::Relaxed);
        self.sum_nanos.fetch_add(sum, Ordering::Relaxed);
        self.max_nanos.fetch_max(max, Ordering::Relaxed);
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            total: self.total.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`LatencyHistogram`], mergeable across threads,
/// shards or processes (the serve crate ships these over the wire).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl LatencySnapshot {
    /// Rebuilds a snapshot from sparse `(bucket, count)` pairs plus the
    /// scalar tallies (the wire representation).
    ///
    /// The bucket counts are authoritative: a peer whose scalar tallies
    /// disagree with its own buckets (torn frame, buggy sender) must not
    /// yield a snapshot whose quantile walk contradicts its `count()`.
    /// Out-of-range bucket indices clamp into the last bucket instead of
    /// silently dropping observations, `total` is re-derived from the
    /// buckets, and `sum_nanos`/`max_nanos` are raised to the minimum the
    /// buckets prove.
    pub fn from_parts(sparse: &[(u32, u64)], _total: u64, sum_nanos: u64, max_nanos: u64) -> Self {
        let mut counts = vec![0u64; BUCKETS];
        for &(index, count) in sparse {
            counts[(index as usize).min(BUCKETS - 1)] += count;
        }
        let total = counts.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
        if total == 0 {
            return LatencySnapshot {
                counts,
                total: 0,
                sum_nanos: 0,
                max_nanos: 0,
            };
        }
        let top = counts
            .iter()
            .rposition(|&c| c > 0)
            .expect("total > 0 implies an occupied bucket");
        let floor_sum = counts.iter().enumerate().fold(0u64, |acc, (i, &c)| {
            acc.saturating_add(c.saturating_mul(bucket_floor(i)))
        });
        LatencySnapshot {
            counts,
            total,
            sum_nanos: sum_nanos.max(floor_sum),
            max_nanos: max_nanos.max(bucket_floor(top)),
        }
    }

    /// Non-zero `(bucket, count)` pairs (the wire representation).
    pub fn sparse_counts(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded latencies in nanoseconds (exact, for wire
    /// transport via [`LatencySnapshot::from_parts`]).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Largest recorded latency in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.checked_div(self.total).unwrap_or(0))
    }

    /// Largest recorded latency (exact, not bucketed).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The latency at quantile `q` in `[0, 1]` (bucket lower bound, so
    /// within ~3% below the true value); zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile_nanos(q))
    }

    /// [`LatencySnapshot::quantile`] in raw nanosecond units, for
    /// histograms recording dimensionless values.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        self.max_nanos
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 90th percentile latency.
    pub fn p90(&self) -> Duration {
        self.quantile(0.90)
    }

    /// 99th percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Adds `other`'s observations into this snapshot. Snapshots with
    /// mismatched bucket-array lengths (e.g. an empty
    /// [`LatencySnapshot::default`] accumulator) merge by extending to the
    /// longer array instead of silently truncating the tail.
    pub fn merge(&mut self, other: &LatencySnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// `p50/p90/p99/max` on one line, for experiment output.
    pub fn format_percentiles(&self) -> String {
        format!(
            "p50 {:?}  p90 {:?}  p99 {:?}  max {:?}",
            self.p50(),
            self.p90(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_tight() {
        let mut last = (0u64, 0usize); // (probe, index)
        for shift in 0..60 {
            let v = 1u64 << shift;
            for probe in [v, v + 1, v * 3 / 2] {
                let idx = bucket_index(probe);
                if probe >= last.0 {
                    assert!(idx >= last.1, "monotone at {probe}");
                    last = (probe, idx);
                }
                let floor = bucket_floor(idx);
                assert!(floor <= probe, "floor {floor} > value {probe}");
                // Relative error bound: bucket width / floor <= 1/16.
                if probe >= SUB_BUCKETS as u64 {
                    assert!(
                        (probe - floor) as f64 / probe as f64 <= 1.0 / 16.0,
                        "bucket too wide at {probe}: floor {floor}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record(Duration::from_micros(micros));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        let p50 = snap.p50().as_micros() as f64;
        let p99 = snap.p99().as_micros() as f64;
        assert!((450.0..=510.0).contains(&p50), "p50 = {p50}");
        assert!((930.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert_eq!(snap.max(), Duration::from_millis(1));
        let mean = snap.mean().as_micros();
        assert!((480..=520).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn a_batch_records_what_single_records_do() {
        let mut samples = vec![
            (900, 2),
            (5, 1),
            (1_000_000, 3),
            (7, 0),
            (901, 1),
            (5, 4),
            (u64::MAX / 2, 1),
        ];
        let single = LatencyHistogram::new();
        for &(nanos, n) in &samples {
            single.record_nanos_n(nanos, n);
        }
        let batched = LatencyHistogram::new();
        batched.record_batch(&mut samples);
        assert_eq!(batched.snapshot(), single.snapshot());
        batched.record_batch(&mut []);
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let combined = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = (i * 7919) % 100_000 + 1;
            if i % 2 == 0 {
                a.record_nanos(v);
            } else {
                b.record_nanos(v);
            }
            combined.record_nanos(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn merge_into_default_accumulator() {
        // A `Default` snapshot has an empty bucket array; merging a real
        // snapshot into it must not silently drop every bucket.
        let h = LatencyHistogram::new();
        for v in [10u64, 1_000, 50_000] {
            h.record_nanos(v);
        }
        let snap = h.snapshot();
        let mut acc = LatencySnapshot::default();
        acc.merge(&snap);
        assert_eq!(acc, snap);
    }

    #[test]
    fn sparse_roundtrip() {
        let h = LatencyHistogram::new();
        for v in [1u64, 40, 1_000, 1_000_000, 12_345_678_901] {
            h.record_nanos(v);
        }
        let snap = h.snapshot();
        let rebuilt = LatencySnapshot::from_parts(
            &snap.sparse_counts(),
            snap.count(),
            snap.sum_nanos,
            snap.max_nanos,
        );
        assert_eq!(rebuilt, snap);
        assert!(snap.sparse_counts().len() <= 5);
    }

    #[test]
    fn from_parts_clamps_malformed_wire_input() {
        // Out-of-range bucket index lands in the last bucket rather than
        // vanishing.
        let snap = LatencySnapshot::from_parts(&[(u32::MAX, 3)], 0, 0, 0);
        assert_eq!(snap.count(), 3, "clamped observations are kept");
        // Scalars inconsistent with the buckets are derived/raised: one
        // observation in the 1000ns bucket proves count>=1, sum>=floor,
        // max>=floor.
        let idx = {
            let h = LatencyHistogram::new();
            h.record_nanos(1000);
            h.snapshot().sparse_counts()[0].0
        };
        let snap = LatencySnapshot::from_parts(&[(idx, 2)], 99, 0, 0);
        assert_eq!(snap.count(), 2, "total derived from buckets");
        assert!(snap.sum_nanos() >= 2 * bucket_floor(idx as usize));
        assert!(snap.max_nanos() >= bucket_floor(idx as usize));
        // Quantiles stay internally consistent.
        assert!(snap.quantile(1.0) >= Duration::from_nanos(bucket_floor(idx as usize)));
    }

    #[test]
    fn empty_histogram_zero_quantiles() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.quantile(0.99), Duration::ZERO);
        assert_eq!(snap.mean(), Duration::ZERO);
        assert_eq!(snap.count(), 0);
    }
}
