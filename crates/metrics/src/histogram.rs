//! The workspace's one histogram: integer values, log-linear buckets.
//!
//! Runtime query latency, batch sizes, the scheduler's planning wall time
//! and every SLO window record into [`Histogram`]. Values are `u64`s —
//! nanoseconds for latencies, plain counts for sizes — so bucket edges,
//! the sum and every quantile are exact integers, and two histograms fed
//! the same values are equal no matter which thread or shard recorded them.
//!
//! Layout: values below 16 get one bucket each; above that every octave
//! `[2^e, 2^(e+1))` splits into 8 equal-width buckets, so a bucket is at
//! most 1/8 of its lower edge wide. 496 buckets cover all of `u64`, and the
//! bucket array is allocated on the first observation, so an empty
//! histogram costs no more than its three words.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Values below this get an exact bucket each.
const EXACT: usize = 2 * SUBS;
/// Buckets covering `0..=u64::MAX`.
const BUCKETS: usize = EXACT + (64 - 1 - SUB_BITS as usize) * SUBS;

/// Recorded nanoseconds per exported second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Saturating atomic add: `dst += n`, clamping at `u64::MAX` instead of
/// wrapping. Merging counters from many shards must never wrap a total.
pub(crate) fn sat_add(dst: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    // fetch_update with a pure closure never fails permanently under Relaxed.
    let _ = dst.fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_add(n)));
}

/// The bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let shift = octave - SUB_BITS;
    // `v >> shift` is in [SUBS, 2 * SUBS): the octave's sub-bucket plus SUBS.
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// The inclusive value range `(lo, hi)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < EXACT {
        return (i as u64, i as u64);
    }
    let shift = (i >> SUB_BITS) - 1;
    let lo = ((SUBS + (i & (SUBS - 1))) as u64) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// An integer log-linear histogram with atomic counts.
///
/// One update is two relaxed atomic adds, so worker threads record without
/// coordination. `scale` is the number of recorded units per exported unit:
/// [`NANOS_PER_SEC`] for latencies (exported in seconds), 1 for sizes.
#[derive(Debug)]
pub struct Histogram {
    scale: u64,
    buckets: OnceLock<Box<[AtomicU64]>>,
    /// Exact sum of all observations, saturating at `u64::MAX`.
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::nanos()
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let copy = Self::with_scale(self.scale);
        if let Some(src) = self.buckets.get() {
            let _ = copy.buckets.set(src.iter().map(|n| AtomicU64::new(n.load(Relaxed))).collect());
        }
        copy.sum.store(self.sum(), Relaxed);
        copy
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.scale == other.scale
            && self.sum() == other.sum()
            && self.cumulative_buckets() == other.cumulative_buckets()
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram of nanosecond latencies, exported in seconds.
    pub fn nanos() -> Self {
        Self::with_scale(NANOS_PER_SEC)
    }

    /// An empty histogram of dimensionless counts (e.g. batch sizes).
    pub fn counts() -> Self {
        Self::with_scale(1)
    }

    fn with_scale(scale: u64) -> Self {
        Self { scale, buckets: OnceLock::new(), sum: AtomicU64::new(0) }
    }

    /// Every bucket's count in order; empty before the first record.
    fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.buckets.get().map_or(&[][..], |b| &b[..]).iter().map(|n| n.load(Relaxed))
    }

    fn slots(&self) -> &[AtomicU64] {
        self.buckets.get_or_init(|| (0..BUCKETS).map(|_| AtomicU64::new(0)).collect())
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.slots()[bucket_of(value)].fetch_add(1, Relaxed);
        sat_add(&self.sum, value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.bucket_counts().fold(0u64, u64::saturating_add)
    }

    /// Exact sum of all observations, in recorded units.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// `value` (in recorded units) in exported units: seconds for a
    /// nanosecond histogram, unchanged for counts.
    pub fn to_unit(&self, value: u64) -> f64 {
        value as f64 / self.scale as f64
    }

    /// [`Histogram::sum`] in exported units (seconds for latencies, the
    /// plain total for counts).
    pub fn sum_secs(&self) -> f64 {
        self.to_unit(self.sum())
    }

    /// The nearest-rank `q`-quantile (0 ≤ q ≤ 1) as the inclusive upper
    /// edge of the bucket holding it: never below the exact value and less
    /// than one bucket width above it. `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let i = self.bucket_counts().position(|n| {
            seen = seen.saturating_add(n);
            seen >= target
        });
        Some(i.map_or(u64::MAX, |i| bounds(i).1))
    }

    /// [`Histogram::quantile`] in exported units.
    pub fn quantile_secs(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|v| self.to_unit(v))
    }

    /// `(upper_edge, cumulative_count)` at each occupied bucket, in recorded
    /// units — the shape of Prometheus `le` buckets, where `upper_edge` is
    /// the largest value the bucket holds.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cumulative = 0u64;
        self.bucket_counts()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| {
                cumulative = cumulative.saturating_add(n);
                (bounds(i).1, cumulative)
            })
            .collect()
    }

    /// Folds `other`'s observations into `self`, bucket by bucket with
    /// saturating adds. Every histogram shares one layout, so merging any
    /// number of parts in any order gives the same result — what makes
    /// cross-shard aggregation independent of which shard finishes first.
    pub fn merge(&self, other: &Histogram) {
        debug_assert_eq!(self.scale, other.scale, "merging histograms of different units");
        if let Some(src) = other.buckets.get() {
            for (dst, src) in self.slots().iter().zip(src.iter()) {
                sat_add(dst, src.load(Relaxed));
            }
        }
        sat_add(&self.sum, other.sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_exact_below_16_then_8_buckets_per_octave() {
        assert_eq!(BUCKETS, 496);
        for v in 0..16u64 {
            assert_eq!(bounds(bucket_of(v)), (v, v), "{v} has its own bucket");
        }
        assert_eq!(bounds(bucket_of(16)), (16, 17));
        assert_eq!(bounds(bucket_of(1000)), (960, 1023));
        assert_eq!(bucket_of(1024) - bucket_of(512), SUBS, "one octave is 8 buckets");
        assert_eq!(bounds(BUCKETS - 1).1, u64::MAX);
        // Buckets tile the value range: contiguous, and each edge maps back.
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!((bucket_of(lo), bucket_of(hi)), (i, i), "bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bounds(i + 1).0, hi + 1, "gap after bucket {i}");
            }
            // A bucket is at most 1/8 of its lower edge wide.
            assert!(i < EXACT || (hi - lo + 1) * SUBS as u64 <= lo, "bucket {i} too wide");
        }
    }

    #[test]
    fn empty_histograms_allocate_nothing_and_merge_as_identity() {
        let h = Histogram::nanos();
        h.merge(&Histogram::nanos());
        assert!(h.buckets.get().is_none(), "merging an empty part allocates nothing");
        assert_eq!((h.count(), h.sum(), h.quantile(0.5)), (0, 0, None));
        assert!(h.cumulative_buckets().is_empty());
        assert_eq!(h, Histogram::nanos());
    }

    #[test]
    fn zero_and_tiny_values_are_exact() {
        let h = Histogram::nanos();
        h.record(0);
        h.record(3);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.quantile(1.0), Some(3));
        assert_eq!(h.sum(), 3);
    }

    #[test]
    fn cumulative_buckets_match_prometheus_shape() {
        let h = Histogram::nanos();
        h.record(50_000);
        for _ in 0..3 {
            h.record(10_000_000);
        }
        for _ in 0..2 {
            h.record(NANOS_PER_SEC);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.len(), 3);
        assert_eq!(cum.last().map(|&(_, n)| n), Some(h.count()), "last bucket holds the total");
        for (&(edge, _), v) in cum.iter().zip([50_000, 10_000_000, NANOS_PER_SEC]) {
            assert!(edge >= v && edge - v < v / 8, "upper edge {edge} brackets {v}");
        }
        assert_eq!(h.sum(), 50_000 + 3 * 10_000_000 + 2 * NANOS_PER_SEC);
        assert_eq!(h.sum_secs(), 2.03005);
    }

    #[test]
    fn counts_export_unscaled() {
        let h = Histogram::counts();
        for size in [1, 3, 3, 8] {
            h.record(size);
        }
        assert_eq!(h.sum_secs(), 15.0, "the sum of sizes, not a duration");
        assert_eq!(h.quantile_secs(0.5), Some(3.0));
        assert_eq!(h.cumulative_buckets(), vec![(1, 1), (3, 3), (8, 4)]);
    }

    #[test]
    fn clones_compare_equal_and_stay_independent() {
        let h = Histogram::nanos();
        h.record(42);
        let c = h.clone();
        assert_eq!(c, h);
        c.record(7);
        assert_ne!(c, h);
        assert_ne!(Histogram::counts(), Histogram::nanos(), "units are part of equality");
    }
}
