//! The three metric primitives: [`Counter`], [`Gauge`] and [`Histogram`].
//!
//! All three are plain clusters of atomics — recording is a handful of
//! `Relaxed` fetch-adds, never a lock — which is what lets the hot
//! enumeration paths carry them (the workspace invariant: telemetry is
//! *write-only* from hot paths; aggregation cost is paid by the reader).

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Stripes per [`Counter`]. A power of two so the stripe pick is a mask.
const STRIPES: usize = 16;

/// One cache line per stripe, so two cores bumping the same counter
/// don't ping-pong a shared line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's stripe: assigned round-robin on first use, so
/// up to [`STRIPES`] concurrent writers touch distinct cache lines.
fn stripe_index() -> usize {
    thread_local! {
        static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s) & (STRIPES - 1)
}

/// A monotonically increasing counter, lock-striped across cache-padded
/// atomics. [`Counter::add`] is wait-free; [`Counter::get`] sums the
/// stripes (reads may race writes, but every increment lands in exactly
/// one stripe, so quiescent totals are exact — no torn reads).
#[derive(Default)]
pub struct Counter {
    stripes: [PaddedCell; STRIPES],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the calling thread's stripe.
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current total (sum over stripes).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A settable signed value (live sessions, active connections, worker
/// count). One atomic — gauges are low-frequency by nature.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Bucket count of every [`Histogram`]: boundaries `le = 2^0 … 2^26`
/// microseconds (1 µs to ~67 s) plus the final `+Inf` bucket.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// The bucket a value lands in: the smallest `i` with `v <= 2^i`,
/// clamped into the `+Inf` bucket past the last finite boundary.
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let i = 64 - (v - 1).leading_zeros() as usize; // ceil(log2(v))
    i.min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive upper bound (`le`) of bucket `i`, `None` for `+Inf`.
pub fn bucket_le(i: usize) -> Option<u64> {
    (i + 1 < HISTOGRAM_BUCKETS).then(|| 1u64 << i)
}

/// A fixed-bucket, log-scale latency histogram over microsecond values:
/// power-of-two boundaries from 1 µs to ~67 s, one atomic fetch-add per
/// [`Histogram::record`]. Percentiles come from
/// [`HistogramSnapshot::quantile`] with log-linear interpolation inside
/// the winning bucket, so the p50/p95/p99 estimates carry at most one
/// octave of bucket error.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value (microseconds by convention).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of every recorded value.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in counts.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// The `q`-quantile estimate (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// A plain copy of a [`Histogram`]'s state; what renderers and
/// percentile extraction work from. It is also the workspace's
/// single-owner sketch: code that already holds a lock (the engine's
/// cost profiles) records into one directly, and the store persists it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts.
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Records one value, bucketed exactly as [`Histogram::record`] does.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds `other`'s counts and sum into this snapshot: the result is
    /// what one histogram recording both streams would hold.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q ∈ [0, 1]` quantile estimate: finds the bucket holding the
    /// target rank and interpolates linearly between its bounds (the
    /// `+Inf` bucket reports its finite lower bound). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = cum;
            cum += c;
            if cum >= target {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = bucket_le(i).unwrap_or(lower);
                let frac = (target - below) as f64 / c as f64;
                return Some(lower + ((upper - lower) as f64 * frac).round() as u64);
            }
        }
        None
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_adds_and_subtracts() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), 8);
        g.sub(20);
        assert_eq!(g.get(), -12, "gauges go negative without clamping");
    }

    #[test]
    fn bucket_boundaries_bracket_every_value() {
        // Every value must satisfy lower < v <= le for its bucket (the
        // defining property of the `le` exposition).
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            9,
            1000,
            1 << 20,
            (1 << 26) - 1,
            1 << 26,
        ] {
            let i = bucket_index(v);
            let le = bucket_le(i).expect("finite bucket");
            assert!(v <= le, "v={v} bucket={i} le={le}");
            if i > 0 {
                let lower = 1u64 << (i - 1);
                assert!(v > lower, "v={v} bucket={i} lower={lower}");
            }
        }
        // Past the last finite boundary everything lands in +Inf.
        assert_eq!(bucket_index((1 << 26) + 1), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert!(bucket_le(HISTOGRAM_BUCKETS - 1).is_none());
    }

    #[test]
    fn bucket_boundaries_are_strictly_increasing_powers_of_two() {
        let mut prev = 0u64;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let le = bucket_le(i).unwrap();
            assert!(le > prev);
            assert!(le.is_power_of_two());
            prev = le;
        }
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let h = Histogram::new();
        assert!(
            h.quantile(0.5).is_none(),
            "empty histogram has no quantiles"
        );
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1111);
        h.record_duration(Duration::from_millis(2));
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1111 + 2000);
    }

    #[test]
    fn quantiles_of_a_point_mass_stay_in_its_bucket() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(10);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            // 10 lands in bucket (8, 16]; every estimate must too.
            assert!((8..=16).contains(&est), "q={q} est={est}");
        }
    }

    #[test]
    fn quantiles_of_a_uniform_range_are_octave_accurate() {
        let h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.p50().unwrap();
        let p95 = s.p95().unwrap();
        let p99 = s.p99().unwrap();
        // True values 512 / ~973 / ~1014; log buckets bound the error by
        // one octave on each side.
        assert!((256..=1024).contains(&p50), "p50={p50}");
        assert!((512..=1024).contains(&p95), "p95={p95}");
        assert!((512..=1024).contains(&p99), "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99, "quantiles are monotone");
    }

    #[test]
    fn merge_equals_recording_both_streams_into_one() {
        let a_values = [0u64, 1, 3, 17, 250, 4096, 1 << 26, u64::MAX / 4];
        let b_values = [2u64, 3, 900, 65_000, (1 << 26) + 1];
        let (mut a, mut b, mut both) = (
            HistogramSnapshot::default(),
            HistogramSnapshot::default(),
            HistogramSnapshot::default(),
        );
        for &v in &a_values {
            a.record(v);
            both.record(v);
        }
        for &v in &b_values {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Recording into a snapshot buckets exactly as the atomic
        // histogram does.
        let h = Histogram::new();
        for &v in a_values.iter().chain(&b_values) {
            h.record(v);
        }
        assert_eq!(h.snapshot(), both);
    }

    #[test]
    fn overflow_values_report_the_last_finite_boundary() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(1 << 26));
        assert_eq!(h.sum(), u64::MAX);
    }
}
