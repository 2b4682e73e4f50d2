//! Sample statistics and the open-loop schedule.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process — one monotonic
/// clock shared by every thread, so spans from different threads compare.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until `deadline_ns` on the [`now_ns`] clock (returns at once
/// when it has passed).
pub fn sleep_until_ns(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(std::time::Duration::from_nanos(deadline_ns - now));
    }
}

/// A percentile is reported only with this many samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorted samples of one timing or size.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a bug in the caller and panic here).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
        Samples { sorted: values }
    }

    /// From integer nanoseconds, scaled by `per_unit` (1e3 for µs).
    pub fn from_ns(ns: &[u64], per_unit: f64) -> Self {
        Self::new(ns.iter().map(|&n| n as f64 / per_unit).collect())
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// No samples at all.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank quantile; 0.0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q` quantile if at least [`MIN_TAIL_SAMPLES`] samples lie
    /// beyond it, else `None`: a tail read off fewer samples does not
    /// repeat between runs.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let beyond = self.sorted.len() - ((q * self.sorted.len() as f64).ceil() as usize);
        (beyond >= MIN_TAIL_SAMPLES).then(|| self.quantile(q))
    }

    /// The highest of the usual percentiles this sample supports.
    pub fn highest_supported(&self) -> f64 {
        [0.999, 0.99, 0.95, 0.9]
            .into_iter()
            .find(|&q| self.tail(q).is_some())
            .unwrap_or(0.5)
    }

    /// p95 when supported, else the highest supported percentile (tiny
    /// smoke-test sizes only; full sizes always carry ≥ 200 samples).
    pub fn p95(&self) -> f64 {
        self.tail(0.95)
            .unwrap_or_else(|| self.quantile(self.highest_supported().min(0.95)))
    }
}

/// The most windows a run is cut into, and the fewest samples a window
/// may hold (so its p95 still has [`MIN_TAIL_SAMPLES`] beyond it).
const MAX_WINDOWS: usize = 10;
const MIN_WINDOW_SAMPLES: usize = 200;

/// Median and p95 of `(when_ns, value)` samples, steadied against bursts:
/// the run is cut into up to ten equal stretches of time, each stretch
/// gives its own median and p95, and the medians of those are reported —
/// a noisy half second moves one stretch, not the run's number.
pub fn windowed_p50_p95(samples: &[(u64, u64)], per_unit: f64) -> (f64, f64) {
    let windows = (samples.len() / MIN_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let from = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let to = samples.iter().map(|s| s.0).max().unwrap_or(0) + 1;
    let width = (to - from).div_ceil(windows as u64).max(1);
    let mut cut: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(when, value) in samples {
        cut[((when - from) / width) as usize].push(value as f64 / per_unit);
    }
    let stretches: Vec<Samples> = cut
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(Samples::new)
        .collect();
    let of = |f: &dyn Fn(&Samples) -> f64| median_of(&stretches.iter().map(f).collect::<Vec<_>>());
    (of(&Samples::median), of(&Samples::p95))
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) —
/// the same rule the driver applies to run-to-run spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("value is NaN"));
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The median of a few values (not nearest-rank: the mean of the middle
/// two for an even count).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("value is NaN"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// An open-loop schedule: slot `i` is due at `start + i × period`
/// whatever the system under test does. The caller asks which slots are
/// due *now*, sends them, and times each from its due time — so a stall
/// (in the generator or behind it) shows up as latency on every slot it
/// delayed instead of silently thinning the load.
#[derive(Debug)]
pub struct OpenLoop {
    start_ns: u64,
    period_ns: u64,
    total: u64,
    next: u64,
    late_ns: Vec<u64>,
}

impl OpenLoop {
    /// `total` slots, the first due at `start_ns`.
    pub fn new(start_ns: u64, period_ns: u64, total: u64) -> Self {
        assert!(period_ns > 0, "period must be positive");
        OpenLoop {
            start_ns,
            period_ns,
            total,
            next: 0,
            late_ns: Vec::new(),
        }
    }

    /// When slot `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }

    /// Hands out every not-yet-taken slot due at or before `now_ns` as
    /// `(index, due_ns)`, recording how late each one is being sent.
    pub fn take_due(&mut self, now_ns: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while self.next < self.total && self.due_ns(self.next) <= now_ns {
            let due = self.due_ns(self.next);
            self.late_ns.push(now_ns - due);
            out.push((self.next, due));
            self.next += 1;
        }
        out
    }

    /// Due time of the next slot, `None` when the schedule is exhausted.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.next < self.total).then(|| self.due_ns(self.next))
    }

    /// Slots handed out so far.
    pub fn sent(&self) -> u64 {
        self.next
    }

    /// How late each slot was handed out, in nanoseconds.
    pub fn lateness_ns(&self) -> &[u64] {
        &self.late_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples::new((1..=199).map(f64::from).collect());
        // p95 of 199 samples leaves 199 - 190 = 9 beyond: not supported.
        assert_eq!(s.tail(0.95), None);
        assert_eq!(s.highest_supported(), 0.9);
        let s = Samples::new((1..=200).map(f64::from).collect());
        assert_eq!(s.tail(0.95), Some(190.0));
        assert_eq!(s.tail(0.99), None);
        assert_eq!(s.highest_supported(), 0.95);
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(0.99), Some(990.0));
        assert_eq!(s.tail(0.999), None);
        // Too few for any tail: only the median is reported.
        let s = Samples::new((1..=15).map(f64::from).collect());
        assert_eq!(s.highest_supported(), 0.5);
        assert_eq!(s.p95(), s.median());
    }

    #[test]
    fn windowed_quantiles_shrug_off_one_bad_stretch() {
        // 2000 samples over 10 ms, all 100 ns except a burst of 10 µs
        // values in the third millisecond.
        let samples: Vec<(u64, u64)> = (0..2_000u64)
            .map(|i| {
                let when = i * 5_000;
                let burst = (2_000_000..3_000_000).contains(&when);
                (when, if burst { 10_000 } else { 100 })
            })
            .collect();
        let (p50, p95) = windowed_p50_p95(&samples, 1.0);
        assert_eq!((p50, p95), (100.0, 100.0));
        // The plain p95 over the whole run sits inside the burst.
        let all = Samples::new(samples.iter().map(|s| s.1 as f64).collect());
        assert_eq!(all.p95(), 10_000.0);
        // Few samples: one window, plain quantiles.
        let few: Vec<(u64, u64)> = (0..50u64).map(|i| (i, i + 1)).collect();
        assert_eq!(windowed_p50_p95(&few, 1.0).0, 25.0);
        assert_eq!(windowed_p50_p95(&[], 1.0), (0.0, 0.0));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let s = Samples::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness_under_a_stall() {
        let mut sched = OpenLoop::new(1_000, 100, 10);
        assert_eq!(sched.take_due(999), vec![]);
        assert_eq!(sched.take_due(1_000), vec![(0, 1_000)]);
        assert_eq!(sched.next_due_ns(), Some(1_100));
        // The generator stalls for 450 ns: slots 1..=4 all come due, each
        // keeps its own due time (so latency counts the stall), and the
        // schedule does not shift to hide it.
        assert_eq!(
            sched.take_due(1_450),
            vec![(1, 1_100), (2, 1_200), (3, 1_300), (4, 1_400)]
        );
        assert_eq!(sched.lateness_ns(), &[0, 350, 250, 150, 50]);
        assert_eq!(sched.next_due_ns(), Some(1_500));
        assert_eq!(sched.take_due(10_000).len(), 5);
        assert_eq!(sched.next_due_ns(), None);
        assert_eq!(sched.sent(), 10);
    }
}
