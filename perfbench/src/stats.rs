//! Order statistics for latencies and repeated timings.

use std::time::Instant;

/// Latency samples of one phase: successful request times plus the number
/// of requests that failed. A failed request counts as slower than every
/// success, so failures push percentiles up instead of vanishing.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ok_ms: Vec<f64>,
    failed: usize,
}

/// One percentile of a [`Latencies`] sample: `None` when the rank falls on
/// a failed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub pct: f64,
    pub value_ms: Option<f64>,
    /// Samples strictly beyond this rank.
    pub beyond: usize,
}

impl Latencies {
    pub fn push_ok(&mut self, ms: f64) {
        self.ok_ms.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.failed += 1;
    }

    pub fn count(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    pub fn ok(&self) -> &[f64] {
        &self.ok_ms
    }

    /// Nearest-rank percentile (`pct` in 0..=100) over successes sorted
    /// ascending followed by the failures.
    pub fn percentile(&self, pct: f64) -> Percentile {
        let n = self.count();
        assert!(n > 0, "percentile of an empty sample");
        let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
        let rank = rank.min(n);
        let mut sorted = self.ok_ms.clone();
        sorted.sort_by(f64::total_cmp);
        Percentile {
            pct,
            value_ms: sorted.get(rank - 1).copied(),
            beyond: n - rank,
        }
    }

    /// The highest of the standard tail percentiles that still has at least
    /// `min_beyond` samples beyond it (p50 when even p90 has too few).
    pub fn supported_tail(&self, min_beyond: usize) -> Percentile {
        let mut best = self.percentile(50.0);
        for pct in [90.0, 99.0, 99.9, 99.99] {
            let p = self.percentile(pct);
            if p.beyond >= min_beyond {
                best = p;
            }
        }
        best
    }
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Wall time of one timed operation and the CPU time the host's
/// hypervisor gave to other guests meanwhile (summed over this host's
/// CPUs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub seconds: f64,
    pub steal_s: f64,
}

impl Timing {
    pub fn add(&mut self, other: Timing) {
        self.seconds += other.seconds;
        self.steal_s += other.steal_s;
    }
}

/// Starts timing an operation.
pub struct Stopwatch {
    start: Instant,
    steal_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            steal_s: crate::steal_seconds(),
            start: Instant::now(),
        }
    }

    pub fn stop(&self) -> Timing {
        Timing {
            seconds: self.start.elapsed().as_secs_f64(),
            steal_s: crate::steal_seconds() - self.steal_s,
        }
    }
}

/// Steal, in CPU-seconds per second of an operation, below which two
/// repetitions count as equally disturbed.
const STEAL_TIE: f64 = 0.02;

/// The smallest steal difference two readings of the counter resolve: it
/// sums the host's CPUs, each counted in 10 ms ticks.
pub fn steal_resolution_s() -> f64 {
    0.01 * std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// The wall time of the repetitions the host disturbed least: the median
/// of those whose steal is within `STEAL_TIE` per second of the median
/// repetition, or within `resolution_s` if that is more, of the least
/// steal seen. With no steal it is the plain median. A stolen vCPU stalls
/// whatever runs on it, so on a shared host a repetition that overlapped a
/// neighbour's burst reads slower by about the time stolen, and by more
/// where a wake-up waited for it.
pub fn least_disturbed(timings: &[Timing], resolution_s: f64) -> f64 {
    let typical = median(&timings.iter().map(|t| t.seconds).collect::<Vec<_>>());
    let least = timings
        .iter()
        .map(|t| t.steal_s)
        .fold(f64::INFINITY, f64::min);
    let calm: Vec<f64> = timings
        .iter()
        .filter(|t| t.steal_s <= least + (STEAL_TIE * typical).max(resolution_s))
        .map(|t| t.seconds)
        .collect();
    median(&calm)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ok: &[f64], failed: usize) -> Latencies {
        let mut l = Latencies::default();
        for &v in ok {
            l.push_ok(v);
        }
        for _ in 0..failed {
            l.push_failed();
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles_with_counts() {
        let l = sample(&(1..=100).rev().map(f64::from).collect::<Vec<_>>(), 0);
        let p50 = l.percentile(50.0);
        assert_eq!(p50.value_ms, Some(50.0));
        assert_eq!(p50.beyond, 50);
        let p90 = l.percentile(90.0);
        assert_eq!(p90.value_ms, Some(90.0));
        assert_eq!(p90.beyond, 10);
        assert_eq!(l.percentile(99.0).value_ms, Some(99.0));
        assert_eq!(l.percentile(100.0).beyond, 0);
    }

    #[test]
    fn failed_requests_count_as_slowest() {
        // 8 successes and 2 failures: p80 is the slowest success, p90 and
        // above land on a failure.
        let l = sample(&[5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0], 2);
        assert_eq!(l.count(), 10);
        assert_eq!(l.percentile(50.0).value_ms, Some(5.0));
        assert_eq!(l.percentile(80.0).value_ms, Some(8.0));
        assert_eq!(l.percentile(90.0).value_ms, None);
        assert_eq!(l.percentile(90.0).beyond, 1);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        let l = sample(&vec![1.0; 1000], 0);
        // p99 has 10 beyond, p99.9 only 1.
        assert_eq!(l.supported_tail(10).pct, 99.0);
        let l = sample(&vec![1.0; 20000], 0);
        assert_eq!(l.supported_tail(10).pct, 99.9);
        let l = sample(&vec![1.0; 50], 0);
        assert_eq!(l.supported_tail(10).pct, 50.0);
    }

    #[test]
    fn least_disturbed_takes_the_median_of_the_least_stolen_repetitions() {
        let t = |seconds, steal_s| Timing { seconds, steal_s };
        let two_cpus = 0.02;
        // No steal anywhere: the plain median.
        assert_eq!(
            least_disturbed(&[t(5.0, 0.0), t(6.0, 0.0), t(5.2, 0.0)], two_cpus),
            5.2
        );
        // The 6 s repetition lost 0.5 CPU-s; the tie margin is 2 % of the
        // median 5.2 s, so 0.05 still ties with 0: the median of 5.0, 5.2.
        let mixed = [t(5.0, 0.0), t(6.0, 0.5), t(5.2, 0.05)];
        assert!((least_disturbed(&mixed, two_cpus) - 5.1).abs() < 1e-12);
        // Steal everywhere: only the least stolen one counts.
        assert_eq!(
            least_disturbed(&[t(7.0, 0.9), t(6.0, 0.4), t(8.0, 1.5)], two_cpus),
            6.0
        );
        // A short operation: 2 % of 0.4 s is below what the counter
        // resolves, so one or two ticks of steal still tie.
        let short = [t(0.36, 0.02), t(0.40, 0.0), t(0.45, 0.0)];
        assert_eq!(least_disturbed(&short, two_cpus), 0.40);
        assert!((least_disturbed(&short, 0.01) - 0.425).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
