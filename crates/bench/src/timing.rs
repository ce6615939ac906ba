//! Wall-clock timing helpers for the efficiency figures.
//!
//! The paper's Figures 3(b) and 3(g) plot end-to-end solver running time
//! against pool size. Criterion handles the statistically careful
//! micro-benchmarks; these helpers serve the figure binaries, which need
//! one representative wall-clock number per configuration.

use std::time::Instant;

/// Runs `f` once and returns `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` `repeats` times and returns the *minimum* elapsed seconds
/// together with the last result — the minimum is the standard
/// low-variance statistic for wall-clock comparisons.
///
/// # Panics
/// Panics if `repeats` is zero.
pub fn time_best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(repeats > 0, "need at least one repetition");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let (out, secs) = time_it(&mut f);
        best = best.min(secs);
        last = Some(out);
    }
    (last.expect("repeats > 0"), best)
}

/// The 25th, 50th and 75th percentiles of a set of timings, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Lower quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Upper quartile.
    pub p75: f64,
}

/// Runs `f` `rounds` times and returns the last result together with
/// the quartiles of the elapsed seconds. Where a minimum tracks the one
/// luckiest round (and, right after a cold build, how warm the caches
/// happened to be), the median with its interquartile spread shows
/// whether a difference between two builds is larger than the noise.
/// Each percentile is the nearest-rank sample, so 21 rounds give
/// exact sample indices 5, 10 and 15.
///
/// # Panics
/// Panics if `rounds` is zero.
pub fn time_quartiles<T>(rounds: usize, mut f: impl FnMut() -> T) -> (T, Quartiles) {
    assert!(rounds > 0, "need at least one repetition");
    let mut samples = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds {
        let (out, secs) = time_it(&mut f);
        samples.push(secs);
        last = Some(out);
    }
    (last.expect("rounds > 0"), quartiles(&mut samples))
}

/// Nearest-rank quartiles of a non-empty sample (sorted in place) — for
/// callers that interleave the rounds of two measurements themselves.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn quartiles(samples: &mut [f64]) -> Quartiles {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    Quartiles { p25: at(0.25), p50: at(0.5), p75: at(0.75) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_result_and_positive_time() {
        let (value, secs) = time_it(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499500);
        assert!(secs >= 0.0);
    }

    #[test]
    fn best_of_is_no_larger_than_single() {
        let work = || {
            let mut acc = 0u64;
            for i in 0..10_000 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        };
        let (_, single) = time_it(work);
        let (_, best) = time_best_of(5, work);
        // Allow generous scheduling noise; the min of 5 should not exceed
        // a single cold run by much.
        assert!(best <= single * 10.0 + 1e-3);
    }

    #[test]
    fn quartiles_are_ordered_and_nearest_rank() {
        let mut calls = 0;
        let (value, q) = time_quartiles(21, || {
            calls += 1;
            calls
        });
        assert_eq!(value, 21, "the last round's result is returned");
        assert!(0.0 <= q.p25 && q.p25 <= q.p50 && q.p50 <= q.p75);

        let mut samples = [9.0, 1.0, 7.0, 3.0, 5.0];
        let q = quartiles(&mut samples);
        assert_eq!((q.p25, q.p50, q.p75), (3.0, 5.0, 7.0));
        let q = quartiles(&mut [4.0]);
        assert_eq!((q.p25, q.p50, q.p75), (4.0, 4.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repeats_rejected() {
        let _ = time_best_of(0, || ());
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_rounds_rejected() {
        let _ = time_quartiles(0, || ());
    }
}
