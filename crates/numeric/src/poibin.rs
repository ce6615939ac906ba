//! The Poisson-Binomial distribution of the carelessness count.
//!
//! For a jury `J_n` with independent individual error rates
//! `ε_1, …, ε_n`, the number of jurors voting incorrectly — the paper's
//! *Carelessness* `C` (Definition 5) — follows the Poisson-Binomial
//! distribution. Jury Error Rate (Definition 6) is its upper tail
//! `Pr(C ≥ (n+1)/2)`.
//!
//! [`PoiBin`] materialises the full pmf and exposes three constructors that
//! mirror the paper's §3.1:
//!
//! * [`PoiBin::from_error_rates_naive`] — Definition-6 enumeration over all
//!   `2^n` juror outcome patterns; exponential, only for validation;
//! * [`PoiBin::from_error_rates_dp`] — Lemma-1 style sequential updates
//!   (`O(n²)` time over the whole pmf, `O(n)` working space);
//! * [`PoiBin::from_error_rates_cba`] — Algorithm 2: divide & conquer
//!   merging by (FFT-accelerated) polynomial convolution, `O(n log² n)`
//!   in the recursion or `O(n log n)` per merge level with balanced splits.
//!
//! The tail-only recurrence of the paper's Algorithm 1, which never builds
//! the pmf and uses two rolling vectors, lives in [`tail_probability_dp`].
//!
//! # Factor deconvolution and its error analysis
//!
//! A Poisson-Binomial pmf is the coefficient vector of the product
//! polynomial `∏_i ((1-ε_i) + ε_i·x)`. [`PoiBin::remove_factor`] divides
//! one linear factor `(q + p·x)` back *out* of that product by synthetic
//! (long) division, and [`PoiBin::replace_factor`] chains a removal with a
//! [`PoiBin::push`] — an `O(n)` primitive for patching a cached
//! distribution after one rate changes instead of re-convolving it from
//! scratch. No solver or serving path calls it: they build every pmf
//! they read from its rates.
//!
//! Division runs in whichever direction is contracting:
//!
//! * `p < ½` — forward recurrence `r_k = (f_k − p·r_{k−1}) / q`, which
//!   propagates previous error scaled by `ρ = p/q < 1`;
//! * `p > ½` — backward recurrence `r_{k−1} = (f_k − q·r_k) / p`, which
//!   propagates error scaled by `ρ = q/p < 1`.
//!
//! Each step contributes `O(ε_mach)` local rounding error, and past error
//! decays geometrically by `ρ`, so the accumulated absolute error per
//! coefficient is bounded by roughly `ε_mach / (1 − ρ)`. At the
//! [`DECONV_GUARD_BAND`] boundary (`|p − ½| = 1/32`) that amplification
//! factor is `1/(1−ρ) ≈ 8.5`, keeping repaired pmfs within a few dozen
//! ulps of a fresh construction. Inside the band `ρ → 1`: the divisor's
//! root approaches the unit circle (`x = −1` for `p = ½` — the
//! ½-mass-degenerate factor), error stops decaying and the division is
//! abandoned *a priori* with [`DeconvError::IllConditioned`]. As a second
//! line of defence the result is validated after the fact — coefficients
//! must be probabilities within [`DECONV_TOL`], their compensated sum must
//! be `1 ± `[`DECONV_TOL`], and the division residual (which is exactly
//! zero when the factor truly divides the polynomial) must vanish within
//! the same tolerance — otherwise [`DeconvError::ErrorBudgetExceeded`]
//! tells the caller to rebuild. Removal is therefore *numerically* (never
//! bit-) equal to building the distribution without that factor; callers
//! that need exactness must rebuild.

use crate::conv::{convolve_with, ConvStrategy};
use crate::float::is_probability;
use crate::kahan::KahanSum;
use std::fmt;

/// Half-width of the success-probability band around `½` inside which
/// [`PoiBin::remove_factor`] refuses to divide: the factor's root is too
/// close to the unit circle for the synthetic division to contract (see
/// the module-level error analysis).
pub const DECONV_GUARD_BAND: f64 = 1.0 / 32.0;

/// Post-division validation tolerance for [`PoiBin::remove_factor`]: the
/// compensated coefficient sum must be `1` within this bound, every
/// coefficient must lie in `[−tol, 1+tol]` and the division residual must
/// vanish within it — otherwise the accumulated error budget is exceeded
/// and the caller must rebuild.
pub const DECONV_TOL: f64 = 1e-9;

/// Why a [`PoiBin::remove_factor`] / [`PoiBin::replace_factor`] call
/// declined to deconvolve. Callers fall back to rebuilding the
/// distribution from its error rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeconvError {
    /// The factor's success probability sits within
    /// [`DECONV_GUARD_BAND`] of `½`, where the division does not
    /// contract. The distribution is left untouched.
    IllConditioned {
        /// The offending success probability.
        p: f64,
    },
    /// The divided-out coefficients failed validation (sum, range or
    /// residual beyond [`DECONV_TOL`]) — either accumulated rounding or a
    /// factor that was never part of the distribution. The distribution
    /// has been reset and must be rebuilt.
    ErrorBudgetExceeded {
        /// The largest validation defect observed.
        defect: f64,
    },
}

impl fmt::Display for DeconvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::IllConditioned { p } => {
                write!(f, "factor p={p} is within {DECONV_GUARD_BAND} of 1/2; deconvolution would not contract")
            }
            Self::ErrorBudgetExceeded { defect } => {
                write!(f, "deconvolution validation defect {defect} exceeds tolerance {DECONV_TOL}")
            }
        }
    }
}

impl std::error::Error for DeconvError {}

/// Number of jurors below which CBA recursion bottoms out into the direct
/// sequential DP instead of splitting further. Splitting 1-element juries
/// all the way down (as the paper's pseudo-code does) is wasteful; a small
/// base case keeps the recursion shallow without changing the result.
pub const CBA_BASE_CASE: usize = 16;

/// A materialised Poisson-Binomial distribution.
///
/// Invariants maintained by every constructor:
/// * `pmf.len() == n + 1` where `n` is the number of success probabilities;
/// * every entry is a probability in `[0, 1]`;
/// * entries sum to 1 within a few hundred ulps.
#[derive(Debug, Clone, PartialEq)]
pub struct PoiBin {
    pmf: Vec<f64>,
}

impl Default for PoiBin {
    /// Same as [`PoiBin::empty`]: the point mass at zero trials.
    fn default() -> Self {
        Self::empty()
    }
}

impl PoiBin {
    /// Distribution of a sum of zero Bernoullis: the point mass at 0.
    pub fn empty() -> Self {
        Self { pmf: vec![1.0] }
    }

    /// Builds from success probabilities using the adaptive default:
    /// sequential DP for short inputs, CBA beyond [`CBA_BASE_CASE`]-sized
    /// juries where the divide & conquer tree starts to pay off.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or not finite.
    pub fn from_error_rates(eps: &[f64]) -> Self {
        if eps.len() <= 2 * CBA_BASE_CASE {
            Self::from_error_rates_dp(eps)
        } else {
            Self::from_error_rates_cba(eps)
        }
    }

    /// Exponential-time reference construction: enumerates all `2^n`
    /// outcome patterns and accumulates their probabilities per count.
    ///
    /// This is the "naive method" of §2.1.2 used in the paper's motivating
    /// example; it exists to validate the fast engines.
    ///
    /// # Panics
    /// Panics on invalid probabilities or if `eps.len() > 25` (the cost is
    /// `2^n` and anything larger is a bug in the caller).
    pub fn from_error_rates_naive(eps: &[f64]) -> Self {
        validate(eps);
        let n = eps.len();
        assert!(n <= 25, "naive enumeration is exponential; {n} jurors is too many");
        let mut acc = vec![KahanSum::new(); n + 1];
        for mask in 0u32..(1u32 << n) {
            let mut p = 1.0;
            for (i, &e) in eps.iter().enumerate() {
                p *= if mask >> i & 1 == 1 { e } else { 1.0 - e };
            }
            acc[mask.count_ones() as usize].add(p);
        }
        let pmf = acc.into_iter().map(|s| s.value().clamp(0.0, 1.0)).collect();
        Self { pmf }
    }

    /// Sequential dynamic-programming construction.
    ///
    /// Processes jurors one at a time, updating the pmf in place from high
    /// counts down so each juror costs `O(current length)`; `O(n²)` total,
    /// `O(n)` auxiliary space. This is the pmf-level equivalent of the
    /// paper's Lemma 1 recurrence.
    pub fn from_error_rates_dp(eps: &[f64]) -> Self {
        let mut out = Self { pmf: Vec::with_capacity(eps.len() + 1) };
        out.assign_error_rates_dp(eps);
        out
    }

    /// The buffer-reusing form of [`PoiBin::from_error_rates_dp`]:
    /// rebuilds `self` as the distribution of `eps`, keeping the existing
    /// pmf allocation. Results are bit-identical to the constructor; with
    /// a warmed buffer the call performs no heap allocation.
    pub fn assign_error_rates_dp(&mut self, eps: &[f64]) {
        validate(eps);
        let pmf = &mut self.pmf;
        pmf.clear();
        pmf.reserve(eps.len() + 1);
        pmf.push(1.0);
        for &e in eps {
            let q = 1.0 - e;
            pmf.push(pmf[pmf.len() - 1] * e);
            // Walk downwards so pmf[k-1] is still the pre-update value.
            for k in (1..pmf.len() - 1).rev() {
                pmf[k] = pmf[k] * q + pmf[k - 1] * e;
            }
            pmf[0] *= q;
        }
    }

    /// Resets to the zero-trial point mass (the state of
    /// [`PoiBin::empty`]), keeping the pmf allocation for reuse.
    pub fn reset(&mut self) {
        self.pmf.clear();
        self.pmf.push(1.0);
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation
    /// (the buffer-friendly form of `clone_from` for solver scratch
    /// state).
    pub fn copy_from(&mut self, other: &Self) {
        self.pmf.clear();
        self.pmf.extend_from_slice(&other.pmf);
    }

    /// Convolution-Based Algorithm (paper Algorithm 2).
    ///
    /// Splits the juror list in halves, recursively builds each half's
    /// carelessness distribution and merges them by polynomial
    /// multiplication — via FFT once operands are large enough to win
    /// (see [`ConvStrategy::Adaptive`]).
    pub fn from_error_rates_cba(eps: &[f64]) -> Self {
        validate(eps);
        Self { pmf: cba_recurse(eps, ConvStrategy::Adaptive) }
    }

    /// CBA with a forced convolution strategy — used by the ablation bench
    /// that measures the direct-vs-FFT cutoff.
    pub fn from_error_rates_cba_with(eps: &[f64], strategy: ConvStrategy) -> Self {
        validate(eps);
        Self { pmf: cba_recurse(eps, strategy) }
    }

    /// Wraps an existing pmf.
    ///
    /// # Panics
    /// Panics if `pmf` is empty, has non-probability entries, or does not
    /// sum to 1 within `1e-6`.
    pub fn from_pmf(pmf: Vec<f64>) -> Self {
        assert!(!pmf.is_empty(), "pmf must have at least one entry");
        assert!(
            pmf.iter().all(|&p| is_probability(p)),
            "pmf entries must be probabilities in [0,1]"
        );
        let total: f64 = pmf.iter().copied().collect::<KahanSum>().value();
        assert!((total - 1.0).abs() < 1e-6, "pmf must sum to 1 (got {total})");
        Self { pmf }
    }

    /// Number of underlying Bernoulli trials (jury size).
    #[inline]
    pub fn n(&self) -> usize {
        self.pmf.len() - 1
    }

    /// The probability mass function: `pmf()[k] = Pr(C = k)`.
    #[inline]
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// `Pr(C = k)`, zero outside the support.
    #[inline]
    pub fn prob_eq(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    /// Upper tail `Pr(C ≥ k)` summed with compensation from the smallest
    /// terms first (the tail entries) to limit cancellation.
    pub fn tail(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        if k > self.n() {
            return 0.0;
        }
        let mut s = KahanSum::new();
        // Sum from the far tail towards k: smallest magnitudes first.
        for &p in self.pmf[k..].iter().rev() {
            s.add(p);
        }
        s.value().clamp(0.0, 1.0)
    }

    /// Lower tail `Pr(C ≤ k)`.
    pub fn cdf(&self, k: usize) -> f64 {
        if k >= self.n() {
            return 1.0;
        }
        let mut s = KahanSum::new();
        for &p in &self.pmf[..=k] {
            s.add(p);
        }
        s.value().clamp(0.0, 1.0)
    }

    /// Mean of the distribution computed from the pmf (equals `Σ ε_i`).
    pub fn mean(&self) -> f64 {
        let mut s = KahanSum::new();
        for (k, &p) in self.pmf.iter().enumerate() {
            s.add(k as f64 * p);
        }
        s.value()
    }

    /// Variance computed from the pmf (equals `Σ ε_i(1-ε_i)`).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        let mut s = KahanSum::new();
        for (k, &p) in self.pmf.iter().enumerate() {
            let d = k as f64 - m;
            s.add(d * d * p);
        }
        s.value().max(0.0)
    }

    /// Extends the distribution by one more Bernoulli trial with success
    /// probability `e`, in place and in `O(n)`.
    ///
    /// This powers the *incremental* AltrALG variant: growing a sorted jury
    /// by two jurors costs `O(n)` instead of a fresh `O(n log n)` CBA run.
    ///
    /// # Panics
    /// Panics if `e` is not a probability.
    pub fn push(&mut self, e: f64) {
        assert!(is_probability(e), "error rate must be in [0,1], got {e}");
        let q = 1.0 - e;
        self.pmf.push(self.pmf[self.pmf.len() - 1] * e);
        for k in (1..self.pmf.len() - 1).rev() {
            self.pmf[k] = self.pmf[k] * q + self.pmf[k - 1] * e;
        }
        self.pmf[0] *= q;
    }

    /// Divides one Bernoulli factor with success probability `p` back out
    /// of the distribution, in place and in `O(n)` — the inverse of
    /// [`PoiBin::push`] up to rounding (never bit-identical; see the
    /// module-level error analysis).
    ///
    /// # Errors
    /// * [`DeconvError::IllConditioned`] when `p` lies within
    ///   [`DECONV_GUARD_BAND`] of `½` — `self` is left **untouched**;
    /// * [`DeconvError::ErrorBudgetExceeded`] when the divided
    ///   coefficients fail validation — `self` has been **reset** to the
    ///   zero-trial point mass and must be rebuilt by the caller.
    ///
    /// # Panics
    /// Panics if `p` is not a probability or the distribution has no
    /// factors left (`n() == 0`).
    pub fn remove_factor(&mut self, p: f64) -> Result<(), DeconvError> {
        assert!(is_probability(p), "factor must be a probability in [0,1], got {p}");
        let n = self.n();
        assert!(n > 0, "cannot remove a factor from a zero-trial distribution");
        if (p - 0.5).abs() < DECONV_GUARD_BAND {
            return Err(DeconvError::IllConditioned { p });
        }
        let q = 1.0 - p;
        let residual = if p < 0.5 {
            // Forward synthetic division: r_k = (f_k - p·r_{k-1}) / q,
            // reading each original coefficient before overwriting it.
            let mut carry = 0.0;
            for k in 0..n {
                carry = (self.pmf[k] - p * carry) / q;
                self.pmf[k] = carry;
            }
            let residual = self.pmf[n] - p * carry;
            self.pmf.pop();
            residual
        } else {
            // Backward synthetic division: r_{k-1} = (f_k - q·r_k) / p,
            // staged one slot up so originals are read before overwrite.
            let mut carry = 0.0;
            for k in (1..=n).rev() {
                carry = (self.pmf[k] - q * carry) / p;
                self.pmf[k] = carry;
            }
            let residual = self.pmf[0] - q * carry;
            self.pmf.remove(0);
            residual
        };
        // Second line of defence: the quotient must still look like a pmf
        // and the remainder must vanish.
        let mut defect = residual.abs();
        let mut total = KahanSum::new();
        for &r in &self.pmf {
            if r < 0.0 {
                defect = defect.max(-r);
            } else if r > 1.0 {
                defect = defect.max(r - 1.0);
            }
            total.add(r);
        }
        defect = defect.max((total.value() - 1.0).abs());
        if defect > DECONV_TOL {
            self.reset();
            return Err(DeconvError::ErrorBudgetExceeded { defect });
        }
        for r in &mut self.pmf {
            *r = r.clamp(0.0, 1.0);
        }
        Ok(())
    }

    /// Swaps one factor's success probability from `old` to `new` in
    /// `O(n)`: a [`PoiBin::remove_factor`] followed by a
    /// [`PoiBin::push`]. Bit-identical inputs are a no-op, so exact
    /// cached state survives spurious updates.
    ///
    /// # Errors
    /// Propagates [`PoiBin::remove_factor`]'s errors (with its state
    /// guarantees); the re-insertion itself cannot fail.
    ///
    /// # Panics
    /// Panics if either probability is invalid or `n() == 0`.
    pub fn replace_factor(&mut self, old: f64, new: f64) -> Result<(), DeconvError> {
        assert!(is_probability(new), "factor must be a probability in [0,1], got {new}");
        if old.to_bits() == new.to_bits() {
            return Ok(());
        }
        self.remove_factor(old)?;
        self.push(new);
        Ok(())
    }
}

fn validate(eps: &[f64]) {
    for (i, &e) in eps.iter().enumerate() {
        assert!(
            is_probability(e),
            "error rate at index {i} must be a probability in [0,1], got {e}"
        );
    }
}

fn cba_recurse(eps: &[f64], strategy: ConvStrategy) -> Vec<f64> {
    if eps.len() <= CBA_BASE_CASE {
        return PoiBin::from_error_rates_dp(eps).pmf;
    }
    let mid = eps.len() / 2;
    let left = cba_recurse(&eps[..mid], strategy);
    let right = cba_recurse(&eps[mid..], strategy);
    convolve_with(&left, &right, strategy).into_iter().map(|p| p.clamp(0.0, 1.0)).collect()
}

/// Reusable rolling vectors for [`tail_probability_dp_with`], so repeated
/// tail evaluations (a solver scan, a batched service) allocate nothing
/// after warm-up.
#[derive(Debug, Clone, Default)]
pub struct TailScratch {
    prev: Vec<f64>,
    curr: Vec<f64>,
}

impl TailScratch {
    /// An empty workspace (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The paper's Algorithm 1: tail probability `Pr(C ≥ threshold | J_n)` via
/// the Lemma-1 recurrence with two rolling `O(n)` vectors, never forming
/// the full pmf.
///
/// `Pr(C ≥ L | J_m) = ε_m·Pr(C ≥ L-1 | J_{m-1}) + (1-ε_m)·Pr(C ≥ L | J_{m-1})`
/// with `Pr(C ≥ 0 | ·) = 1` and `Pr(C ≥ L | J_m) = 0` for `L > m`.
///
/// # Panics
/// Panics on invalid probabilities.
pub fn tail_probability_dp(eps: &[f64], threshold: usize) -> f64 {
    tail_probability_dp_with(eps, threshold, &mut TailScratch::new())
}

/// The workspace form of [`tail_probability_dp`]: identical results, but
/// the two rolling vectors live in `scratch` and are reused across calls.
pub fn tail_probability_dp_with(eps: &[f64], threshold: usize, scratch: &mut TailScratch) -> f64 {
    validate(eps);
    let n = eps.len();
    if threshold == 0 {
        return 1.0;
    }
    if threshold > n {
        return 0.0;
    }
    // prev[m] = Pr(C >= l-1 | J_m), curr[m] = Pr(C >= l | J_m), m = 0..=n.
    let prev = &mut scratch.prev;
    let curr = &mut scratch.curr;
    prev.clear();
    prev.resize(n + 1, 1.0); // l = 0 row: all ones
    curr.clear();
    curr.resize(n + 1, 0.0);
    for _l in 1..=threshold {
        curr[0] = 0.0; // Pr(C >= l | J_0) = 0 for l >= 1
        for m in 1..=n {
            let e = eps[m - 1];
            curr[m] = e * prev[m - 1] + (1.0 - e) * curr[m - 1];
        }
        std::mem::swap(prev, curr);
    }
    prev[n].clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::{approx_eq, approx_eq_rel};

    const TABLE2_EPS: [f64; 7] = [0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4];

    fn majority_threshold(n: usize) -> usize {
        n / 2 + 1 // == (n+1)/2 for odd n
    }

    #[test]
    fn empty_distribution_is_point_mass() {
        let d = PoiBin::empty();
        assert_eq!(d.n(), 0);
        assert_eq!(d.pmf(), &[1.0]);
        assert_eq!(d.tail(0), 1.0);
        assert_eq!(d.tail(1), 0.0);
    }

    #[test]
    fn single_bernoulli() {
        let d = PoiBin::from_error_rates(&[0.3]);
        assert!(approx_eq(d.prob_eq(0), 0.7, 1e-15));
        assert!(approx_eq(d.prob_eq(1), 0.3, 1e-15));
        assert!(approx_eq(d.tail(1), 0.3, 1e-15));
    }

    #[test]
    fn motivating_example_cde() {
        // Paper §1: jury {C, D, E} with ε = 0.2, 0.3, 0.3 has JER 0.174.
        let d = PoiBin::from_error_rates(&[0.2, 0.3, 0.3]);
        assert!(approx_eq(d.tail(2), 0.174, 1e-12));
    }

    #[test]
    fn motivating_example_abc() {
        // Jury {A, B, C} with ε = 0.1, 0.2, 0.2 has JER 0.072.
        let d = PoiBin::from_error_rates(&[0.1, 0.2, 0.2]);
        assert!(approx_eq(d.tail(2), 0.072, 1e-12));
    }

    #[test]
    fn motivating_example_size_five_and_seven() {
        // Table 2: {A..E} -> 0.0703/0.0704 (exact 0.07036). For {A..G} the
        // paper's text says 0.085 (exact 0.085248); Table 2's "0.0805"
        // appears to be a typo for 0.0852.
        let d5 = PoiBin::from_error_rates(&TABLE2_EPS[..5]);
        assert!(approx_eq(d5.tail(3), 0.07036, 1e-12));
        let d7 = PoiBin::from_error_rates(&TABLE2_EPS);
        assert!(approx_eq(d7.tail(4), 0.085248, 1e-12));
    }

    #[test]
    fn motivating_example_abcfg() {
        // Table 2: {A,B,C,F,G} with ε = .1,.2,.2,.4,.4 -> 0.104 (rounded;
        // exact 0.10384).
        let d = PoiBin::from_error_rates(&[0.1, 0.2, 0.2, 0.4, 0.4]);
        assert!(approx_eq(d.tail(3), 0.10384, 1e-12));
    }

    #[test]
    fn all_constructors_agree_small() {
        let eps = [0.05, 0.3, 0.77, 0.5, 0.12, 0.9, 0.33, 0.61];
        let naive = PoiBin::from_error_rates_naive(&eps);
        let dp = PoiBin::from_error_rates_dp(&eps);
        let cba = PoiBin::from_error_rates_cba(&eps);
        for k in 0..=eps.len() {
            assert!(approx_eq(naive.prob_eq(k), dp.prob_eq(k), 1e-12), "dp k={k}");
            assert!(approx_eq(naive.prob_eq(k), cba.prob_eq(k), 1e-12), "cba k={k}");
        }
    }

    #[test]
    fn dp_and_cba_agree_large() {
        // 301 jurors — exercises the FFT merge path.
        let eps: Vec<f64> = (0..301).map(|i| 0.05 + 0.9 * (i as f64 / 300.0)).collect();
        let dp = PoiBin::from_error_rates_dp(&eps);
        let cba = PoiBin::from_error_rates_cba(&eps);
        for k in 0..=eps.len() {
            assert!(
                approx_eq(dp.prob_eq(k), cba.prob_eq(k), 1e-9),
                "k={k}: {} vs {}",
                dp.prob_eq(k),
                cba.prob_eq(k)
            );
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let eps: Vec<f64> = (0..97).map(|i| ((i * 37) % 100) as f64 / 101.0).collect();
        let d = PoiBin::from_error_rates(&eps);
        let total: f64 = d.pmf().iter().copied().collect::<KahanSum>().value();
        assert!(approx_eq(total, 1.0, 1e-10));
        assert!(d.pmf().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn mean_and_variance_match_formulas() {
        let eps = [0.1, 0.25, 0.4, 0.7, 0.05];
        let d = PoiBin::from_error_rates(&eps);
        let mu: f64 = eps.iter().sum();
        let var: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
        assert!(approx_eq(d.mean(), mu, 1e-12));
        assert!(approx_eq(d.variance(), var, 1e-12));
    }

    #[test]
    fn tail_edge_cases() {
        let d = PoiBin::from_error_rates(&[0.5, 0.5]);
        assert_eq!(d.tail(0), 1.0);
        assert!(approx_eq(d.tail(1), 0.75, 1e-15));
        assert!(approx_eq(d.tail(2), 0.25, 1e-15));
        assert_eq!(d.tail(3), 0.0);
        assert_eq!(d.tail(100), 0.0);
    }

    #[test]
    fn cdf_complements_tail() {
        let eps = [0.2, 0.4, 0.6, 0.8, 0.1];
        let d = PoiBin::from_error_rates(&eps);
        for k in 0..eps.len() {
            assert!(approx_eq(d.cdf(k) + d.tail(k + 1), 1.0, 1e-12), "k={k}");
        }
        assert_eq!(d.cdf(eps.len()), 1.0);
    }

    #[test]
    fn degenerate_zero_and_one_rates() {
        // ε = 0 never errs; ε = 1 always errs. C is then deterministic.
        let d = PoiBin::from_error_rates(&[0.0, 1.0, 1.0]);
        assert!(approx_eq(d.prob_eq(2), 1.0, 1e-15));
        assert!(approx_eq(d.tail(2), 1.0, 1e-15));
        assert!(approx_eq(d.tail(3), 0.0, 1e-15));
    }

    #[test]
    fn push_matches_batch_construction() {
        let eps = [0.15, 0.35, 0.55, 0.75];
        let mut inc = PoiBin::empty();
        for &e in &eps {
            inc.push(e);
        }
        let batch = PoiBin::from_error_rates_dp(&eps);
        for k in 0..=eps.len() {
            assert!(approx_eq(inc.prob_eq(k), batch.prob_eq(k), 1e-14));
        }
    }

    #[test]
    fn tail_dp_matches_pmf_tail() {
        let eps = [0.12, 0.5, 0.33, 0.9, 0.01, 0.45, 0.62];
        let d = PoiBin::from_error_rates(&eps);
        for t in 0..=eps.len() + 1 {
            assert!(approx_eq(tail_probability_dp(&eps, t), d.tail(t), 1e-12), "threshold={t}");
        }
    }

    #[test]
    fn tail_dp_majority_on_table2() {
        let jer3 = tail_probability_dp(&[0.2, 0.3, 0.3], majority_threshold(3));
        assert!(approx_eq(jer3, 0.174, 1e-12));
        let jer5 = tail_probability_dp(&TABLE2_EPS[..5], majority_threshold(5));
        assert!(approx_eq(jer5, 0.07036, 1e-12));
    }

    #[test]
    fn from_pmf_validates() {
        let d = PoiBin::from_pmf(vec![0.25, 0.5, 0.25]);
        assert_eq!(d.n(), 2);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn from_pmf_rejects_unnormalised() {
        let _ = PoiBin::from_pmf(vec![0.5, 0.2]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_error_rate() {
        let _ = PoiBin::from_error_rates(&[0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn naive_rejects_large_input() {
        let eps = vec![0.5; 26];
        let _ = PoiBin::from_error_rates_naive(&eps);
    }

    #[test]
    fn assign_reuses_buffer_and_matches_constructor() {
        let eps_a = [0.15, 0.35, 0.55, 0.75, 0.2];
        let eps_b = [0.4, 0.1];
        let mut d = PoiBin::from_error_rates_dp(&eps_a);
        assert_eq!(d.pmf, PoiBin::from_error_rates_dp(&eps_a).pmf);
        // Reassigning a shorter input shrinks logically, keeps capacity.
        let cap = d.pmf.capacity();
        d.assign_error_rates_dp(&eps_b);
        assert_eq!(d.pmf, PoiBin::from_error_rates_dp(&eps_b).pmf);
        assert!(d.pmf.capacity() >= cap);
    }

    #[test]
    fn reset_restores_point_mass() {
        let mut d = PoiBin::from_error_rates(&[0.3, 0.4, 0.5]);
        d.reset();
        assert_eq!(d.n(), 0);
        assert_eq!(d.pmf(), &[1.0]);
        d.push(0.25);
        assert_eq!(d.pmf, PoiBin::from_error_rates_dp(&[0.25]).pmf);
    }

    #[test]
    fn copy_from_is_clone_without_allocation_churn() {
        let src = PoiBin::from_error_rates(&[0.2, 0.6, 0.35]);
        let mut dst = PoiBin::from_error_rates(&[0.9; 10]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn tail_scratch_form_is_bit_identical() {
        let eps: Vec<f64> = (0..120).map(|i| 0.02 + ((i * 13) % 90) as f64 / 100.0).collect();
        let mut scratch = TailScratch::new();
        for t in [0, 1, 17, 60, 61, 120, 121] {
            assert_eq!(
                tail_probability_dp_with(&eps, t, &mut scratch),
                tail_probability_dp(&eps, t),
                "threshold {t}"
            );
        }
    }

    #[test]
    fn remove_factor_inverts_push() {
        let base = [0.12, 0.31, 0.07, 0.44, 0.26];
        for &p in &[0.0, 1e-12, 0.2, 0.5 - 0.04, 0.5 + 0.04, 0.8, 1.0 - 1e-12, 1.0] {
            let without = PoiBin::from_error_rates_dp(&base);
            let mut with = without.clone();
            with.push(p);
            with.remove_factor(p).unwrap_or_else(|e| panic!("p={p}: {e}"));
            assert_eq!(with.n(), without.n(), "p={p}");
            for k in 0..=with.n() {
                assert!(
                    approx_eq(with.prob_eq(k), without.prob_eq(k), 1e-12),
                    "p={p} k={k}: {} vs {}",
                    with.prob_eq(k),
                    without.prob_eq(k)
                );
            }
        }
    }

    #[test]
    fn remove_factor_any_position_matches_rebuild() {
        let eps = [0.05, 0.33, 0.71, 0.18, 0.92, 0.26];
        for i in 0..eps.len() {
            let mut d = PoiBin::from_error_rates_dp(&eps);
            d.remove_factor(eps[i]).unwrap();
            let rest: Vec<f64> =
                eps.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &e)| e).collect();
            let want = PoiBin::from_error_rates_dp(&rest);
            for k in 0..=rest.len() {
                assert!(approx_eq(d.prob_eq(k), want.prob_eq(k), 1e-12), "i={i} k={k}");
            }
        }
    }

    #[test]
    fn replace_factor_matches_rebuild() {
        let mut d = PoiBin::from_error_rates_dp(&[0.1, 0.4, 0.7]);
        d.replace_factor(0.4, 0.25).unwrap();
        let want = PoiBin::from_error_rates_dp(&[0.1, 0.25, 0.7]);
        for k in 0..=3 {
            assert!(approx_eq(d.prob_eq(k), want.prob_eq(k), 1e-12), "k={k}");
        }
        // Bit-identical old/new is an exact no-op, even for a guarded p.
        let before = PoiBin::from_error_rates_dp(&[0.5, 0.2]);
        let mut same = before.clone();
        same.replace_factor(0.5, 0.5).unwrap();
        assert_eq!(same, before);
    }

    #[test]
    fn guard_band_rejects_half_mass_factors() {
        for &p in &[0.5, 0.5 - 1e-12, 0.5 + 1e-12, 0.5 - DECONV_GUARD_BAND / 2.0] {
            let before = PoiBin::from_error_rates_dp(&[p, 0.2, 0.9]);
            let mut d = before.clone();
            assert_eq!(d.remove_factor(p), Err(DeconvError::IllConditioned { p }));
            assert_eq!(d, before, "ill-conditioned rejection must leave the pmf untouched");
        }
        // Just outside the band the division goes through.
        let p = 0.5 + DECONV_GUARD_BAND;
        let mut d = PoiBin::from_error_rates_dp(&[p, 0.2, 0.9]);
        assert!(d.remove_factor(p).is_ok());
    }

    #[test]
    fn absent_factor_trips_the_error_budget() {
        let mut d = PoiBin::from_error_rates_dp(&[0.1, 0.2]);
        match d.remove_factor(0.9) {
            Err(DeconvError::ErrorBudgetExceeded { defect }) => assert!(defect > DECONV_TOL),
            other => panic!("expected error-budget failure, got {other:?}"),
        }
        // The contract says the pmf was reset for rebuilding.
        assert_eq!(d.pmf(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "zero-trial")]
    fn remove_factor_rejects_empty() {
        let _ = PoiBin::empty().remove_factor(0.3);
    }

    #[test]
    fn binomial_special_case() {
        // All ε equal: Poisson-Binomial degenerates to Binomial(n, p).
        let n = 12usize;
        let p = 0.3f64;
        let eps = vec![p; n];
        let d = PoiBin::from_error_rates(&eps);
        let mut choose = 1.0f64;
        for k in 0..=n {
            if k > 0 {
                choose = choose * (n - k + 1) as f64 / k as f64;
            }
            let expected = choose * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
            assert!(
                approx_eq_rel(d.prob_eq(k), expected, 1e-10),
                "k={k}: {} vs {expected}",
                d.prob_eq(k)
            );
        }
    }
}
