//! Tail bounds on the carelessness count.
//!
//! The paper's Lemma 2 derives a *lower* bound on JER from the
//! Paley–Zygmund inequality, cheap enough (`O(n)`) to prune exact JER
//! evaluations inside AltrALG. For ablation studies this module also
//! provides two classical *upper* bounds — Cantelli (one-sided Chebyshev)
//! and the Chernoff–Hoeffding bound for sums of independent Bernoullis —
//! which allow symmetric pruning ("this jury cannot be better than the
//! incumbent" / "cannot be worse").
//!
//! A fourth bound, [`berry_esseen_lower_bound`], is a second *lower*
//! bound: the normal tail minus the Berry–Esseen distance, with
//! Shevtsova's (2010) constant [`BERRY_ESSEEN_C`] `= 0.5600` for sums of
//! independent, non-identically distributed summands. Paley–Zygmund
//! needs the mean strictly above the threshold and reads ≈ 0 right at
//! the `μ = t` crossover; Berry–Esseen reads ≈ ½ there once `σ` is
//! large, which is the band of prefix sizes AltrALG's pruned scan could
//! not otherwise rule out.
//!
//! All four bounds depend on the rates only through the first two
//! moments `μ = Σ ε_i` and `σ² = Σ ε_i(1-ε_i)` (plus the count `n`).
//! Over an ε-sorted prefix scan those moments are *prefix sums*, so
//! [`PrefixMoments`] maintains them incrementally: one
//! [`PrefixMoments::push`] per juror and every bound evaluates in
//! `O(1)` per candidate prefix — the kernel behind
//! `AltrAlg::solve_pruned`'s rescan-free bound sweep.
//! [`PrefixMoments::berry_esseen_floor`] budgets the rounding of every
//! longer prefix as well, which lets that sweep stop where the bound
//! certifies the rest of the run instead of visiting all `N` sizes. The
//! slice entry points and the prefix form share the same moment→bound
//! formulas, so the two evaluation styles agree bit-for-bit when fed the
//! same accumulated moments.

use crate::approx::standard_normal_cdf;

/// Result of a bound evaluation: either a usable bound value or a marker
/// that the inequality's precondition failed for these parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TailBound {
    /// The bound applies and has the given value.
    Value(f64),
    /// The precondition (e.g. `γ ∈ (0,1)` for Paley–Zygmund) does not hold.
    Inapplicable,
}

impl TailBound {
    /// The bound value, or `None` when inapplicable.
    #[inline]
    pub fn value(self) -> Option<f64> {
        match self {
            TailBound::Value(v) => Some(v),
            TailBound::Inapplicable => None,
        }
    }

    /// `true` when the inequality's precondition held.
    #[inline]
    pub fn is_applicable(self) -> bool {
        matches!(self, TailBound::Value(_))
    }
}

/// Incrementally-maintained first two moments of a carelessness count:
/// `μ = Σ ε_i` and `σ² = Σ ε_i(1-ε_i)` over the rates pushed so far.
///
/// One push per juror keeps every moment-based tail bound evaluable in
/// `O(1)` per prefix of an ε-sorted scan. The accumulators are the same
/// left-to-right sums the slice entry points compute, so
/// [`PrefixMoments::paley_zygmund_lower`] over the first `n` pushes
/// returns bit-identical values to [`paley_zygmund_lower_bound`] on the
/// corresponding slice (and likewise for the upper bounds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefixMoments {
    n: usize,
    mu: f64,
    sigma2: f64,
}

impl PrefixMoments {
    /// The empty prefix (zero jurors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Extends the prefix by one juror with error rate `e`.
    #[inline]
    pub fn push(&mut self, e: f64) {
        self.n += 1;
        self.mu += e;
        self.sigma2 += e * (1.0 - e);
    }

    /// Number of rates pushed so far.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Accumulated mean `Σ ε_i`.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Accumulated variance `Σ ε_i(1-ε_i)`.
    #[inline]
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// [`paley_zygmund_lower_bound`] over the pushed prefix, in `O(1)`.
    #[inline]
    pub fn paley_zygmund_lower(&self, threshold: usize) -> TailBound {
        paley_zygmund_from_moments(self.mu, self.sigma2, threshold)
    }

    /// [`cantelli_upper_bound`] over the pushed prefix, in `O(1)`.
    #[inline]
    pub fn cantelli_upper(&self, threshold: usize) -> TailBound {
        cantelli_from_moments(self.mu, self.sigma2, threshold)
    }

    /// [`chernoff_upper_bound`] over the pushed prefix, in `O(1)`.
    #[inline]
    pub fn chernoff_upper(&self, threshold: usize) -> TailBound {
        chernoff_from_moments(self.n, self.mu, threshold)
    }

    /// [`berry_esseen_lower_bound`] over the pushed prefix, in `O(1)`.
    #[inline]
    pub fn berry_esseen_lower(&self, threshold: usize) -> TailBound {
        berry_esseen_from_moments(self.n, self.mu, self.sigma2, threshold)
    }

    /// A floor under [`PrefixMoments::berry_esseen_lower`] *as computed*
    /// on any longer prefix of at most `len` terms whose exact normal
    /// value `Φ(−(t'−1−μ')/σ') − C/σ'` is at least this prefix's.
    /// Deciding that premise is the caller's proof; this value carries
    /// the rounding both evaluations may differ by.
    ///
    /// Each computed value sits within `δ + r` of its exact one, where
    /// `δ ≤ NORMAL_CDF_ERROR / 2` is the `erfc` error and `r` the
    /// moment rounding that [`berry_esseen_from_moments`] budgets. A
    /// longer prefix of `m ≤ len` terms has `μ' + |t'−1−μ'| ≤ 2m` and,
    /// its `σ'²` being this `σ²` plus non-negative terms, `σ' ≥ σ`; so
    /// `R = (len + 4)·ε·(2·len/σ + 1)` covers the `r` of both. This
    /// value subtracts the longer prefix's own budget, at most
    /// `NORMAL_CDF_ERROR + R`, plus `2δ + 2R` for the two evaluations'
    /// errors: `2·NORMAL_CDF_ERROR + 3R` in all. Inapplicable exactly
    /// where [`PrefixMoments::berry_esseen_lower`] is.
    pub fn berry_esseen_floor(&self, threshold: usize, len: usize) -> TailBound {
        let Some((gap, sigma)) = berry_esseen_reach(self.mu, self.sigma2, threshold) else {
            return TailBound::Inapplicable;
        };
        let len = len as f64;
        let rounding = (len + 4.0) * f64::EPSILON * (2.0 * len / sigma + 1.0);
        TailBound::Value(
            standard_normal_cdf(-gap / sigma)
                - BERRY_ESSEEN_C / sigma
                - 2.0 * NORMAL_CDF_ERROR
                - 3.0 * rounding,
        )
    }
}

/// Paley–Zygmund lower bound of the paper's Lemma 2.
///
/// For the carelessness count `C` with mean `μ = Σ ε_i` and variance
/// `σ² = Σ ε_i(1-ε_i)`, and threshold `t = (n+1)/2` written as `t = γμ`:
///
/// ```text
/// Pr(C ≥ γμ) ≥ (1-γ)²μ² / ((1-γ)²μ² + σ²)      for γ ∈ (0,1)
/// ```
///
/// The bound only applies when `γ = t/μ` lies strictly inside `(0,1)` —
/// i.e. when the majority threshold sits *below* the expected number of
/// wrong voters (an error-prone jury). AltrALG checks this exactly as the
/// paper's Algorithm 3 Line 5 does.
pub fn paley_zygmund_lower_bound(eps: &[f64], threshold: usize) -> TailBound {
    let mu: f64 = eps.iter().sum();
    let sigma2: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
    paley_zygmund_from_moments(mu, sigma2, threshold)
}

/// The moment form of [`paley_zygmund_lower_bound`]: the shared kernel
/// both the slice and the [`PrefixMoments`] entry points reduce to.
#[inline]
pub fn paley_zygmund_from_moments(mu: f64, sigma2: f64, threshold: usize) -> TailBound {
    if mu <= 0.0 {
        return TailBound::Inapplicable;
    }
    let gamma = threshold as f64 / mu;
    if gamma <= 0.0 || gamma >= 1.0 {
        return TailBound::Inapplicable;
    }
    let a = (1.0 - gamma) * (1.0 - gamma) * mu * mu;
    TailBound::Value(a / (a + sigma2))
}

/// The γ parameter of Lemma 2: `((n+1)/2) / μ`. Exposed so callers can
/// reproduce the paper's applicability check (`γ < 1`) directly.
pub fn paley_zygmund_gamma(eps: &[f64], threshold: usize) -> f64 {
    let mu: f64 = eps.iter().sum();
    if mu <= 0.0 {
        f64::INFINITY
    } else {
        threshold as f64 / mu
    }
}

/// Cantelli (one-sided Chebyshev) upper bound:
///
/// ```text
/// Pr(C ≥ μ + a) ≤ σ² / (σ² + a²)   for a > 0
/// ```
///
/// Applicable whenever the threshold exceeds the mean; used as an
/// *upper*-bound pruning ablation (a reliable jury whose upper bound is
/// already below the incumbent's JER can be accepted without exact
/// evaluation — and vice versa for rejection).
pub fn cantelli_upper_bound(eps: &[f64], threshold: usize) -> TailBound {
    let mu: f64 = eps.iter().sum();
    let sigma2: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
    cantelli_from_moments(mu, sigma2, threshold)
}

/// The moment form of [`cantelli_upper_bound`].
#[inline]
pub fn cantelli_from_moments(mu: f64, sigma2: f64, threshold: usize) -> TailBound {
    let a = threshold as f64 - mu;
    if a <= 0.0 {
        return TailBound::Inapplicable;
    }
    TailBound::Value(sigma2 / (sigma2 + a * a))
}

/// Chernoff–Hoeffding upper bound for sums of independent Bernoullis via
/// the KL-divergence form:
///
/// ```text
/// Pr(C ≥ t) ≤ exp(-n · KL(t/n ‖ μ/n))    for t/n > μ/n
/// ```
///
/// Tighter than Cantelli far in the tail; the `bounds` ablation bench
/// compares all three.
pub fn chernoff_upper_bound(eps: &[f64], threshold: usize) -> TailBound {
    let mu: f64 = eps.iter().sum();
    chernoff_from_moments(eps.len(), mu, threshold)
}

/// The moment form of [`chernoff_upper_bound`] (the KL bound needs only
/// the count and the mean).
#[inline]
pub fn chernoff_from_moments(n: usize, mu: f64, threshold: usize) -> TailBound {
    if n == 0 || threshold > n {
        // Pr(C >= t) = 0 when t > n: bound trivially zero.
        return if threshold > n { TailBound::Value(0.0) } else { TailBound::Inapplicable };
    }
    let p = mu / n as f64;
    let q = threshold as f64 / n as f64;
    if q <= p {
        return TailBound::Inapplicable;
    }
    if p <= 0.0 {
        // Mean zero: C is almost surely 0, so Pr(C >= t>=1) = 0.
        return TailBound::Value(if threshold == 0 { 1.0 } else { 0.0 });
    }
    let kl = kl_bernoulli(q, p);
    TailBound::Value((-(n as f64) * kl).exp().min(1.0))
}

/// Shevtsova's (2010) Berry–Esseen constant for sums of independent,
/// non-identically distributed summands: `sup_x |F(x) − Φ((x−μ)/σ)| ≤
/// C·Σ E|X_i − p_i|³ / σ³`.
pub const BERRY_ESSEEN_C: f64 = 0.5600;

/// Budget for the absolute error of [`standard_normal_cdf`]. Its `erfc`
/// has fractional error below 1.2e-7, so `Φ = ½·erfc` is off by at most
/// 6e-8 (4.1e-8 measured over `|z| ≤ 5`); the budget is over three times
/// that, with room for the evaluation's own rounding.
pub const NORMAL_CDF_ERROR: f64 = 2e-7;

/// Berry–Esseen lower bound on the upper tail:
///
/// ```text
/// Pr(C ≥ t) = 1 − F(t−1) ≥ 1 − Φ((t−1−μ)/σ) − C/σ − err
/// ```
///
/// For a Bernoulli summand `E|X − p|³ = p(1−p)(p² + (1−p)²) ≤ p(1−p)`,
/// so the Lyapunov ratio `Σ E|X_i − p_i|³ / σ³` is at most `1/σ` and the
/// bound needs only the first two moments. `err` is
/// [`NORMAL_CDF_ERROR`] plus the rounding the moments picked up as
/// left-to-right prefix sums of `n` terms, so the value stays a bound
/// when fed those computed sums. Uninformative (negative or
/// inapplicable) when `t − 1` sits well above `μ` or `σ` is small;
/// informative near and above the `μ = t` crossover once `σ ≫ C`.
pub fn berry_esseen_lower_bound(eps: &[f64], threshold: usize) -> TailBound {
    let mu: f64 = eps.iter().sum();
    let sigma2: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
    berry_esseen_from_moments(eps.len(), mu, sigma2, threshold)
}

/// The moment form of [`berry_esseen_lower_bound`]. Inapplicable when
/// `σ² = 0` (a point mass), `t = 0` (the tail is 1), or when the bound
/// cannot be positive: for `z = (t−1−μ)/σ ≥ 0` Cantelli gives
/// `1 − Φ(z) ≤ 1/(1+z²)`, so `σ ≤ C·(1+z²)` puts the normal tail below
/// `C/σ`. That test needs no `erfc`, and it covers most sizes of a
/// reliable prefix.
#[inline]
pub fn berry_esseen_from_moments(n: usize, mu: f64, sigma2: f64, threshold: usize) -> TailBound {
    let Some((gap, sigma)) = berry_esseen_reach(mu, sigma2, threshold) else {
        return TailBound::Inapplicable;
    };
    // `μ` and `σ²` are sums of `n` terms, each off by at most `n` ulps
    // of its size; Φ' ≤ 0.4 and z·φ(z) ≤ 0.25 turn that into this much
    // absolute error in the normal tail (doubled for the subtractions).
    let rounding = (n as f64 + 4.0) * f64::EPSILON * ((mu + gap.abs()) / sigma + 1.0);
    TailBound::Value(
        standard_normal_cdf(-gap / sigma) - BERRY_ESSEEN_C / sigma - NORMAL_CDF_ERROR - rounding,
    )
}

/// `Some((t − 1 − μ, σ))` when the Berry–Esseen bound can be positive
/// (see [`berry_esseen_from_moments`]), `None` when it is inapplicable.
#[inline]
fn berry_esseen_reach(mu: f64, sigma2: f64, threshold: usize) -> Option<(f64, f64)> {
    if threshold == 0 || sigma2 <= 0.0 {
        return None;
    }
    let gap = (threshold - 1) as f64 - mu;
    // σ ≤ C(1 + gap²/σ²), squared: σ⁶ ≤ C²(σ² + gap²)².
    let reach = BERRY_ESSEEN_C * (sigma2 + gap * gap);
    if gap >= 0.0 && sigma2 * sigma2 * sigma2 <= reach * reach {
        return None;
    }
    Some((gap, sigma2.sqrt()))
}

/// KL divergence between Bernoulli(q) and Bernoulli(p), with the usual
/// `0·ln 0 = 0` conventions.
fn kl_bernoulli(q: f64, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q) && (0.0..=1.0).contains(&p));
    let mut kl = 0.0;
    if q > 0.0 {
        kl += q * (q / p).ln();
    }
    if q < 1.0 {
        kl += (1.0 - q) * ((1.0 - q) / (1.0 - p)).ln();
    }
    kl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poibin::PoiBin;

    fn majority(n: usize) -> usize {
        n / 2 + 1
    }

    #[test]
    fn paley_zygmund_is_a_true_lower_bound_when_applicable() {
        // Error-prone jurors: mean above threshold so γ < 1.
        let eps = vec![0.8; 9];
        let t = majority(eps.len()); // 5; μ = 7.2; γ = 0.694
        let bound = paley_zygmund_lower_bound(&eps, t);
        let exact = PoiBin::from_error_rates(&eps).tail(t);
        match bound {
            TailBound::Value(b) => {
                assert!(b <= exact + 1e-12, "bound {b} exceeds exact {exact}");
                assert!(b > 0.0);
            }
            TailBound::Inapplicable => panic!("γ < 1 here; bound must apply"),
        }
    }

    #[test]
    fn paley_zygmund_inapplicable_for_reliable_juries() {
        // Reliable jurors: μ = 0.9 < t = 5 so γ > 1.
        let eps = vec![0.1; 9];
        assert_eq!(paley_zygmund_lower_bound(&eps, majority(9)), TailBound::Inapplicable);
        assert!(paley_zygmund_gamma(&eps, majority(9)) > 1.0);
    }

    #[test]
    fn paley_zygmund_gamma_matches_definition() {
        let eps = [0.5, 0.7, 0.9];
        let g = paley_zygmund_gamma(&eps, 2);
        assert!((g - 2.0 / 2.1).abs() < 1e-12);
    }

    #[test]
    fn paley_zygmund_empty_is_inapplicable() {
        assert_eq!(paley_zygmund_lower_bound(&[], 1), TailBound::Inapplicable);
        assert!(paley_zygmund_gamma(&[], 1).is_infinite());
    }

    #[test]
    fn cantelli_is_a_true_upper_bound() {
        let eps = [0.1, 0.2, 0.15, 0.3, 0.25];
        let t = majority(eps.len());
        let exact = PoiBin::from_error_rates(&eps).tail(t);
        match cantelli_upper_bound(&eps, t) {
            TailBound::Value(b) => assert!(b >= exact - 1e-12, "bound {b} below exact {exact}"),
            TailBound::Inapplicable => panic!("threshold above mean; must apply"),
        }
    }

    #[test]
    fn cantelli_inapplicable_below_mean() {
        let eps = vec![0.9; 5];
        assert_eq!(cantelli_upper_bound(&eps, 3), TailBound::Inapplicable);
    }

    #[test]
    fn chernoff_is_a_true_upper_bound() {
        let eps = [0.1, 0.12, 0.2, 0.05, 0.3, 0.18, 0.22];
        let t = majority(eps.len());
        let exact = PoiBin::from_error_rates(&eps).tail(t);
        match chernoff_upper_bound(&eps, t) {
            TailBound::Value(b) => assert!(b >= exact - 1e-12),
            TailBound::Inapplicable => panic!("must apply"),
        }
    }

    #[test]
    fn chernoff_tighter_than_cantelli_far_in_tail() {
        // Many very reliable jurors; majority failure is deep in the tail.
        let eps = vec![0.05; 41];
        let t = majority(41);
        let ch = chernoff_upper_bound(&eps, t).value().unwrap();
        let ca = cantelli_upper_bound(&eps, t).value().unwrap();
        assert!(ch < ca, "chernoff {ch} should beat cantelli {ca}");
    }

    #[test]
    fn chernoff_edge_cases() {
        assert_eq!(chernoff_upper_bound(&[], 1), TailBound::Value(0.0));
        assert_eq!(chernoff_upper_bound(&[0.0, 0.0], 1), TailBound::Value(0.0));
        // Threshold below mean: inapplicable.
        assert_eq!(chernoff_upper_bound(&[0.9, 0.9, 0.9], 1), TailBound::Inapplicable);
        // Threshold beyond n: probability is exactly 0.
        assert_eq!(chernoff_upper_bound(&[0.5; 3], 7), TailBound::Value(0.0));
    }

    #[test]
    fn bound_accessors() {
        assert_eq!(TailBound::Value(0.5).value(), Some(0.5));
        assert_eq!(TailBound::Inapplicable.value(), None);
        assert!(TailBound::Value(0.0).is_applicable());
        assert!(!TailBound::Inapplicable.is_applicable());
    }

    #[test]
    fn kl_zero_when_equal() {
        assert!((kl_bernoulli(0.3, 0.3)).abs() < 1e-15);
        assert!(kl_bernoulli(0.6, 0.3) > 0.0);
    }

    #[test]
    fn prefix_moments_match_slice_bounds_bit_for_bit() {
        // Pushing a sorted run juror by juror must reproduce the slice
        // entry points at every prefix, bits included — the accumulators
        // are the same left-to-right sums.
        let eps: Vec<f64> =
            (0..97).map(|i| 0.01 + 0.98 * ((i as f64 * 0.6180339887498949) % 1.0)).collect();
        let mut pm = PrefixMoments::new();
        assert_eq!(pm.n(), 0);
        for (i, &e) in eps.iter().enumerate() {
            pm.push(e);
            let prefix = &eps[..=i];
            let n = i + 1;
            assert_eq!(pm.n(), n);
            for t in [1usize, majority(n), n, n + 1] {
                assert_eq!(
                    pm.paley_zygmund_lower(t),
                    paley_zygmund_lower_bound(prefix, t),
                    "pz n={n} t={t}"
                );
                assert_eq!(
                    pm.cantelli_upper(t),
                    cantelli_upper_bound(prefix, t),
                    "cantelli n={n} t={t}"
                );
                assert_eq!(
                    pm.chernoff_upper(t),
                    chernoff_upper_bound(prefix, t),
                    "chernoff n={n} t={t}"
                );
                assert_eq!(
                    pm.berry_esseen_lower(t),
                    berry_esseen_lower_bound(prefix, t),
                    "berry-esseen n={n} t={t}"
                );
            }
        }
        // μ and σ² are the plain sequential sums.
        let mu: f64 = eps.iter().sum();
        let sigma2: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
        assert_eq!(pm.mu().to_bits(), mu.to_bits());
        assert_eq!(pm.sigma2().to_bits(), sigma2.to_bits());
    }

    /// `Φ` by its Maclaurin series, accurate to ~1e-11 for `|z| ≤ 5`.
    fn reference_cdf(z: f64) -> f64 {
        let x = z / std::f64::consts::SQRT_2;
        let (mut term, mut sum) = (x, x);
        for k in 1..200 {
            term *= -x * x / k as f64;
            sum += term / (2 * k + 1) as f64;
        }
        0.5 * (1.0 + 2.0 / std::f64::consts::PI.sqrt() * sum)
    }

    #[test]
    fn normal_cdf_error_stays_inside_its_budget() {
        let mut worst = 0.0f64;
        for i in -500..=500 {
            let z = i as f64 / 100.0;
            worst = worst.max((crate::approx::standard_normal_cdf(z) - reference_cdf(z)).abs());
        }
        assert!(worst <= NORMAL_CDF_ERROR / 2.0, "worst Φ error {worst:e}");
    }

    #[test]
    fn berry_esseen_is_informative_at_the_crossover() {
        // 10⁴ coin-flip-like jurors (σ ≈ 45) with the threshold at the
        // mean: the exact tail is ≈ ½, and so is the bound, where
        // Paley–Zygmund is inapplicable.
        let eps = vec![0.4; 10_001];
        let t = 4_001;
        let b = berry_esseen_lower_bound(&eps, t).value().unwrap();
        assert!(b > 0.45, "bound {b}");
        assert_eq!(paley_zygmund_lower_bound(&eps, t + 1), TailBound::Inapplicable);
        assert!(b <= PoiBin::from_error_rates(&eps).tail(t));
        // A point mass has no normal approximation; t = 0 is trivial.
        assert_eq!(berry_esseen_lower_bound(&[0.0, 1.0], 1), TailBound::Inapplicable);
        assert_eq!(berry_esseen_lower_bound(&eps, 0), TailBound::Inapplicable);
    }

    #[test]
    fn berry_esseen_floor_sits_under_the_bound_and_widens_with_len() {
        let mut moments = PrefixMoments::new();
        (0..1_001).for_each(|i| moments.push(if i < 201 { 0.2 } else { 0.55 }));
        let t = majority(1_001);
        let lower = moments.berry_esseen_lower(t).value().unwrap();
        let own = moments.berry_esseen_floor(t, 1_001).value().unwrap();
        let long = moments.berry_esseen_floor(t, 10_000_000).value().unwrap();
        assert!(long < own && own <= lower - NORMAL_CDF_ERROR, "{long} {own} {lower}");
        // Inapplicable exactly where the bound is: a small σ below the
        // threshold, and a point mass.
        let mut reliable = PrefixMoments::new();
        (0..3).for_each(|_| reliable.push(0.01));
        assert_eq!(reliable.berry_esseen_lower(2), TailBound::Inapplicable);
        assert_eq!(reliable.berry_esseen_floor(2, 1_000), TailBound::Inapplicable);
        assert_eq!(PrefixMoments::new().berry_esseen_floor(1, 1_000), TailBound::Inapplicable);
    }

    #[test]
    fn prefix_moments_empty_prefix_is_inapplicable_or_trivial() {
        let pm = PrefixMoments::new();
        assert_eq!(pm.paley_zygmund_lower(1), TailBound::Inapplicable);
        assert_eq!(pm.cantelli_upper(1), TailBound::Value(0.0));
        assert_eq!(pm.chernoff_upper(1), TailBound::Value(0.0));
        assert_eq!(pm.berry_esseen_lower(1), TailBound::Inapplicable);
    }
}
