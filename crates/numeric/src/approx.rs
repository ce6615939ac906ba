//! Normal-family approximations to the Poisson-Binomial tail.
//!
//! The paper computes JER exactly (DP or CBA). The statistics literature
//! also uses closed-form approximations for `Pr(C ≥ t)` that cost `O(n)`
//! regardless of the threshold — useful as *screening* estimates and as
//! an accuracy/speed ablation against the exact engines:
//!
//! * [`normal_tail`] — central limit theorem with continuity correction:
//!   `Pr(C ≥ t) ≈ 1 − Φ((t − 0.5 − μ)/σ)`;
//! * [`refined_normal_tail`] — the Cornish–Fisher-style *refined normal
//!   approximation* (Volkova 1996), which adds a skewness correction and
//!   is markedly better for small `n` or asymmetric rates.
//!
//! Neither is a bound: errors go both ways, so they must not replace the
//! Lemma-2 bound in pruning. The `approximation_accuracy` test and the
//! `jer_engines` bench quantify the trade-off.

use crate::poibin::PoiBin;

/// Standard normal CDF via the complementary error function.
///
/// `erfc` is the Chebyshev fit of Numerical Recipes' `erfcc`, with
/// fractional error below 1.2e-7 everywhere — ample for screening
/// estimates whose model error dominates, and inside the error budget
/// of the Berry–Esseen bound
/// ([`NORMAL_CDF_ERROR`](crate::bounds::NORMAL_CDF_ERROR)).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal density.
#[inline]
pub fn standard_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Complementary error function (Numerical Recipes' `erfcc`, fractional
/// error < 1.2e-7).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        poly
    } else {
        2.0 - poly
    }
}

/// Moments of the carelessness count for a rate vector.
fn moments(eps: &[f64]) -> (f64, f64, f64) {
    let mu: f64 = eps.iter().sum();
    let var: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
    // Third central moment: Σ ε(1-ε)(1-2ε).
    let m3: f64 = eps.iter().map(|e| e * (1.0 - e) * (1.0 - 2.0 * e)).sum();
    (mu, var, m3)
}

/// CLT tail approximation with continuity correction.
///
/// Degenerate rate vectors (σ = 0) fall back to the deterministic count.
pub fn normal_tail(eps: &[f64], threshold: usize) -> f64 {
    if threshold == 0 {
        return 1.0;
    }
    if threshold > eps.len() {
        return 0.0;
    }
    let (mu, var, _) = moments(eps);
    if var <= 0.0 {
        // All rates are 0 or 1: C = μ almost surely.
        return if (threshold as f64) <= mu { 1.0 } else { 0.0 };
    }
    let x = (threshold as f64 - 0.5 - mu) / var.sqrt();
    (1.0 - standard_normal_cdf(x)).clamp(0.0, 1.0)
}

/// Refined normal approximation (normal + skewness correction):
///
/// ```text
/// Pr(C ≥ t) ≈ 1 − G((t − 0.5 − μ)/σ),
/// G(x) = Φ(x) + γ·(1 − x²)·φ(x)/6,   γ = m₃/σ³
/// ```
pub fn refined_normal_tail(eps: &[f64], threshold: usize) -> f64 {
    if threshold == 0 {
        return 1.0;
    }
    if threshold > eps.len() {
        return 0.0;
    }
    let (mu, var, m3) = moments(eps);
    if var <= 0.0 {
        return if (threshold as f64) <= mu { 1.0 } else { 0.0 };
    }
    let sigma = var.sqrt();
    let gamma = m3 / (sigma * var);
    let x = (threshold as f64 - 0.5 - mu) / sigma;
    let g = standard_normal_cdf(x) + gamma * (1.0 - x * x) * standard_normal_pdf(x) / 6.0;
    (1.0 - g).clamp(0.0, 1.0)
}

/// Maximum absolute tail-approximation error over all thresholds —
/// convenience for accuracy studies.
pub fn max_abs_error(eps: &[f64], approx: impl Fn(&[f64], usize) -> f64) -> f64 {
    let exact = PoiBin::from_error_rates(eps);
    (0..=eps.len() + 1).map(|t| (approx(eps, t) - exact.tail(t)).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_reference_points() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.0) - 0.8413447).abs() < 1e-6);
        assert!((standard_normal_cdf(-1.0) - 0.1586553).abs() < 1e-6);
        assert!((standard_normal_cdf(1.959964) - 0.975).abs() < 1e-6);
        assert!(standard_normal_cdf(8.0) > 1.0 - 1e-14);
        assert!(standard_normal_cdf(-8.0) < 1e-14);
    }

    #[test]
    fn pdf_is_symmetric_and_normalised_at_zero() {
        assert!((standard_normal_pdf(0.0) - 0.3989423).abs() < 1e-6);
        assert!((standard_normal_pdf(1.3) - standard_normal_pdf(-1.3)).abs() < 1e-15);
    }

    #[test]
    fn tails_respect_trivial_thresholds() {
        let eps = [0.2, 0.4, 0.6];
        for f in [normal_tail, refined_normal_tail] {
            assert_eq!(f(&eps, 0), 1.0);
            assert_eq!(f(&eps, 4), 0.0);
        }
    }

    #[test]
    fn approximations_are_close_on_moderate_juries() {
        let eps: Vec<f64> = (0..31).map(|i| 0.1 + 0.02 * (i % 20) as f64).collect();
        let na = max_abs_error(&eps, normal_tail);
        let rna = max_abs_error(&eps, refined_normal_tail);
        assert!(na < 0.02, "normal error {na}");
        assert!(rna < 0.005, "refined error {rna}");
    }

    #[test]
    fn refinement_helps_on_skewed_rates() {
        // Strongly skewed: small rates make C right-skewed where the
        // plain CLT is weakest.
        let eps = vec![0.08; 25];
        let na = max_abs_error(&eps, normal_tail);
        let rna = max_abs_error(&eps, refined_normal_tail);
        assert!(rna < na, "refined {rna} should beat normal {na}");
    }

    #[test]
    fn accuracy_improves_with_n() {
        let err_at = |n: usize| {
            let eps = vec![0.3; n];
            max_abs_error(&eps, normal_tail)
        };
        assert!(err_at(200) < err_at(20));
    }

    #[test]
    fn degenerate_rates_fall_back_to_point_mass() {
        let eps = [1.0, 1.0, 0.0];
        for f in [normal_tail, refined_normal_tail] {
            assert_eq!(f(&eps, 2), 1.0); // C = 2 surely
            assert_eq!(f(&eps, 3), 0.0);
        }
    }

    #[test]
    fn outputs_are_probabilities() {
        let eps: Vec<f64> = (0..40).map(|i| ((i * 13) % 97) as f64 / 100.0 + 0.01).collect();
        for t in 0..=eps.len() {
            for f in [normal_tail, refined_normal_tail] {
                let v = f(&eps, t);
                assert!((0.0..=1.0).contains(&v), "t={t}: {v}");
            }
        }
    }
}
