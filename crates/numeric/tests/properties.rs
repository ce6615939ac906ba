//! Property-based tests for the numeric substrate.
//!
//! These encode the mathematical invariants the rest of the workspace
//! relies on: agreement of all Poisson-Binomial constructions, conservation
//! of probability mass, FFT round-trips, convolution equivalences and the
//! soundness of every tail bound.

use jury_numeric::bounds::{
    berry_esseen_lower_bound, cantelli_upper_bound, chernoff_upper_bound,
    paley_zygmund_lower_bound, PrefixMoments, TailBound,
};
use jury_numeric::conv::{convolve_direct, convolve_fft};
use jury_numeric::fft::Fft;
use jury_numeric::poibin::{tail_probability_dp, DeconvError, PoiBin, DECONV_GUARD_BAND};
use jury_numeric::Complex64;
use proptest::collection::vec;
use proptest::prelude::*;

/// Error rates strictly inside (0,1) as Definition 4 requires.
fn error_rates(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(0.001..0.999f64, 1..=max_len)
}

/// Adversarial rates for the bound-soundness sandwich: exact degenerate
/// masses (0, 1), denormal-adjacent rates (`1e-12`, `1 − 1e-12`), the
/// ½-mass neighbourhood (`0.5`, `0.5 ± 1e-12` — where the Paley–Zygmund
/// `γ → 1` and Cantelli `t − μ → 0` cancellations are sharpest) and
/// ordinary rates, mixed freely.
fn adversarial_rates(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec((0usize..10, 0.001..0.999f64), 1..=max_len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(which, r)| match which {
                0 => 0.0,
                1 => 1.0,
                2 => 1e-12,
                3 => 1.0 - 1e-12,
                4 => 0.5,
                5 => 0.5 - 1e-12,
                6 => 0.5 + 1e-12,
                _ => r,
            })
            .collect()
    })
}

/// Rate vectors whose `σ` spans tiny (near-certain jurors either way)
/// to large (hundreds of mid-range rates), for the Berry–Esseen bound.
fn sigma_spanning_rates(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    (0usize..5, vec(0.001..0.999f64, 1..=max_len)).prop_map(|(regime, raw)| match regime {
        0 => raw.iter().map(|r| r * 1e-3).collect(),
        1 => raw.iter().map(|r| 1.0 - r * 1e-3).collect(),
        2 => raw.iter().map(|r| 0.3 + 0.4 * r).collect(),
        3 => raw.iter().map(|r| if *r < 0.1 { r * 0.2 } else { 0.55 + 0.4 * r }).collect(),
        _ => raw,
    })
}

proptest! {
    #[test]
    fn naive_dp_cba_agree(eps in error_rates(12)) {
        let naive = PoiBin::from_error_rates_naive(&eps);
        let dp = PoiBin::from_error_rates_dp(&eps);
        let cba = PoiBin::from_error_rates_cba(&eps);
        for k in 0..=eps.len() {
            prop_assert!((naive.prob_eq(k) - dp.prob_eq(k)).abs() < 1e-10);
            prop_assert!((naive.prob_eq(k) - cba.prob_eq(k)).abs() < 1e-10);
        }
    }

    #[test]
    fn dp_cba_agree_medium(eps in error_rates(150)) {
        let dp = PoiBin::from_error_rates_dp(&eps);
        let cba = PoiBin::from_error_rates_cba(&eps);
        for k in 0..=eps.len() {
            prop_assert!((dp.prob_eq(k) - cba.prob_eq(k)).abs() < 1e-9,
                "k={} dp={} cba={}", k, dp.prob_eq(k), cba.prob_eq(k));
        }
    }

    #[test]
    fn pmf_is_a_distribution(eps in error_rates(100)) {
        let d = PoiBin::from_error_rates(&eps);
        let total: f64 = d.pmf().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(d.pmf().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn mean_variance_closed_forms(eps in error_rates(60)) {
        let d = PoiBin::from_error_rates(&eps);
        let mu: f64 = eps.iter().sum();
        let var: f64 = eps.iter().map(|e| e * (1.0 - e)).sum();
        prop_assert!((d.mean() - mu).abs() < 1e-9);
        prop_assert!((d.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn tail_is_monotone_decreasing(eps in error_rates(40)) {
        let d = PoiBin::from_error_rates(&eps);
        for k in 0..=eps.len() {
            prop_assert!(d.tail(k) + 1e-12 >= d.tail(k + 1));
        }
        prop_assert_eq!(d.tail(0), 1.0);
        prop_assert_eq!(d.tail(eps.len() + 1), 0.0);
    }

    #[test]
    fn tail_dp_matches_pmf_tail(eps in error_rates(40), t in 0usize..45) {
        let d = PoiBin::from_error_rates(&eps);
        prop_assert!((tail_probability_dp(&eps, t) - d.tail(t)).abs() < 1e-10);
    }

    #[test]
    fn incremental_push_matches_batch(eps in error_rates(50)) {
        let mut inc = PoiBin::empty();
        for &e in &eps {
            inc.push(e);
        }
        let batch = PoiBin::from_error_rates_dp(&eps);
        for k in 0..=eps.len() {
            prop_assert!((inc.prob_eq(k) - batch.prob_eq(k)).abs() < 1e-10);
        }
    }

    #[test]
    fn paley_zygmund_never_exceeds_exact(eps in error_rates(25), t in 1usize..13) {
        if let TailBound::Value(b) = paley_zygmund_lower_bound(&eps, t) {
            let exact = PoiBin::from_error_rates(&eps).tail(t);
            prop_assert!(b <= exact + 1e-9, "bound {} > exact {}", b, exact);
        }
    }

    #[test]
    fn upper_bounds_never_undershoot(eps in error_rates(25), t in 1usize..13) {
        let exact = PoiBin::from_error_rates(&eps).tail(t);
        if let TailBound::Value(b) = cantelli_upper_bound(&eps, t) {
            prop_assert!(b >= exact - 1e-9);
        }
        if let TailBound::Value(b) = chernoff_upper_bound(&eps, t) {
            prop_assert!(b >= exact - 1e-9);
        }
    }

    #[test]
    fn bounds_sandwich_exact_tail_on_adversarial_rates(eps in adversarial_rates(40)) {
        // The pruning soundness contract: whenever the bounds apply,
        //   paley_zygmund_lower ≤ exact Poisson-binomial tail ≤
        //   cantelli_upper / chernoff_upper,
        // including degenerate, denormal-adjacent and ½-mass rates.
        let d = PoiBin::from_error_rates(&eps);
        let n = eps.len();
        for t in [1usize, n / 2 + 1, n.max(1), n + 1] {
            let exact = d.tail(t);
            if let TailBound::Value(b) = paley_zygmund_lower_bound(&eps, t) {
                prop_assert!(b <= exact + 1e-9, "pz {} > exact {} (t={})", b, exact, t);
            }
            if let TailBound::Value(b) = cantelli_upper_bound(&eps, t) {
                prop_assert!(b >= exact - 1e-9, "cantelli {} < exact {} (t={})", b, exact, t);
            }
            if let TailBound::Value(b) = chernoff_upper_bound(&eps, t) {
                prop_assert!(b >= exact - 1e-9, "chernoff {} < exact {} (t={})", b, exact, t);
            }
        }
    }

    #[test]
    fn berry_esseen_never_exceeds_exact(eps in sigma_spanning_rates(1200)) {
        // Every threshold, σ from ~0.03 (near-certain jurors) to ~17.
        let d = PoiBin::from_error_rates_dp(&eps);
        for t in 0..=eps.len() + 1 {
            if let TailBound::Value(b) = berry_esseen_lower_bound(&eps, t) {
                let exact = d.tail(t);
                prop_assert!(b <= exact, "berry-esseen {} > exact {} (t={}, n={})", b, exact, t, eps.len());
            }
        }
    }

    #[test]
    fn berry_esseen_never_exceeds_exact_on_adversarial_rates(eps in adversarial_rates(40)) {
        let d = PoiBin::from_error_rates(&eps);
        for t in 0..=eps.len() + 1 {
            if let TailBound::Value(b) = berry_esseen_lower_bound(&eps, t) {
                prop_assert!(b <= d.tail(t), "berry-esseen {} > exact {} (t={})", b, d.tail(t), t);
            }
        }
    }

    #[test]
    fn prefix_moment_sweep_matches_slices_on_adversarial_rates(eps in adversarial_rates(40)) {
        // The streaming kernel behind the bound-pruned AltrM sweep must
        // reproduce the slice entry points at every prefix, bits
        // included, no matter how degenerate the rates.
        let mut moments = PrefixMoments::new();
        for (i, &e) in eps.iter().enumerate() {
            moments.push(e);
            let prefix = &eps[..=i];
            let n = i + 1;
            for t in [1usize, n / 2 + 1, n] {
                prop_assert_eq!(moments.paley_zygmund_lower(t), paley_zygmund_lower_bound(prefix, t));
                prop_assert_eq!(moments.cantelli_upper(t), cantelli_upper_bound(prefix, t));
                prop_assert_eq!(moments.chernoff_upper(t), chernoff_upper_bound(prefix, t));
                prop_assert_eq!(moments.berry_esseen_lower(t), berry_esseen_lower_bound(prefix, t));
            }
        }
    }

    #[test]
    fn fft_round_trip(values in vec(-100.0..100.0f64, 1..64)) {
        let n = values.len().next_power_of_two();
        let mut data: Vec<Complex64> = values.iter().map(|&v| Complex64::from_real(v)).collect();
        data.resize(n, Complex64::ZERO);
        let original = data.clone();
        let plan = Fft::new(n);
        let mut buf = data;
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!((a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn conv_direct_equals_fft(a in vec(0.0..1.0f64, 1..80), b in vec(0.0..1.0f64, 1..80)) {
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        prop_assert_eq!(d.len(), f.len());
        for (x, y) in d.iter().zip(&f) {
            prop_assert!((x - y).abs() < 1e-8, "{} vs {}", x, y);
        }
    }

    #[test]
    fn adding_a_certain_juror_shifts_tail(eps in error_rates(20), t in 1usize..10) {
        // Appending ε = 1 (always wrong) increments C by one deterministically:
        // Pr(C' >= t+1) == Pr(C >= t).
        let base = PoiBin::from_error_rates(&eps);
        let mut extended = base.clone();
        extended.push(1.0);
        prop_assert!((extended.tail(t + 1) - base.tail(t)).abs() < 1e-10);
        // Appending ε = 0 (never wrong) leaves every tail unchanged.
        let mut same = base.clone();
        same.push(0.0);
        prop_assert!((same.tail(t) - base.tail(t)).abs() < 1e-10);
    }

    #[test]
    fn remove_factor_inverts_push_everywhere(
        eps in error_rates(100),
        p in 0.0..1.0f64,
    ) {
        // remove_factor ∘ push ≈ identity whenever the guard admits p.
        let base = PoiBin::from_error_rates(&eps);
        let mut round_trip = base.clone();
        round_trip.push(p);
        match round_trip.remove_factor(p) {
            Ok(()) => {
                prop_assert_eq!(round_trip.n(), base.n());
                for k in 0..=base.n() {
                    prop_assert!(
                        (round_trip.prob_eq(k) - base.prob_eq(k)).abs() < 1e-10,
                        "p={} k={}: {} vs {}", p, k, round_trip.prob_eq(k), base.prob_eq(k)
                    );
                }
            }
            Err(DeconvError::IllConditioned { p: rejected }) => {
                prop_assert!((rejected - 0.5).abs() < DECONV_GUARD_BAND);
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn remove_factor_inverts_construction(
        eps in error_rates(60),
        i in any::<prop::sample::Index>(),
    ) {
        // Dividing one factor out of a batch-built distribution recovers
        // the distribution built without it, for any position of the
        // factor.
        let i = i.index(eps.len());
        let rest: Vec<f64> = eps
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &e)| e)
            .collect();
        prop_assume!((eps[i] - 0.5).abs() >= DECONV_GUARD_BAND);
        let mut full = PoiBin::from_error_rates(&eps);
        full.remove_factor(eps[i]).expect("guard admitted the factor");
        let want = PoiBin::from_error_rates(&rest);
        for k in 0..=rest.len() {
            prop_assert!(
                (full.prob_eq(k) - want.prob_eq(k)).abs() < 1e-9,
                "i={} k={}: {} vs {}", i, k, full.prob_eq(k), want.prob_eq(k)
            );
        }
    }

    #[test]
    fn replace_factor_matches_rebuild_prop(
        eps in error_rates(80),
        i in any::<prop::sample::Index>(),
        new_e in 0.001..0.999f64,
    ) {
        let i = i.index(eps.len());
        prop_assume!((eps[i] - 0.5).abs() >= DECONV_GUARD_BAND);
        let mut d = PoiBin::from_error_rates(&eps);
        d.replace_factor(eps[i], new_e).expect("guard admitted the factor");
        let mut swapped = eps.clone();
        swapped[i] = new_e;
        let want = PoiBin::from_error_rates_dp(&swapped);
        for k in 0..=eps.len() {
            prop_assert!(
                (d.prob_eq(k) - want.prob_eq(k)).abs() < 1e-9,
                "k={}: {} vs {}", k, d.prob_eq(k), want.prob_eq(k)
            );
        }
    }
}

/// The adversarial rates the deconvolution contract calls out: exact
/// endpoints are divided exactly, near-endpoint rates contract hard, and
/// everything within the guard band of ½ must be refused a priori.
#[test]
fn deconvolution_adversarial_rates() {
    let base = [0.12, 0.31, 0.07, 0.44 + DECONV_GUARD_BAND, 0.26];
    for &p in &[0.0f64, 1.0, 1e-12, 1.0 - 1e-12] {
        let without = PoiBin::from_error_rates_dp(&base);
        let mut with = without.clone();
        with.push(p);
        with.remove_factor(p).unwrap_or_else(|e| panic!("p={p}: {e}"));
        for k in 0..=without.n() {
            assert!((with.prob_eq(k) - without.prob_eq(k)).abs() < 1e-12, "p={p} k={k}");
        }
    }
    for &p in &[0.5f64, 0.5 - 1e-12, 0.5 + 1e-12] {
        let mut d = PoiBin::from_error_rates_dp(&base);
        d.push(p);
        let before = d.clone();
        assert_eq!(d.remove_factor(p), Err(DeconvError::IllConditioned { p }), "p={p}");
        assert_eq!(d, before, "p={p}: rejection must leave the pmf untouched");
    }
}
