//! Property-based tests for the core JSP algorithms.

use jury_core::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

fn rates(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(0.02..0.98f64, 1..=max_len)
}

fn rate_cost_pairs(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((0.02..0.98f64, 0.0..1.0f64), 1..=max_len)
}

fn pool_of(rates: &[f64]) -> Vec<Juror> {
    rates
        .iter()
        .enumerate()
        .map(|(i, &e)| Juror::free(i as u32, ErrorRate::new(e).unwrap()))
        .collect()
}

fn paid_pool(pairs: &[(f64, f64)]) -> Vec<Juror> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(e, c))| Juror::new(i as u32, ErrorRate::new(e).unwrap(), c))
        .collect()
}

/// Error rates and costs whose products collide: `0.1·1.0`, `0.2·0.5`,
/// `0.25·0.4` and `0.5·0.2` are all the double `0.1`, so equal `ε·r`
/// comes with different costs. The costs add both zeros, a subnormal
/// that `ε·r` rounds to `+0.0`, a larger subnormal and the smallest
/// normal.
const TIE_RATES: [f64; 5] = [0.1, 0.2, 0.25, 0.5, 0.9];
const TIE_COSTS: [f64; 9] = [-0.0, 0.0, 5e-324, 1e-310, f64::MIN_POSITIVE, 0.2, 0.4, 0.5, 1.0];

/// Pools drawn mostly from the tie palettes, so repeated ε, equal `ε·r`,
/// signed-zero and subnormal costs and full `(ε·r, cost, ε)` ties that
/// only the position decides are common; one juror in four has a free ε.
fn tie_heavy_pool(max_len: usize) -> impl Strategy<Value = Vec<Juror>> {
    let spec = (0..TIE_RATES.len(), 0..TIE_COSTS.len(), 0.02..0.98f64, 0..4usize);
    vec(spec, 1..=max_len).prop_map(|specs| {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(e, c, free, mode))| {
                let eps = if mode == 0 { free } else { TIE_RATES[e] };
                Juror::new(i as u32, ErrorRate::new(eps).unwrap(), TIE_COSTS[c])
            })
            .collect()
    })
}

#[test]
fn tie_palettes_collide() {
    assert!([0.1 * 1.0, 0.2 * 0.5, 0.25 * 0.4, 0.5 * 0.2].iter().all(|&k| k == 0.1));
    assert!(TIE_COSTS[2].is_subnormal() && TIE_COSTS[3].is_subnormal());
    assert_eq!((0.5 * TIE_COSTS[2]).to_bits(), 0.0f64.to_bits());
    assert!(TIE_COSTS[0].is_sign_negative() && TIE_COSTS[0] == 0.0);
}

/// Reference JER by brute-force subset enumeration over all odd subsets.
fn brute_best_jer(rates: &[f64]) -> f64 {
    let n = rates.len();
    let mut best = f64::INFINITY;
    for mask in 1u32..(1 << n) {
        if mask.count_ones() % 2 == 0 {
            continue;
        }
        let eps: Vec<f64> = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| rates[i]).collect();
        best = best.min(JerEngine::DynamicProgramming.jer(&eps));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn altralg_is_globally_optimal(rs in rates(11)) {
        let pool = pool_of(&rs);
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        let brute = brute_best_jer(&rs);
        prop_assert!((sel.jer - brute).abs() < 1e-10,
            "altr {} vs brute {}", sel.jer, brute);
    }

    #[test]
    fn altralg_strategies_agree(rs in rates(40)) {
        let pool = pool_of(&rs);
        let inc = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        let paper = AltrAlg::solve(&pool, &AltrConfig::paper_without_bound()).unwrap();
        let bounded = AltrAlg::solve(&pool, &AltrConfig::paper_with_bound()).unwrap();
        prop_assert!((inc.jer - paper.jer).abs() < 1e-9);
        prop_assert!((inc.jer - bounded.jer).abs() < 1e-9);
        // Member sets can only differ when near-tied JERs sit inside the
        // engines' mutual rounding band; above it they must agree.
        if inc.jer > 1e-9 {
            prop_assert_eq!(&inc.members, &paper.members);
            prop_assert_eq!(&inc.members, &bounded.members);
        }
    }

    #[test]
    fn altralg_selects_lowest_rate_prefix(rs in rates(30)) {
        // Lemma 3: the winning jury is always a prefix of the ε-sorted pool.
        let pool = pool_of(&rs);
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        let mut sorted = rs.clone();
        sorted.sort_by(f64::total_cmp);
        let mut chosen: Vec<f64> = sel.members.iter().map(|&i| rs[i]).collect();
        chosen.sort_by(f64::total_cmp);
        for (c, s) in chosen.iter().zip(&sorted) {
            prop_assert!((c - s).abs() < 1e-15);
        }
    }

    #[test]
    fn jer_monotone_in_individual_rate(
        rs in rates(15),
        idx in any::<prop::sample::Index>(),
        bump in 0.001..0.3f64,
    ) {
        // Lemma 3: worsening one juror's ε never lowers JER (odd juries).
        let mut rs = rs;
        if rs.len().is_multiple_of(2) { rs.pop(); }
        prop_assume!(!rs.is_empty());
        let i = idx.index(rs.len());
        let base = JerEngine::DynamicProgramming.jer(&rs);
        let old = rs[i];
        rs[i] = (old + bump).min(0.995);
        let worse = JerEngine::DynamicProgramming.jer(&rs);
        prop_assert!(worse + 1e-12 >= base, "{} -> {}: {} < {}", old, rs[i], worse, base);
    }

    #[test]
    fn payalg_respects_budget_and_parity(pairs in rate_cost_pairs(25), budget in 0.0..3.0f64) {
        let pool = paid_pool(&pairs);
        match PayAlg::solve(&pool, budget, &PayConfig::default()) {
            Ok(sel) => {
                prop_assert!(sel.total_cost <= budget + 1e-9);
                prop_assert_eq!(sel.size() % 2, 1);
                let recomputed: f64 = sel.members.iter().map(|&i| pool[i].cost).sum();
                prop_assert!((sel.total_cost - recomputed).abs() < 1e-9);
                // Reported JER matches an independent engine evaluation.
                let eps: Vec<f64> = sel.members.iter().map(|&i| pool[i].epsilon()).collect();
                prop_assert!((sel.jer - JerEngine::DynamicProgramming.jer(&eps)).abs() < 1e-9);
            }
            Err(JuryError::NoFeasibleJury { .. }) => {
                prop_assert!(pool.iter().all(|j| j.cost > budget));
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    #[test]
    fn exact_dominates_greedy(pairs in rate_cost_pairs(10), budget in 0.05..2.0f64) {
        let pool = paid_pool(&pairs);
        let greedy = PayAlg::solve(&pool, budget, &PayConfig::default());
        let exact = exact_paym(&pool, budget, &ExactConfig::default());
        match (greedy, exact) {
            (Ok(g), Ok(e)) => {
                prop_assert!(e.jer <= g.jer + 1e-10, "exact {} > greedy {}", e.jer, g.jer);
                prop_assert!(e.total_cost <= budget + 1e-9);
            }
            (Err(JuryError::NoFeasibleJury{..}), Err(JuryError::NoFeasibleJury{..})) => {}
            (g, e) => prop_assert!(false, "inconsistent feasibility: {g:?} vs {e:?}"),
        }
    }

    #[test]
    fn parallel_exact_equals_sequential(pairs in rate_cost_pairs(9), budget in 0.05..2.0f64) {
        let pool = paid_pool(&pairs);
        let seq = exact_paym(&pool, budget, &ExactConfig::default());
        let par = exact_paym_parallel(&pool, budget, &ExactConfig { threads: 3, ..Default::default() });
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.members, p.members);
                prop_assert!((s.jer - p.jer).abs() < 1e-12);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (s, p) => prop_assert!(false, "{s:?} vs {p:?}"),
        }
    }

    #[test]
    fn selection_jer_is_engine_consistent(rs in rates(30)) {
        let pool = pool_of(&rs);
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        let eps: Vec<f64> = sel.members.iter().map(|&i| rs[i]).collect();
        for engine in [JerEngine::DynamicProgramming, JerEngine::TailDp, JerEngine::Convolution] {
            prop_assert!((engine.jer(&eps) - sel.jer).abs() < 1e-9);
        }
    }

    #[test]
    fn profile_minimum_equals_solution(rs in rates(25)) {
        let pool = pool_of(&rs);
        let profile = AltrAlg::jer_profile(&pool);
        let best = profile.iter().cloned().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        prop_assert!((best.1 - sel.jer).abs() < 1e-10);
    }

    #[test]
    fn majority_vote_matches_count(bits in vec(any::<bool>(), 1..20)) {
        let mut bits = bits;
        if bits.len() % 2 == 0 { bits.pop(); }
        prop_assume!(!bits.is_empty());
        let v = Voting::new(bits.clone()).unwrap();
        let yes = bits.iter().filter(|&&b| b).count();
        let expected = if yes * 2 > bits.len() { Decision::Yes } else { Decision::No };
        prop_assert_eq!(majority_vote(&v), expected);
    }

    // The keyed sorts must give exactly the comparator permutations,
    // which the repair path and the snapshot reader still rely on.
    #[test]
    fn keyed_orders_equal_the_comparator_orders(pool in tie_heavy_pool(80)) {
        use jury_core::solver::{eps_cmp, sorted_order_into};
        let mut reference: Vec<usize> = (0..pool.len()).collect();
        let mut order = Vec::new();
        reference.sort_by(|&a, &b| eps_cmp(&pool, a, b));
        sorted_order_into(&pool, &mut order);
        prop_assert_eq!(&order, &reference);
        reference.sort_by(|&a, &b| PayAlg::greedy_cmp(&pool, a, b));
        PayAlg::greedy_order_into(&pool, &mut order);
        prop_assert_eq!(&order, &reference);
    }
}
