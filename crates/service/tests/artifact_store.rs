//! The warm-artifact store's observable contract: sequence-identical
//! pools share one artifact set (fingerprints intern, attaches are
//! pointer-equal, counters prove nothing was rebuilt), permuted pools
//! share a fingerprint but never an artifact set, mutations detach
//! copy-on-write and re-join when content converges again — and none of
//! it ever changes an answer (every shared-artifact reply is pinned
//! bit-identical against the direct solvers). The service's store
//! invariants ([`JuryService::check_invariants`]) are checked after
//! every step.

use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::paym::{PayAlg, PayConfig};
use jury_service::{DecisionTask, JuryService};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

fn build(pairs: &[(f64, f64)]) -> Vec<Juror> {
    pool_from_rates_and_costs(pairs).unwrap()
}

/// Fails the test when the service's store invariants do not hold.
fn check(service: &JuryService) {
    if let Err(broken) = service.check_invariants() {
        panic!("store invariant broken: {broken}");
    }
}

/// Random `(ε, cost)` pools with quantised rates (so equal-ε ties occur
/// routinely, with equal and with different costs) and a sprinkling of the
/// adversarial rates the deconvolution proptests use (½ ± 1e-12 and the
/// near-0/1 boundary values).
fn pools(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((0.001..0.999f64, 0.0..1.0f64), 1..=max_len).prop_map(|mut pairs| {
        const ADVERSARIAL: [f64; 5] = [1e-12, 1.0 - 1e-12, 0.5, 0.5 + 1e-12, 0.5 - 1e-12];
        for (i, (e, c)) in pairs.iter_mut().enumerate() {
            if i % 3 == 0 {
                *e = (*e * 16.0).ceil() / 16.0 - 1.0 / 32.0;
                *c = (*c * 4.0).floor() / 4.0;
            }
            if i % 5 == 4 {
                *e = ADVERSARIAL[(i / 5) % ADVERSARIAL.len()];
            }
        }
        pairs
    })
}

/// Deterministic Fisher–Yates driven by an xorshift stream.
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    seed |= 1;
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

/// The solver-relevant content of a juror sequence, position by position.
fn content(jurors: &[Juror]) -> Vec<(u64, u64)> {
    jurors.iter().map(|j| (j.epsilon().to_bits(), j.cost.to_bits())).collect()
}

/// Asserts a service AltrM reply matches the direct solver bit-for-bit
/// (members/JER/cost; stats follow the documented bound-pruned
/// accounting identity).
fn assert_altr_matches_direct(service: &mut JuryService, pool: jury_service::PoolId, ctx: &str) {
    let got = service.solve(&DecisionTask::altruism(pool)).unwrap_or_else(|e| {
        panic!("{ctx}: altr solve failed: {e}");
    });
    check(service);
    let direct =
        AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).expect("direct altr");
    assert_eq!(got.members, direct.members, "{ctx}: members");
    assert_eq!(got.jer.to_bits(), direct.jer.to_bits(), "{ctx}: jer bits");
    assert_eq!(got.total_cost.to_bits(), direct.total_cost.to_bits(), "{ctx}: cost bits");
    assert_eq!(
        got.stats.jer_evaluations + got.stats.pruned_by_bound,
        direct.stats.jer_evaluations + direct.stats.pruned_by_bound,
        "{ctx}: every size evaluated or pruned"
    );
}

/// Asserts a service PayM reply matches the direct solver bit-for-bit
/// (both the recording miss and the staircase replay).
fn assert_paym_matches_direct(
    service: &mut JuryService,
    pool: jury_service::PoolId,
    budget: f64,
    ctx: &str,
) {
    let direct = PayAlg::solve(service.pool(pool).unwrap(), budget, &PayConfig::default());
    for round in ["miss", "replay"] {
        let got = service.solve(&DecisionTask::pay_as_you_go(pool, budget));
        check(service);
        match (&got, &direct) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.members, w.members, "{ctx} {round}: members");
                assert_eq!(g.jer.to_bits(), w.jer.to_bits(), "{ctx} {round}: jer bits");
                assert_eq!(
                    g.total_cost.to_bits(),
                    w.total_cost.to_bits(),
                    "{ctx} {round}: cost bits"
                );
                assert_eq!(g.stats, w.stats, "{ctx} {round}: stats");
            }
            (Err(g), Err(w)) => {
                assert_eq!(g.to_string(), format!("solver error: {w}"), "{ctx} {round}")
            }
            other => panic!("{ctx} {round}: divergence: {other:?}"),
        }
    }
}

#[test]
fn second_equal_pool_registers_with_zero_builds() {
    // The counter gate: registering and first-solving a second pool with
    // equal content must attach — no order build, no AltrM solve, no
    // full repair.
    let jurors = build(&[(0.1, 0.2), (0.2, 0.1), (0.2, 0.3), (0.35, 0.4), (0.4, 0.05)]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let first = service.solve(&DecisionTask::altruism(a)).unwrap();
    check(&service);
    let after_first = service.stats();
    assert_eq!(after_first.cache_builds, 1);
    assert_eq!(after_first.full_repairs, 1);
    assert_eq!(after_first.artifact_share_hits, 0, "the founder builds");

    let b = service.create_pool(jurors.clone());
    assert_eq!(service.fingerprint(a).unwrap(), service.fingerprint(b).unwrap());
    let second = service.solve(&DecisionTask::altruism(b)).unwrap();
    check(&service);
    let stats = service.stats();
    assert_eq!(stats.cache_builds, after_first.cache_builds, "second pool must not build");
    assert_eq!(stats.full_repairs, after_first.full_repairs, "second pool must not full-repair");
    assert_eq!(stats.artifact_share_hits, 1, "second pool attaches");
    assert!(service.shares_artifacts_with(a, b).unwrap(), "one interned artifact set");
    assert_eq!(service.artifact_entries(), 1);
    assert_eq!(first, second);
    assert_eq!(first.jer.to_bits(), second.jer.to_bits());

    // The shared answer is literally one allocation across pools.
    let shared = service
        .solve_batch_shared(&[DecisionTask::altruism(a), DecisionTask::altruism(b)])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    check(&service);
    assert!(Arc::ptr_eq(&shared[0], &shared[1]), "cross-pool replays share the cached Arc");

    // PayM rides one shared staircase: a's recording scan is b's hit.
    let hits_before = service.stats().staircase_hits;
    service.solve(&DecisionTask::pay_as_you_go(a, 0.6)).unwrap();
    check(&service);
    service.solve(&DecisionTask::pay_as_you_go(b, 0.6)).unwrap();
    check(&service);
    assert_eq!(
        service.stats().staircase_hits,
        hits_before + 1,
        "the sibling replays the recorded step"
    );
}

#[test]
fn perturbation_detaches_and_mutating_back_rejoins() {
    let jurors = build(&[
        (0.5, 0.2),
        (0.5 + 1e-12, 0.2),
        (0.1, 0.4),
        (1e-12, 0.9),
        (1.0 - 1e-12, 0.05),
        (0.3, 0.3),
    ]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    check(&service);
    service.warm_pool(b).unwrap();
    check(&service);
    assert!(service.shares_artifacts_with(a, b).unwrap());
    let fp_before = service.fingerprint(a).unwrap();

    // An ulp-level ε perturbation is new content: the pool detaches.
    let perturbed = Juror::new(77, ErrorRate::new(0.5 - 1e-12).unwrap(), jurors[0].cost);
    service.update_juror(a, 0, perturbed).unwrap();
    check(&service);
    assert_ne!(service.fingerprint(a).unwrap(), fp_before, "content changed");
    assert_eq!(service.fingerprint(b).unwrap(), fp_before, "sibling untouched");
    assert!(!service.shares_artifacts_with(a, b).unwrap(), "mutation must detach");
    assert_eq!(service.stats().artifact_detaches, 1);
    assert_eq!(service.stats().artifact_rejoins, 0);
    assert_altr_matches_direct(&mut service, a, "detached pool");
    assert_altr_matches_direct(&mut service, b, "surviving sibling");

    // Mutating back restores the fingerprint exactly and re-joins the
    // sibling's entry (content-verified, not hash-trusted).
    service.update_juror(a, 0, jurors[0]).unwrap();
    check(&service);
    assert_eq!(service.fingerprint(a).unwrap(), fp_before);
    assert!(service.shares_artifacts_with(a, b).unwrap(), "equal content re-joins");
    assert_eq!(service.stats().artifact_detaches, 2, "the re-join began as a detach");
    assert_eq!(service.stats().artifact_rejoins, 1);
    assert_altr_matches_direct(&mut service, a, "re-joined pool");
    assert_paym_matches_direct(&mut service, a, 0.8, "re-joined pool");
}

#[test]
fn identically_mutated_siblings_follow_published_entries() {
    // A detaches from siblings → publishes its repaired artifacts under
    // the new key; B mutating the same way re-joins that entry instead
    // of re-repairing alone.
    let jurors = build(&[(0.12, 0.3), (0.2, 0.2), (0.31, 0.1), (0.44, 0.6), (0.08, 0.9)]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    check(&service);
    service.warm_pool(b).unwrap();
    check(&service);
    assert_eq!(service.artifact_entries(), 1);

    let edit = Juror::new(50, ErrorRate::new(0.27).unwrap(), 0.15);
    service.update_juror(a, 2, edit).unwrap();
    check(&service);
    assert!(!service.shares_artifacts_with(a, b).unwrap());
    assert_eq!(service.artifact_entries(), 2, "repaired artifacts published under the new key");
    service.update_juror(b, 2, edit).unwrap();
    check(&service);
    assert!(service.shares_artifacts_with(a, b).unwrap(), "identical mutation re-joins");
    assert_eq!(service.stats().artifact_rejoins, 1);
    assert_eq!(service.artifact_entries(), 1, "the abandoned entry is evicted");
    assert_altr_matches_direct(&mut service, a, "publisher");
    assert_altr_matches_direct(&mut service, b, "follower");
}

#[test]
fn reversed_pools_build_privately() {
    let cases: [(&str, &[(f64, f64)]); 2] = [
        (
            "equal-cost ties",
            &[(0.3, 0.2), (0.1, 0.5), (0.3, 0.2), (0.45, 0.1), (0.2, 0.9), (0.2, 0.9), (0.05, 0.4)],
        ),
        ("mixed-cost ties", &[(0.2, 0.1), (0.2, 0.9), (0.1, 0.3), (0.35, 0.2)]),
    ];
    // Each reversed pool shares the fingerprint but never the entry; a
    // third, sequence-identical pool still attaches to the incumbent, and
    // every pool answers bit-identically to its own direct solves.
    for (ctx, pairs) in cases {
        let jurors = build(pairs);
        let mut permuted = jurors.clone();
        permuted.reverse();
        let mut service = JuryService::new();
        let a = service.create_pool(jurors.clone());
        let b = service.create_pool(permuted.clone());
        let c = service.create_pool(jurors.clone());
        assert_eq!(service.fingerprint(a).unwrap(), service.fingerprint(b).unwrap(), "{ctx}");
        service.warm_pool(a).unwrap();
        check(&service);
        service.warm_pool(b).unwrap();
        check(&service);
        assert!(!service.shares_artifacts_with(a, b).unwrap(), "{ctx}: permuted pools never share");
        assert_eq!(service.artifact_entries(), 1, "{ctx}: the permuted pool must not clobber");
        service.warm_pool(c).unwrap();
        check(&service);
        assert!(service.shares_artifacts_with(a, c).unwrap(), "{ctx}: the incumbent survives");
        assert!(!service.shares_artifacts_with(b, c).unwrap(), "{ctx}");
        assert_eq!(
            service.stats().artifact_share_hits,
            1,
            "{ctx}: only the identical pool attaches"
        );
        for (pool, name) in [(a, "founding"), (b, "permuted"), (c, "identical")] {
            assert_altr_matches_direct(&mut service, pool, &format!("{ctx} {name}"));
            for budget in [0.0, 0.35, 0.81, 2.0, f64::MAX] {
                assert_paym_matches_direct(&mut service, pool, budget, &format!("{ctx} {name}"));
            }
        }
        assert_eq!(service.artifact_entries(), 1, "{ctx}: solving never publishes over it");
        // The permuted pool's private ε order is its own sort.
        let mut own_order = Vec::new();
        jury_core::solver::sorted_order_into(&permuted, &mut own_order);
        assert_eq!(service.reliability_order(b).unwrap(), own_order.as_slice(), "{ctx}");
        check(&service);
    }
}

#[test]
fn mutated_back_permuted_pool_never_rejoins() {
    // A mutation whose post-mutation multiset matches an interned entry
    // in a different arrangement stays private; the entry is untouched.
    let jurors = build(&[(0.12, 0.3), (0.2, 0.2), (0.31, 0.1), (0.44, 0.6)]);
    let mut swapped = jurors.clone();
    swapped.swap(0, 3);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    let p = service.create_pool(swapped.clone());
    service.warm_pool(a).unwrap();
    check(&service);
    service.warm_pool(b).unwrap();
    check(&service);
    service.warm_pool(p).unwrap();
    check(&service);
    // Move p away from the shared multiset and back: same fingerprint as
    // the entry, different arrangement.
    let away = Juror::new(60, ErrorRate::new(0.27).unwrap(), 0.15);
    service.update_juror(p, 1, away).unwrap();
    check(&service);
    service.update_juror(p, 1, swapped[1]).unwrap();
    check(&service);
    assert_eq!(service.fingerprint(p).unwrap(), service.fingerprint(a).unwrap());
    assert!(!service.shares_artifacts_with(a, p).unwrap());
    assert_eq!(service.stats().artifact_rejoins, 0);
    assert!(service.shares_artifacts_with(a, b).unwrap(), "the incumbent keeps its holders");
    assert_altr_matches_direct(&mut service, p, "mutated permuted pool");
    assert_paym_matches_direct(&mut service, p, 0.7, "mutated permuted pool");
    assert_altr_matches_direct(&mut service, a, "incumbent holder");
}

#[test]
fn removing_pools_evicts_orphaned_entries() {
    let jurors = build(&[(0.2, 0.4), (0.3, 0.1), (0.15, 0.7)]);
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.warm_pool(a).unwrap();
    check(&service);
    service.warm_pool(b).unwrap();
    check(&service);
    assert_eq!(service.artifact_entries(), 1);
    service.remove_pool(a).unwrap();
    check(&service);
    assert_eq!(service.artifact_entries(), 1, "the sibling keeps the entry alive");
    service.remove_pool(b).unwrap();
    check(&service);
    assert_eq!(service.artifact_entries(), 0, "the last holder's removal evicts");
}

#[test]
fn sole_holder_perturb_and_restore_reclaims_without_rejoin() {
    // A sole holder's write reclaims its set zero-copy and drops the
    // old entry, so a later write that restores the founding content
    // has nothing to re-join: the pool settles under the founding key
    // with its own repaired set, and answers stay exact.
    let jurors = build(&[(0.12, 0.3), (0.2, 0.2), (0.31, 0.1), (0.44, 0.6), (0.08, 0.9)]);
    let mut service = JuryService::new();
    let p = service.create_pool(jurors.clone());
    service.warm_pool(p).unwrap();
    check(&service);
    let perturbed = Juror::new(91, ErrorRate::new(0.45).unwrap(), 0.2);
    service.update_juror(p, 2, perturbed).unwrap();
    check(&service);
    service.update_juror(p, 2, jurors[2]).unwrap();
    check(&service);
    assert_eq!(service.stats().artifact_rejoins, 0, "the reclaimed entry is gone");
    assert_eq!(service.artifact_entries(), 1, "only the written pool's key is listed");
    assert_altr_matches_direct(&mut service, p, "restored sole holder");
    assert_paym_matches_direct(&mut service, p, 0.8, "restored sole holder");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Rearranged juror multisets produce equal fingerprints but
    // share artifacts only when the arrangement is content-identical
    // (a shuffle can land on the founding sequence); every answer stays
    // bit-identical to the pool's own direct solve, and the incumbent
    // entry is never clobbered.
    #[test]
    fn permuted_pools_share_fingerprints_never_artifacts(
        pairs in pools(60),
        seed in 1u64..u64::MAX,
        budget in 0.0..3.0f64,
    ) {
        let jurors = build(&pairs);
        let permuted = shuffled(&jurors, seed);
        let mut service = JuryService::new();
        let a = service.create_pool(jurors.clone());
        let b = service.create_pool(permuted.clone());
        prop_assert_eq!(
            service.fingerprint(a).unwrap(),
            service.fingerprint(b).unwrap(),
            "equal multisets must produce equal fingerprints"
        );
        service.warm_pool(a).unwrap();
        check(&service);
        service.warm_pool(b).unwrap();
        check(&service);
        let identical = content(&jurors) == content(&permuted);
        prop_assert_eq!(service.shares_artifacts_with(a, b).unwrap(), identical);
        prop_assert_eq!(service.stats().artifact_share_hits, usize::from(identical));
        prop_assert_eq!(service.artifact_entries(), 1, "the incumbent is never clobbered");
        assert_altr_matches_direct(&mut service, a, "founding pool");
        assert_altr_matches_direct(&mut service, b, "permuted pool");
        assert_paym_matches_direct(&mut service, a, budget, "founding pool");
        assert_paym_matches_direct(&mut service, b, budget, "permuted pool");
        prop_assert_eq!(service.artifact_entries(), 1);
    }

    // Any single-juror ε perturbation changes the fingerprint and
    // detaches; restoring the juror re-joins. Adversarial rates are in
    // the pool generator.
    #[test]
    fn single_juror_perturbations_always_detach(
        pairs in pools(40),
        victim in any::<prop::sample::Index>(),
        flip in any::<bool>(),
    ) {
        let jurors = build(&pairs);
        let mut service = JuryService::new();
        let a = service.create_pool(jurors.clone());
        let b = service.create_pool(jurors.clone());
        service.warm_pool(a).unwrap();
        check(&service);
        service.warm_pool(b).unwrap();
        check(&service);
        prop_assert!(service.shares_artifacts_with(a, b).unwrap());
        let fp = service.fingerprint(a).unwrap();

        let idx = victim.index(jurors.len());
        let old = jurors[idx];
        // One-ulp ε moves in either direction are new content.
        let eps_bits = old.epsilon().to_bits();
        let new_eps = f64::from_bits(if flip { eps_bits + 1 } else { eps_bits - 1 });
        prop_assume!(new_eps > 0.0 && new_eps < 1.0);
        service.update_juror(a, idx, Juror::new(999, ErrorRate::new(new_eps).unwrap(), old.cost))
            .unwrap();
        check(&service);
        prop_assert_ne!(service.fingerprint(a).unwrap(), fp, "perturbed content, new key");
        prop_assert!(!service.shares_artifacts_with(a, b).unwrap(), "perturbation must detach");
        assert_altr_matches_direct(&mut service, a, "perturbed pool");

        service.update_juror(a, idx, old).unwrap();
        check(&service);
        prop_assert_eq!(service.fingerprint(a).unwrap(), fp, "restored content, restored key");
        prop_assert!(service.shares_artifacts_with(a, b).unwrap(), "restoration re-joins");
        prop_assert!(service.stats().artifact_rejoins >= 1);
        assert_altr_matches_direct(&mut service, a, "re-joined pool");
    }
}
