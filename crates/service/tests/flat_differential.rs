//! Differential harness: the warm service must be invisible.
//!
//! These properties drive identical task streams and mutation sequences
//! through a [`JuryService`] and the direct solvers, and assert
//! **bit-identical** [`Selection`]s — members, JER bits, cost bits and
//! solver stats — including solver errors, budgets sitting on the greedy
//! order's affordability cliffs, and interleaved insert/update/remove
//! sequences whose in-place order repairs must leave every
//! answer exactly where a fresh solve puts it.
//!
//! Every PayM assertion also exercises the **budget staircase**: each
//! service task is solved twice (the staircase-recording miss and the
//! binary-search replay hit), and [`check_staircase`] drives a standalone
//! [`Staircase`] against `PayAlg::solve_presorted` on budgets sitting
//! exactly on, just under and between the affordability cliffs.
//!
//! The service's store invariants ([`JuryService::check_invariants`])
//! are checked after every service call.

use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig, Staircase};
use jury_core::problem::Selection;
use jury_core::solver::SolverScratch;
use jury_service::{DecisionTask, JuryService, PoolId, ServiceError};
use proptest::collection::vec;
use proptest::prelude::*;

/// Random `(ε, cost)` pools. Rates are quantised so equal keys (the
/// tie-break paths of both comparators) occur routinely.
fn pools(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    vec((0.001..0.999f64, 0.0..1.0f64), 1..=max_len).prop_map(|mut pairs| {
        for (i, (e, c)) in pairs.iter_mut().enumerate() {
            if i % 3 == 0 {
                *e = (*e * 16.0).ceil() / 16.0 - 1.0 / 32.0;
                *c = (*c * 4.0).floor() / 4.0;
            }
        }
        pairs
    })
}

fn build(pairs: &[(f64, f64)]) -> Vec<Juror> {
    pool_from_rates_and_costs(pairs).unwrap()
}

/// Fails the test when the service's store invariants do not hold.
fn check(service: &JuryService) {
    if let Err(broken) = service.check_invariants() {
        panic!("store invariant broken: {broken}");
    }
}

/// Bit-level equality including solver stats (`PartialEq` on `Selection`
/// compares floats numerically; pin the exact bit patterns on top).
fn assert_identical(
    got: &Result<Selection, ServiceError>,
    want: &Result<Selection, ServiceError>,
    ctx: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g, w, "{ctx}");
            assert_eq!(g.jer.to_bits(), w.jer.to_bits(), "{ctx}: jer bits");
            assert_eq!(g.total_cost.to_bits(), w.total_cost.to_bits(), "{ctx}: cost bits");
            assert_eq!(g.stats, w.stats, "{ctx}: solver stats");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{ctx}"),
        other => panic!("{ctx}: divergence: {other:?}"),
    }
}

/// Bit-level *selection* equality — members, JER bits, cost bits — with
/// stats exempted: the documented contract between the bound-pruned
/// AltrM scan (what the service runs) and the full presorted scan. The
/// accounting identity `jer_evaluations + pruned_by_bound ==
/// candidates_considered` is pinned instead.
fn assert_selection_identical(
    got: &Result<Selection, ServiceError>,
    want: &Result<Selection, ServiceError>,
    ctx: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.members, w.members, "{ctx}: members");
            assert_eq!(g.jer.to_bits(), w.jer.to_bits(), "{ctx}: jer bits");
            assert_eq!(g.total_cost.to_bits(), w.total_cost.to_bits(), "{ctx}: cost bits");
            assert_eq!(
                g.stats.candidates_considered, w.stats.candidates_considered,
                "{ctx}: candidate counts"
            );
            assert_eq!(
                g.stats.jer_evaluations + g.stats.pruned_by_bound,
                w.stats.jer_evaluations + w.stats.pruned_by_bound,
                "{ctx}: every size is either evaluated or pruned"
            );
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{ctx}"),
        other => panic!("{ctx}: pruned/full divergence: {other:?}"),
    }
}

/// Solves AltrM over `jurors` through both `AltrAlg::solve_presorted`
/// (the full scan) and `AltrAlg::solve_pruned` (the service's
/// rescan-free bound sweep), asserting bit-identical selections, and
/// returns the pruned answer so callers can pin service replies against
/// it *stats included* (the service runs exactly this scan).
fn check_altr_pruned(jurors: &[Juror], ctx: &str) -> Result<Selection, ServiceError> {
    let mut order = Vec::new();
    jury_core::solver::sorted_order_into(jurors, &mut order);
    let alg = AltrAlg::default();
    let full =
        alg.solve_presorted(jurors, &order, &mut SolverScratch::new()).map_err(ServiceError::from);
    let pruned =
        alg.solve_pruned(jurors, &order, &mut SolverScratch::new()).map_err(ServiceError::from);
    assert_selection_identical(&pruned, &full, &format!("{ctx}: pruned vs presorted"));
    pruned
}

/// The greedy order's exact affordability cliffs (cumulative costs),
/// just under and halfway to each, plus the endpoints and an unlimited
/// budget.
fn boundary_budgets(jurors: &[Juror]) -> Vec<f64> {
    let mut order = Vec::new();
    PayAlg::greedy_order_into(jurors, &mut order);
    let mut budgets = vec![0.0, f64::MAX];
    let mut acc = 0.0;
    for (i, &j) in order.iter().enumerate() {
        acc += jurors[j].cost;
        // Sampled so the list stays small on big pools.
        if i % 3 == 0 || i + 1 == order.len() {
            budgets.push(acc);
            budgets.push(acc - 1e-9);
            budgets.push(acc * 0.5);
        }
    }
    budgets
}

/// Solves one task on the service and directly, asserting they agree
/// bit-for-bit. AltrM answers are pinned against the direct full scan
/// (stats exempted) and the standalone pruned scan (stats included);
/// PayM tasks are solved twice so both the staircase-recording miss and
/// the replay hit are pinned against the direct scan.
fn check_task(service: &mut JuryService, pool: PoolId, model: CrowdModel, ctx: &str) {
    let task = DecisionTask { pool, model };
    let got = service.solve(&task);
    check(service);
    let jurors = service.pool(pool).unwrap().to_vec();
    match model {
        CrowdModel::Altruism => {
            let direct =
                AltrAlg::solve(&jurors, &AltrConfig::default()).map_err(ServiceError::from);
            assert_selection_identical(&got, &direct, &format!("{ctx}: service vs direct"));
            let pruned = check_altr_pruned(&jurors, ctx);
            assert_identical(&got, &pruned, &format!("{ctx}: service vs pruned scan"));
        }
        CrowdModel::PayAsYouGo { budget } => {
            let direct =
                PayAlg::solve(&jurors, budget, &PayConfig::default()).map_err(ServiceError::from);
            assert_identical(&got, &direct, &format!("{ctx}: service vs direct"));
            let hit = service.solve(&task);
            check(service);
            assert_identical(&hit, &direct, &format!("{ctx}: staircase hit vs direct"));
        }
    }
}

/// Drives a standalone [`Staircase`] over the pool's greedy order across
/// `budgets`, asserting both the recording miss and the replay hit are
/// bit-identical to [`PayAlg::solve_presorted`] — the staircase contract
/// independent of any service plumbing.
fn check_staircase(jurors: &[Juror], budgets: &[f64], ctx: &str) {
    let mut order = Vec::new();
    PayAlg::greedy_order_into(jurors, &mut order);
    let mut staircase = Staircase::new();
    let mut scratch = SolverScratch::new();
    for &budget in budgets {
        let alg = PayAlg::new(budget, PayConfig::default());
        let direct = alg
            .solve_presorted(jurors, &order, &mut SolverScratch::new())
            .map_err(ServiceError::from);
        for round in ["miss", "hit"] {
            let got = alg
                .solve_staircase(jurors, &order, &mut staircase, &mut scratch)
                .map_err(ServiceError::from);
            assert_identical(&got, &direct, &format!("{ctx}: staircase {round} budget={budget}"));
        }
    }
}

proptest! {
    // Interleaved insert/update/remove sequences keep the repaired warm
    // service bit-identical to fresh solves after each mutation.
    #[test]
    fn mutation_sequences_stay_identical(
        pairs in pools(48),
        ops in vec((0usize..3, (0.001..0.999f64, 0.0..1.0f64), any::<prop::sample::Index>()), 1..10),
        budget in 0.0..2.0f64,
    ) {
        let mut service = JuryService::new();
        let pool = service.create_pool(build(&pairs));
        // Warm everything a mutation can repair: orders and AltrM answer.
        service.warm_pool(pool).unwrap();
        check(&service);

        for (step, (kind, (e, c), idx)) in ops.iter().enumerate() {
            let len = service.pool(pool).unwrap().len();
            // Keep pools non-empty so update/remove indices resolve.
            let kind = if len == 0 { 0 } else { *kind };
            let juror = Juror::new(1000 + step as u32, ErrorRate::new(*e).unwrap(), *c);
            match kind {
                0 => {
                    prop_assert_eq!(service.insert_juror(pool, juror).unwrap(), len);
                }
                1 => service.update_juror(pool, idx.index(len), juror).unwrap(),
                _ => {
                    let i = idx.index(len);
                    let expected = service.pool(pool).unwrap()[i];
                    prop_assert_eq!(service.remove_juror(pool, i).unwrap(), expected);
                }
            }
            check(&service);
            let current = service.pool(pool).unwrap().to_vec();
            let mut budgets = vec![budget, f64::MAX];
            if !current.is_empty() {
                let total: f64 = current.iter().map(|j| j.cost).sum();
                budgets.push(total * 0.5);
                // A fresh staircase over the mutated pool must replay the
                // direct scan bit-for-bit on every affordability cliff.
                check_staircase(&current, &boundary_budgets(&current), &format!("step={step}"));
            }
            // The pruned scan stays bit-identical to the full scan on the
            // mutated pool, and the repaired warm path must reproduce it
            // exactly (stats included).
            let altr_ref = check_altr_pruned(&current, &format!("step={step}"));
            let altr = service.solve(&DecisionTask::altruism(pool));
            check(&service);
            assert_identical(&altr, &altr_ref, &format!("step={step} repaired altr"));
            for &b in &budgets {
                check_task(
                    &mut service,
                    pool,
                    CrowdModel::PayAsYouGo { budget: b },
                    &format!("step={step} budget={b}"),
                );
            }
        }
    }

    // The warm-artifact store must be invisible: replicated pools served
    // from one interned artifact set answer bit-identically — members,
    // JER bits, cost bits *and* stats — to a one-pool service, which
    // never shares, across interleaved mutations that detach pools copy-on-write,
    // publish repaired artifacts and re-join converged siblings. Every
    // PayM task is solved twice so the shared staircase's replay hit is
    // pinned too.
    #[test]
    fn shared_artifacts_match_private_across_detach_rejoin(
        pairs in pools(40),
        edits in vec(((0.001..0.999f64, 0.0..1.0f64), any::<prop::sample::Index>()), 1..5),
        budget in 0.0..2.0f64,
    ) {
        let jurors = build(&pairs);
        let mut shared = JuryService::new();
        let mut private = JuryService::new();
        let replicas: Vec<PoolId> = (0..3).map(|_| shared.create_pool(jurors.clone())).collect();
        let p = private.create_pool(jurors.clone());

        let agree = |shared: &mut JuryService, private: &mut JuryService, pool: PoolId, ctx: &str| {
            let altr = DecisionTask::altruism(pool);
            let altr_p = DecisionTask::altruism(p);
            let (got, want) = (shared.solve(&altr), private.solve(&altr_p));
            check(shared);
            check(private);
            assert_identical(&got, &want, &format!("{ctx}: altr"));
            let len = private.pool(p).unwrap().len() as f64;
            for b in [budget, budget * len, f64::MAX] {
                let task = DecisionTask::pay_as_you_go(pool, b);
                let task_p = DecisionTask::pay_as_you_go(p, b);
                let want = private.solve(&task_p);
                check(private);
                for round in ["paym", "paym replay"] {
                    let got = shared.solve(&task);
                    check(shared);
                    assert_identical(&got, &want, &format!("{ctx}: {round} {b}"));
                }
            }
        };

        for (i, &pool) in replicas.iter().enumerate() {
            agree(&mut shared, &mut private, pool, &format!("cold replica {i}"));
        }
        prop_assert!(
            shared.shares_artifacts_with(replicas[0], replicas[2]).unwrap(),
            "replicas must share one artifact set"
        );

        for (step, ((e, c), idx)) in edits.iter().enumerate() {
            let i = idx.index(jurors.len());
            let edit = Juror::new(2000 + step as u32, ErrorRate::new(*e).unwrap(), *c);
            private.update_juror(p, i, edit).unwrap();
            check(&private);
            // Staggered application: the first replica detaches (and
            // publishes — it had siblings), the rest re-join the
            // published entry one by one.
            for (r, &pool) in replicas.iter().enumerate() {
                shared.update_juror(pool, i, edit).unwrap();
                check(&shared);
                agree(&mut shared, &mut private, pool, &format!("step={step} replica {r}"));
            }
            prop_assert!(
                shared.shares_artifacts_with(replicas[0], replicas[2]).unwrap(),
                "step={}: identically-mutated replicas must converge", step
            );
        }
        let stats = shared.stats();
        prop_assert!(stats.artifact_detaches >= 3, "every replica detached");
        prop_assert!(stats.artifact_rejoins >= 2, "followers re-joined");
    }
}

/// Deterministic sweep over small and odd pool sizes on both models,
/// every affordability cliff included.
#[test]
fn size_sweep() {
    for n in (1..=34).chain([49, 96, 97]) {
        let quotes: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                (0.02 + 0.93 * u, ((i * 7) % 5) as f64 / 5.0)
            })
            .collect();
        let jurors = build(&quotes);
        let budgets = boundary_budgets(&jurors);
        check_staircase(&jurors, &budgets, &format!("sweep n={n}"));
        let mut service = JuryService::new();
        let pool = service.create_pool(jurors);
        check_task(&mut service, pool, CrowdModel::Altruism, &format!("n={n}"));
        for &b in &budgets {
            check_task(
                &mut service,
                pool,
                CrowdModel::PayAsYouGo { budget: b },
                &format!("n={n} budget={b}"),
            );
        }
    }
}
