//! Service error-path coverage: stale pool handles, out-of-range juror
//! indices and batches mixing valid and invalid tasks. The happy paths
//! live in `equivalence.rs` / `flat_differential.rs`; these tests pin
//! the failure contract.

use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::error::JuryError;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::paym::{PayAlg, PayConfig};
use jury_service::{DecisionTask, JuryService, PoolId, ServiceError};

fn jurors() -> Vec<Juror> {
    pool_from_rates_and_costs(&[
        (0.1, 0.2),
        (0.2, 0.2),
        (0.2, 0.3),
        (0.3, 0.4),
        (0.3, 0.65),
        (0.4, 0.05),
        (0.4, 0.05),
    ])
    .unwrap()
}

#[test]
fn stale_pool_id_after_remove_pool_fails_everywhere() {
    let mut service = JuryService::new();
    let stale = service.create_pool(jurors());
    service.warm_pool(stale).unwrap();
    let returned = service.remove_pool(stale).unwrap();
    assert_eq!(returned.len(), 7);

    // A new pool must get a fresh id: the stale handle never aliases.
    let fresh = service.create_pool(jurors());
    assert_ne!(fresh, stale, "ids are never reused");

    let expect_unknown = ServiceError::UnknownPool(stale);
    assert_eq!(service.solve(&DecisionTask::altruism(stale)), Err(expect_unknown.clone()));
    assert_eq!(
        service.solve(&DecisionTask::pay_as_you_go(stale, 1.0)),
        Err(expect_unknown.clone())
    );
    assert_eq!(service.warm_pool(stale), Err(expect_unknown.clone()));
    assert_eq!(service.pool(stale).unwrap_err(), expect_unknown);
    assert_eq!(service.reliability_order(stale).unwrap_err(), expect_unknown);
    assert_eq!(
        service.insert_juror(stale, Juror::new(1, ErrorRate::new(0.2).unwrap(), 0.0)),
        Err(expect_unknown.clone())
    );
    assert_eq!(
        service.update_juror(stale, 0, Juror::new(1, ErrorRate::new(0.2).unwrap(), 0.0)),
        Err(expect_unknown.clone())
    );
    assert_eq!(service.remove_juror(stale, 0), Err(expect_unknown.clone()));
    assert_eq!(service.remove_pool(stale), Err(expect_unknown));

    // The fresh pool is unaffected.
    assert!(service.solve(&DecisionTask::altruism(fresh)).is_ok());
    assert!(!service.is_warm(stale), "stale handles are never warm");
}

#[test]
fn out_of_range_juror_indices_fail_without_invalidating() {
    let mut service = JuryService::new();
    let pool = service.create_pool(jurors());
    service.warm_pool(pool).unwrap();
    let j = Juror::new(9, ErrorRate::new(0.2).unwrap(), 0.0);
    for index in [7usize, 8, usize::MAX] {
        assert_eq!(
            service.update_juror(pool, index, j),
            Err(ServiceError::JurorOutOfRange { pool, index, len: 7 })
        );
        assert_eq!(
            service.remove_juror(pool, index),
            Err(ServiceError::JurorOutOfRange { pool, index, len: 7 })
        );
    }
    // A failed mutation must not touch cached state.
    assert!(service.is_warm(pool), "failed mutations must not invalidate");
    assert_eq!(service.stats().cache_invalidations, 0);
}

#[test]
fn batches_mixing_valid_and_invalid_tasks_stay_positional() {
    let mut service = JuryService::new();
    let pool = service.create_pool(jurors());
    let empty = service.create_pool(vec![]);
    let ghost = PoolId::from_raw_for_tests();

    let tasks = vec![
        DecisionTask::altruism(pool),                // ok
        DecisionTask::altruism(ghost),               // unknown pool
        DecisionTask::pay_as_you_go(pool, f64::NAN), // invalid budget
        DecisionTask::pay_as_you_go(pool, 1.0),      // ok
        DecisionTask::altruism(empty),               // empty pool
        DecisionTask::pay_as_you_go(pool, 0.001),    // infeasible budget
        DecisionTask::pay_as_you_go(ghost, 1.0),     // unknown pool
        DecisionTask::altruism(pool),                // ok (warm replay)
    ];
    let results = service.solve_batch(&tasks);
    assert_eq!(results.len(), tasks.len());

    let direct_altr = AltrAlg::solve(&jurors(), &AltrConfig::default()).unwrap();
    let direct_pay = PayAlg::solve(&jurors(), 1.0, &PayConfig::default()).unwrap();
    assert_eq!(results[0].as_ref().unwrap(), &direct_altr);
    assert_eq!(results[1], Err(ServiceError::UnknownPool(ghost)));
    assert!(
        matches!(results[2], Err(ServiceError::Solver(JuryError::InvalidBudget(_)))),
        "{:?}",
        results[2]
    );
    assert_eq!(results[3].as_ref().unwrap(), &direct_pay);
    assert_eq!(results[4], Err(ServiceError::Solver(JuryError::EmptyPool)));
    assert_eq!(results[5], Err(ServiceError::Solver(JuryError::NoFeasibleJury { budget: 0.001 })));
    assert_eq!(results[6], Err(ServiceError::UnknownPool(ghost)));
    assert_eq!(results[7].as_ref().unwrap(), &direct_altr);

    // Error tasks still count as solved attempts; the batch counter
    // advances once.
    let stats = service.stats();
    assert_eq!(stats.tasks_solved, tasks.len());
    assert_eq!(stats.batches, 1);
}

/// Helper constructing an unregistered id without exposing internals:
/// round-trip through the wire format.
trait GhostId {
    fn from_raw_for_tests() -> PoolId;
}

impl GhostId for PoolId {
    fn from_raw_for_tests() -> PoolId {
        serde::json::from_str("404404").expect("PoolId deserializes from a number")
    }
}
