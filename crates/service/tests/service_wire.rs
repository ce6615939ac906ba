//! Wire round-trips for the service-level types that `/stats` and the
//! HTTP front-end's error envelope serve: [`ServiceStats`] snapshots
//! straight off a worked service, and every [`ServiceError`] variant.

use jury_core::error::JuryError;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_service::{DecisionTask, JuryService, ServiceError, ServiceStats};
use serde::{json, Deserialize, Serialize};

fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T) {
    let text = json::to_string(value);
    let back: T = json::from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(&back, value, "{text}");
}

#[test]
fn service_stats_round_trip() {
    // The zero snapshot and a snapshot with real counter activity both
    // survive the wire bit-exactly (`ServiceStats` is `Eq`, so equality
    // covers every field).
    round_trip(&ServiceStats::default());

    let jurors =
        pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4), (0.25, 0.3), (0.4, 0.6)])
            .unwrap();
    let mut service = JuryService::new();
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors.clone());
    service.solve(&DecisionTask::altruism(a)).unwrap();
    service.solve(&DecisionTask::altruism(b)).unwrap();
    service.solve(&DecisionTask::pay_as_you_go(a, 0.7)).unwrap();
    service.update_juror(a, 0, Juror::new(9, ErrorRate::new(0.17).unwrap(), 0.2)).unwrap();
    let stats = service.stats();
    assert!(stats.tasks_solved > 0 && stats.artifact_share_hits > 0 && stats.cache_builds > 0);
    round_trip(&stats);

    // The follower-side gauges and adoption counters ride the same
    // wire: non-zero values survive bit-exactly.
    round_trip(&ServiceStats {
        follower_generation: 7,
        follower_lag_ms: 1_234,
        generations_adopted: 3,
        adoptions_rejected: 1,
        ..Default::default()
    });

    // Unknown counters from a newer peer are ignored; absent counters
    // read as zero (forward compatibility for `/stats` consumers).
    let lax: ServiceStats =
        json::from_str(r#"{"tasks_solved": 3, "counter_from_the_future": 9}"#).unwrap();
    assert_eq!(lax, ServiceStats { tasks_solved: 3, ..Default::default() });
    // A pre-failover peer that has never heard of the follower gauges
    // still parses — the new counters read as zero, not as an error.
    let lax: ServiceStats = json::from_str(r#"{"generations_adopted": 2}"#).unwrap();
    assert_eq!(lax, ServiceStats { generations_adopted: 2, ..Default::default() });
    assert!(json::from_str::<ServiceStats>("17").is_err(), "non-objects are refused");
}

/// Every field of a [`ServiceStats`] holding a distinct value, so a
/// swapped pair of keys shows in the golden text.
fn distinct_stats() -> ServiceStats {
    ServiceStats {
        tasks_solved: 1,
        cache_hits: 2,
        cache_builds: 3,
        batches: 4,
        cache_invalidations: 5,
        order_repairs: 6,
        insert_repairs: 7,
        staircase_hits: 8,
        pmf_repairs: 9,
        pmf_rebuilds: 10,
        full_repairs: 11,
        bound_pruned: 13,
        artifact_share_hits: 14,
        artifact_detaches: 15,
        artifact_rejoins: 16,
        snapshot_restores: 18,
        snapshot_rejections: 19,
        snapshot_generation: 21,
        snapshot_age_ms: 22,
        follower_generation: 23,
        follower_lag_ms: 24,
        generations_adopted: 25,
        adoptions_rejected: 26,
    }
}

/// Golden wire text. Key names and key order are protocol, and
/// `service_stats_round_trip` decodes its own output, so it cannot see a
/// renamed or reordered key; this string pins both verbatim.
#[test]
fn service_stats_golden_wire() {
    const GOLDEN: &str = r#"{"tasks_solved":1,"cache_hits":2,"cache_builds":3,"batches":4,"cache_invalidations":5,"order_repairs":6,"insert_repairs":7,"staircase_hits":8,"pmf_repairs":9,"pmf_rebuilds":10,"full_repairs":11,"bound_pruned":13,"artifact_share_hits":14,"artifact_detaches":15,"artifact_rejoins":16,"snapshot_restores":18,"snapshot_rejections":19,"snapshot_generation":21,"snapshot_age_ms":22,"follower_generation":23,"follower_lag_ms":24,"generations_adopted":25,"adoptions_rejected":26}"#;
    let stats = distinct_stats();
    assert_eq!(json::to_string(&stats), GOLDEN);
    assert_eq!(json::from_str::<ServiceStats>(GOLDEN).unwrap(), stats);
}

/// A body written by servers that still reported `profile_repairs`:
/// the dropped key is skipped and every remaining field decodes to the
/// value it carries.
#[test]
fn older_service_stats_body_still_decodes() {
    const OLDER_GOLDEN: &str = r#"{"tasks_solved":1,"cache_hits":2,"cache_builds":3,"batches":4,"cache_invalidations":5,"order_repairs":6,"insert_repairs":7,"staircase_hits":8,"pmf_repairs":9,"pmf_rebuilds":10,"full_repairs":11,"profile_repairs":12,"bound_pruned":13,"artifact_share_hits":14,"artifact_detaches":15,"artifact_rejoins":16,"snapshot_restores":18,"snapshot_rejections":19,"snapshot_generation":21,"snapshot_age_ms":22,"follower_generation":23,"follower_lag_ms":24,"generations_adopted":25,"adoptions_rejected":26}"#;
    assert_eq!(json::from_str::<ServiceStats>(OLDER_GOLDEN).unwrap(), distinct_stats());
}

#[test]
fn service_errors_round_trip() {
    // `PoolId`s are only minted by a service, so harvest real ones from
    // real failures.
    let mut service = JuryService::new();
    let jurors = pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4)]).unwrap();
    let pool = service.create_pool(jurors.clone());
    let removed = service.create_pool(jurors);
    service.remove_pool(removed).unwrap();
    let unknown = service.solve(&DecisionTask::altruism(removed)).unwrap_err();
    assert!(matches!(unknown, ServiceError::UnknownPool(_)));
    let out_of_range = service.remove_juror(pool, 99).unwrap_err();
    assert!(matches!(out_of_range, ServiceError::JurorOutOfRange { .. }));
    for err in [
        unknown,
        out_of_range,
        ServiceError::Solver(JuryError::EmptyPool),
        ServiceError::Solver(JuryError::NoFeasibleJury { budget: 0.125 }),
        ServiceError::Solver(JuryError::VotingSizeMismatch { expected: 5, actual: 2 }),
    ] {
        round_trip(&err);
    }
    assert!(json::from_str::<ServiceError>(r#"{"kind": "martian"}"#).is_err());
}
