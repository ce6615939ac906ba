//! The per-task timing hook: `solve_batch_shared_timed` must fill one
//! solver duration per task however the batch is answered (on the caller
//! thread — a batch within one worker's share, or one configured thread —
//! or over the scoped worker fan-out) while returning answers
//! bit-identical to the untimed entry point.

use jury_core::juror::pool_from_rates_and_costs;
use jury_core::problem::Selection;
use jury_service::{DecisionTask, JuryService, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

fn build_service(threads: usize) -> (JuryService, Vec<DecisionTask>) {
    let pairs: Vec<(f64, f64)> =
        (0..25).map(|i| (0.05 + (i as f64) / 30.0, 0.1 + ((i * 7) % 5) as f64 / 5.0)).collect();
    let jurors = pool_from_rates_and_costs(&pairs).unwrap();
    let mut service = JuryService::with_config(ServiceConfig { threads, ..Default::default() });
    let a = service.create_pool(jurors.clone());
    let b = service.create_pool(jurors);
    let tasks: Vec<DecisionTask> = (0..64)
        .map(|i| {
            let pool = if i % 2 == 0 { a } else { b };
            if i % 3 == 0 {
                DecisionTask::altruism(pool)
            } else {
                DecisionTask::pay_as_you_go(pool, 0.4 + (i % 5) as f64 * 0.3)
            }
        })
        .collect();
    (service, tasks)
}

fn assert_bit_identical(
    timed: &[Result<Arc<Selection>, ServiceError>],
    untimed: &[Result<Arc<Selection>, ServiceError>],
) {
    assert_eq!(timed.len(), untimed.len());
    for (t, u) in timed.iter().zip(untimed) {
        match (t, u) {
            (Ok(t), Ok(u)) => {
                assert_eq!(t.members, u.members);
                assert_eq!(t.jer.to_bits(), u.jer.to_bits());
                assert_eq!(t.total_cost.to_bits(), u.total_cost.to_bits());
            }
            (t, u) => assert_eq!(t, u),
        }
    }
}

fn exercise(threads: usize, batch: usize) {
    // `build_service` is deterministic, so a second call is an identical
    // untimed twin.
    let (mut timed_service, tasks) = build_service(threads);
    let (mut untimed_service, _) = build_service(threads);
    let tasks = &tasks[..batch];

    // A dirty buffer must come back cleared and exactly batch-sized.
    let mut timings = vec![Duration::from_secs(999); 3];
    let timed = timed_service.solve_batch_shared_timed(tasks, &mut timings);
    let untimed = untimed_service.solve_batch_shared(tasks);

    assert_bit_identical(&timed, &untimed);
    assert_eq!(timings.len(), tasks.len());
    assert!(timings.iter().all(|d| *d < Duration::from_secs(1)), "stale entries survived");
    let total: Duration = timings.iter().sum();
    assert!(total > Duration::ZERO, "no path recorded any solver time");
}

#[test]
fn timed_batches_cover_every_dispatch_path() {
    exercise(1, 4); // caller thread: within one worker's share
    exercise(1, 64); // caller thread: one configured thread
    exercise(2, 64); // scoped worker fan-out (two chunks of 32)
}

#[test]
fn timed_batches_report_failures_positionally() {
    let (mut service, mut tasks) = build_service(1);
    let doomed = service.create_pool(pool_from_rates_and_costs(&[(0.2, 0.1)]).unwrap());
    service.remove_pool(doomed).unwrap();
    tasks[5] = DecisionTask::altruism(doomed);
    let mut timings = Vec::new();
    let out = service.solve_batch_shared_timed(&tasks, &mut timings);
    assert_eq!(out[5], Err(ServiceError::UnknownPool(doomed)));
    assert_eq!(timings.len(), tasks.len());
    assert!(out.iter().enumerate().all(|(i, r)| i == 5 || r.is_ok()));
}

#[test]
fn a_cold_warm_is_timed_on_the_task_that_needed_it() {
    let (mut service, _) = build_service(1);
    let pool = service.create_pool(
        pool_from_rates_and_costs(
            &(0..400).map(|i| (0.02 + (i as f64) / 420.0, 0.1)).collect::<Vec<_>>(),
        )
        .unwrap(),
    );
    let tasks = [DecisionTask::altruism(pool); 2];
    let mut timings = Vec::new();
    let out = service.solve_batch_shared_timed(&tasks, &mut timings);
    assert!(Arc::ptr_eq(out[0].as_ref().unwrap(), out[1].as_ref().unwrap()));
    // The first task carries the cold build and the AltrM solve; the
    // second only replays the answer they left behind.
    assert!(timings[0] > timings[1], "warm not timed: {timings:?}");
}
