//! Coalescing must be semantically invisible: answers delivered through
//! a coalesced window are bit-identical to a direct
//! `solve_batch_shared` on an identically-prepared service, and a
//! graceful shutdown drains queued windows instead of dropping them.

use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::problem::Selection;
use jury_frontend::{Frontend, FrontendConfig, SubmitError};
use jury_service::{DecisionTask, JuryService, PoolId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

type SubmitResult = Result<Arc<Selection>, SubmitError>;
type ResultSlots = Vec<Mutex<Option<SubmitResult>>>;

fn jurors() -> Vec<Juror> {
    let pairs: Vec<(f64, f64)> =
        (0..19).map(|i| (0.04 + (i as f64) / 25.0, 0.1 + ((i * 11) % 7) as f64 / 7.0)).collect();
    pool_from_rates_and_costs(&pairs).unwrap()
}

fn tasks_for(pool: PoolId) -> Vec<DecisionTask> {
    (0..12)
        .map(|i| {
            if i % 3 == 0 {
                DecisionTask::altruism(pool)
            } else {
                DecisionTask::pay_as_you_go(pool, 0.5 + (i % 4) as f64 * 0.4)
            }
        })
        .collect()
}

/// Queue `tasks` concurrently behind a held service lock so they land
/// in coalescing windows, then release and collect results by index.
fn submit_coalesced(frontend: &Frontend, tasks: &[DecisionTask]) -> Vec<SubmitResult> {
    let results: ResultSlots = tasks.iter().map(|_| Mutex::new(None)).collect();
    let hold = Barrier::new(2);
    let release = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (hold, release) = (&hold, &release);
        scope.spawn(move || {
            frontend.with_service(|_| {
                hold.wait();
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        hold.wait();
        for (i, task) in tasks.iter().enumerate() {
            let slot = &results[i];
            let task = *task;
            scope.spawn(move || {
                *slot.lock().unwrap() = Some(frontend.submit("tenant", task));
            });
        }
        while frontend.stats().requests < tasks.len() as u64 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::Release);
    });
    results.into_iter().map(|slot| slot.into_inner().unwrap().unwrap()).collect()
}

#[test]
fn coalesced_answers_are_bit_identical_to_direct_batches() {
    let jurors = jurors();
    let mut direct = JuryService::new();
    let direct_pool = direct.create_pool(jurors.clone());

    let mut served = JuryService::new();
    let served_pool = served.create_pool(jurors);
    assert_eq!(direct_pool, served_pool, "identical registration order, identical ids");
    let frontend = Frontend::start(served, FrontendConfig::default());

    let tasks = tasks_for(direct_pool);
    let expected = direct.solve_batch_shared(&tasks);
    let coalesced = submit_coalesced(&frontend, &tasks);

    for (i, (got, want)) in coalesced.iter().zip(&expected).enumerate() {
        let got = got.as_ref().unwrap_or_else(|e| panic!("task {i} failed: {e}"));
        let want = want.as_ref().expect("direct solve succeeded");
        assert_eq!(got.members, want.members, "task {i} members");
        assert_eq!(got.jer.to_bits(), want.jer.to_bits(), "task {i} jer bits");
        assert_eq!(got.total_cost.to_bits(), want.total_cost.to_bits(), "task {i} cost bits");
    }
    let stats = frontend.stats();
    assert!(stats.coalesced_windows >= 1, "the held lock forced real windows: {stats:?}");
    assert!(stats.max_window_occupancy >= 2);
    assert_eq!(stats.coalesced_tasks + stats.inline_solves, tasks.len() as u64);
    assert!(stats.solve_nanos > 0, "the dispatcher timed its windows' solves");
}

#[test]
fn shutdown_drains_queued_windows() {
    let jurors = jurors();
    let mut service = JuryService::new();
    let pool = service.create_pool(jurors);
    let frontend = Frontend::start(
        service,
        FrontendConfig { max_delay: Duration::from_secs(30), ..Default::default() },
    );
    let tasks = tasks_for(pool);

    let results: ResultSlots = tasks.iter().map(|_| Mutex::new(None)).collect();
    let hold = Barrier::new(2);
    let release = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let fe = &*frontend;
        let (hold, release) = (&hold, &release);
        scope.spawn(move || {
            fe.with_service(|_| {
                hold.wait();
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        hold.wait();
        for (i, task) in tasks.iter().enumerate() {
            let slot = &results[i];
            let task = *task;
            scope.spawn(move || {
                *slot.lock().unwrap() = Some(fe.submit("tenant", task));
            });
        }
        while fe.stats().requests < tasks.len() as u64 {
            std::thread::yield_now();
        }
        // Shutdown with a full queue and the solver still held: the
        // flag flips, the holder releases, and the drain must answer
        // every queued waiter before shutdown() returns the service.
        let stopper = scope.spawn(move || fe.shutdown());
        release.store(true, Ordering::Release);
        let service = stopper.join().unwrap().expect("first shutdown wins");
        assert_eq!(service.stats().tasks_solved, tasks.len());
    });
    for (i, slot) in results.iter().enumerate() {
        let result = slot.lock().unwrap().take().unwrap_or_else(|| panic!("task {i} unanswered"));
        assert!(result.is_ok(), "task {i} must be drained, not dropped: {result:?}");
    }
    assert!(matches!(
        frontend.submit("tenant", DecisionTask::altruism(pool)),
        Err(SubmitError::ShuttingDown)
    ));
}
