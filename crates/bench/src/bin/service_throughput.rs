//! `service_throughput` — the serving layer's perf baseline.
//!
//! Measures end-to-end task throughput of [`JuryService`] at pool sizes
//! 10², 10³ and 10⁴ and batch sizes 1, 32 and 1024, against the naive
//! baseline of one standalone `AltrAlg::solve` / `PayAlg::solve` call
//! per task (fresh sort + fresh buffers every time — what the examples
//! did before the service existed).
//!
//! Each service figure is the median of 21 rounds with its quartiles; a
//! round solves the stream `ROUND_TASKS / batch` times (at least once),
//! so a batch-1 round is long enough for the clock to resolve. The
//! default configuration answers batches of up to 32 tasks on the
//! caller thread and splits larger ones across the available cores, so
//! these rows are the referee for the threaded path. The naive baseline
//! stays a best of 2: one standalone AltrM solve at 10⁴ jurors takes
//! tens of milliseconds.
//!
//! The main stream cycles seven budgets, so after the first batch every
//! PayM task replays a recorded staircase step. The fresh-budget rows
//! measure the other end: one PayM batch of distinct budgets per round,
//! on a warm pool whose staircase is empty when the round starts, so
//! every task is a greedy scan or replays a step an earlier task of the
//! same batch recorded.
//!
//! Prints the table and merges its top-level fields (`bench`,
//! `workload`, `pool_sizes`, `batch_sizes`, `results`) into
//! `BENCH_service.json` in the current directory, keeping every other
//! emitter's section, so successive PRs can diff the trajectory.
//! `--smoke` runs a seconds-long version on tiny pools and writes
//! nothing — CI uses it to keep this binary from rotting. Run from the
//! repo root:
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin service_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_f, Report};
use jury_bench::timing::{time_best_of, time_quartiles, Quartiles};
use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig};
use jury_service::{DecisionTask, JuryService};
use serde::{json, Serialize, Value};

const POOL_SIZES: [usize; 3] = [100, 1_000, 10_000];
const BATCH_SIZES: [usize; 3] = [1, 32, 1_024];
/// Batch sizes of the fresh-budget rows: one worker, and the fan-out.
const FRESH_BATCH_SIZES: [usize; 2] = [32, 1_024];

/// Tasks one timed round solves (in `ROUND_TASKS / batch` batches).
const ROUND_TASKS: usize = 1_024;

/// Deterministic pool: rates spread over (0.02, 0.95), convex prices.
fn pool(n: usize) -> Vec<Juror> {
    let quotes: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let u = (i as f64 * 0.6180339887498949) % 1.0; // golden-ratio spread
            (0.02 + 0.93 * u, 0.05 + u * u)
        })
        .collect();
    pool_from_rates_and_costs(&quotes).expect("valid synthetic quotes")
}

/// Mixed task stream: two thirds AltrM, one third PayM with a cycling
/// budget — the service's intended workload shape.
fn models(batch: usize) -> Vec<CrowdModel> {
    (0..batch)
        .map(|i| {
            if i % 3 == 2 {
                CrowdModel::PayAsYouGo { budget: 0.5 + (i % 7) as f64 }
            } else {
                CrowdModel::Altruism
            }
        })
        .collect()
}

/// PayM-only stream of distinct budgets spread over `[0.5, 6.5)` by
/// the golden ratio.
fn fresh_models(batch: usize) -> Vec<CrowdModel> {
    (0..batch)
        .map(|i| CrowdModel::PayAsYouGo {
            budget: 0.5 + 6.0 * ((i as f64 + 1.0) * 0.6180339887498949 % 1.0),
        })
        .collect()
}

/// Tasks/sec quartiles: `p25` is the slower quarter's throughput.
struct Throughput {
    p25: f64,
    p50: f64,
    p75: f64,
}

impl Throughput {
    fn of(tasks: usize, secs: Quartiles) -> Self {
        let rate = |s: f64| tasks as f64 / s;
        Self { p25: rate(secs.p75), p50: rate(secs.p50), p75: rate(secs.p25) }
    }
}

/// Tasks/sec solving the stream through warm `solve_batch` (owned
/// results — one member-list copy per replayed task) and through
/// `solve_batch_shared` (replays hand out one `Arc` per task), each over
/// `rounds` rounds. The gap between the two is pure result-copy
/// traffic: at pool 10⁴ the cached AltrM answer holds ~10³ members, and
/// cloning it per task is what collapsed large-batch throughput before
/// the shared path existed.
fn service_throughput(jurors: &[Juror], batch: usize, rounds: usize) -> (Throughput, Throughput) {
    let mut service = JuryService::new();
    let id = service.create_pool(jurors.to_vec());
    service.warm_pool(id).expect("pool registered");
    let stream: Vec<DecisionTask> =
        models(batch).into_iter().map(|model| DecisionTask { pool: id, model }).collect();
    // One warm-up batch grows the worker scratches, then measure.
    assert!(service.solve_batch(&stream).iter().all(Result::is_ok));
    let calls = (ROUND_TASKS / batch).max(1);
    let (_, secs) = time_quartiles(rounds, || {
        for _ in 0..calls {
            std::hint::black_box(service.solve_batch(&stream));
        }
    });
    let (_, shared_secs) = time_quartiles(rounds, || {
        for _ in 0..calls {
            std::hint::black_box(service.solve_batch_shared(&stream));
        }
    });
    (Throughput::of(calls * batch, secs), Throughput::of(calls * batch, shared_secs))
}

/// Tasks/sec of one `solve_batch_shared` call on the fresh-budget stream
/// per round, and the share of its tasks that replayed a step an earlier
/// task of the same batch recorded. Each round gets its own service,
/// warmed before the clock starts, so no step covers any budget when the
/// round begins; the services and their answers are dropped outside the
/// clock.
fn fresh_budget_throughput(jurors: &[Juror], batch: usize, rounds: usize) -> (Throughput, f64) {
    let mut services: Vec<(JuryService, Vec<DecisionTask>)> = (0..rounds)
        .map(|_| {
            let mut service = JuryService::new();
            let id = service.create_pool(jurors.to_vec());
            service.warm_pool(id).expect("pool registered");
            let stream = fresh_models(batch)
                .into_iter()
                .map(|model| DecisionTask { pool: id, model })
                .collect();
            (service, stream)
        })
        .collect();
    let ((service, _), secs) = time_quartiles(rounds, || {
        let (mut service, stream) = services.pop().expect("one service per round");
        let answers = service.solve_batch_shared(&stream);
        assert!(answers.iter().all(Result::is_ok));
        (service, answers)
    });
    (Throughput::of(batch, secs), service.stats().staircase_hits as f64 / batch as f64)
}

/// Tasks/sec solving the same stream with one standalone solver call per
/// task (the pre-service architecture). Large pools are timed over a
/// truncated stream and scaled — the per-task cost is constant.
fn naive_throughput(jurors: &[Juror], batch: usize) -> f64 {
    let sample = if jurors.len() >= 10_000 { batch.min(4) } else { batch.min(64) };
    let altr = AltrConfig::default();
    let pay = PayConfig::default();
    let stream = models(sample);
    let (_, secs) = time_best_of(2, || {
        for model in &stream {
            let result = match *model {
                CrowdModel::Altruism => AltrAlg::solve(jurors, &altr),
                CrowdModel::PayAsYouGo { budget } => PayAlg::solve(jurors, budget, &pay),
            };
            std::hint::black_box(result.is_ok());
        }
    });
    sample as f64 / secs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let pool_sizes: Vec<usize> = if smoke { vec![64, 256] } else { POOL_SIZES.to_vec() };
    let batch_sizes: Vec<usize> = if smoke { vec![1, 16] } else { BATCH_SIZES.to_vec() };
    let fresh_batch_sizes: Vec<usize> =
        if smoke { vec![16, 64] } else { FRESH_BATCH_SIZES.to_vec() };
    let rounds = if smoke { 3 } else { 21 };

    let mut report = Report::new(
        "service_throughput",
        "JuryService warm-batch throughput (owned and shared results; median [p25, p75] \
         tasks/s) vs naive per-task solve",
        &["pool", "batch", "service tasks/s", "shared tasks/s", "naive tasks/s", "speedup"],
    );
    let spread =
        |t: &Throughput| format!("{} [{}, {}]", fmt_f(t.p50, 1), fmt_f(t.p25, 1), fmt_f(t.p75, 1));
    let mut rows: Vec<Value> = Vec::new();

    for &n in &pool_sizes {
        let jurors = pool(n);
        for &batch in &batch_sizes {
            let (service, shared) = service_throughput(&jurors, batch, rounds);
            let naive = naive_throughput(&jurors, batch);
            let speedup = service.p50 / naive;
            report.row(&[
                &n,
                &batch,
                &spread(&service),
                &spread(&shared),
                &fmt_f(naive, 1),
                &format!("{speedup:.1}x"),
            ]);
            rows.push(Value::object([
                ("pool_size", n.to_value()),
                ("batch_size", batch.to_value()),
                ("service_tasks_per_sec", service.p50.to_value()),
                ("service_tasks_per_sec_p25", service.p25.to_value()),
                ("service_tasks_per_sec_p75", service.p75.to_value()),
                ("service_shared_tasks_per_sec", shared.p50.to_value()),
                ("service_shared_tasks_per_sec_p25", shared.p25.to_value()),
                ("service_shared_tasks_per_sec_p75", shared.p75.to_value()),
                ("rounds", rounds.to_value()),
                ("naive_tasks_per_sec", naive.to_value()),
                ("speedup", speedup.to_value()),
            ]));
        }
    }

    report.emit();

    let mut fresh_report = Report::new(
        "service_throughput_fresh",
        "JuryService PayM batches of distinct budgets on an empty staircase (shared results; \
         median [p25, p75] tasks/s)",
        &["pool", "batch", "fresh tasks/s", "step replays"],
    );
    let mut fresh_rows: Vec<Value> = Vec::new();
    for &n in &pool_sizes {
        let jurors = pool(n);
        for &batch in &fresh_batch_sizes {
            let (fresh, replayed) = fresh_budget_throughput(&jurors, batch, rounds);
            fresh_report.row(&[&n, &batch, &spread(&fresh), &format!("{:.0}%", replayed * 100.0)]);
            fresh_rows.push(Value::object([
                ("pool_size", n.to_value()),
                ("batch_size", batch.to_value()),
                ("fresh_tasks_per_sec", fresh.p50.to_value()),
                ("fresh_tasks_per_sec_p25", fresh.p25.to_value()),
                ("fresh_tasks_per_sec_p75", fresh.p75.to_value()),
                ("staircase_replay_share", replayed.to_value()),
                ("rounds", rounds.to_value()),
            ]));
        }
    }
    fresh_report.emit();

    if smoke {
        println!("[smoke] service_throughput ok ({} measurements)", rows.len() + fresh_rows.len());
        return;
    }

    // Replace this emitter's fields in BENCH_service.json, keeping the
    // other emitters' sections.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::Object(Vec::new()));
    let ours = [
        ("bench", "service_throughput".to_value()),
        (
            "workload",
            "2/3 AltrM + 1/3 PayM (cycling budgets), warm cache, default threads; service \
             figures are the median and quartiles of tasks/s over 21 rounds of 1024 tasks \
             (or one batch, if larger); naive is a best of 2"
                .to_value(),
        ),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        ("batch_sizes", Value::Array(batch_sizes.iter().map(|n| n.to_value()).collect())),
        ("results", Value::Array(rows)),
        (
            "fresh_budget_workload",
            "PayM only, 1 batch of distinct budgets in [0.5, 6.5) per round on a warm pool \
             whose staircase starts empty, default threads, solve_batch_shared; median and \
             quartiles of tasks/s over 21 rounds; staircase_replay_share is the share of one \
             batch's tasks answered from a step an earlier task of that batch recorded"
                .to_value(),
        ),
        ("fresh_budget_results", Value::Array(fresh_rows)),
    ];
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| ours.iter().all(|(k, _)| key != k));
        fields.splice(0..0, ours.map(|(k, v)| (k.to_string(), v)));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path}");
}
