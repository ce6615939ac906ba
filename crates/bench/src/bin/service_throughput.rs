//! `service_throughput` — the serving layer's perf baseline.
//!
//! Measures end-to-end task throughput of [`JuryService`] at pool sizes
//! 10², 10³ and 10⁴ and batch sizes 1, 32 and 1024, against the naive
//! baseline of one standalone `AltrAlg::solve` / `PayAlg::solve` call
//! per task (fresh sort + fresh buffers every time — what the examples
//! did before the service existed).
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
use jury_bench::timing::time_best_of;
use jury_core::altr::{AltrAlg, AltrConfig};
use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig};
use jury_service::{DecisionTask, JuryService};
use serde::{json, Serialize, Value};

const POOL_SIZES: [usize; 3] = [100, 1_000, 10_000];
const BATCH_SIZES: [usize; 3] = [1, 32, 1_024];

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

/// Tasks/sec solving the stream through warm `solve_batch` (owned
/// results — one member-list copy per replayed task) and through
/// `solve_batch_shared` (replays hand out one `Arc` per task). The gap
/// between the two is pure result-copy traffic: at pool 10⁴ the cached
/// AltrM answer holds ~10³ members, and cloning it per task is what
/// collapsed large-batch throughput before the shared path existed.
fn service_throughput(jurors: &[Juror], batch: usize) -> (f64, f64) {
    let mut service = JuryService::new();
    let id = service.create_pool(jurors.to_vec());
    service.warm_pool(id).expect("pool registered");
    let stream: Vec<DecisionTask> =
        models(batch).into_iter().map(|model| DecisionTask { pool: id, model }).collect();
    // One warm-up batch grows the worker scratches, then measure.
    assert!(service.solve_batch(&stream).iter().all(Result::is_ok));
    let repeats = if jurors.len() >= 10_000 { 2 } else { 5 };
    let (_, secs) = time_best_of(repeats, || {
        let results = service.solve_batch(&stream);
        std::hint::black_box(results.len())
    });
    let (_, shared_secs) = time_best_of(repeats, || {
        let results = service.solve_batch_shared(&stream);
        std::hint::black_box(results.len())
    });
    (batch as f64 / secs, batch as f64 / shared_secs)
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

    let mut report = Report::new(
        "service_throughput",
        "JuryService warm-batch throughput (owned and shared results) vs naive per-task solve",
        &["pool", "batch", "service tasks/s", "shared tasks/s", "naive tasks/s", "speedup"],
    );
    let mut rows: Vec<Value> = Vec::new();

    for &n in &pool_sizes {
        let jurors = pool(n);
        for &batch in &batch_sizes {
            let (service, shared) = service_throughput(&jurors, batch);
            let naive = naive_throughput(&jurors, batch);
            let speedup = service / naive;
            report.row(&[
                &n,
                &batch,
                &fmt_f(service, 1),
                &fmt_f(shared, 1),
                &fmt_f(naive, 1),
                &format!("{speedup:.1}x"),
            ]);
            rows.push(Value::object([
                ("pool_size", n.to_value()),
                ("batch_size", batch.to_value()),
                ("service_tasks_per_sec", service.to_value()),
                ("service_shared_tasks_per_sec", shared.to_value()),
                ("naive_tasks_per_sec", naive.to_value()),
                ("speedup", speedup.to_value()),
            ]));
        }
    }

    report.emit();

    if smoke {
        println!("[smoke] service_throughput ok ({} measurements)", rows.len());
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
        ("workload", "2/3 AltrM + 1/3 PayM (cycling budgets), warm cache".to_value()),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        ("batch_sizes", Value::Array(batch_sizes.iter().map(|n| n.to_value()).collect())),
        ("results", Value::Array(rows)),
    ];
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| ours.iter().all(|(k, _)| key != k));
        fields.splice(0..0, ours.map(|(k, v)| (k.to_string(), v)));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path}");
}
