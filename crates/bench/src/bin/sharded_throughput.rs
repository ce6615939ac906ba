//! `sharded_throughput` — post-mutation warm-solve scaling for sharded
//! pools, at pool sizes the flat cache cannot survive.
//!
//! The scenario is the serving layer's steady state: a warm pool, one
//! juror update (a re-estimated error rate), then the next task. A flat
//! pool pays a full cache rebuild — re-sort plus the `O(N²)` AltrM scan
//! and profile — so the flat baseline is only measured at 10⁴ (beyond
//! that a single rebuild takes tens of seconds to hours). A sharded pool
//! re-sorts one shard, re-merges the per-shard runs and lazily re-solves
//! only what the task stream demands, so the same measurement runs
//! comfortably at 10⁶ and the repair work scales with the shard size,
//! not the pool size.
//!
//! Appends a `"sharded"` section to `BENCH_service.json`. `--smoke` runs a
//! seconds-long version on tiny pools and writes nothing — CI uses it to
//! keep this binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin sharded_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::time_best_of;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::model::CrowdModel;
use jury_service::{DecisionTask, JuryService, PoolId, ServiceConfig, ShardConfig};
use serde::{json, Serialize, Value};

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

/// One measurement: steady warm solve vs (mutation + re-warm + solve).
fn measure(
    service: &mut JuryService,
    id: PoolId,
    n: usize,
    model: CrowdModel,
    repeats: usize,
) -> (f64, f64) {
    let task = DecisionTask { pool: id, model };
    service.warm_pool(id).expect("pool registered");
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let (_, warm) = time_best_of(repeats, || {
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    let mut round = 0usize;
    let (_, post_mutation) = time_best_of(repeats, || {
        round += 1;
        let idx = (round * 7919) % n;
        let e = 0.05 + ((round * 13) % 90) as f64 / 100.0;
        let juror = Juror::new(idx as u32, ErrorRate::new(e).unwrap(), 0.1);
        service.update_juror(id, idx, juror).expect("index in range");
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    (post_mutation, warm)
}

fn sharded_service(k: usize) -> JuryService {
    JuryService::with_config(ServiceConfig {
        shard: ShardConfig { threshold: 1, shards: k, ..Default::default() },
        ..Default::default()
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = 3.0f64;
    let (pool_sizes, shard_counts, altr_sizes, flat_sizes, repeats): (
        Vec<usize>,
        Vec<usize>,
        Vec<usize>,
        Vec<usize>,
        usize,
    ) = if smoke {
        (vec![400], vec![2, 4], vec![400], vec![400], 1)
    } else {
        (vec![10_000, 100_000, 1_000_000], vec![4, 16, 64], vec![10_000], vec![10_000], 3)
    };

    let mut report = Report::new(
        "sharded_throughput",
        "post-mutation warm solve: one juror update, then the next task",
        &["pool", "layout", "model", "post-mutation", "steady warm"],
    );
    let mut rows: Vec<Value> = Vec::new();
    let push = |report: &mut Report,
                rows: &mut Vec<Value>,
                n: usize,
                layout: String,
                shards: Option<usize>,
                model: &str,
                post: f64,
                warm: f64| {
        report.row(&[&n, &layout, &model, &fmt_secs(post), &fmt_secs(warm)]);
        rows.push(Value::object([
            ("pool_size", n.to_value()),
            ("shards", shards.map_or(Value::Null, |k| k.to_value())),
            ("model", model.to_value()),
            ("post_mutation_secs", post.to_value()),
            ("steady_warm_secs", warm.to_value()),
        ]));
    };

    // PayM across the full size range: the workload sharding exists for.
    for &n in &pool_sizes {
        let jurors = pool(n);
        for &k in &shard_counts {
            let mut service = sharded_service(k);
            let id = service.create_pool(jurors.clone());
            let (post, warm) =
                measure(&mut service, id, n, CrowdModel::PayAsYouGo { budget }, repeats);
            push(&mut report, &mut rows, n, format!("sharded/{k}"), Some(k), "paym", post, warm);
        }
        if flat_sizes.contains(&n) {
            let mut service = JuryService::new();
            let id = service.create_pool(jurors.clone());
            let (post, warm) =
                measure(&mut service, id, n, CrowdModel::PayAsYouGo { budget }, repeats.min(2));
            push(&mut report, &mut rows, n, "flat".into(), None, "paym", post, warm);
        }
    }

    // AltrM where the exact O(N²) scan is still feasible: sharding saves
    // the sort + profile, the scan itself is the (identical) solver.
    for &n in &altr_sizes {
        let jurors = pool(n);
        for &k in &shard_counts {
            let mut service = sharded_service(k);
            let id = service.create_pool(jurors.clone());
            let (post, warm) = measure(&mut service, id, n, CrowdModel::Altruism, repeats.min(2));
            push(&mut report, &mut rows, n, format!("sharded/{k}"), Some(k), "altr", post, warm);
        }
        if flat_sizes.contains(&n) {
            let mut service = JuryService::new();
            let id = service.create_pool(jurors.clone());
            let (post, warm) = measure(&mut service, id, n, CrowdModel::Altruism, repeats.min(2));
            push(&mut report, &mut rows, n, "flat".into(), None, "altr", post, warm);
        }
    }

    report.emit();

    if smoke {
        println!("[smoke] sharded_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the sharded section rather than
    // clobbering the baseline document.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "warm pool, one juror update, next solve (repair + solve measured together)".to_value(),
        ),
        ("budget", budget.to_value()),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        ("shard_counts", Value::Array(shard_counts.iter().map(|k| k.to_value()).collect())),
        (
            "flat_baseline_note",
            "flat pools measured at 10^4 only: one post-mutation rebuild is O(N^2)".to_value(),
        ),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "sharded");
        fields.push(("sharded".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (sharded section)");
}
