//! `rebalance_throughput` — the cost of *staying* warm under churn:
//! rescan-free sharded inserts and online shard re-balancing.
//!
//! Three scenarios:
//!
//! * **warm insert** — a warm sharded pool takes one new juror and the
//!   next task. The repair path pays one rank-insert per sorted run
//!   plus ladder pushes; the baseline invalidates the warm layer after
//!   the insert and pays the full shard rebuild on the next solve
//!   (measured at 10⁴ only — a cold 10⁶ rebuild per repeat is seconds
//!   of ladder convolution).
//! * **re-balance episode** — removals hollow out one shard until
//!   `refresh_degeneracy` flags it; the removal that triggers the steal
//!   is timed separately from the steady repairs before it.
//! * **post-steal solve** — the next warm solve after the episode, the
//!   latency a tenant sees once the membership permutation has healed
//!   the shard.
//!
//! Appends a `"rebalance"` section to `BENCH_service.json`. `--smoke` runs
//! a seconds-long version on tiny pools and writes nothing — CI uses it to
//! keep this binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin rebalance_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::time_best_of;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_service::{DecisionTask, JuryService, ServiceConfig, ShardConfig};
use serde::{json, Serialize, Value};
use std::time::Instant;

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

fn sharded_service(k: usize) -> JuryService {
    JuryService::with_config(ServiceConfig {
        shard: ShardConfig { threshold: 1, shards: k, ..Default::default() },
        ..Default::default()
    })
}

/// Warm ingest: one insert, then the next task. `invalidate` switches to
/// the baseline that drops the warm layer after each insert, so the
/// solve pays the full shard rebuild the repair path avoids.
fn measure_insert(n: usize, k: usize, budget: f64, repeats: usize, invalidate: bool) -> f64 {
    let mut service = sharded_service(k);
    let id = service.create_pool(pool(n));
    let task = DecisionTask::pay_as_you_go(id, budget);
    service.warm_pool(id).expect("pool registered");
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let mut next = 2_000_000u32;
    let (_, secs) = time_best_of(repeats, || {
        next += 1;
        let e = 0.05 + ((next % 90) as f64) / 100.0;
        let juror = Juror::new(next, ErrorRate::new(e).unwrap(), 0.1);
        service.insert_juror(id, juror).expect("pool registered");
        if invalidate {
            service.invalidate_warm(id).expect("pool registered");
        }
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    if !invalidate {
        let stats = service.stats();
        assert_eq!(stats.full_repairs, 1, "warm inserts must repair, not rebuild");
        assert!(stats.insert_repairs > 0, "the repair counter must tick");
    }
    secs
}

/// Forced-degeneracy episode on K=4: removals at positions 0, 3, 6, …
/// hollow out creation shard 0 (its members sit at 4m, and after
/// removing original 4m the juror at 4(m+1) sits at 3(m+1)). Returns
/// (median steady-removal cost, the triggering removal's cost — repair
/// plus the steal —, post-steal warm solve, removals until the flag).
fn measure_episode(n: usize, budget: f64, repeats: usize) -> (f64, f64, f64, usize) {
    let mut service = sharded_service(4);
    let id = service.create_pool(pool(n));
    let task = DecisionTask::pay_as_you_go(id, budget);
    service.warm_pool(id).expect("pool registered");
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let mut steady: Vec<f64> = Vec::new();
    let mut m = 0usize;
    let episode = loop {
        let before = service.stats().shard_rebalances;
        let start = Instant::now();
        service.remove_juror(id, 3 * m).expect("drain schedule stays in range");
        let dt = start.elapsed().as_secs_f64();
        m += 1;
        if service.stats().shard_rebalances > before {
            break dt;
        }
        steady.push(dt);
        assert!(3 * m < n - m, "drain must flag degeneracy before running off the pool");
    };
    assert!(service.is_warm(id), "the steal repairs in place — the pool stays warm");
    let (_, post_steal) = time_best_of(repeats, || {
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    steady.sort_by(f64::total_cmp);
    let median = steady.get(steady.len() / 2).copied().unwrap_or(0.0);
    (median, episode, post_steal, m)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = 3.0f64;
    let (insert_sizes, baseline_sizes, shard_counts, episode_size, repeats): (
        Vec<usize>,
        Vec<usize>,
        Vec<usize>,
        usize,
        usize,
    ) = if smoke {
        (vec![400], vec![400], vec![4], 400, 1)
    } else {
        (vec![10_000, 1_000_000], vec![10_000], vec![4, 16], 10_000, 3)
    };

    let mut report = Report::new(
        "rebalance_throughput",
        "warm sharded ingest: insert repair vs invalidate-and-rebuild, steal episodes",
        &["scenario", "pool", "shards", "repair", "baseline", "speedup"],
    );
    let mut rows: Vec<Value> = Vec::new();

    for &n in &insert_sizes {
        for &k in &shard_counts {
            let repaired = measure_insert(n, k, budget, repeats, false);
            let baseline = baseline_sizes
                .contains(&n)
                .then(|| measure_insert(n, k, budget, repeats.min(2), true));
            let speedup = baseline.map(|b| b / repaired);
            report.row(&[
                &"warm insert",
                &n,
                &k,
                &fmt_secs(repaired),
                &baseline.map_or("-".into(), fmt_secs),
                &speedup.map_or("-".into(), |s| format!("{s:.1}x")),
            ]);
            rows.push(Value::object([
                ("scenario", "warm_insert".to_value()),
                ("pool_size", n.to_value()),
                ("shards", k.to_value()),
                ("repair_secs", repaired.to_value()),
                ("invalidate_rebuild_secs", baseline.map_or(Value::Null, |b| b.to_value())),
                ("speedup", speedup.map_or(Value::Null, |s| s.to_value())),
            ]));
        }
    }

    let (steady, episode, post_steal, drains) = measure_episode(episode_size, budget, repeats);
    report.row(&[
        &"steal episode",
        &episode_size,
        &4usize,
        &fmt_secs(episode),
        &fmt_secs(steady),
        &format!("after {drains} removals"),
    ]);
    report.row(&[&"post-steal solve", &episode_size, &4usize, &fmt_secs(post_steal), &"-", &"-"]);
    rows.push(Value::object([
        ("scenario", "rebalance_episode".to_value()),
        ("pool_size", episode_size.to_value()),
        ("shards", 4usize.to_value()),
        ("episode_secs", episode.to_value()),
        ("steady_removal_secs", steady.to_value()),
        ("removals_to_flag", drains.to_value()),
    ]));
    rows.push(Value::object([
        ("scenario", "post_steal_solve".to_value()),
        ("pool_size", episode_size.to_value()),
        ("shards", 4usize.to_value()),
        ("solve_secs", post_steal.to_value()),
    ]));

    report.emit();

    if smoke {
        println!("[smoke] rebalance_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the rebalance section rather than
    // clobbering the baseline document.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "warm sharded insert (repair vs invalidate-and-rebuild), forced-degeneracy steal"
                .to_value(),
        ),
        ("budget", budget.to_value()),
        ("pool_sizes", Value::Array(insert_sizes.iter().map(|n| n.to_value()).collect())),
        ("shard_counts", Value::Array(shard_counts.iter().map(|k| k.to_value()).collect())),
        (
            "baseline_note",
            "invalidate-and-rebuild measured at 10^4 only: a cold 10^6 rebuild per repeat is \
             seconds of ladder convolution"
                .to_value(),
        ),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "rebalance");
        fields.push(("rebalance".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (rebalance section)");
}
