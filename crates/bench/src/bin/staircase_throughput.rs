//! `staircase_throughput` — the PayM budget-staircase serving numbers.
//!
//! Two measurements per pool size and layout, both on the serving
//! layer's hottest traffic class (warm PayM tasks with a per-task
//! budget):
//!
//! * **steady warm** — the same budget again: a staircase binary-search
//!   hit (one selection clone, no greedy rescan);
//! * **post-mutation** — one juror update (a re-estimated error rate)
//!   followed by the next task: the update repairs both sorted orders
//!   *in place* (no re-sort), and the cleared staircase re-records its
//!   step with a single greedy scan.
//!   Reported as the median of 21 rounds with its quartiles: the first
//!   rounds after the cold build run slower, so a minimum over a few
//!   rounds moved by up to 1.7× between runs of one build at 10⁶.
//!
//! The PayM lane never builds the `O(N²)` AltrM artefacts, so even a
//! 10⁶-juror pool answers post-mutation PayM in milliseconds.
//!
//! Appends a `"staircase"` section to `BENCH_service.json`. `--smoke` runs
//! a seconds-long version on tiny pools and writes nothing — CI uses it to
//! keep this binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin staircase_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::{time_best_of, time_quartiles, Quartiles};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_service::{DecisionTask, JuryService, PoolId};
use serde::{json, Serialize, Value};

/// Deterministic pool: rates spread over (0.02, 0.95), convex prices —
/// the same synthetic workload as the other service emitters.
fn pool(n: usize) -> Vec<Juror> {
    let quotes: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let u = (i as f64 * 0.6180339887498949) % 1.0; // golden-ratio spread
            (0.02 + 0.93 * u, 0.05 + u * u)
        })
        .collect();
    pool_from_rates_and_costs(&quotes).expect("valid synthetic quotes")
}

/// One measurement pair: steady warm (staircase hit, best of `repeats`)
/// vs one juror update plus the next solve (quartiles over `rounds`).
/// Priming goes through `solve` (orders-only warming), never
/// `warm_pool`, so flat pools skip the `O(N²)` AltrM artefacts.
fn measure(
    service: &mut JuryService,
    id: PoolId,
    n: usize,
    budget: f64,
    repeats: usize,
    rounds: usize,
) -> (f64, Quartiles) {
    let task = DecisionTask::pay_as_you_go(id, budget);
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let (_, warm_hit) = time_best_of(repeats, || {
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    let hits_before = service.stats().staircase_hits;
    assert!(service.solve(&task).is_ok());
    assert!(service.stats().staircase_hits > hits_before, "steady path must hit the staircase");
    let mut round = 0usize;
    let (_, post_mutation) = time_quartiles(rounds, || {
        round += 1;
        let idx = (round * 7919) % n;
        let e = 0.05 + ((round * 13) % 90) as f64 / 100.0;
        let juror = Juror::new(idx as u32, ErrorRate::new(e).unwrap(), 0.1);
        service.update_juror(id, idx, juror).expect("index in range");
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    (warm_hit, post_mutation)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = 3.0f64;
    let (pool_sizes, repeats, rounds): (Vec<usize>, usize, usize) =
        if smoke { (vec![400], 1, 3) } else { (vec![1_000, 10_000, 1_000_000], 5, 21) };

    let mut report = Report::new(
        "staircase_throughput",
        "warm PayM via the budget staircase: steady hit vs one juror update + next solve",
        &["pool", "steady warm (hit)", "post-mutation p50", "p25", "p75"],
    );
    let mut rows: Vec<Value> = Vec::new();
    for &n in &pool_sizes {
        let mut service = JuryService::new();
        let id = service.create_pool(pool(n));
        let (warm_hit, post) = measure(&mut service, id, n, budget, repeats, rounds);
        report.row(&[
            &n,
            &fmt_secs(warm_hit),
            &fmt_secs(post.p50),
            &fmt_secs(post.p25),
            &fmt_secs(post.p75),
        ]);
        rows.push(Value::object([
            ("pool_size", n.to_value()),
            ("model", "paym".to_value()),
            ("steady_warm_hit_secs", warm_hit.to_value()),
            ("post_mutation_secs", post.p50.to_value()),
            ("post_mutation_p25_secs", post.p25.to_value()),
            ("post_mutation_p75_secs", post.p75.to_value()),
            ("post_mutation_rounds", rounds.to_value()),
        ]));
    }

    report.emit();

    if smoke {
        println!("[smoke] staircase_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the staircase section.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "warm PayM: staircase hit (steady, best of 5) and one juror update + next solve \
             (post-mutation, in-place order repair + one staircase-recording scan; \
             median and quartiles over 21 rounds)"
                .to_value(),
        ),
        ("budget", budget.to_value()),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "staircase");
        fields.push(("staircase".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (staircase section)");
}
