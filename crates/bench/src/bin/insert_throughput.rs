//! `insert_throughput` — the cost of *staying* warm under ingest:
//! rescan-free juror inserts.
//!
//! A warm pool takes one new juror and the next PayM task. The repair
//! path pays one rank-insert per sorted order and the cleared staircase
//! re-records its step with one greedy scan; the baseline drops the warm
//! state after each insert ([`JuryService::invalidate_warm`]) and pays
//! the full order rebuild on the next solve. The baseline is measured at
//! 10⁴ only — a cold 10⁶ re-sort per round measures the sort, not the
//! service.
//!
//! Both paths are reported as the median of 21 rounds with its
//! quartiles. A best of 2 on the baseline moved by more than 4× between
//! runs of one build, which hid any change smaller than that.
//!
//! Appends an `"insert"` section to `BENCH_service.json`. `--smoke` runs
//! a seconds-long version on tiny pools and writes nothing — CI uses it to
//! keep this binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin insert_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::{time_quartiles, Quartiles};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_service::{DecisionTask, JuryService};
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

/// Warm ingest: one insert, then the next task. `invalidate` switches to
/// the baseline that drops the warm state after each insert, so the
/// solve pays the full order rebuild the repair path avoids. Priming
/// goes through a PayM `solve` (orders-only warming), so the pool never
/// builds the `O(N²)` AltrM artefacts.
fn measure_insert(n: usize, budget: f64, rounds: usize, invalidate: bool) -> Quartiles {
    let mut service = JuryService::new();
    let id = service.create_pool(pool(n));
    let task = DecisionTask::pay_as_you_go(id, budget);
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let mut next = 2_000_000u32;
    let (_, secs) = time_quartiles(rounds, || {
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
        assert_eq!(stats.full_repairs, 0, "warm inserts must repair, not rebuild");
        assert_eq!(stats.insert_repairs, rounds, "every insert must repair in place");
    }
    secs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = 3.0f64;
    let (insert_sizes, baseline_sizes, rounds): (Vec<usize>, Vec<usize>, usize) =
        if smoke { (vec![400], vec![400], 3) } else { (vec![10_000, 1_000_000], vec![10_000], 21) };

    let mut report = Report::new(
        "insert_throughput",
        "warm ingest: insert repair vs invalidate-and-rebuild, then the next PayM task",
        &["pool", "repair p50", "p25", "p75", "baseline p50", "p25", "p75", "speedup"],
    );
    let mut rows: Vec<Value> = Vec::new();
    let or_dash = |q: Option<f64>| q.map_or("-".into(), fmt_secs);
    let or_null = |q: Option<f64>| q.map_or(Value::Null, |v| v.to_value());

    for &n in &insert_sizes {
        let repaired = measure_insert(n, budget, rounds, false);
        let baseline = baseline_sizes.contains(&n).then(|| measure_insert(n, budget, rounds, true));
        let speedup = baseline.map(|b| b.p50 / repaired.p50);
        report.row(&[
            &n,
            &fmt_secs(repaired.p50),
            &fmt_secs(repaired.p25),
            &fmt_secs(repaired.p75),
            &or_dash(baseline.map(|b| b.p50)),
            &or_dash(baseline.map(|b| b.p25)),
            &or_dash(baseline.map(|b| b.p75)),
            &speedup.map_or("-".into(), |s| format!("{s:.1}x")),
        ]);
        rows.push(Value::object([
            ("scenario", "warm_insert".to_value()),
            ("pool_size", n.to_value()),
            ("repair_secs", repaired.p50.to_value()),
            ("repair_p25_secs", repaired.p25.to_value()),
            ("repair_p75_secs", repaired.p75.to_value()),
            ("invalidate_rebuild_secs", or_null(baseline.map(|b| b.p50))),
            ("invalidate_rebuild_p25_secs", or_null(baseline.map(|b| b.p25))),
            ("invalidate_rebuild_p75_secs", or_null(baseline.map(|b| b.p75))),
            ("speedup", or_null(speedup)),
            ("rounds", rounds.to_value()),
        ]));
    }

    report.emit();

    if smoke {
        println!("[smoke] insert_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the insert section rather than
    // clobbering the baseline document.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "warm insert, next PayM solve (repair vs invalidate-and-rebuild; median and \
             quartiles over 21 rounds)"
                .to_value(),
        ),
        ("budget", budget.to_value()),
        ("pool_sizes", Value::Array(insert_sizes.iter().map(|n| n.to_value()).collect())),
        (
            "baseline_note",
            "invalidate-and-rebuild measured at 10^4 only: a cold 10^6 re-sort per round \
             measures the sort, not the service"
                .to_value(),
        ),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "insert");
        fields.push(("insert".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (insert section)");
}
