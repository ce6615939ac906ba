//! `altrm_throughput` — the rescan-free warm AltrM serving numbers.
//!
//! Three measurements per pool size and layout, on AltrM traffic:
//!
//! * **steady warm** — the same AltrM task again: a cached-answer
//!   replay (one selection clone, no scan at all);
//! * **post-mutation** — one juror update (a re-estimated error rate)
//!   followed by the next AltrM task: the update repairs both sorted
//!   orders *in place*, and the dropped answer is
//!   re-solved by `AltrAlg::solve_pruned` — an `O(N)` bound sweep plus
//!   exact JER only at the surviving sizes, instead of the `O(N²)`
//!   full prefix scan (median and quartiles over 21 rounds);
//! * **full-rescan baseline** — what the same re-solve cost before this
//!   path existed: `AltrAlg::solve_presorted` over the identical
//!   (already repaired) sorted order. Measured only up to 10⁴ jurors;
//!   beyond that one baseline rescan takes whole seconds, which is the
//!   point.
//!
//! Two pool shapes. The **expert-mob** pool models the regime the
//! paper's Twitter measurements show and that makes jury selection
//! interesting at all: a *fixed* cohort of reliable experts
//! (ε ∈ [0.02, 0.30)) inside an ever-growing unreliable mob
//! (ε ∈ [0.55, 0.95)). The optimal jury sits in the expert band; JER
//! provably rises from the first mob rank on, and the Paley–Zygmund and
//! Berry–Esseen bounds erase everything past the `μ ≈ t` crossover, so
//! the scan stops just past the experts. The **uniform** pool spreads ε
//! over [0.02, 0.98): by 10⁴ jurors its JER underflows to exactly
//! `0.0`, and the scan stops at the first such prefix. The
//! emitter records how many candidate sizes each re-solve skipped.
//!
//! Appends an `"altrm"` section to `BENCH_service.json`. `--smoke` runs a
//! seconds-long version on 500- and 10⁴-juror pools and writes nothing —
//! CI uses it to keep this binary from rotting and to cover both early
//! exits of the pruned scan.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin altrm_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::{time_best_of, time_quartiles, Quartiles};
use jury_core::altr::AltrAlg;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_core::solver::{sorted_order_into, SolverScratch};
use jury_service::{DecisionTask, JuryService, PoolId};
use serde::{json, Serialize, Value};

/// Number of reliable experts, independent of pool size.
const EXPERTS: usize = 100;

/// Largest pool the `O(N²)` full-rescan baseline is measured on.
const RESCAN_BASELINE_MAX: usize = 10_000;

/// The two pool shapes the emitter measures.
#[derive(Clone, Copy)]
enum Shape {
    /// `EXPERTS` reliable jurors inside a growing unreliable mob.
    ExpertMob,
    /// ε spread evenly over [0.02, 0.98).
    Uniform,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::ExpertMob => "expert_mob",
            Shape::Uniform => "uniform",
        }
    }

    /// Deterministic pool: golden-ratio spacing, convex prices. The
    /// expert-mob pool spreads `EXPERTS` jurors over [0.02, 0.30) and the
    /// rest over [0.55, 0.95).
    fn pool(self, n: usize) -> Vec<Juror> {
        let experts = EXPERTS.min(n / 2);
        let quotes: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                let e = match self {
                    Shape::ExpertMob if i < experts => 0.02 + 0.28 * u,
                    Shape::ExpertMob => 0.55 + 0.40 * u,
                    Shape::Uniform => 0.02 + 0.96 * u,
                };
                (e, 0.05 + u * u)
            })
            .collect();
        pool_from_rates_and_costs(&quotes).expect("valid synthetic quotes")
    }

    /// One juror update per round, re-estimated within its own band so
    /// the pool regime is stable across rounds: a mob member of the
    /// expert-mob pool, any member of the uniform one.
    fn mutated_juror(self, round: usize, n: usize) -> (usize, Juror) {
        let (idx, e) = match self {
            Shape::ExpertMob => (
                EXPERTS + (round * 7919) % (n - EXPERTS),
                0.55 + ((round * 13) % 40) as f64 / 100.0,
            ),
            Shape::Uniform => ((round * 7919) % n, 0.02 + ((round * 13) % 96) as f64 / 100.0),
        };
        (idx, Juror::new(idx as u32, ErrorRate::new(e).unwrap(), 0.1))
    }
}

/// What one pool's measurement found.
struct Measured {
    steady: f64,
    post_mutation: Quartiles,
    pruned_per_solve: usize,
    /// Size and JER of the last re-solved answer.
    answer: (usize, f64),
}

/// Measures steady warm replay (best of `repeats`) and post-mutation
/// re-solve (quartiles over `rounds`) through the service. The median
/// of many rounds shows whether two builds differ by more than the
/// noise; a best of a few rounds right after the cold build does not.
fn measure(
    service: &mut JuryService,
    id: PoolId,
    shape: Shape,
    n: usize,
    repeats: usize,
    rounds: usize,
) -> Measured {
    let task = DecisionTask::altruism(id);
    assert!(service.solve(&task).is_ok(), "priming solve must succeed");
    let (_, steady) = time_best_of(repeats, || {
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    let pruned_before = service.stats().bound_pruned;
    let solves_before = service.stats().tasks_solved;
    let mut round = 0usize;
    let (_, post_mutation) = time_quartiles(rounds, || {
        round += 1;
        let (idx, juror) = shape.mutated_juror(round, n);
        service.update_juror(id, idx, juror).expect("index in range");
        let r = service.solve(&task);
        std::hint::black_box(r.is_ok())
    });
    let full_repairs = service.stats().full_repairs;
    assert!(full_repairs <= 1, "post-mutation AltrM must never full-repair (saw {full_repairs})");
    let solves = service.stats().tasks_solved - solves_before;
    let pruned_per_solve = (service.stats().bound_pruned - pruned_before) / solves.max(1);
    let answer = service.solve(&task).expect("non-empty pool");
    Measured { steady, post_mutation, pruned_per_solve, answer: (answer.size(), answer.jer) }
}

/// The pre-pruning cost of the same re-solve: one full presorted scan
/// over the pool's sorted order.
fn full_rescan_baseline(jurors: &[Juror], repeats: usize) -> f64 {
    let mut order = Vec::new();
    sorted_order_into(jurors, &mut order);
    let mut scratch = SolverScratch::new();
    let alg = AltrAlg::default();
    let (_, secs) = time_best_of(repeats, || {
        let r = alg.solve_presorted(jurors, &order, &mut scratch);
        std::hint::black_box(r.is_ok())
    });
    secs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The smoke run's 10⁴ uniform pool answers JER 0.0, so it covers the
    // scan's zero exit as well as its monotone-segment exit.
    let (pool_sizes, repeats, rounds): (Vec<usize>, usize, usize) =
        if smoke { (vec![500, 10_000], 1, 3) } else { (vec![1_000, 10_000, 100_000], 5, 21) };

    let mut report = Report::new(
        "altrm_throughput",
        "warm AltrM: cached replay (steady) vs one juror update + bound-pruned re-solve, \
         against the O(N^2) full-rescan baseline",
        &[
            "shape",
            "pool",
            "steady warm",
            "post-mutation p50",
            "p25",
            "p75",
            "full rescan",
            "speedup",
            "pruned",
            "answer",
        ],
    );
    let mut rows: Vec<Value> = Vec::new();

    for shape in [Shape::ExpertMob, Shape::Uniform] {
        for &n in &pool_sizes {
            let jurors = shape.pool(n);
            let rescan = (n <= RESCAN_BASELINE_MAX).then(|| full_rescan_baseline(&jurors, repeats));
            let mut service = JuryService::new();
            let id = service.create_pool(jurors);
            let Measured { steady, post_mutation: post, pruned_per_solve: pruned, answer } =
                measure(&mut service, id, shape, n, repeats, rounds);
            assert!(pruned > 0, "the re-solve must skip sizes on the {} pool", shape.name());
            if matches!(shape, Shape::Uniform) && n >= 10_000 {
                assert_eq!(answer.1, 0.0, "a {n}-juror uniform pool's JER underflows");
            }
            let speedup = rescan.map(|r| r / post.p50);
            report.row(&[
                &shape.name(),
                &n,
                &fmt_secs(steady),
                &fmt_secs(post.p50),
                &fmt_secs(post.p25),
                &fmt_secs(post.p75),
                &rescan.map_or("-".into(), fmt_secs),
                &speedup.map_or("-".into(), |s| format!("{s:.0}x")),
                &pruned,
                &format!("{} @ {:.1e}", answer.0, answer.1),
            ]);
            rows.push(Value::object([
                ("pool_shape", shape.name().to_value()),
                ("pool_size", n.to_value()),
                ("model", "altrm".to_value()),
                ("steady_warm_hit_secs", steady.to_value()),
                ("post_mutation_secs", post.p50.to_value()),
                ("post_mutation_p25_secs", post.p25.to_value()),
                ("post_mutation_p75_secs", post.p75.to_value()),
                ("post_mutation_rounds", rounds.to_value()),
                ("full_rescan_secs", rescan.map_or(Value::Null, |r| r.to_value())),
                ("speedup_vs_full_rescan", speedup.map_or(Value::Null, |s| s.to_value())),
                ("sizes_pruned_per_solve", pruned.to_value()),
                ("answer_size", answer.0.to_value()),
                ("answer_jer", answer.1.to_value()),
            ]));
        }
    }

    report.emit();

    if smoke {
        println!("[smoke] altrm_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the altrm section.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "warm AltrM on an expert-plus-mob pool (100 experts eps in [0.02,0.30), mob in \
             [0.55,0.95)) and a uniform pool (eps in [0.02,0.98)): cached replay (steady) and \
             one juror update + next solve (post-mutation: in-place order repair + \
             bound-pruned rescan-free re-solve; median and quartiles over 21 rounds), vs the \
             O(N^2) full presorted rescan the warm path previously paid"
                .to_value(),
        ),
        ("experts", EXPERTS.to_value()),
        ("pool_shapes", Value::Array(vec!["expert_mob".to_value(), "uniform".to_value()])),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        (
            "rescan_baseline_note",
            format!(
                "full_rescan_secs measured only up to {RESCAN_BASELINE_MAX} jurors; beyond that \
                 one O(N^2) rescan takes seconds"
            )
            .to_value(),
        ),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "altrm");
        fields.push(("altrm".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (altrm section)");
}
