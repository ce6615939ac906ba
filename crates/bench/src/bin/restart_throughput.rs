//! `restart_throughput` — restart-to-first-answer: cold rebuild vs
//! verified snapshot restore.
//!
//! A process restart loses the warm-artifact store. The cold path pays
//! the full warm build on the first task — `O(N log N)` sorts plus the
//! AltrM solve — per pool; the snapshot path re-attaches the pool to a
//! persisted `ArtifactSet` by content, paying only the verified read
//! (whole-file and per-section checksums, permutation and ε-binding
//! checks, pmf re-hashes, and the `match_pool` content comparison).
//! The first task is altruism because that is the expensive rebuild the
//! snapshot actually skips: the persisted set carries the AltrM answer,
//! so the restored side answers from verified state while the cold side
//! re-derives it. Both sides are measured end to end: construct the
//! service, register the pool, solve the first task. Both answers are
//! asserted bit-identical before anything is reported.
//!
//! A second measurement prices the *incremental checkpoint*: a fleet of
//! content-distinct pools is warmed and fully checkpointed once, then
//! ~1% of the fleet churns (a pool retires, a fresh-content replacement
//! warms up) and the directory is re-checkpointed. The second commit
//! must write exactly the churned entries (counter-asserted) and, at
//! the 10⁶-juror scale, come in at least 10× cheaper than the full
//! rewrite.
//!
//! Appends a `"restart"` section to `BENCH_service.json`. `--smoke` runs a
//! sub-second version on a tiny pool and writes nothing — CI uses it to
//! keep this binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin restart_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::{time_best_of, time_it};
use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_service::{DecisionTask, JuryService, ServiceConfig};
use serde::{json, Serialize, Value};
use std::path::{Path, PathBuf};

/// Deterministic expert-plus-mob pool (the `altrm_throughput` shape):
/// 2% experts with ε in [0.02, 0.45), 98% mob in [0.55, 0.95). The
/// optimal jury is roughly the expert block, so the cold AltrM scan is
/// deep enough to be the realistic rebuild cost (seconds at 10⁶)
/// without degenerating into the unprunable near-full `O(N²)` sweep a
/// uniform ε spread causes (the sorted prefix mean must cross ½ for
/// the bound sweep to prune — see `AltrAlg::solve_pruned`).
fn pool(n: usize) -> Vec<Juror> {
    distinct_pool(n, 0)
}

/// A content-distinct variant of [`pool`]: `salt` rotates the
/// golden-ratio phase, so every member of the checkpoint fleet interns
/// its own store entry (equal juror multisets would share one).
fn distinct_pool(n: usize, salt: usize) -> Vec<Juror> {
    let experts = n.div_ceil(50);
    let quotes: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            // golden-ratio spread, phase-rotated per pool
            let u = (i as f64 * 0.6180339887498949 + salt as f64 * 0.3819660112501051) % 1.0;
            let eps = if i < experts { 0.02 + 0.43 * u } else { 0.55 + 0.40 * u };
            (eps, 0.05 + u * u)
        })
        .collect();
    pool_from_rates_and_costs(&quotes).expect("valid synthetic quotes")
}

/// The comparable bits of the first answer after a restart.
type Answer = (Vec<usize>, u64, u64);

/// One simulated restart: a fresh service (optionally pointed at a
/// snapshot directory), the pool registered from pre-staged jurors (the
/// clone is excluded so both sides time the same registration work),
/// then the first solve. Returns the best-of wall time and the answer.
fn restart_to_first_answer(
    jurors: &[Juror],
    repeats: usize,
    snapshot_dir: Option<&Path>,
) -> (f64, Answer, usize) {
    let mut stock: Vec<Vec<Juror>> = (0..repeats).map(|_| jurors.to_vec()).collect();
    let config =
        ServiceConfig { snapshot_dir: snapshot_dir.map(Path::to_path_buf), ..Default::default() };
    let ((answer, restores), secs) = time_best_of(repeats, || {
        let mut service = JuryService::with_config(config.clone());
        let id = service.create_pool(stock.pop().expect("one stock pool per repeat"));
        let selection = service.solve(&DecisionTask::altruism(id)).expect("altruism solves");
        let answer = (selection.members, selection.jer.to_bits(), selection.total_cost.to_bits());
        (answer, service.stats().snapshot_restores)
    });
    (secs, answer, restores)
}

/// Builds the snapshot the restore side restarts from: a warm service
/// over the same content, solved once, persisted. The altruism solve
/// is what populates the AltrM answer the snapshot carries.
fn seed_snapshot(dir: &Path, jurors: &[Juror]) {
    let mut service = JuryService::new();
    let id = service.create_pool(jurors.to_vec());
    service.solve(&DecisionTask::altruism(id)).expect("altruism solves");
    let report = service.snapshot(dir).expect("snapshot writes");
    assert!(report.entries >= 1, "seed snapshot persisted nothing");
}

/// Incremental-checkpoint economics: warms a fleet of `fleet`
/// content-distinct pools of `per` jurors each, prices the full first
/// checkpoint of `dir`, churns `churned` pools (one retires, a
/// fresh-content replacement warms up), and prices the re-checkpoint —
/// which must write exactly the churned entries and retain the rest by
/// reference. Returns `(full_secs, incremental_secs)`.
fn checkpoint_costs(dir: &Path, fleet: usize, per: usize, churned: usize) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut service = JuryService::new();
    let ids: Vec<_> = (0..fleet)
        .map(|salt| {
            let id = service.create_pool(distinct_pool(per, salt));
            service.warm_pool(id).expect("fleet pool warms");
            id
        })
        .collect();
    let (full, full_secs) = time_it(|| service.snapshot(dir).expect("full checkpoint"));
    assert_eq!(full.written, fleet, "the first checkpoint writes the whole fleet");
    for (i, id) in ids.into_iter().take(churned).enumerate() {
        service.remove_pool(id).expect("pool retires");
        let fresh = service.create_pool(distinct_pool(per, fleet + i));
        service.warm_pool(fresh).expect("replacement warms");
    }
    let (incr, incr_secs) = time_it(|| service.snapshot(dir).expect("incremental checkpoint"));
    assert_eq!(incr.written, churned, "only the churned entries are rewritten");
    assert_eq!(incr.retained, fleet - churned, "unchanged entries are retained by reference");
    assert_eq!(incr.generation, full.generation + 1, "the re-checkpoint commits one generation");
    (full_secs, incr_secs)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, repeats): (Vec<usize>, usize) =
        if smoke { (vec![400], 1) } else { (vec![10_000, 1_000_000], 3) };

    let dir: PathBuf = std::env::temp_dir().join(format!(
        "jury-restart-bench-{}{}",
        std::process::id(),
        if smoke { "-smoke" } else { "" }
    ));

    let mut report = Report::new(
        "restart_throughput",
        "restart-to-first-answer: cold warm-build vs verified snapshot restore",
        &["pool", "cold", "snapshot", "speedup", "restores", "ckpt-full", "ckpt-incr", "ckpt-gain"],
    );
    let mut rows: Vec<Value> = Vec::new();

    for &n in &sizes {
        let jurors = pool(n);
        let (cold_secs, cold_answer, cold_restores) =
            restart_to_first_answer(&jurors, repeats, None);
        assert_eq!(cold_restores, 0, "the cold side must not restore anything");

        let _ = std::fs::remove_dir_all(&dir);
        seed_snapshot(&dir, &jurors);
        let (snap_secs, snap_answer, snap_restores) =
            restart_to_first_answer(&jurors, repeats, Some(&dir));
        assert!(snap_restores >= 1, "the snapshot side must restore, not rebuild");
        assert_eq!(
            snap_answer, cold_answer,
            "restored first answer must be bit-identical to the cold build's"
        );

        // Checkpoint economics over a fleet carrying the same total
        // juror count, with ~1% of its pools churned between commits.
        let fleet = if smoke { 20 } else { 100 };
        let per = (n / fleet).max(4);
        let churned = fleet.div_ceil(100);
        let (full_secs, incr_secs) =
            checkpoint_costs(&dir.join(format!("fleet-{n}")), fleet, per, churned);
        let ckpt_speedup = full_secs / incr_secs;
        if n >= 1_000_000 {
            assert!(
                ckpt_speedup >= 10.0,
                "incremental checkpoint must be >=10x cheaper than a full rewrite at 10^6 \
                 jurors (full {full_secs:.4}s, incremental {incr_secs:.4}s)"
            );
        }

        let speedup = cold_secs / snap_secs;
        report.row(&[
            &n,
            &fmt_secs(cold_secs),
            &fmt_secs(snap_secs),
            &format!("{speedup:.1}x"),
            &snap_restores,
            &fmt_secs(full_secs),
            &fmt_secs(incr_secs),
            &format!("{ckpt_speedup:.1}x"),
        ]);
        rows.push(Value::object([
            ("pool_size", n.to_value()),
            ("cold_secs", cold_secs.to_value()),
            ("snapshot_secs", snap_secs.to_value()),
            ("speedup", speedup.to_value()),
            ("snapshot_restores", snap_restores.to_value()),
            ("checkpoint_pools", fleet.to_value()),
            ("checkpoint_written", churned.to_value()),
            ("checkpoint_full_secs", full_secs.to_value()),
            ("checkpoint_incremental_secs", incr_secs.to_value()),
            ("checkpoint_speedup", ckpt_speedup.to_value()),
        ]));
    }
    let _ = std::fs::remove_dir_all(&dir);

    report.emit();

    if smoke {
        println!("[smoke] restart_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the restart section rather than
    // clobbering the baseline document.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "restart-to-first-answer (AltrM, one pool): cold warm-build vs verified \
             snapshot restore, best of repeats, registration clone pre-staged; plus \
             incremental-checkpoint economics over a 100-pool fleet with ~1% churn \
             between commits"
                .to_value(),
        ),
        ("pool_sizes", Value::Array(sizes.iter().map(|n| n.to_value()).collect())),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "restart");
        fields.push(("restart".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (restart section)");
}
