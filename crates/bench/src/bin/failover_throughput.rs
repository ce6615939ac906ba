//! `failover_throughput` — the warm-follower economics: time-to-adopt
//! a freshly committed generation vs a cold restart, time-to-promote
//! after a writer death, and follower lag under steady ~1% churn.
//!
//! The fleet model mirrors `restart_throughput`: 100 content-distinct
//! pools carrying the total juror count between them. A writer commits
//! generation 1; a warm follower restores it, then the writer churns
//! ~1% of the fleet and commits again. The follower's
//! [`JuryService::adopt_snapshot`] hot-swaps the new generation in
//! place — parsing the manifest and verified-restoring only the
//! churned entries — and must come in at least 10× cheaper than a
//! cold restart (fresh process re-registering and re-restoring the
//! whole fleet) at the 10⁶-juror scale. The adopted answer on the
//! churned pool is asserted bit-identical to the writer's before
//! anything is reported.
//!
//! A fleet-size axis then holds the pool size at 10² jurors and grows
//! the fleet to 10³ and 10⁴ pools, recording the manifest size, the
//! writer's one-entry incremental commit and the follower's adoption.
//! Both re-parse a manifest with one record per pool, so adoption cost
//! per manifest entry must stay flat across the axis (within 3×) —
//! a superlinear manifest parse would show up here first.
//!
//! Two more figures complete the failover story: *time-to-promote* —
//! a follower's first successful probe over a stale writer lease
//! (break, fence, no-op commit) — and *follower lag* — wall time from
//! a writer commit returning to the follower's watcher noticing and
//! adopting it, sampled over several churn rounds.
//!
//! Appends a `"failover"` section to `BENCH_service.json`. `--smoke` runs a
//! sub-second version on a tiny fleet and writes nothing — CI uses it to
//! keep this binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin failover_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::time_it;
use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_service::{
    AdoptReport, DecisionTask, JuryService, ServiceConfig, SnapshotReport, SnapshotWatcher,
};
use serde::{json, Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Content-distinct expert-plus-mob pool (the `restart_throughput`
/// shape): `salt` rotates the golden-ratio phase so every fleet member
/// interns its own store entry.
fn distinct_pool(n: usize, salt: usize) -> Vec<Juror> {
    let experts = n.div_ceil(50);
    let quotes: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let u = (i as f64 * 0.6180339887498949 + salt as f64 * 0.3819660112501051) % 1.0;
            let eps = if i < experts { 0.02 + 0.43 * u } else { 0.55 + 0.40 * u };
            (eps, 0.05 + u * u)
        })
        .collect();
    pool_from_rates_and_costs(&quotes).expect("valid synthetic quotes")
}

fn service_over(dir: &Path) -> JuryService {
    JuryService::with_config(ServiceConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
}

/// Registers and warms the whole fleet (salts `0..fleet`), restoring
/// from the directory where content matches.
fn register_fleet(
    service: &mut JuryService,
    fleet: usize,
    per: usize,
) -> Vec<jury_service::PoolId> {
    (0..fleet)
        .map(|salt| {
            let id = service.create_pool(distinct_pool(per, salt));
            service.warm_pool(id).expect("fleet pool warms");
            id
        })
        .collect()
}

/// A writer and a warm follower over one directory, after the writer
/// churned one pool, committed, and the follower adopted that commit.
struct Churned {
    writer: JuryService,
    follower: JuryService,
    /// The churned-in pool, on each side.
    writer_replacement: jury_service::PoolId,
    follower_replacement: jury_service::PoolId,
    commit: SnapshotReport,
    commit_secs: f64,
    adopted: AdoptReport,
    adopt_secs: f64,
}

/// Writer warms `fleet` pools of `per` jurors and commits generation 1;
/// a follower restores it warm. The writer then replaces one pool and
/// commits generation 2, and the follower — holding the replacement
/// cold — adopts it, restoring exactly that one entry.
fn churn_and_adopt(dir: &Path, fleet: usize, per: usize) -> Churned {
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = service_over(dir);
    let writer_ids = register_fleet(&mut writer, fleet, per);
    let gen1 = writer.snapshot(dir).expect("writer commits generation 1").generation;

    let mut follower = service_over(dir);
    register_fleet(&mut follower, fleet, per);
    assert!(
        follower.stats().snapshot_restores >= fleet,
        "the follower must restore the fleet, not rebuild it"
    );

    writer.remove_pool(writer_ids[0]).expect("pool retires");
    let writer_replacement = writer.create_pool(distinct_pool(per, fleet));
    writer.warm_pool(writer_replacement).expect("replacement warms");
    let (commit, commit_secs) = time_it(|| writer.snapshot(dir));
    let commit = commit.expect("writer commits generation 2");
    assert_eq!(commit.generation, gen1 + 1);
    assert_eq!(commit.written, 1, "only the churned entry is rewritten");
    let follower_replacement = follower.create_pool(distinct_pool(per, fleet));

    let (adopted, adopt_secs) = time_it(|| follower.adopt_snapshot());
    let adopted = adopted.expect("the follower adopts the newer generation");
    assert_eq!(adopted.generation, commit.generation);
    assert_eq!(adopted.restored, 1, "adoption restores exactly the churned entry");
    assert_eq!(adopted.rejected, 0, "nothing fails verification");
    Churned {
        writer,
        follower,
        writer_replacement,
        follower_replacement,
        commit,
        commit_secs,
        adopted,
        adopt_secs,
    }
}

/// Forges the writer lease stale so a follower probe finds a dead
/// writer: same wire format the lease module writes, heartbeat two
/// minutes in the past (far beyond the default 30s ttl).
fn forge_stale_lease(dir: &Path) {
    let heartbeat =
        SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_millis() as u64 - 120_000;
    std::fs::write(
        dir.join("writer.lease"),
        format!(
            r#"{{"format":"jury-lease","holder":"dead-writer","epoch":"{:016x}","heartbeat_ms":"{heartbeat:016x}"}}"#,
            7u64
        ),
    )
    .expect("forge stale lease");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, fleet, lag_rounds): (Vec<usize>, usize, usize) =
        if smoke { (vec![400], 10, 2) } else { (vec![10_000, 1_000_000], 100, 5) };
    let (fleet_axis, fleet_axis_per): (Vec<usize>, usize) =
        if smoke { (vec![20, 200], 8) } else { (vec![1_000, 10_000], 100) };

    let base: PathBuf = std::env::temp_dir().join(format!(
        "jury-failover-bench-{}{}",
        std::process::id(),
        if smoke { "-smoke" } else { "" }
    ));

    let mut report = Report::new(
        "failover_throughput",
        "warm-follower economics: generation adoption vs cold restart, promotion, lag",
        &["pool", "adopt", "cold-restart", "speedup", "promote", "lag-mean", "lag-max"],
    );
    let mut rows: Vec<Value> = Vec::new();

    for &n in &sizes {
        let per = (n / fleet).max(4);
        let dir = base.join(format!("gen-{n}"));
        let Churned {
            mut writer,
            mut follower,
            writer_replacement: replacement,
            follower_replacement,
            commit,
            adopted,
            adopt_secs,
            ..
        } = churn_and_adopt(&dir, fleet, per);

        // The adopted answer is the writer's answer, bit for bit.
        let task = DecisionTask::altruism(replacement);
        let from_writer = writer.solve(&task).expect("writer solves the churned pool");
        let from_follower = follower
            .solve(&DecisionTask::altruism(follower_replacement))
            .expect("follower solves the adopted pool");
        assert_eq!(from_follower.members, from_writer.members, "adoption must not change answers");
        assert_eq!(from_follower.jer.to_bits(), from_writer.jer.to_bits());

        // The alternative to adoption: a cold restart over the same
        // directory — fresh process, full re-registration, full
        // verified restore of every entry.
        let (cold_restores, cold_secs) = time_it(|| {
            let mut restarted = service_over(&dir);
            // The current fleet: salt 0 retired, the replacement
            // (salt == fleet) took its place.
            for salt in 1..=fleet {
                let id = restarted.create_pool(distinct_pool(per, salt));
                restarted.warm_pool(id).expect("restart pool warms");
            }
            restarted.stats().snapshot_restores
        });
        assert!(cold_restores >= fleet, "the cold restart restores the whole fleet");
        let speedup = cold_secs / adopt_secs;
        if n >= 1_000_000 {
            assert!(
                speedup >= 10.0,
                "generation adoption must be >=10x cheaper than a cold restart at 10^6 \
                 jurors (adopt {adopt_secs:.4}s, cold {cold_secs:.4}s)"
            );
        }

        // Follower lag under steady ~1% churn: wall time from a writer
        // commit returning to the watcher-driven follower having
        // adopted it.
        let mut watcher = SnapshotWatcher::new(&dir, Duration::from_millis(1));
        watcher.observe(commit.generation);
        let mut lags_ms: Vec<f64> = Vec::new();
        for round in 0..lag_rounds {
            let salt = fleet + 1 + round;
            let fresh = writer.create_pool(distinct_pool(per, salt));
            writer.warm_pool(fresh).expect("churn pool warms");
            let committed = writer.snapshot(&dir).expect("churn round commits");
            let started = Instant::now();
            loop {
                if watcher.poll().is_some() {
                    let report = follower.adopt_snapshot().expect("follower adopts churn round");
                    assert_eq!(report.generation, committed.generation);
                    watcher.observe(report.generation);
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            lags_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let lag_mean_ms = lags_ms.iter().sum::<f64>() / lags_ms.len() as f64;
        let lag_max_ms = lags_ms.iter().cloned().fold(0.0, f64::max);

        // Time-to-promote: the writer dies (its lease forged stale),
        // and the follower's first probe breaks the lease, fences the
        // corpse, and commits — from then on it is the writer.
        forge_stale_lease(&dir);
        let (promoted, promote_secs) = time_it(|| follower.snapshot(&dir));
        promoted.expect("the follower promotes over the stale lease");

        report.row(&[
            &n,
            &fmt_secs(adopt_secs),
            &fmt_secs(cold_secs),
            &format!("{speedup:.1}x"),
            &fmt_secs(promote_secs),
            &format!("{lag_mean_ms:.2}ms"),
            &format!("{lag_max_ms:.2}ms"),
        ]);
        rows.push(Value::object([
            ("pool_size", n.to_value()),
            ("fleet", fleet.to_value()),
            ("churned", 1usize.to_value()),
            ("adopt_secs", adopt_secs.to_value()),
            ("adopt_restored", adopted.restored.to_value()),
            ("cold_restart_secs", cold_secs.to_value()),
            ("adopt_speedup", speedup.to_value()),
            ("promote_secs", promote_secs.to_value()),
            ("churn_rounds", lag_rounds.to_value()),
            ("lag_mean_ms", lag_mean_ms.to_value()),
            ("lag_max_ms", lag_max_ms.to_value()),
        ]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Fleet-size axis: one manifest record per pool, one churned pool.
    let mut fleet_report = Report::new(
        "failover_fleet_axis",
        "adoption and incremental commit vs fleet size (one churned pool)",
        &["fleet", "pool", "manifest", "commit", "adopt", "adopt/entry"],
    );
    let mut fleet_rows: Vec<Value> = Vec::new();
    let mut adopt_per_entry: Vec<f64> = Vec::new();
    for &pools in &fleet_axis {
        let dir = base.join(format!("fleet-{pools}"));
        let churned = churn_and_adopt(&dir, pools, fleet_axis_per);
        let manifest = dir.join(format!("manifest-{}.json", churned.commit.generation));
        let manifest_bytes = std::fs::metadata(&manifest).expect("committed manifest").len();
        let per_entry = churned.adopt_secs / pools as f64;
        adopt_per_entry.push(per_entry);
        fleet_report.row(&[
            &pools,
            &fleet_axis_per,
            &format!("{:.1}KB", manifest_bytes as f64 / 1024.0),
            &fmt_secs(churned.commit_secs),
            &fmt_secs(churned.adopt_secs),
            &format!("{:.2}us", per_entry * 1e6),
        ]);
        fleet_rows.push(Value::object([
            ("fleet", pools.to_value()),
            ("pool_size", fleet_axis_per.to_value()),
            ("manifest_bytes", manifest_bytes.to_value()),
            ("commit_secs", churned.commit_secs.to_value()),
            ("adopt_secs", churned.adopt_secs.to_value()),
            ("adopt_restored", churned.adopted.restored.to_value()),
        ]));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);

    report.emit();
    fleet_report.emit();
    if !smoke {
        let (small, large) = (adopt_per_entry[0], adopt_per_entry[adopt_per_entry.len() - 1]);
        assert!(
            large <= 3.0 * small,
            "adoption per manifest entry must not grow with the fleet: {:.2}us at {} pools vs \
             {:.2}us at {} pools",
            large * 1e6,
            fleet_axis[fleet_axis.len() - 1],
            small * 1e6,
            fleet_axis[0]
        );
    }

    if smoke {
        println!("[smoke] failover_throughput ok ({} measurements)", rows.len() + fleet_rows.len());
        return;
    }

    // Extend BENCH_service.json with the failover section rather than
    // clobbering the baseline document.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "warm-follower economics over a 100-pool fleet with ~1% churn: generation \
             adoption (manifest parse + verified restore of the churned slice) vs cold \
             restart (full re-registration and restore), first-probe promotion over a \
             stale writer lease, and watcher-driven adoption lag per churn round"
                .to_value(),
        ),
        ("pool_sizes", Value::Array(sizes.iter().map(|n| n.to_value()).collect())),
        ("results", Value::Array(rows)),
        (
            "fleet_axis",
            Value::object([
                (
                    "workload",
                    "fleet of 10^3 and 10^4 pools of 10^2 jurors each, one pool churned: \
                     manifest size, the writer's incremental commit (re-parses the previous \
                     manifest) and the follower's adoption (parses the new one, restores the \
                     churned entry)"
                        .to_value(),
                ),
                ("results", Value::Array(fleet_rows)),
            ]),
        ),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "failover");
        fields.push(("failover".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (failover section)");
}
