//! `multi_tenant_throughput` — the warm-artifact store's payoff.
//!
//! The multi-tenant workload: M logical pools (per-tenant, per-topic,
//! per-region registries) over **one** juror population. For each pool
//! size the emitter measures the aggregate *register + first-solve*
//! cost — `create_pool` + one AltrM solve + one PayM solve per pool —
//! for M replicated pools:
//!
//! * **shared**: all M pools on one service. The first pool builds the
//!   warm artifact set, every further pool attaches to the interned
//!   entry (`O(N)` content verification + `Arc` clones);
//! * **private**: each pool on a service of its own, built before the
//!   clock starts. Every pool pays the full warm-up (two `O(N log N)`
//!   sorts, the bound-pruned AltrM scan and one greedy scan) — what
//!   every pool paid before the store existed.
//!
//! A second measurement drives the **mutation churn** loop: two
//! replicated pools, one of which is repeatedly perturbed away
//! (copy-on-write detach + in-place repair) and restored (fingerprint
//! re-join), timing the detach→solve and rejoin→solve halves and
//! asserting the detach/re-join counters moved.
//!
//! Appends a `"multi_tenant"` section to `BENCH_service.json`. `--smoke`
//! runs a seconds-long version and writes nothing — CI uses it to keep this
//! binary from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin multi_tenant_throughput [-- --smoke]
//! ```

use jury_bench::report::{fmt_secs, Report};
use jury_bench::timing::time_it;
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_service::{DecisionTask, JuryService};
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

/// Registers `tenants` replicated pools and runs each one's first
/// solves (AltrM + PayM), returning total seconds. Tenant `t` registers
/// on `services[t % services.len()]`: one service shares, one service
/// per tenant keeps every pool private.
fn register_and_first_solve(services: &mut [JuryService], jurors: &[Juror], tenants: usize) -> f64 {
    let count = services.len();
    let (_, secs) = time_it(|| {
        for t in 0..tenants {
            let service = &mut services[t % count];
            let id = service.create_pool(jurors.to_vec());
            let altr = service.solve(&DecisionTask::altruism(id));
            assert!(altr.is_ok(), "tenant {t}: altr must solve");
            let paym = service.solve(&DecisionTask::pay_as_you_go(id, 2.5));
            assert!(paym.is_ok(), "tenant {t}: paym must solve");
        }
    });
    secs
}

/// The detach/re-join churn loop on two replicated pools: perturb one
/// juror of pool A (detach + in-place repair + fresh AltrM solve), then
/// restore it (fingerprint re-join + shared replay). Returns mean
/// seconds per (detach half, rejoin half).
fn churn(
    service: &mut JuryService,
    a: jury_service::PoolId,
    original: Juror,
    rounds: usize,
) -> (f64, f64) {
    let perturbed = Juror::new(
        original.id,
        ErrorRate::new((original.epsilon() + 0.011).min(0.98)).unwrap(),
        original.cost,
    );
    let task = DecisionTask::altruism(a);
    let mut detach_total = 0.0;
    let mut rejoin_total = 0.0;
    for _ in 0..rounds {
        let (_, d) = time_it(|| {
            service.update_juror(a, 0, perturbed).unwrap();
            assert!(service.solve(&task).is_ok());
        });
        detach_total += d;
        let (_, r) = time_it(|| {
            service.update_juror(a, 0, original).unwrap();
            assert!(service.solve(&task).is_ok());
        });
        rejoin_total += r;
    }
    (detach_total / rounds as f64, rejoin_total / rounds as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (pool_sizes, tenants, churn_rounds): (Vec<usize>, usize, usize) =
        if smoke { (vec![200], 8, 3) } else { (vec![1_000, 10_000], 64, 20) };

    let mut report = Report::new(
        "multi_tenant_throughput",
        "M replicated pools: aggregate register+first-solve, one shared service vs one \
         service per pool, plus detach/re-join churn",
        &["pool", "tenants", "shared", "private", "speedup", "churn detach", "churn rejoin"],
    );
    let mut rows: Vec<Value> = Vec::new();

    for &n in &pool_sizes {
        let jurors = pool(n);

        let mut with_store = JuryService::new();
        let shared_secs =
            register_and_first_solve(std::slice::from_mut(&mut with_store), &jurors, tenants);
        let stats = with_store.stats();
        assert_eq!(
            stats.artifact_share_hits,
            tenants - 1,
            "every tenant after the first must attach"
        );
        assert_eq!(with_store.artifact_entries(), 1, "one interned artifact set");

        let mut private: Vec<JuryService> = (0..tenants).map(|_| JuryService::new()).collect();
        let private_secs = register_and_first_solve(&mut private, &jurors, tenants);
        drop(private);
        let speedup = private_secs / shared_secs;

        // Churn on the shared service: pool 0 is perturbed and restored
        // against its surviving replicas.
        let a = with_store.create_pool(jurors.clone());
        with_store.warm_pool(a).unwrap();
        let detaches_before = with_store.stats().artifact_detaches;
        let rejoins_before = with_store.stats().artifact_rejoins;
        let (churn_detach, churn_rejoin) = churn(&mut with_store, a, jurors[0], churn_rounds);
        let stats = with_store.stats();
        assert_eq!(
            stats.artifact_detaches - detaches_before,
            2 * churn_rounds,
            "every churn half begins with a detach"
        );
        assert_eq!(
            stats.artifact_rejoins - rejoins_before,
            churn_rounds,
            "every restoration must re-join"
        );

        report.row(&[
            &n,
            &tenants,
            &fmt_secs(shared_secs),
            &fmt_secs(private_secs),
            &format!("{speedup:.1}x"),
            &fmt_secs(churn_detach),
            &fmt_secs(churn_rejoin),
        ]);
        rows.push(Value::object([
            ("pool_size", n.to_value()),
            ("tenants", tenants.to_value()),
            ("shared_register_first_solve_secs", shared_secs.to_value()),
            ("private_register_first_solve_secs", private_secs.to_value()),
            ("speedup", speedup.to_value()),
            ("churn_detach_solve_secs", churn_detach.to_value()),
            ("churn_rejoin_solve_secs", churn_rejoin.to_value()),
            ("churn_rounds", churn_rounds.to_value()),
        ]));
    }
    report.emit();

    if smoke {
        println!("[smoke] multi_tenant_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the store section.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "M replicated pools over one juror population: aggregate register + first-solve \
             (create_pool + AltrM + PayM per pool) on one shared service vs one service \
             per pool, plus per-mutation detach/re-join churn on two replicas"
                .to_value(),
        ),
        ("tenants", tenants.to_value()),
        ("pool_sizes", Value::Array(pool_sizes.iter().map(|n| n.to_value()).collect())),
        ("results", Value::Array(rows)),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "multi_tenant");
        fields.push(("multi_tenant".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (multi_tenant section)");
}
