//! `frontend_throughput` — open-loop tail-latency harness for the
//! coalescing HTTP front-end.
//!
//! The workload models the regime the front-end exists for: a pool
//! under continuous juror churn (a background thread perturbs and
//! restores one juror), so the first solve after each flip pays the
//! in-place repair + bound-pruned re-solve while every further request
//! in the same window replays the warm artifact for an `Arc` bump.
//! Arrivals are Poisson (seeded xoshiro, exponential gaps) and
//! **open-loop**: each request's latency is measured from its
//! *scheduled* arrival time, so when the server falls behind the
//! backlog shows up as tail latency instead of silently throttling the
//! generator.
//!
//! Two modes run the identical machinery at several offered loads:
//!
//! * **coalesced** — `max_batch = 64`: concurrent arrivals for the same
//!   `(tenant, pool)` merge into one `solve_batch_shared` window, so a
//!   window pays one re-solve for all its tasks;
//! * **naive** — `max_batch = 1`: every request is its own window and
//!   pays the full post-churn re-solve — the per-request cost the
//!   front-end amortises away.
//!
//! The pool has 10⁵ jurors, so a post-churn AltrM re-solve (milliseconds)
//! outlasts the churn interval and dominates a naive request's cost. The
//! top offered load is not fixed: a probe first measures the naive
//! front-end's capacity under the same churn, and the top load is
//! [`SATURATION`] times that, so it saturates naive mode however fast the
//! solver gets.
//!
//! Two side measurements close the loop on the latency contract: the
//! idle **batch-1** path (sequential `submit` on an idle front-end vs
//! the bare `solve_batch_shared` library call, timed in interleaved
//! rounds and compared by median — the inline fast path must keep them
//! within 2x) and an over-the-wire **HTTP spot check** (one keep-alive
//! connection round-tripping real requests).
//!
//! Appends a `"frontend"` section to `BENCH_service.json`. `--smoke` runs a
//! seconds-long version and writes nothing — CI uses it to keep this binary
//! from rotting.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin frontend_throughput [-- --smoke]
//! ```

use jury_bench::report::Report;
use jury_bench::timing::{quartiles, time_it, Quartiles};
use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_frontend::client::Client;
use jury_frontend::{Frontend, FrontendConfig, HttpServer, SubmitError};
use jury_service::{DecisionTask, JuryService, PoolId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{json, Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The front-end's latency knob; the p99 acceptance bound.
const MAX_DELAY: Duration = Duration::from_millis(25);
/// Round-robin tenants — coalescing only merges within one tenant.
const TENANTS: usize = 4;
/// PayM budgets cycled through the 1-in-4 pay-as-you-go tasks.
const BUDGETS: [f64; 3] = [1.5, 2.5, 4.0];
/// The top offered load as a multiple of the measured naive capacity:
/// above the 5x goodput gap the full run asserts, so coalescing can show
/// it only if it keeps up where naive mode cannot.
const SATURATION: f64 = 8.0;
/// The capacity probe's offered load: far above either mode's capacity,
/// so the probe measures service rate, not arrival rate.
const PROBE_OFFERED: f64 = 200_000.0;
/// Interleaved rounds of the batch-1 comparison (nearest-rank quartiles
/// at exact sample indices 5, 10 and 15).
const BATCH1_ROUNDS: usize = 21;

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

/// Perturbs and restores juror 0 every `every` until `stop`, returning
/// the flip count. Each flip dirties the pool's warm artifacts, so the
/// next solve pays the repair + re-solve the mode comparison is about.
fn start_churn(
    frontend: Arc<Frontend>,
    pool: PoolId,
    original: Juror,
    every: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    let perturbed = Juror::new(
        original.id,
        ErrorRate::new((original.epsilon() + 0.011).min(0.98)).unwrap(),
        original.cost,
    );
    std::thread::spawn(move || {
        let mut flips = 0u64;
        while !stop.load(Ordering::Relaxed) {
            for juror in [perturbed, original] {
                frontend.with_service(|s| s.update_juror(pool, 0, juror).unwrap());
                flips += 1;
                std::thread::sleep(every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        flips
    })
}

/// A front-end in one mode over a fresh churned pool.
struct Harness {
    frontend: Arc<Frontend>,
    pool: PoolId,
    stop: Arc<AtomicBool>,
    churn: std::thread::JoinHandle<u64>,
}

impl Harness {
    /// Warms a `pool_size` pool, starts the front-end with `max_batch`
    /// and the churn thread flipping juror 0 every `churn_every`.
    fn start(pool_size: usize, max_batch: usize, churn_every: Duration) -> Self {
        let jurors = pool(pool_size);
        let mut service = JuryService::new();
        let pool = service.create_pool(jurors.clone());
        service.solve(&DecisionTask::altruism(pool)).expect("warm-up solve");
        let frontend = Frontend::start(
            service,
            FrontendConfig {
                max_batch,
                max_delay: MAX_DELAY,
                queue_capacity: 4096,
                ..FrontendConfig::default()
            },
        );
        let stop = Arc::new(AtomicBool::new(false));
        let churn =
            start_churn(Arc::clone(&frontend), pool, jurors[0], churn_every, Arc::clone(&stop));
        Self { frontend, pool, stop, churn }
    }

    /// Stops the churn (which must have run) and the front-end.
    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let flips = self.churn.join().expect("churn thread");
        assert!(flips > 0, "churn must actually run");
        self.frontend.shutdown().expect("front-end returns the service");
    }
}

struct LoadPoint {
    offered: f64,
    goodput: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    completed: usize,
    rejected: u64,
    mean_occupancy: f64,
    inline_solves: u64,
    mean_queue_wait_us: f64,
    mean_solve_us: f64,
}

/// Latency percentile (milliseconds) over sorted nanosecond samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1e6
}

/// Drives `requests` Poisson arrivals at `offered` req/s through
/// `workers` submitter threads and returns the latency profile.
fn run_load(
    frontend: &Frontend,
    pool: PoolId,
    offered: f64,
    requests: usize,
    workers: usize,
    seed: u64,
) -> LoadPoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock = 0.0f64;
    let arrivals: Vec<Duration> = (0..requests)
        .map(|_| {
            let u: f64 = rng.gen();
            clock += -(1.0 - u).ln() / offered;
            Duration::from_secs_f64(clock)
        })
        .collect();
    let tasks: Vec<DecisionTask> = (0..requests)
        .map(|i| {
            if i % 4 == 3 {
                DecisionTask::pay_as_you_go(pool, BUDGETS[i % BUDGETS.len()])
            } else {
                DecisionTask::altruism(pool)
            }
        })
        .collect();
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();

    let before = frontend.stats();
    let next = AtomicUsize::new(0);
    let rejected = AtomicU64::new(0);
    let base = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, rejected) = (&next, &rejected);
                let (arrivals, tasks, tenants) = (&arrivals, &tasks, &tenants);
                scope.spawn(move || {
                    let mut mine: Vec<u64> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            return mine;
                        }
                        let scheduled = base + arrivals[i];
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        match frontend.submit(&tenants[i % TENANTS], tasks[i]) {
                            Ok(_) => mine.push(scheduled.elapsed().as_nanos() as u64),
                            Err(SubmitError::Overloaded { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected submit failure: {e}"),
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("submitter thread"));
        }
    });
    let elapsed = base.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let after = frontend.stats();
    let windows = after.coalesced_windows - before.coalesced_windows;
    let coalesced = after.coalesced_tasks - before.coalesced_tasks;
    let queue_wait = after.queue_wait_nanos - before.queue_wait_nanos;
    let solve = after.solve_nanos - before.solve_nanos;
    LoadPoint {
        offered,
        goodput: latencies.len() as f64 / elapsed,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        p999_ms: percentile(&latencies, 0.999),
        completed: latencies.len(),
        rejected: rejected.load(Ordering::Relaxed),
        mean_occupancy: coalesced as f64 / windows.max(1) as f64,
        inline_solves: after.inline_solves - before.inline_solves,
        mean_queue_wait_us: queue_wait as f64 / 1e3 / coalesced.max(1) as f64,
        mean_solve_us: solve as f64 / 1e3 / coalesced.max(1) as f64,
    }
}

/// Idle batch-1 contract: sequential `submit` on an idle front-end vs
/// the bare `solve_batch_shared(&[task])` library call, both warm. Each
/// of [`BATCH1_ROUNDS`] rounds times `calls` calls of one side, then of
/// the other, so drift in the host's speed hits both alike. Returns the
/// per-call quartiles `(submit, direct)` in seconds.
fn batch1_comparison(pool_size: usize, calls: usize) -> (Quartiles, Quartiles) {
    let jurors = pool(pool_size);

    let mut direct = JuryService::new();
    let dp = direct.create_pool(jurors.clone());
    let dtask = DecisionTask::altruism(dp);
    direct.solve(&dtask).expect("warm solve");

    let mut service = JuryService::new();
    let fp = service.create_pool(jurors);
    let ftask = DecisionTask::altruism(fp);
    let frontend = Frontend::start(service, FrontendConfig::default());
    frontend.submit("solo", ftask).expect("warm submit");

    let mut submit_secs = Vec::with_capacity(BATCH1_ROUNDS);
    let mut direct_secs = Vec::with_capacity(BATCH1_ROUNDS);
    for _ in 0..BATCH1_ROUNDS {
        let (_, secs) = time_it(|| {
            for _ in 0..calls {
                assert!(direct.solve_batch_shared(std::slice::from_ref(&dtask))[0].is_ok());
            }
        });
        direct_secs.push(secs / calls as f64);
        let (_, secs) = time_it(|| {
            for _ in 0..calls {
                assert!(frontend.submit("solo", ftask).is_ok());
            }
        });
        submit_secs.push(secs / calls as f64);
    }
    let stats = frontend.stats();
    assert_eq!(
        stats.inline_solves, stats.requests,
        "every idle batch-1 submit must take the inline fast path"
    );
    frontend.shutdown();
    (quartiles(&mut submit_secs), quartiles(&mut direct_secs))
}

/// Over-the-wire spot check: one keep-alive connection round-tripping
/// real HTTP requests. Returns mean seconds per request.
fn http_spot_check(pool_size: usize, iters: usize) -> f64 {
    let jurors = pool(pool_size);
    let mut service = JuryService::new();
    let p = service.create_pool(jurors);
    let frontend = Frontend::start(service, FrontendConfig::default());
    let server = HttpServer::start(frontend, "127.0.0.1:0", 2).expect("bind spot-check server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let task = DecisionTask::altruism(p);
    client.solve("spot", &task).expect("transport").expect("warm solve");
    let (_, secs) = time_it(|| {
        for _ in 0..iters {
            assert!(client.solve("spot", &task).expect("transport").is_ok());
        }
    });
    let stats = client.stats().expect("transport").expect("stats");
    assert!(stats.service.tasks_solved > iters);
    drop(client);
    server.shutdown();
    secs / iters as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (pool_size, mut loads, workers, churn_every, request_cap, side_iters): (
        usize,
        Vec<f64>,
        usize,
        Duration,
        usize,
        usize,
    ) = if smoke {
        (300, vec![2_000.0], 16, Duration::from_micros(500), 300, 200)
    } else {
        (100_000, vec![400.0, 2_000.0], 64, Duration::from_micros(100), 4_000, 5_000)
    };
    let probe = Harness::start(pool_size, 1, churn_every);
    let naive_capacity =
        run_load(&probe.frontend, probe.pool, PROBE_OFFERED, request_cap, workers, 3).goodput;
    probe.finish();
    loads.push((SATURATION * naive_capacity).round());
    println!(
        "[probe] naive capacity {naive_capacity:.0}/s -> top offered load {:.0}/s",
        loads.last().unwrap()
    );

    let mut report = Report::new(
        "frontend_throughput",
        "open-loop Poisson load under juror churn: coalesced (max_batch=64) vs naive \
         (max_batch=1) through the same front-end",
        &["mode", "offered/s", "goodput/s", "p50", "p99", "p99.9", "occupancy", "inline", "rej"],
    );
    let mut rows: Vec<Value> = Vec::new();
    let mut by_mode: Vec<(&str, Vec<LoadPoint>)> = Vec::new();

    for (mode, max_batch) in [("coalesced", 64usize), ("naive", 1)] {
        let harness = Harness::start(pool_size, max_batch, churn_every);
        let mut points = Vec::new();
        for (li, &offered) in loads.iter().enumerate() {
            let requests = ((offered / 2.0) as usize).clamp(200, request_cap);
            let point = run_load(
                &harness.frontend,
                harness.pool,
                offered,
                requests,
                workers,
                7 + li as u64,
            );
            report.row(&[
                &mode,
                &format!("{offered:.0}"),
                &format!("{:.0}", point.goodput),
                &format!("{:.2}ms", point.p50_ms),
                &format!("{:.2}ms", point.p99_ms),
                &format!("{:.2}ms", point.p999_ms),
                &format!("{:.1}", point.mean_occupancy),
                &point.inline_solves,
                &point.rejected,
            ]);
            rows.push(Value::object([
                ("mode", mode.to_value()),
                ("offered_per_sec", point.offered.to_value()),
                ("goodput_per_sec", point.goodput.to_value()),
                ("p50_ms", point.p50_ms.to_value()),
                ("p99_ms", point.p99_ms.to_value()),
                ("p999_ms", point.p999_ms.to_value()),
                ("completed", point.completed.to_value()),
                ("rejected", point.rejected.to_value()),
                ("mean_window_occupancy", point.mean_occupancy.to_value()),
                ("inline_solves", point.inline_solves.to_value()),
                ("mean_queue_wait_us", point.mean_queue_wait_us.to_value()),
                ("mean_solve_us", point.mean_solve_us.to_value()),
            ]));
            points.push(point);
        }
        harness.finish();
        by_mode.push((mode, points));
    }
    report.emit();

    let (submit, direct) = batch1_comparison(pool_size, side_iters);
    let batch1_ratio = submit.p50 / direct.p50;
    let us =
        |q: Quartiles| format!("{:.3} [{:.3}, {:.3}]us", q.p50 * 1e6, q.p25 * 1e6, q.p75 * 1e6);
    println!(
        "[batch-1] idle submit {} vs direct solve_batch_shared {} per call, median [p25, p75] \
         of {BATCH1_ROUNDS} interleaved rounds of {side_iters} calls ({batch1_ratio:.2}x)",
        us(submit),
        us(direct),
    );
    let http_secs = http_spot_check(pool_size, side_iters.min(500));
    println!("[http] keep-alive round-trip {:.1}us/request", http_secs * 1e6);

    let coalesced = &by_mode[0].1;
    let naive = &by_mode[1].1;
    let saturating_speedup =
        coalesced.last().unwrap().goodput / naive.last().unwrap().goodput.max(1e-9);
    println!(
        "[saturation] coalesced {:.0}/s vs naive {:.0}/s at {:.0} offered ({saturating_speedup:.1}x)",
        coalesced.last().unwrap().goodput,
        naive.last().unwrap().goodput,
        loads.last().unwrap(),
    );

    for (mode, points) in &by_mode {
        for point in points {
            assert!(point.completed > 0, "{mode}: no request completed");
        }
    }
    if !smoke {
        assert!(
            saturating_speedup >= 5.0,
            "coalescing must buy >=5x goodput at saturating load, got {saturating_speedup:.1}x"
        );
        assert!(
            coalesced[0].p99_ms < MAX_DELAY.as_secs_f64() * 1e3,
            "coalesced p99 at the lightest load must stay under max_delay, got {:.2}ms",
            coalesced[0].p99_ms
        );
        assert!(
            batch1_ratio <= 2.0,
            "idle batch-1 submit must stay within 2x of the library call, got {batch1_ratio:.2}x"
        );
        assert!(
            coalesced.last().unwrap().mean_occupancy > 2.0,
            "saturating load must actually coalesce"
        );
    }

    if smoke {
        println!("[smoke] frontend_throughput ok ({} measurements)", rows.len());
        return;
    }

    // Extend BENCH_service.json with the front-end section.
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or_else(|| Value::object([("bench", "service_throughput".to_value())]));
    let section = Value::object([
        (
            "workload",
            "open-loop Poisson arrivals (3/4 AltrM + 1/4 PayM cycling budgets) against one pool \
             under continuous juror churn; latency measured from scheduled arrival; coalesced \
             (max_batch=64) vs naive (max_batch=1) through the identical front-end machinery"
                .to_value(),
        ),
        ("pool_size", pool_size.to_value()),
        ("tenants", TENANTS.to_value()),
        ("workers", workers.to_value()),
        ("max_batch", 64usize.to_value()),
        ("max_delay_ms", (MAX_DELAY.as_millis() as u64).to_value()),
        ("churn_interval_us", (churn_every.as_micros() as u64).to_value()),
        ("naive_capacity_per_sec", naive_capacity.to_value()),
        ("offered_loads_per_sec", Value::Array(loads.iter().map(|l| l.to_value()).collect())),
        ("results", Value::Array(rows)),
        (
            "batch1",
            Value::object([
                ("rounds", BATCH1_ROUNDS.to_value()),
                ("calls_per_round", side_iters.to_value()),
                ("idle_submit_us", (submit.p50 * 1e6).to_value()),
                ("idle_submit_p25_us", (submit.p25 * 1e6).to_value()),
                ("idle_submit_p75_us", (submit.p75 * 1e6).to_value()),
                ("direct_solve_us", (direct.p50 * 1e6).to_value()),
                ("direct_solve_p25_us", (direct.p25 * 1e6).to_value()),
                ("direct_solve_p75_us", (direct.p75 * 1e6).to_value()),
                ("ratio", batch1_ratio.to_value()),
            ]),
        ),
        ("http_round_trip_us", (http_secs * 1e6).to_value()),
        ("saturating_goodput_speedup", saturating_speedup.to_value()),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.retain(|(key, _)| key != "frontend");
        fields.push(("frontend".to_string(), section));
    }
    std::fs::write(path, json::to_string_pretty(&doc)).expect("write BENCH_service.json");
    println!("[json] {path} (frontend section)");
}
