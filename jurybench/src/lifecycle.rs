//! The lifecycle every workload runs, with its own shape:
//!
//! 1. **Set-up** (repeated; the median is `setup_s`): generate the
//!    fleet, register and warm it, run the first full checkpoint when
//!    the workload checkpoints, start the HTTP server, and solve every
//!    task of every pool once so that timing starts warm.
//! 2. **Phase A, cold builds**: a fresh `JuryService` per pool,
//!    `create_pool`, the first AltrM answer, then the first PayM answer.
//! 3. **Phase B, serving**: the seeded step stream over one keep-alive
//!    connection, closed loop or open loop at a fixed rate. Phases A and
//!    B alternate in [`ROUNDS`] rounds.
//! 4. **Phase C, adoption**: the writer churns one pool per generation
//!    and commits; an in-process follower adopts each generation.
//! 5. **Verification**: a bare `JuryService` twin regenerates every
//!    serving step from the seed, replays it, and compares each answer
//!    bit for bit. Phase A answers are compared against the direct
//!    solvers, phase C answers against the writer.
//!
//! A calibration kernel runs between operations throughout; every
//! timing is scaled by the run's factor (see [`HostSpeed`]).

use crate::hostspeed::{Factor, HostSpeed, REFERENCE_US};
use crate::inputs::{self, Step, Steps, Stream, FIRST_PAYM_BUDGET, KEYS};
use crate::layers::{Layer, Layers};
use crate::stats::{self, digest, ms, us};
use jury_core::altr::AltrAlg;
use jury_core::juror::Juror;
use jury_core::paym::{PayAlg, PayConfig};
use jury_core::problem::Selection;
use jury_core::solver::{sorted_order_into, SolverScratch};
use jury_frontend::client::Client;
use jury_frontend::{Frontend, FrontendConfig, HttpServer};
use jury_service::{DecisionTask, JuryService, PoolId, ServiceConfig};
use serde::{json, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checkpoint cadence of `checkpoint_churn`. Commits to a disk-backed
/// directory take tens of milliseconds, so the cadence keeps them to a
/// minority of serving time.
pub const CHECKPOINT: Duration = Duration::from_millis(500);
/// Workloads without checkpoints take the worst-solve statistic of
/// `ckpt_stall_p50_ms` over windows of this many consecutive solves,
/// about one write-and-re-solve each. Longer windows read whatever host
/// preemption landed in most of them: at a checkpoint interval's 500
/// solves the median window's worst solve spread 0.44–1.0 over five
/// runs, and at 100 solves two slow-host runs in ten still moved it.
const CONTROL_WINDOW_SOLVES: u64 = 20;
/// Phase A always takes at least this many samples, however short the
/// run.
const MIN_COLD: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Calibration kernel runs before each set-up.
const SETUP_KERNELS: usize = 16;
/// Phases A and B alternate this many times.
const ROUNDS: u32 = 10;
/// Phase C generations per run.
const GENERATIONS: usize = 96;

/// One workload: the same lifecycle at its own scale and load shape.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    /// Served pools, and jurors per served pool.
    pub fleet: usize,
    pub per_pool: usize,
    /// Jurors per phase-A pool.
    pub cold_pool: usize,
    /// Share of `--seconds` given to phase A; phase B gets the rest.
    pub cold_share: f64,
    /// `None`: closed loop. `Some(rate)`: open loop at `rate` steps/s.
    pub open_rate: Option<f64>,
    /// Whether the front end checkpoints every [`CHECKPOINT`].
    pub checkpoint: bool,
    /// Every `write_every`-th serving step is a write.
    pub write_every: usize,
    /// Writes go to the first `hot_pools` pools of the fleet.
    pub hot_pools: usize,
}

pub const WORKLOADS: [Shape; 3] = [
    Shape {
        name: "warm_http",
        fleet: 16,
        per_pool: 10_000,
        cold_pool: 10_000,
        cold_share: 0.1,
        open_rate: None,
        checkpoint: false,
        write_every: 20,
        hot_pools: 16,
    },
    Shape {
        name: "cold_build",
        fleet: 16,
        per_pool: 10_000,
        cold_pool: 100_000,
        cold_share: 0.75,
        open_rate: None,
        checkpoint: false,
        write_every: 20,
        hot_pools: 16,
    },
    Shape {
        name: "checkpoint_churn",
        fleet: 100,
        per_pool: 10_000,
        cold_pool: 10_000,
        cold_share: 0.1,
        open_rate: Some(1_000.0),
        checkpoint: true,
        write_every: 100,
        hot_pools: 4,
    },
];

pub fn shape(name: &str) -> Option<&'static Shape> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Shape {
    /// The same workload shrunk to run in well under a second (smoke
    /// test only).
    #[cfg(test)]
    pub fn tiny(&self) -> Self {
        Self {
            fleet: 3,
            per_pool: 300,
            cold_pool: 300,
            write_every: self.write_every.min(10),
            hot_pools: self.hot_pools.min(2),
            ..self.clone()
        }
    }
}

/// Operation and failure counts for the result line.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn attempt(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn expect_equal(&mut self, what: &str, got: &Selection, want: &Selection) {
        if digest(got) != digest(want) {
            self.fail(format!("{what}: {} differs from {}", brief(got), brief(want)));
        }
    }
}

/// A selection in a few words, for failure notes.
fn brief(selection: &Selection) -> String {
    format!(
        "{} members, jer {:e}, cost {}",
        selection.members.len(),
        selection.jer,
        selection.total_cost
    )
}

/// Raw samples behind the end-to-end metrics and diagnostics.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub hit_us: Vec<f64>,
    /// Hits from send to answer, without time queued behind earlier steps.
    pub hit_rtt_us: Vec<f64>,
    /// The median of `hit_rtt_us` in each serving round.
    pub round_hit_rtt_us: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub first_answer_ms: Vec<f64>,
    pub first_paym_ms: Vec<f64>,
    /// Worst solve latency (ms) per checkpoint interval or window.
    pub window_worst_ms: BTreeMap<u64, f64>,
    pub adopt_ms: Vec<f64>,
    pub adopt_restored: Vec<f64>,
    pub lateness_us: Vec<f64>,
    /// Peak resident set when serving ends, before phase C.
    pub rss_peak_mb: Option<f64>,
    pub serve_secs: f64,
    pub serve_steps: usize,
    pub paym_solves: usize,
}

/// What a serving step was, for latency classes and the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Set-up warm-up solve (untimed).
    Warmup,
    /// Solve of a task answered since its pool's last write.
    Hit,
    /// The AltrM solve right after a write to the same pool.
    Resolve,
    /// Any other solve (a PayM budget's first answer after a write).
    Miss,
    Write,
}

/// Classifies solves by write epochs: a solve is a hit when its task
/// was answered since its pool's last write. Set-up answered every task
/// at epoch 0.
struct Classifier {
    epoch: Vec<u64>,
    answered: Vec<[u64; KEYS]>,
}

impl Classifier {
    fn new(fleet: usize) -> Self {
        Self { epoch: vec![0; fleet], answered: vec![[0; KEYS]; fleet] }
    }

    fn write(&mut self, pool: usize) {
        self.epoch[pool] += 1;
    }

    fn solve(&mut self, pool: usize, key: usize, resolve: bool, ok: bool) -> Class {
        let class = if resolve {
            Class::Resolve
        } else if self.answered[pool][key] == self.epoch[pool] {
            Class::Hit
        } else {
            Class::Miss
        };
        if ok {
            self.answered[pool][key] = self.epoch[pool];
        }
        class
    }
}

/// What serving produced, compact enough that peak memory does not
/// follow throughput: one answer digest per step (0 for writes) and the
/// indices of failed steps. The twins regenerate the steps themselves
/// from the seed.
#[derive(Debug, Default)]
pub struct Log {
    digests: Vec<u64>,
    failed: Vec<usize>,
    /// Traced runs only: per step, when it was sent (ms after serving
    /// began) and its client round trip (µs).
    pub timing: Vec<(f32, f32)>,
    traced: bool,
}

impl Log {
    fn push(&mut self, digest: u64, ok: bool, at_ms: f64, rtt_us: f64) {
        if !ok {
            self.failed.push(self.digests.len());
        }
        self.digests.push(digest);
        if self.traced {
            self.timing.push((at_ms as f32, rtt_us as f32));
        }
    }
}

/// The set-up warm-up: every task of every pool in process, then every
/// task of pool 0 over HTTP.
fn warmup_steps(fleet: usize) -> Vec<Step> {
    let in_process = (0..fleet).flat_map(|pool| (0..KEYS).map(move |key| (pool, key)));
    in_process
        .chain((0..KEYS).map(|key| (0, key)))
        .map(|(pool, key)| Step::Solve { pool, key })
        .collect()
}

/// One logged step as the twins see it.
pub struct Replayed {
    pub index: usize,
    pub step: Step,
    pub class: Class,
    pub ok: bool,
    pub digest: u64,
}

/// Regenerates the logged steps in order, exactly as serving issued
/// them: the warm-up, then the seeded stream, applying each successful
/// write to a mirror of the fleet as serving did.
pub struct Replay<'a> {
    log: &'a Log,
    warmup: Vec<Step>,
    steps: Steps,
    fleet: Vec<Vec<Juror>>,
    classes: Classifier,
    index: usize,
    failed: usize,
}

impl<'a> Replay<'a> {
    pub fn new(shape: &Shape, seed: u64, initial: &[Vec<Juror>], log: &'a Log) -> Self {
        Self {
            log,
            warmup: warmup_steps(shape.fleet),
            steps: Steps::new(seed, shape.write_every, shape.hot_pools),
            fleet: initial.to_vec(),
            classes: Classifier::new(shape.fleet),
            index: 0,
            failed: 0,
        }
    }
}

impl Iterator for Replay<'_> {
    type Item = Replayed;

    fn next(&mut self) -> Option<Replayed> {
        let index = self.index;
        let digest = *self.log.digests.get(index)?;
        self.index += 1;
        let ok = self.log.failed.get(self.failed) != Some(&index);
        if !ok {
            self.failed += 1;
        }
        let (step, class) = match self.warmup.get(index) {
            Some(&step) => (step, Class::Warmup),
            None => match self.steps.next(&self.fleet) {
                (step @ Step::Write { pool, index, juror }, _) => {
                    if ok {
                        self.fleet[pool][index] = juror;
                        self.classes.write(pool);
                    }
                    (step, Class::Write)
                }
                (step @ Step::Solve { pool, key }, resolve) => {
                    (step, self.classes.solve(pool, key, resolve, ok))
                }
            },
        };
        Some(Replayed { index, step, class, ok, digest })
    }
}

/// A directory under the working directory, removed on drop: the only
/// place the benchmark writes.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: &str) -> Self {
        let path = PathBuf::from(".jurybench-tmp").join(format!(
            "{workload}-{}-{:x}",
            std::process::id(),
            nanos_since_epoch()
        ));
        std::fs::create_dir_all(&path).expect("create the scratch directory");
        Self(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".jurybench-tmp");
    }
}

fn nanos_since_epoch() -> u128 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

pub fn service_config(snapshot_dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        threads: 1,
        snapshot_dir: snapshot_dir.map(Path::to_path_buf),
        ..ServiceConfig::default()
    }
}

/// Registers and warms `fleet` on `service`.
pub fn register(service: &mut JuryService, fleet: &[Vec<Juror>]) -> Vec<PoolId> {
    fleet
        .iter()
        .map(|jurors| {
            let id = service.create_pool(jurors.clone());
            service.warm_pool(id).expect("a registered pool warms");
            id
        })
        .collect()
}

pub fn solve_body(pool: PoolId, key: usize) -> String {
    json::to_string(&Value::object([
        ("tenant", "bench".to_value()),
        ("task", inputs::task(pool, key).to_value()),
    ]))
}

enum SolveError {
    Transport(String),
    Refused(String),
}

fn http_solve(client: &mut Client, body: &str) -> Result<Selection, SolveError> {
    let response = client
        .request("POST", "/v1/solve", Some(body))
        .map_err(|e| SolveError::Transport(e.to_string()))?;
    if response.status != 200 {
        return Err(SolveError::Refused(format!("HTTP {}", response.status)));
    }
    let value = response.result.map_err(|e| SolveError::Refused(e.kind))?;
    Selection::from_value(&value).map_err(|e| SolveError::Refused(e.to_string()))
}

/// The served fleet behind one HTTP server and one client connection.
struct Serving {
    server: HttpServer,
    client: Client,
    addr: SocketAddr,
    pools: Vec<PoolId>,
    /// The benchmark's mirror of current pool contents.
    fleet: Vec<Vec<Juror>>,
    /// The contents as registered, for the twins.
    initial: Vec<Vec<Juror>>,
    bodies: Vec<Vec<String>>,
    log: Log,
    full_commit_ms: Option<f64>,
}

impl Serving {
    fn set_up(
        shape: &Shape,
        seed: u64,
        dir: Option<&Path>,
        trace: bool,
        tally: &mut Tally,
    ) -> Self {
        let mut rng = inputs::rng(seed, Stream::Fleet);
        let initial: Vec<Vec<Juror>> =
            (0..shape.fleet).map(|_| inputs::pool(&mut rng, shape.per_pool)).collect();
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut service = JuryService::with_config(service_config(dir));
        let pools = register(&mut service, &initial);
        // Every task of every pool is answered once before the first
        // checkpoint, so serving starts warm and that checkpoint already
        // holds the warm state.
        let mut log = Log { traced: trace, ..Log::default() };
        for &id in &pools {
            for key in 0..KEYS {
                tally.attempt();
                let answer = service.solve(&inputs::task(id, key));
                if let Err(e) = &answer {
                    tally.fail(format!("warm-up solve: {e}"));
                }
                log.push(answer.as_ref().map_or(0, digest), answer.is_ok(), 0.0, 0.0);
            }
        }
        let full_commit_ms = dir.map(|dir| {
            let started = Instant::now();
            let report = service.snapshot(dir).expect("the first full checkpoint commits");
            assert_eq!(report.written, shape.fleet, "the first checkpoint writes the fleet");
            ms(started.elapsed())
        });
        let frontend = Frontend::start(
            service,
            FrontendConfig {
                checkpoint_interval: shape.checkpoint.then_some(CHECKPOINT),
                ..FrontendConfig::default()
            },
        );
        let server = HttpServer::start(frontend, "127.0.0.1:0", 1).expect("bind 127.0.0.1:0");
        let addr = server.local_addr();
        let client = Client::connect(addr).expect("connect to the server");
        let bodies = pools.iter().map(|&p| (0..KEYS).map(|k| solve_body(p, k)).collect()).collect();
        let mut serving = Self {
            server,
            client,
            addr,
            pools,
            fleet: initial.clone(),
            initial,
            bodies,
            log,
            full_commit_ms,
        };
        // Warms the connection and the server's code paths.
        for key in 0..KEYS {
            let answer = serving.solve(0, key, tally);
            serving.log.push(answer.unwrap_or(0), answer.is_some(), 0.0, 0.0);
        }
        serving
    }

    /// One HTTP solve, returning the answer's digest; failures are
    /// tallied and the connection redialled after a transport error.
    fn solve(&mut self, pool: usize, key: usize, tally: &mut Tally) -> Option<u64> {
        tally.attempt();
        match http_solve(&mut self.client, &self.bodies[pool][key]) {
            Ok(selection) => Some(digest(&selection)),
            Err(SolveError::Refused(why)) => {
                tally.fail(format!("solve refused: {why}"));
                None
            }
            Err(SolveError::Transport(why)) => {
                tally.fail(format!("transport: {why}"));
                if let Ok(client) = Client::connect(self.addr) {
                    self.client = client;
                }
                None
            }
        }
    }

    fn frontend(&self) -> Arc<Frontend> {
        Arc::clone(self.server.frontend())
    }

    /// Stops the server and returns the service it wrapped.
    fn shut_down(self) -> JuryService {
        drop(self.client);
        self.server.shutdown().expect("the server returns its service")
    }
}

/// Phase A. Each sample is a restart: a fresh service, `create_pool`,
/// the first AltrM answer, then the first PayM answer on that pool.
struct ColdBuilds {
    rng: rand::rngs::StdRng,
    scratch: SolverScratch,
    order: Vec<usize>,
    greedy: Vec<usize>,
    paym: PayAlg,
    /// Measured time so far; the reference checks between samples are
    /// not counted.
    measured: Duration,
    built: usize,
}

impl ColdBuilds {
    fn new(seed: u64) -> Self {
        Self {
            rng: inputs::rng(seed, Stream::Cold),
            scratch: SolverScratch::new(),
            order: Vec::new(),
            greedy: Vec::new(),
            paym: PayAlg::new(FIRST_PAYM_BUDGET, PayConfig::default()),
            measured: Duration::ZERO,
            built: 0,
        }
    }

    /// Builds until the measured time of all rounds so far reaches
    /// `budget` and at least `min_built` pools are built.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        shape: &Shape,
        budget: Duration,
        min_built: usize,
        samples: &mut Samples,
        tally: &mut Tally,
        speed: &mut HostSpeed,
        mut layers: Option<&mut Layers>,
    ) {
        while self.built < min_built || self.measured < budget {
            speed.tick();
            self.built += 1;
            let jurors = inputs::pool(&mut self.rng, shape.cold_pool);
            let stock = jurors.clone();
            let started = Instant::now();
            let mut service = JuryService::with_config(service_config(None));
            let id = service.create_pool(stock);
            let altr = service.solve(&DecisionTask::altruism(id));
            let altr_done = Instant::now();
            let pay = service.solve(&DecisionTask::pay_as_you_go(id, FIRST_PAYM_BUDGET));
            let pay_done = Instant::now();
            self.measured += pay_done - started;
            drop(service);

            // The direct solvers on independently sorted orders are the
            // reference. `solve_pruned` is the documented bit-identical
            // form of `solve_presorted`, whose full quadratic scan would
            // take tens of seconds at 10⁵ jurors.
            sorted_order_into(&jurors, &mut self.order);
            let want_altr =
                AltrAlg::default().solve_pruned(&jurors, &self.order, &mut self.scratch);
            PayAlg::greedy_order_into(&jurors, &mut self.greedy);
            let want_pay = self.paym.solve_presorted(&jurors, &self.greedy, &mut self.scratch);
            tally.attempt();
            tally.attempt();
            match (altr, want_altr, pay, want_pay) {
                (Ok(altr), Ok(want_altr), Ok(pay), Ok(want_pay)) => {
                    tally.expect_equal("first AltrM", &altr, &want_altr);
                    tally.expect_equal("first PayM", &pay, &want_pay);
                    samples.first_answer_ms.push(ms(altr_done - started));
                    samples.first_paym_ms.push(ms(pay_done - altr_done));
                }
                _ => tally.fail("a phase-A solve failed".to_string()),
            }
            if let Some(layers) = layers.as_deref_mut() {
                let op = Layer::COLD_OPS + self.built as u64;
                layers.span(Layer::Service, op, started, altr_done);
                layers.cold_build(op, &jurors);
            }
        }
    }
}

/// Phase B: the step stream over the one connection, appended to the
/// set-up's log, in rounds that resume where the last one stopped.
struct ServeLoop {
    steps: Steps,
    classes: Classifier,
    /// `None`: closed loop; `Some`: the open loop's step period.
    period: Option<Duration>,
    checkpoints_before: u64,
    /// When the first round began; logged send times count from here.
    origin: Instant,
    solves: u64,
}

impl ServeLoop {
    fn new(shape: &Shape, seed: u64, serving: &Serving) -> Self {
        Self {
            steps: Steps::new(seed, shape.write_every, shape.hot_pools),
            classes: Classifier::new(shape.fleet),
            period: shape.open_rate.map(|rate| Duration::from_secs_f64(1.0 / rate)),
            checkpoints_before: serving.frontend().stats().checkpoints,
            origin: Instant::now(),
            solves: 0,
        }
    }

    /// Serves until `until`. The open loop's schedule restarts with each
    /// round, so a pause between rounds is never charged to a step.
    fn run(
        &mut self,
        shape: &Shape,
        serving: &mut Serving,
        until: Instant,
        samples: &mut Samples,
        tally: &mut Tally,
        speed: &mut HostSpeed,
    ) {
        let frontend = serving.frontend();
        let hits_before = samples.hit_rtt_us.len();
        let start = Instant::now();
        let mut slot = 0u32;
        let mut previous_done = start;
        while Instant::now() < until {
            let due = match self.period {
                Some(period) => {
                    let due = start + period * slot;
                    speed.tick_before(due);
                    pace(due);
                    due
                }
                None => {
                    speed.tick();
                    Instant::now()
                }
            };
            slot += 1;
            let sent = Instant::now();
            // In the open loop a step's latency runs from its due time, so
            // a stall also delays the steps queued behind it. The part of
            // the lateness the server did not cause — the generator waking
            // late on an idle connection — is left out: it is host
            // scheduling noise, reported as generator lateness instead.
            let charged_from = due.max(previous_done).min(sent);
            if self.period.is_some() {
                samples.lateness_us.push(us(sent - due));
            }
            let at_ms = ms(sent - self.origin);
            match self.steps.next(&serving.fleet) {
                (Step::Write { pool, index, juror }, _) => {
                    let id = serving.pools[pool];
                    tally.attempt();
                    let result = frontend.with_service(|s| s.update_juror(id, index, juror));
                    previous_done = Instant::now();
                    let took = us(previous_done - sent);
                    match &result {
                        Ok(()) => {
                            samples.write_us.push(took);
                            serving.fleet[pool][index] = juror;
                            self.classes.write(pool);
                        }
                        Err(e) => tally.fail(format!("update_juror: {e}")),
                    }
                    serving.log.push(0, result.is_ok(), at_ms, took);
                }
                (Step::Solve { pool, key }, resolve) => {
                    let answer = serving.solve(pool, key, tally);
                    let done = Instant::now();
                    previous_done = done;
                    if key > 0 && answer.is_some() {
                        samples.paym_solves += 1;
                    }
                    let latency_us = us(done - sent) + us(charged_from - due);
                    match self.classes.solve(pool, key, resolve, answer.is_some()) {
                        _ if answer.is_none() => {}
                        Class::Hit => {
                            samples.hit_us.push(latency_us);
                            samples.hit_rtt_us.push(us(done - sent));
                        }
                        Class::Resolve => samples.resolve_us.push(latency_us),
                        _ => samples.miss_us.push(latency_us),
                    }
                    let window = if shape.checkpoint {
                        frontend.stats().checkpoints - self.checkpoints_before
                    } else {
                        self.solves / CONTROL_WINDOW_SOLVES
                    };
                    self.solves += 1;
                    let worst = samples.window_worst_ms.entry(window).or_insert(0.0);
                    *worst = worst.max(latency_us / 1e3);
                    let rtt = us(done - sent);
                    serving.log.push(answer.unwrap_or(0), answer.is_some(), at_ms, rtt);
                }
            }
        }
        let mut round: Vec<f64> = samples.hit_rtt_us[hits_before..].to_vec();
        samples.round_hit_rtt_us.push(stats::median(&mut round).unwrap_or(0.0));
        samples.serve_secs += start.elapsed().as_secs_f64();
        samples.serve_steps += slot as usize;
    }
}

/// Waits for `due`: sleeps while it is far, then spins, so that a
/// step's measured delay is the server's and not the timer's. A
/// generator that spins throughout keeps one of the host's CPUs busy;
/// on an oversubscribed host that slows the server's threads instead.
fn pace(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Phase C. The writer replaces one pool per generation with fresh
/// content and commits; the follower registers the same content cold
/// and adopts the generation, which restores exactly that pool.
#[allow(clippy::too_many_arguments)]
fn adopt_generations(
    shape: &Shape,
    seed: u64,
    writer: &mut JuryService,
    pools: &mut [PoolId],
    fleet: &mut [Vec<Juror>],
    dir: &Path,
    samples: &mut Samples,
    tally: &mut Tally,
    speed: &mut HostSpeed,
) {
    let mut follower = JuryService::with_config(service_config(Some(dir)));
    let mut mirrored = register(&mut follower, fleet);
    let mut rng = inputs::rng(seed, Stream::Churn);
    for generation in 0..GENERATIONS {
        speed.tick();
        let victim = generation % fleet.len();
        let content = inputs::pool(&mut rng, shape.per_pool);
        writer.remove_pool(pools[victim]).expect("the writer retires a pool");
        pools[victim] = writer.create_pool(content.clone());
        writer.warm_pool(pools[victim]).expect("the replacement warms");
        let commit = writer.snapshot(dir);
        follower.remove_pool(mirrored[victim]).expect("the follower retires the pool");
        mirrored[victim] = follower.create_pool(content.clone());
        fleet[victim] = content;

        tally.attempt();
        let started = Instant::now();
        let adopted = follower.adopt_snapshot();
        let took = started.elapsed();
        match (commit, adopted) {
            (Ok(commit), Some(report))
                if report.generation == commit.generation && report.rejected == 0 =>
            {
                samples.adopt_ms.push(ms(took));
                samples.adopt_restored.push(report.restored as f64);
            }
            (commit, adopted) => {
                tally.fail(format!("generation not adopted: {commit:?} / {adopted:?}"));
                continue;
            }
        }
        tally.attempt();
        let from_writer = writer.solve(&DecisionTask::altruism(pools[victim]));
        let from_follower = follower.solve(&DecisionTask::altruism(mirrored[victim]));
        match (from_follower, from_writer) {
            (Ok(got), Ok(want)) => tally.expect_equal("adopted AltrM", &got, &want),
            _ => tally.fail("a solve after adoption failed".to_string()),
        }
    }
}

/// Replays the logged steps on a bare service twin built from
/// `initial`, comparing every served answer. The twin solves through
/// `solve_batch_shared`, the call the front end makes. With `layers`,
/// times each call and commits a twin snapshot wherever the served run
/// crossed a [`CHECKPOINT`] boundary, and once at the end.
fn verify(
    replay: Replay<'_>,
    initial: &[Vec<Juror>],
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
    snapshot_dir: &Path,
) {
    let mut twin = JuryService::with_config(service_config(None));
    let pools = register(&mut twin, initial);
    let mut window = 0u64;
    for step in replay {
        if let Some(layers) = layers.as_deref_mut() {
            let crossed = (f64::from(layers.timing(step.index).0) / ms(CHECKPOINT)) as u64;
            if step.class != Class::Warmup && crossed > window {
                window = crossed;
                layers.commit(&mut twin, snapshot_dir);
            }
        }
        let started = Instant::now();
        match step.step {
            Step::Write { pool, index, juror } if step.ok => {
                twin.update_juror(pools[pool], index, juror).expect("the twin applies the write");
                if let Some(layers) = layers.as_deref_mut() {
                    layers.update_us.push(us(started.elapsed()));
                }
            }
            Step::Write { .. } => {}
            Step::Solve { pool, key } => {
                let task = inputs::task(pools[pool], key);
                let answer = twin.solve_batch_shared(std::slice::from_ref(&task)).pop();
                let done = Instant::now();
                match answer.expect("one answer per task") {
                    _ if !step.ok => {}
                    Ok(selection) => {
                        if digest(&selection) != step.digest {
                            tally.fail(format!(
                                "served answer of step {} differs from the twin's {}",
                                step.index,
                                brief(&selection)
                            ));
                        }
                        if let Some(layers) = layers.as_deref_mut() {
                            layers.service_solve(&step, &task, started, done, &selection);
                        }
                    }
                    Err(e) => tally.fail(format!("twin solve failed: {e}")),
                }
            }
        }
    }
    if let Some(layers) = layers {
        // The interval still open when serving stopped.
        layers.commit(&mut twin, snapshot_dir);
    }
}

/// A metric as printed on the result line.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<String>,
}

/// Knobs only the smoke test turns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hooks {
    /// Corrupt one recorded served answer before verification.
    pub corrupt_answer: bool,
}

extern "C" {
    /// `sync(2)`: schedules every dirty page for writeback and waits.
    fn sync();
}

/// Runs `shape`: the whole lifecycle, measured for `seconds`. A traced
/// run first makes the same untraced run, so that it can print the
/// tracing overhead next to the per-layer metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool, hooks: Hooks) -> Outcome {
    if !trace {
        let (outcome, _) = run_once(shape, seed, seconds, false, hooks);
        return outcome;
    }
    let (untraced, plain) = run_once(shape, seed, seconds, false, hooks);
    let (mut traced, with_spans) = run_once(shape, seed, seconds, true, hooks);
    traced.tally.attempted += untraced.tally.attempted;
    traced.tally.failed += untraced.tally.failed;
    traced.tally.notes.extend(untraced.tally.notes);
    let overhead: Vec<String> = with_spans
        .iter()
        .zip(&plain)
        .map(|(t, u)| {
            let (tv, uv) = (t.value.unwrap_or(f64::NAN), u.value.unwrap_or(f64::NAN));
            format!("{} traced {tv:.4} untraced {uv:.4} overhead {:+.4}", t.name, tv - uv)
        })
        .collect();
    traced
        .diagnostics
        .push(format!("tracing overhead (traced - untraced, same seed): {}", overhead.join("; ")));
    traced
}

/// The run's calibration (see [`HostSpeed`]), and each phase's for the
/// diagnostics.
struct Speeds {
    run: Factor,
    setup: Factor,
    rounds: Factor,
    adopt: Factor,
}

/// One lifecycle; returns the outcome and the end-to-end metrics.
fn run_once(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    hooks: Hooks,
) -> (Outcome, Vec<Metric>) {
    // A build that just ran leaves its output in the page cache for the
    // kernel to write back over the next half minute, and that writeback
    // slows every fsync a checkpoint makes. Flushing it first keeps the
    // first run after a build comparable with the rest.
    // SAFETY: `sync` takes no arguments, cannot fail and touches no
    // memory of this process.
    unsafe { sync() };
    // A traced run's second lifecycle must not inherit the first's peak.
    stats::reset_rss_peak();
    let scratch = ScratchDir::new(shape.name);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut layers = trace.then(Layers::new);
    let mut speed = HostSpeed::new();

    let served_dir = scratch.0.join("served");
    let checkpoint_dir = shape.checkpoint.then_some(served_dir.as_path());
    let mut serving = None;
    for _ in 0..SETUPS {
        if let Some(previous) = serving.take() {
            drop(Serving::shut_down(previous));
        }
        speed.sample(SETUP_KERNELS);
        let started = Instant::now();
        let fresh = Serving::set_up(shape, seed, checkpoint_dir, trace, &mut tally);
        samples.setup_s.push(started.elapsed().as_secs_f64());
        serving = Some(fresh);
    }
    let setup_speed = speed.finish();
    let mut serving = serving.expect("at least one set-up");

    // Phases A and B alternate in rounds, so both sample the host's
    // speed over the same stretch of time.
    let budget = Duration::from_secs_f64(seconds);
    let cold_budget = budget.mul_f64(shape.cold_share);
    let round_serve = budget.mul_f64(1.0 - shape.cold_share) / ROUNDS;
    let mut cold = ColdBuilds::new(seed);
    let mut serve = ServeLoop::new(shape, seed, &serving);
    let frontend = serving.frontend();
    let service_before = frontend.service_stats();
    for round in 1..=ROUNDS {
        let last = round == ROUNDS;
        cold.run(
            shape,
            cold_budget * round / ROUNDS,
            if last { MIN_COLD } else { 0 },
            &mut samples,
            &mut tally,
            &mut speed,
            layers.as_mut(),
        );
        let until = Instant::now() + round_serve;
        serve.run(shape, &mut serving, until, &mut samples, &mut tally, &mut speed);
    }
    let rounds_speed = speed.finish();
    samples.rss_peak_mb = stats::rss_peak_mb();
    let served = frontend.stats();
    let service_after = frontend.service_stats();
    drop(frontend);
    if served.checkpoint_failures > 0 {
        tally.fail(format!("{} checkpoints failed", served.checkpoint_failures));
    }
    if service_after.full_repairs != service_before.full_repairs {
        tally.fail("serving rebuilt a pool from scratch".to_string());
    }
    if let Some(layers) = layers.as_mut() {
        layers.served(&served, &service_before, &service_after, samples.paym_solves);
    }

    let Serving { server, client, mut pools, mut fleet, initial, mut log, full_commit_ms, .. } =
        serving;
    drop(client);
    let mut writer = server.shutdown().expect("the server returns its service");
    let adopt_dir = checkpoint_dir.map_or_else(|| scratch.0.join("adopt"), Path::to_path_buf);
    let full_commit_ms = full_commit_ms.unwrap_or_else(|| {
        let started = Instant::now();
        writer.snapshot(&adopt_dir).expect("the first full commit");
        ms(started.elapsed())
    });
    adopt_generations(
        shape,
        seed,
        &mut writer,
        &mut pools,
        &mut fleet,
        &adopt_dir,
        &mut samples,
        &mut tally,
        &mut speed,
    );
    let adopt_speed = speed.finish();
    drop(writer);

    if hooks.corrupt_answer {
        // The first serving step is always a solve.
        let first = warmup_steps(shape.fleet).len();
        log.digests[first] ^= 1;
    }
    if let Some(layers) = layers.as_mut() {
        layers.timing = std::mem::take(&mut log.timing);
    }
    let replay = Replay::new(shape, seed, &initial, &log);
    verify(replay, &initial, &mut tally, layers.as_mut(), &scratch.0.join("twin"));

    let speeds = Speeds {
        run: speed.whole_run(),
        setup: setup_speed,
        rounds: rounds_speed,
        adopt: adopt_speed,
    };
    let mut diagnostics = diagnostics(shape, &mut samples, &speeds, &tally);
    let end_to_end = end_to_end(&mut samples, &speeds);
    let metrics = match layers.as_mut() {
        Some(layers) => {
            layers.frontend_twin(Replay::new(shape, seed, &initial, &log), &initial);
            diagnostics.extend(layers.diagnostics());
            layers.metrics(full_commit_ms, &samples)
        }
        None => end_to_end.clone(),
    };
    (Outcome { tally, metrics, diagnostics }, end_to_end)
}

/// Median of the worst solve per interval, leaving out the partial
/// first and last intervals when there are enough whole ones.
fn stall_ms(windows: &BTreeMap<u64, f64>) -> Option<f64> {
    let mut worst: Vec<f64> = windows.values().copied().collect();
    if worst.len() >= 4 {
        worst.pop();
        worst.remove(0);
    }
    stats::median(&mut worst)
}

/// The end-to-end metrics: class medians, every timing scaled by the
/// run's calibration factor.
fn end_to_end(samples: &mut Samples, speeds: &Speeds) -> Vec<Metric> {
    let metric = |name, unit, value| Metric { name, unit, value };
    let scale = speeds.run.scale();
    let scaled = |value: Option<f64>| value.map(|v| v * scale);
    vec![
        metric("setup_s", "s", scaled(stats::median(&mut samples.setup_s))),
        metric("rss_peak_mb", "MB", samples.rss_peak_mb),
        metric("solve_p50_us", "us", scaled(stats::median(&mut samples.hit_us))),
        metric("resolve_p50_us", "us", scaled(stats::median(&mut samples.resolve_us))),
        metric("write_p50_us", "us", scaled(stats::median(&mut samples.write_us))),
        metric("first_answer_p50_ms", "ms", scaled(stats::median(&mut samples.first_answer_ms))),
        metric("first_paym_p50_ms", "ms", scaled(stats::median(&mut samples.first_paym_ms))),
        metric("ckpt_stall_p50_ms", "ms", scaled(stall_ms(&samples.window_worst_ms))),
        metric("adopt_p50_ms", "ms", scaled(stats::median(&mut samples.adopt_ms))),
    ]
}

/// Ungated figures printed next to the result: the calibration, raw
/// medians, tails, rates, sample counts and generator lateness.
fn diagnostics(
    shape: &Shape,
    samples: &mut Samples,
    speeds: &Speeds,
    tally: &Tally,
) -> Vec<String> {
    let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
    let phases = [
        ("run", speeds.run),
        ("setup", speeds.setup),
        ("phases A and B", speeds.rounds),
        ("adopt", speeds.adopt),
    ];
    let mut out = vec![
        format!(
            "workload {} ({}; fleet {}x{}, phase-A pools {})",
            shape.name,
            shape.open_rate.map_or_else(
                || "closed loop, 1 connection".to_string(),
                |r| format!("open loop at {r}/s, 1 connection")
            ),
            shape.fleet,
            shape.per_pool,
            shape.cold_pool,
        ),
        format!(
            "calibration kernel median us (reference {REFERENCE_US}; the run's factor scales \
             every timing): {}",
            phases
                .iter()
                .map(|(name, f)| format!(
                    "{name} {:.2} over {} runs (factor {:.4})",
                    f.kernel_us,
                    f.runs,
                    f.scale()
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "raw medians: setup {} s, hit {} us, resolve {} us, write {} us, first answer {} ms, \
             first paym {} ms, stall {} ms, adopt {} ms",
            fmt(stats::median(&mut samples.setup_s)),
            fmt(stats::median(&mut samples.hit_us)),
            fmt(stats::median(&mut samples.resolve_us)),
            fmt(stats::median(&mut samples.write_us)),
            fmt(stats::median(&mut samples.first_answer_ms)),
            fmt(stats::median(&mut samples.first_paym_ms)),
            fmt(stall_ms(&samples.window_worst_ms)),
            fmt(stats::median(&mut samples.adopt_ms)),
        ),
        format!(
            "samples: setup {} hit {} resolve {} miss {} write {} first-answer {} windows {} adopt {}",
            samples.setup_s.len(),
            samples.hit_us.len(),
            samples.resolve_us.len(),
            samples.miss_us.len(),
            samples.write_us.len(),
            samples.first_answer_ms.len(),
            samples.window_worst_ms.len(),
            samples.adopt_ms.len(),
        ),
        format!(
            "hit p99 {} us (raw) over {} hits; hit round trip p50 {} us (raw, without \
             queueing); miss p50 {} us (raw); serving rate {:.0} steps/s",
            fmt(stats::quantile(&mut samples.hit_us, 0.99)),
            samples.hit_us.len(),
            fmt(stats::median(&mut samples.hit_rtt_us)),
            fmt(stats::median(&mut samples.miss_us)),
            samples.serve_steps as f64 / samples.serve_secs.max(1e-9),
        ),
    ];
    out.push(format!(
        "hit round trip p50 per serving round (raw us): {}",
        samples.round_hit_rtt_us.iter().map(|v| format!("{v:.1}")).collect::<Vec<_>>().join(" ")
    ));
    if shape.open_rate.is_some() {
        let max = samples.lateness_us.iter().copied().fold(0.0, f64::max);
        out.push(format!(
            "generator lateness p50 {} us, max {max:.1} us",
            fmt(stats::median(&mut samples.lateness_us))
        ));
    }
    out.extend(tally.notes.iter().map(|n| format!("failure: {n}")));
    out
}
