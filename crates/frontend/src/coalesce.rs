//! The adaptive coalescing engine: concurrent single-task submissions
//! are merged into [`JuryService::solve_batch_shared`] windows keyed by
//! `(tenant, pool)`, so N arrivals that replay one cached answer cost
//! one solver pass plus N `Arc` bumps instead of N passes.
//!
//! # Window semantics
//!
//! A window opens when the first task for its `(tenant, pool)` key is
//! queued and closes — becoming a dispatched batch — on the first of:
//!
//! * **max-batch**: the window holds [`FrontendConfig::max_batch`] tasks;
//! * **max-delay**: the window's *oldest* task has waited
//!   [`FrontendConfig::max_delay`] (the p99 latency knob — under any
//!   load, no admitted task waits longer than `max_delay` plus one
//!   in-flight window's solve time before its solve begins);
//! * **idle service**: the solver is free and no other window is ready —
//!   adaptive greedy dispatch, so light load pays solve latency, not the
//!   full delay bound, while heavy load accumulates occupancy behind the
//!   in-flight window.
//!
//! An idle front-end skips the machinery entirely: a submission that
//! finds zero queued tasks and an uncontended solver solves inline on
//! the caller thread as a one-task batch (which [`JuryService`] answers
//! on that same thread), so batch-1 latency matches the bare library
//! call.
//!
//! # Backpressure contract
//!
//! Admission control is per tenant: each tenant may hold at most
//! [`FrontendConfig::queue_capacity`] queued tasks across its windows.
//! The submission that would exceed the cap is refused *immediately*
//! with [`SubmitError::Overloaded`], never queued — a slow tenant
//! cannot grow another tenant's tail. Refusals are counted in
//! [`FrontendStats::queue_rejections`].
//!
//! The refusal's `retry_after` hint scales with the backlog: it is the
//! queued-window count times the mean per-window solve time observed
//! so far (floored at one `max_delay`, which is also the estimate
//! before any window has been dispatched). A tenant refused behind a
//! deep backlog is told to come back after the backlog's expected
//! drain time, not after one window's delay bound.

use jury_core::problem::Selection;
use jury_service::{
    DecisionTask, JuryService, PoolId, ServiceError, ServiceStats, SnapshotError, SnapshotWatcher,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs for the coalescing front-end.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Tasks per window before it closes regardless of age. The service
    /// answers a window of up to 32 tasks on the dispatching thread and
    /// splits a larger one across its worker threads.
    pub max_batch: usize,
    /// Oldest-task age at which a window closes regardless of occupancy
    /// — the latency bound traded against batching opportunity.
    pub max_delay: Duration,
    /// Per-tenant cap on queued tasks; the submission that would exceed
    /// it is refused with a 429-style [`SubmitError::Overloaded`].
    /// An admitted task is always solved, however long it queued.
    pub queue_capacity: usize,
    /// Enables the `/debug/panic` fault-injection route on the HTTP
    /// layer — a handler that panics on purpose, for proving worker
    /// panic isolation. Off by default; never enable in production.
    pub debug_fault_routes: bool,
    /// With `Some(interval)`, the supervisor thread calls the service's
    /// `snapshot()` every `interval` under live churn (incremental:
    /// only dirty entries are rewritten). A failed checkpoint is
    /// counted in [`FrontendStats::checkpoint_failures`] and backs off
    /// by doubling the wait, capped at 8× the interval; the next
    /// success resets it. `None` (the default) checkpoints only on
    /// graceful drain. Requires the service to have a `snapshot_dir`.
    pub checkpoint_interval: Option<Duration>,
    /// With `Some(interval)`, the front-end starts as a warm
    /// **follower** (see the `jury-service` crate docs' *failover
    /// contract*) and the supervisor thread becomes role-aware,
    /// polling the service's `snapshot_dir` roughly every
    /// `interval` (±25% jitter). Follower ticks adopt newer committed
    /// generations without restart and probe for promotion — a stale
    /// or absent writer lease promotes this front-end to **writer**,
    /// after which ticks checkpoint exactly like
    /// [`FrontendConfig::checkpoint_interval`] (which, when also set,
    /// provides the writer-role cadence). A fenced checkpoint demotes
    /// back to follower. Solves flow in both roles; mutating routes
    /// answer 503 plus a leader hint on followers. `None` (the
    /// default): the front-end is a plain writer from the start and
    /// never demotes.
    pub follower_watch: Option<Duration>,
}

/// The supervisor role a front-end is currently serving in (see
/// [`FrontendConfig::follower_watch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Holds (or is entitled to take) the writer lease: checkpoints
    /// periodically and accepts mutations.
    Writer,
    /// Serves solves from adopted generations, refuses mutations, and
    /// probes for promotion.
    Follower,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Writer => "writer",
            Self::Follower => "follower",
        })
    }
}

const ROLE_WRITER: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::from_millis(25),
            queue_capacity: 1024,
            debug_fault_routes: false,
            checkpoint_interval: None,
            follower_watch: None,
        }
    }
}

/// Why a submission was not solved.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The tenant's queue is full; retry after the hinted delay.
    Overloaded {
        /// Backoff hint, surfaced as HTTP `Retry-After`.
        retry_after: Duration,
    },
    /// The front-end is draining for shutdown; no new work is admitted.
    ShuttingDown,
    /// The service refused the task (unknown pool, solver error, …).
    Service(ServiceError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { retry_after } => {
                write!(f, "tenant queue full, retry after {retry_after:?}")
            }
            Self::ShuttingDown => write!(f, "front-end is shutting down"),
            Self::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

jury_core::stats_record! {
    /// Monotone counters describing the front-end's traffic so far (the
    /// `/stats` payload next to [`ServiceStats`]). All counters are updated
    /// with relaxed atomics — they are observability, not synchronization.
    pub struct FrontendStats {
        /// Submissions admitted (inline + queued), excluding rejections.
        pub requests: u64,
        /// Submissions solved inline on the caller thread (idle fast path).
        pub inline_solves: u64,
        /// Windows dispatched through the coalescing queue.
        pub coalesced_windows: u64,
        /// Tasks carried by those windows (mean occupancy =
        /// `coalesced_tasks / coalesced_windows`).
        pub coalesced_tasks: u64,
        /// Largest single-window occupancy seen.
        pub max_window_occupancy: u64,
        /// Submissions refused by per-tenant admission control.
        pub queue_rejections: u64,
        /// High-water mark of tasks queued across all windows.
        pub queue_depth_highwater: u64,
        /// Requests the HTTP layer refused before reaching the queue
        /// (malformed JSON, oversized bodies, unknown routes).
        pub malformed_requests: u64,
        /// Total queueing delay (enqueue → window dispatch) over all
        /// coalesced tasks, in nanoseconds.
        pub queue_wait_nanos: u64,
        /// Total wall time of the dispatched windows' solves, in
        /// nanoseconds: each window's `solve_batch_shared` call, timed
        /// once the service lock is held (queue and lock waits excluded;
        /// cold builds and AltrM re-solves included). Inline solves are
        /// not counted.
        pub solve_nanos: u64,
        /// Request handlers that panicked. Each cost its connection only:
        /// the worker caught the unwind, answered a best-effort 500 and
        /// went back to the accept loop.
        pub worker_panics: u64,
        /// Periodic checkpoints that committed (supervisor thread; the final
        /// drain snapshot is not counted here).
        pub checkpoints: u64,
        /// Periodic checkpoints that failed (lease contention, fencing,
        /// I/O). Each failure doubles the supervisor's wait, capped at 8× the
        /// configured interval; a fenced one on a follower-capable
        /// front-end demotes it instead.
        pub checkpoint_failures: u64,
        /// Follower → writer transitions: a supervisor tick found the
        /// writer lease stale (or absent), broke it by epoch bump, and
        /// committed — this front-end now checkpoints.
        pub promotions: u64,
        /// Writer → follower transitions: a checkpoint came back fenced
        /// (another writer holds a higher epoch), so this front-end
        /// stepped back to adopting generations.
        pub demotions: u64,
    }
    atomic Counters;
}

impl Counters {
    fn raise_max(cell: &AtomicU64, seen: u64) {
        let mut current = cell.load(Ordering::Relaxed);
        while seen > current {
            match cell.compare_exchange_weak(current, seen, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
    }
}

/// One queued submission's rendezvous: the dispatcher deposits the
/// result and signals; the submitting thread sleeps on the condvar.
struct Waiter {
    slot: Mutex<Option<Result<Arc<Selection>, SubmitError>>>,
    ready: Condvar,
    enqueued: Instant,
}

struct Window {
    tasks: Vec<DecisionTask>,
    waiters: Vec<Arc<Waiter>>,
    opened: Instant,
}

#[derive(Default)]
struct QueueState {
    windows: HashMap<(String, PoolId), Window>,
    tenant_pending: HashMap<String, usize>,
    total_pending: usize,
}

struct Shared {
    service: Mutex<JuryService>,
    queue: Mutex<QueueState>,
    /// Signals the dispatcher: new work queued, or shutdown requested.
    work: Condvar,
    config: FrontendConfig,
    counters: Counters,
    shutdown: AtomicBool,
    /// Parking spot for the supervisor thread; `checkpoint_wake`
    /// is notified on shutdown so the thread exits promptly instead of
    /// sleeping out its interval.
    checkpoint_gate: Mutex<()>,
    checkpoint_wake: Condvar,
    /// [`ROLE_WRITER`] or [`ROLE_FOLLOWER`]; flipped only by the
    /// supervisor thread, read by routes and stats.
    role: AtomicU8,
    /// The lease holder a promotion probe last saw — surfaced to
    /// clients whose writes a follower refuses.
    leader_hint: Mutex<Option<String>>,
}

impl Shared {
    fn role(&self) -> Role {
        match self.role.load(Ordering::Acquire) {
            ROLE_FOLLOWER => Role::Follower,
            _ => Role::Writer,
        }
    }

    /// Runs `f` under the service lock on behalf of any holder other
    /// than the dispatcher, then wakes the dispatcher. While such a
    /// holder runs, the dispatcher's greedy `try_lock` fails and it
    /// sleeps toward the oldest window's `max_delay`; the wake lets the
    /// windows queued behind the holder dispatch the moment the lock is
    /// free instead.
    fn with_service<R>(&self, f: impl FnOnce(&mut JuryService) -> R) -> R {
        let out = f(&mut self.service.lock().expect("service poisoned"));
        self.wake_dispatcher();
        out
    }

    /// Wakes the dispatcher if anything is queued. The queue lock is
    /// taken first so the wake cannot be lost: the dispatcher holds that
    /// lock from its scan until it parks, so the notify lands either
    /// after it parked or before a scan that will see the freed service
    /// lock. With nothing queued there is nothing to dispatch, and the
    /// next submission notifies on its own.
    fn wake_dispatcher(&self) {
        let queue = self.queue.lock().expect("queue poisoned");
        if queue.total_pending > 0 {
            self.work.notify_one();
        }
    }
}

/// The coalescing front-end around one [`JuryService`]. See the module
/// docs for window semantics and the backpressure contract.
///
/// `Frontend` is the transport-free core: [`Frontend::submit`] is the
/// whole request path, and the [`HttpServer`](crate::HttpServer) is a thin
/// codec over it. Cloning the handle (`Arc` internally) shares the same
/// queue, dispatcher and service.
pub struct Frontend {
    shared: Arc<Shared>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Frontend {
    /// Starts the front-end over `service`, spawning the dispatcher
    /// thread that closes and solves coalescing windows.
    pub fn start(service: JuryService, config: FrontendConfig) -> Arc<Self> {
        let initial_role =
            if config.follower_watch.is_some() { ROLE_FOLLOWER } else { ROLE_WRITER };
        let shared = Arc::new(Shared {
            service: Mutex::new(service),
            queue: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            config,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            checkpoint_gate: Mutex::new(()),
            checkpoint_wake: Condvar::new(),
            role: AtomicU8::new(initial_role),
            leader_hint: Mutex::new(None),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("jury-dispatch".into())
                .spawn(move || dispatcher_loop(&shared))
                .expect("spawn dispatcher")
        };
        let supervised =
            shared.config.follower_watch.is_some() || shared.config.checkpoint_interval.is_some();
        let supervisor = supervised.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("jury-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn supervisor")
        });
        Arc::new(Self {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
            supervisor: Mutex::new(supervisor),
        })
    }

    /// Submits one task for `tenant`, blocking until it is solved (or
    /// refused). This is the complete admission → coalesce → solve path;
    /// see the module docs for when it solves inline versus queues.
    pub fn submit(&self, tenant: &str, task: DecisionTask) -> Result<Arc<Selection>, SubmitError> {
        let shared = &*self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let waiter;
        {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            // Re-checked under the queue lock: the dispatcher's exit
            // scan holds this lock, so a submission that sees the flag
            // clear here is guaranteed to be drained before exit.
            if shared.shutdown.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            let pending = queue.tenant_pending.get(tenant).copied().unwrap_or(0);
            if pending >= shared.config.queue_capacity {
                shared.counters.queue_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded { retry_after: retry_hint(shared, &queue) });
            }
            shared.counters.requests.fetch_add(1, Ordering::Relaxed);
            if queue.total_pending == 0 {
                // Idle fast path: nothing queued and the solver free —
                // solve on this thread as a one-task batch. The
                // dispatcher cannot be starved: with zero pending tasks
                // it has nothing to dispatch.
                if let Ok(mut service) = shared.service.try_lock() {
                    drop(queue);
                    shared.counters.inline_solves.fetch_add(1, Ordering::Relaxed);
                    let mut out = service.solve_batch_shared(std::slice::from_ref(&task));
                    drop(service);
                    shared.wake_dispatcher();
                    return out.pop().expect("one result per task").map_err(SubmitError::Service);
                }
            }
            waiter = Arc::new(Waiter {
                slot: Mutex::new(None),
                ready: Condvar::new(),
                enqueued: Instant::now(),
            });
            let key = (tenant.to_string(), task.pool);
            let window = queue.windows.entry(key).or_insert_with(|| Window {
                tasks: Vec::new(),
                waiters: Vec::new(),
                opened: Instant::now(),
            });
            window.tasks.push(task);
            window.waiters.push(Arc::clone(&waiter));
            *queue.tenant_pending.entry(tenant.to_string()).or_insert(0) += 1;
            queue.total_pending += 1;
            Counters::raise_max(&shared.counters.queue_depth_highwater, queue.total_pending as u64);
            shared.work.notify_one();
        }
        let mut slot = waiter.slot.lock().expect("waiter poisoned");
        while slot.is_none() {
            slot = waiter.ready.wait(slot).expect("waiter poisoned");
        }
        slot.take().expect("checked above")
    }

    /// Runs `f` with exclusive access to the wrapped service — the
    /// mutation side-channel (juror churn, pool registration) and the
    /// test hook for holding the solver busy. Blocks dispatch while `f`
    /// runs; queued windows simply accumulate occupancy, and dispatch
    /// resumes as soon as `f` returns.
    pub fn with_service<R>(&self, f: impl FnOnce(&mut JuryService) -> R) -> R {
        self.shared.with_service(f)
    }

    /// Snapshot of the front-end counters.
    pub fn stats(&self) -> FrontendStats {
        self.shared.counters.snapshot()
    }

    /// Snapshot of the wrapped service's counters (blocks on the
    /// service lock like any solve).
    pub fn service_stats(&self) -> ServiceStats {
        self.with_service(|s| s.stats())
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    pub(crate) fn debug_fault_routes(&self) -> bool {
        self.shared.config.debug_fault_routes
    }

    /// The supervisor role this front-end currently serves in. Always
    /// [`Role::Writer`] without [`FrontendConfig::follower_watch`].
    pub fn role(&self) -> Role {
        self.shared.role()
    }

    /// The writer-lease holder a promotion probe last observed — the
    /// leader hint a follower attaches to refused writes. `None` until
    /// a probe has seen a live foreign lease (or after a promotion).
    pub fn leader_hint(&self) -> Option<String> {
        self.shared.leader_hint.lock().expect("leader hint poisoned").clone()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stops admitting, lets the dispatcher drain
    /// every queued window (each waiter still receives its result), then
    /// returns the wrapped service. Idempotent across clones — only the
    /// first caller gets `Some(service)`.
    pub fn shutdown(&self) -> Option<JuryService> {
        {
            // Flag and wake under the queue lock: the dispatcher holds it
            // from its drain check until it parks, so a shutdown cannot
            // slip into that window unseen and leave it asleep for a
            // whole `max_delay`. The supervisor checks the flag under its
            // gate the same way.
            let _queue = self.shared.queue.lock().expect("queue poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work.notify_all();
        }
        {
            let _gate = self.shared.checkpoint_gate.lock().expect("checkpoint gate poisoned");
            self.shared.checkpoint_wake.notify_all();
        }
        if let Some(supervisor) = self.supervisor.lock().expect("supervisor handle poisoned").take()
        {
            supervisor.join().expect("supervisor panicked");
        }
        let handle = self.dispatcher.lock().expect("dispatcher handle poisoned").take()?;
        handle.join().expect("dispatcher panicked");
        let mut service = std::mem::replace(
            &mut *self.shared.service.lock().expect("service poisoned"),
            JuryService::new(),
        );
        // Graceful drain persists the warm store so the next process
        // starts warm, then hands the writer lease back so a successor
        // can start checkpointing without waiting out the ttl.
        // Best-effort: a failed write must not turn a clean shutdown
        // into an error. A draining *follower* skips this — taking the
        // lease on the way out would fence the live writer's epoch for
        // nothing.
        if self.shared.role() == Role::Writer {
            if let Some(dir) = service.config().snapshot_dir.clone() {
                let _ = service.snapshot(&dir);
                let _ = service.release_snapshot_lease(&dir);
            }
        }
        Some(service)
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Backoff hint for a refused submission: the backlog's expected drain
/// time — queued windows times the mean per-window solve time observed
/// so far — floored at one `max_delay` (also the per-window estimate
/// before the first window has been dispatched).
fn retry_hint(shared: &Shared, queue: &QueueState) -> Duration {
    let backlog = u32::try_from(queue.windows.len().max(1)).unwrap_or(u32::MAX);
    let per_window = shared
        .counters
        .solve_nanos
        .load(Ordering::Relaxed)
        .checked_div(shared.counters.coalesced_windows.load(Ordering::Relaxed))
        .map_or(shared.config.max_delay, Duration::from_nanos);
    shared.config.max_delay.max(per_window.saturating_mul(backlog))
}

/// Outcome of one queue scan: a batch to solve (with the service guard
/// when greedy dispatch already claimed it), or how long to sleep.
enum Dispatch<'a> {
    Batch {
        tasks: Vec<DecisionTask>,
        waiters: Vec<Arc<Waiter>>,
        service: Option<MutexGuard<'a, JuryService>>,
    },
    Sleep(Option<Duration>),
    Exit,
}

fn scan<'a>(shared: &'a Shared, queue: &mut QueueState, now: Instant) -> Dispatch<'a> {
    if queue.total_pending == 0 {
        if shared.shutdown.load(Ordering::Acquire) {
            return Dispatch::Exit;
        }
        return Dispatch::Sleep(None);
    }
    let draining = shared.shutdown.load(Ordering::Acquire);
    // Ready = full window, expired window, or (drain mode) anything.
    // Among ready windows take the oldest; otherwise remember the
    // earliest deadline to sleep toward.
    let mut ready: Option<(&(String, PoolId), Instant)> = None;
    let mut next_deadline: Option<Instant> = None;
    for (key, window) in &queue.windows {
        let full = window.tasks.len() >= shared.config.max_batch;
        let deadline = window.opened + shared.config.max_delay;
        if full || draining || now >= deadline {
            if ready.is_none_or(|(_, opened)| window.opened < opened) {
                ready = Some((key, window.opened));
            }
        } else if next_deadline.is_none_or(|d| deadline < d) {
            next_deadline = Some(deadline);
        }
    }
    // Adaptive greedy dispatch: nothing has hit its bound yet, but the
    // solver is idle — ship the oldest window now rather than letting
    // an idle solver wait out max_delay. `try_lock` under the queue
    // lock is safe: submitters take the same q → service order and
    // never block on the service while holding the queue.
    let mut claimed = None;
    if ready.is_none() {
        if let Ok(guard) = shared.service.try_lock() {
            claimed = Some(guard);
            ready = queue
                .windows
                .iter()
                .min_by_key(|(_, w)| w.opened)
                .map(|(key, window)| (key, window.opened));
        }
    }
    let Some((key, _)) = ready else {
        return Dispatch::Sleep(next_deadline.map(|d| d.saturating_duration_since(now)));
    };
    let key = key.clone();
    let window = queue.windows.get_mut(&key).expect("key just scanned");
    let take = window.tasks.len().min(shared.config.max_batch);
    let tasks: Vec<DecisionTask> = window.tasks.drain(..take).collect();
    let waiters: Vec<Arc<Waiter>> = window.waiters.drain(..take).collect();
    if window.tasks.is_empty() {
        queue.windows.remove(&key);
    } else {
        // Leftovers beyond max_batch start a fresh delay clock.
        window.opened = now;
    }
    queue.total_pending -= tasks.len();
    if let Some(pending) = queue.tenant_pending.get_mut(&key.0) {
        *pending = pending.saturating_sub(tasks.len());
        if *pending == 0 {
            queue.tenant_pending.remove(&key.0);
        }
    }
    Dispatch::Batch { tasks, waiters, service: claimed }
}

/// The supervisor thread, started when the front-end checkpoints
/// ([`FrontendConfig::checkpoint_interval`]) or follows
/// ([`FrontendConfig::follower_watch`]). A plain writer is a supervisor
/// that never follows.
///
/// * **Writer tick.** Checkpoint: snapshot the service so a crash loses
///   at most one interval of warmth. Failures (lease held by another
///   process, fenced, I/O) double the wait — capped at 8× the interval
///   — so a contended directory is not hammered; the next success
///   resets the cadence. With a watch, [`SnapshotError::Fenced`]
///   demotes to follower instead: another writer holds a higher epoch,
///   and this one's next ticks should adopt that writer's generations,
///   not fight it. Without one the front-end stays a writer.
/// * **Follower tick.** First adopt: a jittered [`SnapshotWatcher`]
///   poll (directory-mtime fast path) detects newer committed
///   generations and [`JuryService::adopt_snapshot`] hot-swaps them in
///   — solves keep flowing throughout; the service lock is held only
///   for the swap itself. Then probe: one `snapshot()` attempt. A live
///   foreign lease refuses it (`LeaseHeld` — the holder id is recorded
///   as the leader hint); a stale or absent one is broken by epoch
///   bump and the commit *is* the promotion.
///
/// A plain writer's first tick waits exactly one checkpoint interval; a
/// watching one starts on the watcher's jittered poll. Exits as soon as
/// shutdown is flagged (the drain path takes its own final snapshot).
fn supervisor_loop(shared: &Shared) {
    let config = &shared.config;
    let checkpoint_every =
        config.checkpoint_interval.or(config.follower_watch).expect("started with an interval");
    let dir = shared.with_service(|service| service.config().snapshot_dir.clone());
    let Some(dir) = dir else {
        // Nothing to watch or checkpoint — park until shutdown.
        let mut gate = shared.checkpoint_gate.lock().expect("checkpoint gate poisoned");
        while !shared.shutdown.load(Ordering::Acquire) {
            let (g, _) = shared
                .checkpoint_wake
                .wait_timeout(gate, Duration::from_secs(3600))
                .expect("checkpoint gate poisoned");
            gate = g;
        }
        return;
    };
    let mut watcher = config.follower_watch.map(|watch| {
        let mut watcher = SnapshotWatcher::new(&dir, watch);
        // Seed the watch with whatever generation the service restored
        // at startup, so a quiet directory settles onto the stat-only
        // fast path instead of rescanning an already-adopted commit.
        watcher.observe(shared.with_service(|service| service.stats().follower_generation as u64));
        watcher
    });
    let cap = checkpoint_every.saturating_mul(8);
    let mut wait = watcher.as_mut().map_or(checkpoint_every, SnapshotWatcher::next_wait);
    let mut gate = shared.checkpoint_gate.lock().expect("checkpoint gate poisoned");
    loop {
        let (g, _) =
            shared.checkpoint_wake.wait_timeout(gate, wait).expect("checkpoint gate poisoned");
        gate = g;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        wait = match (shared.role(), watcher.as_mut()) {
            (Role::Follower, Some(watcher)) => {
                if watcher.poll().is_some() {
                    if let Some(report) = shared.with_service(JuryService::adopt_snapshot) {
                        watcher.observe(report.generation);
                    }
                }
                match shared.with_service(|service| service.snapshot(&dir)) {
                    Ok(_) => {
                        shared.role.store(ROLE_WRITER, Ordering::Release);
                        *shared.leader_hint.lock().expect("leader hint poisoned") = None;
                        shared.counters.promotions.fetch_add(1, Ordering::Relaxed);
                        shared.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
                        checkpoint_every
                    }
                    Err(SnapshotError::LeaseHeld { holder, .. }) => {
                        *shared.leader_hint.lock().expect("leader hint poisoned") = Some(holder);
                        watcher.next_wait()
                    }
                    Err(_) => watcher.next_wait(),
                }
            }
            (_, watcher) => {
                match (shared.with_service(|service| service.snapshot(&dir)), watcher) {
                    (Ok(_), _) => {
                        shared.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
                        checkpoint_every
                    }
                    (Err(SnapshotError::Fenced { .. }), Some(watcher)) => {
                        shared.role.store(ROLE_FOLLOWER, Ordering::Release);
                        shared.counters.demotions.fetch_add(1, Ordering::Relaxed);
                        shared.counters.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                        watcher.next_wait()
                    }
                    (Err(_), _) => {
                        shared.counters.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                        wait.saturating_mul(2).min(cap)
                    }
                }
            }
        };
    }
}

fn dispatcher_loop(shared: &Shared) {
    loop {
        let (tasks, waiters, claimed) = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                match scan(shared, &mut queue, Instant::now()) {
                    Dispatch::Exit => return,
                    Dispatch::Batch { tasks, waiters, service } => break (tasks, waiters, service),
                    Dispatch::Sleep(timeout) => {
                        let wait = timeout.unwrap_or(Duration::from_millis(100));
                        let (q, _) = shared.work.wait_timeout(queue, wait).expect("queue poisoned");
                        queue = q;
                    }
                }
            }
        };
        let dispatched = Instant::now();
        let mut service = match claimed {
            Some(guard) => guard,
            None => shared.service.lock().expect("service poisoned"),
        };
        // Timed from here, so neither queue nor lock waits count.
        let started = Instant::now();
        let results = service.solve_batch_shared(&tasks);
        let solved = started.elapsed();
        drop(service);

        let counters = &shared.counters;
        counters.coalesced_windows.fetch_add(1, Ordering::Relaxed);
        counters.coalesced_tasks.fetch_add(tasks.len() as u64, Ordering::Relaxed);
        Counters::raise_max(&counters.max_window_occupancy, tasks.len() as u64);
        counters.solve_nanos.fetch_add(solved.as_nanos() as u64, Ordering::Relaxed);
        let waited: u64 = waiters
            .iter()
            .map(|w| dispatched.saturating_duration_since(w.enqueued).as_nanos() as u64)
            .sum();
        counters.queue_wait_nanos.fetch_add(waited, Ordering::Relaxed);

        for (waiter, result) in waiters.into_iter().zip(results) {
            let mut slot = waiter.slot.lock().expect("waiter poisoned");
            *slot = Some(result.map_err(SubmitError::Service));
            waiter.ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_core::juror::pool_from_rates_and_costs;

    fn service_with_pool() -> (JuryService, jury_service::PoolId) {
        let jurors =
            pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4), (0.25, 0.3)]).unwrap();
        let mut service = JuryService::new();
        let pool = service.create_pool(jurors);
        (service, pool)
    }

    #[test]
    fn idle_submission_solves_inline() {
        let (service, pool) = service_with_pool();
        let frontend = Frontend::start(service, FrontendConfig::default());
        let selection = frontend.submit("t0", DecisionTask::altruism(pool)).unwrap();
        assert!(!selection.members.is_empty());
        let stats = frontend.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.inline_solves, 1);
        assert_eq!(stats.coalesced_windows, 0);
    }

    #[test]
    fn held_service_coalesces_concurrent_submissions() {
        // Holding the service lock keeps every submission off the inline
        // fast path and parks the dispatcher, so concurrent submissions
        // pile into windows; releasing the lock ships them batched.
        let (service, pool) = service_with_pool();
        let frontend = Frontend::start(service, FrontendConfig::default());
        let hold = std::sync::Barrier::new(2);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let fe = &frontend;
            let (hold, release) = (&hold, &release);
            scope.spawn(move || {
                fe.with_service(|_| {
                    hold.wait();
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            });
            hold.wait();
            for _ in 0..8 {
                scope.spawn(move || {
                    fe.submit("t0", DecisionTask::altruism(pool)).unwrap();
                });
            }
            // Wait for all eight to queue behind the held lock before
            // letting the dispatcher at them.
            while fe.stats().requests < 8 {
                std::thread::yield_now();
            }
            release.store(true, Ordering::Release);
        });
        let stats = frontend.stats();
        assert_eq!(stats.requests, 8);
        assert!(stats.coalesced_windows >= 1);
        assert_eq!(stats.coalesced_tasks + stats.inline_solves, 8);
        assert!(stats.max_window_occupancy >= 2, "held lock must coalesce: {stats:?}");
    }

    #[test]
    fn tenant_overflow_is_rejected_with_retry_hint() {
        let (service, pool) = service_with_pool();
        let config = FrontendConfig { queue_capacity: 0, ..Default::default() };
        let frontend = Frontend::start(service, config);
        let err = frontend.submit("t0", DecisionTask::altruism(pool)).unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { .. }));
        assert_eq!(frontend.stats().queue_rejections, 1);
        assert_eq!(frontend.stats().requests, 0, "rejected submissions are not admitted");
    }

    #[test]
    fn fuller_queue_raises_retry_hint() {
        // The Overloaded hint must grow with the backlog: a tenant
        // refused behind two queued windows is told to wait longer than
        // one refused behind a single window. A huge max_delay keeps
        // every window below its bound, and the held service lock keeps
        // the dispatcher from claiming anything greedily, so the
        // backlog is exactly what the test queued.
        let (service, pool) = service_with_pool();
        let config = FrontendConfig {
            queue_capacity: 1,
            max_delay: Duration::from_secs(3600),
            ..Default::default()
        };
        let max_delay = config.max_delay;
        let frontend = Frontend::start(service, config);
        let hold = std::sync::Barrier::new(2);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let fe = &frontend;
            let (hold, release) = (&hold, &release);
            scope.spawn(move || {
                fe.with_service(|_| {
                    hold.wait();
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            });
            hold.wait();
            // One queued window: tenant t0 reaches its capacity of 1.
            scope.spawn(move || {
                fe.submit("t0", DecisionTask::altruism(pool)).unwrap();
            });
            while fe.stats().requests < 1 {
                std::thread::yield_now();
            }
            let shallow = match fe.submit("t0", DecisionTask::altruism(pool)).unwrap_err() {
                SubmitError::Overloaded { retry_after } => retry_after,
                other => panic!("expected Overloaded, got {other:?}"),
            };
            // A second tenant's window deepens the backlog; t0's next
            // refusal must carry a strictly larger hint.
            scope.spawn(move || {
                fe.submit("t1", DecisionTask::altruism(pool)).unwrap();
            });
            while fe.stats().requests < 2 {
                std::thread::yield_now();
            }
            let deep = match fe.submit("t0", DecisionTask::altruism(pool)).unwrap_err() {
                SubmitError::Overloaded { retry_after } => retry_after,
                other => panic!("expected Overloaded, got {other:?}"),
            };
            assert!(shallow >= max_delay, "hint is floored at max_delay: {shallow:?}");
            assert!(deep > shallow, "deeper backlog must raise the hint: {deep:?} vs {shallow:?}");
            release.store(true, Ordering::Release);
            // The dispatcher is parked for the full (huge) delay bound;
            // drain mode wakes it so the queued submitters can return.
            frontend.shutdown();
        });
        assert_eq!(frontend.stats().queue_rejections, 2);
    }

    /// Submits `task` for tenant `t0` on a thread of its own.
    fn submit_async(
        frontend: &Arc<Frontend>,
        task: DecisionTask,
    ) -> std::thread::JoinHandle<Result<Arc<Selection>, SubmitError>> {
        let frontend = Arc::clone(frontend);
        std::thread::spawn(move || frontend.submit("t0", task))
    }

    /// Joins `handle` once it finishes, failing the test (instead of
    /// hanging it) when that takes longer than `wait_for` allows.
    fn join_within<T>(handle: std::thread::JoinHandle<T>, what: &str) -> T {
        wait_for(|| handle.is_finished(), what);
        handle.join().expect("joined thread panicked")
    }

    #[test]
    fn queued_submission_dispatches_when_the_lock_is_released() {
        // A submission queued behind a `with_service` hold must not wait
        // out max_delay (an hour here): releasing the lock wakes the
        // dispatcher, and the window ships at once.
        let (service, pool) = service_with_pool();
        let config = FrontendConfig { max_delay: Duration::from_secs(3600), ..Default::default() };
        let frontend = Frontend::start(service, config);
        let pending = frontend.with_service(|_| {
            let pending = submit_async(&frontend, DecisionTask::altruism(pool));
            wait_for(|| frontend.stats().requests == 1, "the submission to queue");
            // Give the dispatcher time to scan the window and park behind
            // the held lock; the assertions hold however it interleaves.
            std::thread::sleep(Duration::from_millis(5));
            pending
        });
        let released = Instant::now();
        let result = join_within(pending, "the queued submission");
        let waited = released.elapsed();
        assert!(result.is_ok(), "{result:?}");
        assert!(waited < Duration::from_secs(1), "dispatch waited {waited:?} after release");
        assert_eq!(frontend.stats().coalesced_tasks, 1, "it went through the queue");
    }

    #[test]
    fn shutdown_never_leaves_the_dispatcher_asleep() {
        // Held lock → queued submission → shutdown and release at once,
        // repeated: the drain must wake a dispatcher parked toward an
        // hour-long max_delay however the shutdown interleaves with its
        // scan.
        let (service, pool) = service_with_pool();
        let mut service = Some(service);
        for round in 0..200 {
            let config =
                FrontendConfig { max_delay: Duration::from_secs(3600), ..Default::default() };
            let frontend = Frontend::start(service.take().expect("returned last round"), config);
            let held = Arc::new(std::sync::Barrier::new(2));
            let release = Arc::new(AtomicBool::new(false));
            let holder = {
                let (frontend, held, release) =
                    (Arc::clone(&frontend), Arc::clone(&held), Arc::clone(&release));
                std::thread::spawn(move || {
                    frontend.with_service(|_| {
                        held.wait();
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    })
                })
            };
            // The shutdown thread waits at `go`, so it fires the moment
            // the submission is counted — while the dispatcher is still
            // waking up to scan the new window.
            let go = Arc::new(std::sync::Barrier::new(2));
            let shutdown = {
                let (frontend, go) = (Arc::clone(&frontend), Arc::clone(&go));
                std::thread::spawn(move || {
                    go.wait();
                    frontend.shutdown()
                })
            };
            held.wait();
            let pending = submit_async(&frontend, DecisionTask::altruism(pool));
            while frontend.stats().requests < 1 {
                std::hint::spin_loop();
            }
            go.wait();
            release.store(true, Ordering::Release);
            let drained = join_within(shutdown, &format!("round {round}: shutdown"));
            service = Some(drained.expect("first shutdown returns the service"));
            join_within(holder, "the holder");
            let solved = join_within(pending, "the drained submission");
            assert!(solved.is_ok(), "round {round}: {solved:?}");
        }
    }

    fn wait_for(mut probe: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("jury-frontend-ckpt-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn checkpoint_timer_snapshots_periodically_and_drain_releases_the_lease() {
        let tmp = TempDir::new("timer");
        let jurors =
            pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4), (0.25, 0.3)]).unwrap();
        let mut service = jury_service::JuryService::with_config(jury_service::ServiceConfig {
            snapshot_dir: Some(tmp.0.clone()),
            ..Default::default()
        });
        let pool = service.create_pool(jurors);
        let config = FrontendConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let frontend = Frontend::start(service, config);
        frontend.submit("t0", DecisionTask::altruism(pool)).unwrap();
        wait_for(|| frontend.stats().checkpoints >= 2, "two periodic checkpoints");
        assert_eq!(frontend.stats().checkpoint_failures, 0);
        assert!(
            tmp.0.join("writer.lease").is_file(),
            "a live checkpointing front-end holds the writer lease"
        );
        frontend.shutdown().expect("first shutdown returns the service");
        assert!(
            !tmp.0.join("writer.lease").exists(),
            "graceful drain releases the lease for a successor"
        );
        let manifests = std::fs::read_dir(&tmp.0)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().file_name().to_str().is_some_and(|n| n.starts_with("manifest-"))
            })
            .count();
        assert_eq!(manifests, 1, "GC keeps exactly the newest generation manifest");
    }

    #[test]
    fn failed_checkpoints_are_counted_and_backed_off() {
        let tmp = TempDir::new("contended");
        // A *live* foreign lease (fresh heartbeat, default 30s ttl):
        // every periodic checkpoint loses the acquire and must count a
        // failure rather than write anything.
        let now_ms =
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_millis()
                as u64;
        std::fs::write(
            tmp.0.join("writer.lease"),
            format!(
                r#"{{"format":"jury-lease","holder":"other-process","epoch":"{:016x}","heartbeat_ms":"{now_ms:016x}"}}"#,
                7
            ),
        )
        .unwrap();
        let jurors = pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1)]).unwrap();
        let mut service = jury_service::JuryService::with_config(jury_service::ServiceConfig {
            snapshot_dir: Some(tmp.0.clone()),
            ..Default::default()
        });
        let pool = service.create_pool(jurors);
        let config = FrontendConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let frontend = Frontend::start(service, config);
        frontend.submit("t0", DecisionTask::altruism(pool)).unwrap();
        wait_for(|| frontend.stats().checkpoint_failures >= 1, "a counted checkpoint failure");
        assert_eq!(frontend.stats().checkpoints, 0, "nothing committed under a foreign lease");
        assert!(!tmp.0.join("manifest-1.json").exists(), "no manifest under a foreign lease");
        frontend.shutdown();
    }

    #[test]
    fn fenced_plain_writer_counts_a_failure_and_never_demotes() {
        // Only a front-end with `follower_watch` has generations to
        // follow; a plain writer fenced by a usurper's higher epoch
        // counts a failed checkpoint, backs off, and keeps writing.
        let tmp = TempDir::new("fenced-writer");
        let jurors = pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1)]).unwrap();
        let mut service = jury_service::JuryService::with_config(jury_service::ServiceConfig {
            snapshot_dir: Some(tmp.0.clone()),
            ..Default::default()
        });
        let pool = service.create_pool(jurors.clone());
        let config = FrontendConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let frontend = Frontend::start(service, config);
        frontend.submit("t0", DecisionTask::altruism(pool)).unwrap();
        wait_for(|| frontend.stats().checkpoints >= 1, "a first checkpoint taking the lease");
        // The usurper's heartbeat claims a minute in the future, so it
        // reads live throughout. Forged under the service lock, so no
        // checkpoint is mid-flight to rename its own lease over it; the
        // next one therefore finds a foreign epoch above its own.
        let now_ms =
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_millis()
                as u64;
        let failures_before = frontend.with_service(|_| {
            std::fs::write(
                tmp.0.join("writer.lease"),
                format!(
                    r#"{{"format":"jury-lease","holder":"usurper","epoch":"{:016x}","heartbeat_ms":"{:016x}"}}"#,
                    99,
                    now_ms + 60_000
                ),
            )
            .unwrap();
            frontend.stats().checkpoint_failures
        });
        assert_eq!(failures_before, 0);
        wait_for(|| frontend.stats().checkpoint_failures >= 2, "counted checkpoint failures");
        let stats = frontend.stats();
        assert_eq!(frontend.role(), Role::Writer, "a plain writer never demotes");
        assert_eq!(stats.demotions, 0);
        assert_eq!(stats.promotions, 0);
        // Mutations are still accepted and served.
        let extra = frontend.with_service(|service| service.create_pool(jurors));
        assert!(frontend.submit("t0", DecisionTask::altruism(extra)).is_ok());
        frontend.shutdown().expect("first shutdown returns the service");
    }

    #[test]
    fn shutdown_refuses_new_work_and_returns_the_service() {
        let (service, pool) = service_with_pool();
        let frontend = Frontend::start(service, FrontendConfig::default());
        frontend.submit("t0", DecisionTask::altruism(pool)).unwrap();
        let mut service = frontend.shutdown().expect("first shutdown returns the service");
        assert!(frontend.shutdown().is_none(), "second shutdown is a no-op");
        assert!(matches!(
            frontend.submit("t0", DecisionTask::altruism(pool)),
            Err(SubmitError::ShuttingDown)
        ));
        assert_eq!(service.stats().tasks_solved, 1);
        assert!(service.solve(&DecisionTask::altruism(pool)).is_ok());
    }
}
