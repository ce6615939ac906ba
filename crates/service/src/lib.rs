//! `jury-service` — a batched, cache-aware serving layer over the JSP
//! solvers.
//!
//! The paper treats jury selection as a one-shot optimisation; a
//! micro-blog deployment is the opposite: a *repeated online service*
//! over slowly-changing juror pools, answering streams of decision tasks
//! under mixed crowd models and per-task budgets. [`JuryService`] is that
//! seam:
//!
//! * **pool registry** — pools are registered once and addressed by
//!   [`PoolId`]; jurors can be inserted, updated and removed in place.
//! * **per-pool cache** — the ε-sorted order, PayALG's greedy visit
//!   order and the solved AltrM selection are computed once per pool
//!   *generation*. A warm AltrM task is a cache lookup — shared, not
//!   copied, under [`JuryService::solve_batch_shared`]; a warm PayM task
//!   is a **budget-staircase** lookup (below), falling back to one greedy
//!   scan on the cached order.
//! * **rescan-free mutation repair** — every juror mutation — *update*,
//!   *removal* and *insert* — repairs the sorted orders in place instead
//!   of invalidating them: both get one rank-insert (plus one remove for
//!   updates/removals; `O(n)` memmoves, provably the same permutation a
//!   re-sort would produce, because both visit orders are total with the
//!   pool position as final tie-break).
//! * **rescan-free warm AltrM** — the one artefact a mutation must drop
//!   is the solved AltrM answer (the optimum may genuinely move). The
//!   re-solve is **bound-pruned** ([`AltrAlg::solve_pruned`]): prefix
//!   sums of ε and ε(1−ε) ([`jury_numeric::bounds::PrefixMoments`])
//!   evaluate Paley–Zygmund and Berry–Esseen lower and Cantelli/Chernoff
//!   upper JER bounds in `O(1)` per odd size, every size whose lower
//!   bound clears the best upper bound is eliminated, and exact JER runs
//!   only at the survivors. The bound sweep stops at the first size `S`
//!   past which a Berry–Esseen certificate rules out every larger size,
//!   and gathers ε only that far. The pmf scan stops at the first exact
//!   `0.0` JER, or once JER starts rising where every later rate is ≥ ½
//!   (it provably cannot fall again there). That is `O(S + M²)` for the
//!   last pushed size `M` — about the expert count on an
//!   expert-plus-mob pool, with `S` about 7% of the pool on jurybench's
//!   2% shape — instead of the `O(N²)` full prefix rescan.
//!   The same scan builds a cold pool's first AltrM answer.
//! * **PayM budget staircase** — Algorithm 4's selection is piecewise
//!   constant in the budget, so each pool's warm greedy order carries a
//!   [`jury_core::paym::Staircase`]: recorded step intervals map any
//!   covered budget to its selection by binary search, and a miss costs
//!   exactly one instrumented greedy scan that records a new step.
//! * **one solve path** — [`JuryService::solve`] and the two
//!   `solve_batch*` calls all run the same two phases. First, each task
//!   whose pool is cold for it runs the one warm step: restore, attach
//!   or build the pool's orders, plus the AltrM answer for an AltrM
//!   task. Then one untimed loop answers every task through one
//!   function — on the caller thread, or for larger batches across
//!   scoped worker threads, each with its own persistent
//!   [`SolverScratch`], so a warm task performs no solver-path heap
//!   allocation beyond its returned [`Selection`]. A staircase miss
//!   scans with no lock held and records its step wherever it runs,
//!   workers included. Callers that want a window's cost time the call
//!   themselves.
//!
//! # Bit-identity contract
//!
//! Every answer the service returns is **bit-identical** to a direct
//! solve: selections — members, JER bits, cost bits — equal
//! [`AltrAlg::solve`] / [`PayAlg::solve`] on the pool's current jurors
//! on cold-cache, warm-cache, batched, staircase-replayed, bound-pruned
//! and repaired paths alike, because all of them reduce to the same
//! scratch-threaded solver internals (`tests/equivalence.rs` and
//! `tests/flat_differential.rs` assert this). Two caching layers sit
//! next to the solvers, and neither changes an answer:
//!
//! * **Staircase replays are bit-identical.** A staircase step is
//!   recorded by the ordinary greedy scan, instrumented only to remember
//!   the half-open budget window on which every affordability comparison
//!   it made keeps its outcome. Inside that window the admission trace —
//!   float op for float op, [`SolverStats`](jury_core::SolverStats)
//!   included — is the one the scan performed, so replaying the stored
//!   [`Selection`] *is* replaying [`PayAlg::solve_presorted`].
//! * **Bound-pruned AltrM selections are bit-identical; the stats are
//!   not.** The pruned scan evaluates survivors with the identical
//!   sequential pushes the full scan performs, building every pmf from
//!   scratch, and pruning is sound (an eliminated size's exact JER
//!   strictly exceeds the incumbent's, smallest-`n` tie-break preserved
//!   — see [`AltrAlg::solve_pruned`]), so members/JER/cost match the
//!   full scan bit for bit. The [`SolverStats`](jury_core::SolverStats)
//!   *document the pruning instead of hiding it*: `jer_evaluations`
//!   counts the sizes evaluated before the scan stopped and
//!   `pruned_by_bound` every other odd size (their sum equals the full
//!   scan's evaluation count). This is the one place service answers
//!   differ from the direct solver's, by design.
//!
//! # The warm-artifact store and its fingerprint contract
//!
//! All pools of one service share a **content-addressed warm-artifact
//! store**: registering N pools over the same juror content builds the
//! warm artifacts **once** and hands every further pool `Arc` clones of
//! one interned set. The contract:
//!
//! * **What is keyed.** Every artifact set is interned under its
//!   content fingerprint: a commutative multiset hash
//!   ([`jury_core::fingerprint::PoolFingerprint`]) over each juror's
//!   solver-relevant content — the pair `(ε.to_bits(), cost.to_bits())`;
//!   juror *ids* are payload and never enter the key.
//!   Because raw IEEE-754 bits are hashed, the fingerprint is exactly as
//!   strict as the solvers' `total_cmp` orders (`0.5` vs `0.5 + 1e-12`
//!   is different content). Maintained incrementally: one
//!   constant-time hash update per mutation, never a rescan.
//! * **What is shared.** A pool whose juror sequence equals an entry's
//!   founding sequence position-for-position shares *everything*: both
//!   orders, the Arc'd AltrM answer and the (lazily
//!   growing, lock-guarded) PayM budget staircase. Nothing else shares:
//!   a pool holding the same multiset in a different arrangement has an
//!   equal fingerprint but builds a set of its own, and the entry
//!   already interned under that key keeps it.
//! * **One home for warm state.** A warm pool holds exactly one
//!   artifact set, *listed* in the store under its key or *unlisted*
//!   (an arrangement an occupied key refused). Only listed sets are
//!   snapshotted.
//! * **CoW detach and re-join.** Mutations never write through a set
//!   another pool holds: the pool takes its set back first (a sole
//!   holder zero-copy; a pool with siblings clones exactly what the
//!   repair will touch), the in-place repairs run on it, and the
//!   fingerprint is updated incrementally. The pool then re-joins an
//!   existing entry if one matches the post-mutation content (verified
//!   by content comparison, never by hash alone), or publishes its
//!   repaired set under the new key whenever that key is vacant — so a
//!   written pool stays a store entry, and in every later snapshot,
//!   and identically-mutated siblings re-join it instead of repairing
//!   alone. Entries no pool holds are evicted.
//!   [`ServiceStats::artifact_share_hits`],
//!   [`ServiceStats::artifact_detaches`] and
//!   [`ServiceStats::artifact_rejoins`] make all of this observable.
//! * **Sharing never changes an answer.** Shared-artifact AltrM/PayM
//!   selections are bit-identical (members/JER/cost/stats) to those of
//!   a service holding one pool, which never shares — the differential
//!   harness proves it across interleaved detach/re-join mutations.
//!
//! Every service runs one solver configuration: AltrM answers come from
//! [`AltrAlg::solve_pruned`] and PayM answers from [`PayAlg`] under
//! [`PayConfig::default`]. The paper's other variants (Algorithm 3's
//! per-size recompute, the Lemma-2 bound) are experiments that run
//! through [`AltrAlg`] directly. The `multi_tenant_throughput` bench
//! measures what sharing saves against one service per pool.
//!
//! Mutation cost is where the repair paths pay: a juror update, removal
//! or insert costs a few `O(n)` memmoves, the next PayM task re-records
//! its staircase step with a single greedy scan, and the next AltrM task
//! re-solves with the bound-pruned sweep — no re-sort and no `O(N²)`
//! rescan on either lane (on pools whose sorted prefix mean crosses ½;
//! below that the pruned scan degrades gracefully to the full one plus
//! a bound sweep over every size). The [`ServiceStats`] counters
//! (`cache_invalidations`, `order_repairs`, `insert_repairs`,
//! `staircase_hits`, `bound_pruned`, `full_repairs`) make that
//! behaviour observable; the `staircase_throughput`, `altrm_throughput`
//! and `insert_throughput` benches record it at pool sizes up to 10⁶.
//!
//! Every pool is served by one flat cache: a single ε-sorted order and
//! greedy order over the whole pool, which is exactly what AltrALG and
//! PayALG scan (by Lemma 3 the best size-`k` jury is the `k` lowest-ε
//! jurors). Its repairs memmove whole orders. Partitioning a pool into
//! K sorted shards and K-way merging their runs was tried and removed:
//! no served workload or benchmark enabled it, its 10⁵-juror rows were
//! within 1.03× of the flat cache, and its 10⁶-juror rows were within
//! run-to-run noise.
//!
//! # Persistence contract
//!
//! [`JuryService::snapshot`] persists the warm-artifact store to a
//! directory; a service whose [`ServiceConfig::snapshot_dir`] points at
//! one restores matching pools on registration instead of rebuilding.
//! The contract has three clauses:
//!
//! * **Writes are crash-safe.** Each store entry becomes one
//!   checksummed binary file, written to a temp name, fsync'd, and
//!   atomically renamed; the manifest naming the entries is written
//!   last, by the same dance, and is the commit point. A crash at any
//!   instant leaves either the previous snapshot or the new one —
//!   never a torn mix — and a crash mid-entry leaves the manifest
//!   pointing only at fully-written files.
//! * **Restores are verified, never trusted.** A snapshot is input,
//!   not state: before anything is attached the whole file is
//!   re-checksummed, every section is re-checksummed and decoded, the
//!   decoded juror content is compared against the pool's actual
//!   content — the same `match_pool` comparison the in-memory attach
//!   path uses — and both orders must be strictly ascending under their
//!   solvers' total orders over those jurors, which admits only the
//!   permutations a fresh sort produces. A
//!   restored artifact set is therefore indistinguishable from one the
//!   store built itself, and restored answers are bit-identical to
//!   cold-built ones.
//! * **Failure is always a cold build.** Any mismatch — truncation, a
//!   flipped bit anywhere, a stale manifest, a file of another format
//!   version, a snapshot of different juror content — rejects that
//!   entry and falls back to the ordinary cold build. Restore failures
//!   are never an error and can never change an answer; they cost
//!   exactly one [`ServiceStats::snapshot_rejections`] increment.
//!   Successful attaches count [`ServiceStats::snapshot_restores`].
//!
//! An entry persists what a cold build sorts and scans: the content
//! sequence, both orders and the AltrM answer. The PayM budget
//! staircase stays in memory. A restored pool starts with an empty
//! staircase, like a freshly built one, and recording a step never
//! marks an entry dirty, so PayM traffic alone never makes a checkpoint
//! rewrite anything.
//!
//! `tests/snapshot_faults.rs` drives the full fault matrix (truncation
//! at every section boundary, one flipped bit per field class, swapped
//! manifest entries, post-snapshot mutation, manifest skew) and proves
//! cold-fallback bit-identity under every fault; the
//! `restart_throughput` bench measures restart-to-first-answer, cold vs
//! restored, at pool sizes up to 10⁶.
//!
//! ## Multi-process contract
//!
//! Several processes may share one snapshot directory; four more
//! clauses govern that:
//!
//! * **Checkpoints are incremental generations.** Each successful
//!   [`JuryService::snapshot`] writes only the entries that changed
//!   since the directory's last committed generation, then publishes
//!   `manifest-<gen>.json` (monotonically numbered) referencing fresh
//!   files and files retained from earlier generations alike. Old
//!   generations are garbage-collected only after the new manifest is
//!   durable, so a crash at any byte boundary — including between an
//!   entry write and the manifest commit, or mid-GC — leaves the
//!   previous generation fully restorable. A checkpoint with nothing
//!   dirty touches no file at all.
//! * **One writer, advisory lease.** Writers coordinate through a
//!   `writer.lease` file acquired by atomic create, carrying holder
//!   id, **epoch**, and a heartbeat refreshed on every checkpoint. A
//!   second writer gets [`SnapshotError::LeaseHeld`] (it can still
//!   restore read-only) until the heartbeat goes stale past
//!   [`LeaseConfig::ttl`], at which point it *breaks* the lease with
//!   an epoch bump.
//! * **Fencing: a zombie can never commit.** Every commit re-reads the
//!   lease immediately before the manifest rename; a writer whose
//!   lease was broken (foreign holder, higher epoch) is refused with
//!   [`SnapshotError::Fenced`] and must re-acquire from the current
//!   disk state. Epochs never run backwards past a committed
//!   generation (broken leases bump above the manifest's epoch), and
//!   entry file names embed generation and epoch so racing writers
//!   cannot collide on a name.
//! * **Readers pick the highest durable generation.** Restores scan
//!   for the highest parseable manifest (corrupt generations fall
//!   through to older ones), verify as above, and surface
//!   `snapshot_generation`/`snapshot_age_ms` gauges in
//!   [`ServiceStats`]. A generation of any age restores: every entry is
//!   verified against the live pool's content, so an old generation can
//!   cost warmth, never correctness.
//!
//! `tests/shared_snapshot_faults.rs` drives the multi-process matrix
//! (crash at every commit-sequence boundary, lease-holder death and
//! break, fenced zombie commits, mid-GC readers, restore racing a
//! writer thread) and proves bit-identical answers with exact counter
//! deltas under every interleaving.
//!
//! ## Failover contract
//!
//! A deployment runs one *writer* and any number of *warm followers*
//! over a shared snapshot directory. `jury-frontend`'s supervisor
//! drives the role transitions; the mechanisms live here:
//!
//! * **Followers serve, bounded-lag.** A follower answers every solve
//!   from its adopted generation: selections are bit-identical to a
//!   writer serving the same juror content (restore verification
//!   guarantees it) — merely warm from an older generation.
//!   [`JuryService::adopt_snapshot`] hot-swaps a newer committed
//!   generation into a live service without restart, re-verified
//!   through the very gates a cold restore uses (counted in
//!   [`ServiceStats::generations_adopted`] /
//!   [`ServiceStats::adoptions_rejected`]), and pre-warms only *cold*
//!   pools — warm state, and therefore every in-flight answer, is
//!   never perturbed mid-mutation. The `follower_generation` /
//!   `follower_lag_ms` gauges bound the staleness: lag is the age of
//!   the adopted generation's commit stamp, and [`SnapshotWatcher`]'s
//!   jittered poll bounds how long a newer commit can go unnoticed —
//!   together, a follower trails the writer by at most one poll
//!   interval (+25% jitter) plus one adoption.
//! * **Promotion.** A follower promotes by simply checkpointing:
//!   [`JuryService::snapshot`] acquires the lease, breaking a stale
//!   one (heartbeat older than [`LeaseConfig::ttl`]) by epoch bump. A
//!   live writer's heartbeat refuses promotion with
//!   [`SnapshotError::LeaseHeld`], whose holder id doubles as the
//!   leader hint. Wall-clock steps never fake staleness: heartbeat
//!   ages are clamped at zero, so a future-dated heartbeat (a clock
//!   that ran backwards) reads as fresh and promotion waits out the
//!   full TTL instead of usurping a live writer.
//! * **Demotion.** Exactly one writer can commit: the fence re-reads
//!   the lease immediately before every manifest rename, and a writer
//!   that lost it gets [`SnapshotError::Fenced`] with nothing
//!   committed. The correct response is to demote back to following —
//!   adopt the winner's generations, and retry promotion only when
//!   the winner in turn goes stale.
//! * **Writes route to the writer.** Followers refuse mutations (the
//!   frontend answers 503 plus a leader hint) but never refuse
//!   solves: both roles keep serving reads through every transition.
//!
//! `tests/failover_faults.rs` drives the chaos matrix — a writer
//! killed at every commit fs-op boundary via the injectable
//! [`FaultPlane`], promotion races between two followers, stalled
//! heartbeats, adoption racing GC — and proves exactly one surviving
//! writer, no half-adopted generation, and follower answers
//! bit-identical to a never-failed control.
//!
//! ```
//! use jury_core::juror::pool_from_rates_and_costs;
//! use jury_service::{DecisionTask, JuryService};
//!
//! let jurors = pool_from_rates_and_costs(&[
//!     (0.1, 0.2), (0.2, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.05),
//! ]).unwrap();
//! let mut service = JuryService::new();
//! let pool = service.create_pool(jurors);
//!
//! let tasks = vec![
//!     DecisionTask::altruism(pool),
//!     DecisionTask::pay_as_you_go(pool, 0.5),
//!     DecisionTask::pay_as_you_go(pool, 1.0),
//! ];
//! let results = service.solve_batch(&tasks);
//! assert!(results.iter().all(Result::is_ok));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod repair;
mod snapshot;
mod store;

pub use snapshot::{
    snapshot_checksum, FaultAction, FaultPlane, FaultScheduler, LeaseConfig, NoFaults,
    SnapshotError, SnapshotReport, SnapshotWatcher,
};

use jury_core::altr::AltrAlg;
use jury_core::error::JuryError;
use jury_core::fingerprint::{juror_content, FingerprintKey, PoolFingerprint};
use jury_core::juror::Juror;
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig, Staircase};
use jury_core::problem::Selection;
use jury_core::solver::SolverScratch;
use repair::{repair_flat_insert, repair_flat_remove, repair_flat_update};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::{ArtifactSet, ArtifactStore, StoreLink};

/// Minimum tasks a batch assigns per worker thread before it spawns
/// another one. Fanning a large batch over every available core makes
/// each chunk so small that thread spawn/join overhead and allocator
/// contention outweigh the parallelism — the `service_throughput`
/// pool-10⁴/batch-1024 regression. Capping workers at
/// `tasks / MIN_TASKS_PER_WORKER` keeps per-worker chunks coarse, and a
/// batch of at most this many tasks is answered on the caller thread.
const MIN_TASKS_PER_WORKER: usize = 32;

/// Opaque handle to a registered juror pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolId(u64);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool#{}", self.0)
    }
}

impl Serialize for PoolId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for PoolId {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        u64::from_value(value).map(PoolId)
    }
}

/// One decision-making task: which pool answers it, under which crowd
/// model (AltrM, or PayM with a per-task budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTask {
    /// The candidate pool to select from.
    pub pool: PoolId,
    /// Crowd model governing feasibility.
    pub model: CrowdModel,
}

impl DecisionTask {
    /// An AltrM task on `pool`.
    pub fn altruism(pool: PoolId) -> Self {
        Self { pool, model: CrowdModel::Altruism }
    }

    /// A PayM task on `pool` with the given budget (validated when
    /// solved, exactly like [`PayAlg::solve`]).
    pub fn pay_as_you_go(pool: PoolId, budget: f64) -> Self {
        Self { pool, model: CrowdModel::PayAsYouGo { budget } }
    }
}

impl Serialize for DecisionTask {
    fn to_value(&self) -> Value {
        Value::object([("pool", self.pool.to_value()), ("task", self.model.to_value())])
    }
}

impl Deserialize for DecisionTask {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let pool = value.get("pool").ok_or_else(|| SerdeError::missing_field("pool"))?;
        let model = value.get("task").ok_or_else(|| SerdeError::missing_field("task"))?;
        Ok(Self { pool: PoolId::from_value(pool)?, model: CrowdModel::from_value(model)? })
    }
}

/// Service-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The task referenced a pool id that is not registered.
    UnknownPool(PoolId),
    /// The referenced index is outside the pool.
    JurorOutOfRange {
        /// The pool addressed.
        pool: PoolId,
        /// The offending position.
        index: usize,
        /// Current pool size.
        len: usize,
    },
    /// The underlying solver rejected the task.
    Solver(JuryError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownPool(id) => write!(f, "unknown {id}"),
            Self::JurorOutOfRange { pool, index, len } => {
                write!(f, "juror index {index} out of range for {pool} of size {len}")
            }
            Self::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<JuryError> for ServiceError {
    fn from(e: JuryError) -> Self {
        Self::Solver(e)
    }
}

impl Serialize for ServiceError {
    fn to_value(&self) -> Value {
        match self {
            Self::UnknownPool(id) => {
                Value::object([("kind", "unknown-pool".to_value()), ("pool", id.to_value())])
            }
            Self::JurorOutOfRange { pool, index, len } => Value::object([
                ("kind", "juror-out-of-range".to_value()),
                ("pool", pool.to_value()),
                ("index", index.to_value()),
                ("len", len.to_value()),
            ]),
            Self::Solver(e) => {
                Value::object([("kind", "solver".to_value()), ("error", e.to_value())])
            }
        }
    }
}

impl Deserialize for ServiceError {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| value.get(name).ok_or_else(|| SerdeError::missing_field(name));
        match value.get("kind").and_then(Value::as_str) {
            Some("unknown-pool") => Ok(Self::UnknownPool(PoolId::from_value(field("pool")?)?)),
            Some("juror-out-of-range") => Ok(Self::JurorOutOfRange {
                pool: PoolId::from_value(field("pool")?)?,
                index: usize::from_value(field("index")?)?,
                len: usize::from_value(field("len")?)?,
            }),
            Some("solver") => Ok(Self::Solver(JuryError::from_value(field("error")?)?)),
            _ => Err(SerdeError::expected("a service error object", value)),
        }
    }
}

/// Tuning knobs for a [`JuryService`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceConfig {
    /// Worker threads for [`JuryService::solve_batch`]. 0 (the default)
    /// means one per available core, resolved once when the service is
    /// built ([`JuryService::config`] then reports the resolved count):
    /// a CPU-quota change at run time is not seen.
    pub threads: usize,
    /// Directory of a warm-state snapshot to restore from (see the
    /// crate docs' *persistence contract*). With `Some(dir)`, a pool
    /// registering content the snapshot holds attaches to the verified
    /// restored artifacts at warm-up instead of cold-building; every
    /// loaded artifact is re-verified against the live pool first, and
    /// any mismatch falls back to the cold build (counted by
    /// [`ServiceStats::snapshot_rejections`]) — never an error, never
    /// a wrong answer. `None` (the default) restores nothing. The
    /// directory is only *read*; writing snapshots is explicit via
    /// [`JuryService::snapshot`]. Any verified generation restores,
    /// whatever its age.
    pub snapshot_dir: Option<PathBuf>,
    /// Writer-lease tuning for shared snapshot directories (see the
    /// crate docs' *multi-process contract*).
    pub lease: LeaseConfig,
}

jury_core::stats_record! {
    /// Monotone counters describing the service's work so far.
    ///
    /// The repair counters make the cache's behaviour observable: a healthy
    /// warm PayM workload shows `staircase_hits` tracking `tasks_solved`,
    /// juror updates show `order_repairs` instead of `full_repairs`.
    ///
    /// ```
    /// use jury_core::juror::pool_from_rates_and_costs;
    /// use jury_service::{DecisionTask, JuryService};
    ///
    /// let jurors = pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4)]).unwrap();
    /// let mut service = JuryService::new();
    /// let pool = service.create_pool(jurors);
    /// for _ in 0..3 {
    ///     service.solve(&DecisionTask::pay_as_you_go(pool, 0.5)).unwrap();
    /// }
    /// let stats = service.stats();
    /// assert_eq!(stats.tasks_solved, 3);
    /// assert_eq!(stats.staircase_hits, 2, "only the first budget runs a greedy scan");
    /// assert_eq!(stats.full_repairs, 0, "a PayM warm builds only the orders");
    /// ```
    pub struct ServiceStats {
        /// Tasks solved (single or batched).
        pub tasks_solved: usize,
        /// Tasks whose needed state was already warm when the request
        /// arrived — the AltrM answer for AltrM tasks, the sorted orders for
        /// PayM tasks (cold solves and unknown pools are not hits).
        pub cache_hits: usize,
        /// Cache (re)builds: a pool's from-scratch artefact build, or an
        /// AltrM re-solve on repaired orders.
        pub cache_builds: usize,
        /// `solve_batch` invocations.
        pub batches: usize,
        /// Mutations that invalidated (dropped or repaired) warm cached
        /// state. Mutations on cold pools count nothing.
        pub cache_invalidations: usize,
        /// Juror mutations whose sorted orders were repaired in place
        /// (`O(n)` remove + insert, plus a renumbering pass for removals)
        /// instead of being recomputed.
        pub order_repairs: usize,
        /// Juror inserts absorbed by in-place repair — one rank-insert per
        /// sorted run — on a warm pool.
        pub insert_repairs: usize,
        /// Warm PayM tasks answered from the budget staircase — a binary
        /// search plus a selection clone instead of a greedy rescan.
        pub staircase_hits: usize,
        /// Retired, always 0: the service keeps no pmf ladder to repair.
        /// The field stays on the wire until the repository benchmark
        /// stops reading it.
        pub pmf_repairs: usize,
        /// Retired, always 0, like [`ServiceStats::pmf_repairs`].
        pub pmf_rebuilds: usize,
        /// Full repairs: cache builds that recomputed everything — a pool's
        /// from-scratch build (including each pool's first build).
        pub full_repairs: usize,
        /// Candidate jury sizes the AltrM pruned scan skipped
        /// (`AltrAlg::solve_pruned`: eliminated by its bound sweep, inside
        /// its monotone segment, or past an early stop) across all AltrM
        /// (re)solves — exact JER was never computed for these.
        pub bound_pruned: usize,
        /// Pools that attached to an already-interned warm-artifact set
        /// instead of building their own (registration-time and
        /// warm-time attaches; re-joins after mutations count separately).
        pub artifact_share_hits: usize,
        /// Mutations that took a pool's set out of its store listing for
        /// repair (copy-on-write when siblings hold it; a sole holder takes
        /// it back zero-copy) before it settled under the post-mutation key.
        pub artifact_detaches: usize,
        /// Post-mutation re-attaches: the incrementally-updated fingerprint
        /// matched an existing entry (content-verified) and the pool dropped
        /// its repaired set for the shared one.
        pub artifact_rejoins: usize,
        /// Warm-up attaches served from a verified snapshot entry
        /// ([`ServiceConfig::snapshot_dir`]): the pool skipped its cold
        /// build because restored artifacts passed every verification gate.
        pub snapshot_restores: usize,
        /// Snapshot candidates *refused* at restore time — truncated or
        /// bit-flipped files, section/manifest checksum mismatches, files
        /// of another format version, and key or content mismatches
        /// against the registering pool. A directory whose every manifest
        /// is unreadable counts one per restore attempt. Each rejection
        /// falls back to the ordinary cold build.
        pub snapshot_rejections: usize,
        /// Gauge (not a counter): the highest snapshot generation this
        /// service has observed — committed by its own writer or read from
        /// [`ServiceConfig::snapshot_dir`]. 0 until a readable generation
        /// exists.
        pub snapshot_generation: usize,
        /// Gauge (not a counter): milliseconds since that generation's
        /// commit stamp at the moment [`JuryService::stats`] was called; 0
        /// when no stamped generation has been observed.
        pub snapshot_age_ms: usize,
        /// Gauge (not a counter): the generation of the snapshot catalog
        /// this service currently *reads from* — loaded at construction
        /// from [`ServiceConfig::snapshot_dir`] or hot-swapped in by
        /// [`JuryService::adopt_snapshot`] since. 0 with no catalog
        /// attached. Unlike [`ServiceStats::snapshot_generation`] this
        /// never tracks the service's own writer — it is the follower's
        /// view of the directory.
        pub follower_generation: usize,
        /// Gauge (not a counter): milliseconds since the adopted
        /// generation's commit stamp — how stale the follower's view of
        /// the directory is, and (together with the watch poll interval)
        /// the bound on how far a follower trails its writer. 0 with no
        /// stamped adopted generation.
        pub follower_lag_ms: usize,
        /// Newer committed generations hot-swapped into this live service
        /// by [`JuryService::adopt_snapshot`] — each one re-verified
        /// through the ordinary restore gates, no restart involved.
        pub generations_adopted: usize,
        /// Snapshot entries *refused* during adoption pre-warm — the
        /// adoption-path slice of [`ServiceStats::snapshot_rejections`]
        /// (every adoption rejection counts in both). The generation still
        /// adopts; the refused pools cold-build as usual.
        pub adoptions_rejected: usize,
    }
}

/// The solved AltrM answer of one pool snapshot: shared so batch
/// replays can hand out the same allocation
/// ([`JuryService::solve_batch_shared`]) instead of copying a
/// potentially huge member list per task.
type AltrAnswer = Result<Arc<Selection>, JuryError>;

#[derive(Debug)]
struct PoolEntry {
    jurors: Vec<Juror>,
    /// The pool's warm state: `None` while cold, otherwise its artifact
    /// set — listed in the store or unlisted (see [`StoreLink`]).
    cache: Option<StoreLink>,
    /// Running multiset hash of the jurors' solver-relevant content —
    /// the store key, updated in `O(1)` per mutation.
    fp: PoolFingerprint,
}

/// What one [`JuryService::adopt_snapshot`] call did — returned only
/// when a strictly newer committed generation was adopted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdoptReport {
    /// The generation now serving reads.
    pub generation: u64,
    /// Cold pools pre-warmed from the adopted generation (verified
    /// restores published into the store; also counted in
    /// [`ServiceStats::snapshot_restores`]).
    pub restored: usize,
    /// Candidate entries refused by verification during pre-warm (also
    /// counted in [`ServiceStats::snapshot_rejections`] and
    /// [`ServiceStats::adoptions_rejected`]).
    pub rejected: usize,
}

/// The serving layer: pool registry + per-pool caches + batched parallel
/// solving. See the crate docs for the architecture.
#[derive(Debug)]
pub struct JuryService {
    config: ServiceConfig,
    pools: HashMap<u64, PoolEntry>,
    next_pool: u64,
    stats: ServiceStats,
    /// Persistent per-worker scratches, reused across batches.
    scratches: Vec<SolverScratch>,
    /// The content-addressed warm-artifact store (see the crate docs).
    store: ArtifactStore,
    /// The parsed snapshot catalog when [`ServiceConfig::snapshot_dir`]
    /// is set — consulted (read-only) by warm-ups before cold-building.
    snapshots: Option<snapshot::Catalog>,
    /// Writer-side snapshot state: holder identity, per-directory
    /// generation/lease view (see the crate docs' *multi-process
    /// contract*).
    snap: snapshot::WriterState,
}

impl Default for JuryService {
    fn default() -> Self {
        Self::new()
    }
}

impl JuryService {
    /// A service with default configuration.
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with explicit configuration. `threads: 0` resolves to
    /// the available core count here, once. When
    /// [`ServiceConfig::snapshot_dir`] is set, the directory's manifest
    /// is read (once, here); entry files are opened lazily as matching
    /// content registers. A missing manifest is simply an empty catalog
    /// — a fresh directory restores nothing and rejects nothing.
    pub fn with_config(mut config: ServiceConfig) -> Self {
        if config.threads == 0 {
            config.threads = std::thread::available_parallelism().map_or(1, usize::from);
        }
        let snapshots = config.snapshot_dir.as_deref().map(snapshot::Catalog::load);
        Self {
            config,
            pools: HashMap::new(),
            next_pool: 0,
            stats: ServiceStats::default(),
            scratches: Vec::new(),
            store: ArtifactStore::default(),
            snapshots,
            snap: snapshot::WriterState::default(),
        }
    }

    /// The active configuration, with `threads` resolved.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Work counters, plus the snapshot gauges
    /// (`snapshot_generation`/`snapshot_age_ms`) computed from the
    /// highest generation this service has observed — read from
    /// [`ServiceConfig::snapshot_dir`] at construction or committed by
    /// its own writer since.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats;
        let mut gen = 0u64;
        let mut written_at = None;
        if let Some(catalog) = &self.snapshots {
            gen = catalog.generation();
            written_at = catalog.written_at_ms();
            stats.follower_generation = gen as usize;
            if let Some(written) = written_at {
                stats.follower_lag_ms = snapshot::lease::now_ms().saturating_sub(written) as usize;
            }
        }
        if let Some((g, w)) = self.snap.observed() {
            if g >= gen {
                gen = g;
                written_at = w;
            }
        }
        stats.snapshot_generation = gen as usize;
        if let Some(written) = written_at {
            stats.snapshot_age_ms = snapshot::lease::now_ms().saturating_sub(written) as usize;
        }
        stats
    }

    /// Number of registered pools.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Writes an incremental, lease-coordinated checkpoint of the
    /// warm-artifact store to `dir` (see the crate docs' *persistence
    /// contract* and *multi-process contract*): acquires or refreshes
    /// the single-writer lease (breaking a stale one by epoch bump),
    /// writes only the entries that changed since the directory's last
    /// generation, re-verifies the lease, commits
    /// `manifest-<gen>.json`, then garbage-collects superseded files.
    /// A crash at any byte boundary leaves the previous generation
    /// fully readable; a checkpoint with nothing dirty touches no
    /// file. Read back by a service whose
    /// [`ServiceConfig::snapshot_dir`] points here. Only store entries
    /// are persisted — every warm pool's set, written or not, except
    /// unlisted ones (an arrangement an occupied key refused). Pool
    /// registrations themselves are rebuilt by the restarted process's
    /// own `create_pool` calls.
    ///
    /// Errors are never silent partial successes:
    /// [`SnapshotError::LeaseHeld`] (another live writer — restore
    /// read-only instead), [`SnapshotError::Fenced`] (this writer's
    /// lease was broken; no commit happened), or
    /// [`SnapshotError::Partial`] (entry writes failed; the manifest
    /// was *not* committed, readers keep the previous generation).
    pub fn snapshot(&mut self, dir: impl AsRef<Path>) -> Result<SnapshotReport, SnapshotError> {
        snapshot::write_incremental(
            &mut self.snap,
            dir.as_ref(),
            self.config.lease.ttl,
            self.store.iter_entries(),
        )
    }

    /// Releases the writer lease on `dir` if this service holds it —
    /// the graceful-drain complement to [`JuryService::snapshot`]. A
    /// lease another writer broke or now holds is left untouched.
    /// Never required for safety (an unreleased lease merely makes the
    /// next writer wait out [`LeaseConfig::ttl`]).
    pub fn release_snapshot_lease(&mut self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        snapshot::release_lease(&mut self.snap, dir.as_ref())
    }

    /// Hot-swaps a newer committed snapshot generation into this live
    /// service — the warm-follower adoption step (see the crate docs'
    /// *failover contract*). Re-reads [`ServiceConfig::snapshot_dir`];
    /// when the highest durable generation there is strictly newer
    /// than the catalog this service reads from, the fresh catalog
    /// replaces it and every still-**cold** pool is pre-warmed through
    /// the ordinary verified-restore path (the same content gates a
    /// cold start uses — adoption can never loosen verification) and
    /// attached to the restored entry, exactly as a cold pool's first
    /// warm-up would. Every entry adoption lists therefore has a pool
    /// holding it, so removing or writing that pool releases it like
    /// any other. Warm pools are deliberately untouched: their
    /// in-flight answers stay bit-identical, and they pick the new
    /// generation up whenever they next go cold. Returns `None` when
    /// there is nothing newer (including an unreadable or empty
    /// directory — adoption never moves backwards); otherwise one
    /// [`ServiceStats::generations_adopted`] is counted and pre-warm
    /// rejections feed both [`ServiceStats::snapshot_rejections`] and
    /// [`ServiceStats::adoptions_rejected`].
    pub fn adopt_snapshot(&mut self) -> Option<AdoptReport> {
        let dir = self.config.snapshot_dir.clone()?;
        let current = self.snapshots.as_ref().map_or(0, snapshot::Catalog::generation);
        let fresh = snapshot::Catalog::load(&dir);
        let generation = fresh.generation();
        if generation <= current {
            return None;
        }
        self.snapshots = Some(fresh);
        self.stats.generations_adopted += 1;
        let restores_before = self.stats.snapshot_restores;
        let rejections_before = self.stats.snapshot_rejections;
        let Self { pools, store, stats, snapshots, .. } = &mut *self;
        // Anything warm keeps serving what it has.
        for entry in pools.values_mut().filter(|entry| entry.cache.is_none()) {
            entry.cache =
                restore_and_attach(store, snapshots.as_ref(), entry.fp.key(), &entry.jurors, stats);
        }
        let restored = self.stats.snapshot_restores - restores_before;
        let rejected = self.stats.snapshot_rejections - rejections_before;
        self.stats.adoptions_rejected += rejected;
        Some(AdoptReport { generation, restored, rejected })
    }

    /// Installs a [`FaultPlane`] over this service's snapshot and
    /// lease filesystem operations — test instrumentation for the
    /// chaos harness (see [`snapshot watch` module docs](SnapshotWatcher)
    /// and [`FaultScheduler`]). Production services keep the default
    /// [`NoFaults`] plane.
    pub fn set_snapshot_fault_plane(&mut self, faults: Arc<dyn FaultPlane>) {
        self.snap.set_fault_plane(faults);
    }

    /// The holder id this service writes into `writer.lease` — what a
    /// competing writer sees in [`SnapshotError::LeaseHeld`] and a
    /// frontend serves as the leader hint.
    pub fn snapshot_holder(&self) -> &str {
        self.snap.holder()
    }

    // ------------------------------------------------------------------
    // Pool registry
    // ------------------------------------------------------------------

    /// Registers a pool and returns its handle. The pool may be empty
    /// (tasks on it then fail exactly like the direct solvers do).
    pub fn create_pool(&mut self, jurors: Vec<Juror>) -> PoolId {
        let id = self.next_pool;
        self.next_pool += 1;
        let fp = PoolFingerprint::from_jurors(&jurors);
        self.pools.insert(id, PoolEntry { jurors, cache: None, fp });
        PoolId(id)
    }

    /// Unregisters a pool, returning its jurors. The id is never reused,
    /// so stale handles keep failing with
    /// [`ServiceError::UnknownPool`] instead of aliasing a later pool.
    /// Shared warm artifacts the pool held are released (entries no pool
    /// holds any more are evicted from the store).
    pub fn remove_pool(&mut self, pool: PoolId) -> Result<Vec<Juror>, ServiceError> {
        let entry = self.pools.remove(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        if let Some(link) = entry.cache {
            self.store.release(link);
        }
        Ok(entry.jurors)
    }

    /// The pool's current content-fingerprint key — equal multisets of
    /// solver-relevant juror content (ε and cost bits) produce equal
    /// keys regardless of arrangement; any single-juror content change
    /// produces a different key. Maintained incrementally, so this is a
    /// constant-time read.
    pub fn fingerprint(&self, pool: PoolId) -> Result<FingerprintKey, ServiceError> {
        self.pools.get(&pool.0).map(|entry| entry.fp.key()).ok_or(ServiceError::UnknownPool(pool))
    }

    /// Whether two pools currently hold the *same* interned warm-artifact
    /// set (pointer equality of the shared `Arc`) — true for pools that
    /// attached, re-joined or published to one store entry; false when
    /// either is cold or holds an unlisted set, or the pools' content
    /// diverged.
    pub fn shares_artifacts_with(&self, a: PoolId, b: PoolId) -> Result<bool, ServiceError> {
        let link_of = |id: PoolId| -> Result<Option<&StoreLink>, ServiceError> {
            Ok(self.pools.get(&id.0).ok_or(ServiceError::UnknownPool(id))?.cache.as_ref())
        };
        Ok(match (link_of(a)?, link_of(b)?) {
            (Some(la), Some(lb)) => Arc::ptr_eq(&la.set, &lb.set),
            _ => false,
        })
    }

    /// Number of artifact sets currently interned in the warm-artifact
    /// store (observability; live pools keep their entries alive,
    /// orphaned entries are evicted once no pool holds them).
    pub fn artifact_entries(&self) -> usize {
        self.store.len()
    }

    /// Checks the warm-artifact store's invariants and names the first
    /// one broken: every store entry is held by at least one pool, and
    /// every warm pool's set matches the pool's content
    /// ([`ArtifactSet::match_pool`]), has both orders of the pool's
    /// length and, when listed, is listed under the pool's current
    /// fingerprint key. A referee for tests, not part of the API.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        for (key, set) in self.store.iter_entries() {
            let held = self
                .pools
                .values()
                .any(|entry| entry.cache.as_ref().is_some_and(|link| Arc::ptr_eq(&link.set, set)));
            if !held {
                return Err(format!("store entry {key:?} is held by no pool"));
            }
        }
        for (&id, entry) in &self.pools {
            let Some(link) = &entry.cache else { continue };
            let (pool, n) = (PoolId(id), entry.jurors.len());
            if self.store.lists(link) && link.key != entry.fp.key() {
                return Err(format!("{pool} is listed under a key other than its content's"));
            }
            if !link.set.match_pool(&entry.jurors) {
                return Err(format!("{pool}'s artifact set does not match its jurors"));
            }
            if link.set.eps_order.len() != n || link.set.greedy_order.len() != n {
                return Err(format!("{pool}'s orders do not have its length {n}"));
            }
        }
        Ok(())
    }

    /// The current jurors of `pool` (selection member indices refer to
    /// positions in this slice).
    pub fn pool(&self, pool: PoolId) -> Result<&[Juror], ServiceError> {
        self.pools
            .get(&pool.0)
            .map(|entry| entry.jurors.as_slice())
            .ok_or(ServiceError::UnknownPool(pool))
    }

    /// Appends a juror; returns its position. A warm pool is repaired in
    /// place: one rank-insert per sorted order; only the AltrM answer
    /// (re-solved rescan-free by the bound-pruned scan) and the budget
    /// staircase drop.
    pub fn insert_juror(&mut self, pool: PoolId, juror: Juror) -> Result<usize, ServiceError> {
        let entry = self.pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        entry.fp.insert(&juror);
        entry.jurors.push(juror);
        let pos = entry.jurors.len() - 1;
        if self.repair_after_mutation(pool, |set, jurors| repair_flat_insert(set, jurors, pos)) {
            self.stats.insert_repairs += 1;
        }
        Ok(pos)
    }

    /// Replaces the juror at `index` (e.g. a re-estimated error rate).
    /// Warm state is *repaired in place*: both sorted orders get one
    /// remove + one rank-insert (`O(n)`, bit-identical to a re-sort).
    /// Only the lazily-derived artefacts whose answers may genuinely
    /// change (AltrM selection, budget staircase) are dropped.
    pub fn update_juror(
        &mut self,
        pool: PoolId,
        index: usize,
        juror: Juror,
    ) -> Result<(), ServiceError> {
        let entry = self.pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        let len = entry.jurors.len();
        let slot = entry.jurors.get_mut(index).ok_or(ServiceError::JurorOutOfRange {
            pool,
            index,
            len,
        })?;
        let old = std::mem::replace(slot, juror);
        entry.fp.replace(&old, &juror);
        self.repair_after_mutation(pool, |set, jurors| {
            repair_flat_update(set, jurors, index, &old)
        });
        Ok(())
    }

    /// Removes and returns the juror at `index`, preserving the order of
    /// the rest (so remaining positions shift down by one, exactly like
    /// `Vec::remove`). Warm state is repaired in place like
    /// [`JuryService::update_juror`], with an extra renumbering pass over
    /// the surviving positions.
    pub fn remove_juror(&mut self, pool: PoolId, index: usize) -> Result<Juror, ServiceError> {
        let entry = self.pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        let len = entry.jurors.len();
        if index >= len {
            return Err(ServiceError::JurorOutOfRange { pool, index, len });
        }
        let removed = entry.jurors.remove(index);
        entry.fp.remove(&removed);
        self.repair_after_mutation(pool, |set, _| repair_flat_remove(set, index));
        Ok(removed)
    }

    /// The closing half of every mutation, run once the pool's jurors and
    /// fingerprint have changed. A cold pool has nothing to repair. A
    /// warm one takes its set back exclusively
    /// ([`ArtifactStore::reclaim`]; leaving a store listing counts a
    /// detach), `repair` patches it in place, and the set settles under
    /// the post-mutation key: it **re-joins** an entry matching the new
    /// content (content-verified, never by hash alone), or is
    /// **published** when that key is vacant, so identically-mutated
    /// siblings re-join it and the next snapshot persists it. It stays
    /// unlisted only when an occupied key refuses it. Returns whether
    /// warm state was repaired (counted as one cache invalidation and
    /// one order repair).
    fn repair_after_mutation(
        &mut self,
        pool: PoolId,
        repair: impl FnOnce(&mut ArtifactSet, &[Juror]),
    ) -> bool {
        let Self { pools, store, stats, .. } = &mut *self;
        let entry = pools.get_mut(&pool.0).expect("mutations resolve the pool first");
        let Some(link) = entry.cache.take() else { return false };
        stats.artifact_detaches += usize::from(store.lists(&link));
        let mut set = store.reclaim(link);
        repair(&mut set, &entry.jurors);
        stats.cache_invalidations += 1;
        stats.order_repairs += 1;
        let key = entry.fp.key();
        entry.cache = Some(match attach_flat(store, key, &entry.jurors) {
            Some(shared) => {
                stats.artifact_rejoins += 1;
                shared
            }
            None => list(store, key, set),
        });
        true
    }

    // ------------------------------------------------------------------
    // Cache
    // ------------------------------------------------------------------

    /// Builds whatever cached state is cold: the pool's orders and AltrM
    /// answer (just the answer after an order repair — a bound-pruned
    /// rescan-free solve). Called automatically by the solve paths;
    /// exposed so benches can separate cold from warm.
    pub fn warm_pool(&mut self, pool: PoolId) -> Result<(), ServiceError> {
        self.warm(pool, true)
    }

    /// The one place a pool acquires warm state. A cold pool restores a
    /// verified snapshot entry into the store, attaches to the interned
    /// entry when the store admits it, or otherwise builds its set and
    /// lists it (an occupied key that refused the attach keeps its
    /// incumbent, and the built set stays unlisted). With `altr` — an
    /// AltrM task — the build solves the AltrM answer, and an empty
    /// AltrM slot (an orders-only set or a repaired one) is then filled
    /// by the rescan-free bound-pruned scan; without it a PayM task
    /// builds only the orders and never pays for a solve it does not
    /// read. A cold AltrM build counts a full repair; every AltrM solve
    /// counts a cache build and its pruned sizes.
    fn warm(&mut self, pool: PoolId, altr: bool) -> Result<(), ServiceError> {
        let Self { pools, store, stats, snapshots, scratches, .. } = &mut *self;
        let PoolEntry { jurors, cache, fp } =
            pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        let mut scratch = scratches.pop().unwrap_or_default();
        if cache.is_none() {
            let key = fp.key();
            let attached = restore_and_attach(store, snapshots.as_ref(), key, jurors, stats);
            *cache = Some(attached.unwrap_or_else(|| {
                let set = build_cache(jurors, altr.then_some(&mut scratch));
                stats.full_repairs += usize::from(altr);
                count_altr_solve(stats, set.altr.get());
                list(store, key, set)
            }));
        }
        let set = &cache.as_ref().expect("warmed above").set;
        if altr && set.altr.get().is_none() {
            let answer = AltrAlg::default().solve_pruned(jurors, &set.eps_order, &mut scratch);
            set.set_altr(answer.map(Arc::new));
            count_altr_solve(stats, set.altr.get());
        }
        scratches.push(scratch);
        Ok(())
    }

    /// Drops every piece of `pool`'s warm state — orders, AltrM answer,
    /// staircase and any store attachment — so the next
    /// [`JuryService::warm_pool`] pays the full cold build. An
    /// operational hook (reclaim the memory of a pool gone quiet, force
    /// a from-scratch rebuild) and the referee for the repair paths: the
    /// `insert_throughput` bench measures warm in-place insert repairs
    /// against exactly this invalidate-and-rebuild baseline. A shared
    /// attachment is dropped, never materialised; entries the store
    /// holds for sibling pools survive.
    pub fn invalidate_warm(&mut self, pool: PoolId) -> Result<(), ServiceError> {
        let entry = self.pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        if let Some(link) = entry.cache.take() {
            self.store.release(link);
        }
        Ok(())
    }

    /// Whether `pool`'s cache is currently warm: orders and the AltrM
    /// answer present.
    pub fn is_warm(&self, pool: PoolId) -> bool {
        self.pools
            .get(&pool.0)
            .and_then(|entry| entry.cache.as_ref())
            .is_some_and(|link| link.set.altr.get().is_some())
    }

    /// Whether the sorted orders — all a PayM task needs — are present.
    fn has_orders(&self, pool: PoolId) -> bool {
        self.pools.get(&pool.0).is_some_and(|entry| entry.cache.is_some())
    }

    /// Whether the state `task` actually consumes is warm: solved
    /// artefacts for AltrM, sorted orders for PayM.
    fn is_warm_for(&self, task: &DecisionTask) -> bool {
        match task.model {
            CrowdModel::Altruism => self.is_warm(task.pool),
            CrowdModel::PayAsYouGo { .. } => self.has_orders(task.pool),
        }
    }

    /// The artifact set of a pool the caller has just warmed.
    fn warm_set(&self, pool: PoolId) -> &ArtifactSet {
        &self.pools[&pool.0].cache.as_ref().expect("warmed by the caller").set
    }

    /// The cached reliability order of `pool`: positions sorted ascending
    /// by ε (ties by position). `order[..k]` is the best fixed-size-`k`
    /// jury by Lemma 3. The JER of every odd prefix (the Figure 3(a)
    /// curve) is not cached; compute it from the current jurors with
    /// `AltrAlg::jer_profile(service.pool(id)?)`.
    pub fn reliability_order(&mut self, pool: PoolId) -> Result<&[usize], ServiceError> {
        self.warm_pool(pool)?;
        Ok(&self.warm_set(pool).eps_order)
    }

    // ------------------------------------------------------------------
    // Solving
    // ------------------------------------------------------------------

    /// Solves one task, warming the pool cache if needed — a one-task
    /// batch that counts no [`ServiceStats::batches`].
    ///
    /// Members, JER and cost are bit-identical to [`AltrAlg::solve`] /
    /// [`PayAlg::solve`] on the pool's current jurors (AltrM solver
    /// *stats* reflect the service's bound-pruned scan;
    /// see the crate docs). A warm PayM task whose budget falls inside a
    /// recorded staircase step is answered without a greedy rescan
    /// ([`ServiceStats::staircase_hits`]); a PayM task never builds the
    /// AltrM answer. A warm AltrM task whose pool was mutated re-solves
    /// rescan-free: a bound sweep plus exact JER at the surviving sizes
    /// only — never a full `O(N²)` rescan, and never a full cache
    /// rebuild ([`ServiceStats::full_repairs`] stays put). Every call
    /// counts one [`ServiceStats::tasks_solved`] attempt, failures and
    /// unknown pools included.
    pub fn solve(&mut self, task: &DecisionTask) -> Result<Selection, ServiceError> {
        let mut out = self.solve_tasks(std::slice::from_ref(task));
        out.pop().expect("one result per task").map(Arc::unwrap_or_clone)
    }

    /// Solves a batch of tasks, preserving order; a task on an unknown
    /// pool fails in its own slot.
    ///
    /// Every pool a task finds cold is warmed first, sequentially
    /// (warming mutates the registry): AltrM tasks get their pool's
    /// AltrM answer solved once, PayM tasks only the sorted orders. The
    /// tasks are then answered on the caller thread, or — for batches
    /// larger than one worker's share (the private
    /// `MIN_TASKS_PER_WORKER`, 32 tasks) — over up to `config.threads`
    /// scoped workers, each with a persistent [`SolverScratch`]. No
    /// clock is read on this path. A PayM budget no recorded step
    /// covers is scanned by the task that meets it, with no lock held,
    /// and recorded as a new staircase step for every later task (two
    /// workers that meet it at once both scan; the second step merges
    /// away). A task that replays a warm answer performs no solver-path
    /// heap allocation beyond the returned [`Selection`].
    ///
    /// Every result is an owned [`Selection`] — on replay-heavy AltrM
    /// traffic that is one member-list copy per task;
    /// [`JuryService::solve_batch_shared`] skips those copies.
    pub fn solve_batch(&mut self, tasks: &[DecisionTask]) -> Vec<Result<Selection, ServiceError>> {
        self.solve_batch_shared(tasks).into_iter().map(|r| r.map(Arc::unwrap_or_clone)).collect()
    }

    /// [`JuryService::solve_batch`] with *shared* results: tasks that
    /// replay the same cached AltrM answer receive clones of one
    /// [`Arc`], so a batch of a thousand identical decision tasks costs
    /// a thousand reference bumps instead of a thousand member-list
    /// copies — the allocation traffic behind the `service_throughput`
    /// large-batch collapse. Fresh solves (staircase misses and
    /// replays) are wrapped in a new [`Arc`]; the [`Selection`] values
    /// are bit-identical to [`JuryService::solve_batch`]'s either way.
    /// A front-end that needs a window's cost times this call: its wall
    /// time covers the warms the window triggered (cold builds, AltrM
    /// re-solves after a write) as well as the answers.
    pub fn solve_batch_shared(
        &mut self,
        tasks: &[DecisionTask],
    ) -> Vec<Result<Arc<Selection>, ServiceError>> {
        self.stats.batches += 1;
        self.solve_tasks(tasks)
    }

    /// The one solve path: counts every task as an attempt and every
    /// task whose state was warm before the call as a hit, warms each
    /// referenced pool that is cold for its task (unknown pools fail
    /// positionally in [`answer`]), then answers the tasks in order on
    /// the caller thread or over scoped workers.
    fn solve_tasks(&mut self, tasks: &[DecisionTask]) -> Vec<Result<Arc<Selection>, ServiceError>> {
        let warm = tasks.iter().filter(|t| self.is_warm_for(t)).count();
        self.stats.tasks_solved += tasks.len();
        self.stats.cache_hits += warm;
        // An all-warm batch, the serving steady state, skips the second
        // pass: one registry lookup per task is measurable at pool 10²,
        // batch 1024.
        if warm < tasks.len() {
            for task in tasks {
                let _ = self.warm(task.pool, matches!(task.model, CrowdModel::Altruism));
            }
        }

        let threads = self.config.threads.min(tasks.len().div_ceil(MIN_TASKS_PER_WORKER));
        let pools = &self.pools;
        if threads <= 1 {
            let mut scratch = self.scratches.pop().unwrap_or_default();
            let (out, hits) = answer_each(pools, tasks, &mut scratch);
            self.scratches.push(scratch);
            self.stats.staircase_hits += hits;
            return out;
        }

        // Hand each worker a persistent scratch; collect them all back
        // after the scope (including any spares beyond the chunk count)
        // so the next batch starts warm.
        let mut scratches = std::mem::take(&mut self.scratches);
        scratches.resize_with(threads, SolverScratch::default);
        let chunk_len = tasks.len().div_ceil(threads);
        let n_chunks = tasks.len().div_ceil(chunk_len);

        let mut out = Vec::with_capacity(tasks.len());
        let mut returned = Vec::with_capacity(threads);
        let mut hits = 0;
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .chunks(chunk_len)
                .zip(scratches.drain(..n_chunks))
                .map(|(chunk, mut scratch)| {
                    scope.spawn(move || (answer_each(pools, chunk, &mut scratch), scratch))
                })
                .collect();
            for handle in handles {
                let ((results, chunk_hits), scratch) =
                    handle.join().expect("service worker panicked");
                out.extend(results);
                hits += chunk_hits;
                returned.push(scratch);
            }
        });
        returned.append(&mut scratches);
        self.scratches = returned;
        self.stats.staircase_hits += hits;
        out
    }
}

/// Answers `tasks` in order through [`answer`], returning the results
/// and how many were staircase hits.
fn answer_each(
    pools: &HashMap<u64, PoolEntry>,
    tasks: &[DecisionTask],
    scratch: &mut SolverScratch,
) -> (Vec<Result<Arc<Selection>, ServiceError>>, usize) {
    let mut hits = 0;
    let out = tasks
        .iter()
        .map(|task| {
            let (result, hit) = answer(pools, task, scratch);
            hits += usize::from(hit);
            result
        })
        .collect();
    (out, hits)
}

/// Answers one task from its pool's warm set — the only function that
/// does. AltrM bumps the [`Arc`] of the answer [`JuryService::warm_pool`]
/// filled. PayM looks the budget up under the staircase's read lock
/// (the second value reports that hit); a miss runs one
/// staircase-recording greedy scan with no lock held and merges its step
/// under the write lock ([`Staircase::merge`] drops it when another
/// worker recorded the same step meanwhile). Every known pool is warm
/// for its task here: the caller warmed it.
fn answer(
    pools: &HashMap<u64, PoolEntry>,
    task: &DecisionTask,
    scratch: &mut SolverScratch,
) -> (Result<Arc<Selection>, ServiceError>, bool) {
    let Some(PoolEntry { jurors, cache, .. }) = pools.get(&task.pool.0) else {
        return (Err(ServiceError::UnknownPool(task.pool)), false);
    };
    let set = &cache.as_ref().expect("the caller warmed every known pool").set;
    let (result, hit) = match task.model {
        CrowdModel::Altruism => {
            (set.altr.get().expect("warm_pool solved the AltrM answer").clone(), false)
        }
        CrowdModel::PayAsYouGo { budget } => {
            let replay = set.staircase_read().lookup(budget);
            let hit = replay.is_some();
            let result = replay.unwrap_or_else(|| {
                // Scan into a private step outside the lock, so misses on
                // other workers run in parallel and hits never wait on a
                // scan; only the insert takes the write lock.
                let mut step = Staircase::new();
                let pay = PayAlg::new(budget, PayConfig::default());
                let result = pay.solve_staircase(jurors, &set.greedy_order, &mut step, scratch);
                set.record_staircase(step);
                result
            });
            (result.map(Arc::new), hit)
        }
    };
    (result.map_err(ServiceError::from), hit)
}

/// Counts one AltrM solve into [`ServiceStats::cache_builds`] and
/// [`ServiceStats::bound_pruned`]; `None` (no solve ran) counts nothing.
fn count_altr_solve(stats: &mut ServiceStats, answer: Option<&AltrAnswer>) {
    if let Some(answer) = answer {
        stats.cache_builds += 1;
        stats.bound_pruned += answer.as_ref().map_or(0, |sel| sel.stats.pruned_by_bound);
    }
}

/// Sorts both orders of a fresh set. With a scratch it also solves the
/// AltrM answer ([`AltrAlg::solve_pruned`]) on the ε order, *before* the
/// greedy sort. The order matters at scale: the AltrM scan evicts the
/// jurors from cache, and the greedy sort's one sequential key pass
/// brings them back for the PayM scan that usually follows a cold build.
/// Each sort allocates a 16-byte packed key per juror and frees it
/// before returning, so at most one key buffer is live at a time.
fn build_cache(jurors: &[Juror], altr: Option<&mut SolverScratch>) -> ArtifactSet {
    let mut eps_order = Vec::with_capacity(jurors.len());
    jury_core::solver::sorted_order_into(jurors, &mut eps_order);
    let altr = altr
        .map(|scratch| AltrAlg::default().solve_pruned(jurors, &eps_order, scratch).map(Arc::new));
    let mut greedy_order = Vec::with_capacity(jurors.len());
    PayAlg::greedy_order_into(jurors, &mut greedy_order);
    let seq = jurors.iter().map(juror_content).collect();
    ArtifactSet::from_parts(seq, eps_order, greedy_order, altr)
}

/// Attaches a cold pool to the interned entry at `key`, seeding the
/// store from the snapshot catalog first: when `key` is not interned
/// and the catalog holds a candidate, the first fully-verified entry is
/// published and the pool attaches to it directly (the restore already
/// compared its content with `jurors`). Counts into the two snapshot
/// stats and, on an attach, [`ServiceStats::artifact_share_hits`]. A
/// rejected or absent candidate leaves the store unchanged (the caller
/// cold-builds). Without a catalog, or when the key is already interned
/// (live state always wins), this is the ordinary [`attach_flat`].
fn restore_and_attach(
    store: &mut ArtifactStore,
    catalog: Option<&snapshot::Catalog>,
    key: FingerprintKey,
    jurors: &[Juror],
    stats: &mut ServiceStats,
) -> Option<StoreLink> {
    if let Some(catalog) = catalog.filter(|_| !store.contains(&key)) {
        let attempt = catalog.restore(&key, jurors);
        stats.snapshot_rejections += attempt.rejections;
        if let Some(set) = attempt.set.map(Arc::new) {
            if store.publish(key, &set) {
                stats.snapshot_restores += 1;
                stats.artifact_share_hits += 1;
                return Some(StoreLink { key, set });
            }
        }
    }
    let link = attach_flat(store, key, jurors);
    stats.artifact_share_hits += usize::from(link.is_some());
    link
}

/// Wraps a freshly built or repaired set as its pool's link, listing it
/// under `key` when the key is vacant (an occupied key keeps its
/// incumbent and the set stays unlisted — see
/// [`ArtifactStore::publish`]).
fn list(store: &mut ArtifactStore, key: FingerprintKey, set: ArtifactSet) -> StoreLink {
    let set = Arc::new(set);
    store.publish(key, &set);
    StoreLink { key, set }
}

/// Attaches a flat pool to the interned entry at `key` when the entry's
/// founding sequence equals the pool's ([`ArtifactSet::match_pool`]).
/// Returns `None` when there is no entry or the content differs (a
/// collision, or the same multiset in another arrangement). The single
/// place the attach rule lives — warm-up ([`JuryService::warm_pool`]
/// and the PayM orders-only warm) and
/// adoption (both through [`restore_and_attach`], whose fresh restores
/// the snapshot reader checks by the same `match_pool`) and
/// post-mutation re-join ([`JuryService::repair_after_mutation`]) all
/// route through it.
fn attach_flat(store: &ArtifactStore, key: FingerprintKey, jurors: &[Juror]) -> Option<StoreLink> {
    let set = store.get(&key).filter(|set| set.match_pool(jurors))?;
    Some(StoreLink { key, set })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_core::altr::AltrConfig;
    use jury_core::juror::{pool_from_rates, pool_from_rates_and_costs, ErrorRate};

    fn figure1() -> Vec<Juror> {
        pool_from_rates_and_costs(&[
            (0.1, 0.2),
            (0.2, 0.2),
            (0.2, 0.3),
            (0.3, 0.4),
            (0.3, 0.65),
            (0.4, 0.05),
            (0.4, 0.05),
        ])
        .unwrap()
    }

    #[test]
    fn altruism_solve_matches_direct_and_hits_cache() {
        let jurors = figure1();
        let mut service = JuryService::new();
        let pool = service.create_pool(jurors.clone());
        assert!(!service.is_warm(pool));
        let cold = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert!(service.is_warm(pool));
        assert_eq!(service.stats().cache_hits, 0, "cold solve is not a hit");
        let warm = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert_eq!(service.stats().cache_hits, 1);
        let direct = AltrAlg::solve(&jurors, &AltrConfig::default()).unwrap();
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        assert_eq!(service.stats().cache_builds, 1);
    }

    #[test]
    fn paym_solve_matches_direct_across_budgets() {
        let jurors = figure1();
        let mut service = JuryService::new();
        let pool = service.create_pool(jurors.clone());
        for budget in [0.05, 0.3, 0.5, 1.0, 2.0] {
            let got = service.solve(&DecisionTask::pay_as_you_go(pool, budget)).unwrap();
            let direct = PayAlg::solve(&jurors, budget, &PayConfig::default()).unwrap();
            assert_eq!(got, direct, "budget {budget}");
        }
        // Solver errors replay identically too.
        assert_eq!(
            service.solve(&DecisionTask::pay_as_you_go(pool, 0.001)),
            Err(ServiceError::Solver(JuryError::NoFeasibleJury { budget: 0.001 }))
        );
        assert!(matches!(
            service.solve(&DecisionTask::pay_as_you_go(pool, f64::NAN)),
            Err(ServiceError::Solver(JuryError::InvalidBudget(_)))
        ));
    }

    #[test]
    fn batch_preserves_order_and_matches_direct() {
        let jurors_a = figure1();
        let jurors_b = pool_from_rates(&[0.25, 0.12, 0.4, 0.33, 0.2]).unwrap();
        let mut service =
            JuryService::with_config(ServiceConfig { threads: 3, ..Default::default() });
        let a = service.create_pool(jurors_a.clone());
        let b = service.create_pool(jurors_b.clone());
        let ghost = PoolId(404);
        let mut tasks = Vec::new();
        for i in 0..40 {
            tasks.push(match i % 4 {
                0 => DecisionTask::altruism(a),
                1 => DecisionTask::altruism(b),
                2 => DecisionTask::pay_as_you_go(a, 0.1 + i as f64 / 20.0),
                _ => DecisionTask::pay_as_you_go(b, f64::MAX),
            });
        }
        // Unknown pools fail in place, in both worker chunks.
        tasks[5] = DecisionTask::altruism(ghost);
        tasks[26] = DecisionTask::pay_as_you_go(ghost, 1.0);
        let results = service.solve_batch(&tasks);
        assert_eq!(results.len(), tasks.len());
        for (task, result) in tasks.iter().zip(&results) {
            if task.pool == ghost {
                assert_eq!(result, &Err(ServiceError::UnknownPool(ghost)));
                continue;
            }
            let jurors = if task.pool == a { &jurors_a } else { &jurors_b };
            let direct = match task.model {
                CrowdModel::Altruism => AltrAlg::solve(jurors, &AltrConfig::default()),
                CrowdModel::PayAsYouGo { budget } => {
                    PayAlg::solve(jurors, budget, &PayConfig::default())
                }
            };
            assert_eq!(result.as_ref().ok(), direct.as_ref().ok());
        }
        assert_eq!(service.stats().cache_builds, 2);
        assert_eq!(service.stats().batches, 1);
    }

    #[test]
    fn mutations_invalidate_and_results_track_the_new_pool() {
        let mut service = JuryService::new();
        let pool = service.create_pool(figure1());
        let before = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert!(service.is_warm(pool));

        // A very reliable, free juror joins: the selection must change.
        let star = Juror::new(99, ErrorRate::new(0.01).unwrap(), 0.0);
        let pos = service.insert_juror(pool, star).unwrap();
        assert!(!service.is_warm(pool), "insert must invalidate");
        let after = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert_ne!(before, after);
        assert!(after.members.contains(&pos));
        assert_eq!(
            after,
            AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).unwrap()
        );

        // Update and removal round-trip with direct solves as well.
        service.update_juror(pool, 0, Juror::new(0, ErrorRate::new(0.45).unwrap(), 0.2)).unwrap();
        assert!(!service.is_warm(pool));
        let updated = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert_eq!(
            updated,
            AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).unwrap()
        );

        let removed = service.remove_juror(pool, pos).unwrap();
        assert_eq!(removed.id, 99);
        let final_sel = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert_eq!(
            final_sel,
            AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).unwrap()
        );
    }

    #[test]
    fn registry_errors() {
        let mut service = JuryService::new();
        let ghost = PoolId(404);
        assert_eq!(
            service.solve(&DecisionTask::altruism(ghost)),
            Err(ServiceError::UnknownPool(ghost))
        );
        assert_eq!(service.stats().tasks_solved, 1, "an unknown pool still counts an attempt");
        assert!(service.pool(ghost).is_err());
        assert!(service.remove_pool(ghost).is_err());
        let pool = service.create_pool(figure1());
        assert!(matches!(
            service.update_juror(pool, 99, Juror::new(1, ErrorRate::new(0.2).unwrap(), 0.0)),
            Err(ServiceError::JurorOutOfRange { index: 99, .. })
        ));
        assert!(matches!(
            service.remove_juror(pool, 99),
            Err(ServiceError::JurorOutOfRange { .. })
        ));
        // Empty pools replay the solver's EmptyPool error.
        let empty = service.create_pool(vec![]);
        assert_eq!(
            service.solve(&DecisionTask::altruism(empty)),
            Err(ServiceError::Solver(JuryError::EmptyPool))
        );
        let batch = service.solve_batch(&[DecisionTask::altruism(ghost)]);
        assert_eq!(batch, vec![Err(ServiceError::UnknownPool(ghost))]);
        let stats = service.stats();
        assert_eq!((stats.tasks_solved, stats.cache_hits, stats.batches), (3, 0, 1));
    }

    #[test]
    fn reliability_order_sorts_by_epsilon() {
        let mut service = JuryService::new();
        let jurors = pool_from_rates(&[0.4, 0.1, 0.3, 0.1, 0.2]).unwrap();
        let pool = service.create_pool(jurors);
        assert_eq!(service.reliability_order(pool).unwrap(), &[1, 3, 4, 2, 0]);
    }

    #[test]
    fn tasks_serialize_round_trip() {
        let task = DecisionTask::pay_as_you_go(PoolId(7), 1.5);
        let text = serde::json::to_string(&task);
        let back: DecisionTask = serde::json::from_str(&text).unwrap();
        assert_eq!(back, task);
        let alt = DecisionTask::altruism(PoolId(0));
        let back: DecisionTask = serde::json::from_str(&serde::json::to_string(&alt)).unwrap();
        assert_eq!(back, alt);
    }

    #[test]
    fn remove_pool_returns_jurors() {
        let mut service = JuryService::new();
        let jurors = figure1();
        let pool = service.create_pool(jurors.clone());
        assert_eq!(service.pool_count(), 1);
        let returned = service.remove_pool(pool).unwrap();
        assert_eq!(returned.len(), jurors.len());
        assert_eq!(service.pool_count(), 0);
    }

    #[test]
    fn flat_update_repairs_orders_in_place() {
        let mut service = JuryService::new();
        let pool = service.create_pool(figure1());
        service.warm_pool(pool).unwrap();
        assert_eq!(service.stats().full_repairs, 1);

        // An update keeps the orders (repaired in O(n)) and only drops
        // the pmf-derived artefacts.
        service.update_juror(pool, 2, Juror::new(2, ErrorRate::new(0.05).unwrap(), 0.1)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_invalidations, 1);
        assert_eq!(stats.order_repairs, 1);
        assert!(!service.is_warm(pool), "pmf artefacts must be cold");

        // Re-warming rebuilds only the solved half: cache_builds grows,
        // full_repairs does not.
        service.warm_pool(pool).unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_builds, 2);
        assert_eq!(stats.full_repairs, 1);

        // The repaired orders equal a from-scratch rebuild.
        let expected_order = {
            let mut fresh = JuryService::new();
            let p = fresh.create_pool(service.pool(pool).unwrap().to_vec());
            fresh.reliability_order(p).unwrap().to_vec()
        };
        assert_eq!(service.reliability_order(pool).unwrap(), expected_order.as_slice());
        // And solves stay bit-identical to direct.
        let direct = AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).unwrap();
        assert_eq!(service.solve(&DecisionTask::altruism(pool)).unwrap(), direct);

        // A flat insert now repairs in place too: one rank-insert per
        // order, the AltrM answer dropped for a rescan-free re-solve.
        service.insert_juror(pool, Juror::new(50, ErrorRate::new(0.3).unwrap(), 0.0)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_invalidations, 2);
        assert_eq!(stats.order_repairs, 2, "insert repairs the orders");
        let expected_order = {
            let mut fresh = JuryService::new();
            let p = fresh.create_pool(service.pool(pool).unwrap().to_vec());
            fresh.reliability_order(p).unwrap().to_vec()
        };
        assert_eq!(service.reliability_order(pool).unwrap(), expected_order.as_slice());
        service.warm_pool(pool).unwrap();
        assert_eq!(service.stats().full_repairs, 1, "no full rebuild after an insert repair");
        let direct = AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).unwrap();
        let served = service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert_eq!(served.members, direct.members);
        assert_eq!(served.jer.to_bits(), direct.jer.to_bits());
    }

    #[test]
    fn budget_changes_never_invalidate_pmf_artefacts() {
        // The satellite regression this pins: a stream of PayM tasks that
        // differ only in budget must never trigger a full repair and,
        // past the first scan per budget, must ride the staircase.
        let mut service = JuryService::new();
        let pool = service.create_pool(figure1());
        for round in 0..3 {
            for budget in [0.3, 0.7, 1.1, 2.0] {
                service.solve(&DecisionTask::pay_as_you_go(pool, budget)).unwrap();
            }
            let stats = service.stats();
            assert_eq!(stats.full_repairs, 0, "round {round}");
            assert_eq!(stats.cache_builds, 0, "PayM warms orders only");
        }
        let stats = service.stats();
        assert_eq!(stats.tasks_solved, 12);
        assert_eq!(stats.staircase_hits, 8, "four budgets scan once each");

        // A mutation clears the staircase; the next solve re-scans once,
        // without any full repair.
        service.update_juror(pool, 2, Juror::new(2, ErrorRate::new(0.11).unwrap(), 0.2)).unwrap();
        service.solve(&DecisionTask::pay_as_you_go(pool, 0.3)).unwrap();
        service.solve(&DecisionTask::pay_as_you_go(pool, 0.3)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.full_repairs, 0);
        assert_eq!(stats.staircase_hits, 9, "second post-mutation solve hits again");
    }

    #[test]
    fn batched_paym_rides_the_staircase() {
        let mut service =
            JuryService::with_config(ServiceConfig { threads: 3, ..Default::default() });
        let pool = service.create_pool(figure1());
        let tasks: Vec<DecisionTask> = (0..30)
            .map(|i| DecisionTask::pay_as_you_go(pool, 0.4 + (i % 3) as f64 / 4.0))
            .collect();
        let first = service.solve_batch(&tasks);
        assert!(first.iter().all(Result::is_ok));
        let stats = service.stats();
        // Each of the three distinct budgets was scanned and recorded by
        // the first task that met it; the other 27 tasks replayed its step.
        assert_eq!(stats.staircase_hits, 27);
        assert_eq!(stats.full_repairs, 0);
        // A second identical batch is all hits, and counts order-level
        // cache hits now that the orders are warm.
        let second = service.solve_batch(&tasks);
        assert_eq!(first, second);
        let stats = service.stats();
        assert_eq!(stats.staircase_hits, 27 + 30);
        assert_eq!(stats.cache_hits, 30);
    }

    #[test]
    fn staircase_steps_leave_the_entry_clean() {
        // Snapshots do not persist the staircase, so neither a recorded
        // step nor a replay may move the version the writer compares;
        // a juror write still does.
        let mut service = JuryService::new();
        let pool = service.create_pool(figure1());
        service.warm_pool(pool).unwrap();
        let version = |service: &JuryService| service.warm_set(pool).mutation_version();
        let warm = version(&service);
        for budget in [1.0, 1.0, 0.3] {
            service.solve(&DecisionTask::pay_as_you_go(pool, budget)).unwrap();
        }
        let covered = [DecisionTask::pay_as_you_go(pool, 1.0); 2];
        assert!(service.solve_batch(&covered).iter().all(Result::is_ok));
        assert_eq!(service.stats().staircase_hits, 3);
        assert_eq!(version(&service), warm, "steps and replays leave the entry clean");
        service.update_juror(pool, 0, figure1()[1]).unwrap();
        assert_ne!(version(&service), warm, "a juror write marks it dirty");
    }

    #[test]
    fn altr_resolve_after_update_never_full_repairs() {
        // The counter gate: a pure AltrM re-solve after one juror update
        // must ride the repaired orders and the bound-pruned scan — no
        // full rebuild, ever.
        let rates: Vec<f64> =
            (0..60).map(|i| 0.02 + 0.9 * ((i as f64 * 0.6180339887498949) % 1.0)).collect();
        let mut service = JuryService::new();
        let pool = service.create_pool(pool_from_rates(&rates).unwrap());
        service.solve(&DecisionTask::altruism(pool)).unwrap();
        let full_repairs_cold = service.stats().full_repairs;
        assert_eq!(full_repairs_cold, 1, "the cold build is the only full repair");

        for round in 0..3 {
            let idx = (round * 17 + 3) % rates.len();
            let e = 0.05 + round as f64 * 0.21;
            service
                .update_juror(pool, idx, Juror::new(900, ErrorRate::new(e).unwrap(), 0.1))
                .unwrap();
            let sel = service.solve(&DecisionTask::altruism(pool)).unwrap();
            let stats = service.stats();
            assert_eq!(
                stats.full_repairs, full_repairs_cold,
                "round {round}: AltrM re-solve must not full-repair"
            );
            assert_eq!(stats.order_repairs, round + 1, "orders repaired in place");
            // The rescan-free answer matches the direct solver.
            let direct =
                AltrAlg::solve(service.pool(pool).unwrap(), &AltrConfig::default()).unwrap();
            assert_eq!(sel.members, direct.members, "round {round}");
            assert_eq!(sel.jer.to_bits(), direct.jer.to_bits(), "round {round}");
        }
    }

    #[test]
    fn bound_pruning_is_observable() {
        // A few experts plus an unreliable mob: the bound sweep must
        // eliminate the mob sizes and say so in the stats.
        let rates: Vec<f64> =
            (0..201).map(|i| if i < 9 { 0.04 + i as f64 * 0.02 } else { 0.82 }).collect();
        let mut service = JuryService::new();
        let pool = service.create_pool(pool_from_rates(&rates).unwrap());
        let sel = service.solve(&DecisionTask::altruism(pool)).unwrap();
        let stats = service.stats();
        assert!(stats.bound_pruned > 0, "pruning must fire: {stats:?}");
        assert_eq!(stats.bound_pruned, sel.stats.pruned_by_bound);
        // Replays do not re-prune; a post-update re-solve prunes again.
        service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert_eq!(service.stats().bound_pruned, stats.bound_pruned);
        service.update_juror(pool, 3, Juror::new(3, ErrorRate::new(0.06).unwrap(), 0.0)).unwrap();
        service.solve(&DecisionTask::altruism(pool)).unwrap();
        assert!(service.stats().bound_pruned > stats.bound_pruned);
    }

    #[test]
    fn shared_batches_share_replayed_answers() {
        let mut service = JuryService::new();
        let pool = service.create_pool(figure1());
        let tasks: Vec<DecisionTask> = (0..8)
            .map(|i| {
                if i % 4 == 3 {
                    DecisionTask::pay_as_you_go(pool, 1.0)
                } else {
                    DecisionTask::altruism(pool)
                }
            })
            .collect();
        let owned = service.solve_batch(&tasks);
        let shared = service.solve_batch_shared(&tasks);
        for (o, s) in owned.iter().zip(&shared) {
            match (o, s) {
                (Ok(o), Ok(s)) => {
                    assert_eq!(o, s.as_ref());
                    assert_eq!(o.jer.to_bits(), s.jer.to_bits());
                }
                other => panic!("owned/shared divergence: {other:?}"),
            }
        }
        // Replayed AltrM answers are literally the same allocation.
        let (a, b) = (shared[0].as_ref().unwrap(), shared[1].as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "replays must share the cached answer");
    }

    #[test]
    fn threaded_paym_batches_record_steps_in_workers() {
        // 96 distinct budgets over three workers: every miss records its
        // step inside a worker, so the same batch again is all hits.
        let rates: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                (0.05 + 0.85 * u, 0.05 + u * u)
            })
            .collect();
        let jurors = pool_from_rates_and_costs(&rates).unwrap();
        let mut service =
            JuryService::with_config(ServiceConfig { threads: 3, ..Default::default() });
        let pool = service.create_pool(jurors.clone());
        let tasks: Vec<DecisionTask> =
            (0..96).map(|i| DecisionTask::pay_as_you_go(pool, 0.02 + i as f64 * 0.11)).collect();
        let first = service.solve_batch_shared(&tasks);
        for (task, got) in tasks.iter().zip(&first) {
            let CrowdModel::PayAsYouGo { budget } = task.model else { unreachable!() };
            let direct = PayAlg::solve(&jurors, budget, &PayConfig::default());
            match (got, &direct) {
                (Ok(got), Ok(direct)) => {
                    assert_eq!(got.as_ref(), direct, "budget {budget}");
                    assert_eq!(got.jer.to_bits(), direct.jer.to_bits(), "budget {budget}");
                    assert_eq!(got.total_cost.to_bits(), direct.total_cost.to_bits());
                }
                (got, direct) => assert_eq!(got, &direct.clone().map(Arc::new).map_err(Into::into)),
            }
        }
        assert!(first.iter().filter(|r| r.is_ok()).count() > 90, "most budgets are feasible");
        let hits = service.stats().staircase_hits;
        let second = service.solve_batch_shared(&tasks);
        assert_eq!(first, second);
        let stats = service.stats();
        assert_eq!(stats.staircase_hits - hits, tasks.len(), "every step was recorded");
        assert_eq!((stats.batches, stats.tasks_solved, stats.full_repairs), (2, 192, 0));
    }
}
