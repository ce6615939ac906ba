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
//!   *generation* (the prefix-pmf JER profile and checkpoint ladder
//!   stay lazy until queried). A warm AltrM task is a cache lookup —
//!   shared, not copied, under [`JuryService::solve_batch_shared`]; a
//!   warm PayM task is a **budget-staircase** lookup (below), falling
//!   back to one greedy scan on the cached order.
//! * **rescan-free mutation repair** — every juror mutation — *update*,
//!   *removal* and *insert* — repairs warm state in place instead of
//!   invalidating it: both sorted orders get one rank-insert (plus one
//!   remove for updates/removals; `O(n)` memmoves, provably the same
//!   permutation a re-sort would produce, because both visit orders are
//!   total with the pool position as final tie-break), every affected
//!   prefix-pmf checkpoint is patched by dividing the juror's
//!   `(1−ε, ε)` factor out of the Poisson binomial
//!   ([`jury_numeric::poibin::PoiBin::remove_factor`]; inserts need
//!   only a push) — `O(n)` per checkpoint instead of
//!   `O(n·spacing + n log n)` re-convolution — and a materialised JER
//!   profile reuses every untouched prefix entry verbatim, re-deriving
//!   only the suffix from the nearest checkpoint.
//! * **rescan-free warm AltrM** — the one artefact a mutation must drop
//!   is the solved AltrM answer (the optimum may genuinely move). The
//!   re-solve is **bound-pruned** ([`AltrAlg::solve_pruned`]): prefix
//!   sums of ε and ε(1−ε) ([`jury_numeric::bounds::PrefixMoments`])
//!   evaluate Paley–Zygmund lower and Cantelli/Chernoff upper JER
//!   bounds in `O(1)` per odd size, every size whose lower bound clears
//!   the best upper bound is eliminated, and exact JER runs only at the
//!   survivors — `O(N + M²)` for largest survivor `M` instead of the
//!   `O(N²)` full prefix rescan (the `altrm_throughput` bench records
//!   ~10³× at 10⁴ jurors on an expert-plus-mob pool).
//! * **PayM budget staircase** — Algorithm 4's selection is piecewise
//!   constant in the budget, so each pool's warm greedy order carries a
//!   [`jury_core::paym::Staircase`]: recorded step intervals map any
//!   covered budget to its selection by binary search, and a miss costs
//!   exactly one instrumented greedy scan that records a new step.
//! * **batched parallel solving** — [`JuryService::solve_batch`] fans a
//!   slice of [`DecisionTask`]s across scoped worker threads, each with
//!   its own persistent [`SolverScratch`], so a warm task performs no
//!   solver-path heap allocation beyond its returned [`Selection`].
//!
//! # Bit-identity vs numerical contracts
//!
//! Selections — members, JER bits, cost bits — are **bit-identical** to
//! calling [`AltrAlg::solve`] / [`PayAlg::solve`] directly: cold cache,
//! warm cache, batched, staircase-replayed, bound-pruned and repaired
//! paths all reduce to the same scratch-threaded solver internals
//! (`tests/equivalence.rs` and `tests/flat_differential.rs` assert
//! this). The caching layers sit on either side of that line:
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
//!   sequential pushes the full scan performs and pruning is sound
//!   (an eliminated size's exact JER strictly exceeds the incumbent's,
//!   smallest-`n` tie-break preserved — see
//!   [`AltrAlg::solve_pruned`]), so members/JER/cost match the full
//!   scan bit for bit. The [`SolverStats`](jury_core::SolverStats)
//!   *document the pruning instead of hiding it*: `jer_evaluations`
//!   counts survivors only and `pruned_by_bound` the eliminated sizes
//!   (their sum equals the full scan's evaluation count). This is the
//!   one place service answers differ from the direct solver's, by
//!   design. Crucially, the pruned scan builds its pmfs from scratch —
//!   it never reads a repaired checkpoint — which is what keeps
//!   post-mutation AltrM answers on the bit-identical side.
//! * **Deconvolution repairs are numerical.** Dividing a factor out of a
//!   Poisson binomial re-derives the cached prefix pmfs in a different
//!   float order than building them fresh, so ladder-backed answers —
//!   [`JuryService::jer_probe`], and [`JuryService::jer_profile`]
//!   entries re-derived by an in-place profile repair — are only
//!   *numerically* equal: within [`PROBE_REPAIR_TOL`] of a from-scratch
//!   evaluation, with an a-priori conditioning guard plus validation
//!   fallback ([`ServiceStats::pmf_rebuilds`]) bounding the drift.
//!   Nothing on the bit-identical side ever reads a repaired pmf.
//!
//! # The warm-artifact store and its fingerprint contract
//!
//! All pools of one service share a **content-addressed warm-artifact
//! store**: registering N pools over the same juror content builds the
//! warm artifacts **once** and hands every further pool `Arc` clones of
//! one interned set. The contract:
//!
//! * **What is keyed.** Every artifact set is interned under
//!   `(fingerprint, solver config)`. The fingerprint is a commutative
//!   multiset hash ([`jury_core::fingerprint::PoolFingerprint`]) over
//!   each juror's solver-relevant content — the pair
//!   `(ε.to_bits(), cost.to_bits())`; juror *ids* are payload and never
//!   enter the key. The config covers the [`AltrConfig`]/[`PayConfig`]
//!   knobs that change solver output.
//!   Because raw IEEE-754 bits are hashed, the fingerprint is exactly as
//!   strict as the solvers' `total_cmp` orders (`0.5` vs `0.5 + 1e-12`
//!   is different content). Maintained incrementally: one
//!   constant-time hash update per mutation, never a rescan.
//! * **What is shared.** A pool whose juror sequence equals an entry's
//!   founding sequence position-for-position shares *everything*: both
//!   orders, sorted ε values, pmf ladder, JER profile, the Arc'd AltrM
//!   answer and the (lazily growing, lock-guarded) PayM budget
//!   staircase. Nothing else shares: a pool holding the same multiset
//!   in a different arrangement has an equal fingerprint but builds a
//!   set of its own, and the entry already interned under that key
//!   keeps it.
//! * **One home for warm state.** A warm pool holds exactly one
//!   artifact set, *listed* in the store under its key or *unlisted*
//!   (sharing off, or an arrangement an occupied key refused). Only
//!   listed sets are snapshotted.
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
//! * **What stays outside the bit-identity guarantee.** Sharing never
//!   changes any answer: shared-artifact AltrM/PayM selections are
//!   bit-identical (members/JER/cost/stats) to unshared ones —
//!   the differential harness proves it across interleaved
//!   detach/re-join mutations. The pre-existing numerical carve-outs
//!   are unchanged: [`JuryService::jer_probe`] and repaired
//!   [`JuryService::jer_profile`] entries remain numerical-contract
//!   ([`PROBE_REPAIR_TOL`]), and a re-joining pool adopts the entry's
//!   pmf-lineage artifacts (fresh-built or repaired), which is
//!   indistinguishable within that same tolerance.
//!
//! Sharing is on by default; [`ServiceConfig::share_artifacts`] turns it
//! off (the `multi_tenant_throughput` bench measures the difference).
//!
//! Mutation cost is where the repair paths pay: a juror update, removal
//! or insert costs a few `O(n)` memmoves plus `O(ladder)` factor
//! divisions (pushes for inserts), the next PayM task re-records its
//! staircase step with a single greedy scan, and the next AltrM task
//! re-solves with the bound-pruned sweep — no re-sort and no `O(N²)`
//! rescan on either lane (on pools whose sorted prefix mean crosses ½;
//! below that the pruned scan degrades gracefully to the full one plus
//! an `O(N)` sweep). The [`ServiceStats`] counters
//! (`cache_invalidations`, `order_repairs`, `insert_repairs`,
//! `staircase_hits`, `pmf_repairs`, `pmf_rebuilds`, `profile_repairs`,
//! `bound_pruned`, `full_repairs`) make that behaviour observable; the
//! `staircase_throughput`, `altrm_throughput` and `insert_throughput`
//! benches record it at pool sizes up to 10⁶.
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
//!   orders are checked to be permutations, sorted ε values re-bound
//!   bit-for-bit against the registering pool's jurors, the pmf
//!   ladder's content hash re-derived, and the decoded juror content
//!   compared against the pool's actual content — the
//!   same `match_pool` comparison the in-memory attach path uses. A
//!   restored artifact set is therefore indistinguishable from one the
//!   store built itself, and restored answers are bit-identical to
//!   cold-built ones.
//! * **Failure is always a cold build.** Any mismatch — truncation, a
//!   flipped bit anywhere, a stale manifest, config drift, a
//!   snapshot of different juror content — rejects that entry and
//!   falls back to the ordinary cold build. Restore failures are never
//!   an error and can never change an answer; they cost exactly one
//!   [`ServiceStats::snapshot_rejections`] increment. Successful
//!   attaches count [`ServiceStats::snapshot_restores`].
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
//!   `manifest-<gen>.json` (monotonically numbered; the pre-generation
//!   `manifest.json` reads as generation 0) referencing fresh files
//!   and files retained from earlier generations alike. Old
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
//! * **Readers pick the highest durable generation, bounded by age.**
//!   Restores scan for the highest parseable manifest (corrupt
//!   generations fall through to older ones), verify as above, and
//!   surface `snapshot_generation`/`snapshot_age_ms` gauges in
//!   [`ServiceStats`]. With [`ServiceConfig::max_snapshot_age`] set, a
//!   generation older than the bound (or one with no commit stamp) is
//!   refused — counted in [`ServiceStats::stale_snapshot_skips`] — and
//!   the pool cold-builds instead; staleness can cost warmth, never
//!   correctness.
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

mod ladder;
mod repair;
mod snapshot;
mod store;

pub use ladder::PROBE_REPAIR_TOL;
pub use snapshot::{
    snapshot_checksum, FaultAction, FaultPlane, FaultScheduler, LeaseConfig, NoFaults,
    SnapshotError, SnapshotReport, SnapshotWatcher,
};

use jury_core::altr::{AltrAlg, AltrConfig, AltrStrategy, JerProfile};
use jury_core::error::JuryError;
use jury_core::fingerprint::{juror_content, FingerprintKey, PoolFingerprint};
use jury_core::jer::JerEngine;
use jury_core::juror::Juror;
use jury_core::model::CrowdModel;
use jury_core::paym::{PayAlg, PayConfig, Staircase};
use jury_core::problem::Selection;
use jury_core::solver::SolverScratch;
use jury_numeric::poibin::PoiBin;
use ladder::PmfLadder;
use repair::{repair_flat_insert, repair_flat_remove, repair_flat_update, MutationEffect};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{ArtifactSet, ArtifactStore, StoreKey, StoreLink};

/// Upper bound on sequential staircase-recording scans per batch. Only
/// `(pool, budget)` pairs that repeat within the batch are recorded up
/// front (a singleton is scanned exactly once by a worker anyway, in
/// parallel, and records its step on a later single-solve miss); a batch
/// with more distinct repeated pairs than this leaves the excess to the
/// workers' presorted scans (correct either way — the staircase is a
/// cache, not a requirement).
const MAX_BATCH_STAIRCASE_SCANS: usize = 32;

/// Minimum tasks a batch assigns per worker thread before it spawns
/// another one. Fanning a large batch over every available core makes
/// each chunk so small that thread spawn/join overhead and allocator
/// contention outweigh the parallelism — the `service_throughput`
/// pool-10⁴/batch-1024 regression. Capping workers at
/// `tasks / MIN_TASKS_PER_WORKER` keeps per-worker chunks coarse.
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
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads for [`JuryService::solve_batch`]
    /// (0 = one per available core).
    pub threads: usize,
    /// AltrALG configuration used for AltrM tasks.
    pub altr: AltrConfig,
    /// PayALG configuration used for PayM tasks.
    pub pay: PayConfig,
    /// Whether equal-content pools share one warm artifact set through
    /// the content-addressed store (on by default; see the crate docs
    /// for the fingerprint contract). Turning it off gives every pool an
    /// unlisted set of its own, never shared or snapshotted — the
    /// `multi_tenant_throughput` bench's baseline.
    pub share_artifacts: bool,
    /// TTL/idle eviction for **orphaned** warm-artifact entries. With the
    /// default `None`, an entry is evicted the instant its last holder
    /// leaves it (refcount eviction, and the cheapest: a written sole
    /// holder takes its set back zero-copy, repairs it in place and
    /// re-lists it under its new key). With `Some(ttl)`, a write leaves
    /// the pre-mutation entry interned and *stamps* it orphaned instead,
    /// while the pool's repaired copy is listed under the new key like
    /// any written pool's; a pool whose content returns within `ttl`
    /// re-joins the warm entry, and entries that stay orphaned past
    /// `ttl` are reaped by the sweep that runs after every mutation /
    /// pool removal (or explicitly via
    /// [`JuryService::sweep_artifact_ttl`]), counted by
    /// [`ServiceStats::store_ttl_evictions`]. The trade: writes lose the
    /// sole-holder zero-copy reclaim (they clone what repairs touch),
    /// and orphans hold memory for up to `ttl`.
    pub store_ttl: Option<Duration>,
    /// Directory of a warm-state snapshot to restore from (see the
    /// crate docs' *persistence contract*). With `Some(dir)`, a pool
    /// registering content the snapshot holds attaches to the verified
    /// restored artifacts at warm-up instead of cold-building; every
    /// loaded artifact is re-verified against the live pool first, and
    /// any mismatch falls back to the cold build (counted by
    /// [`ServiceStats::snapshot_rejections`]) — never an error, never
    /// a wrong answer. `None` (the default) restores nothing.
    /// Restoring requires [`ServiceConfig::share_artifacts`] (restored
    /// entries are store entries). The directory is only *read*;
    /// writing snapshots is explicit via [`JuryService::snapshot`].
    pub snapshot_dir: Option<PathBuf>,
    /// Reader staleness policy (see the crate docs' *multi-process
    /// contract*). With `Some(age)`, restore refuses snapshot
    /// generations whose commit stamp is older than `age` — or absent
    /// (legacy manifests carry none) — counting each refusal in
    /// [`ServiceStats::stale_snapshot_skips`] and cold-building
    /// instead. `None` (the default) restores any verified generation.
    pub max_snapshot_age: Option<Duration>,
    /// Writer-lease tuning for shared snapshot directories (see the
    /// crate docs' *multi-process contract*).
    pub lease: LeaseConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            altr: AltrConfig::default(),
            pay: PayConfig::default(),
            share_artifacts: true,
            store_ttl: None,
            snapshot_dir: None,
            max_snapshot_age: None,
            lease: LeaseConfig::default(),
        }
    }
}

jury_core::stats_record! {
    /// Monotone counters describing the service's work so far.
    ///
    /// The repair counters make the cache's behaviour observable: a healthy
    /// warm PayM workload shows `staircase_hits` tracking `tasks_solved`,
    /// juror updates show `order_repairs`/`pmf_repairs` instead of
    /// `full_repairs`, and `pmf_rebuilds` stays near zero (it counts
    /// deconvolution-guard fallbacks).
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
    /// assert_eq!(stats.full_repairs, 0, "budget changes never rebuild pmf artefacts");
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
        /// sorted run plus a [`PoiBin::push`] per affected pmf-ladder
        /// checkpoint — on a warm pool.
        pub insert_repairs: usize,
        /// Warm PayM tasks answered from the budget staircase — a binary
        /// search plus a selection clone instead of a greedy rescan.
        pub staircase_hits: usize,
        /// Pmf checkpoint ladders repaired by factor deconvolution
        /// ([`jury_numeric::poibin::PoiBin::remove_factor`]) after a juror
        /// update/removal, instead of being re-convolved from scratch.
        pub pmf_repairs: usize,
        /// Ladder repairs that fell back to a full rebuild because the
        /// deconvolution conditioning guard declined (old rate within
        /// [`jury_numeric::poibin::DECONV_GUARD_BAND`] of ½, or error budget
        /// exceeded).
        pub pmf_rebuilds: usize,
        /// Full repairs: cache builds that recomputed everything — a pool's
        /// from-scratch build (including each pool's first build).
        pub full_repairs: usize,
        /// Materialised JER profiles repaired in place after a juror
        /// mutation (prefix entries reused verbatim, suffix re-derived from
        /// the nearest pmf-ladder checkpoint) instead of being dropped for
        /// an `O(N²)` rebuild.
        pub profile_repairs: usize,
        /// Candidate jury sizes eliminated by the warm AltrM bound sweep
        /// (`AltrAlg::solve_pruned`'s Paley–Zygmund vs Cantelli/Chernoff
        /// comparison) across all AltrM (re)solves — exact JER was never
        /// computed for these.
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
        /// Orphaned warm-artifact entries reaped by the TTL sweep — entries
        /// no pool held for longer than [`ServiceConfig::store_ttl`]. Stays
        /// zero under the default refcount-eviction policy.
        pub store_ttl_evictions: usize,
        /// Warm-up attaches served from a verified snapshot entry
        /// ([`ServiceConfig::snapshot_dir`]): the pool skipped its cold
        /// build because restored artifacts passed every verification gate.
        pub snapshot_restores: usize,
        /// Snapshot candidates *refused* at restore time — truncated or
        /// bit-flipped files, section/manifest checksum mismatches, version
        /// skew, key or content mismatches against the registering pool,
        /// and layout/config drift over known content. Each rejection falls
        /// back to the ordinary cold build.
        pub snapshot_rejections: usize,
        /// Restores refused by the staleness policy
        /// ([`ServiceConfig::max_snapshot_age`]): the snapshot generation
        /// was verified-restorable but too old (or unstamped), so the pool
        /// cold-built instead.
        pub stale_snapshot_skips: usize,
        /// Gauge (not a counter): the highest snapshot generation this
        /// service has observed — committed by its own writer or read from
        /// [`ServiceConfig::snapshot_dir`]. 0 until a generation exists
        /// (legacy `manifest.json` snapshots also read as 0).
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

impl ServiceStats {
    /// Folds one mutation's repair outcome into the counters.
    fn count_mutation(&mut self, effect: MutationEffect) {
        self.cache_invalidations += usize::from(effect.invalidated);
        self.order_repairs += usize::from(effect.orders_repaired);
        self.pmf_repairs += usize::from(effect.pmf_repaired);
        self.pmf_rebuilds += usize::from(effect.pmf_rebuilt);
        self.profile_repairs += usize::from(effect.profile_repaired);
        self.insert_repairs += usize::from(effect.insert_repaired);
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
#[derive(Debug, Default)]
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

/// The solver-relevant configuration bits entering every store key: the
/// knobs that change what a solver *outputs* (threads only change how
/// fast).
fn config_key(config: &ServiceConfig) -> u64 {
    let strategy = match config.altr.strategy {
        AltrStrategy::PaperRecompute => 0u64,
        AltrStrategy::Incremental => 1,
    };
    let engine = match config.altr.engine {
        JerEngine::Naive => 0u64,
        JerEngine::DynamicProgramming => 1,
        JerEngine::TailDp => 2,
        JerEngine::Convolution => 3,
        JerEngine::Auto => 4,
    };
    strategy
        | (u64::from(config.altr.use_lower_bound) << 1)
        | (engine << 2)
        | (u64::from(config.pay.strict_improvement) << 5)
}

impl JuryService {
    /// A service with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A service with explicit configuration. When
    /// [`ServiceConfig::snapshot_dir`] is set, the directory's manifest
    /// is read (once, here); entry files are opened lazily as matching
    /// content registers. A missing manifest is simply an empty catalog
    /// — a fresh directory restores nothing and rejects nothing.
    pub fn with_config(config: ServiceConfig) -> Self {
        let snapshots = config.snapshot_dir.as_deref().map(snapshot::Catalog::load);
        Self { config, snapshots, ..Self::default() }
    }

    /// The active configuration.
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
    /// unlisted ones (sharing off, or an arrangement an occupied key
    /// refused). Pool registrations themselves are rebuilt by the
    /// restarted process's own `create_pool` calls.
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
    /// cold start uses — adoption can never loosen verification).
    /// Warm pools are deliberately untouched: their in-flight answers
    /// stay bit-identical, and they pick the new generation up
    /// whenever they next go cold. Returns `None` when there is
    /// nothing newer (including an unreadable or empty directory —
    /// adoption never moves backwards); otherwise one
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
        if self.config.share_artifacts {
            let config_bits = config_key(&self.config);
            let max_age = self.config.max_snapshot_age;
            let Self { pools, store, stats, snapshots, .. } = &mut *self;
            // Anything warm keeps serving what it has.
            for entry in pools.values().filter(|entry| entry.cache.is_none()) {
                restore_into_store(
                    store,
                    snapshots.as_ref(),
                    &StoreKey { fp: entry.fp.key(), config: config_bits },
                    &entry.jurors,
                    max_age,
                    stats,
                );
            }
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
            self.store.release(link, self.config.store_ttl.is_some());
        }
        self.sweep_store_ttl();
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

    /// The current jurors of `pool` (selection member indices refer to
    /// positions in this slice).
    pub fn pool(&self, pool: PoolId) -> Result<&[Juror], ServiceError> {
        self.pools
            .get(&pool.0)
            .map(|entry| entry.jurors.as_slice())
            .ok_or(ServiceError::UnknownPool(pool))
    }

    /// Appends a juror; returns its position. A warm pool is repaired in
    /// place: one rank-insert per sorted order, one [`PoiBin::push`] per
    /// affected pmf-ladder checkpoint and an in-place profile repair;
    /// only the AltrM answer (re-solved rescan-free by the bound-pruned
    /// scan) and the budget staircase drop.
    pub fn insert_juror(&mut self, pool: PoolId, juror: Juror) -> Result<usize, ServiceError> {
        let entry = self.pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        entry.fp.insert(&juror);
        entry.jurors.push(juror);
        let pos = entry.jurors.len() - 1;
        self.repair_after_mutation(pool, |set, jurors| repair_flat_insert(set, jurors, pos));
        Ok(pos)
    }

    /// Replaces the juror at `index` (e.g. a re-estimated error rate).
    /// Warm state is *repaired in place*: both sorted orders get one
    /// remove + one rank-insert (`O(n)`, bit-identical to a re-sort),
    /// the pmf checkpoint ladder gets one factor division per affected
    /// checkpoint (numerically equal to a re-convolution; the
    /// deconvolution guard falls back to a rebuild, observable as
    /// [`ServiceStats::pmf_rebuilds`]). Only the lazily-derived artefacts
    /// whose answers may genuinely change (AltrM selection, budget
    /// staircase) are dropped; a materialised profile is repaired.
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
    /// unlisted only when sharing is off or an occupied key refuses it.
    fn repair_after_mutation(
        &mut self,
        pool: PoolId,
        repair: impl FnOnce(&mut ArtifactSet, &[Juror]) -> MutationEffect,
    ) {
        let ttl_enabled = self.config.store_ttl.is_some();
        let share = self.config.share_artifacts;
        let config_bits = config_key(&self.config);
        let Self { pools, store, stats, .. } = &mut *self;
        let entry = pools.get_mut(&pool.0).expect("mutations resolve the pool first");
        if let Some(link) = entry.cache.take() {
            stats.artifact_detaches += usize::from(store.lists(&link));
            let mut set = store.reclaim(link, ttl_enabled);
            stats.count_mutation(repair(&mut set, &entry.jurors));
            let key = StoreKey { fp: entry.fp.key(), config: config_bits };
            entry.cache = Some(match attach_flat(store, key, &entry.jurors) {
                Some(shared) => {
                    // Seed the entry's empty lazy slots with the
                    // just-repaired rank-space artifacts instead of
                    // dropping them — the whole cohort then skips the
                    // O(N²) rebuild (repair lineage is the documented
                    // numerical carve-out either way).
                    if let Some(ladder) = set.ladder.take() {
                        shared.set.set_ladder(ladder);
                    }
                    if let Some(profile) = set.profile.take() {
                        shared.set.set_profile(profile);
                    }
                    stats.artifact_rejoins += 1;
                    shared
                }
                None => list(store, key, set, share),
            });
        }
        self.sweep_store_ttl();
    }

    /// Runs the idle-orphan sweep when [`ServiceConfig::store_ttl`] is
    /// set: store entries no live pool holds (stamped at release time)
    /// are evicted once they have sat unclaimed past the TTL. A no-op
    /// under the default refcount policy, where orphans never outlive
    /// the releasing mutation. Called after every mutation and pool
    /// removal; also reachable directly via
    /// [`JuryService::sweep_artifact_ttl`] for idle services.
    fn sweep_store_ttl(&mut self) {
        if let Some(ttl) = self.config.store_ttl {
            self.stats.store_ttl_evictions += self.store.sweep_ttl(ttl);
        }
    }

    /// Explicitly sweeps TTL-expired orphan entries from the artifact
    /// store, returning how many were evicted this call. Mutations and
    /// pool removals sweep automatically; this entry point exists for
    /// services that go idle after a burst of churn and want the memory
    /// back without waiting for the next mutation. No-op (returns 0)
    /// when [`ServiceConfig::store_ttl`] is `None`.
    pub fn sweep_artifact_ttl(&mut self) -> usize {
        let before = self.stats.store_ttl_evictions;
        self.sweep_store_ttl();
        self.stats.store_ttl_evictions - before
    }

    // ------------------------------------------------------------------
    // Cache
    // ------------------------------------------------------------------

    /// Builds whatever cached state is cold: the pool's orders and AltrM
    /// answer (just the answer after an order repair — a bound-pruned
    /// rescan-free solve). Called automatically by the solve paths;
    /// exposed so benches can separate cold from warm.
    pub fn warm_pool(&mut self, pool: PoolId) -> Result<(), ServiceError> {
        let altr_config = self.config.altr;
        let mut scratch = self.scratches.pop().unwrap_or_default();
        let warmed = self.acquire(pool, |jurors, stats| {
            let built = build_full_cache(jurors, &altr_config, &mut scratch);
            stats.bound_pruned += altr_pruned(built.altr.get());
            stats.cache_builds += 1;
            stats.full_repairs += 1;
            built
        });
        if warmed.is_ok() {
            // Ensure the AltrM answer (attached orders-only entries and
            // repaired sets solve it here — rescan-free, bound-pruned).
            let Self { pools, stats, .. } = &mut *self;
            let PoolEntry { jurors, cache, .. } = &pools[&pool.0];
            let set = &cache.as_ref().expect("acquired above").set;
            if set.altr.get().is_none() {
                let answer = solve_altr_cached(jurors, &set.eps_order, &altr_config, &mut scratch);
                stats.bound_pruned += altr_pruned(Some(&answer));
                stats.cache_builds += 1;
                set.set_altr(answer);
            }
        }
        self.scratches.push(scratch);
        warmed
    }

    /// Warms only the sorted orders: an orders-only attach or build for
    /// a cold pool, so order consumers like [`JuryService::jer_probe`]
    /// and PayM tasks never pay for the pmf-derived artefacts they do
    /// not read. An attach shares whatever the entry already holds; an
    /// orders-only build is published with its lazy slots empty, filled
    /// later by whichever attached pool first needs them.
    fn warm_orders(&mut self, pool: PoolId) -> Result<(), ServiceError> {
        self.acquire(pool, |jurors, _| build_orders_only(jurors))
    }

    /// The one place a cold pool acquires warm state: a verified
    /// snapshot entry is restored into the store, then the pool attaches
    /// to the interned entry when the store admits it, and otherwise
    /// runs `build` and lists the result (an occupied key that refused
    /// the attach keeps its incumbent, and the built set stays
    /// unlisted). A warm pool is left as it is.
    fn acquire(
        &mut self,
        pool: PoolId,
        build: impl FnOnce(&[Juror], &mut ServiceStats) -> ArtifactSet,
    ) -> Result<(), ServiceError> {
        let share = self.config.share_artifacts;
        let config_bits = config_key(&self.config);
        let max_age = self.config.max_snapshot_age;
        let Self { pools, store, stats, snapshots, .. } = &mut *self;
        let PoolEntry { jurors, cache, fp } =
            pools.get_mut(&pool.0).ok_or(ServiceError::UnknownPool(pool))?;
        if cache.is_none() {
            let key = StoreKey { fp: fp.key(), config: config_bits };
            if share {
                restore_into_store(store, snapshots.as_ref(), &key, jurors, max_age, stats);
            }
            *cache = Some(match attach_flat(store, key, jurors) {
                Some(link) => {
                    stats.artifact_share_hits += 1;
                    link
                }
                None => list(store, key, build(jurors, stats), share),
            });
        }
        Ok(())
    }

    /// Drops every piece of `pool`'s warm state — orders, ladder,
    /// profile, staircase and any store attachment — so the next
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
            self.store.release(link, self.config.store_ttl.is_some());
        }
        Ok(())
    }

    /// Whether `pool`'s cache is currently warm: orders and the AltrM
    /// answer present (the profile and ladder stay lazy).
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

    /// The cached odd-size JER profile of `pool` (computed on demand):
    /// `(n, JER of the n lowest-ε jurors)` for `n = 1, 3, 5, …`. After
    /// juror mutations a materialised profile is *repaired in place* —
    /// entries whose prefix is untouched are reused verbatim, the suffix
    /// resumes from the pmf ladder — so repaired entries are only
    /// *numerically* equal to a rebuild (within [`PROBE_REPAIR_TOL`],
    /// like [`jer_probe`](JuryService::jer_probe); see the crate docs).
    pub fn jer_profile(&mut self, pool: PoolId) -> Result<&[(usize, f64)], ServiceError> {
        self.warm_pool(pool)?;
        // One build serves every attacher. The ladder is laid alongside
        // so a later mutation repairs it (and resumes the profile repair
        // from it) instead of rebuilding.
        let set = self.warm_set(pool);
        let profile = set.profile_or_init(|| {
            set.ladder_or_init(|| PmfLadder::build(&set.eps_sorted));
            JerProfile::build(&set.eps_sorted)
        });
        Ok(profile.entries())
    }

    /// The cached reliability order of `pool`: positions sorted ascending
    /// by ε (ties by position). `order[..k]` is the best fixed-size-`k`
    /// jury by Lemma 3.
    pub fn reliability_order(&mut self, pool: PoolId) -> Result<&[usize], ServiceError> {
        self.warm_pool(pool)?;
        Ok(&self.warm_set(pool).eps_order)
    }

    /// JER of the best `n`-juror jury of `pool` (odd `n`, clamped to the
    /// largest feasible odd size like
    /// [`AltrAlg::solve_fixed_size`]) — a point query on the Figure 3(a)
    /// curve without materialising the whole profile.
    ///
    /// The prefix distribution resumes from the pool's checkpoint ladder
    /// (built on the first probe). After deconvolution-repaired
    /// mutations the answer is within [`PROBE_REPAIR_TOL`] of a
    /// from-scratch evaluation, so this query is *numerically* stable
    /// but deliberately outside the bit-identity contract (see the crate
    /// docs).
    ///
    /// Probing warms only what it reads: on a cold pool the sorted
    /// orders are built (`O(N log N)`) *without* the `O(N²)` profile and
    /// AltrM solve; a later [`JuryService::warm_pool`] reuses them.
    ///
    /// # Errors
    /// [`ServiceError::UnknownPool`], or the solver errors an invalid
    /// size produces ([`JuryError::EmptyPool`], [`JuryError::EmptyJury`],
    /// [`JuryError::EvenJurySize`]).
    pub fn jer_probe(&mut self, pool: PoolId, n: usize) -> Result<f64, ServiceError> {
        self.warm_orders(pool)?;
        let len = self.pools[&pool.0].jurors.len();
        if len == 0 {
            return Err(ServiceError::Solver(JuryError::EmptyPool));
        }
        if n == 0 {
            return Err(ServiceError::Solver(JuryError::EmptyJury));
        }
        if n.is_multiple_of(2) {
            return Err(ServiceError::Solver(JuryError::EvenJurySize(n)));
        }
        let n = n.min(if len % 2 == 1 { len } else { len - 1 });
        let set = self.warm_set(pool);
        let ladder = set.ladder_or_init(|| PmfLadder::build(&set.eps_sorted));
        let mut pmf = PoiBin::empty();
        ladder.prefix_into(&set.eps_sorted, n, &mut pmf);
        Ok(pmf.tail(JerEngine::majority_threshold(n)))
    }

    // ------------------------------------------------------------------
    // Solving
    // ------------------------------------------------------------------

    /// Solves one task, warming the pool cache if needed.
    ///
    /// Members, JER and cost are bit-identical to [`AltrAlg::solve`] /
    /// [`PayAlg::solve`] on the pool's current jurors (AltrM solver
    /// *stats* reflect the service's bound-pruned scan;
    /// see the crate docs). A warm PayM task whose budget falls inside a
    /// recorded staircase step is answered without a greedy rescan
    /// ([`ServiceStats::staircase_hits`]); a PayM task never builds the
    /// pmf artefacts AltrM needs. A warm AltrM task whose pool was
    /// mutated re-solves rescan-free: a bound sweep plus exact JER at
    /// the surviving sizes only — never a full `O(N²)` rescan, and never
    /// a full cache rebuild ([`ServiceStats::full_repairs`] stays put).
    pub fn solve(&mut self, task: &DecisionTask) -> Result<Selection, ServiceError> {
        if let CrowdModel::PayAsYouGo { budget } = task.model {
            return self.solve_paym(task.pool, budget, true);
        }
        self.solve_altr_arc(task, true).map(Arc::unwrap_or_clone)
    }

    /// One task through the single-solve machinery, returning the shared
    /// answer — the per-task body of [`JuryService::solve`] and of the
    /// small-batch inline path (`count_hit` lets the batch path keep its
    /// "warm before the batch" cache-hit semantics).
    fn solve_one_arc(
        &mut self,
        task: &DecisionTask,
        count_hit: bool,
    ) -> Result<Arc<Selection>, ServiceError> {
        match task.model {
            CrowdModel::PayAsYouGo { budget } => {
                self.solve_paym(task.pool, budget, count_hit).map(Arc::new)
            }
            CrowdModel::Altruism => self.solve_altr_arc(task, count_hit),
        }
    }

    /// The AltrM single-solve path (shared answer out).
    fn solve_altr_arc(
        &mut self,
        task: &DecisionTask,
        count_hit: bool,
    ) -> Result<Arc<Selection>, ServiceError> {
        let was_warm = self.is_warm(task.pool);
        let had_orders = self.has_orders(task.pool);
        let full_repairs_before = self.stats.full_repairs;
        self.warm_pool(task.pool)?;
        if had_orders {
            debug_assert_eq!(
                self.stats.full_repairs, full_repairs_before,
                "an AltrM re-solve on warm orders must never trigger a full repair"
            );
        }
        let mut scratch = self.scratches.pop().unwrap_or_default();
        let result = solve_on_entry(&self.pools[&task.pool.0], task, &self.config, &mut scratch);
        self.scratches.push(scratch);
        self.stats.tasks_solved += 1;
        if count_hit && was_warm {
            self.stats.cache_hits += 1;
        }
        result
    }

    /// The PayM solve path: orders-only warming, then the staircase.
    fn solve_paym(
        &mut self,
        pool: PoolId,
        budget: f64,
        count_hit: bool,
    ) -> Result<Selection, ServiceError> {
        let was_warm = self.has_orders(pool);
        let full_repairs_before = self.stats.full_repairs;
        self.warm_orders(pool)?;
        if was_warm {
            debug_assert_eq!(
                self.stats.full_repairs, full_repairs_before,
                "a pure-budget-change PayM task must never trigger a full repair"
            );
        }
        self.stats.tasks_solved += 1;
        if count_hit && was_warm {
            self.stats.cache_hits += 1;
        }
        let pay = PayAlg::new(budget, self.config.pay);
        let mut scratch = self.scratches.pop().unwrap_or_default();
        let jurors = &self.pools[&pool.0].jurors;
        let set = self.warm_set(pool);
        let mut hit = false;
        let result = set.record_staircase(|staircase| {
            hit = staircase.covers(budget);
            pay.solve_staircase(jurors, &set.greedy_order, staircase, &mut scratch)
        });
        self.scratches.push(scratch);
        if hit {
            self.stats.staircase_hits += 1;
        }
        result.map_err(ServiceError::from)
    }

    /// Solves a batch of tasks, preserving order.
    ///
    /// All referenced pools are warmed first (sequentially — warming
    /// mutates the registry; pools referenced by AltrM tasks get their
    /// AltrM answer solved once here rather than per worker), then the
    /// tasks fan out over `config.threads` scoped
    /// workers (capped so each receives at least 32 tasks, the private
    /// `MIN_TASKS_PER_WORKER`), each with a persistent
    /// [`SolverScratch`]; on a warm cache a task's solver path performs
    /// no heap allocation beyond the returned [`Selection`].
    ///
    /// Every result is an owned [`Selection`] — on replay-heavy AltrM
    /// traffic that is one member-list copy per task;
    /// [`JuryService::solve_batch_shared`] skips those copies.
    pub fn solve_batch(&mut self, tasks: &[DecisionTask]) -> Vec<Result<Selection, ServiceError>> {
        self.solve_batch_arcs(tasks, None)
            .into_iter()
            .map(|r| r.map(Arc::unwrap_or_clone))
            .collect()
    }

    /// [`JuryService::solve_batch`] with *shared* results: tasks that
    /// replay the same cached AltrM answer receive clones of one
    /// [`Arc`], so a batch of a thousand identical decision tasks costs
    /// a thousand reference bumps instead of a thousand member-list
    /// copies — the allocation traffic behind the `service_throughput`
    /// large-batch collapse. Fresh solves (cold pools, staircase misses)
    /// are wrapped in a new [`Arc`]; the [`Selection`] values are
    /// bit-identical to [`JuryService::solve_batch`]'s either way.
    pub fn solve_batch_shared(
        &mut self,
        tasks: &[DecisionTask],
    ) -> Vec<Result<Arc<Selection>, ServiceError>> {
        self.solve_batch_arcs(tasks, None)
    }

    /// [`JuryService::solve_batch_shared`] with a per-task timing hook:
    /// `per_task_solve` is cleared and refilled with one wall-clock
    /// duration per task, measuring only that task's *solver* time —
    /// front-ends subtract it from end-to-end latency to separate
    /// queueing delay from solve time. The shared warm phase (pool
    /// warming, staircase recording) is deliberately excluded: it is
    /// batch-level work no single task owns, so each task's duration is
    /// its marginal cost on an already-warm service. The untimed entry
    /// points compile out the clock reads entirely — replay-heavy hot
    /// paths pay nothing for this hook existing.
    pub fn solve_batch_shared_timed(
        &mut self,
        tasks: &[DecisionTask],
        per_task_solve: &mut Vec<Duration>,
    ) -> Vec<Result<Arc<Selection>, ServiceError>> {
        per_task_solve.clear();
        per_task_solve.resize(tasks.len(), Duration::ZERO);
        self.solve_batch_arcs(tasks, Some(per_task_solve))
    }

    fn solve_batch_arcs(
        &mut self,
        tasks: &[DecisionTask],
        timings: Option<&mut Vec<Duration>>,
    ) -> Vec<Result<Arc<Selection>, ServiceError>> {
        // Small batches (notably batch = 1, the interactive case) skip
        // the batch machinery entirely — no repeated-budget scan, no
        // dedup vectors, no worker spawn/chunking — and solve inline on
        // the caller thread with the per-service scratch, exactly like
        // [`JuryService::solve`]. This removes the small-pool batch-1
        // regression where the warm-phase bookkeeping cost more than the
        // solve itself.
        if tasks.len() < MIN_TASKS_PER_WORKER {
            self.stats.batches += 1;
            // Keep the batch semantics for hits and attempts: a hit is a
            // task whose needed state was warm before this batch did any
            // warming, and every task counts as a solved attempt even
            // when it fails (unknown pools included).
            self.stats.cache_hits += tasks.iter().filter(|t| self.is_warm_for(t)).count();
            let solved_before = self.stats.tasks_solved;
            let out = match timings {
                None => tasks.iter().map(|task| self.solve_one_arc(task, false)).collect(),
                Some(buf) => tasks
                    .iter()
                    .zip(buf.iter_mut())
                    .map(|(task, slot)| {
                        let started = Instant::now();
                        let result = self.solve_one_arc(task, false);
                        *slot = started.elapsed();
                        result
                    })
                    .collect(),
            };
            self.stats.tasks_solved = solved_before + tasks.len();
            return out;
        }

        self.stats.batches += 1;
        self.stats.tasks_solved += tasks.len();
        // A hit is a task whose needed state was warm before this batch
        // did any warming of its own.
        self.stats.cache_hits += tasks.iter().filter(|t| self.is_warm_for(t)).count();

        // Distinct PayM `(pool, budget)` pairs and their multiplicity:
        // only pairs that *repeat* in this batch are worth a sequential
        // staircase-recording scan in the warm phase — a singleton is
        // scanned exactly once by a worker anyway (in parallel), and can
        // record its step on a later single-solve miss instead.
        let mut paym_pairs: Vec<((u64, u64), usize)> = Vec::new();
        for task in tasks {
            if let CrowdModel::PayAsYouGo { budget } = task.model {
                let key = (task.pool.0, budget.to_bits());
                match paym_pairs.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, count)) => *count += 1,
                    None => paym_pairs.push((key, 1)),
                }
            }
        }

        // Warm every referenced pool once — AltrM tasks fully (solved
        // artefacts included), PayM tasks orders-only plus the repeated
        // budgets' staircase steps, recorded here sequentially so the
        // workers replay them read-only. Unknown pools fail per-task
        // below so the batch result stays positional.
        let mut warmed: Vec<u64> = Vec::with_capacity(tasks.len().min(self.pools.len()));
        let mut orders_warmed: Vec<u64> = Vec::new();
        let mut budgets_recorded: Vec<(u64, u64)> = Vec::new();
        for task in tasks {
            match task.model {
                CrowdModel::Altruism => {
                    if !warmed.contains(&task.pool.0) {
                        warmed.push(task.pool.0);
                        let _ = self.warm_pool(task.pool);
                    }
                }
                CrowdModel::PayAsYouGo { budget } => {
                    if !warmed.contains(&task.pool.0) && !orders_warmed.contains(&task.pool.0) {
                        orders_warmed.push(task.pool.0);
                        let _ = self.warm_orders(task.pool);
                    }
                    let key = (task.pool.0, budget.to_bits());
                    let repeats = paym_pairs.iter().find(|(k, _)| *k == key).map_or(0, |&(_, c)| c);
                    if self.staircase_covers(task.pool, budget) {
                        self.stats.staircase_hits += 1;
                    } else if repeats > 1
                        && budgets_recorded.len() < MAX_BATCH_STAIRCASE_SCANS
                        && !budgets_recorded.contains(&key)
                    {
                        budgets_recorded.push(key);
                        self.record_staircase_step(task.pool, budget);
                    }
                }
            }
        }

        // Coarse partitioning: never spawn a worker for fewer than
        // MIN_TASKS_PER_WORKER tasks — see the constant's docs.
        let threads =
            self.effective_threads().min(tasks.len().div_ceil(MIN_TASKS_PER_WORKER)).max(1);
        if threads == 1 {
            let mut scratch = self.scratches.pop().unwrap_or_default();
            let out: Vec<_> = match timings {
                None => tasks.iter().map(|task| self.solve_prewarmed(task, &mut scratch)).collect(),
                Some(buf) => tasks
                    .iter()
                    .zip(buf.iter_mut())
                    .map(|(task, slot)| {
                        let started = Instant::now();
                        let result = self.solve_prewarmed(task, &mut scratch);
                        *slot = started.elapsed();
                        result
                    })
                    .collect(),
            };
            self.scratches.push(scratch);
            return out;
        }

        // Hand each worker a persistent scratch; collect them all back
        // after the scope (including any spares beyond the chunk count)
        // so the next batch starts warm.
        let mut scratches = std::mem::take(&mut self.scratches);
        scratches.resize_with(threads, SolverScratch::default);
        let chunk_len = tasks.len().div_ceil(threads);
        let n_chunks = tasks.len().div_ceil(chunk_len);
        let pools = &self.pools;
        let config = &self.config;

        let mut timing_chunks: Vec<Option<&mut [Duration]>> = match timings {
            Some(buf) => buf.chunks_mut(chunk_len).map(Some).collect(),
            None => (0..n_chunks).map(|_| None).collect(),
        };

        let mut out = Vec::with_capacity(tasks.len());
        let mut returned = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for ((chunk, mut scratch), timing) in tasks
                .chunks(chunk_len)
                .zip(scratches.drain(..n_chunks))
                .zip(timing_chunks.drain(..))
            {
                handles.push(scope.spawn(move || {
                    let solve_one = |task: &DecisionTask, scratch: &mut SolverScratch| match pools
                        .get(&task.pool.0)
                    {
                        None => Err(ServiceError::UnknownPool(task.pool)),
                        Some(entry) => solve_on_entry(entry, task, config, scratch),
                    };
                    let results: Vec<_> = match timing {
                        None => chunk.iter().map(|task| solve_one(task, &mut scratch)).collect(),
                        Some(slots) => chunk
                            .iter()
                            .zip(slots.iter_mut())
                            .map(|(task, slot)| {
                                let started = Instant::now();
                                let result = solve_one(task, &mut scratch);
                                *slot = started.elapsed();
                                result
                            })
                            .collect(),
                    };
                    (results, scratch)
                }));
            }
            for handle in handles {
                let (results, scratch) = handle.join().expect("service worker panicked");
                out.extend(results);
                returned.push(scratch);
            }
        });
        returned.append(&mut scratches);
        self.scratches = returned;
        out
    }

    /// Whether the pool's warm staircase already covers `budget`.
    fn staircase_covers(&self, pool: PoolId, budget: f64) -> bool {
        self.pools
            .get(&pool.0)
            .and_then(|entry| entry.cache.as_ref())
            .is_some_and(|link| link.set.staircase_read().covers(budget))
    }

    /// Runs one staircase-recording scan for `(pool, budget)` so batch
    /// workers can replay the step read-only. Solver errors are ignored
    /// here — the per-task solve reports them positionally.
    fn record_staircase_step(&mut self, pool: PoolId, budget: f64) {
        let pay = PayAlg::new(budget, self.config.pay);
        let mut scratch = self.scratches.pop().unwrap_or_default();
        if let Some(PoolEntry { jurors, cache: Some(link), .. }) = self.pools.get(&pool.0) {
            let set = &link.set;
            set.record_staircase(|staircase| {
                let _ = pay.solve_staircase(jurors, &set.greedy_order, staircase, &mut scratch);
            });
        }
        self.scratches.push(scratch);
    }

    /// Single-task solve assuming `warm_pool` already ran for its pool.
    fn solve_prewarmed(
        &self,
        task: &DecisionTask,
        scratch: &mut SolverScratch,
    ) -> Result<Arc<Selection>, ServiceError> {
        match self.pools.get(&task.pool.0) {
            None => Err(ServiceError::UnknownPool(task.pool)),
            Some(entry) => solve_on_entry(entry, task, &self.config, scratch),
        }
    }

    fn effective_threads(&self) -> usize {
        if self.config.threads != 0 {
            return self.config.threads;
        }
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    }
}

/// Solves AltrM over a cached ε-sorted order, with the
/// bound-pruned rescan-free scan whenever the configured strategy is the
/// default [`AltrStrategy::Incremental`] — members, JER and cost are
/// bit-identical either way (`AltrAlg::solve_pruned`'s contract), only
/// the [`jury_core::SolverStats`] reflect which scan ran. Other
/// strategies run the configured presorted scan verbatim. The answer is
/// wrapped for shared replay.
fn solve_altr_cached(
    jurors: &[Juror],
    order: &[usize],
    config: &AltrConfig,
    scratch: &mut SolverScratch,
) -> AltrAnswer {
    let alg = AltrAlg::new(*config);
    let result = if config.strategy == AltrStrategy::Incremental {
        alg.solve_pruned(jurors, order, scratch)
    } else {
        alg.solve_presorted(jurors, order, scratch)
    };
    result.map(Arc::new)
}

/// How many candidate sizes an AltrM answer's scan pruned by bounds.
fn altr_pruned(answer: Option<&AltrAnswer>) -> usize {
    match answer {
        Some(Ok(sel)) => sel.stats.pruned_by_bound,
        _ => 0,
    }
}

/// Builds every eagerly-cached artefact for one flat-pool snapshot:
/// the sorted orders plus the AltrM answer (profile and ladder stay
/// lazy).
fn build_full_cache(
    jurors: &[Juror],
    altr: &AltrConfig,
    scratch: &mut SolverScratch,
) -> ArtifactSet {
    build_cache(jurors, |eps_order| Some(solve_altr_cached(jurors, eps_order, altr, scratch)))
}

/// Builds just the sorted orders (no solve, no profile) — the cache
/// state an `update_juror` repair also leaves behind; `warm_pool`
/// completes it with a rescan-free bound-pruned solve on demand.
fn build_orders_only(jurors: &[Juror]) -> ArtifactSet {
    build_cache(jurors, |_| None)
}

/// Sorts both orders, running `solve_altr` on the ε order before the
/// greedy sort. The order matters at scale: the AltrM scan evicts the
/// jurors from cache, and the greedy sort's reads bring them back for
/// the PayM scan that usually follows a cold build.
fn build_cache(
    jurors: &[Juror],
    solve_altr: impl FnOnce(&[usize]) -> Option<AltrAnswer>,
) -> ArtifactSet {
    let mut eps_order = Vec::with_capacity(jurors.len());
    jury_core::solver::sorted_order_into(jurors, &mut eps_order);
    let eps_sorted = eps_order.iter().map(|&i| jurors[i].epsilon()).collect();
    let altr = solve_altr(&eps_order);
    let mut greedy_order = Vec::with_capacity(jurors.len());
    PayAlg::greedy_order_into(jurors, &mut greedy_order);
    let seq = jurors.iter().map(juror_content).collect();
    ArtifactSet::from_parts(
        seq,
        eps_order,
        eps_sorted,
        greedy_order,
        altr,
        None,
        None,
        Staircase::new(),
    )
}

/// Dispatches one task against a warm (or deliberately cold) entry.
///
/// AltrM replays the cached selection by bumping its [`Arc`] (the
/// owned-result APIs copy it out afterwards); PayM replays the cached
/// greedy order through the scratch-threaded scan. A cold cache
/// (possible when `warm_pool` was skipped for an unknown pool that has
/// since appeared) falls back to the direct solver — same selections
/// either way.
fn solve_on_entry(
    entry: &PoolEntry,
    task: &DecisionTask,
    config: &ServiceConfig,
    scratch: &mut SolverScratch,
) -> Result<Arc<Selection>, ServiceError> {
    let jurors = &entry.jurors;
    let result = match (task.model, &entry.cache) {
        (CrowdModel::PayAsYouGo { budget }, Some(link)) => {
            let pay = PayAlg::new(budget, config.pay);
            link.set
                .staircase_read()
                .lookup(budget)
                .unwrap_or_else(|| pay.solve_presorted(jurors, &link.set.greedy_order, scratch))
                .map(Arc::new)
        }
        (CrowdModel::Altruism, Some(link)) => {
            // `altr_or_init` is thread-safe: the first worker to need an
            // unfilled answer solves it once for every attached pool.
            let set = &link.set;
            set.altr_or_init(|| solve_altr_cached(jurors, &set.eps_order, &config.altr, scratch))
                .clone()
        }
        (CrowdModel::PayAsYouGo { budget }, None) => {
            PayAlg::new(budget, config.pay).solve_with(jurors, scratch).map(Arc::new)
        }
        (CrowdModel::Altruism, None) => {
            AltrAlg::new(config.altr).solve_with(jurors, scratch).map(Arc::new)
        }
    };
    result.map_err(ServiceError::from)
}

/// Seeds the store from the snapshot catalog before an attach: when
/// `key` is not interned and the catalog holds a candidate, the first
/// fully-verified entry is published so the ordinary attach path that
/// follows finds it warm. Counts into the two snapshot stats; a
/// rejected or absent candidate simply leaves the store unchanged (the
/// caller cold-builds). No-op without a catalog or when the key is
/// already interned (live state always wins).
fn restore_into_store(
    store: &mut ArtifactStore,
    catalog: Option<&snapshot::Catalog>,
    key: &StoreKey,
    jurors: &[Juror],
    max_age: Option<Duration>,
    stats: &mut ServiceStats,
) {
    let Some(catalog) = catalog else { return };
    if store.contains(key) {
        return;
    }
    // The staleness gate runs before any file is opened: a too-old (or
    // unstamped, under an explicit policy) generation is skipped —
    // counted, never an error — and the pool cold-builds. Only pools
    // the snapshot could actually have served count a skip.
    if catalog.has_candidates(&key.fp) && catalog.is_stale(max_age) {
        stats.stale_snapshot_skips += 1;
        return;
    }
    let attempt = catalog.restore(key, jurors);
    stats.snapshot_rejections += attempt.rejections;
    if let Some(set) = attempt.set {
        if store.publish(*key, &Arc::new(set)) {
            stats.snapshot_restores += 1;
        }
    }
}

/// Wraps a freshly built or repaired set as its pool's link, listing it
/// under `key` when sharing is on and the key is vacant (an occupied key
/// keeps its incumbent and the set stays unlisted — see
/// [`ArtifactStore::publish`]).
fn list(store: &mut ArtifactStore, key: StoreKey, set: ArtifactSet, share: bool) -> StoreLink {
    let set = Arc::new(set);
    if share {
        store.publish(key, &set);
    }
    StoreLink { key, set }
}

/// Attaches a flat pool to the interned entry at `key` when the entry's
/// founding sequence equals the pool's ([`ArtifactSet::match_pool`]).
/// Returns `None` when there is no entry or the content differs (a
/// collision, or the same multiset in another arrangement). The single
/// place the attach rule lives — registration
/// ([`JuryService::warm_pool`] / [`JuryService::warm_orders`]) and
/// post-mutation re-join ([`JuryService::repair_after_mutation`]) both
/// route through it. With sharing off the store is empty, so this never
/// attaches.
fn attach_flat(store: &ArtifactStore, key: StoreKey, jurors: &[Juror]) -> Option<StoreLink> {
    let set = store.get(&key).filter(|set| set.match_pool(jurors))?;
    Some(StoreLink { key, set })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut tasks = Vec::new();
        for i in 0..40 {
            tasks.push(match i % 4 {
                0 => DecisionTask::altruism(a),
                1 => DecisionTask::altruism(b),
                2 => DecisionTask::pay_as_you_go(a, 0.1 + i as f64 / 20.0),
                _ => DecisionTask::pay_as_you_go(b, f64::MAX),
            });
        }
        let results = service.solve_batch(&tasks);
        assert_eq!(results.len(), tasks.len());
        for (task, result) in tasks.iter().zip(&results) {
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
    }

    #[test]
    fn jer_profile_is_cached_and_correct() {
        let mut service = JuryService::new();
        let jurors = pool_from_rates(&[0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]).unwrap();
        let pool = service.create_pool(jurors.clone());
        let profile = service.jer_profile(pool).unwrap().to_vec();
        assert_eq!(profile, AltrAlg::jer_profile(&jurors));
        assert_eq!(profile.iter().map(|&(n, _)| n).collect::<Vec<_>>(), vec![1, 3, 5, 7]);
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
        // differ only in budget must never trigger a full repair (the
        // debug_assert in solve_paym enforces it in debug builds) and,
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
        // Three distinct budgets scanned once each in the warm phase; the
        // other 27 tasks replayed their steps.
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
    fn only_recorded_staircase_steps_mark_a_shared_entry_dirty() {
        // The snapshot writer re-encodes an entry whose mutation version
        // moved, so a covered-budget replay must leave it alone.
        let mut service = JuryService::new();
        let pool = service.create_pool(figure1());
        service.warm_pool(pool).unwrap();
        let version = |service: &JuryService| service.warm_set(pool).mutation_version();
        let before = version(&service);
        service.solve(&DecisionTask::pay_as_you_go(pool, 1.0)).unwrap();
        let recorded = version(&service);
        assert!(recorded > before, "an uncovered budget records a step");
        service.solve(&DecisionTask::pay_as_you_go(pool, 1.0)).unwrap();
        service.record_staircase_step(pool, 1.0);
        assert_eq!(service.stats().staircase_hits, 1);
        assert_eq!(version(&service), recorded, "covered budgets leave the entry clean");
        service.record_staircase_step(pool, 0.3);
        assert!(version(&service) > recorded, "a new step marks it dirty again");
    }

    #[test]
    fn altr_resolve_after_update_never_full_repairs() {
        // The counter gate: a pure AltrM re-solve after one juror update
        // must ride the repaired orders and the bound-pruned scan — no
        // full rebuild, ever (the debug_assert in `solve` enforces it in
        // debug builds; this pins the counters in any build).
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
    fn profile_repairs_in_place_within_tolerance() {
        let rates: Vec<f64> = (0..180).map(|i| 0.03 + ((i * 29) % 90) as f64 / 100.0).collect();
        let mut service = JuryService::new();
        let pool = service.create_pool(pool_from_rates(&rates).unwrap());
        // Materialise the profile (and its resume ladder).
        let cold = service.jer_profile(pool).unwrap().to_vec();
        assert_eq!(cold.len(), rates.len().div_ceil(2));

        // Update, insert and remove must repair — not drop — it.
        service.update_juror(pool, 40, Juror::new(40, ErrorRate::new(0.07).unwrap(), 0.1)).unwrap();
        assert_eq!(service.stats().profile_repairs, 1);
        service.insert_juror(pool, Juror::new(500, ErrorRate::new(0.42).unwrap(), 0.2)).unwrap();
        assert_eq!(service.stats().profile_repairs, 2);
        service.remove_juror(pool, 11).unwrap();
        assert_eq!(service.stats().profile_repairs, 3);

        let repaired = service.jer_profile(pool).unwrap().to_vec();
        assert_eq!(service.stats().profile_repairs, 3, "reads must not rebuild");
        let fresh = {
            let mut other = JuryService::new();
            let p = other.create_pool(service.pool(pool).unwrap().to_vec());
            other.jer_profile(p).unwrap().to_vec()
        };
        assert_eq!(repaired.len(), fresh.len());
        for ((rn, rj), (fn_, fj)) in repaired.iter().zip(&fresh) {
            assert_eq!(rn, fn_);
            assert!((rj - fj).abs() < PROBE_REPAIR_TOL, "n={rn}: repaired {rj} vs fresh {fj}");
        }
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
    fn jer_probe_survives_mutation_repairs_within_tolerance() {
        let rates: Vec<f64> = (0..200).map(|i| 0.03 + ((i * 29) % 90) as f64 / 100.0).collect();
        let direct_probe = |jurors: &[Juror], n: usize| {
            let mut order = Vec::new();
            jury_core::solver::sorted_order_into(jurors, &mut order);
            let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
            PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n))
        };
        let mut service = JuryService::new();
        let pool = service.create_pool(pool_from_rates(&rates).unwrap());
        // First probe lays the ladder.
        service.jer_probe(pool, 65).unwrap();

        // A well-conditioned update is repaired by deconvolution.
        service.update_juror(pool, 10, Juror::new(10, ErrorRate::new(0.07).unwrap(), 0.0)).unwrap();
        let stats = service.stats();
        assert_eq!((stats.pmf_repairs, stats.pmf_rebuilds), (1, 0));

        // Park a ½-mass-degenerate rate, then move it away: removing the
        // 0.5 factor trips the guard and exercises the rebuild fallback.
        service.update_juror(pool, 20, Juror::new(20, ErrorRate::new(0.5).unwrap(), 0.0)).unwrap();
        service.update_juror(pool, 20, Juror::new(20, ErrorRate::new(0.9).unwrap(), 0.0)).unwrap();
        let stats = service.stats();
        assert_eq!((stats.pmf_repairs, stats.pmf_rebuilds), (2, 1));

        // A removal repairs too, and every probe stays within the
        // documented bound of a from-scratch evaluation.
        service.remove_juror(pool, 100).unwrap();
        let jurors = service.pool(pool).unwrap().to_vec();
        for n in [1usize, 63, 65, 129, 199] {
            let probed = service.jer_probe(pool, n).unwrap();
            let direct = direct_probe(&jurors, n);
            assert!((probed - direct).abs() < PROBE_REPAIR_TOL, "n={n}: {probed} vs {direct}");
        }
    }

    #[test]
    fn jer_probe_matches_profile() {
        let rates: Vec<f64> = (0..33).map(|i| 0.04 + ((i * 17) % 80) as f64 / 100.0).collect();
        let jurors = pool_from_rates(&rates).unwrap();
        let mut flat = JuryService::new();
        let fp = flat.create_pool(jurors);
        let profile = flat.jer_profile(fp).unwrap().to_vec();
        for (n, jer) in profile {
            let f = flat.jer_probe(fp, n).unwrap();
            assert!((f - jer).abs() < 1e-9, "probe n={n}: {f} vs {jer}");
        }
        // Oversized probes clamp; invalid sizes error like the solvers.
        assert_eq!(flat.jer_probe(fp, 999), flat.jer_probe(fp, 33));
        assert_eq!(flat.jer_probe(fp, 0), Err(ServiceError::Solver(JuryError::EmptyJury)));
        assert_eq!(flat.jer_probe(fp, 4), Err(ServiceError::Solver(JuryError::EvenJurySize(4))));
        let empty = flat.create_pool(vec![]);
        assert_eq!(flat.jer_probe(empty, 1), Err(ServiceError::Solver(JuryError::EmptyPool)));
    }

    #[test]
    fn jer_probe_falls_back_beyond_ladder_coverage() {
        use crate::ladder::LADDER_MAX;
        // Probes more than two checkpoint spacings past the ladder's end
        // take the batch branch of `prefix_into` and must still agree
        // with a direct evaluation.
        let rates: Vec<f64> = (0..LADDER_MAX + 300)
            .map(|i| 0.02 + 0.9 * ((i as f64 * 0.618_033_988_749_894_9) % 1.0))
            .collect();
        let jurors = pool_from_rates(&rates).unwrap();
        let mut service = JuryService::new();
        let pool = service.create_pool(jurors.clone());
        let n = LADDER_MAX + 201;
        let mut order = Vec::new();
        jury_core::solver::sorted_order_into(&jurors, &mut order);
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        let direct = PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n));
        let probed = service.jer_probe(pool, n).unwrap();
        assert!((probed - direct).abs() < 1e-9, "n={n}: {probed} vs {direct}");
    }
}
