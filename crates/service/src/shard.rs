//! Pool sharding: million-candidate pools partitioned into K shards.
//!
//! A flat [`PoolCache`](crate) recomputes everything on any mutation; at
//! 10⁶ candidates one re-sort per juror update is already prohibitive,
//! and the eager JER profile is `O(N²)`. [`ShardedPool`] bounds the blast
//! radius of a mutation to the **owning shard**:
//!
//! * each shard caches its own ε-sorted order, greedy PayM frontier and a
//!   ladder of prefix Poisson-binomial pmfs over its sorted rates
//!   ([`PmfLadder`]);
//! * the global ε order / greedy order are K-way merges of the per-shard
//!   runs ([`jury_core::merge`]) — comparisons only, no float
//!   re-evaluation, so the merged permutations equal the flat sort's
//!   exactly and the solvers' presorted entry points produce
//!   **bit-identical** selections; the merged greedy order additionally
//!   carries the PayM budget [`Staircase`], answering warm PayM tasks by
//!   binary search instead of a greedy rescan;
//! * every mutation is *repaired in place*: an insert is one
//!   rank-insert per sorted run (shard and merged) plus one
//!   [`PoiBin::push`] per affected ladder checkpoint
//!   ([`PmfLadder::repair_insert`] — pushes never need deconvolution),
//!   an update or remove one remove + one rank-insert per run, a
//!   renumbering pass for removals, and a factor division per affected
//!   checkpoint ([`PmfLadder::repair_update`]) — so no shard re-sort, no
//!   K-way re-merge and no pmf re-convolution happen at all
//!   ("rescan-free repair"). Only the lazily-derived merged artefacts
//!   (AltrM selection, profile, staircase) are dropped, since the
//!   selection they summarise may genuinely change;
//! * shards hollowed out by skewed churn are *re-balanced* online
//!   ([`ShardedPool::rebalance`]): members move from the largest shards
//!   into degenerate ones, each move repairing both shards' runs and
//!   ladders in place. Re-balancing permutes shard **membership** only —
//!   the merged global orders are a property of the pool, not the
//!   partition, so they are untouched and bit-identity is preserved by
//!   construction.
//!
//! ## What merges bit-identically, and what does not
//!
//! Sorted **orders** merge bit-identically because the comparators are
//! total orders with an index tie-break: a sorted permutation under such
//! an order is unique, so "merge of per-shard sorts" and "one global
//! sort" are the same permutation and every downstream float operation
//! (the AltrALG prefix scan, the PayALG pair trials) is performed in the
//! identical sequence. Prefix **pmfs** do *not*: convolving per-shard
//! distributions ([`PoiBin::merge_into`]) is mathematically the same
//! distribution but a different float evaluation order than the flat
//! path's sequential [`PoiBin::push`]. Selections therefore always ride
//! the merged orders (bit-identity is contractual, enforced by
//! `tests/sharded_differential.rs`), while the merged-pmf path powers
//! the [`jer_probe`](crate::JuryService::jer_probe) point query, whose
//! contract is numerical equality within convolution rounding.

use crate::ladder::PmfLadder;
use jury_core::altr::{AltrConfig, JerProfile};
use jury_core::jer::JerEngine;
use jury_core::juror::Juror;
use jury_core::merge::kway_merge_by;
use jury_core::paym::{PayAlg, Staircase};
use jury_core::solver::{eps_cmp, SolverScratch};
use jury_numeric::conv::ConvScratch;
use jury_numeric::poibin::PoiBin;
use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A shared handle to one position-space visit order (merged or flat).
pub(crate) type SharedOrder = Arc<Vec<usize>>;

/// When a [`JuryService`](crate::JuryService) shards its pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Pools with at least this many jurors are sharded (`usize::MAX`
    /// disables sharding — the default). Flat pools crossing the
    /// threshold through inserts are promoted in place; sharded pools
    /// shrinking below it stay sharded (hysteresis keeps warm state).
    pub threshold: usize,
    /// Number of shards K (clamped to ≥ 1) for pools that shard.
    pub shards: usize,
    /// A shard whose membership drops below this percentage of the mean
    /// shard size (pool size / K) is flagged *degenerate* — repeated
    /// removals have hollowed it out, so its run no longer amortises the
    /// per-shard bookkeeping. Each episode bumps
    /// [`ServiceStats::degenerate_shards`](crate::ServiceStats::degenerate_shards)
    /// once and (unless [`ShardConfig::rebalance`] is off) triggers an
    /// online re-balance that heals the shard in place.
    pub degenerate_percent: usize,
    /// Whether a degeneracy episode triggers online re-balancing
    /// ([`ShardedPool::rebalance`] via the registry): members are stolen
    /// from the largest shards into the degenerate ones, repairing both
    /// sides' runs and ladders in place. Membership permutation only —
    /// the merged orders (and therefore every selection) are unchanged.
    /// `false` reverts to detection-only.
    pub rebalance: bool,
}

impl Default for ShardConfig {
    /// Sharding disabled; 8 shards once enabled; shards flagged
    /// degenerate below 25% of the mean shard size and re-balanced
    /// online.
    fn default() -> Self {
        Self { threshold: usize::MAX, shards: 8, degenerate_percent: 25, rebalance: true }
    }
}

impl ShardConfig {
    /// Whether a pool of `len` jurors should be sharded under this
    /// configuration.
    pub fn applies(&self, len: usize) -> bool {
        len >= self.threshold
    }
}

/// Everything derived from one shard's membership snapshot. Held behind
/// an `Arc` so equal pools can adopt one interned build via
/// [`ShardLayer`]; every in-place repair goes through `Arc::make_mut`,
/// which is the per-shard copy-on-write boundary (a sole owner repairs
/// in place, an attached pool clones the one shard it touches first).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardCache {
    /// The shard's members sorted by the global ε order (ties by pool
    /// position) — one sorted run of the global ε order.
    eps_order: Vec<usize>,
    /// ε values aligned with `eps_order`.
    eps: Vec<f64>,
    /// The shard's members sorted by the global greedy order — one
    /// sorted run of the global PayALG frontier.
    greedy_order: Vec<usize>,
    /// Prefix-pmf checkpoints over `eps`, repaired in place on juror
    /// mutations (see [`crate::ladder`]).
    ladder: PmfLadder,
}

impl ShardCache {
    /// Raw parts for the snapshot codec:
    /// `(eps_order, eps, greedy_order, ladder)`.
    pub(crate) fn raw_parts(&self) -> (&[usize], &[f64], &[usize], &PmfLadder) {
        (&self.eps_order, &self.eps, &self.greedy_order, &self.ladder)
    }

    /// Rebuilds a shard cache from decoded parts, checking only the
    /// run-local shape (aligned lengths, ascending ε run). Membership
    /// consistency against the owner vector is [`ShardLayer::from_raw`]'s
    /// job — it sees all shards at once.
    pub(crate) fn from_raw_parts(
        eps_order: Vec<usize>,
        eps: Vec<f64>,
        greedy_order: Vec<usize>,
        ladder: PmfLadder,
    ) -> Option<Self> {
        if eps_order.len() != eps.len() || eps_order.len() != greedy_order.len() {
            return None;
        }
        if eps.windows(2).any(|w| w[0].partial_cmp(&w[1]).is_none_or(|o| o.is_gt())) {
            return None; // incomparable (NaN) rates rejected too
        }
        Some(Self { eps_order, eps, greedy_order, ladder })
    }
}

/// One shard: an owned subset of pool positions plus its cached state.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Owned pool positions, ascending (append-only insertion, monotone
    /// renumbering on removal and rank-located re-balance moves all
    /// preserve this).
    members: Vec<usize>,
    cache: Option<Arc<ShardCache>>,
    /// Whether the shard is currently flagged degenerate (membership
    /// below the configured fraction of the mean shard size). The flag
    /// makes each degeneracy *episode* count once in the stats.
    degenerate: bool,
}

/// Global artefacts derived by merging the per-shard runs. The orders
/// are `Arc`'d so equal-content pools can adopt one interned merge from
/// the warm-artifact store ([`crate::store`]); in-place repairs go
/// through `Arc::make_mut`, which is exactly the copy-on-write boundary
/// (a sole owner repairs in place, an attached pool clones off first).
#[derive(Debug)]
struct MergedCache {
    /// K-way merge of the shards' `eps_order` runs — bit-identical to
    /// the flat pool's ε-sorted order.
    eps_order: Arc<Vec<usize>>,
    /// K-way merge of the shards' `greedy_order` runs — bit-identical to
    /// the flat pool's greedy order.
    greedy_order: Arc<Vec<usize>>,
    /// Lazily solved AltrM answer (the bound-pruned scan runs only when
    /// an AltrM task actually arrives), shared so batch replays can
    /// hand out the same allocation.
    altr: Option<crate::AltrAnswer>,
    /// Lazily computed odd-size JER profile (push-based over the merged
    /// order — bit-identical to the flat profile; `O(N²)`, on demand;
    /// `Arc`'d for store seeding/publication across equal pools).
    profile: Option<Arc<JerProfile>>,
    /// The PayM budget→selection staircase over `greedy_order`, recorded
    /// lazily per budget and cleared by every mutation (the greedy trace
    /// it certifies may change). Always per-pool — sharded staircases
    /// are not interned.
    staircase: Staircase,
}

/// What one mutation did to a sharded pool's warm state — folded into
/// the service's repair counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MutationEffect {
    /// Warm cached state was dropped *or* repaired.
    pub invalidated: bool,
    /// Sorted runs (shard and merged) were repaired in place instead of
    /// being dropped for re-sorting.
    pub orders_repaired: bool,
    /// The owning shard's pmf ladder was repaired by factor division.
    pub pmf_repaired: bool,
    /// The deconvolution guard declined and the ladder was rebuilt.
    pub pmf_rebuilt: bool,
    /// A materialised JER profile was repaired in place (flat pools).
    pub profile_repaired: bool,
    /// A juror insert was absorbed by in-place repair (rank-inserts plus
    /// ladder pushes) instead of dropping warm state.
    pub insert_repaired: bool,
    /// Shards that entered degeneracy because of this mutation.
    pub newly_degenerate: usize,
    /// Jurors moved between shards by the re-balance this mutation
    /// triggered (0 when no re-balance ran).
    pub rebalanced: usize,
}

/// A sharded pool's complete per-shard warm layer — the owner assignment
/// plus every shard's cache — interned in the warm-artifact store so
/// sequence-identical sharded pools share one build of the K sorted
/// runs and pmf ladders, not just the merged orders. Adoption requires
/// the owner vectors to match exactly (partitions may legitimately
/// diverge across different mutation histories even over equal
/// content); the caches are `Arc`-shared, and `Arc::make_mut` at every
/// repair site copies a shard off privately the moment its pool
/// mutates.
#[derive(Debug)]
pub(crate) struct ShardLayer {
    owner: Vec<u32>,
    caches: Vec<Arc<ShardCache>>,
}

impl ShardLayer {
    /// The owning shard per pool position.
    pub(crate) fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// The per-shard caches, indexed by shard.
    pub(crate) fn caches(&self) -> &[Arc<ShardCache>] {
        &self.caches
    }

    /// Rebuilds a layer from decoded parts, re-validating the partition
    /// invariants — snapshot bytes are untrusted and a malformed layer
    /// would index out of the pool or desynchronise the per-shard runs.
    /// Each pool position must be owned by an existing shard and appear
    /// in **exactly** that shard's ε run and greedy run (checked with
    /// per-order seen maps, so duplicates and omissions both reject).
    pub(crate) fn from_raw(owner: Vec<u32>, caches: Vec<Arc<ShardCache>>) -> Option<Self> {
        if owner.iter().any(|&o| (o as usize) >= caches.len()) {
            return None;
        }
        let total: usize = caches.iter().map(|c| c.eps_order.len()).sum();
        if total != owner.len() {
            return None;
        }
        let mut seen_eps = vec![false; owner.len()];
        let mut seen_greedy = vec![false; owner.len()];
        for (si, cache) in caches.iter().enumerate() {
            if cache.greedy_order.len() != cache.eps_order.len() {
                return None;
            }
            for (seen, order) in
                [(&mut seen_eps, &cache.eps_order), (&mut seen_greedy, &cache.greedy_order)]
            {
                for &p in order.iter() {
                    if p >= owner.len()
                        || owner[p] as usize != si
                        || std::mem::replace(&mut seen[p], true)
                    {
                        return None;
                    }
                }
            }
        }
        Some(Self { owner, caches })
    }
}

impl Serialize for ShardCache {
    fn to_value(&self) -> Value {
        Value::object([
            ("eps_order", self.eps_order.clone().to_value()),
            ("eps", self.eps.clone().to_value()),
            ("greedy_order", self.greedy_order.clone().to_value()),
            ("ladder", self.ladder.to_value()),
        ])
    }
}

impl Deserialize for ShardCache {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |name: &str| value.get(name).ok_or_else(|| Error::missing_field(name));
        Self::from_raw_parts(
            Vec::<usize>::from_value(field("eps_order")?)?,
            Vec::<f64>::from_value(field("eps")?)?,
            Vec::<usize>::from_value(field("greedy_order")?)?,
            PmfLadder::from_value(field("ladder")?)?,
        )
        .ok_or_else(|| Error::custom("shard cache runs are misaligned or unsorted"))
    }
}

impl Serialize for ShardLayer {
    fn to_value(&self) -> Value {
        Value::object([
            ("owner", self.owner.clone().to_value()),
            ("caches", Value::Array(self.caches.iter().map(|c| c.to_value()).collect())),
        ])
    }
}

impl Deserialize for ShardLayer {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let owner = Vec::<u32>::from_value(
            value.get("owner").ok_or_else(|| Error::missing_field("owner"))?,
        )?;
        let Some(Value::Array(caches)) = value.get("caches") else {
            return Err(Error::expected("a layer with a `caches` array", value));
        };
        let caches = caches
            .iter()
            .map(|c| ShardCache::from_value(c).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_raw(owner, caches)
            .ok_or_else(|| Error::custom("shard layer violates the partition invariant"))
    }
}

/// What a [`ShardedPool::warm`] call rebuilt (test observability; the
/// service drives [`ShardedPool::warm_shards`] and
/// [`ShardedPool::ensure_merged`] separately so it can adopt interned
/// merged orders between the two).
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardWarmOutcome {
    /// Per-shard caches built by this warm.
    pub shards_built: usize,
    /// Whether the merged orders were rebuilt.
    pub merged_rebuilt: bool,
}

/// A pool partitioned into K shards. Owns no jurors — all methods take
/// the registry's juror slice; member values are positions into it.
#[derive(Debug)]
pub(crate) struct ShardedPool {
    shards: Vec<Shard>,
    /// Owning shard per pool position.
    owner: Vec<u32>,
    merged: Option<MergedCache>,
    /// FFT plans + transform buffers for probe-time pmf merging.
    conv: ConvScratch,
}

impl ShardedPool {
    /// Partitions positions `0..len` round-robin over `k` shards
    /// (clamped to ≥ 1); all caches start cold. Shards already under the
    /// `degenerate_percent` line at birth (a pool smaller than K leaves
    /// some shards empty from creation) have their degeneracy flag
    /// pre-armed, so only shards *hollowed out by later mutations* ever
    /// count as episodes.
    pub(crate) fn new(len: usize, k: usize, degenerate_percent: usize) -> Self {
        let k = k.max(1);
        let mut shards = vec![Shard::default(); k];
        let owner = (0..len).map(|i| (i % k) as u32).collect();
        for i in 0..len {
            shards[i % k].members.push(i);
        }
        let mut pool = Self { shards, owner, merged: None, conv: ConvScratch::new() };
        pool.refresh_degeneracy(degenerate_percent);
        pool
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Warm means the merged orders exist; the AltrM selection and the
    /// profile may still be lazily pending.
    pub(crate) fn is_warm(&self) -> bool {
        self.merged.is_some()
    }

    /// Registers the juror just appended to the pool (position =
    /// `len - 1`, so `jurors` is the **post-insert** pool), assigning it
    /// to the smallest shard. A warm owning shard is *repaired in
    /// place*: one rank-insert per sorted run (shard and merged) and one
    /// [`PoiBin::push`] per affected ladder checkpoint
    /// ([`PmfLadder::repair_insert`] — inserts never need
    /// deconvolution, so this repair cannot decline). Only the merged
    /// pool's lazily-derived artefacts (AltrM selection, profile,
    /// staircase) are dropped.
    pub(crate) fn insert(&mut self, jurors: &[Juror]) -> MutationEffect {
        let idx = jurors.len() - 1;
        debug_assert_eq!(idx, self.owner.len());
        let target = self
            .shards
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.members.len())
            .map(|(i, _)| i)
            .expect("at least one shard");
        self.owner.push(target as u32);
        self.shards[target].members.push(idx);
        let mut effect = MutationEffect::default();
        match self.shards[target].cache.as_mut() {
            Some(cache) => {
                let cache = Arc::make_mut(cache);
                effect.invalidated = true;
                effect.orders_repaired = true;
                effect.insert_repaired = true;
                let r = rank_insert_eps(&mut cache.eps_order, Some(&mut cache.eps), jurors, idx);
                cache.ladder.repair_insert(&cache.eps, r);
                effect.pmf_repaired = true;
                rank_insert_greedy(&mut cache.greedy_order, jurors, idx);
                if let Some(merged) = self.merged.as_mut() {
                    rank_insert_eps(Arc::make_mut(&mut merged.eps_order), None, jurors, idx);
                    rank_insert_greedy(Arc::make_mut(&mut merged.greedy_order), jurors, idx);
                    merged.altr = None;
                    merged.profile = None;
                    merged.staircase.clear();
                }
            }
            None => {
                // Cold owning shard: nothing to repair, and the merged
                // orders (if any survived) lack the new juror — drop
                // them.
                effect.invalidated = self.merged.is_some();
                self.merged = None;
            }
        }
        effect
    }

    /// Repairs warm state after the juror at position `idx` was replaced
    /// in place: the owning shard's sorted runs get one remove + one
    /// rank-insert each, its pmf ladder one factor division per affected
    /// checkpoint, and the merged orders (if warm) the same remove +
    /// rank-insert — no re-sort, no re-merge, no re-convolution. Only the
    /// merged pool's lazily-derived artefacts (AltrM selection, profile,
    /// staircase) are dropped. `jurors` is the **post-update** pool and
    /// `old` the replaced juror (its keys locate the stale entries).
    pub(crate) fn update(&mut self, idx: usize, jurors: &[Juror], old: &Juror) -> MutationEffect {
        let s = self.owner[idx] as usize;
        let mut effect = MutationEffect::default();
        let Some(cache) = self.shards[s].cache.as_mut() else {
            // Cold shard: there is nothing to repair, and the merged
            // orders (if any survived) reference the stale ε — drop them.
            effect.invalidated = self.merged.is_some();
            self.merged = None;
            return effect;
        };
        let cache = Arc::make_mut(cache);
        effect.invalidated = true;
        effect.orders_repaired = true;
        let (r_old, r_new) =
            reinsert_eps(&mut cache.eps_order, Some(&mut cache.eps), jurors, idx, old);
        reinsert_greedy(&mut cache.greedy_order, jurors, idx, old);
        if cache.ladder.repair_update(&cache.eps, old.epsilon(), r_old, r_new) {
            effect.pmf_repaired = true;
        } else {
            effect.pmf_rebuilt = true;
        }
        if let Some(merged) = self.merged.as_mut() {
            reinsert_eps(Arc::make_mut(&mut merged.eps_order), None, jurors, idx, old);
            reinsert_greedy(Arc::make_mut(&mut merged.greedy_order), jurors, idx, old);
            merged.altr = None;
            merged.profile = None;
            merged.staircase.clear();
        }
        effect
    }

    /// Repairs warm state after position `idx` was removed (the registry
    /// does `Vec::remove`, shifting later positions down by one). The
    /// owning shard's runs and ladder are repaired in place like
    /// [`ShardedPool::update`]; every shard (and the merged orders, which
    /// stay warm) is then *renumbered* — decrementing positions greater
    /// than `idx` preserves each run's relative order under both
    /// comparators, so no sorted run, ε value or pmf checkpoint is ever
    /// recomputed. `jurors` is the **pre-removal** pool (the victim
    /// still present at `idx`): the stale entries are binary-located by
    /// rank, not scanned.
    pub(crate) fn remove(&mut self, idx: usize, jurors: &[Juror]) -> MutationEffect {
        let s = self.owner.remove(idx) as usize;
        let mut effect = MutationEffect::default();
        if let Some(cache) = self.shards[s].cache.as_mut() {
            let cache = Arc::make_mut(cache);
            effect.invalidated = true;
            effect.orders_repaired = true;
            let r = cache.eps_order.partition_point(|&j| eps_cmp(jurors, j, idx) == Ordering::Less);
            debug_assert_eq!(
                cache.eps_order.iter().position(|&m| m == idx),
                Some(r),
                "binary ε rank must agree with the linear scan"
            );
            let old_e = cache.eps[r];
            cache.eps_order.remove(r);
            cache.eps.remove(r);
            let g = cache
                .greedy_order
                .partition_point(|&j| PayAlg::greedy_cmp(jurors, j, idx) == Ordering::Less);
            debug_assert_eq!(
                cache.greedy_order.iter().position(|&m| m == idx),
                Some(g),
                "binary greedy rank must agree with the linear scan"
            );
            cache.greedy_order.remove(g);
            if cache.ladder.repair_remove(&cache.eps, old_e, r) {
                effect.pmf_repaired = true;
            } else {
                effect.pmf_rebuilt = true;
            }
        }
        for (si, shard) in self.shards.iter_mut().enumerate() {
            if si == s {
                shard.members.retain(|&m| m != idx);
            }
            for m in &mut shard.members {
                if *m > idx {
                    *m -= 1;
                }
            }
            if let Some(cache) = shard.cache.as_mut() {
                let cache = Arc::make_mut(cache);
                for m in &mut cache.eps_order {
                    if *m > idx {
                        *m -= 1;
                    }
                }
                for m in &mut cache.greedy_order {
                    if *m > idx {
                        *m -= 1;
                    }
                }
            }
        }
        if effect.invalidated {
            if let Some(merged) = self.merged.as_mut() {
                renumber_out(Arc::make_mut(&mut merged.eps_order), idx);
                renumber_out(Arc::make_mut(&mut merged.greedy_order), idx);
                merged.altr = None;
                merged.profile = None;
                merged.staircase.clear();
            }
        } else {
            // The owning shard was cold, so the merged orders (if any)
            // were already stale; drop them.
            effect.invalidated = self.merged.is_some();
            self.merged = None;
        }
        effect
    }

    /// Builds any cold shard caches and (re)merges the global orders.
    #[cfg(test)]
    pub(crate) fn warm(&mut self, jurors: &[Juror]) -> ShardWarmOutcome {
        let mut outcome =
            ShardWarmOutcome { shards_built: self.warm_shards(jurors), merged_rebuilt: false };
        if self.merged.is_none() {
            self.ensure_merged(jurors);
            outcome.merged_rebuilt = true;
        }
        outcome
    }

    /// Builds any cold shard caches, returning how many were built. When
    /// more than one shard is dirty (bulk ingest, rebalance) the
    /// independent per-shard rebuilds fan out over scoped threads, the
    /// same pattern `jury_core::exact` uses for its subtree search.
    pub(crate) fn warm_shards(&mut self, jurors: &[Juror]) -> usize {
        let cold: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cache.is_none())
            .map(|(i, _)| i)
            .collect();
        if cold.len() == 1 {
            let si = cold[0];
            self.shards[si].cache =
                Some(Arc::new(build_shard_cache(jurors, &self.shards[si].members)));
        } else if cold.len() > 1 {
            let workers =
                std::thread::available_parallelism().map(usize::from).unwrap_or(1).min(cold.len());
            let chunk = cold.len().div_ceil(workers);
            let shards = &self.shards;
            let built: Vec<(usize, ShardCache)> = std::thread::scope(|scope| {
                let handles: Vec<_> = cold
                    .chunks(chunk)
                    .map(|ids| {
                        scope.spawn(move || {
                            ids.iter()
                                .map(|&si| (si, build_shard_cache(jurors, &shards[si].members)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().expect("shard rebuild worker panicked"))
                    .collect()
            });
            for (si, cache) in built {
                self.shards[si].cache = Some(Arc::new(cache));
            }
        }
        cold.len()
    }

    /// The per-shard warm layer as shared handles, for publication to
    /// the warm-artifact store. `None` while any shard is cold (a
    /// partial layer is not worth interning — the attacher would rebuild
    /// the holes anyway).
    pub(crate) fn export_shard_layer(&self) -> Option<ShardLayer> {
        let caches: Option<Vec<Arc<ShardCache>>> =
            self.shards.iter().map(|s| s.cache.clone()).collect();
        Some(ShardLayer { owner: self.owner.clone(), caches: caches? })
    }

    /// Installs an interned per-shard layer (an identical-content pool's
    /// builds) into this pool's cold shards, returning how many were
    /// adopted. Requires the partitions to agree exactly — the owner
    /// vectors are compared, not trusted — because per-shard runs are a
    /// property of the partition, unlike the merged orders. Warm shards
    /// keep their own (possibly repaired) caches.
    pub(crate) fn adopt_shard_layer(&mut self, layer: &ShardLayer) -> usize {
        if layer.caches.len() != self.shards.len() || layer.owner != self.owner {
            return 0;
        }
        let mut adopted = 0usize;
        for (shard, cache) in self.shards.iter_mut().zip(&layer.caches) {
            if shard.cache.is_none() {
                shard.cache = Some(cache.clone());
                adopted += 1;
            }
        }
        adopted
    }

    /// Moves members from the largest shards into degenerate ones until
    /// no shard sits under the [`ShardConfig::degenerate_percent`] line
    /// (or no move can make progress), returning how many jurors moved.
    /// Each move repairs both shards in place ([`Self::move_member`]):
    /// one rank-remove + one rank-insert per sorted run, a factor
    /// division / push per affected ladder checkpoint. The merged
    /// orders are untouched — re-balancing permutes shard membership
    /// only, and the K-way merge of the new runs is the same global
    /// permutation — so every selection stays bit-identical across the
    /// episode.
    pub(crate) fn rebalance(&mut self, jurors: &[Juror], percent: usize) -> usize {
        let k = self.shards.len();
        let total = self.owner.len();
        let mut moved = 0usize;
        loop {
            let mut dest: Option<(usize, usize)> = None;
            let mut src = 0usize;
            for (i, shard) in self.shards.iter().enumerate() {
                let len = shard.members.len();
                if len * k * 100 < percent * total && dest.is_none_or(|(_, dl)| len < dl) {
                    dest = Some((i, len));
                }
                if len > self.shards[src].members.len() {
                    src = i;
                }
            }
            let Some((d, dl)) = dest else { break };
            let sl = self.shards[src].members.len();
            if src == d || sl <= dl + 1 {
                break; // a move would only swap the imbalance around
            }
            let m = *self.shards[src].members.last().expect("largest shard is non-empty");
            self.move_member(m, src, d, jurors);
            moved += 1;
        }
        moved
    }

    /// Moves pool position `m` from shard `src` to shard `dst`,
    /// repairing both shards' sorted runs and pmf ladders in place. The
    /// removal side mirrors [`Self::remove`] without the renumbering
    /// (the pool itself is unchanged); the insertion side mirrors
    /// [`Self::insert`]. Cold shards just update membership.
    fn move_member(&mut self, m: usize, src: usize, dst: usize, jurors: &[Juror]) {
        self.owner[m] = dst as u32;
        let members = &mut self.shards[src].members;
        let p = members.binary_search(&m).expect("member of the source shard");
        members.remove(p);
        if let Some(cache) = self.shards[src].cache.as_mut() {
            let cache = Arc::make_mut(cache);
            let r = cache.eps_order.partition_point(|&j| eps_cmp(jurors, j, m) == Ordering::Less);
            debug_assert_eq!(cache.eps_order.get(r), Some(&m), "rank must locate the mover");
            let old_e = cache.eps[r];
            cache.eps_order.remove(r);
            cache.eps.remove(r);
            // A declined deconvolution rebuilds the ladder internally —
            // either way the source shard stays warm.
            let _ = cache.ladder.repair_remove(&cache.eps, old_e, r);
            let g = cache
                .greedy_order
                .partition_point(|&j| PayAlg::greedy_cmp(jurors, j, m) == Ordering::Less);
            debug_assert_eq!(cache.greedy_order.get(g), Some(&m), "rank must locate the mover");
            cache.greedy_order.remove(g);
        }
        let members = &mut self.shards[dst].members;
        let p = members.binary_search(&m).expect_err("not yet a member of the destination");
        members.insert(p, m);
        if let Some(cache) = self.shards[dst].cache.as_mut() {
            let cache = Arc::make_mut(cache);
            let r = rank_insert_eps(&mut cache.eps_order, Some(&mut cache.eps), jurors, m);
            cache.ladder.repair_insert(&cache.eps, r);
            rank_insert_greedy(&mut cache.greedy_order, jurors, m);
        }
    }

    /// K-way-merges the per-shard runs into the global orders if they
    /// are missing. Requires warm shards ([`ShardedPool::warm_shards`]).
    pub(crate) fn ensure_merged(&mut self, jurors: &[Juror]) {
        if self.merged.is_some() {
            return;
        }
        let eps_runs: Vec<&[usize]> =
            self.shards.iter().map(|s| cache(s).eps_order.as_slice()).collect();
        let mut eps_order = Vec::new();
        kway_merge_by(&eps_runs, |a, b| eps_cmp(jurors, a, b), &mut eps_order);
        let greedy_runs: Vec<&[usize]> =
            self.shards.iter().map(|s| cache(s).greedy_order.as_slice()).collect();
        let mut greedy_order = Vec::new();
        kway_merge_by(&greedy_runs, |a, b| PayAlg::greedy_cmp(jurors, a, b), &mut greedy_order);
        self.merged = Some(MergedCache {
            eps_order: Arc::new(eps_order),
            greedy_order: Arc::new(greedy_order),
            altr: None,
            profile: None,
            staircase: Staircase::new(),
        });
    }

    /// Installs interned merged orders (an identical-content pool's
    /// K-way merge, adopted from the warm-artifact store) instead of
    /// re-merging. The global sort is partition-independent, so adopted
    /// orders are bit-identical to the merge this pool would perform —
    /// only the per-shard caches remain pool-local. The lazy artefacts
    /// start empty; the service seeds them from the store entry on
    /// demand.
    pub(crate) fn adopt_merged(&mut self, eps_order: SharedOrder, greedy_order: SharedOrder) {
        self.merged = Some(MergedCache {
            eps_order,
            greedy_order,
            altr: None,
            profile: None,
            staircase: Staircase::new(),
        });
    }

    /// The merged orders as shared handles, for publication to the
    /// warm-artifact store.
    pub(crate) fn merged_order_arcs(&self) -> Option<(SharedOrder, SharedOrder)> {
        self.merged.as_ref().map(|m| (m.eps_order.clone(), m.greedy_order.clone()))
    }

    /// Installs an AltrM answer solved over an identical merged order
    /// (a store entry's) without re-running the scan.
    pub(crate) fn seed_altr(&mut self, answer: crate::AltrAnswer) {
        if let Some(merged) = self.merged.as_mut() {
            merged.altr = Some(answer);
        }
    }

    /// Whether the lazily-derived profile is already present.
    pub(crate) fn has_profile(&self) -> bool {
        self.merged.as_ref().is_some_and(|m| m.profile.is_some())
    }

    /// Installs a profile built over an identical merged order.
    pub(crate) fn seed_profile(&mut self, profile: Arc<JerProfile>) {
        if let Some(merged) = self.merged.as_mut() {
            merged.profile = Some(profile);
        }
    }

    /// The merged ε order, if warm.
    pub(crate) fn merged_eps_order(&self) -> Option<&[usize]> {
        self.merged.as_ref().map(|m| m.eps_order.as_slice())
    }

    /// The merged greedy order, if warm.
    #[cfg(test)]
    pub(crate) fn merged_greedy_order(&self) -> Option<&[usize]> {
        self.merged.as_ref().map(|m| m.greedy_order.as_slice())
    }

    /// The merged greedy order together with its budget staircase, for
    /// the mutable PayM solve path. Requires a prior [`Self::warm`].
    pub(crate) fn paym_cache(&mut self) -> Option<(&[usize], &mut Staircase)> {
        self.merged.as_mut().map(|m| {
            let MergedCache { greedy_order, staircase, .. } = m;
            (greedy_order.as_slice(), staircase)
        })
    }

    /// The merged greedy order together with its budget staircase, for
    /// read-only replays (the worker path of batched solving).
    pub(crate) fn paym_view(&self) -> Option<(&[usize], &Staircase)> {
        self.merged.as_ref().map(|m| (m.greedy_order.as_slice(), &m.staircase))
    }

    /// The cached AltrM selection, if already solved.
    pub(crate) fn cached_altr(&self) -> Option<&crate::AltrAnswer> {
        self.merged.as_ref().and_then(|m| m.altr.as_ref())
    }

    /// Solves AltrM over the merged order (bound-pruned under the
    /// default strategy — members/JER/cost bit-identical to the flat
    /// path) and caches the result. Requires a prior [`Self::warm`].
    pub(crate) fn ensure_altr(
        &mut self,
        jurors: &[Juror],
        config: &AltrConfig,
        scratch: &mut SolverScratch,
    ) -> &crate::AltrAnswer {
        let merged = self.merged.as_mut().expect("warm() must precede ensure_altr");
        if merged.altr.is_none() {
            merged.altr =
                Some(crate::solve_altr_cached(jurors, &merged.eps_order, config, scratch));
        }
        merged.altr.as_ref().expect("filled above")
    }

    /// Re-evaluates every shard's degeneracy flag against the current
    /// mean shard size; returns how many shards *entered* degeneracy
    /// (each episode counts once — a shard recovering above the line
    /// re-arms its flag). `O(K)`, called by the registry after
    /// membership-changing mutations.
    pub(crate) fn refresh_degeneracy(&mut self, percent: usize) -> usize {
        let k = self.shards.len();
        let total = self.owner.len();
        let mut newly = 0usize;
        for shard in &mut self.shards {
            // members < (percent/100) · (total/K), in integer arithmetic.
            let degenerate = shard.members.len() * k * 100 < percent * total;
            if degenerate && !shard.degenerate {
                newly += 1;
            }
            shard.degenerate = degenerate;
        }
        newly
    }

    /// The odd-size JER profile over the merged order, computed lazily
    /// with the same sequential pushes as the flat path (bit-identical,
    /// and therefore shareable across equal-content pools — the service
    /// seeds/publishes it through the warm-artifact store). Requires a
    /// prior [`Self::warm`].
    pub(crate) fn ensure_profile(&mut self, jurors: &[Juror]) -> &Arc<JerProfile> {
        let merged = self.merged.as_mut().expect("warm() must precede ensure_profile");
        if merged.profile.is_none() {
            let eps: Vec<f64> = merged.eps_order.iter().map(|&i| jurors[i].epsilon()).collect();
            merged.profile = Some(Arc::new(JerProfile::build(&eps)));
        }
        merged.profile.as_ref().expect("filled above")
    }

    /// JER of the best `n`-juror jury via per-shard prefix pmfs merged by
    /// convolution: the global best-`n` prefix is split into per-shard
    /// counts, each shard resumes from its nearest ladder checkpoint (or
    /// batch-builds beyond the ladder) and the K distributions are
    /// combined with [`PoiBin::merge_into`]. `O(n·spacing + n log n)`
    /// instead of the flat path's `O(n²)` pushes — the payoff of keeping
    /// pmfs per shard. Numerically equal to the flat evaluation within
    /// convolution rounding (not bit-identical; see the module docs).
    ///
    /// Requires a prior [`Self::warm`]; `n` must be `1..=len`.
    pub(crate) fn jer_probe(&mut self, n: usize) -> f64 {
        let merged = self.merged.as_ref().expect("warm() must precede jer_probe");
        let mut counts = vec![0usize; self.shards.len()];
        for &g in &merged.eps_order[..n] {
            counts[self.owner[g] as usize] += 1;
        }
        let mut acc = PoiBin::empty();
        let mut flipped = PoiBin::empty();
        let mut shard_pmf = PoiBin::empty();
        for (shard, &c) in self.shards.iter().zip(&counts) {
            if c == 0 {
                continue;
            }
            let cache = cache(shard);
            cache.ladder.prefix_into(&cache.eps, c, &mut shard_pmf);
            acc.merge_into(&shard_pmf, &mut self.conv, &mut flipped);
            std::mem::swap(&mut acc, &mut flipped);
        }
        acc.tail(JerEngine::majority_threshold(n))
    }
}

/// One remove + one rank-insert of `idx` in an ε-sorted run after its
/// juror changed: the stale entry is binary-located with the
/// pre-mutation rate, the fresh rank found under the post-mutation pool
/// — the same permutation a full re-sort would produce, since
/// [`eps_cmp`] is total. Maintains the aligned ε values when given;
/// returns `(old_rank, new_rank)` for ladder repair.
pub(crate) fn reinsert_eps(
    order: &mut Vec<usize>,
    mut eps: Option<&mut Vec<f64>>,
    jurors: &[Juror],
    idx: usize,
    old: &Juror,
) -> (usize, usize) {
    let r_old = locate_eps(order, jurors, idx, old.epsilon());
    order.remove(r_old);
    if let Some(eps) = eps.as_deref_mut() {
        eps.remove(r_old);
    }
    let r_new = order.partition_point(|&j| eps_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(r_new, idx);
    if let Some(eps) = eps {
        eps.insert(r_new, jurors[idx].epsilon());
    }
    (r_old, r_new)
}

/// The [`reinsert_eps`] of the greedy order: one remove + one
/// rank-insert under [`PayAlg::greedy_cmp`].
pub(crate) fn reinsert_greedy(order: &mut Vec<usize>, jurors: &[Juror], idx: usize, old: &Juror) {
    let g_old = locate_greedy(order, jurors, idx, old);
    order.remove(g_old);
    let g_new = order.partition_point(|&j| PayAlg::greedy_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(g_new, idx);
}

/// Rank-inserts pool position `idx` into an ε-sorted run — the insert
/// half of [`reinsert_eps`], shared by the flat, per-shard and merged
/// insert repairs. Maintains the aligned ε values when given; returns
/// the new rank for ladder repair.
pub(crate) fn rank_insert_eps(
    order: &mut Vec<usize>,
    eps: Option<&mut Vec<f64>>,
    jurors: &[Juror],
    idx: usize,
) -> usize {
    let r = order.partition_point(|&j| eps_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(r, idx);
    if let Some(eps) = eps {
        eps.insert(r, jurors[idx].epsilon());
    }
    r
}

/// Rank-inserts pool position `idx` into a greedy-sorted run, returning
/// the new rank.
pub(crate) fn rank_insert_greedy(order: &mut Vec<usize>, jurors: &[Juror], idx: usize) -> usize {
    let g = order.partition_point(|&j| PayAlg::greedy_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(g, idx);
    g
}

/// Binary-locates position `idx` in an ε-sorted run using the juror's
/// *pre-mutation* rate (the run is still sorted under it; probing any
/// other entry reads the pool, where only `idx` changed).
fn locate_eps(order: &[usize], jurors: &[Juror], idx: usize, old_eps: f64) -> usize {
    let pos = order.partition_point(|&j| {
        let (e, i) = if j == idx { (old_eps, idx) } else { (jurors[j].epsilon(), j) };
        e.total_cmp(&old_eps).then(i.cmp(&idx)) == Ordering::Less
    });
    debug_assert_eq!(order.get(pos), Some(&idx), "stale entry must sit at its old rank");
    pos
}

/// Binary-locates position `idx` in a greedy-sorted run using the
/// juror's pre-mutation keys (same construction as [`locate_eps`], over
/// [`PayAlg::greedy_cmp`]'s full tie-break chain).
fn locate_greedy(order: &[usize], jurors: &[Juror], idx: usize, old: &Juror) -> usize {
    let (ok, oc, oe) = (old.greedy_key(), old.cost, old.epsilon());
    let pos = order.partition_point(|&j| {
        let (k, c, e, i) = if j == idx {
            (ok, oc, oe, idx)
        } else {
            (jurors[j].greedy_key(), jurors[j].cost, jurors[j].epsilon(), j)
        };
        k.total_cmp(&ok).then(c.total_cmp(&oc)).then(e.total_cmp(&oe)).then(i.cmp(&idx))
            == Ordering::Less
    });
    debug_assert_eq!(order.get(pos), Some(&idx), "stale entry must sit at its old rank");
    pos
}

/// Removes `idx` from a position list and renumbers the survivors
/// (positions greater than `idx` shift down by one), preserving order,
/// in one pass.
pub(crate) fn renumber_out(order: &mut Vec<usize>, idx: usize) {
    order.retain_mut(|v| {
        if *v == idx {
            return false;
        }
        if *v > idx {
            *v -= 1;
        }
        true
    });
}

/// Shorthand for a shard's cache that `warm` has guaranteed to exist.
fn cache(shard: &Shard) -> &ShardCache {
    shard.cache.as_deref().expect("shard warmed")
}

/// Sorts one shard's members under both global comparators and lays the
/// prefix-pmf checkpoint ladder.
fn build_shard_cache(jurors: &[Juror], members: &[usize]) -> ShardCache {
    let mut eps_order = members.to_vec();
    eps_order.sort_by(|&a, &b| eps_cmp(jurors, a, b));
    let eps: Vec<f64> = eps_order.iter().map(|&i| jurors[i].epsilon()).collect();
    let mut greedy_order = members.to_vec();
    greedy_order.sort_by(|&a, &b| PayAlg::greedy_cmp(jurors, a, b));
    let ladder = PmfLadder::build(&eps);
    ShardCache { eps_order, eps, greedy_order, ladder }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_core::juror::pool_from_rates_and_costs;
    use jury_core::solver::sorted_order_into;

    fn pool(n: usize) -> Vec<Juror> {
        let quotes: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                (0.02 + 0.93 * u, ((i * 13) % 7) as f64 / 7.0)
            })
            .collect();
        pool_from_rates_and_costs(&quotes).unwrap()
    }

    #[test]
    fn merged_orders_match_flat_sorts_across_k_and_sizes() {
        for &n in &[1usize, 2, 5, 17, 100] {
            for &k in &[1usize, 2, 7, 16] {
                let jurors = pool(n);
                let mut sp = ShardedPool::new(n, k, 25);
                sp.warm(&jurors);
                let mut flat_eps = Vec::new();
                sorted_order_into(&jurors, &mut flat_eps);
                assert_eq!(sp.merged_eps_order().unwrap(), flat_eps.as_slice(), "n={n} k={k}");
                let mut flat_greedy = Vec::new();
                PayAlg::greedy_order_into(&jurors, &mut flat_greedy);
                assert_eq!(
                    sp.merged_greedy_order().unwrap(),
                    flat_greedy.as_slice(),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn remove_repairs_in_place_and_renumbers() {
        let mut jurors = pool(40);
        let mut sp = ShardedPool::new(40, 4, 25);
        sp.warm(&jurors);
        let victim = 11; // shard 11 % 4 == 3
        let effect = sp.remove(victim, &jurors);
        jurors.remove(victim);
        assert!(effect.invalidated && effect.orders_repaired);
        // Every shard stays warm — the owning one was repaired, not
        // dropped — and the merged orders survive the renumbering.
        assert!(sp.shards.iter().all(|s| s.cache.is_some()));
        assert!(sp.is_warm());
        let outcome = sp.warm(&jurors);
        assert_eq!(outcome.shards_built, 0);
        assert!(!outcome.merged_rebuilt);
        let mut flat_eps = Vec::new();
        sorted_order_into(&jurors, &mut flat_eps);
        assert_eq!(sp.merged_eps_order().unwrap(), flat_eps.as_slice());
        let mut flat_greedy = Vec::new();
        PayAlg::greedy_order_into(&jurors, &mut flat_greedy);
        assert_eq!(sp.merged_greedy_order().unwrap(), flat_greedy.as_slice());
    }

    #[test]
    fn update_repairs_orders_and_ladder_in_place() {
        use jury_core::juror::ErrorRate;
        let mut jurors = pool(300);
        let mut sp = ShardedPool::new(300, 4, 25);
        sp.warm(&jurors);
        let probe_direct = |jurors: &[Juror], n: usize| {
            let mut order = Vec::new();
            sorted_order_into(jurors, &mut order);
            let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
            PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n))
        };
        for (step, &(idx, e)) in [(17usize, 0.9f64), (4, 0.021), (120, 0.44)].iter().enumerate() {
            let old = jurors[idx];
            jurors[idx] = Juror::new(900 + step as u32, ErrorRate::new(e).unwrap(), 0.3);
            let effect = sp.update(idx, &jurors, &old);
            assert!(effect.invalidated && effect.orders_repaired, "step {step}");
            assert!(effect.pmf_repaired || effect.pmf_rebuilt, "step {step}");
            // Repaired merged orders equal full re-sorts, bit for bit.
            let mut flat_eps = Vec::new();
            sorted_order_into(&jurors, &mut flat_eps);
            assert_eq!(sp.merged_eps_order().unwrap(), flat_eps.as_slice(), "step {step}");
            let mut flat_greedy = Vec::new();
            PayAlg::greedy_order_into(&jurors, &mut flat_greedy);
            assert_eq!(sp.merged_greedy_order().unwrap(), flat_greedy.as_slice(), "step {step}");
            // Repaired ladders keep probes within the documented bound.
            for n in [1usize, 63, 65, 129, 299] {
                let direct = probe_direct(&jurors, n);
                assert!(
                    (sp.jer_probe(n) - direct).abs() < crate::ladder::PROBE_REPAIR_TOL,
                    "step {step} n={n}"
                );
            }
        }
    }

    #[test]
    fn insert_repairs_the_owning_shard_in_place() {
        let mut jurors = pool(9);
        let mut sp = ShardedPool::new(9, 4, 25); // shard sizes 3,2,2,2
        sp.warm(&jurors);
        jurors.push(jurors[0]);
        let effect = sp.insert(&jurors);
        assert_eq!(sp.owner[9], 1, "smallest shard with lowest id wins");
        assert!(effect.invalidated && effect.orders_repaired && effect.insert_repaired);
        assert!(effect.pmf_repaired);
        // Nothing went cold: the owning shard was repaired and the
        // merged orders absorbed the newcomer by rank-insert.
        assert!(sp.shards.iter().all(|s| s.cache.is_some()));
        let outcome = sp.warm(&jurors);
        assert_eq!(outcome.shards_built, 0);
        assert!(!outcome.merged_rebuilt);
        let mut flat_eps = Vec::new();
        sorted_order_into(&jurors, &mut flat_eps);
        assert_eq!(sp.merged_eps_order().unwrap(), flat_eps.as_slice());
        let mut flat = Vec::new();
        PayAlg::greedy_order_into(&jurors, &mut flat);
        assert_eq!(sp.merged_greedy_order().unwrap(), flat.as_slice());
    }

    #[test]
    fn sustained_ingest_keeps_probes_within_tolerance() {
        let mut jurors = pool(200);
        let mut sp = ShardedPool::new(200, 4, 25);
        sp.warm(&jurors);
        for step in 0..150 {
            jurors.push(jurors[(step * 7) % 50]);
            let effect = sp.insert(&jurors);
            assert!(effect.insert_repaired, "warm inserts must repair, step {step}");
        }
        let mut order = Vec::new();
        sorted_order_into(&jurors, &mut order);
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        for n in [1usize, 63, 65, 129, 349] {
            let direct = PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n));
            assert!((sp.jer_probe(n) - direct).abs() < crate::ladder::PROBE_REPAIR_TOL, "n={n}");
        }
    }

    #[test]
    fn bulk_cold_shards_build_in_parallel() {
        // A creation-cold pool has every shard dirty at once; the warm-up
        // fans the independent builds over scoped threads.
        let jurors = pool(88);
        let mut sp = ShardedPool::new(88, 8, 25);
        let outcome = sp.warm(&jurors);
        assert_eq!(outcome.shards_built, 8);
        // The threaded rebuild must be invisible in the results.
        let mut flat_eps = Vec::new();
        sorted_order_into(&jurors, &mut flat_eps);
        assert_eq!(sp.merged_eps_order().unwrap(), flat_eps.as_slice());
        let mut flat_greedy = Vec::new();
        PayAlg::greedy_order_into(&jurors, &mut flat_greedy);
        assert_eq!(sp.merged_greedy_order().unwrap(), flat_greedy.as_slice());
    }

    #[test]
    fn rebalance_heals_degeneracy_without_touching_merged_orders() {
        let mut jurors = pool(60);
        let mut sp = ShardedPool::new(60, 4, 25);
        sp.warm(&jurors);
        // Hollow out shard 2 until it is degenerate.
        while sp.shards[2].members.len() > 1 {
            let victim = *sp.shards[2].members.last().unwrap();
            sp.remove(victim, &jurors);
            jurors.remove(victim);
        }
        assert!(sp.refresh_degeneracy(25) > 0, "the hollowed shard must be flagged");
        let merged_before: Vec<usize> = sp.merged_eps_order().unwrap().to_vec();
        let greedy_before: Vec<usize> = sp.merged_greedy_order().unwrap().to_vec();
        let moved = sp.rebalance(&jurors, 25);
        assert!(moved > 0, "the episode must move jurors");
        sp.refresh_degeneracy(25);
        assert!(sp.shards.iter().all(|s| !s.degenerate), "re-balance must heal the flag");
        // Membership permutation only: merged orders byte-for-byte
        // unchanged, every shard still warm and internally consistent.
        assert_eq!(sp.merged_eps_order().unwrap(), merged_before.as_slice());
        assert_eq!(sp.merged_greedy_order().unwrap(), greedy_before.as_slice());
        assert!(sp.shards.iter().all(|s| s.cache.is_some()));
        for (si, shard) in sp.shards.iter().enumerate() {
            assert!(shard.members.windows(2).all(|w| w[0] < w[1]), "members ascending");
            for &m in &shard.members {
                assert_eq!(sp.owner[m] as usize, si, "owner table tracks the move");
            }
            let c = cache(shard);
            assert_eq!(c.eps_order.len(), shard.members.len());
            assert_eq!(c.greedy_order.len(), shard.members.len());
        }
        // Rebuilding from scratch agrees with the repaired runs.
        let mut fresh = ShardedPool::new(0, 4, 25);
        fresh.owner = sp.owner.clone();
        fresh.shards = sp
            .shards
            .iter()
            .map(|s| Shard { members: s.members.clone(), cache: None, degenerate: false })
            .collect();
        fresh.warm(&jurors);
        for (a, b) in sp.shards.iter().zip(&fresh.shards) {
            assert_eq!(cache(a).eps_order, cache(b).eps_order);
            assert_eq!(cache(a).greedy_order, cache(b).greedy_order);
        }
        // Probes ride the repaired ladders and stay within tolerance.
        let mut order = Vec::new();
        sorted_order_into(&jurors, &mut order);
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        for n in [1usize, 15, 33, 45] {
            let direct = PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n));
            assert!((sp.jer_probe(n) - direct).abs() < crate::ladder::PROBE_REPAIR_TOL, "n={n}");
        }
    }

    #[test]
    fn probe_matches_direct_jer_within_tolerance() {
        let jurors = pool(300);
        let mut sp = ShardedPool::new(300, 7, 25);
        sp.warm(&jurors);
        let mut order = Vec::new();
        sorted_order_into(&jurors, &mut order);
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        for n in [1usize, 3, 63, 64, 65, 129, 299] {
            let direct = PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n));
            let probed = sp.jer_probe(n);
            assert!((probed - direct).abs() < 1e-9, "n={n}: {probed} vs {direct}");
        }
    }

    #[test]
    fn ladder_fallback_beyond_coverage() {
        use crate::ladder::LADDER_MAX;
        // A single huge shard: probes beyond LADDER_MAX take the batch
        // branch and must still agree.
        let jurors = pool(LADDER_MAX + 300);
        let mut sp = ShardedPool::new(jurors.len(), 1, 25);
        sp.warm(&jurors);
        let n = LADDER_MAX + 201;
        let mut order = Vec::new();
        sorted_order_into(&jurors, &mut order);
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        let direct = PoiBin::from_error_rates(&eps[..n]).tail(JerEngine::majority_threshold(n));
        assert!((sp.jer_probe(n) - direct).abs() < 1e-9);
    }

    mod wire_round_trip {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use serde::json;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            // A warm layer — owner partition, per-shard sorted runs and
            // greedy orders, nested ladders — must survive encode →
            // decode → encode byte-identically, and decode lax against
            // unknown fields at both the layer and the cache level.
            #[test]
            fn shard_layer_json_round_trips_and_decodes_lax(
                pairs in vec((0.02..0.95f64, 0.0..1.0f64), 1..=60),
                k in 1usize..6,
            ) {
                let jurors = pool_from_rates_and_costs(&pairs).unwrap();
                let mut sp = ShardedPool::new(jurors.len(), k, 25);
                sp.warm(&jurors);
                let layer = sp.export_shard_layer().unwrap();
                let text = json::to_string(&layer);
                let back: ShardLayer = json::from_str(&text).unwrap();
                prop_assert_eq!(json::to_string(&back), text.clone());
                let lax = format!("{{\"future_field\": 7, {}", &text[1..]);
                let back: ShardLayer = json::from_str(&lax).unwrap();
                prop_assert_eq!(json::to_string(&back), text);

                let cache = layer.caches().first().unwrap();
                let text = json::to_string(&**cache);
                let back: ShardCache = json::from_str(&text).unwrap();
                prop_assert_eq!(json::to_string(&back), text.clone());
                let lax = format!("{{\"future_field\": \"x\", {}", &text[1..]);
                let back: ShardCache = json::from_str(&lax).unwrap();
                prop_assert_eq!(json::to_string(&back), text);
            }
        }
    }
}
