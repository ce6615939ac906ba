//! The content-addressed warm-artifact store.
//!
//! At micro-blog scale the same crowd backs many logical pools —
//! per-tenant, per-topic and per-region registries over one juror
//! population — so a [`JuryService`](crate::JuryService) would otherwise
//! re-derive an identical ε-sorted order, greedy order, budget
//! staircase and AltrM answer once *per pool*. [`ArtifactStore`]
//! interns those artifacts by **content**: every registered pool keeps a
//! running [`PoolFingerprint`](jury_core::fingerprint::PoolFingerprint)
//! (a commutative multiset hash of its jurors' solver-relevant content,
//! updated in `O(1)` per mutation), and warm artifacts live in
//! [`ArtifactSet`]s keyed by that fingerprint's
//! [`FingerprintKey`], so N equal pools hold N `Arc` clones of **one**
//! artifact set, built once.
//!
//! ## Verification
//!
//! The fingerprint only *addresses* an entry; a candidate pool is
//! admitted by content comparison (hash collisions can cost a missed
//! share, never a wrong answer). A pool attaches only when its juror
//! content equals the entry's founding sequence position for position
//! ([`ArtifactSet::match_pool`]); everything is then shared outright:
//! orders, the Arc'd AltrM answer, and the (lock-guarded, lazily
//! growing) budget staircase. A pool holding the
//! same multiset in a different arrangement has the same fingerprint but
//! is refused: it keeps an unlisted set of its own, and the incumbent
//! entry keeps its key ([`ArtifactStore::publish`]).
//!
//! ## One home: listed and unlisted sets
//!
//! An [`ArtifactSet`] is the only form a pool's warm state takes. A warm
//! pool holds one `Arc` of it, and the set is either **listed** in the
//! store under its pool's [`FingerprintKey`] or **unlisted**: an
//! occupied key refused the pool's arrangement. Only listed sets are
//! snapshotted.
//!
//! ## Copy-on-write detach, re-join, eviction
//!
//! Mutations never write through a set another pool holds: the owning
//! pool takes its set back first ([`ArtifactStore::reclaim`]). A sole
//! holder gets it back zero-copy (a listed set is delisted); a pool with
//! siblings clones what the repair will touch
//! ([`ArtifactSet::cache_clone`]). The in-place repairs then run on the
//! exclusively-owned set and mark it dirty
//! ([`ArtifactSet::note_mutation`]). The fingerprint is updated by one
//! commutative-hash subtraction/addition (no rescan). If the
//! post-mutation content already has an entry the pool **re-joins** it;
//! otherwise the repaired set is **published** under the new key
//! whenever that key is vacant, so a written pool stays a store entry
//! and stays in every later snapshot.
//!
//! Eviction is refcount-only: the pool that drops the last hold on a
//! listed set evicts its entry at once ([`ArtifactStore::release`]), so
//! a listed entry is held by at least one pool. Restores keep that
//! true: a snapshot restore, at warm-up or in an adoption pre-warm,
//! lists its verified set and attaches the pool that asked for it in
//! the same step.

use crate::AltrAnswer;
use jury_core::fingerprint::{juror_content, FingerprintKey};
use jury_core::juror::Juror;
use jury_core::paym::Staircase;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// One pool-content snapshot's warm artifacts, shared by every pool
/// whose jurors match. The orders change only under a repair, which
/// owns the set exclusively ([`ArtifactStore::reclaim`]); otherwise the
/// AltrM answer fills exactly once ([`OnceLock`], under the service's
/// `&mut self` before any task reads it) and the budget staircase grows
/// monotonically behind a read-mostly lock (a covered budget replays
/// under the read lock; a miss scans with no lock held and records its
/// step under the write lock, from batch workers too).
#[derive(Debug)]
pub(crate) struct ArtifactSet {
    /// `(ε bits, cost bits)` per pool position — the content identity
    /// candidates are verified against, and what the snapshot codec
    /// persists. Repairs keep it in step with the owning pool.
    pub seq: Vec<(u64, u64)>,
    /// Positions ascending by ε.
    pub eps_order: Vec<usize>,
    /// PayALG's greedy visit order.
    pub greedy_order: Vec<usize>,
    /// The solved AltrM answer.
    pub altr: OnceLock<AltrAnswer>,
    /// The PayM budget staircase over `greedy_order`, recorded lazily
    /// per budget.
    pub staircase: RwLock<Staircase>,
    /// Mutation version: a fresh stamp from one process-wide counter
    /// whenever the AltrM slot fills, the staircase records a step or a
    /// repair rewrites the set. The incremental snapshot writer compares
    /// it against the version it last persisted under the set's key to
    /// decide cleanness without re-encoding. Because stamps are unique
    /// across sets, a set re-listed under a key the writer has a record
    /// for never matches that record by accident. Over-counting (a bump
    /// that changed nothing) is harmless: the writer's
    /// encode-and-compare fallback still detects byte-identical entries.
    version: AtomicU64,
}

/// The next unused [`ArtifactSet`] version stamp.
fn fresh_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl ArtifactSet {
    /// Assembles a set from freshly built or verified snapshot parts.
    /// Content/shape validation of restored parts (the permutation and
    /// binding checks) is the snapshot loader's job; this only builds
    /// the struct.
    pub(crate) fn from_parts(
        seq: Vec<(u64, u64)>,
        eps_order: Vec<usize>,
        greedy_order: Vec<usize>,
        altr: Option<AltrAnswer>,
        staircase: Staircase,
    ) -> Self {
        Self {
            seq,
            eps_order,
            greedy_order,
            altr: altr.map_or_else(OnceLock::new, OnceLock::from),
            staircase: RwLock::new(staircase),
            version: AtomicU64::new(fresh_version()),
        }
    }

    /// Whether `jurors` equals the set's content sequence position for
    /// position — the only admission rule (a fingerprint collision or a
    /// permuted arrangement only costs the share).
    pub(crate) fn match_pool(&self, jurors: &[Juror]) -> bool {
        jurors.len() == self.seq.len()
            && jurors.iter().zip(&self.seq).all(|(j, &fc)| juror_content(j) == fc)
    }

    /// Clones a set for a pool leaving siblings behind — the
    /// copy-on-write half of [`ArtifactStore::reclaim`]. Only what
    /// repairs touch is copied: the content sequence and the orders. The
    /// AltrM answer and the staircase, which every repair drops, start
    /// empty.
    pub(crate) fn cache_clone(&self) -> Self {
        Self::from_parts(
            self.seq.clone(),
            self.eps_order.clone(),
            self.greedy_order.clone(),
            None,
            Staircase::new(),
        )
    }

    /// Read access to the (possibly poisoned — recover, steps are
    /// append-only) staircase.
    pub(crate) fn staircase_read(&self) -> std::sync::RwLockReadGuard<'_, Staircase> {
        self.staircase.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Merges a step scanned outside the lock into the staircase under
    /// the write lock, marking the entry dirty (see
    /// [`ArtifactSet::note_mutation`]) only when it recorded something —
    /// a step another task recorded meanwhile leaves the version alone.
    /// Steps are append-only outside repairs (which own the set
    /// exclusively), so a grown step count is exactly "something was
    /// recorded".
    pub(crate) fn record_staircase(&self, step: Staircase) {
        let mut staircase =
            self.staircase.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let steps = staircase.len();
        staircase.merge(step);
        if staircase.len() != steps {
            self.note_mutation();
        }
    }

    /// The current mutation version (see the `version` field).
    pub(crate) fn mutation_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Marks this entry dirty for the next incremental snapshot.
    pub(crate) fn note_mutation(&self) {
        self.version.store(fresh_version(), Ordering::Release);
    }

    /// Fills the AltrM answer slot (first writer wins) and marks the
    /// entry dirty when it actually filled.
    pub(crate) fn set_altr(&self, answer: AltrAnswer) {
        if self.altr.set(answer).is_ok() {
            self.note_mutation();
        }
    }
}

/// A warm pool's hold on its artifact set: listed in the store under
/// `key` when the store's entry there is this very set, unlisted
/// otherwise (`key` is then the pool's content key when it last
/// settled).
#[derive(Debug)]
pub(crate) struct StoreLink {
    pub key: FingerprintKey,
    pub set: Arc<ArtifactSet>,
}

/// The per-service interning map. Entries are kept alive by attached
/// pools' `Arc`s; [`ArtifactStore::release`] reaps entries only the map
/// still holds. Deliberately **not** `Clone`: a shared-map copy would
/// break the exact strong-count accounting the eviction logic relies on
/// (exact because the registry is `&mut` whenever it runs — no worker
/// threads hold transient clones).
#[derive(Debug, Default)]
pub(crate) struct ArtifactStore {
    entries: HashMap<FingerprintKey, Arc<ArtifactSet>>,
}

impl ArtifactStore {
    /// The entry at `key`, if interned.
    pub(crate) fn get(&self, key: &FingerprintKey) -> Option<Arc<ArtifactSet>> {
        self.entries.get(key).cloned()
    }

    /// Whether an entry lives at `key` (an occupied key that refused an
    /// attach keeps its incumbent — see [`ArtifactStore::publish`]).
    pub(crate) fn contains(&self, key: &FingerprintKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Whether `link`'s set is the entry listed under its key.
    pub(crate) fn lists(&self, link: &StoreLink) -> bool {
        self.entries.get(&link.key).is_some_and(|arc| Arc::ptr_eq(arc, &link.set))
    }

    /// Lists `set` under `key` iff the key is vacant, returning whether
    /// it did. An occupied key (same fingerprint but an arrangement the
    /// incumbent refused to admit, or colliding content) keeps its
    /// incumbent — replacing it would strand the incumbent's attached
    /// pools and let alternating arrangements thrash the entry — and
    /// the set stays unlisted.
    pub(crate) fn publish(&mut self, key: FingerprintKey, set: &Arc<ArtifactSet>) -> bool {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Arc::clone(set));
                true
            }
        }
    }

    /// Drops one pool's hold on its set (a pool removal, an
    /// invalidation, or a detach that copied). When the set was listed
    /// and no pool holds it any more, the entry is evicted. An unlisted
    /// set simply drops.
    pub(crate) fn release(&mut self, link: StoreLink) {
        if !self.lists(&link) {
            return;
        }
        let key = link.key;
        drop(link);
        if self.entries.get(&key).is_some_and(|arc| Arc::strong_count(arc) == 1) {
            self.entries.remove(&key);
        }
    }

    /// Takes a pool's set back, exclusively owned, for a mutation's
    /// in-place repair — the copy-on-write boundary. A sole holder gets
    /// its set back zero-copy: a listed one is delisted, an unlisted one
    /// was never shared. A set with siblings is cloned
    /// ([`ArtifactSet::cache_clone`]) and released to them.
    pub(crate) fn reclaim(&mut self, link: StoreLink) -> ArtifactSet {
        if self.lists(&link) && Arc::strong_count(&link.set) == 2 {
            self.entries.remove(&link.key);
        }
        let StoreLink { key, set } = link;
        match Arc::try_unwrap(set) {
            Ok(owned) => owned,
            Err(set) => {
                let copy = set.cache_clone();
                self.release(StoreLink { key, set });
                copy
            }
        }
    }

    /// Number of interned entries (observability / tests).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every interned entry, for the snapshot writer.
    pub(crate) fn iter_entries(
        &self,
    ) -> impl Iterator<Item = (&FingerprintKey, &Arc<ArtifactSet>)> {
        self.entries.iter()
    }
}
