//! The content-addressed warm-artifact store.
//!
//! At micro-blog scale the same crowd backs many logical pools —
//! per-tenant, per-topic and per-region registries over one juror
//! population — so a [`JuryService`](crate::JuryService) would otherwise
//! re-derive an identical ε-sorted order, greedy order, pmf ladder,
//! budget staircase and AltrM answer once *per pool*. [`ArtifactStore`]
//! interns those artifacts by **content**: every registered pool keeps a
//! running [`PoolFingerprint`] (a commutative multiset hash of its
//! jurors' solver-relevant content, updated in `O(1)` per mutation), and
//! warm artifacts live in [`ArtifactSet`]s keyed by
//! `(fingerprint, solver config)` so N equal pools hold N `Arc`
//! clones of **one** artifact set, built once.
//!
//! ## Verification
//!
//! The fingerprint only *addresses* an entry; a candidate pool is
//! admitted by content comparison (hash collisions can cost a missed
//! share, never a wrong answer). A pool attaches only when its juror
//! content equals the entry's founding sequence position for position
//! ([`ArtifactSet::match_pool`]); everything is then shared outright:
//! orders, ladder, profile, the Arc'd AltrM answer, and the
//! (lock-guarded, lazily growing) budget staircase. A pool holding the
//! same multiset in a different arrangement has the same fingerprint but
//! is refused: it builds privately, and the incumbent entry keeps its key
//! ([`ArtifactStore::publish`]).
//!
//! ## Copy-on-write detach, re-join, eviction
//!
//! Mutations never write through a shared entry: the owning pool
//! *detaches* first — a sole holder takes the artifacts back zero-copy
//! ([`ArtifactSet::into_cache`] via `Arc::try_unwrap`), a pool with
//! siblings clones what the repair will touch
//! ([`ArtifactSet::cache_clone`]) — and the existing in-place repairs
//! then run on the privately-owned copy. The fingerprint is updated by
//! one commutative-hash subtraction/addition (no rescan); if the
//! post-mutation multiset already has an entry the pool **re-joins** it,
//! otherwise (when it detached from an entry with surviving siblings)
//! the repaired artifacts are published under the new key for the
//! siblings to follow. Entries no pool holds any more are evicted
//! ([`ArtifactStore::evict_if_orphaned`]).

use crate::{AltrAnswer, PoolCache};
use jury_core::altr::JerProfile;
use jury_core::fingerprint::{juror_content, FingerprintKey};
use jury_core::juror::Juror;
use jury_core::paym::Staircase;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// The interning key of one artifact set: content fingerprint +
/// solver-relevant configuration bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StoreKey {
    pub fp: FingerprintKey,
    pub config: u64,
}

/// One pool-content snapshot's warm artifacts, shared by every pool
/// whose jurors match. Orders and sorted rates are immutable once
/// published; the lazily-derived artifacts fill exactly once
/// ([`OnceLock`]) and the budget staircase grows monotonically behind a
/// read-mostly lock (batch workers replay steps read-only; recording
/// happens under the service's `&mut self`).
#[derive(Debug)]
pub(crate) struct ArtifactSet {
    /// Founding `(ε bits, cost bits)` per pool position — the content
    /// identity candidates are verified against.
    seq: Vec<(u64, u64)>,
    /// Positions ascending by ε.
    pub eps_order: Vec<usize>,
    /// ε values aligned with `eps_order` — rank space, multiset-determined.
    pub eps_sorted: Vec<f64>,
    /// PayALG's greedy visit order.
    pub greedy_order: Vec<usize>,
    /// The solved AltrM answer.
    pub altr: OnceLock<AltrAnswer>,
    /// The odd-size JER profile — rank space.
    pub profile: OnceLock<JerProfile>,
    /// Prefix-pmf checkpoint ladder over `eps_sorted` — rank space.
    pub ladder: OnceLock<crate::ladder::PmfLadder>,
    /// The PayM budget staircase over `greedy_order`, recorded lazily
    /// per budget.
    pub staircase: RwLock<Staircase>,
    /// Monotone mutation counter: bumped whenever a lazy slot fills or
    /// the staircase records a step. The incremental snapshot
    /// writer compares it against the version it last persisted to
    /// decide cleanness without re-encoding; over-counting (a bump
    /// that changed nothing) is harmless — the writer's
    /// encode-and-compare fallback still detects byte-identical
    /// entries — but a *missed* bump would only cost warmth, never
    /// correctness (persisted artifacts are deterministic functions of
    /// pool content).
    version: AtomicU64,
}

impl ArtifactSet {
    /// Interns a privately-built flat cache (zero-copy moves).
    pub(crate) fn from_cache(cache: PoolCache, jurors: &[Juror]) -> Self {
        Self {
            seq: jurors.iter().map(juror_content).collect(),
            eps_order: cache.eps_order,
            eps_sorted: cache.eps_sorted,
            greedy_order: cache.greedy_order,
            altr: once_from(cache.altr),
            profile: once_from(cache.profile),
            ladder: once_from(cache.ladder),
            staircase: RwLock::new(cache.staircase),
            version: AtomicU64::new(0),
        }
    }

    /// The founding `(ε bits, cost bits)` sequence — the content identity
    /// the snapshot codec persists and restore re-verifies.
    pub(crate) fn seq(&self) -> &[(u64, u64)] {
        &self.seq
    }

    /// Reassembles an entry from verified snapshot parts.
    /// Content/shape validation (the permutation and binding checks) is
    /// the snapshot loader's job; this only rebuilds the struct.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored(
        seq: Vec<(u64, u64)>,
        eps_order: Vec<usize>,
        eps_sorted: Vec<f64>,
        greedy_order: Vec<usize>,
        altr: Option<AltrAnswer>,
        profile: Option<JerProfile>,
        ladder: Option<crate::ladder::PmfLadder>,
        staircase: Staircase,
    ) -> Self {
        Self {
            seq,
            eps_order,
            eps_sorted,
            greedy_order,
            altr: once_from(altr),
            profile: once_from(profile),
            ladder: once_from(ladder),
            staircase: RwLock::new(staircase),
            version: AtomicU64::new(0),
        }
    }

    /// Whether `jurors` equals the founding sequence position for
    /// position — the only admission rule (a fingerprint collision or a
    /// permuted arrangement only costs the share).
    pub(crate) fn match_pool(&self, jurors: &[Juror]) -> bool {
        jurors.len() == self.seq.len()
            && jurors.iter().zip(&self.seq).all(|(j, &fc)| juror_content(j) == fc)
    }

    /// Takes the artifacts back as a private flat cache, zero-copy and
    /// lossless — the sole-owner detach path (whose follow-up repair
    /// clears the AltrM answer and staircase itself) and the
    /// occupied-key fallback of [`ArtifactStore::publish`] (which must
    /// lose nothing).
    pub(crate) fn into_cache(self) -> PoolCache {
        PoolCache {
            eps_order: self.eps_order,
            eps_sorted: self.eps_sorted,
            greedy_order: self.greedy_order,
            altr: self.altr.into_inner(),
            profile: self.profile.into_inner(),
            ladder: self.ladder.into_inner(),
            staircase: self
                .staircase
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    /// Clones a private flat cache out of a still-shared entry — the
    /// with-siblings detach path. Only what repairs touch is copied.
    pub(crate) fn cache_clone(&self) -> PoolCache {
        PoolCache {
            eps_order: self.eps_order.clone(),
            eps_sorted: self.eps_sorted.clone(),
            greedy_order: self.greedy_order.clone(),
            altr: None,
            profile: self.profile.get().cloned(),
            ladder: self.ladder.get().cloned(),
            staircase: Staircase::new(),
        }
    }

    /// Read access to the (possibly poisoned — recover, steps are
    /// append-only) staircase.
    pub(crate) fn staircase_read(&self) -> std::sync::RwLockReadGuard<'_, Staircase> {
        self.staircase.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `record` under the staircase write lock, marking the entry
    /// dirty (see [`ArtifactSet::note_mutation`]) only when it recorded
    /// a step — a covered-budget replay leaves the version alone. Steps
    /// are append-only on a shared staircase (mutations detach first),
    /// so a grown step count is exactly "something was recorded".
    pub(crate) fn record_staircase<R>(&self, record: impl FnOnce(&mut Staircase) -> R) -> R {
        let mut staircase =
            self.staircase.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let steps = staircase.len();
        let out = record(&mut staircase);
        if staircase.len() != steps {
            self.note_mutation();
        }
        out
    }

    /// The current mutation version (see the `version` field).
    pub(crate) fn mutation_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Marks this entry dirty for the next incremental snapshot.
    pub(crate) fn note_mutation(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Fills the AltrM answer slot (first writer wins) and marks the
    /// entry dirty when it actually filled.
    pub(crate) fn set_altr(&self, answer: AltrAnswer) {
        if self.altr.set(answer).is_ok() {
            self.note_mutation();
        }
    }

    /// [`OnceLock::get_or_init`] over the AltrM slot, dirty-tracked.
    pub(crate) fn altr_or_init(&self, init: impl FnOnce() -> AltrAnswer) -> &AltrAnswer {
        if let Some(answer) = self.altr.get() {
            return answer;
        }
        let answer = self.altr.get_or_init(init);
        self.note_mutation();
        answer
    }

    /// Fills the JER-profile slot, dirty-tracked.
    pub(crate) fn set_profile(&self, profile: JerProfile) {
        if self.profile.set(profile).is_ok() {
            self.note_mutation();
        }
    }

    /// [`OnceLock::get_or_init`] over the profile slot, dirty-tracked.
    pub(crate) fn profile_or_init(&self, init: impl FnOnce() -> JerProfile) -> &JerProfile {
        if let Some(profile) = self.profile.get() {
            return profile;
        }
        let profile = self.profile.get_or_init(init);
        self.note_mutation();
        profile
    }

    /// Fills the pmf-ladder slot, dirty-tracked.
    pub(crate) fn set_ladder(&self, ladder: crate::ladder::PmfLadder) {
        if self.ladder.set(ladder).is_ok() {
            self.note_mutation();
        }
    }

    /// [`OnceLock::get_or_init`] over the ladder slot, dirty-tracked.
    pub(crate) fn ladder_or_init(
        &self,
        init: impl FnOnce() -> crate::ladder::PmfLadder,
    ) -> &crate::ladder::PmfLadder {
        if let Some(ladder) = self.ladder.get() {
            return ladder;
        }
        let ladder = self.ladder.get_or_init(init);
        self.note_mutation();
        ladder
    }
}

/// A `OnceLock` pre-filled from an optional value.
fn once_from<T>(value: Option<T>) -> OnceLock<T> {
    let lock = OnceLock::new();
    if let Some(v) = value {
        let _ = lock.set(v);
    }
    lock
}

/// One pool's attachment to a store entry.
#[derive(Debug)]
pub(crate) struct StoreLink {
    pub key: StoreKey,
    pub set: Arc<ArtifactSet>,
}

/// The per-service interning map. Entries are kept alive by attached
/// pools' `Arc`s; [`ArtifactStore::evict_if_orphaned`] reaps entries
/// only the map still holds. Deliberately **not** `Clone`: a shared-map
/// copy would break the exact strong-count accounting the eviction
/// logic relies on.
#[derive(Debug, Default)]
pub(crate) struct ArtifactStore {
    entries: HashMap<StoreKey, Arc<ArtifactSet>>,
    /// When each currently-orphaned entry lost its last holder — the TTL
    /// eviction policy's stamps ([`ArtifactStore::stamp_if_orphaned`]).
    /// Only populated when the policy is on; a stamp is invalidated (and
    /// removed by the next sweep) the moment a pool re-attaches.
    orphans: HashMap<StoreKey, Instant>,
}

impl ArtifactStore {
    /// The entry at `key`, if interned.
    pub(crate) fn get(&self, key: &StoreKey) -> Option<Arc<ArtifactSet>> {
        self.entries.get(key).cloned()
    }

    /// Whether an entry lives at `key` (an occupied key that refused an
    /// attach keeps its incumbent — see [`ArtifactStore::publish`]).
    pub(crate) fn contains(&self, key: &StoreKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Interns `set` under `key` iff the key is vacant, returning the
    /// shared handle. An occupied key (same fingerprint but an
    /// arrangement the incumbent refused to admit, or colliding
    /// content) keeps its incumbent — replacing it would strand the
    /// incumbent's attached pools and let alternating arrangements
    /// thrash the entry — and the set is handed back untouched so the
    /// builder stays private without losing anything.
    pub(crate) fn publish(
        &mut self,
        key: StoreKey,
        set: ArtifactSet,
    ) -> Result<Arc<ArtifactSet>, Box<ArtifactSet>> {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => Err(Box::new(set)),
            std::collections::hash_map::Entry::Vacant(slot) => {
                Ok(slot.insert(Arc::new(set)).clone())
            }
        }
    }

    /// Removes the entry at `key` when no pool holds it any more (the
    /// map's own `Arc` is the only survivor). Called after detaches and
    /// pool removals; `Arc::strong_count` is exact here because the
    /// registry is `&mut` — no worker threads hold transient clones.
    pub(crate) fn evict_if_orphaned(&mut self, key: &StoreKey) {
        if self.entries.get(key).is_some_and(|arc| Arc::strong_count(arc) == 1) {
            self.entries.remove(key);
            self.orphans.remove(key);
        }
    }

    /// The TTL policy's replacement for [`ArtifactStore::evict_if_orphaned`]:
    /// an entry no pool holds is *stamped* with the current time instead
    /// of being removed, so returning content can re-join it warm until
    /// [`ArtifactStore::sweep_ttl`] reaps it.
    pub(crate) fn stamp_if_orphaned(&mut self, key: &StoreKey) {
        if self.entries.get(key).is_some_and(|arc| Arc::strong_count(arc) == 1) {
            self.orphans.entry(*key).or_insert_with(Instant::now);
        }
    }

    /// Routes to stamping (TTL policy) or immediate eviction (refcount
    /// policy) — every detach/removal call site picks by configuration.
    pub(crate) fn release(&mut self, key: &StoreKey, ttl_enabled: bool) {
        if ttl_enabled {
            self.stamp_if_orphaned(key);
        } else {
            self.evict_if_orphaned(key);
        }
    }

    /// Reaps entries that have been orphaned for at least `ttl`,
    /// returning how many were evicted. Stamps whose entry regained a
    /// holder since (a re-join or fresh attach) are dropped without
    /// eviction — the strong count is re-checked here, never trusted
    /// from stamp time.
    pub(crate) fn sweep_ttl(&mut self, ttl: Duration) -> usize {
        let mut evicted = 0usize;
        let entries = &mut self.entries;
        self.orphans.retain(|key, stamped| {
            let still_orphaned = entries.get(key).is_some_and(|arc| Arc::strong_count(arc) == 1);
            if !still_orphaned {
                return false; // re-attached (or already gone): unstamp.
            }
            if stamped.elapsed() >= ttl {
                entries.remove(key);
                evicted += 1;
                return false;
            }
            true
        });
        evicted
    }

    /// Removes and returns the entry at `key` iff exactly one pool holds
    /// it besides the map — the sole-owner detach fast path.
    pub(crate) fn take_if_sole(&mut self, key: &StoreKey, holder: &Arc<ArtifactSet>) -> bool {
        if self
            .entries
            .get(key)
            .is_some_and(|arc| Arc::ptr_eq(arc, holder) && Arc::strong_count(arc) == 2)
        {
            self.entries.remove(key);
            return true;
        }
        false
    }

    /// Number of interned entries (observability / tests).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every interned entry, for the snapshot writer.
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (&StoreKey, &Arc<ArtifactSet>)> {
        self.entries.iter()
    }
}
