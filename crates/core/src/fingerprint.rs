//! Content fingerprints for juror pools — the keys of a serving layer's
//! warm-artifact store.
//!
//! At micro-blog scale the same crowd backs many logical pools
//! (per-tenant, per-topic, per-region registries over one juror
//! population), so a serving layer wants to recognise that two pools
//! have the *same solver-relevant content* and build their warm
//! artifacts — sorted orders, solved selections, budget staircases —
//! once. [`PoolFingerprint`] is the recogniser: a **commutative
//! multiset hash** over each juror's solver-relevant content,
//! updateable in `O(1)` per mutation.
//!
//! # Canonicalisation
//!
//! A juror enters the hash as the pair `(ε.to_bits(), cost.to_bits())` —
//! the only two fields any solver reads (`id` is payload, never a sort
//! key). Hashing raw IEEE-754 bits makes the fingerprint exactly as
//! strict as the solvers' `total_cmp` orders: `0.5` and `0.5 + 1e-12`
//! are different content, `-0.0` and `0.0` are different content, and
//! no NaN canonicalisation is needed ([`crate::juror::ErrorRate`]
//! validates ε; a NaN cost would already poison the greedy order).
//!
//! # Commutativity and incrementality
//!
//! Each element is expanded into two independent 64-bit lanes by a
//! SplitMix64-style finaliser and the lanes are *summed* (wrapping).
//! Addition is commutative and invertible, so:
//!
//! * permuting a pool never changes its fingerprint (equal multisets ⇒
//!   equal fingerprints, the property a content-addressed store keys
//!   on);
//! * a mutation updates the fingerprint by one subtraction and/or one
//!   addition — no rescan of the pool, ever.
//!
//! Two lanes plus the explicit length give 128+ bits of accumulator
//! state. A collision would merely make a store *probe* an entry whose
//! verification then fails — consumers must verify candidate matches by
//! content comparison (the store does), so collisions can only cost a
//! missed share, never a wrong answer.

use crate::juror::Juror;
use jury_numeric::hash::splitmix64;

/// The value a pool's content hashes to: the interning key of a
/// warm-artifact store. Derives `Eq + Hash` so it can key a map
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FingerprintKey {
    /// Two independent commutative accumulator lanes.
    pub lanes: [u64; 2],
    /// Number of jurors hashed in (disambiguates e.g. the empty pool
    /// from lane-cancelling multisets).
    pub len: u64,
}

/// A running multiset hash of a pool's solver-relevant juror content.
/// Maintained incrementally alongside the pool: one
/// [`insert`](PoolFingerprint::insert) /
/// [`remove`](PoolFingerprint::remove) /
/// [`replace`](PoolFingerprint::replace) per mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolFingerprint {
    lanes: [u64; 2],
    len: u64,
}

/// Expands one juror's solver-relevant content into the two lane
/// contributions. Each lane consumes `(ε bits, cost bits)` through its
/// own seeded mixing chain — not a shared intermediate — so a collision
/// in one lane does not imply a collision in the other and the
/// accumulator keeps its full two-lane strength.
#[inline]
fn element_lanes(eps_bits: u64, cost_bits: u64) -> [u64; 2] {
    let lane = |seed: u64| {
        splitmix64(
            splitmix64(eps_bits ^ seed).wrapping_add(splitmix64(cost_bits.rotate_left(17) ^ seed)),
        )
    };
    [lane(0xa076_1d64_78bd_642f), lane(0xe703_7ed1_a0b4_28db)]
}

/// The `(ε bits, cost bits)` pair that is a juror's solver-relevant
/// content — everything the ε order, greedy order and pmf artifacts
/// depend on. Exposed so stores can verify candidate matches by content
/// comparison under the exact canonicalisation the fingerprint uses.
#[inline]
pub fn juror_content(juror: &Juror) -> (u64, u64) {
    (juror.epsilon().to_bits(), juror.cost.to_bits())
}

impl PoolFingerprint {
    /// The fingerprint of the empty pool.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Fingerprints a whole pool in one pass (`O(n)`); mutations keep it
    /// current in `O(1)` from there.
    pub fn from_jurors(jurors: &[Juror]) -> Self {
        let mut fp = Self::empty();
        for juror in jurors {
            fp.insert(juror);
        }
        fp
    }

    /// Folds one juror into the multiset.
    pub fn insert(&mut self, juror: &Juror) {
        let (e, c) = juror_content(juror);
        let lanes = element_lanes(e, c);
        self.lanes[0] = self.lanes[0].wrapping_add(lanes[0]);
        self.lanes[1] = self.lanes[1].wrapping_add(lanes[1]);
        self.len += 1;
    }

    /// Removes one juror from the multiset (the inverse of
    /// [`insert`](PoolFingerprint::insert); the caller guarantees the
    /// juror's content is present).
    pub fn remove(&mut self, juror: &Juror) {
        let (e, c) = juror_content(juror);
        let lanes = element_lanes(e, c);
        self.lanes[0] = self.lanes[0].wrapping_sub(lanes[0]);
        self.lanes[1] = self.lanes[1].wrapping_sub(lanes[1]);
        self.len -= 1;
    }

    /// Replaces one juror's content with another — an update in one
    /// subtraction + one addition.
    pub fn replace(&mut self, old: &Juror, new: &Juror) {
        self.remove(old);
        self.insert(new);
    }

    /// The current interning key.
    pub fn key(&self) -> FingerprintKey {
        FingerprintKey { lanes: self.lanes, len: self.len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::juror::ErrorRate;

    fn juror(id: u32, eps: f64, cost: f64) -> Juror {
        Juror::new(id, ErrorRate::new(eps).unwrap(), cost)
    }

    #[test]
    fn permutation_invariant() {
        let a = vec![juror(0, 0.1, 0.2), juror(1, 0.3, 0.4), juror(2, 0.1, 0.9)];
        let mut b = a.clone();
        b.rotate_left(1);
        b.swap(0, 1);
        assert_eq!(PoolFingerprint::from_jurors(&a).key(), PoolFingerprint::from_jurors(&b).key());
    }

    #[test]
    fn ids_are_not_content() {
        let a = vec![juror(7, 0.25, 0.5)];
        let b = vec![juror(99, 0.25, 0.5)];
        assert_eq!(PoolFingerprint::from_jurors(&a).key(), PoolFingerprint::from_jurors(&b).key());
    }

    #[test]
    fn incremental_matches_batch() {
        let mut pool = vec![juror(0, 0.1, 0.0), juror(1, 0.5, 1.0)];
        let mut fp = PoolFingerprint::from_jurors(&pool);

        let extra = juror(2, 0.2, 0.3);
        pool.push(extra);
        fp.insert(&extra);
        assert_eq!(fp.key(), PoolFingerprint::from_jurors(&pool).key());

        let replacement = juror(2, 0.21, 0.3);
        fp.replace(&pool[2], &replacement);
        pool[2] = replacement;
        assert_eq!(fp.key(), PoolFingerprint::from_jurors(&pool).key());

        let removed = pool.remove(0);
        fp.remove(&removed);
        assert_eq!(fp.key(), PoolFingerprint::from_jurors(&pool).key());
    }

    #[test]
    fn mutation_round_trip_restores_the_key() {
        let pool = vec![juror(0, 0.1, 0.2), juror(1, 0.4, 0.1)];
        let mut fp = PoolFingerprint::from_jurors(&pool);
        let before = fp.key();
        let perturbed = juror(0, 0.1 + 1e-12, 0.2);
        fp.replace(&pool[0], &perturbed);
        assert_ne!(fp.key(), before, "an ulp-level ε change is new content");
        fp.replace(&perturbed, &pool[0]);
        assert_eq!(fp.key(), before, "mutating back restores the key exactly");
    }

    #[test]
    fn adversarial_rates_stay_distinct() {
        // The deconvolution proptests' adversarial ε values must all be
        // distinguishable content, including ½ ± 1e-12 and the
        // near-boundary rates ([`ErrorRate`] keeps ε strictly inside
        // (0, 1), so the 0/1 extremes appear as 1e-12 and 1 − 1e-12).
        let rates = [1e-12, 1.0 - 1e-12, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, 0.25];
        let keys: Vec<FingerprintKey> = rates
            .iter()
            .map(|&e| PoolFingerprint::from_jurors(&[juror(0, e, 0.1)]).key())
            .collect();
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(keys[i], keys[j], "rates {} vs {}", rates[i], rates[j]);
            }
        }
    }

    #[test]
    fn length_disambiguates() {
        assert_ne!(
            PoolFingerprint::empty().key(),
            FingerprintKey { lanes: [0, 0], len: 1 },
            "empty pool key carries its length"
        );
        let one = PoolFingerprint::from_jurors(&[juror(0, 0.2, 0.1)]);
        let two = PoolFingerprint::from_jurors(&[juror(0, 0.2, 0.1), juror(1, 0.2, 0.1)]);
        assert_ne!(one.key(), two.key());
    }
}
