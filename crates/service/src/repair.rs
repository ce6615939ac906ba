//! Rescan-free repair of an exclusively-owned artifact set after one
//! juror mutation.
//!
//! Both solver visit orders are *total* orders with the pool position as
//! final tie-break ([`eps_cmp`], [`PayAlg::greedy_cmp`]), so a sorted
//! permutation is unique: removing a mutated juror's stale entry and
//! rank-inserting it under its new keys lands on exactly the permutation
//! a full re-sort would produce, in `O(n)` memmoves. Nothing else in a
//! set is derived from the orders except the AltrM answer and the budget
//! staircase, whose selections may genuinely change, so those two are
//! dropped and re-solved on demand. Every repair keeps the set's content
//! sequence in step with the pool and marks the set dirty for the next
//! snapshot.

use crate::store::ArtifactSet;
use jury_core::fingerprint::juror_content;
use jury_core::juror::Juror;
use jury_core::paym::PayAlg;
use jury_core::solver::eps_cmp;
use std::cmp::Ordering;

/// What one mutation did to a pool's warm state — folded into the
/// service's repair counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MutationEffect {
    /// Warm cached state was dropped *or* repaired.
    pub invalidated: bool,
    /// The sorted orders were repaired in place instead of being
    /// dropped for re-sorting.
    pub orders_repaired: bool,
    /// A juror insert was absorbed by in-place repair (rank-inserts)
    /// instead of dropping warm state.
    pub insert_repaired: bool,
}

/// Repairs a set after `jurors[idx]` was replaced by a juror whose old
/// keys were `old`: one remove + one insert per sorted order (`O(n)`
/// memmoves, no re-sort). The orders are total with distinct keys, so
/// remove + rank-insert lands on exactly the permutation a full re-sort
/// would produce. Only the AltrM answer is dropped — the selection it holds
/// may genuinely change — and the next AltrM task re-solves it
/// rescan-free with the bound-pruned scan; the budget staircase is
/// cleared likewise.
pub(crate) fn repair_flat_update(
    set: &mut ArtifactSet,
    jurors: &[Juror],
    idx: usize,
    old: &Juror,
) -> MutationEffect {
    reinsert_eps(&mut set.eps_order, jurors, idx, old);
    reinsert_greedy(&mut set.greedy_order, jurors, idx, old);
    set.seq[idx] = juror_content(&jurors[idx]);
    drop_answers(set);
    MutationEffect { invalidated: true, orders_repaired: true, ..Default::default() }
}

/// Repairs a set after `jurors[idx]` was removed: one remove per
/// sorted order plus a renumbering pass (positions above `idx` shift
/// down, preserving both total orders).
pub(crate) fn repair_flat_remove(set: &mut ArtifactSet, idx: usize) -> MutationEffect {
    renumber_out(&mut set.eps_order, idx);
    renumber_out(&mut set.greedy_order, idx);
    set.seq.remove(idx);
    drop_answers(set);
    MutationEffect { invalidated: true, orders_repaired: true, ..Default::default() }
}

/// Repairs a set after a juror was appended at pool position
/// `idx`: one rank-insert per sorted order. Like the other repairs, only
/// the AltrM answer and the staircase drop.
pub(crate) fn repair_flat_insert(
    set: &mut ArtifactSet,
    jurors: &[Juror],
    idx: usize,
) -> MutationEffect {
    rank_insert_eps(&mut set.eps_order, jurors, idx);
    rank_insert_greedy(&mut set.greedy_order, jurors, idx);
    set.seq.push(juror_content(&jurors[idx]));
    drop_answers(set);
    MutationEffect { invalidated: true, orders_repaired: true, insert_repaired: true }
}

/// The common tail of every repair: drops the AltrM answer and the
/// staircase, whose selections may genuinely change, and marks the set
/// dirty — a repaired set must never match the version a snapshot
/// persisted for its pre-mutation state.
fn drop_answers(set: &mut ArtifactSet) {
    set.altr.take();
    set.staircase.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    set.note_mutation();
}

/// One remove + one rank-insert of `idx` in the ε-sorted run after its
/// juror changed: the stale entry is binary-located with the
/// pre-mutation rate, the fresh rank found under the post-mutation pool
/// — the same permutation a full re-sort would produce, since
/// [`eps_cmp`] is total.
fn reinsert_eps(order: &mut Vec<usize>, jurors: &[Juror], idx: usize, old: &Juror) {
    let r_old = locate_eps(order, jurors, idx, old.epsilon());
    order.remove(r_old);
    rank_insert_eps(order, jurors, idx);
}

/// The [`reinsert_eps`] of the greedy order: one remove + one
/// rank-insert under [`PayAlg::greedy_cmp`].
fn reinsert_greedy(order: &mut Vec<usize>, jurors: &[Juror], idx: usize, old: &Juror) {
    let g_old = locate_greedy(order, jurors, idx, old);
    order.remove(g_old);
    rank_insert_greedy(order, jurors, idx);
}

/// Rank-inserts pool position `idx` into the ε-sorted run.
fn rank_insert_eps(order: &mut Vec<usize>, jurors: &[Juror], idx: usize) {
    let r = order.partition_point(|&j| eps_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(r, idx);
}

/// Rank-inserts pool position `idx` into the greedy-sorted run.
fn rank_insert_greedy(order: &mut Vec<usize>, jurors: &[Juror], idx: usize) {
    let g = order.partition_point(|&j| PayAlg::greedy_cmp(jurors, j, idx) == Ordering::Less);
    order.insert(g, idx);
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
fn renumber_out(order: &mut Vec<usize>, idx: usize) {
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
