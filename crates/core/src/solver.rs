//! The [`Solver`] trait: one interface over every JSP algorithm.
//!
//! The paper presents AltrALG, PayALG and the exact enumeration as
//! unrelated procedures. A serving layer (the `jury-service` crate)
//! needs them interchangeable *and* cheap to call repeatedly, so this
//! module gives them a common shape:
//!
//! * a solver is a small value holding its configuration (strategy,
//!   engine, budget) — construct once, reuse for many pools;
//! * every per-call working buffer lives in a [`SolverScratch`] owned by
//!   the caller (one per worker thread), so a warm solve performs no
//!   heap allocation beyond the returned [`Selection`];
//! * results are bit-identical to the free-function entry points
//!   (`AltrAlg::solve`, `PayAlg::solve`, `exact_paym`), which now share
//!   the same scratch-threaded internals.
//!
//! ```
//! use jury_core::juror::pool_from_rates;
//! use jury_core::prelude::*;
//! use jury_core::solver::{Solver, SolverScratch};
//!
//! let pool = pool_from_rates(&[0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]).unwrap();
//! let mut scratch = SolverScratch::new();
//! let mut solvers: Vec<Box<dyn Solver>> = vec![
//!     Box::new(AltrAlg::default()),
//!     Box::new(PayAlg::new(1.0, PayConfig::default())),
//! ];
//! for solver in &mut solvers {
//!     let selection = solver.solve(&pool, &mut scratch).unwrap();
//!     assert!(selection.size() % 2 == 1);
//! }
//! ```

use crate::error::JuryError;
use crate::jer::JerScratch;
use crate::juror::Juror;
use crate::problem::Selection;
use jury_numeric::poibin::PoiBin;

/// Caller-owned working memory shared by all solvers.
///
/// Buffers grow to the workload's steady-state sizes on first use and
/// are reused afterwards; dropping the scratch releases everything. A
/// scratch must not be shared between threads concurrently — give each
/// worker its own.
///
/// The same `pmf`/`trial` pair also backs the budget-staircase miss path
/// ([`PayAlg::solve_staircase`](crate::paym::PayAlg::solve_staircase)):
/// a staircase miss runs one ordinary scan through these buffers, so a
/// serving layer needs no extra per-worker state to adopt the staircase.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    /// Pool indices in the solver's visit order.
    pub(crate) order: Vec<usize>,
    /// Error rates aligned with `order`.
    pub(crate) eps: Vec<f64>,
    /// Incrementally-grown carelessness pmf.
    pub(crate) pmf: PoiBin,
    /// Trial pmf for tentative enlargements (PayALG's pair test).
    pub(crate) trial: PoiBin,
    /// JER-engine working buffers.
    pub(crate) jer: JerScratch,
    /// Per-odd-size lower bounds of `AltrAlg::solve_pruned`'s sweep.
    pub(crate) bounds: Vec<f64>,
}

impl SolverScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A configured jury-selection algorithm.
///
/// Implemented by [`AltrAlg`](crate::altr::AltrAlg) (exact under AltrM),
/// [`PayAlg`](crate::paym::PayAlg) (greedy under PayM) and
/// [`ExactPaym`](crate::exact::ExactPaym) (exponential ground truth).
/// `&mut self` lets stateful solvers cache across calls; the provided
/// implementations keep all reusable state in the scratch instead.
pub trait Solver {
    /// A short stable identifier (used in service stats and reports).
    fn name(&self) -> &'static str;

    /// Selects a jury from `pool`, using `scratch` for working memory.
    ///
    /// Member indices in the returned [`Selection`] refer to positions
    /// in `pool`.
    fn solve(
        &mut self,
        pool: &[Juror],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError>;
}

/// The ε-ascending total order over pool positions: `ε` by `total_cmp`,
/// ties by position. Strict for distinct positions, which is what makes a
/// cached order repaired by remove + rank-insert reproduce a fresh sort
/// permutation-for-permutation. [`sorted_order_into`] sorts by a packed
/// key that encodes exactly this order.
#[inline]
pub fn eps_cmp(pool: &[Juror], a: usize, b: usize) -> std::cmp::Ordering {
    pool[a].epsilon().total_cmp(&pool[b].epsilon()).then(a.cmp(&b))
}

/// Pool indices sorted ascending by ε (ties by index for determinism),
/// written into `order` — the shared first step of AltrALG and the
/// fixed-size selector; public so serving layers can cache the order per
/// pool.
///
/// Sorts one packed key `ε bits << 64 | index` per juror instead of
/// calling [`eps_cmp`] on pool entries: [`ErrorRate`](crate::juror::ErrorRate)
/// keeps ε in (0, 1), where the raw bits order like `total_cmp`, so the
/// permutation is exactly [`eps_cmp`]'s.
pub fn sorted_order_into(pool: &[Juror], order: &mut Vec<usize>) {
    keyed_order_into(pool, order, |j| j.epsilon().to_bits(), &[]);
}

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp`'s: a
/// negative value has every bit flipped, a non-negative one only its sign
/// bit. So `−0.0` sorts before `+0.0`, and equal keys mean equal bits.
#[inline]
pub(crate) fn flip(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Writes the pool positions into `order`, sorted by `key`, then by each
/// of `ties` in turn, then by position — the order of a comparator that
/// chains those fields with `then` and ends in `a.cmp(&b)`.
///
/// Each juror gets one 16-byte key `field << 64 | position`, sorted with
/// `sort_unstable`: positions are distinct, so the sort is total and no
/// comparison loads a juror. A run of equal `field` is re-keyed in place
/// with the next tie field and sorted again, so a pool-sized tie run
/// (an all-free pool under the greedy order) stays a packed-key sort. The
/// key buffer is the only transient allocation and is dropped on return.
pub(crate) fn keyed_order_into(
    pool: &[Juror],
    order: &mut Vec<usize>,
    key: impl Fn(&Juror) -> u64,
    ties: &[fn(&Juror) -> u64],
) {
    let mut keys: Vec<u128> = pool.iter().enumerate().map(|(i, j)| pack(key(j), i)).collect();
    sort_runs(pool, &mut keys, ties);
    order.clear();
    order.extend(keys.iter().map(|&k| position(k)));
}

/// Sorts `keys`, then re-keys every run of equal field by `ties[0]` and
/// sorts it by the rest, recursively.
fn sort_runs(pool: &[Juror], keys: &mut [u128], ties: &[fn(&Juror) -> u64]) {
    keys.sort_unstable();
    let Some((&next, rest)) = ties.split_first() else { return };
    for run in keys.chunk_by_mut(|a, b| a >> 64 == b >> 64).filter(|run| run.len() > 1) {
        for k in run.iter_mut() {
            let i = position(*k);
            *k = pack(next(&pool[i]), i);
        }
        sort_runs(pool, run, rest);
    }
}

#[inline]
fn pack(field: u64, position: usize) -> u128 {
    u128::from(field) << 64 | position as u128
}

#[inline]
fn position(key: u128) -> usize {
    key as u64 as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::altr::{AltrAlg, AltrConfig};
    use crate::exact::ExactPaym;
    use crate::juror::{pool_from_rates, pool_from_rates_and_costs};
    use crate::paym::{PayAlg, PayConfig};

    #[test]
    fn trait_objects_dispatch_all_solvers() {
        let pool = pool_from_rates_and_costs(&[
            (0.1, 0.2),
            (0.2, 0.2),
            (0.2, 0.3),
            (0.3, 0.4),
            (0.3, 0.65),
            (0.4, 0.05),
            (0.4, 0.05),
        ])
        .unwrap();
        let mut scratch = SolverScratch::new();
        let mut solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(AltrAlg::default()),
            Box::new(AltrAlg::new(AltrConfig::paper_with_bound())),
            Box::new(PayAlg::new(1.0, PayConfig::default())),
            Box::new(ExactPaym::with_budget(1.0)),
        ];
        for solver in &mut solvers {
            let sel = solver.solve(&pool, &mut scratch).unwrap();
            assert!(sel.size() % 2 == 1, "{}", solver.name());
            assert!(!solver.name().is_empty());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // Run a mixed sequence of solves through ONE scratch and compare
        // each against a fresh-scratch run: warm buffers must never
        // change any result.
        let pools: Vec<Vec<crate::juror::Juror>> = vec![
            pool_from_rates(&[0.4, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2]).unwrap(),
            pool_from_rates(&[0.45, 0.48, 0.33]).unwrap(),
            pool_from_rates(&(0..80).map(|i| 0.05 + (i as f64) / 100.0).collect::<Vec<_>>())
                .unwrap(),
        ];
        let mut warm = SolverScratch::new();
        for _ in 0..3 {
            for pool in &pools {
                let mut altr = AltrAlg::default();
                let a = altr.solve(pool, &mut warm).unwrap();
                let b = altr.solve(pool, &mut SolverScratch::new()).unwrap();
                assert_eq!(a, b);
                let mut pay = PayAlg::new(f64::MAX, PayConfig::default());
                let a = pay.solve(pool, &mut warm).unwrap();
                let b = pay.solve(pool, &mut SolverScratch::new()).unwrap();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn sorted_order_reuses_and_sorts() {
        let pool = pool_from_rates(&[0.4, 0.1, 0.3, 0.1]).unwrap();
        let mut order = vec![99; 32];
        sorted_order_into(&pool, &mut order);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn flip_orders_like_total_cmp() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        assert!(subnormal.is_subnormal());
        let ascending =
            [-f64::MAX, -1.0, -subnormal, -0.0, 0.0, subnormal, f64::MIN_POSITIVE, 1.0, f64::MAX];
        for (i, a) in ascending.iter().enumerate() {
            for (j, b) in ascending.iter().enumerate() {
                assert_eq!(flip(*a).cmp(&flip(*b)), a.total_cmp(b), "{a:e} vs {b:e}");
                assert_eq!(flip(*a).cmp(&flip(*b)), i.cmp(&j), "{a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn greedy_order_of_an_all_free_pool_is_the_eps_order() {
        // Every ε·r is +0.0 and every cost +0.0, so the whole pool is one
        // tie run that the ε tier alone decides; repeated rates make the
        // position decide within it.
        let rates: Vec<f64> = (0..10_000).map(|i| 0.01 + (i * 7919 % 97) as f64 / 100.0).collect();
        let pool = pool_from_rates(&rates).unwrap();
        let (mut eps, mut greedy) = (Vec::new(), Vec::new());
        sorted_order_into(&pool, &mut eps);
        PayAlg::greedy_order_into(&pool, &mut greedy);
        assert_eq!(greedy, eps);
        let mut reference: Vec<usize> = (0..pool.len()).collect();
        reference.sort_by(|&a, &b| eps_cmp(&pool, a, b));
        assert_eq!(eps, reference);
    }
}
