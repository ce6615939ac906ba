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
/// permutation-for-permutation.
#[inline]
pub fn eps_cmp(pool: &[Juror], a: usize, b: usize) -> std::cmp::Ordering {
    pool[a].epsilon().total_cmp(&pool[b].epsilon()).then(a.cmp(&b))
}

/// Pool indices sorted ascending by ε (ties by index for determinism),
/// written into `order` — the shared first step of AltrALG and the
/// fixed-size selector; public so serving layers can cache the order per
/// pool.
pub fn sorted_order_into(pool: &[Juror], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..pool.len());
    order.sort_by(|&a, &b| eps_cmp(pool, a, b));
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
}
