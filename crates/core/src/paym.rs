//! `PayALG` — the greedy heuristic for JSP on PayM (Algorithm 4, §3.3).
//!
//! JSP under PayM is NP-hard (Lemma 4 reduces an nth-order Knapsack
//! Problem to it), so the paper proposes a knapsack-style greedy:
//!
//! 1. sort candidates ascending by `ε_i · r_i` — cheap *and* reliable
//!    first;
//! 2. seed the jury with the first affordable candidate;
//! 3. walk the remaining candidates keeping a *pair* slot: because juries
//!    must stay odd, enlargements happen two jurors at a time. The first
//!    affordable candidate parks in the pair slot; when a second one fits
//!    the budget **and** the enlarged jury's JER does not degrade, both
//!    are admitted and the slot clears.
//!
//! The JER test uses an incrementally-maintained carelessness pmf: trying
//! a pair costs `O(n)` (two [`PoiBin::push`] calls on a copy) instead of a
//! fresh `O(n log n)` CBA run — the scan stays `O(N²)` worst case and
//! `O(N·n_final)` typically.
//!
//! # The budget staircase
//!
//! The budget enters Algorithm 4 only through affordability comparisons
//! `t ≤ B` whose thresholds `t` are cost sums determined by the trace so
//! far — so the selection is **piecewise constant in the budget**: the
//! whole budget axis collapses into a finite staircase of selections.
//! [`Staircase`] materialises that structure one step at a time: each
//! [`PayAlg::solve_staircase`] miss runs the ordinary greedy scan *once*,
//! instrumented to record the window `[lo, hi)` (`lo` = largest threshold
//! that passed, `hi` = smallest that failed) on which every comparison —
//! and therefore the entire admission trace, float op for float op —
//! replays identically. Any later budget inside a recorded window is
//! answered by binary search plus a clone of the stored [`Selection`],
//! **bit-identical** to [`PayAlg::solve_presorted`] (stats included)
//! because the step was produced by exactly that scan.

use crate::error::JuryError;
use crate::jer::JerEngine;
use crate::juror::Juror;
use crate::problem::{Selection, SolverStats};
use crate::solver::{flip, keyed_order_into, Solver, SolverScratch};
use jury_numeric::poibin::PoiBin;

/// Configuration for [`PayAlg::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PayConfig {
    /// Accept an enlargement only when it *strictly* improves JER.
    /// Algorithm 4 as printed uses `≤` (non-degrading); strict mode is an
    /// ablation that tends to produce smaller, cheaper juries with equal
    /// JER. Default: paper-faithful `false`.
    pub strict_improvement: bool,
}

/// The PayM greedy solver, holding its budget and configuration. The old
/// entry point (`PayAlg::solve(pool, budget, &config)`) keeps working as
/// an associated function; a configured value implements [`Solver`] for
/// the service layer and reuses caller-provided scratch buffers.
#[derive(Debug, Clone, Copy)]
pub struct PayAlg {
    /// Total payment budget `B ≥ 0`.
    pub budget: f64,
    /// Acceptance-rule configuration.
    pub config: PayConfig,
}

impl Default for PayAlg {
    /// Unlimited budget, paper-faithful acceptance.
    fn default() -> Self {
        Self { budget: f64::MAX, config: PayConfig::default() }
    }
}

impl PayAlg {
    /// A solver value with the given budget and configuration.
    pub fn new(budget: f64, config: PayConfig) -> Self {
        Self { budget, config }
    }

    /// Runs Algorithm 4 on `pool` with budget `budget`.
    ///
    /// Returned member indices refer to positions in `pool`.
    ///
    /// # Errors
    /// * [`JuryError::EmptyPool`] when `pool` is empty;
    /// * [`JuryError::InvalidBudget`] for negative or non-finite budgets;
    /// * [`JuryError::NoFeasibleJury`] when no single candidate is
    ///   affordable.
    pub fn solve(pool: &[Juror], budget: f64, config: &PayConfig) -> Result<Selection, JuryError> {
        Self { budget, config: *config }.solve_with(pool, &mut SolverScratch::new())
    }

    /// The greedy visit order of Algorithm 4 line 1 as a total order over
    /// pool positions: ascending `ε_i·r_i`, ties broken by cost, then ε,
    /// then position. Strict for distinct positions, so the sorted
    /// permutation is unique: a cached order repaired by remove +
    /// rank-insert equals a fresh sort. [`PayAlg::greedy_order_into`]
    /// sorts by packed keys that encode exactly this order.
    #[inline]
    pub fn greedy_cmp(pool: &[Juror], a: usize, b: usize) -> std::cmp::Ordering {
        pool[a]
            .greedy_key()
            .total_cmp(&pool[b].greedy_key())
            .then(pool[a].cost.total_cmp(&pool[b].cost))
            .then(pool[a].epsilon().total_cmp(&pool[b].epsilon()))
            .then(a.cmp(&b))
    }

    /// Writes the greedy visit order of Algorithm 4 line 1 into `order`:
    /// ascending `ε_i·r_i` (ties: cheaper, then more reliable, then lower
    /// index — deterministic). The order depends only on the pool, not
    /// the budget, so a serving layer caches it per pool and replays it
    /// across tasks via [`PayAlg::solve_presorted`].
    ///
    /// Sorts one packed key `flip(ε·r) << 64 | index` per juror, where
    /// `flip` maps a float to bits that order like `total_cmp` (so a cost
    /// of `−0.0` sorts before `+0.0`); each run of equal `ε·r` is re-keyed
    /// by cost, and each run of equal cost by ε. The permutation is
    /// exactly [`PayAlg::greedy_cmp`]'s.
    pub fn greedy_order_into(pool: &[Juror], order: &mut Vec<usize>) {
        keyed_order_into(
            pool,
            order,
            |j| flip(j.greedy_key()),
            &[|j| flip(j.cost), |j| j.epsilon().to_bits()],
        );
    }

    /// The scratch-threaded form of [`PayAlg::solve`]: bit-identical
    /// results; with warm buffers the only allocation is the returned
    /// [`Selection`].
    pub fn solve_with(
        &self,
        pool: &[Juror],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        let SolverScratch { order, pmf, trial, .. } = scratch;
        Self::greedy_order_into(pool, order);
        self.scan(pool, order, pmf, trial)
    }

    /// Runs the greedy scan over a precomputed visit order (which must be
    /// exactly what [`PayAlg::greedy_order_into`] produces for `pool`) —
    /// the cache-hit path of the serving layer. Bit-identical to
    /// [`PayAlg::solve`].
    pub fn solve_presorted(
        &self,
        pool: &[Juror],
        order: &[usize],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        debug_assert_eq!(order.len(), pool.len(), "order must cover the pool");
        let SolverScratch { pmf, trial, .. } = scratch;
        self.scan(pool, order, pmf, trial)
    }

    /// Runs the greedy scan over a precomputed visit order through a
    /// budget [`Staircase`]: a budget inside an already-recorded step is
    /// answered by binary search plus a clone of the stored selection; a
    /// miss runs the instrumented scan once and records the step. Either
    /// way the result is **bit-identical** to
    /// [`PayAlg::solve_presorted`] on the same `pool` and `order` —
    /// members, JER bits, cost bits and [`SolverStats`] — because a step
    /// is only ever certified for the budget window on which the whole
    /// admission trace is constant.
    ///
    /// The staircase is tied to this `(pool, order, config)` snapshot:
    /// callers must [`Staircase::clear`] it whenever any of the three
    /// change.
    pub fn solve_staircase(
        &self,
        pool: &[Juror],
        order: &[usize],
        staircase: &mut Staircase,
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        if let Some(replay) = staircase.lookup(self.budget) {
            return replay;
        }
        debug_assert_eq!(order.len(), pool.len(), "order must cover the pool");
        let SolverScratch { pmf, trial, .. } = scratch;
        let (result, window) = self.scan_traced(pool, order, pmf, trial, StepWindow::new());
        match &result {
            Ok(selection) => staircase.record(window, Some(selection.clone())),
            Err(JuryError::NoFeasibleJury { .. }) => staircase.record(window, None),
            // Invalid budgets and empty pools are not budget intervals.
            Err(_) => {}
        }
        result
    }

    /// Algorithm 4 lines 2-16 over an already-sorted candidate order.
    fn scan(
        &self,
        pool: &[Juror],
        order: &[usize],
        pmf: &mut PoiBin,
        trial: &mut PoiBin,
    ) -> Result<Selection, JuryError> {
        self.scan_traced(pool, order, pmf, trial, IgnoreWindow).0
    }

    /// The scan with every affordability comparison `t ≤ budget` reported
    /// to `window`. [`IgnoreWindow`] compiles the reports away, keeping
    /// the plain path's codegen; [`StepWindow`] accumulates the budget
    /// interval on which this exact trace replays. The window travels by
    /// value and comes back with the result: passed behind a `&mut`,
    /// the traced scan ran about a third slower than the plain one on
    /// 10⁴ jurors (32 against 23 µs per scan on a 2-vCPU x86 host); by
    /// value the two take the same time.
    fn scan_traced<W: BudgetTrace>(
        &self,
        pool: &[Juror],
        order: &[usize],
        pmf: &mut PoiBin,
        trial: &mut PoiBin,
        mut window: W,
    ) -> (Result<Selection, JuryError>, W) {
        let budget = self.budget;
        let config = &self.config;
        if pool.is_empty() {
            return (Err(JuryError::EmptyPool), window);
        }
        if !budget.is_finite() && budget != f64::MAX {
            return (Err(JuryError::InvalidBudget(budget)), window);
        }
        if budget < 0.0 {
            return (Err(JuryError::InvalidBudget(budget)), window);
        }
        let mut stats = SolverStats::default();

        // Lines 3-5: first affordable candidate seeds the jury.
        let mut first_pos = None;
        for (pos, &i) in order.iter().enumerate() {
            if pool[i].cost <= budget {
                window.passed(pool[i].cost);
                first_pos = Some(pos);
                break;
            }
            window.failed(pool[i].cost);
        }
        let Some(first_pos) = first_pos else {
            return (Err(JuryError::NoFeasibleJury { budget }), window);
        };
        let seed = order[first_pos];
        let mut members = vec![seed];
        let mut spent = pool[seed].cost;
        pmf.reset();
        pmf.push(pool[seed].epsilon());
        let mut jer = pmf.tail(1);
        stats.jer_evaluations += 1;

        // Lines 8-16: pairwise enlargement.
        let mut pair: Option<usize> = None;
        for &cand in &order[first_pos + 1..] {
            stats.candidates_considered += 1;
            match pair {
                None => {
                    let threshold = pool[cand].cost + spent;
                    if threshold <= budget {
                        window.passed(threshold);
                        pair = Some(cand);
                    } else {
                        window.failed(threshold);
                    }
                }
                Some(p) => {
                    let pair_cost = pool[p].cost + pool[cand].cost;
                    let threshold = spent + pair_cost;
                    if threshold <= budget {
                        window.passed(threshold);
                        trial.copy_from(pmf);
                        trial.push(pool[p].epsilon());
                        trial.push(pool[cand].epsilon());
                        let n = members.len() + 2;
                        let trial_jer = trial.tail(JerEngine::majority_threshold(n));
                        stats.jer_evaluations += 1;
                        let accept = if config.strict_improvement {
                            trial_jer < jer
                        } else {
                            trial_jer <= jer
                        };
                        if accept {
                            members.push(p);
                            members.push(cand);
                            spent += pair_cost;
                            std::mem::swap(pmf, trial);
                            jer = trial_jer;
                            pair = None;
                        }
                    } else {
                        window.failed(threshold);
                    }
                }
            }
        }

        members.sort_unstable();
        (Ok(Selection { members, jer, total_cost: spent, stats }), window)
    }
}

/// Witness for the scan's budget comparisons (see
/// [`PayAlg::scan_traced`]).
trait BudgetTrace {
    /// A comparison `threshold ≤ budget` that succeeded.
    fn passed(&mut self, threshold: f64);
    /// A comparison `threshold ≤ budget` that failed.
    fn failed(&mut self, threshold: f64);
}

/// No-op witness for the plain solve paths.
struct IgnoreWindow;

impl BudgetTrace for IgnoreWindow {
    #[inline]
    fn passed(&mut self, _: f64) {}
    #[inline]
    fn failed(&mut self, _: f64) {}
}

/// Accumulates the half-open budget interval `[lo, hi)` on which every
/// comparison the scan made keeps its outcome: `lo` is the largest
/// threshold that passed (thresholds are non-negative cost sums, so the
/// interval is clamped to start at 0), `hi` the smallest that failed.
#[derive(Debug, Clone, Copy)]
struct StepWindow {
    lo: f64,
    hi: f64,
}

impl StepWindow {
    fn new() -> Self {
        Self { lo: 0.0, hi: f64::INFINITY }
    }
}

impl BudgetTrace for StepWindow {
    #[inline]
    fn passed(&mut self, threshold: f64) {
        if threshold > self.lo {
            self.lo = threshold;
        }
    }

    #[inline]
    fn failed(&mut self, threshold: f64) {
        if threshold < self.hi {
            self.hi = threshold;
        }
    }
}

/// One recorded step of the budget staircase: on `[lo, hi)` the greedy
/// trace is constant and yields `selection` (`None` marks the
/// no-affordable-juror interval below the cheapest candidate).
#[derive(Debug, Clone)]
struct Step {
    lo: f64,
    hi: f64,
    selection: Option<Selection>,
}

/// Upper bound on recorded steps: beyond it, misses still solve correctly
/// but are no longer memoised, bounding memory under adversarial budget
/// streams. Real workloads see a handful of steps per pool.
const MAX_STAIRCASE_STEPS: usize = 4096;

/// The PayM budget→selection staircase of one `(pool, visit order,
/// config)` snapshot — a sorted, disjoint set of half-open budget
/// intervals each carrying the [`Selection`] the greedy scan produces
/// anywhere inside it (see the module docs). Steps are recorded lazily by
/// [`PayAlg::solve_staircase`]; serving layers cache one staircase per
/// pool generation and clear it on any juror mutation.
#[derive(Debug, Clone, Default)]
pub struct Staircase {
    steps: Vec<Step>,
}

impl Staircase {
    /// An empty staircase (steps are recorded on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every recorded step — required whenever the pool, the visit
    /// order or the solver configuration changes.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no step has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Replays the recorded outcome for `budget`, if some step covers it:
    /// a clone of the stored selection, or the
    /// [`JuryError::NoFeasibleJury`] the scan would report. Returns
    /// `None` (caller must run the scan) for uncovered or invalid
    /// budgets.
    pub fn lookup(&self, budget: f64) -> Option<Result<Selection, JuryError>> {
        if !(budget.is_finite() && budget >= 0.0) {
            return None;
        }
        let idx = self.steps.partition_point(|s| s.lo <= budget);
        let step = self.steps[..idx].last()?;
        if budget >= step.hi {
            return None;
        }
        Some(match &step.selection {
            Some(selection) => Ok(selection.clone()),
            None => Err(JuryError::NoFeasibleJury { budget }),
        })
    }

    /// Records every step of `other`, a staircase of the same `(pool,
    /// visit order, config)` snapshot, trimming against the steps already
    /// here like [`PayAlg::solve_staircase`] does. A serving layer scans a
    /// miss into a private staircase outside any lock and merges the
    /// step into the shared one afterwards.
    pub fn merge(&mut self, other: Staircase) {
        for step in other.steps {
            self.record(StepWindow { lo: step.lo, hi: step.hi }, step.selection);
        }
    }

    /// Records one scan outcome on its certified window, trimming against
    /// already-recorded neighbours (overlapping regions are certified by
    /// both traces and therefore agree).
    fn record(&mut self, window: StepWindow, selection: Option<Selection>) {
        if self.steps.len() >= MAX_STAIRCASE_STEPS {
            return;
        }
        let StepWindow { mut lo, mut hi } = window;
        let idx = self.steps.partition_point(|s| s.lo <= lo);
        if let Some(prev) = idx.checked_sub(1).and_then(|i| self.steps.get(i)) {
            lo = lo.max(prev.hi);
        }
        if let Some(next) = self.steps.get(idx) {
            hi = hi.min(next.lo);
        }
        if lo < hi {
            self.steps.insert(idx, Step { lo, hi, selection });
        }
    }
}

impl Solver for PayAlg {
    fn name(&self) -> &'static str {
        "paym"
    }

    fn solve(
        &mut self,
        pool: &[Juror],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        self.solve_with(pool, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::juror::{pool_from_rates_and_costs, ErrorRate, Juror};

    /// Figure 1 pool: (ε, r) for users A..G.
    fn figure1_pool() -> Vec<Juror> {
        pool_from_rates_and_costs(&[
            (0.1, 0.2),  // A
            (0.2, 0.2),  // B
            (0.2, 0.3),  // C
            (0.3, 0.4),  // D
            (0.3, 0.65), // E
            (0.4, 0.05), // F
            (0.4, 0.05), // G
        ])
        .unwrap()
    }

    #[test]
    fn respects_budget() {
        let pool = figure1_pool();
        for budget in [0.05, 0.1, 0.3, 0.5, 1.0, 2.0] {
            let sel = PayAlg::solve(&pool, budget, &PayConfig::default()).unwrap();
            assert!(sel.total_cost <= budget + 1e-12, "budget {budget}");
            assert_eq!(sel.size() % 2, 1, "budget {budget}");
            // Reported cost must equal the members' summed costs.
            let recomputed: f64 = sel.members.iter().map(|&i| pool[i].cost).sum();
            assert!((sel.total_cost - recomputed).abs() < 1e-12);
        }
    }

    #[test]
    fn generous_budget_reaches_good_jury() {
        // With budget 2.0 everything (1.85 total) is affordable; greedy
        // should land at a jury at least as good as the best single juror.
        let pool = figure1_pool();
        let sel = PayAlg::solve(&pool, 2.0, &PayConfig::default()).unwrap();
        assert!(sel.jer <= 0.1 + 1e-12);
        assert!(sel.size() >= 3);
    }

    #[test]
    fn tight_budget_returns_single_affordable_juror() {
        // Budget 0.05: only F or G (cost 0.05) are affordable.
        let pool = figure1_pool();
        let sel = PayAlg::solve(&pool, 0.05, &PayConfig::default()).unwrap();
        assert_eq!(sel.size(), 1);
        assert!(sel.members == vec![5] || sel.members == vec![6]);
        assert!((sel.jer - 0.4).abs() < 1e-12);
    }

    #[test]
    fn no_affordable_juror_is_an_error() {
        let pool = figure1_pool();
        assert_eq!(
            PayAlg::solve(&pool, 0.01, &PayConfig::default()),
            Err(JuryError::NoFeasibleJury { budget: 0.01 })
        );
    }

    #[test]
    fn zero_budget_with_free_jurors_works() {
        let e = ErrorRate::new(0.3).unwrap();
        let pool: Vec<Juror> = (0..5).map(|i| Juror::new(i, e, 0.0)).collect();
        let sel = PayAlg::solve(&pool, 0.0, &PayConfig::default()).unwrap();
        assert_eq!(sel.total_cost, 0.0);
        assert_eq!(sel.size(), 5); // free homogeneous jurors: all admitted
    }

    #[test]
    fn empty_pool_and_bad_budget() {
        assert_eq!(PayAlg::solve(&[], 1.0, &PayConfig::default()), Err(JuryError::EmptyPool));
        let pool = figure1_pool();
        assert!(matches!(
            PayAlg::solve(&pool, -0.5, &PayConfig::default()),
            Err(JuryError::InvalidBudget(_))
        ));
        assert!(matches!(
            PayAlg::solve(&pool, f64::NAN, &PayConfig::default()),
            Err(JuryError::InvalidBudget(_))
        ));
    }

    #[test]
    fn enlargement_never_degrades_jer() {
        // The acceptance test guarantees final JER ≤ the seed juror's ε,
        // where the seed is the first affordable juror in the solver's
        // (key, cost, ε, index) order.
        let pool = figure1_pool();
        for budget in [0.2, 0.4, 0.6, 0.8, 1.0, 1.5] {
            let sel = PayAlg::solve(&pool, budget, &PayConfig::default()).unwrap();
            let mut order: Vec<usize> = (0..pool.len()).collect();
            order.sort_by(|&a, &b| PayAlg::greedy_cmp(&pool, a, b));
            let seed_eps = order
                .iter()
                .map(|&i| &pool[i])
                .find(|j| j.cost <= budget)
                .map(|j| j.epsilon())
                .unwrap();
            assert!(
                sel.jer <= seed_eps + 1e-12,
                "budget {budget}: jer {} vs seed {seed_eps}",
                sel.jer
            );
        }
    }

    #[test]
    fn strict_mode_never_larger_than_lenient() {
        let e = ErrorRate::new(0.3).unwrap();
        // Homogeneous ε and zero costs: enlargements keep JER *equal* only
        // when ε = 0.5; with ε = 0.3 bigger is strictly better, so both
        // modes agree. With ε = 0.5 lenient grows, strict stays at 1.
        let pool: Vec<Juror> =
            (0..7).map(|i| Juror::new(i, ErrorRate::new(0.5).unwrap(), 0.0)).collect();
        let lenient = PayAlg::solve(&pool, 1.0, &PayConfig::default()).unwrap();
        let strict = PayAlg::solve(&pool, 1.0, &PayConfig { strict_improvement: true }).unwrap();
        assert!(strict.size() <= lenient.size());
        assert_eq!(strict.size(), 1);
        assert!((strict.jer - lenient.jer).abs() < 1e-12);

        let pool: Vec<Juror> = (0..7).map(|i| Juror::new(i, e, 0.0)).collect();
        let lenient = PayAlg::solve(&pool, 1.0, &PayConfig::default()).unwrap();
        let strict = PayAlg::solve(&pool, 1.0, &PayConfig { strict_improvement: true }).unwrap();
        assert_eq!(strict.members, lenient.members);
    }

    #[test]
    fn greedy_sort_prefers_cheap_reliable() {
        // ε·r keys: A: .02, B: .04, C: .06, D: .12, E: .195, F: .02, G: .02
        // With budget .45 the seed is A (key .02 ties with F,G; cheaper?
        // no — F,G cost 0.05 < 0.2 so F wins the cost tie-break at equal
        // key). Verify determinism rather than a specific winner:
        let pool = figure1_pool();
        let a = PayAlg::solve(&pool, 0.45, &PayConfig::default()).unwrap();
        let b = PayAlg::solve(&pool, 0.45, &PayConfig::default()).unwrap();
        assert_eq!(a, b);
        assert!(a.total_cost <= 0.45 + 1e-12);
    }

    #[test]
    fn budget_exactly_covering_one_pair_is_used() {
        // Seed (free) + pair of cost 0.5 each, budget 1.0: both admitted
        // since homogeneous ε=0.2 and size 3 beats size 1.
        let e = ErrorRate::new(0.2).unwrap();
        let pool = vec![Juror::new(0, e, 0.0), Juror::new(1, e, 0.5), Juror::new(2, e, 0.5)];
        let sel = PayAlg::solve(&pool, 1.0, &PayConfig::default()).unwrap();
        assert_eq!(sel.members, vec![0, 1, 2]);
        assert!((sel.total_cost - 1.0).abs() < 1e-12);
        assert!((sel.jer - 0.104).abs() < 1e-12); // 3·(.2²·.8)+.2³ = 0.104
    }

    #[test]
    fn stats_count_work() {
        let pool = figure1_pool();
        let sel = PayAlg::solve(&pool, 1.0, &PayConfig::default()).unwrap();
        assert!(sel.stats.jer_evaluations >= 1);
        assert_eq!(sel.stats.candidates_considered, 6); // everyone after the seed
    }

    /// Budgets hitting affordability cliffs exactly, just under, just
    /// over, and far between them.
    fn probe_budgets(pool: &[Juror]) -> Vec<f64> {
        let mut order = Vec::new();
        PayAlg::greedy_order_into(pool, &mut order);
        let mut budgets = vec![0.0, f64::MAX];
        let mut acc = 0.0;
        for &j in &order {
            acc += pool[j].cost;
            budgets.extend([acc, acc - 1e-9, acc + 1e-9, acc * 0.5, acc * 1.75]);
        }
        budgets
    }

    #[test]
    fn staircase_replays_bit_identical_to_presorted() {
        let pool = figure1_pool();
        let mut order = Vec::new();
        PayAlg::greedy_order_into(&pool, &mut order);
        let mut staircase = Staircase::new();
        let mut scratch = SolverScratch::new();
        for &budget in &probe_budgets(&pool) {
            let alg = PayAlg::new(budget, PayConfig::default());
            let direct = alg.solve_presorted(&pool, &order, &mut SolverScratch::new());
            // Miss (first visit) and hit (second visit) must both match.
            for round in 0..2 {
                let got = alg.solve_staircase(&pool, &order, &mut staircase, &mut scratch);
                match (&got, &direct) {
                    (Ok(g), Ok(d)) => {
                        assert_eq!(g, d, "budget {budget} round {round}");
                        assert_eq!(g.jer.to_bits(), d.jer.to_bits(), "budget {budget}");
                        assert_eq!(g.total_cost.to_bits(), d.total_cost.to_bits());
                        assert_eq!(g.stats, d.stats, "budget {budget}");
                    }
                    (Err(g), Err(d)) => assert_eq!(g, d, "budget {budget}"),
                    other => panic!("budget {budget}: {other:?}"),
                }
            }
        }
        // The ladder collapsed all probed budgets into few steps, and
        // repeats were answered from it.
        assert!(!staircase.is_empty());
        assert!(staircase.len() <= probe_budgets(&pool).len());
    }

    #[test]
    fn merged_private_steps_replay_like_one_shared_staircase() {
        let pool = figure1_pool();
        let mut order = Vec::new();
        PayAlg::greedy_order_into(&pool, &mut order);
        let mut scratch = SolverScratch::new();
        let (mut shared, mut direct) = (Staircase::new(), Staircase::new());
        for &budget in &probe_budgets(&pool) {
            let alg = PayAlg::new(budget, PayConfig::default());
            // Each budget scans into its own staircase, as a worker that
            // missed outside the lock would; repeats merge to nothing new.
            let mut private = Staircase::new();
            alg.solve_staircase(&pool, &order, &mut private, &mut scratch).ok();
            shared.merge(private.clone());
            let steps = shared.len();
            shared.merge(private);
            assert_eq!(shared.len(), steps, "budget {budget}: a re-merged step was recorded");
            alg.solve_staircase(&pool, &order, &mut direct, &mut scratch).ok();
        }
        for &budget in &probe_budgets(&pool) {
            let want = PayAlg::new(budget, PayConfig::default()).solve_presorted(
                &pool,
                &order,
                &mut scratch,
            );
            assert_eq!(shared.lookup(budget), Some(want), "budget {budget}");
        }
        // Two traces' windows are equal or disjoint, so the merged
        // staircase holds exactly the steps of the one shared staircase.
        assert_eq!(shared.len(), direct.len());
    }

    #[test]
    fn staircase_covers_infeasible_and_invalid_budgets() {
        let pool = figure1_pool(); // cheapest candidate costs 0.05
        let mut order = Vec::new();
        PayAlg::greedy_order_into(&pool, &mut order);
        let mut staircase = Staircase::new();
        let mut scratch = SolverScratch::new();
        let alg = PayAlg::new(0.01, PayConfig::default());
        assert_eq!(
            alg.solve_staircase(&pool, &order, &mut staircase, &mut scratch),
            Err(JuryError::NoFeasibleJury { budget: 0.01 })
        );
        assert_eq!(staircase.len(), 1, "the infeasible interval is a step");
        // A different infeasible budget replays from the step, carrying
        // its own budget in the error.
        assert_eq!(staircase.lookup(0.02), Some(Err(JuryError::NoFeasibleJury { budget: 0.02 })));
        // Invalid budgets never enter the staircase.
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(staircase.lookup(bad).is_none());
            let alg = PayAlg::new(bad, PayConfig::default());
            assert!(matches!(
                alg.solve_staircase(&pool, &order, &mut staircase, &mut scratch),
                Err(JuryError::InvalidBudget(_))
            ));
        }
        assert_eq!(staircase.len(), 1);
        // Clearing empties it.
        let mut cleared = staircase;
        cleared.clear();
        assert!(cleared.is_empty());
        assert!(cleared.lookup(0.01).is_none());
    }
}
