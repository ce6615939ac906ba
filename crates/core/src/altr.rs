//! `AltrALG` — JSP on the altruism model (Algorithm 3, §3.2).
//!
//! Lemma 3 proves JER is monotone increasing in any member's individual
//! error rate at fixed jury size, so for every size `n` the best jury is
//! the `n` lowest-ε candidates. AltrALG therefore sorts the pool by ε and
//! scans odd prefix sizes `1, 3, 5, …, N`, keeping the prefix with minimum
//! JER. The scan is exact: unlike JER's behaviour in ε, JER is *not*
//! monotone in `n` (Table 2's 5-vs-7 example), so every odd size must be
//! inspected.
//!
//! Two strategies:
//!
//! * [`AltrStrategy::PaperRecompute`] — Algorithm 3 as printed: each
//!   prefix's JER is recomputed from scratch with a configurable engine;
//!   with the Lemma-2 lower-bound check (`γ < 1` gate, then prune when the
//!   bound already exceeds the incumbent JER) optionally enabled, exactly
//!   like lines 5–13 of the pseudo-code. `O(N² log N)` with CBA.
//! * [`AltrStrategy::Incremental`] — an extension: maintain the
//!   carelessness pmf and extend it by two jurors per step (`O(n)` each),
//!   making the whole scan `O(N²)` with a much smaller constant. Produces
//!   identical selections; the `altr_scaling` bench quantifies the gap.
//!
//! [`AltrAlg::solve_pruned`] is the serving layer's form of the
//! incremental scan: moment bounds and a monotonicity proof skip the
//! sizes that cannot win, with the same answer bit for bit.
//!
//! **A `0.0` answer.** JER is a tail sum clamped to `[0, 1]` in `f64`.
//! Large reliable pools drive it below the smallest subnormal
//! (`4.9e-324`), where it reads exactly `0.0`. Every scan keeps the
//! first size that reaches the minimum, so a `0.0` answer is the
//! smallest prefix whose JER underflows: the cheapest jury among those
//! `f64` cannot tell apart.

use crate::error::JuryError;
use crate::jer::{jer_gamma, jer_lower_bound, JerEngine, JerScratch};
use crate::juror::Juror;
use crate::problem::{Selection, SolverStats};
use crate::solver::{sorted_order_into, Solver, SolverScratch};
use jury_numeric::bounds::{PrefixMoments, TailBound};
use jury_numeric::poibin::PoiBin;

/// Multiplicative safety slack of the bound-pruned scan: a candidate
/// size is eliminated only when its certified lower bound exceeds the
/// incumbent upper bound by more than this relative margin. Combined
/// with [`PRUNE_MARGIN`] it dominates the `O(1)` moment kernels' worst
/// relative rounding error (≲ 10⁻⁶ once the margin holds), so float
/// rounding can never prune the true argmin —
/// [`AltrAlg::solve_pruned`]'s bit-identity rests on it. The same slack
/// guards the monotone-segment exit, where an evaluated JER must clear
/// the best by it before the larger sizes are skipped.
///
/// The Berry–Esseen lower bound needs no slack or margin of its own: it
/// subtracts an absolute error budget instead —
/// [`NORMAL_CDF_ERROR`](jury_numeric::bounds::NORMAL_CDF_ERROR) (`2e-7`,
/// over three times the `erfc` approximation's worst error in `Φ`) and
/// the prefix sums' rounding scaled by `1/σ`. So its value stays below
/// the exact tail as computed.
pub const PRUNE_SLACK: f64 = 1e-4;

/// Applicability margin of the bound-pruned scan: a moment bound
/// participates in pruning only when its defining cancellation
/// `|threshold − μ|` retains at least this fraction of the threshold.
/// Near the `μ ≈ threshold` crossover the cancellation amplifies the
/// prefix sums' rounding error without limit; inside the margin the
/// relative error of every kernel stays far below [`PRUNE_SLACK`].
pub const PRUNE_MARGIN: f64 = 1e-4;

/// Which AltrALG implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AltrStrategy {
    /// Paper-faithful Algorithm 3 (fresh JER per candidate size).
    PaperRecompute,
    /// Incremental pmf extension (same output, `O(N²)` total).
    #[default]
    Incremental,
}

/// Configuration for [`AltrAlg::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltrConfig {
    /// Implementation choice.
    pub strategy: AltrStrategy,
    /// Enable the Lemma-2 lower-bound pruning (only meaningful for
    /// [`AltrStrategy::PaperRecompute`]; the incremental variant's JER
    /// updates are already cheaper than the bound itself).
    pub use_lower_bound: bool,
    /// JER engine for recomputation.
    pub engine: JerEngine,
}

impl Default for AltrConfig {
    fn default() -> Self {
        Self {
            strategy: AltrStrategy::Incremental,
            use_lower_bound: false,
            engine: JerEngine::Auto,
        }
    }
}

impl AltrConfig {
    /// The paper's Algorithm 3 with lower-bound checking enabled —
    /// the configuration labelled `m(·, b)` in Figure 3(b).
    pub fn paper_with_bound() -> Self {
        Self {
            strategy: AltrStrategy::PaperRecompute,
            use_lower_bound: true,
            engine: JerEngine::Convolution,
        }
    }

    /// The paper's Algorithm 3 without bounding — the `m(·)` lines of
    /// Figure 3(b).
    pub fn paper_without_bound() -> Self {
        Self {
            strategy: AltrStrategy::PaperRecompute,
            use_lower_bound: false,
            engine: JerEngine::Convolution,
        }
    }
}

/// The AltrM solver, holding its configuration. The zero-sized uses of
/// old (`AltrAlg::solve(pool, &config)`) keep working as associated
/// functions; a configured value implements [`Solver`] for the service
/// layer and reuses caller-provided scratch buffers.
#[derive(Debug, Clone, Copy, Default)]
pub struct AltrAlg {
    /// Strategy, pruning and engine choices.
    pub config: AltrConfig,
}

impl AltrAlg {
    /// A solver value with the given configuration.
    pub fn new(config: AltrConfig) -> Self {
        Self { config }
    }

    /// Selects the minimum-JER jury from `pool` (exact under AltrM).
    ///
    /// Returned member indices refer to positions in `pool`.
    ///
    /// # Errors
    /// [`JuryError::EmptyPool`] when `pool` is empty.
    pub fn solve(pool: &[Juror], config: &AltrConfig) -> Result<Selection, JuryError> {
        Self { config: *config }.solve_with(pool, &mut SolverScratch::new())
    }

    /// The scratch-threaded form of [`AltrAlg::solve`]: bit-identical
    /// results; with warm buffers the only allocation is the returned
    /// [`Selection`].
    pub fn solve_with(
        &self,
        pool: &[Juror],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        if pool.is_empty() {
            return Err(JuryError::EmptyPool);
        }
        sorted_order_into(pool, &mut scratch.order);
        let SolverScratch { order, eps, pmf, jer, .. } = scratch;
        self.scan_sorted(pool, order, eps, pmf, jer)
    }

    /// Runs the prefix scan over a precomputed ε-ascending visit order
    /// (which must be exactly what [`sorted_order_into`] produces for
    /// `pool` — e.g. a cached order kept current by rank-insert repairs,
    /// which yields the identical permutation because the order is
    /// total). Skipping the sort is the serving layer's warm path;
    /// results are bit-identical to [`AltrAlg::solve`], stats included.
    pub fn solve_presorted(
        &self,
        pool: &[Juror],
        order: &[usize],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        if pool.is_empty() {
            return Err(JuryError::EmptyPool);
        }
        debug_assert_eq!(order.len(), pool.len(), "order must cover the pool");
        let SolverScratch { eps, pmf, jer, .. } = scratch;
        self.scan_sorted(pool, order, eps, pmf, jer)
    }

    /// The bound-pruned form of [`AltrAlg::solve_presorted`]: a sweep of
    /// `O(1)`-per-prefix moment bounds
    /// ([`jury_numeric::bounds::PrefixMoments`]) first eliminates every
    /// odd size whose Paley–Zygmund or Berry–Esseen lower bound exceeds
    /// the best Cantelli/Chernoff upper bound seen anywhere (plus the
    /// exact size-1 JER); exact JER is then evaluated only at the
    /// survivors, and the incremental pmf scan *stops at the largest
    /// survivor* instead of walking the whole pool. It stops sooner on
    /// two further certificates: the best JER is exactly `0.0` (nothing
    /// can beat it under the strict comparison), or JER has started to
    /// rise inside the segment where it provably cannot fall again
    /// (every later rate ≥ ½ and the threshold ≥ 2 past the mean) and
    /// the bounds pruned everything beyond that segment. The cost drops
    /// from `O(N²)` to `O(N + M²)` where `M` is the last size pushed —
    /// on a few-experts-large-mob pool, about the expert count.
    ///
    /// **Bit-identity contract.** The returned `members`, `jer` and
    /// `total_cost` are bit-identical to
    /// [`AltrAlg::solve_presorted`] under
    /// [`AltrStrategy::Incremental`] (the default): survivors are
    /// evaluated by the identical sequential [`PoiBin::push`]/tail
    /// operations, pruning is sound (an eliminated size's exact JER
    /// strictly exceeds the incumbent's, with [`PRUNE_SLACK`] and
    /// [`PRUNE_MARGIN`] absorbing kernel rounding), and survivors are
    /// scanned ascending with a strict comparison so the smallest-`n`
    /// tie-break is preserved. The [`SolverStats`] *differ by design*:
    /// `jer_evaluations` counts only the sizes whose JER was evaluated
    /// before the scan stopped, and `pruned_by_bound` every other odd
    /// size — eliminated by a bound, inside the monotone segment, or
    /// past an early stop — so the two still sum to
    /// `candidates_considered`, which counts every odd size. The
    /// configured strategy/engine are ignored — this scan *is* its own
    /// strategy.
    ///
    /// # Errors
    /// [`JuryError::EmptyPool`] when `pool` is empty.
    pub fn solve_pruned(
        &self,
        pool: &[Juror],
        order: &[usize],
        scratch: &mut SolverScratch,
    ) -> Result<Selection, JuryError> {
        if pool.is_empty() {
            return Err(JuryError::EmptyPool);
        }
        debug_assert_eq!(order.len(), pool.len(), "order must cover the pool");
        let SolverScratch { eps, pmf, bounds, .. } = scratch;
        eps.clear();
        eps.extend(order.iter().map(|&i| pool[i].epsilon()));
        let (best_n, best_jer, stats) = scan_pruned(eps, pmf, bounds);
        let mut members: Vec<usize> = order[..best_n].to_vec();
        members.sort_unstable();
        let total_cost = members.iter().map(|&i| pool[i].cost).sum();
        Ok(Selection { members, jer: best_jer, total_cost, stats })
    }

    /// Algorithm 3 over an ε-sorted visit order: fills `eps` from the
    /// order, scans odd prefixes with the configured strategy and builds
    /// the [`Selection`]. Shared by the sorting and presorted entry
    /// points so both perform the identical float operations.
    fn scan_sorted(
        &self,
        pool: &[Juror],
        order: &[usize],
        eps: &mut Vec<f64>,
        pmf: &mut PoiBin,
        jer_scratch: &mut JerScratch,
    ) -> Result<Selection, JuryError> {
        eps.clear();
        eps.extend(order.iter().map(|&i| pool[i].epsilon()));

        let (best_n, best_jer, stats) = match self.config.strategy {
            AltrStrategy::PaperRecompute => scan_recompute(eps, &self.config, jer_scratch),
            AltrStrategy::Incremental => scan_incremental(eps, pmf),
        };

        let mut members: Vec<usize> = order[..best_n].to_vec();
        members.sort_unstable();
        let total_cost = members.iter().map(|&i| pool[i].cost).sum();
        Ok(Selection { members, jer: best_jer, total_cost, stats })
    }

    /// JER of the best `n`-juror jury for every odd `n` — the full
    /// size-vs-JER profile behind Figure 3(a). Computed incrementally in
    /// `O(N²)`.
    ///
    /// Returns `(n, jer)` pairs for `n = 1, 3, 5, …`.
    pub fn jer_profile(pool: &[Juror]) -> Vec<(usize, f64)> {
        let order = sorted_order(pool);
        let eps_sorted: Vec<f64> = order.iter().map(|&i| pool[i].epsilon()).collect();
        profile(&eps_sorted)
    }

    /// [`AltrAlg::jer_profile`] over rates that are already ε-sorted, for
    /// callers that hold a sorted run and need not sort the pool again.
    pub fn jer_profile_sorted(eps_sorted: &[f64]) -> Vec<(usize, f64)> {
        profile(eps_sorted)
    }

    /// Best jury of a *fixed* odd size `n` — by Lemma 3 this is simply
    /// the `n` lowest-ε candidates, so no scan is needed. Useful when the
    /// application dictates the panel size (e.g. a fixed `@`-mention
    /// budget per question).
    ///
    /// # Errors
    /// [`JuryError::EmptyPool`] for an empty pool,
    /// [`JuryError::EvenJurySize`] for even `n`, and
    /// [`JuryError::EmptyJury`] for `n == 0`; `n` larger than the pool is
    /// clamped to the largest odd feasible size.
    pub fn solve_fixed_size(pool: &[Juror], n: usize) -> Result<Selection, JuryError> {
        if pool.is_empty() {
            return Err(JuryError::EmptyPool);
        }
        if n == 0 {
            return Err(JuryError::EmptyJury);
        }
        if n.is_multiple_of(2) {
            return Err(JuryError::EvenJurySize(n));
        }
        let order = sorted_order(pool);
        let n = n.min(if order.len() % 2 == 1 { order.len() } else { order.len() - 1 });
        let eps: Vec<f64> = order[..n].iter().map(|&i| pool[i].epsilon()).collect();
        let jer = JerEngine::Auto.jer(&eps);
        let mut members: Vec<usize> = order[..n].to_vec();
        members.sort_unstable();
        let total_cost = members.iter().map(|&i| pool[i].cost).sum();
        Ok(Selection {
            members,
            jer,
            total_cost,
            stats: SolverStats { jer_evaluations: 1, pruned_by_bound: 0, candidates_considered: 1 },
        })
    }
}

/// Pool indices sorted ascending by ε (ties by index for determinism).
fn sorted_order(pool: &[Juror]) -> Vec<usize> {
    let mut order = Vec::new();
    sorted_order_into(pool, &mut order);
    order
}

/// Odd-size JER profile over prefixes of `eps_sorted`.
fn profile(eps_sorted: &[f64]) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(eps_sorted.len().div_ceil(2));
    let mut pmf = PoiBin::empty();
    for (i, &e) in eps_sorted.iter().enumerate() {
        pmf.push(e);
        let n = i + 1;
        if n % 2 == 1 {
            out.push((n, pmf.tail(JerEngine::majority_threshold(n))));
        }
    }
    out
}

/// The incremental scan: one [`PoiBin::push`] per juror on a pmf reused
/// from the scratch, inspecting every odd prefix size.
fn scan_incremental(eps_sorted: &[f64], pmf: &mut PoiBin) -> (usize, f64, SolverStats) {
    let mut stats = SolverStats::default();
    let mut best_n = 0usize;
    let mut best_jer = f64::INFINITY;
    pmf.reset();
    for (i, &e) in eps_sorted.iter().enumerate() {
        pmf.push(e);
        let n = i + 1;
        if n % 2 == 1 {
            let jer = pmf.tail(JerEngine::majority_threshold(n));
            stats.candidates_considered += 1;
            stats.jer_evaluations += 1;
            if jer < best_jer {
                best_jer = jer;
                best_n = n;
            }
        }
    }
    (best_n, best_jer, stats)
}

/// The bound-pruned scan behind [`AltrAlg::solve_pruned`].
///
/// Pass 1 streams [`PrefixMoments`] over the run. Per odd size it
/// collects into `lower` the larger of two lower bounds: Paley–Zygmund
/// (`-∞` when inapplicable or inside [`PRUNE_MARGIN`] of the `μ = t`
/// crossover) and Berry–Esseen (which carries its own rounding budget,
/// so it needs no margin; skipped where Paley–Zygmund already prunes). It folds the applicable Cantelli/Chernoff
/// upper bounds — seeded with the exact size-1 JER, which is the first
/// rate itself — into one incumbent upper bound. It also records the
/// first run of sizes whose step provably cannot lower JER (see
/// [`guarded_step`]), the monotone segment.
///
/// Pass 2 runs the ordinary incremental pmf scan up to the largest size
/// whose lower bound fails to clear the incumbent by [`PRUNE_SLACK`],
/// evaluating tails only at those survivors. It stops early on either
/// of two certificates that no later size can win:
///
/// * the best JER is exactly `0.0` — tails clamp to `[0, 1]` and only a
///   strict `<` replaces the best;
/// * an evaluated size in the monotone segment reads above
///   `best·(1 + PRUNE_SLACK)` (and above [`MONOTONE_FLOOR`]): every size
///   up to the segment's end + 2 is no better, and the bounds already
///   pruned everything past it. When survivors remain past the segment,
///   the scan pushes on but evaluates nothing inside it.
fn scan_pruned(
    eps_sorted: &[f64],
    pmf: &mut PoiBin,
    lower: &mut Vec<f64>,
) -> (usize, f64, SolverStats) {
    let mut moments = PrefixMoments::new();
    let mut incumbent_ub = f64::INFINITY;
    // The first run of consecutive guarded odd sizes, `(start, end)`.
    let mut segment: Option<(usize, usize)> = None;
    lower.clear();
    for (i, &e) in eps_sorted.iter().enumerate() {
        moments.push(e);
        let n = i + 1;
        if n % 2 == 0 {
            continue;
        }
        let t = JerEngine::majority_threshold(n);
        let margin = PRUNE_MARGIN * t as f64;
        let gap = t as f64 - moments.mu();
        if n == 1 {
            // JER of the single best juror is its rate, bit-exactly
            // (the tail of a one-trial pmf) — a free certified incumbent.
            incumbent_ub = incumbent_ub.min(e);
        }
        if gap >= margin {
            if let TailBound::Value(v) = moments.cantelli_upper(t) {
                incumbent_ub = incumbent_ub.min(v);
            }
            if let TailBound::Value(v) = moments.chernoff_upper(t) {
                incumbent_ub = incumbent_ub.min(v);
            }
        }
        let pz = match moments.paley_zygmund_lower(t) {
            TailBound::Value(v) if -gap >= margin => v,
            _ => f64::NEG_INFINITY,
        };
        // The incumbent only falls, so a size Paley–Zygmund prunes
        // against it now stays pruned: Berry–Esseen (an `erfc`) is
        // evaluated only where it could decide.
        let lb = if pz > incumbent_ub * (1.0 + PRUNE_SLACK) {
            pz
        } else {
            pz.max(moments.berry_esseen_lower(t).value().unwrap_or(f64::NEG_INFINITY))
        };
        lower.push(lb);
        if guarded_step(eps_sorted, n, moments.mu()) {
            match &mut segment {
                None => segment = Some((n, n)),
                Some((_, end)) if *end + 2 == n => *end = n,
                Some(_) => {}
            }
        }
    }

    // Survivors: odd sizes whose lower bound cannot certify defeat.
    let cutoff = incumbent_ub * (1.0 + PRUNE_SLACK);
    let survives = |n: usize| lower[(n - 1) / 2] <= cutoff;
    let max_survivor = lower.iter().rposition(|&lb| lb <= cutoff).map_or(0, |k| 2 * k + 1);

    let mut stats = SolverStats { candidates_considered: lower.len(), ..SolverStats::default() };
    let mut best_n = 0usize;
    let mut best_jer = f64::INFINITY;
    // Sizes up to here are certified no better than the best.
    let mut settled = 0usize;
    pmf.reset();
    for (i, &e) in eps_sorted[..max_survivor].iter().enumerate() {
        pmf.push(e);
        let n = i + 1;
        if n % 2 == 0 || n <= settled || !survives(n) {
            continue;
        }
        let jer = pmf.tail(JerEngine::majority_threshold(n));
        stats.jer_evaluations += 1;
        if jer < best_jer {
            best_jer = jer;
            best_n = n;
        }
        if best_jer == 0.0 {
            break;
        }
        let Some((start, end)) = segment else { continue };
        if (start..=end).contains(&n)
            && jer >= MONOTONE_FLOOR
            && jer > best_jer * (1.0 + PRUNE_SLACK)
        {
            settled = end + 2;
            if max_survivor <= settled {
                break;
            }
        }
    }
    stats.pruned_by_bound = stats.candidates_considered - stats.jer_evaluations;
    (best_n, best_jer, stats)
}

/// Whether the step from odd size `n` to `n + 2` over an ε-sorted run
/// provably cannot lower the exact JER, given the prefix mean `mu`.
/// With `k = (n+1)/2` and `a ≤ b` the next two rates,
///
/// ```text
/// JER(n+2) − JER(n) = ab·p_n(k−1) − (1−a)(1−b)·p_n(k)
/// ```
///
/// When `a ≥ ½` then `ab − (1−a)(1−b) = a + b − 1 ≥ 0`. The
/// Poisson-binomial pmf is log-concave with its mode within 1 of `μ`
/// (Darroch 1964), so `k − 1 ≥ μ + 1` gives `p_n(k−1) ≥ p_n(k)`; both
/// terms favour the smaller jury. [`PRUNE_MARGIN`] absorbs the rounding
/// of `μ`. Chained over a run of guarded sizes `[start, end]`, exact JER
/// is non-decreasing from `start` through `end + 2`.
fn guarded_step(eps_sorted: &[f64], n: usize, mu: f64) -> bool {
    let t = JerEngine::majority_threshold(n) as f64;
    n + 2 <= eps_sorted.len() && eps_sorted[n] >= 0.5 && t - mu >= 2.0 + PRUNE_MARGIN * t
}

/// Smallest JER the monotone-segment exit trusts. Pass 2's pmf is
/// exact up to a relative error of a few ulps per push plus an absolute
/// error of at most `2⁻¹⁰⁷⁵` per subnormal rounding — under `N²·2⁻¹⁰⁷⁵`
/// in all, below `2.5e-308` for any `N ≤ 10⁸`. At or above this floor
/// that absolute part stays under `10⁻⁷` of the JER, far inside
/// [`PRUNE_SLACK`].
const MONOTONE_FLOOR: f64 = 1e-300;

fn scan_recompute(
    eps_sorted: &[f64],
    config: &AltrConfig,
    jer_scratch: &mut JerScratch,
) -> (usize, f64, SolverStats) {
    let mut stats = SolverStats::default();
    // Seed with the single best juror, as Algorithm 3 line 1 does.
    let mut best_n = 1usize;
    let mut best_jer = eps_sorted[0];
    stats.candidates_considered += 1;
    stats.jer_evaluations += 1;

    let mut n = 3usize;
    while n <= eps_sorted.len() {
        stats.candidates_considered += 1;
        let cand = &eps_sorted[..n];
        // Algorithm 3 lines 5-13: try the Lemma-2 bound first when γ < 1;
        // a candidate whose *lower* bound already exceeds the incumbent
        // JER cannot win, so its exact JER is never computed.
        let mut skip = false;
        if config.use_lower_bound && jer_gamma(cand) < 1.0 {
            if let Some(lb) = jer_lower_bound(cand) {
                if lb > best_jer {
                    stats.pruned_by_bound += 1;
                    skip = true;
                }
            }
        }
        if !skip {
            let jer = config.engine.jer_with(cand, jer_scratch);
            stats.jer_evaluations += 1;
            if jer < best_jer {
                best_jer = jer;
                best_n = n;
            }
        }
        n += 2;
    }
    (best_n, best_jer, stats)
}

impl Solver for AltrAlg {
    fn name(&self) -> &'static str {
        "altr"
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
    use crate::juror::pool_from_rates;

    const TABLE2: [f64; 7] = [0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4];

    fn configs() -> Vec<AltrConfig> {
        vec![
            AltrConfig::default(),
            AltrConfig::paper_with_bound(),
            AltrConfig::paper_without_bound(),
            AltrConfig {
                strategy: AltrStrategy::PaperRecompute,
                use_lower_bound: false,
                engine: JerEngine::TailDp,
            },
        ]
    }

    #[test]
    fn selects_size_five_on_motivating_example() {
        let pool = pool_from_rates(&TABLE2).unwrap();
        for config in configs() {
            let sel = AltrAlg::solve(&pool, &config).unwrap();
            assert_eq!(sel.members, vec![0, 1, 2, 3, 4], "{config:?}");
            assert!((sel.jer - 0.07036).abs() < 1e-9, "{config:?}");
        }
    }

    #[test]
    fn single_candidate_pool() {
        let pool = pool_from_rates(&[0.42]).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        assert_eq!(sel.members, vec![0]);
        assert!((sel.jer - 0.42).abs() < 1e-15);
    }

    #[test]
    fn empty_pool_is_an_error() {
        assert_eq!(AltrAlg::solve(&[], &AltrConfig::default()), Err(JuryError::EmptyPool));
    }

    #[test]
    fn unsorted_pool_is_handled() {
        // Same multiset as TABLE2 but shuffled; the selection must pick
        // the five *lowest-ε* jurors wherever they sit in the pool.
        let shuffled = [0.4, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2];
        let pool = pool_from_rates(&shuffled).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        let mut rates: Vec<f64> = sel.members.iter().map(|&i| shuffled[i]).collect();
        rates.sort_by(f64::total_cmp);
        assert_eq!(rates, vec![0.1, 0.2, 0.2, 0.3, 0.3]);
        assert!((sel.jer - 0.07036).abs() < 1e-9);
    }

    #[test]
    fn error_prone_pool_prefers_hands_of_the_few() {
        // All candidates worse than a coin flip: the best jury is the
        // single least-bad juror ("truth rests in the hands of a few").
        let pool = pool_from_rates(&[0.6, 0.65, 0.7, 0.75, 0.8]).unwrap();
        for config in configs() {
            let sel = AltrAlg::solve(&pool, &config).unwrap();
            assert_eq!(sel.members, vec![0], "{config:?}");
            assert!((sel.jer - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn reliable_pool_takes_everyone_odd() {
        // Homogeneous reliable jurors: bigger is strictly better (up to
        // the largest odd size).
        let pool = pool_from_rates(&[0.2; 9]).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        assert_eq!(sel.size(), 9);
    }

    #[test]
    fn strategies_agree_on_random_pools() {
        // Deterministic xorshift pools of varied sizes and regimes.
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let n = 1 + (trial * 7) % 40;
            let rates: Vec<f64> = (0..n).map(|_| 0.02 + 0.96 * next()).collect();
            let pool = pool_from_rates(&rates).unwrap();
            let a = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
            let b = AltrAlg::solve(&pool, &AltrConfig::paper_without_bound()).unwrap();
            let c = AltrAlg::solve(&pool, &AltrConfig::paper_with_bound()).unwrap();
            assert!((a.jer - b.jer).abs() < 1e-9, "trial {trial}");
            assert!((a.jer - c.jer).abs() < 1e-9, "trial {trial}");
            assert_eq!(a.members, b.members, "trial {trial}");
            assert_eq!(a.members, c.members, "trial {trial}");
        }
    }

    #[test]
    fn bound_pruning_never_changes_the_answer_but_saves_work() {
        // Error-prone pool where γ < 1 candidates occur and pruning fires.
        let rates: Vec<f64> = (0..41).map(|i| 0.55 + 0.4 * (i as f64 / 41.0)).collect();
        let pool = pool_from_rates(&rates).unwrap();
        let with = AltrAlg::solve(&pool, &AltrConfig::paper_with_bound()).unwrap();
        let without = AltrAlg::solve(&pool, &AltrConfig::paper_without_bound()).unwrap();
        assert_eq!(with.members, without.members);
        assert!((with.jer - without.jer).abs() < 1e-12);
        assert!(with.stats.pruned_by_bound > 0, "pruning never fired");
        assert!(with.stats.jer_evaluations < without.stats.jer_evaluations);
    }

    #[test]
    fn profile_covers_all_odd_sizes_and_matches_solver() {
        let pool = pool_from_rates(&TABLE2).unwrap();
        let profile = AltrAlg::jer_profile(&pool);
        assert_eq!(profile.iter().map(|&(n, _)| n).collect::<Vec<_>>(), vec![1, 3, 5, 7]);
        let best = profile.iter().cloned().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        assert_eq!(best.0, sel.size());
        assert!((best.1 - sel.jer).abs() < 1e-12);
        // Spot-check against Table 2 values.
        assert!((profile[0].1 - 0.1).abs() < 1e-12);
        assert!((profile[1].1 - 0.072).abs() < 1e-12);
        assert!((profile[2].1 - 0.07036).abs() < 1e-12);
        assert!((profile[3].1 - 0.085248).abs() < 1e-12);
    }

    #[test]
    fn stats_are_populated() {
        let pool = pool_from_rates(&TABLE2).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        assert_eq!(sel.stats.candidates_considered, 4); // sizes 1,3,5,7
        assert_eq!(sel.stats.jer_evaluations, 4);
        assert_eq!(sel.stats.pruned_by_bound, 0);
    }

    #[test]
    fn fixed_size_selection_is_sorted_prefix() {
        let pool = pool_from_rates(&TABLE2).unwrap();
        let sel = AltrAlg::solve_fixed_size(&pool, 3).unwrap();
        assert_eq!(sel.members, vec![0, 1, 2]);
        assert!((sel.jer - 0.072).abs() < 1e-12);
        // Oversized request clamps to the largest odd size.
        let all = AltrAlg::solve_fixed_size(&pool, 99).unwrap();
        assert_eq!(all.size(), 7);
        // Invalid sizes are rejected.
        assert_eq!(AltrAlg::solve_fixed_size(&pool, 4), Err(JuryError::EvenJurySize(4)));
        assert_eq!(AltrAlg::solve_fixed_size(&pool, 0), Err(JuryError::EmptyJury));
        assert_eq!(AltrAlg::solve_fixed_size(&[], 3), Err(JuryError::EmptyPool));
    }

    #[test]
    fn fixed_size_matches_profile_entry() {
        let rates = [0.31, 0.18, 0.44, 0.27, 0.09, 0.36, 0.22];
        let pool = pool_from_rates(&rates).unwrap();
        let profile = AltrAlg::jer_profile(&pool);
        for (n, jer) in profile {
            let sel = AltrAlg::solve_fixed_size(&pool, n).unwrap();
            assert!((sel.jer - jer).abs() < 1e-12, "n={n}");
            assert_eq!(sel.size(), n);
        }
    }

    #[test]
    fn presorted_solve_is_bit_identical_for_every_strategy() {
        use crate::juror::pool_from_rates_and_costs;
        use crate::solver::{sorted_order_into, SolverScratch};
        let quotes: Vec<(f64, f64)> = (0..37)
            .map(|i| (0.03 + ((i * 29) % 90) as f64 / 100.0, (i % 5) as f64 / 4.0))
            .collect();
        let pool = pool_from_rates_and_costs(&quotes).unwrap();
        let mut order = Vec::new();
        sorted_order_into(&pool, &mut order);
        let mut scratch = SolverScratch::new();
        for config in configs() {
            let alg = AltrAlg::new(config);
            let direct = alg.solve_with(&pool, &mut SolverScratch::new()).unwrap();
            let presorted = alg.solve_presorted(&pool, &order, &mut scratch).unwrap();
            assert_eq!(presorted, direct, "{config:?}");
            assert_eq!(presorted.jer.to_bits(), direct.jer.to_bits(), "{config:?}");
            assert_eq!(presorted.total_cost.to_bits(), direct.total_cost.to_bits(), "{config:?}");
        }
        assert_eq!(
            AltrAlg::default().solve_presorted(&[], &[], &mut scratch),
            Err(JuryError::EmptyPool)
        );
    }

    /// `solve_pruned` against `solve_presorted`: members, JER bits and
    /// cost bits must match; stats are allowed (and expected) to differ.
    fn assert_pruned_matches(pool: &[Juror], ctx: &str) -> (Selection, Selection) {
        use crate::solver::sorted_order_into;
        let mut order = Vec::new();
        sorted_order_into(pool, &mut order);
        let alg = AltrAlg::default();
        let full = alg.solve_presorted(pool, &order, &mut SolverScratch::new()).unwrap();
        let pruned = alg.solve_pruned(pool, &order, &mut SolverScratch::new()).unwrap();
        assert_eq!(pruned.members, full.members, "{ctx}: members");
        assert_eq!(pruned.jer.to_bits(), full.jer.to_bits(), "{ctx}: jer bits");
        assert_eq!(pruned.total_cost.to_bits(), full.total_cost.to_bits(), "{ctx}: cost bits");
        assert_eq!(
            pruned.stats.candidates_considered, full.stats.candidates_considered,
            "{ctx}: both scans consider every odd size"
        );
        assert_eq!(
            pruned.stats.jer_evaluations + pruned.stats.pruned_by_bound,
            full.stats.jer_evaluations,
            "{ctx}: every size is either evaluated or pruned"
        );
        (pruned, full)
    }

    #[test]
    fn pruned_scan_is_bit_identical_across_regimes() {
        // Reliable, error-prone, mixed, degenerate and adversarial pools.
        let cases: Vec<(&str, Vec<f64>)> = vec![
            ("table2", TABLE2.to_vec()),
            ("single", vec![0.42]),
            ("all-bad", vec![0.6, 0.65, 0.7, 0.75, 0.8]),
            ("all-good", vec![0.2; 9]),
            ("coin-flips", vec![0.5; 11]),
            ("near-zeros-and-ones", vec![1e-12, 1e-12, 1.0 - 1e-12, 1.0 - 1e-12, 1.0 - 1e-12, 0.3]),
            ("near-half", (0..21).map(|i| 0.5 + (i as f64 - 10.0) * 1e-12).collect()),
            (
                "expert-plus-mob",
                (0..101).map(|i| if i < 5 { 0.03 + i as f64 * 0.01 } else { 0.8 }).collect(),
            ),
            ("uniform-spread", (0..200).map(|i| 0.02 + 0.96 * (i as f64 / 200.0)).collect()),
        ];
        for (label, rates) in cases {
            let pool = pool_from_rates(&rates).unwrap();
            assert_pruned_matches(&pool, label);
        }
    }

    #[test]
    fn pruned_scan_saves_work_on_error_prone_tails() {
        // A few experts and a long unreliable tail: the paper-realistic
        // regime. The PZ bound must eliminate the tail and the scan must
        // stop early.
        let rates: Vec<f64> =
            (0..301).map(|i| if i < 9 { 0.05 + i as f64 * 0.02 } else { 0.85 }).collect();
        let pool = pool_from_rates(&rates).unwrap();
        let (pruned, full) = assert_pruned_matches(&pool, "expert-tail");
        assert!(pruned.stats.pruned_by_bound > 100, "tail must prune: {:?}", pruned.stats);
        assert!(pruned.stats.jer_evaluations < full.stats.jer_evaluations / 4);
    }

    #[test]
    fn pruned_scan_on_random_pools() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..40 {
            let n = 1 + (trial * 13) % 120;
            // Alternate reliable-heavy and error-prone-heavy regimes.
            let shift = if trial % 2 == 0 { 0.0 } else { 0.4 };
            let rates: Vec<f64> =
                (0..n).map(|_| (0.01 + shift + 0.58 * next()).min(0.99)).collect();
            let pool = pool_from_rates(&rates).unwrap();
            assert_pruned_matches(&pool, &format!("trial {trial}"));
        }
    }

    /// Deterministic xorshift stream of uniforms in `[0, 1)`.
    fn xorshift(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The benchmark shape: 2% experts with ε in [0.02, 0.45), the rest
    /// a mob in [0.55, 0.95), golden-ratio spaced.
    fn expert_mob(n: usize) -> Vec<f64> {
        let experts = n.div_ceil(50);
        (0..n)
            .map(|i| {
                let u = (i as f64 * 0.6180339887498949) % 1.0;
                if i < experts {
                    0.02 + 0.43 * u
                } else {
                    0.55 + 0.40 * u
                }
            })
            .collect()
    }

    #[test]
    fn pruned_scan_matches_on_uniform_and_expert_mob_pools() {
        let uniform: Vec<f64> =
            (0..2_000).map(|i| 0.02 + 0.96 * ((i as f64 * 0.6180339887498949) % 1.0)).collect();
        let (pruned, full) = assert_pruned_matches(&pool_from_rates(&uniform).unwrap(), "uniform");
        // Half the rates are below ½; the scan stops where they end.
        assert!(pruned.stats.jer_evaluations <= full.stats.jer_evaluations / 2 + 1);
        let (pruned, full) =
            assert_pruned_matches(&pool_from_rates(&expert_mob(3_000)).unwrap(), "expert-mob");
        assert!(
            pruned.stats.jer_evaluations * 10 < full.stats.jer_evaluations,
            "{:?}",
            pruned.stats
        );
    }

    #[test]
    fn zero_jer_pool_stops_at_its_first_zero() {
        let rates: Vec<f64> =
            (0..1_500).map(|i| 0.02 + 0.1 * ((i as f64 * 0.6180339887498949) % 1.0)).collect();
        let pool = pool_from_rates(&rates).unwrap();
        let first_zero = AltrAlg::jer_profile(&pool)
            .into_iter()
            .find(|&(_, jer)| jer == 0.0)
            .map(|(n, _)| n)
            .expect("this pool's JER underflows to 0.0");
        let (pruned, _) = assert_pruned_matches(&pool, "zero-jer");
        assert_eq!(pruned.size(), first_zero);
        assert_eq!(pruned.jer.to_bits(), 0.0f64.to_bits());
        assert_eq!(pruned.stats.jer_evaluations, first_zero.div_ceil(2), "stops at the first 0.0");
    }

    #[test]
    fn guarded_steps_never_lower_exact_jer() {
        // Random sorted runs of experts, a mob at or above ½ and exact
        // ½ rates: across every step the segment rule guards, the exact
        // JER (sequential pushes, the scan's own arithmetic) never falls.
        // Every other run keeps everyone near ½, so the prefix mean
        // nears the threshold inside the mob and the mode guard, not the
        // run's end, closes the segment.
        let mut next = xorshift(0x9e3779b97f4a7c15);
        let mut guarded_steps = 0usize;
        for trial in 0..150 {
            let len = 3 + (trial * 37) % 400;
            let expert_share = next() * 0.5;
            let (expert_lo, mob_width) = if trial % 2 == 0 { (0.01, 0.49) } else { (0.42, 0.02) };
            let mut eps: Vec<f64> = (0..len)
                .map(|_| match next() {
                    u if u < expert_share => expert_lo + (0.5 - expert_lo) * next(),
                    u if u < expert_share + 0.1 => 0.5,
                    _ => (0.5 + mob_width * next()).min(0.99),
                })
                .collect();
            eps.sort_by(f64::total_cmp);
            let jer = AltrAlg::jer_profile_sorted(&eps);
            let mut moments = PrefixMoments::new();
            for (i, &e) in eps.iter().enumerate() {
                moments.push(e);
                let n = i + 1;
                if n % 2 == 0 {
                    continue;
                }
                let before = jer[(n - 1) / 2].1;
                if guarded_step(&eps, n, moments.mu()) && before >= MONOTONE_FLOOR {
                    let after = jer[(n - 1) / 2 + 1].1;
                    guarded_steps += 1;
                    assert!(
                        after >= before * (1.0 - 1e-9),
                        "trial {trial}: JER({}) = {after:e} < JER({n}) = {before:e}",
                        n + 2
                    );
                }
            }
        }
        assert!(guarded_steps > 1_000, "only {guarded_steps} guarded steps exercised");
    }

    #[test]
    fn pruned_scan_on_adversarial_random_pools() {
        // Mixed experts, mobs, exact ½, near-0/near-1 and zero-JER
        // regimes, sizes up to 400: bit-identical every time.
        let mut next = xorshift(0xd1b54a32d192ed03);
        for trial in 0..200 {
            let len = 1 + (trial * 61) % 400;
            let regime = trial % 5;
            let rates: Vec<f64> = (0..len)
                .map(|_| {
                    let u = next();
                    match regime {
                        0 if u < 0.05 => 0.02 + 0.4 * next(),
                        0 => 0.55 + 0.4 * next(),
                        1 => 0.02 + 0.96 * next(),
                        2 if u < 0.2 => 0.5,
                        2 => 0.3 + 0.4 * next(),
                        3 if u < 0.1 => 1e-9,
                        3 => 1.0 - 1e-9 * next(),
                        _ => 0.01 + 0.1 * next(),
                    }
                })
                .collect();
            let pool = pool_from_rates(&rates).unwrap();
            assert_pruned_matches(&pool, &format!("trial {trial} regime {regime}"));
        }
    }

    #[test]
    fn pruned_scan_work_is_bounded_on_expert_mob_pools() {
        // Experts are N/50 here; the scan must stop just past them
        // rather than at the μ ≈ t crossover near N/10.
        let n = 10_000;
        let pool = pool_from_rates(&expert_mob(n)).unwrap();
        let mut order = Vec::new();
        crate::solver::sorted_order_into(&pool, &mut order);
        let sel =
            AltrAlg::default().solve_pruned(&pool, &order, &mut SolverScratch::new()).unwrap();
        assert!(sel.stats.jer_evaluations <= n / 50 + 8, "{:?}", sel.stats);
        assert_eq!(
            sel.stats.jer_evaluations + sel.stats.pruned_by_bound,
            sel.stats.candidates_considered
        );
    }

    #[test]
    fn pruned_empty_pool_is_an_error() {
        assert_eq!(
            AltrAlg::default().solve_pruned(&[], &[], &mut SolverScratch::new()),
            Err(JuryError::EmptyPool)
        );
    }

    #[test]
    fn optimality_vs_brute_force_over_all_odd_subsets() {
        // Exhaustively verify Lemma 3 + scan = global optimum on a small
        // pool: no odd *subset* (not only prefixes) beats the selection.
        let rates = [0.12, 0.48, 0.33, 0.21, 0.44, 0.27, 0.39];
        let pool = pool_from_rates(&rates).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        let n = rates.len();
        let mut best = f64::INFINITY;
        for mask in 1u32..(1 << n) {
            if mask.count_ones() % 2 == 0 {
                continue;
            }
            let eps: Vec<f64> = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| rates[i]).collect();
            best = best.min(JerEngine::Auto.jer(&eps));
        }
        assert!((sel.jer - best).abs() < 1e-12, "solver {} vs brute {}", sel.jer, best);
    }
}
