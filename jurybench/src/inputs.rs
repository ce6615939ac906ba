//! Seeded input generation: juror pools and the serving-phase operation
//! stream. The program under test only ever sees what these produce.

use jury_core::juror::{pool_from_rates_and_costs, ErrorRate, Juror};
use jury_service::{DecisionTask, PoolId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PayM budgets cycled through the pay-as-you-go quarter of the mix.
pub const BUDGETS: [f64; 3] = [1.5, 2.5, 4.0];
/// Task keys per pool: key 0 is AltrM, keys 1..=3 are PayM at `BUDGETS`.
pub const KEYS: usize = 1 + BUDGETS.len();
/// The budget of every phase-A first PayM answer.
pub const FIRST_PAYM_BUDGET: f64 = 2.5;

/// Independent generator streams derived from the one `--seed`.
pub enum Stream {
    Fleet,
    Cold,
    Ops,
    Churn,
}

pub fn rng(seed: u64, stream: Stream) -> StdRng {
    let salt = match stream {
        Stream::Fleet => 0x6a09_e667_f3bc_c908,
        Stream::Cold => 0xbb67_ae85_84ca_a73b,
        Stream::Ops => 0x3c6e_f372_fe94_f82b,
        Stream::Churn => 0xa54f_f53a_5f1d_36f1,
    };
    StdRng::seed_from_u64(seed ^ salt)
}

const EXPERT_EPS: (f64, f64) = (0.02, 0.43);
const MOB_EPS: (f64, f64) = (0.55, 0.40);

/// An expert-plus-mob pool of `n` jurors: 2% experts with ε uniform in
/// [0.02, 0.45), the rest a mob in [0.55, 0.95), price `0.05 + u²`. The
/// optimal AltrM jury is roughly the expert block, so the pruned scan is
/// deep (about a tenth of the odd sizes survive) without degenerating
/// into the full quadratic sweep a uniform ε spread causes. Random draws
/// make every pool content-distinct.
pub fn pool(rng: &mut StdRng, n: usize) -> Vec<Juror> {
    let experts = n.div_ceil(50);
    let quotes: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let (lo, width) = if i < experts { EXPERT_EPS } else { MOB_EPS };
            let eps = lo + width * rng.gen::<f64>();
            let u: f64 = rng.gen();
            (eps, 0.05 + u * u)
        })
        .collect();
    pool_from_rates_and_costs(&quotes).expect("generated quotes are valid")
}

/// `juror` with a fresh ε drawn from its own band (expert or mob), so a
/// write never moves a juror between the blocks that shape the answer.
pub fn redraw(rng: &mut StdRng, juror: &Juror) -> Juror {
    let (lo, width) = if juror.epsilon() < 0.5 { EXPERT_EPS } else { MOB_EPS };
    let eps = ErrorRate::new(lo + width * rng.gen::<f64>()).expect("band lies inside (0, 1)");
    Juror::new(juror.id, eps, juror.cost)
}

/// The task for `key` on `pool` (see [`KEYS`]).
pub fn task(pool: PoolId, key: usize) -> DecisionTask {
    match key {
        0 => DecisionTask::altruism(pool),
        k => DecisionTask::pay_as_you_go(pool, BUDGETS[k - 1]),
    }
}

/// One step of the serving phase.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// `POST /v1/solve` of task `key` on fleet pool `pool`.
    Solve { pool: usize, key: usize },
    /// `update_juror(pool, index, juror)`; the next step is always the
    /// AltrM re-solve of the same pool.
    Write { pool: usize, index: usize, juror: Juror },
}

/// The serving-phase operation stream: 3/4 AltrM and 1/4 PayM over
/// uniformly chosen pools, with budgets cycling; every `write_every`-th
/// step rewrites one juror's ε in one of the first `hot_pools` pools and
/// is followed by an AltrM solve on that pool. The stream depends only on the seed and the fleet, never on
/// timing, so a twin can replay it exactly.
pub struct Steps {
    rng: StdRng,
    write_every: usize,
    hot_pools: usize,
    issued: usize,
    paym: usize,
    resolve: Option<usize>,
}

impl Steps {
    pub fn new(seed: u64, write_every: usize, hot_pools: usize) -> Self {
        let rng = rng(seed, Stream::Ops);
        Self { rng, write_every, hot_pools, issued: 0, paym: 0, resolve: None }
    }

    /// The next step; `fleet` is the benchmark's mirror of pool contents.
    pub fn next(&mut self, fleet: &[Vec<Juror>]) -> (Step, bool) {
        if let Some(pool) = self.resolve.take() {
            return (Step::Solve { pool, key: 0 }, true);
        }
        self.issued += 1;
        if self.issued.is_multiple_of(self.write_every) {
            let pool = self.rng.gen_range(0..self.hot_pools.min(fleet.len()));
            let index = self.rng.gen_range(0..fleet[pool].len());
            let juror = redraw(&mut self.rng, &fleet[pool][index]);
            self.resolve = Some(pool);
            return (Step::Write { pool, index, juror }, false);
        }
        let pool = self.rng.gen_range(0..fleet.len());
        let key = if self.rng.gen_range(0..4usize) < 3 {
            0
        } else {
            self.paym += 1;
            1 + self.paym % BUDGETS.len()
        };
        (Step::Solve { pool, key }, false)
    }
}
