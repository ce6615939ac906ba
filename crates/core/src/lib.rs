//! The Jury Selection Problem (JSP) — core library.
//!
//! This crate implements the primary contribution of *"Whom to Ask? Jury
//! Selection for Decision Making Tasks on Micro-blog Services"* (Cao, She,
//! Tong, Chen — PVLDB 5(11), 2012): selecting, from a pool of candidate
//! jurors with heterogeneous individual error rates (and, under the paid
//! model, payment requirements), the odd-sized jury whose **Jury Error
//! Rate** — the probability that a majority votes incorrectly — is
//! minimal.
//!
//! # Modules
//!
//! * [`juror`] — validated domain types: [`ErrorRate`] in the open unit
//!   interval, [`Juror`] with id/error-rate/cost.
//! * [`jury`] — the odd-sized [`Jury`] and its majority threshold.
//! * [`voting`] — votes, majority voting (Definition 3) and the weighted
//!   log-odds extension.
//! * [`jer`] — JER computation engines: naive enumeration, `O(n²)` dynamic
//!   programming, `O(n)`-space tail DP and the FFT-backed
//!   convolution-based algorithm (CBA), plus the Lemma-2 lower bound.
//! * [`altr`] — `AltrALG` (Algorithm 3) for the altruism model, with the
//!   paper's lower-bound pruning and a faster incremental variant.
//! * [`paym`] — `PayALG` (Algorithm 4), the greedy heuristic for the
//!   NP-hard budgeted model.
//! * [`exact`] — exact PayM solvers (DFS enumeration with budget
//!   pruning, and a thread-parallel version) used as ground truth.
//! * [`solver`] — the [`Solver`] trait + [`SolverScratch`] workspace:
//!   every algorithm behind one interface, with caller-owned buffers so
//!   repeated solves (the `jury-service` serving layer) allocate nothing
//!   warm beyond the returned [`Selection`].
//! * [`model`] / [`problem`] — the AltrM/PayM crowdsourcing models and the
//!   [`JurySelectionProblem`] facade tying pool + model + solver together.
//! * [`metrics`] — precision/recall of a selection against ground truth.
//! * [`wire`] — `serde` implementations for the types crossing the
//!   service/API boundary (selections, stats, configs, crowd models).
//!
//! # Quick example
//!
//! ```
//! use jury_core::prelude::*;
//!
//! // The paper's motivating example: jurors A..G.
//! let pool: Vec<Juror> = [0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &e)| Juror::new(i as u32, ErrorRate::new(e).unwrap(), 0.0))
//!     .collect();
//!
//! let problem = JurySelectionProblem::altruism(pool);
//! let sel = problem.solve().unwrap();
//! assert_eq!(sel.members.len(), 5); // A,B,C,D,E is optimal
//! assert!((sel.jer - 0.07036).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod altr;
pub mod error;
pub mod exact;
pub mod fingerprint;
pub mod jer;
pub mod juror;
pub mod jury;
pub mod metrics;
pub mod model;
pub mod paym;
pub mod problem;
pub mod solver;
pub mod voting;
pub mod wire;

pub use altr::{AltrAlg, AltrConfig, AltrStrategy};
pub use error::JuryError;
pub use exact::{exact_paym, exact_paym_parallel, ExactConfig, ExactPaym};
pub use fingerprint::{FingerprintKey, PoolFingerprint};
pub use jer::{jer_lower_bound, JerEngine, JerScratch};
pub use juror::{ErrorRate, Juror};
pub use jury::Jury;
pub use metrics::{precision_recall, PrecisionRecall};
pub use model::CrowdModel;
pub use paym::{PayAlg, PayConfig, Staircase};
pub use problem::{JurySelectionProblem, Selection, SolverStats};
pub use solver::{Solver, SolverScratch};
pub use voting::{majority_vote, weighted_majority_vote, Decision, Voting};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::altr::{AltrAlg, AltrConfig, AltrStrategy};
    pub use crate::error::JuryError;
    pub use crate::exact::{exact_paym, exact_paym_parallel, ExactConfig, ExactPaym};
    pub use crate::fingerprint::{FingerprintKey, PoolFingerprint};
    pub use crate::jer::{jer_lower_bound, JerEngine, JerScratch};
    pub use crate::juror::{ErrorRate, Juror};
    pub use crate::jury::Jury;
    pub use crate::metrics::{precision_recall, PrecisionRecall};
    pub use crate::model::CrowdModel;
    pub use crate::paym::{PayAlg, PayConfig, Staircase};
    pub use crate::problem::{JurySelectionProblem, Selection, SolverStats};
    pub use crate::solver::{Solver, SolverScratch};
    pub use crate::voting::{majority_vote, weighted_majority_vote, Decision, Voting};
}
