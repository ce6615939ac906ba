//! The paper's Figure-2 system, as a single high-level API.
//!
//! §4.3 sketches a two-part system: a parameter-estimation side that
//! turns raw micro-blog data into candidate jurors, and a selection side
//! that forms the best crowd and aggregates its Yes/No votes via
//! majority voting. [`DecisionSystem`] wires those parts together so an
//! application can go from *tweets* to *answered questions* without
//! touching the individual crates:
//!
//! ```
//! use jury_selection::framework::{DecisionSystem, SystemConfig};
//! use jury_selection::prelude::*;
//!
//! // Bootstrap from a (synthetic) micro-blog corpus.
//! let corpus = MicroblogDataset::generate(&SynthConfig {
//!     n_users: 120, n_tweets: 1500, seed: 5, ..Default::default()
//! });
//! let mut system = DecisionSystem::from_corpus(&corpus, &SystemConfig::default()).unwrap();
//!
//! // Ask a question; ballots come from wherever your application gets
//! // them (here: one vote per jury member, in member order).
//! let jury = system.current_jury().clone();
//! let ballots = vec![true; jury.size()];
//! let outcome = system.decide(&ballots).unwrap();
//! assert!(outcome.decision.as_bool());
//! ```

use jury_core::error::JuryError;
use jury_core::jury::Jury;
use jury_core::model::CrowdModel;
use jury_core::voting::{majority_vote, weighted_majority_vote, Decision, Voting};
use jury_estimate::em::{estimate_error_rates_em, EmConfig, VoteMatrix};
use jury_estimate::pipeline::{estimate_candidates, EstimatedCandidates, PipelineConfig};
use jury_microblog::synth::MicroblogDataset;
use jury_service::{DecisionTask, JuryService, PoolId, ServiceError};

/// How ballots are aggregated into a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// Plain majority voting (the paper's Definition 3).
    #[default]
    Majority,
    /// Log-odds weighted majority voting (extension; Bayes-optimal when
    /// the error rates are correct).
    Weighted,
}

/// Configuration of a [`DecisionSystem`].
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// Parameter-estimation pipeline settings (ranking algorithm,
    /// normalisation, top-k cut).
    pub pipeline: PipelineConfig,
    /// Optional PayM budget; `None` runs the altruism model.
    pub budget: Option<f64>,
    /// Ballot aggregation scheme.
    pub aggregation: Aggregation,
}

/// Outcome of one decision task.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The aggregated answer.
    pub decision: Decision,
    /// Number of yes-ballots observed.
    pub yes_votes: usize,
    /// The jury's analytic JER at decision time (the probability this
    /// very outcome is wrong, under the current rate estimates).
    pub jer: f64,
}

/// End-to-end decision-making system (paper Figure 2): candidate
/// estimation → jury selection → vote aggregation, with optional
/// EM-based recalibration from the accumulated vote history.
///
/// Selection runs through an embedded [`JuryService`] pool, so repeated
/// reselection (after [`DecisionSystem::recalibrate`] updates the
/// members' rates) reuses the service's cached orders and scratch
/// buffers rather than re-running a standalone solver.
#[derive(Debug)]
pub struct DecisionSystem {
    candidates: EstimatedCandidates,
    config: SystemConfig,
    service: JuryService,
    pool: PoolId,
    jury_members: Vec<usize>,
    jury: Jury,
    jer: f64,
    /// Vote history over *jury member positions* (recalibration input).
    history: VoteMatrix,
    decisions: usize,
}

/// The embedded service's pool handle is service-internal, so registry
/// errors other than solver failures indicate a framework bug.
fn expect_solver(error: ServiceError) -> JuryError {
    match error {
        ServiceError::Solver(e) => e,
        bug => unreachable!("framework-internal pool misuse: {bug}"),
    }
}

impl DecisionSystem {
    /// Builds the system from a micro-blog corpus: runs the §4 pipeline
    /// and selects the initial jury.
    pub fn from_corpus(
        corpus: &MicroblogDataset,
        config: &SystemConfig,
    ) -> Result<Self, JuryError> {
        let candidates = estimate_candidates(
            &corpus.tweets,
            |name| corpus.users.iter().find(|u| u.name == name).map(|u| u.account_age_days),
            &config.pipeline,
        );
        Self::from_candidates(candidates, config)
    }

    /// Builds the system from an already-estimated candidate pool.
    pub fn from_candidates(
        candidates: EstimatedCandidates,
        config: &SystemConfig,
    ) -> Result<Self, JuryError> {
        let mut service = JuryService::new();
        let pool = service.create_pool(candidates.jurors.clone());
        let selection = service
            .solve(&DecisionTask { pool, model: Self::model_for(config) })
            .map_err(expect_solver)?;
        let members = selection.members.clone();
        let jury = Jury::new(selection.jurors(&candidates.jurors).into_iter().copied().collect())?;
        let history = VoteMatrix::new(jury.size());
        Ok(Self {
            candidates,
            config: config.clone(),
            service,
            pool,
            jury_members: members,
            jury,
            jer: selection.jer,
            history,
            decisions: 0,
        })
    }

    fn model_for(config: &SystemConfig) -> CrowdModel {
        match config.budget {
            None => CrowdModel::Altruism,
            Some(budget) => CrowdModel::PayAsYouGo { budget },
        }
    }

    /// The currently selected jury.
    pub fn current_jury(&self) -> &Jury {
        &self.jury
    }

    /// Usernames of the current jury, in member order.
    pub fn jury_usernames(&self) -> Vec<&str> {
        self.jury_members.iter().map(|&i| self.candidates.usernames[i].as_str()).collect()
    }

    /// The jury's analytic JER under the current rate estimates.
    pub fn jer(&self) -> f64 {
        self.jer
    }

    /// Decisions made so far.
    pub fn decisions_made(&self) -> usize {
        self.decisions
    }

    /// Aggregates one round of ballots (one per jury member, in member
    /// order) into a decision, recording the votes for recalibration.
    ///
    /// # Errors
    /// [`JuryError::VotingSizeMismatch`] when the ballot count differs
    /// from the jury size; jury invariants guarantee the count is odd.
    pub fn decide(&mut self, ballots: &[bool]) -> Result<Outcome, JuryError> {
        if ballots.len() != self.jury.size() {
            return Err(JuryError::VotingSizeMismatch {
                expected: self.jury.size(),
                actual: ballots.len(),
            });
        }
        let voting = Voting::new(ballots.to_vec())?;
        let decision = match self.config.aggregation {
            Aggregation::Majority => majority_vote(&voting),
            Aggregation::Weighted => weighted_majority_vote(&self.jury, &voting)?,
        };
        self.history.push_dense_task(ballots);
        self.decisions += 1;
        Ok(Outcome { decision, yes_votes: voting.yes_count(), jer: self.jer })
    }

    /// Records the revealed ground truth of a past decision as a gold
    /// task (e.g. a rumor later confirmed), anchoring future
    /// recalibration.
    pub fn record_ground_truth(&mut self, ballots: &[bool], truth: bool) {
        let votes: Vec<(usize, bool)> = ballots.iter().copied().enumerate().collect();
        self.history.push_gold_task(&votes, truth);
    }

    /// Recalibrates the jury members' error rates from the accumulated
    /// vote history (one-coin Dawid–Skene EM) and updates the jury's JER
    /// accordingly. Returns the new JER.
    ///
    /// # Errors
    /// [`JuryError::EmptyPool`] when no history has been recorded yet.
    pub fn recalibrate(&mut self) -> Result<f64, JuryError> {
        if self.history.n_tasks() == 0 {
            return Err(JuryError::EmptyPool);
        }
        let fit = estimate_error_rates_em(&self.history, &EmConfig::default());
        let members: Vec<jury_core::juror::Juror> = self
            .jury
            .members()
            .iter()
            .zip(&fit.error_rates)
            .map(|(j, &rate)| jury_core::juror::Juror { error_rate: rate, ..*j })
            .collect();
        self.jury = Jury::new(members)?;
        self.jer = self.jury.jer(jury_core::jer::JerEngine::Auto);
        Ok(self.jer)
    }

    /// Pushes the jury's current (possibly recalibrated) error rates back
    /// into the candidate pool and re-runs selection through the embedded
    /// service — jurors whose estimates drifted are voted off, better
    /// candidates voted in. The vote history is reset because ballot
    /// positions refer to jury membership, which may have changed.
    /// Returns the new JER.
    ///
    /// # Errors
    /// Propagates solver errors (e.g. the configured budget no longer
    /// affords any juror after a cost update).
    pub fn reselect(&mut self) -> Result<f64, JuryError> {
        for (&position, juror) in self.jury_members.iter().zip(self.jury.members()) {
            self.service.update_juror(self.pool, position, *juror).map_err(expect_solver)?;
        }
        let task = DecisionTask { pool: self.pool, model: Self::model_for(&self.config) };
        let selection = self.service.solve(&task).map_err(expect_solver)?;
        let pool = self.service.pool(self.pool).map_err(expect_solver)?;
        self.jury = Jury::new(selection.jurors(pool).into_iter().copied().collect())?;
        self.jury_members = selection.members;
        self.jer = selection.jer;
        self.history = VoteMatrix::new(self.jury.size());
        Ok(self.jer)
    }

    /// Read access to the embedded serving layer (pool cache + scratch
    /// reuse) for inspection — stats, pool contents. Mutation stays
    /// internal: the system's jury state holds positions into its
    /// service pool, which external edits would invalidate.
    pub fn service(&self) -> &JuryService {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_microblog::synth::SynthConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus() -> MicroblogDataset {
        MicroblogDataset::generate(&SynthConfig {
            n_users: 150,
            n_tweets: 2000,
            seed: 31,
            ..Default::default()
        })
    }

    fn system() -> DecisionSystem {
        DecisionSystem::from_corpus(
            &corpus(),
            &SystemConfig {
                pipeline: PipelineConfig { top_k: Some(40), ..Default::default() },
                ..Default::default()
            },
        )
        .expect("corpus yields candidates")
    }

    #[test]
    fn bootstraps_and_selects_a_jury() {
        let s = system();
        assert!(s.current_jury().size() % 2 == 1);
        assert!(s.jer() < 0.5);
        assert_eq!(s.jury_usernames().len(), s.current_jury().size());
        assert_eq!(s.decisions_made(), 0);
    }

    #[test]
    fn decide_majority() {
        let mut s = system();
        let n = s.current_jury().size();
        let mut ballots = vec![false; n];
        for b in ballots.iter_mut().take(n / 2 + 1) {
            *b = true;
        }
        let outcome = s.decide(&ballots).unwrap();
        assert_eq!(outcome.decision, Decision::Yes);
        assert_eq!(outcome.yes_votes, n / 2 + 1);
        assert_eq!(s.decisions_made(), 1);
    }

    #[test]
    fn decide_checks_ballot_count() {
        let mut s = system();
        assert!(matches!(s.decide(&[true]), Err(JuryError::VotingSizeMismatch { .. })));
    }

    #[test]
    fn budgeted_system_respects_budget() {
        let corpus = corpus();
        let s = DecisionSystem::from_corpus(
            &corpus,
            &SystemConfig {
                pipeline: PipelineConfig { top_k: Some(40), ..Default::default() },
                budget: Some(0.5),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(s.current_jury().total_cost() <= 0.5 + 1e-9);
    }

    #[test]
    fn weighted_aggregation_is_used() {
        let corpus = corpus();
        let mut s = DecisionSystem::from_corpus(
            &corpus,
            &SystemConfig {
                pipeline: PipelineConfig { top_k: Some(40), ..Default::default() },
                aggregation: Aggregation::Weighted,
                ..Default::default()
            },
        )
        .unwrap();
        // The top juror's estimated rate is near zero: log-odds weighting
        // lets them dominate. Their lone "yes" against all "no" should
        // carry iff their weight exceeds everyone else's combined.
        let jury = s.current_jury().clone();
        let mut ballots = vec![false; jury.size()];
        ballots[0] = true;
        let top_weight = jury.members()[0].error_rate.log_odds();
        let rest: f64 = jury.members()[1..].iter().map(|j| j.error_rate.log_odds()).sum();
        let outcome = s.decide(&ballots).unwrap();
        assert_eq!(outcome.decision.as_bool(), top_weight > rest);
    }

    #[test]
    fn recalibration_updates_jer_towards_observed_behaviour() {
        let mut s = system();
        let n = s.current_jury().size();
        // Feed 300 tasks where one member dissents ~45% of the time and
        // everyone else agrees: EM should assign the dissenter a high
        // rate and the rest low ones.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let mut ballots = vec![true; n];
            if rng.gen_bool(0.45) {
                ballots[n - 1] = false;
            }
            let _ = s.decide(&ballots).unwrap();
        }
        let before = s.jer();
        let after = s.recalibrate().unwrap();
        assert!(after.is_finite());
        assert!((s.jer() - after).abs() < 1e-15);
        // The dissenter's recalibrated rate reflects their behaviour.
        let rates: Vec<f64> = s.current_jury().members().iter().map(|j| j.epsilon()).collect();
        let dissenter = rates[n - 1];
        let consensus_max = rates[..n - 1].iter().cloned().fold(0.0f64, f64::max);
        assert!(
            dissenter > consensus_max,
            "dissenter {dissenter} vs consensus max {consensus_max}"
        );
        // JER changed (estimation now reflects votes, not graph scores).
        assert!((after - before).abs() > 0.0);
    }

    #[test]
    fn reselect_after_recalibration_tracks_updated_pool() {
        let mut s = system();
        let n = s.current_jury().size();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let mut ballots = vec![true; n];
            if rng.gen_bool(0.45) {
                ballots[n - 1] = false;
            }
            let _ = s.decide(&ballots).unwrap();
        }
        s.recalibrate().unwrap();
        let jer = s.reselect().unwrap();
        assert!(jer.is_finite());
        assert!(s.current_jury().size() % 2 == 1);
        // The reselected jury must equal a direct solve on the updated
        // pool (the service guarantees equivalence).
        let pool_id = s.pool;
        let pool = s.service().pool(pool_id).unwrap().to_vec();
        let direct =
            jury_core::altr::AltrAlg::solve(&pool, &jury_core::altr::AltrConfig::default())
                .unwrap();
        assert_eq!(s.jury_members, direct.members);
        assert!((s.jer() - direct.jer).abs() < 1e-15);
        // History was reset to the new jury's size.
        assert_eq!(s.decisions_made(), 200);
        assert_eq!(s.history.n_tasks(), 0);
    }

    #[test]
    fn recalibrate_without_history_errors() {
        let mut s = system();
        assert_eq!(s.recalibrate(), Err(JuryError::EmptyPool));
    }

    #[test]
    fn ground_truth_tasks_anchor_history() {
        let mut s = system();
        let n = s.current_jury().size();
        s.record_ground_truth(&vec![true; n], true);
        s.record_ground_truth(&vec![false; n], false);
        for _ in 0..10 {
            let _ = s.decide(&vec![true; n]).unwrap();
        }
        let jer = s.recalibrate().unwrap();
        assert!(jer.is_finite());
    }
}
