//! Learning-automata MDP for async/planner knobs (§3.3).
//!
//! Planner-estimate knobs (`random_page_cost`, `effective_cache_size`,
//! parallel workers, …) have no direct "spill" signal; the only way to know
//! a value is wrong is to probe the planner's cost/benefit landscape. The
//! paper models this as a sequential decision problem: per knob, an
//! automaton holds action probabilities for *increase* and *decrease*;
//! every 2–4 minutes it perturbs the knob by a unit step, evaluates the
//! planner cost of the window's sampled queries under the old and the new
//! value, and applies a linear reward–penalty update. A *profit* both
//! rewards the action and raises a throttle — the knob is demonstrably
//! sub-optimal, so the tuner should be asked for a real recommendation.
//!
//! The MDP 5-tuple {Q, A, B, N, H}: `Q` is the set of knob values (the
//! knob's spec range; the automaton keeps only the current one), `A` = {increase, decrease}, `B` the cost/benefit
//! response, `N` the value transition (apply the step), `H` the probability
//! update below.
//!
//! The automaton's values are constants, not options. The 375-step
//! episode sits inside §3.3's 350–400; §3.3 names the linear reward–penalty
//! scheme but no rates, so α = 0.15, β = 0.05 and the 2 % profit that
//! raises a throttle are this reproduction's fixed choices.

use autodbaas_simdb::{Backend, KnobId, KnobProfile, KnobSet, QueryProfile, SimDatabase};
use rand::{Rng, RngCore};

/// The automaton's two actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdpAction {
    /// Raise the knob by one unit step.
    Increase,
    /// Lower it by one unit step.
    Decrease,
}

/// Outcome of one automaton step.
#[derive(Debug, Clone, Copy)]
pub struct MdpOutcome {
    /// The knob stepped.
    pub knob: KnobId,
    /// Action taken.
    pub action: MdpAction,
    /// Relative cost improvement (positive = the move helped).
    pub profit: f64,
    /// Whether the step warrants a throttle (profit above threshold).
    pub throttle: bool,
}

/// One per-knob learning automaton.
#[derive(Debug, Clone)]
struct KnobAutomaton {
    knob: KnobId,
    p_increase: f64,
    step: f64,
}

/// Reward learning rate (α of L_R-P).
const ALPHA: f64 = 0.15;

/// Penalty learning rate (β).
const BETA: f64 = 0.05;

/// Relative profit above which a throttle fires.
const PROFIT_THRESHOLD: f64 = 0.02;

/// Steps per episode (§3.3 runs 350–400).
const EPISODE_STEPS: usize = 375;

/// The §3.3 engine: one automaton per async/planner knob, shared episodic
/// bookkeeping for the Fig. 6 learning curves.
#[derive(Debug, Clone)]
pub struct MdpEngine {
    automata: Vec<KnobAutomaton>,
    steps_in_episode: usize,
    episode_reward: f64,
    episode_profitable_steps: usize,
    episode_rewards: Vec<f64>,
    episode_accuracy: Vec<f64>,
}

impl MdpEngine {
    /// Build automata for every async/planner knob of `profile`. Unit step
    /// is 1/20 of each knob's range ("the knob values are changed … by unit
    /// step (defined statically)").
    pub fn new(profile: &KnobProfile) -> Self {
        let automata = profile
            .ids_in_class(autodbaas_simdb::KnobClass::AsyncPlanner)
            .into_iter()
            .filter(|&id| !profile.spec(id).restart_required)
            .map(|id| {
                let spec = profile.spec(id);
                KnobAutomaton {
                    knob: id,
                    p_increase: 0.5,
                    step: (spec.max - spec.min) / 20.0,
                }
            })
            .collect();
        Self {
            automata,
            steps_in_episode: 0,
            episode_reward: 0.0,
            episode_profitable_steps: 0,
            episode_rewards: Vec::new(),
            episode_accuracy: Vec::new(),
        }
    }

    /// Number of knobs under automaton control.
    pub fn knob_count(&self) -> usize {
        self.automata.len()
    }

    /// Current increase-probability of a knob's automaton (tests/reports).
    pub fn p_increase(&self, knob: KnobId) -> Option<f64> {
        self.automata
            .iter()
            .find(|a| a.knob == knob)
            .map(|a| a.p_increase)
    }

    /// Completed episodes' total rewards (Fig. 6a's learning curve).
    pub fn episode_rewards(&self) -> &[f64] {
        &self.episode_rewards
    }

    /// Completed episodes' non-detrimental-step fraction (Fig. 6b's
    /// accuracy): the share of automaton actions that did not lose.
    pub fn episode_accuracy(&self) -> &[f64] {
        &self.episode_accuracy
    }

    /// Total planner cost of `queries` under `knobs` — the environment
    /// response `B`. Uses the current buffer hit ratio as ground truth.
    pub fn evaluate_cost(db: &SimDatabase, knobs: &KnobSet, queries: &[QueryProfile]) -> f64 {
        let planner = db.planner();
        let catalog = db.catalog();
        // Hit ratio approximated from metrics (blks_hit / total).
        let hits = db.metrics().get(autodbaas_simdb::MetricId::BlksHit);
        let reads = db.metrics().get(autodbaas_simdb::MetricId::BlksRead);
        let hit_ratio = if hits + reads > 0.0 {
            hits / (hits + reads)
        } else {
            0.5
        };
        queries
            .iter()
            .map(|q| {
                let plan = planner.plan(q, knobs, catalog);
                planner.true_cost(q, &plan, hit_ratio, catalog)
            })
            .sum()
    }

    /// Run one automaton step for every knob against the sampled queries.
    /// Knob values in `knobs` are mutated to the accepted new values
    /// (profit keeps the move, loss reverts it).
    pub fn step(
        &mut self,
        db: &SimDatabase,
        knobs: &mut KnobSet,
        sampled: &[QueryProfile],
        rng: &mut dyn RngCore,
    ) -> Vec<MdpOutcome> {
        if sampled.is_empty() {
            return Vec::new();
        }
        let profile = db.profile().clone();
        let mut outcomes = Vec::with_capacity(self.automata.len());
        // Plateau tolerance: planner costs unchanged by a unit step are
        // *neutral* — the move is kept (exploration across flat regions)
        // but no probability update happens. Only a real loss reverts.
        const NEUTRAL_EPS: f64 = 1e-9;

        for a in &mut self.automata {
            let action = if rng.gen::<f64>() < a.p_increase {
                MdpAction::Increase
            } else {
                MdpAction::Decrease
            };
            let old = knobs.get(a.knob);
            let base_cost = Self::evaluate_cost(db, knobs, sampled);
            let proposed = match action {
                MdpAction::Increase => old + a.step,
                MdpAction::Decrease => old - a.step,
            };
            knobs.set(&profile, a.knob, proposed);
            let new_cost = Self::evaluate_cost(db, knobs, sampled);
            let profit = if base_cost > 0.0 {
                (base_cost - new_cost) / base_cost
            } else {
                0.0
            };

            // Linear reward–penalty update of the chosen action.
            let rewarded = profit > NEUTRAL_EPS;
            let punished = profit < -NEUTRAL_EPS;
            let p = &mut a.p_increase;
            match action {
                MdpAction::Increase if rewarded => *p += ALPHA * (1.0 - *p),
                MdpAction::Increase if punished => *p -= BETA * *p,
                MdpAction::Decrease if rewarded => *p -= ALPHA * *p,
                MdpAction::Decrease if punished => *p += BETA * (1.0 - *p),
                _ => {}
            }
            *p = p.clamp(0.02, 0.98);

            if punished {
                // Loss: revert the knob ("the action is misleading").
                knobs.set(&profile, a.knob, old);
            }

            let throttle = profit > PROFIT_THRESHOLD;
            self.episode_reward += profit;
            // "Accuracy" counts non-detrimental actions: profitable moves
            // and neutral exploration both leave the system no worse.
            if !punished {
                self.episode_profitable_steps += 1;
            }
            self.steps_in_episode += 1;
            outcomes.push(MdpOutcome {
                knob: a.knob,
                action,
                profit,
                throttle,
            });
        }

        // Episode rollover.
        if self.steps_in_episode >= EPISODE_STEPS {
            let acc = self.episode_profitable_steps as f64 / self.steps_in_episode as f64;
            self.episode_rewards.push(self.episode_reward);
            self.episode_accuracy.push(acc);
            self.steps_in_episode = 0;
            self.episode_reward = 0.0;
            self.episode_profitable_steps = 0;
        }
        outcomes
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(KnobAutomaton {
    knob,
    p_increase,
    step
});

snap_struct!(MdpEngine {
    automata,
    steps_in_episode,
    episode_reward,
    episode_profitable_steps,
    episode_rewards,
    episode_accuracy
});

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::{
        Catalog, DbFlavor, DiskKind, InstanceType, KnobClass, QueryKind, SimDatabase,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> SimDatabase {
        let catalog = Catalog::synthetic(4, 2_000_000_000, 150, 2);
        SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            DiskKind::Ssd,
            catalog,
            5,
        )
    }

    fn analytic_queries() -> Vec<QueryProfile> {
        (0..6)
            .map(|i| {
                let mut q = QueryProfile::new(QueryKind::RangeSelect, i % 4);
                q.rows_examined = 400_000 + i as u64 * 50_000;
                q.parallelizable = true;
                q
            })
            .collect()
    }

    #[test]
    fn engine_covers_reloadable_async_knobs_only() {
        let profile = autodbaas_simdb::KnobProfile::postgres();
        let engine = MdpEngine::new(&profile);
        let expected = profile
            .ids_in_class(KnobClass::AsyncPlanner)
            .into_iter()
            .filter(|&id| !profile.spec(id).restart_required)
            .count();
        assert_eq!(engine.knob_count(), expected);
        assert!(engine.knob_count() >= 3);
    }

    #[test]
    fn step_produces_outcome_per_knob_and_respects_bounds() {
        let d = db();
        let mut knobs = d.knobs().clone();
        let mut engine = MdpEngine::new(d.profile());
        let mut rng = StdRng::seed_from_u64(1);
        let out = engine.step(&d, &mut knobs, &analytic_queries(), &mut rng);
        assert_eq!(out.len(), engine.knob_count());
        for (id, spec) in d.profile().iter() {
            let v = knobs.get(id);
            assert!(
                v >= spec.min && v <= spec.max,
                "{} out of bounds",
                spec.name
            );
        }
    }

    #[test]
    fn empty_sample_is_a_noop() {
        let d = db();
        let mut knobs = d.knobs().clone();
        let mut engine = MdpEngine::new(d.profile());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(engine.step(&d, &mut knobs, &[], &mut rng).is_empty());
    }

    #[test]
    fn probabilities_adapt_toward_profitable_direction() {
        // Start random_page_cost at max: for index-friendly point queries
        // decreasing it improves planner costs, so p_increase should fall.
        let mut d = db();
        let rpc = d.profile().lookup("random_page_cost").unwrap();
        d.set_knob_direct(rpc, 10.0);
        let mut knobs = d.knobs().clone();
        let mut engine = MdpEngine::new(d.profile());
        let mut rng = StdRng::seed_from_u64(3);
        // Queries sitting just below the index/seq crossover at rpc = 10 on
        // the biggest table, so the first unit decrease flips the plan and
        // yields a measurable profit.
        let queries: Vec<QueryProfile> = (0..6)
            .map(|_| {
                let mut q = QueryProfile::new(QueryKind::RangeSelect, 0);
                q.rows_examined = 580_000;
                q
            })
            .collect();
        let before = engine.p_increase(rpc).unwrap();
        for _ in 0..40 {
            engine.step(&d, &mut knobs, &queries, &mut rng);
        }
        let after = engine.p_increase(rpc).unwrap();
        assert!(
            after < before,
            "p_increase {before} -> {after} should fall at the cap"
        );
    }

    #[test]
    fn episodes_roll_over_and_record_curves() {
        let d = db();
        let mut knobs = d.knobs().clone();
        let mut engine = MdpEngine::new(d.profile());
        let mut rng = StdRng::seed_from_u64(4);
        let qs = analytic_queries();
        for _ in 0..EPISODE_STEPS + 2 {
            engine.step(&d, &mut knobs, &qs, &mut rng);
        }
        assert!(!engine.episode_rewards().is_empty());
        assert_eq!(
            engine.episode_rewards().len(),
            engine.episode_accuracy().len()
        );
        for &a in engine.episode_accuracy() {
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn loss_reverts_the_knob() {
        let d = db();
        let mut engine = MdpEngine::new(d.profile());
        let mut rng = StdRng::seed_from_u64(5);
        let qs = analytic_queries();
        let mut knobs = d.knobs().clone();
        let before = knobs.clone();
        let out = engine.step(&d, &mut knobs, &qs, &mut rng);
        for o in &out {
            if o.profit < -1e-9 {
                assert_eq!(
                    knobs.get(o.knob),
                    before.get(o.knob),
                    "losing move on {} must revert",
                    d.profile().spec(o.knob).name
                );
            }
        }
        // At least the mechanism must be consistent: accepted moves are
        // either profitable or neutral.
        assert!(out
            .iter()
            .all(|o| o.profit >= -1e-9 || knobs.get(o.knob) == before.get(o.knob)));
    }
}
