//! The reinforcement-learning tuner (CDBTune-style).
//!
//! An actor–critic agent over the knob space: the actor maps a normalised
//! metric state to a knob vector in `[0,1]^k`; the critic estimates the
//! return of a (state, action) pair and is trained by one-step TD. The
//! actor improves CEM-style — it regresses toward the best of a set of
//! critic-scored perturbations of its own output — which gives DDPG-like
//! behaviour without differentiating through the critic.
//!
//! Matching §2.1's characterisation: recommendations are cheap (one forward
//! pass — "RL style tuners … quickly generate new configurations"), but the
//! agent needs many trial-and-error recommendations to converge, and
//! training on low-quality production samples corrupts the *current* policy
//! directly (Fig. 13) rather than cascading through a repository.

use crate::nn::Mlp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One experience tuple.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Normalised metric state before applying the action.
    pub state: Vec<f64>,
    /// Knob vector applied, normalised to `[0,1]`.
    pub action: Vec<f64>,
    /// Reward (normalised throughput delta).
    pub reward: f64,
    /// State after the observation window.
    pub next_state: Vec<f64>,
}

/// Hidden width of both networks.
const HIDDEN: usize = 32;

/// Discount factor.
const GAMMA: f64 = 0.9;

/// Learning rate.
const LR: f64 = 0.05;

/// Candidate perturbations per actor-improvement step.
const ACTOR_CANDIDATES: usize = 8;

/// Hyper-parameters.
#[derive(Debug, Clone)]
pub struct RlConfig {
    /// Stddev of exploration noise added to recommendations.
    pub exploration_noise: f64,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Minibatch size per training step.
    pub batch: usize,
}

impl Default for RlConfig {
    fn default() -> Self {
        Self {
            exploration_noise: 0.15,
            buffer_capacity: 4_096,
            batch: 32,
        }
    }
}

/// The RL tuner.
#[derive(Debug)]
pub struct RlTuner {
    cfg: RlConfig,
    actor: Mlp,
    critic: Mlp,
    replay: VecDeque<Transition>,
    rng: StdRng,
    state_dim: usize,
    action_dim: usize,
}

impl RlTuner {
    /// Agent over `state_dim` metrics and `action_dim` knobs.
    pub fn new(state_dim: usize, action_dim: usize, cfg: RlConfig, seed: u64) -> Self {
        let actor = Mlp::new(&[state_dim, HIDDEN, HIDDEN, action_dim], seed);
        let critic = Mlp::new(&[state_dim + action_dim, HIDDEN, HIDDEN, 1], seed ^ 0x9e37);
        Self {
            cfg,
            actor,
            critic,
            replay: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xabcd),
            state_dim,
            action_dim,
        }
    }

    /// Knob dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Replay-buffer fill level.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    fn squash(v: f64) -> f64 {
        // Map the linear actor output into [0,1].
        0.5 * (v.tanh() + 1.0)
    }

    /// Deterministic policy output (no exploration) in `[0,1]^k`.
    pub fn exploit(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.state_dim);
        self.actor
            .forward(state)
            .into_iter()
            .map(Self::squash)
            .collect()
    }

    /// Recommendation with exploration noise — what a live tuning request
    /// gets while the agent is still learning.
    pub fn recommend(&mut self, state: &[f64]) -> Vec<f64> {
        let noise = self.cfg.exploration_noise;
        self.exploit(state)
            .into_iter()
            .map(|a| (a + self.rng.gen_range(-noise..noise)).clamp(0.0, 1.0))
            .collect()
    }

    /// Record an experience and run one training step.
    pub fn observe(&mut self, t: Transition) {
        assert_eq!(t.state.len(), self.state_dim);
        assert_eq!(t.action.len(), self.action_dim);
        if self.replay.len() == self.cfg.buffer_capacity {
            self.replay.pop_front();
        }
        self.replay.push_back(t);
        self.train_step();
    }

    fn critic_q(&self, state: &[f64], action: &[f64]) -> f64 {
        let mut input = Vec::with_capacity(self.state_dim + self.action_dim);
        input.extend_from_slice(state);
        input.extend_from_slice(action);
        self.critic.forward(&input)[0]
    }

    fn train_step(&mut self) {
        if self.replay.len() < self.cfg.batch {
            return;
        }
        // Sample a minibatch.
        let idxs: Vec<usize> = (0..self.cfg.batch)
            .map(|_| self.rng.gen_range(0..self.replay.len()))
            .collect();

        // --- Critic: TD(0) targets -------------------------------------
        let mut xs = Vec::with_capacity(idxs.len());
        let mut ys = Vec::with_capacity(idxs.len());
        for &i in &idxs {
            let t = self.replay[i].clone();
            let next_a = self.exploit(&t.next_state);
            let target = t.reward + GAMMA * self.critic_q(&t.next_state, &next_a);
            let mut input = t.state.clone();
            input.extend_from_slice(&t.action);
            xs.push(input);
            ys.push(vec![target.clamp(-50.0, 50.0)]);
        }
        self.critic.train_batch(&xs, &ys, LR);

        // --- Actor: regress toward the critic's best perturbation ------
        let mut axs = Vec::with_capacity(idxs.len());
        let mut ays = Vec::with_capacity(idxs.len());
        for &i in &idxs {
            let state = self.replay[i].state.clone();
            let base = self.exploit(&state);
            let mut best = base.clone();
            let mut best_q = self.critic_q(&state, &base);
            for _ in 0..ACTOR_CANDIDATES {
                let cand: Vec<f64> = base
                    .iter()
                    .map(|&a| (a + self.rng.gen_range(-0.2..0.2)).clamp(0.0, 1.0))
                    .collect();
                let q = self.critic_q(&state, &cand);
                if q > best_q {
                    best_q = q;
                    best = cand;
                }
            }
            // Regress pre-squash: target logit = atanh(2a-1), clamped.
            let target: Vec<f64> = best
                .iter()
                .map(|&a| {
                    let c = (2.0 * a - 1.0).clamp(-0.999, 0.999);
                    0.5 * ((1.0 + c) / (1.0 - c)).ln()
                })
                .collect();
            axs.push(state);
            ays.push(target);
        }
        self.actor.train_batch(&axs, &ays, LR * 0.5);
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(Transition {
    state,
    action,
    reward,
    next_state
});

snap_struct!(RlConfig {
    exploration_noise,
    buffer_capacity,
    batch
});

snap_struct!(RlTuner {
    cfg,
    actor,
    critic,
    replay,
    rng,
    state_dim,
    action_dim
});

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-state bandit with optimum at action (0.8, 0.2): reward falls
    /// off quadratically.
    fn reward(a: &[f64]) -> f64 {
        let dx = a[0] - 0.8;
        let dy = a[1] - 0.2;
        1.0 - 4.0 * (dx * dx + dy * dy)
    }

    #[test]
    fn recommendations_are_in_unit_box() {
        let mut t = RlTuner::new(4, 3, RlConfig::default(), 1);
        let a = t.recommend(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn exploit_is_deterministic_recommend_is_noisy() {
        let mut t = RlTuner::new(2, 2, RlConfig::default(), 2);
        let s = [0.5, 0.5];
        assert_eq!(t.exploit(&s), t.exploit(&s));
        let r1 = t.recommend(&s);
        let r2 = t.recommend(&s);
        assert_ne!(r1, r2, "exploration noise must vary");
    }

    #[test]
    fn bandit_policy_improves_with_experience() {
        let cfg = RlConfig {
            exploration_noise: 0.3,
            ..RlConfig::default()
        };
        let mut t = RlTuner::new(2, 2, cfg, 3);
        let state = vec![0.5, 0.5];
        let naive = reward(&t.exploit(&state));
        for _ in 0..600 {
            let a = t.recommend(&state);
            let r = reward(&a);
            t.observe(Transition {
                state: state.clone(),
                action: a,
                reward: r,
                next_state: state.clone(),
            });
        }
        let learned = reward(&t.exploit(&state));
        assert!(
            learned > naive + 0.05 || learned > 0.85,
            "naive {naive} learned {learned}"
        );
    }

    #[test]
    fn noisy_rewards_degrade_the_policy() {
        // Train one agent on the true signal and a twin on pure noise —
        // the corruption mechanism behind Fig. 13.
        let mk = || {
            RlTuner::new(
                2,
                2,
                RlConfig {
                    exploration_noise: 0.3,
                    ..Default::default()
                },
                4,
            )
        };
        let state = vec![0.5, 0.5];
        let mut clean = mk();
        let mut dirty = mk();
        let mut noise_rng = StdRng::seed_from_u64(9);
        for _ in 0..1200 {
            let a = clean.recommend(&state);
            let r = reward(&a);
            clean.observe(Transition {
                state: state.clone(),
                action: a,
                reward: r,
                next_state: state.clone(),
            });
            let a = dirty.recommend(&state);
            let r = noise_rng.gen_range(-1.0..1.0); // junk sample
            dirty.observe(Transition {
                state: state.clone(),
                action: a,
                reward: r,
                next_state: state.clone(),
            });
        }
        let clean_r = reward(&clean.exploit(&state));
        let dirty_r = reward(&dirty.exploit(&state));
        assert!(clean_r > dirty_r, "clean {clean_r} dirty {dirty_r}");
    }

    #[test]
    fn replay_buffer_is_bounded() {
        let cfg = RlConfig {
            buffer_capacity: 10,
            batch: 4,
            ..RlConfig::default()
        };
        let mut t = RlTuner::new(1, 1, cfg, 5);
        for i in 0..50 {
            t.observe(Transition {
                state: vec![0.0],
                action: vec![0.5],
                reward: i as f64,
                next_state: vec![0.0],
            });
        }
        assert_eq!(t.replay_len(), 10);
    }

    #[test]
    #[should_panic]
    fn observe_rejects_dimension_mismatch() {
        let mut t = RlTuner::new(2, 2, RlConfig::default(), 6);
        t.observe(Transition {
            state: vec![0.0],
            action: vec![0.5, 0.5],
            reward: 0.0,
            next_state: vec![0.0, 0.0],
        });
    }
}
