//! The DRL-based VNF manager — the paper's headline policy.
//!
//! Wraps a [`rl::dqn::DqnAgent`] behind the [`PlacementPolicy`] interface:
//! the simulation engine supplies encoded states and action masks, the
//! agent picks nodes ε-greedily while training and greedily during
//! evaluation, and every decision's shaped reward flows back into the
//! replay buffer.

use crate::action::PlacementAction;
use crate::policy::{DecisionContext, DecisionFeedback, PlacementPolicy};
use rand::rngs::StdRng;
use rl::dqn::{DqnAgent, DqnConfig};
use rl::transition::Transition;
use serde::{Deserialize, Serialize};

/// Configuration of the DRL manager (a thin wrapper over [`DqnConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrlManagerConfig {
    /// The underlying DQN hyperparameters.
    pub dqn: DqnConfig,
    /// Row label used in result tables.
    pub label: String,
}

impl Default for DrlManagerConfig {
    fn default() -> Self {
        Self {
            dqn: DqnConfig::default(),
            label: "drl-dqn".into(),
        }
    }
}

/// The DRL placement policy.
#[derive(Clone)]
pub struct DrlPolicy {
    agent: DqnAgent,
    label: String,
    training: bool,
    /// Return of the episode currently being accumulated.
    current_episode_return: f32,
    /// Completed placement-episode returns (drained by the harness for
    /// convergence curves).
    episode_returns: Vec<f32>,
}

impl std::fmt::Debug for DrlPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrlPolicy")
            .field("label", &self.label)
            .field("training", &self.training)
            .field("episodes", &self.episode_returns.len())
            .finish()
    }
}

impl DrlPolicy {
    /// Builds the policy for a `state_dim`-dimensional observation and
    /// `action_count` actions (nodes + reject).
    pub fn new(
        config: DrlManagerConfig,
        state_dim: usize,
        action_count: usize,
        rng: &mut StdRng,
    ) -> Self {
        let agent = DqnAgent::new(config.dqn, state_dim, action_count, rng);
        Self {
            agent,
            label: config.label,
            training: true,
            current_episode_return: 0.0,
            episode_returns: Vec::new(),
        }
    }

    /// Read access to the wrapped agent (diagnostics).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Drains accumulated per-episode returns (for convergence plots).
    pub fn take_episode_returns(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.episode_returns)
    }

    /// Number of completed placement episodes so far.
    pub fn completed_episodes(&self) -> usize {
        self.episode_returns.len()
    }
}

impl PlacementPolicy for DrlPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        let index = if self.training {
            self.agent.act(&ctx.encoded_state, &ctx.mask, rng)
        } else {
            self.agent.act_greedy(&ctx.encoded_state, &ctx.mask)
        };
        // Engine's ActionSpace layout: 0..n are nodes, n is reject.
        if index + 1 == ctx.mask.len() {
            PlacementAction::Reject
        } else {
            PlacementAction::Place(edgenet::node::NodeId(index))
        }
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.current_episode_return += feedback.reward;
        if feedback.done {
            self.episode_returns.push(self.current_episode_return);
            self.current_episode_return = 0.0;
        }
        if self.training {
            // The feedback borrows engine scratch; clone exactly what the
            // replay buffer stores (evaluation mode copies nothing).
            let transition = Transition::with_mask(
                feedback.state.to_vec(),
                feedback.action_index,
                feedback.reward,
                feedback.next_state.to_vec(),
                feedback.done,
                feedback.next_mask.to_vec(),
            );
            self.agent.observe(transition, rng);
        }
    }

    fn supports_greedy_batch(&self) -> bool {
        !self.training
    }

    fn greedy_batch(&mut self, states: &nn::tensor::Matrix, masks: &[bool], out: &mut Vec<usize>) {
        self.agent.act_greedy_batch(states, masks, out);
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn is_learning(&self) -> bool {
        self.training
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rl::schedule::EpsilonSchedule;

    fn policy(action_count: usize) -> (DrlPolicy, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let config = DrlManagerConfig {
            dqn: DqnConfig {
                network: rl::qnet::QNetworkConfig::Standard { hidden: vec![8] },
                replay_capacity: 64,
                batch_size: 4,
                learn_start: 4,
                epsilon: EpsilonSchedule::Constant(0.0),
                ..DqnConfig::default()
            },
            label: "test-drl".into(),
        };
        let p = DrlPolicy::new(config, 4, action_count, &mut rng);
        (p, rng)
    }

    fn send_feedback(p: &mut DrlPolicy, rng: &mut StdRng, reward: f32, done: bool, actions: usize) {
        let state = vec![0.0; 4];
        let mask = vec![true; actions];
        p.observe(
            DecisionFeedback {
                state: &state,
                mask: &mask,
                action_index: 0,
                reward,
                next_state: &state,
                next_mask: &mask,
                done,
            },
            rng,
        );
    }

    #[test]
    fn episode_returns_accumulate_until_done() {
        let (mut p, mut rng) = policy(3);
        send_feedback(&mut p, &mut rng, -1.0, false, 3);
        send_feedback(&mut p, &mut rng, -0.5, false, 3);
        send_feedback(&mut p, &mut rng, 2.0, true, 3);
        send_feedback(&mut p, &mut rng, 1.0, true, 3);
        let returns = p.take_episode_returns();
        assert_eq!(returns.len(), 2);
        assert!((returns[0] - 0.5).abs() < 1e-6);
        assert!((returns[1] - 1.0).abs() < 1e-6);
        assert!(p.take_episode_returns().is_empty(), "drained");
    }

    #[test]
    fn eval_mode_stops_learning() {
        let (mut p, mut rng) = policy(3);
        p.set_training(false);
        assert!(!p.is_learning());
        for _ in 0..20 {
            send_feedback(&mut p, &mut rng, 0.0, true, 3);
        }
        assert_eq!(
            p.agent().replay_len(),
            0,
            "eval feedback must not enter replay"
        );
    }

    #[test]
    fn only_frozen_mode_batches() {
        // Exploration draws from the decision rng stream; batching a
        // training policy would desynchronize it.
        let (mut p, _) = policy(3);
        assert!(!p.supports_greedy_batch());
        p.set_training(false);
        assert!(p.supports_greedy_batch());
        p.set_training(true);
        assert!(!p.supports_greedy_batch());
    }

    #[test]
    fn training_mode_fills_replay() {
        let (mut p, mut rng) = policy(3);
        for _ in 0..10 {
            send_feedback(&mut p, &mut rng, 0.0, true, 3);
        }
        assert_eq!(p.agent().replay_len(), 10);
    }
}
