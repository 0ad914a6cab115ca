//! Deterministic chain MDP: `n` states in a line, start at 0, reward 1 at
//! the far end. Action 0 = left, action 1 = right. A small per-step penalty
//! makes the shortest path uniquely optimal.

use crate::env::{Environment, StepOutcome};
use rand::RngCore;

/// A chain of `n` states; reaching state `n-1` ends the episode with +1.
#[derive(Debug, Clone)]
pub struct ChainEnv {
    n: usize,
    position: usize,
    step_penalty: f32,
    steps_taken: usize,
}

impl ChainEnv {
    /// Creates a chain with `n >= 2` states and a per-step penalty
    /// (`0.0` for none; penalties are subtracted from the reward).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, step_penalty: f32) -> Self {
        assert!(n >= 2, "chain needs at least 2 states");
        Self {
            n,
            position: 0,
            step_penalty,
            steps_taken: 0,
        }
    }

    fn observe(&self) -> Vec<f32> {
        let mut v = vec![0.0; self.n];
        v[self.position] = 1.0;
        v
    }
}

impl Environment for ChainEnv {
    fn state_dim(&self) -> usize {
        self.n
    }

    fn action_count(&self) -> usize {
        2
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) -> Vec<f32> {
        self.position = 0;
        self.steps_taken = 0;
        self.observe()
    }

    fn step(&mut self, action: usize, _rng: &mut dyn RngCore) -> StepOutcome {
        assert!(action < 2, "chain action out of range");
        self.steps_taken += 1;
        if action == 1 {
            self.position = (self.position + 1).min(self.n - 1);
        } else {
            self.position = self.position.saturating_sub(1);
        }
        let done = self.position == self.n - 1;
        let reward = if done { 1.0 } else { 0.0 } - self.step_penalty;
        StepOutcome::new(self.observe(), reward, done)
    }

    fn max_episode_steps(&self) -> Option<usize> {
        Some(self.n * 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn walking_right_reaches_goal() {
        let mut env = ChainEnv::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let mut done = false;
        let mut total = 0.0;
        for _ in 0..3 {
            let out = env.step(1, &mut rng);
            done = out.done;
            total += out.reward;
        }
        assert!(done);
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn left_at_start_stays() {
        let mut env = ChainEnv::new(3, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let out = env.step(0, &mut rng);
        assert_eq!(env.position, 0);
        assert!(!out.done);
    }

    #[test]
    fn observation_is_one_hot() {
        let mut env = ChainEnv::new(5, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let obs = env.reset(&mut rng);
        assert_eq!(obs.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(obs.len(), 5);
    }

    #[test]
    fn step_penalty_applied() {
        let mut env = ChainEnv::new(3, 0.1);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let out = env.step(1, &mut rng);
        assert!((out.reward + 0.1).abs() < 1e-6);
    }
}
