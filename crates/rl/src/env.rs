//! Environment abstraction for discrete-action reinforcement learning.

use rand::RngCore;

/// Outcome of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Observation after the transition.
    pub next_state: Vec<f32>,
    /// Scalar reward for the transition.
    pub reward: f32,
    /// Whether the episode terminated with this step.
    pub done: bool,
}

impl StepOutcome {
    /// Convenience constructor.
    pub fn new(next_state: Vec<f32>, reward: f32, done: bool) -> Self {
        Self {
            next_state,
            reward,
            done,
        }
    }
}

/// A discrete-action environment.
///
/// States are dense `f32` feature vectors of fixed dimension; actions are
/// `0..action_count()`. Environments may additionally advertise a per-state
/// *action mask* — essential for VNF placement, where saturated edge nodes
/// are invalid targets and must never be selected or bootstrapped through.
pub trait Environment {
    /// Dimension of the observation vector.
    fn state_dim(&self) -> usize;

    /// Number of discrete actions.
    fn action_count(&self) -> usize;

    /// Resets the environment and returns the initial observation.
    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f32>;

    /// Applies `action` and returns the transition outcome.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action >= action_count()` or if the
    /// action is masked out — callers are expected to respect
    /// [`Environment::action_mask`].
    fn step(&mut self, action: usize, rng: &mut dyn RngCore) -> StepOutcome;

    /// Mask of currently valid actions (`true` = allowed).
    ///
    /// Default: all actions valid. Invariant: at least one entry must be
    /// `true` in any non-terminal state.
    fn action_mask(&self) -> Vec<bool> {
        vec![true; self.action_count()]
    }

    /// Optional upper bound on episode length used by trainers; `None`
    /// means the environment terminates on its own.
    fn max_episode_steps(&self) -> Option<usize> {
        None
    }
}

/// Picks the valid action with the highest value from `values`,
/// respecting `mask` (entries with `mask[i] == false` are skipped).
///
/// Returns `None` if every action is masked out.
///
/// # Panics
///
/// Panics if `values` and `mask` lengths differ.
pub fn masked_argmax(values: &[f32], mask: &[bool]) -> Option<usize> {
    assert_eq!(values.len(), mask.len(), "values/mask length mismatch");
    let mut best: Option<(usize, f32)> = None;
    for (i, (&v, &ok)) in values.iter().zip(mask.iter()).enumerate() {
        if !ok {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Maximum value among unmasked entries, or `None` if all masked.
///
/// # Panics
///
/// Panics if `values` and `mask` lengths differ.
pub fn masked_max(values: &[f32], mask: &[bool]) -> Option<f32> {
    masked_argmax(values, mask).map(|i| values[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_argmax_skips_invalid() {
        let values = [5.0, 9.0, 7.0];
        let mask = [true, false, true];
        assert_eq!(masked_argmax(&values, &mask), Some(2));
    }

    #[test]
    fn masked_argmax_all_masked_is_none() {
        assert_eq!(masked_argmax(&[1.0, 2.0], &[false, false]), None);
    }

    #[test]
    fn masked_argmax_prefers_first_on_tie() {
        assert_eq!(masked_argmax(&[3.0, 3.0], &[true, true]), Some(0));
    }

    #[test]
    fn masked_max_value() {
        assert_eq!(
            masked_max(&[1.0, 10.0, 5.0], &[true, false, true]),
            Some(5.0)
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = masked_argmax(&[1.0], &[true, false]);
    }
}
