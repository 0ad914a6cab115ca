//! A deterministic grid world with obstacles — the standard DQN sanity
//! check. Actions: 0=up, 1=down, 2=left, 3=right. Walking into a wall or
//! obstacle is masked out, exercising the action-mask machinery end to end.

use crate::env::{Environment, StepOutcome};
use rand::RngCore;

/// An `n x n` grid; the agent starts at `(0, 0)` and must reach
/// `(n-1, n-1)`. Each step costs `step_penalty`; the goal pays `+1`.
#[derive(Debug, Clone)]
pub struct GridWorld {
    n: usize,
    row: usize,
    col: usize,
    obstacles: Vec<(usize, usize)>,
    step_penalty: f32,
}

impl GridWorld {
    /// Creates an `n x n` grid with no obstacles.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        Self::with_obstacles(n, &[], 0.01)
    }

    /// Creates a grid with obstacle cells (never the start or the goal).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, or any obstacle is out of bounds, on the start, or
    /// on the goal.
    pub fn with_obstacles(n: usize, obstacles: &[(usize, usize)], step_penalty: f32) -> Self {
        assert!(n >= 2, "grid must be at least 2x2");
        for &(r, c) in obstacles {
            assert!(r < n && c < n, "obstacle ({r},{c}) out of bounds");
            assert!(!(r == 0 && c == 0), "obstacle on start cell");
            assert!(!(r == n - 1 && c == n - 1), "obstacle on goal cell");
        }
        Self {
            n,
            row: 0,
            col: 0,
            obstacles: obstacles.to_vec(),
            step_penalty,
        }
    }

    /// Grid side length.
    pub fn side(&self) -> usize {
        self.n
    }

    /// Length of the shortest obstacle-free path from start to goal
    /// (breadth-first search); `None` if the goal is unreachable.
    pub fn shortest_path_len(&self) -> Option<usize> {
        let n = self.n;
        let blocked = |r: usize, c: usize| self.obstacles.contains(&(r, c));
        let mut dist = vec![usize::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        dist[0] = 0;
        queue.push_back((0usize, 0usize));
        while let Some((r, c)) = queue.pop_front() {
            if (r, c) == (n - 1, n - 1) {
                return Some(dist[r * n + c]);
            }
            let neighbours = [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ];
            for (nr, nc) in neighbours {
                if nr < n && nc < n && !blocked(nr, nc) && dist[nr * n + nc] == usize::MAX {
                    dist[nr * n + nc] = dist[r * n + c] + 1;
                    queue.push_back((nr, nc));
                }
            }
        }
        None
    }

    /// The undiscounted return of an optimal policy, given the reward
    /// structure (`+1` at goal minus per-step penalties).
    pub fn optimal_return(&self) -> Option<f32> {
        self.shortest_path_len()
            .map(|l| 1.0 - self.step_penalty * l as f32)
    }

    fn observe(&self) -> Vec<f32> {
        let mut v = vec![0.0; self.n * self.n];
        v[self.row * self.n + self.col] = 1.0;
        v
    }

    fn target_cell(&self, action: usize) -> Option<(usize, usize)> {
        let (r, c) = (self.row, self.col);
        let cell = match action {
            0 => (r.checked_sub(1)?, c),
            1 => {
                if r + 1 >= self.n {
                    return None;
                }
                (r + 1, c)
            }
            2 => (r, c.checked_sub(1)?),
            3 => {
                if c + 1 >= self.n {
                    return None;
                }
                (r, c + 1)
            }
            _ => return None,
        };
        if self.obstacles.contains(&cell) {
            None
        } else {
            Some(cell)
        }
    }
}

impl Environment for GridWorld {
    fn state_dim(&self) -> usize {
        self.n * self.n
    }

    fn action_count(&self) -> usize {
        4
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) -> Vec<f32> {
        self.row = 0;
        self.col = 0;
        self.observe()
    }

    fn step(&mut self, action: usize, _rng: &mut dyn RngCore) -> StepOutcome {
        let cell = self.target_cell(action).unwrap_or_else(|| {
            panic!(
                "masked action {action} taken at ({}, {})",
                self.row, self.col
            )
        });
        self.row = cell.0;
        self.col = cell.1;
        let done = self.row == self.n - 1 && self.col == self.n - 1;
        let reward = if done { 1.0 } else { 0.0 } - self.step_penalty;
        StepOutcome::new(self.observe(), reward, done)
    }

    fn action_mask(&self) -> Vec<bool> {
        (0..4).map(|a| self.target_cell(a).is_some()).collect()
    }

    fn max_episode_steps(&self) -> Option<usize> {
        Some(self.n * self.n * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mask_blocks_walls_at_start() {
        let env = GridWorld::new(3);
        // At (0,0): up and left blocked, down and right open.
        assert_eq!(env.action_mask(), vec![false, true, false, true]);
    }

    #[test]
    fn mask_blocks_obstacles() {
        let env = GridWorld::with_obstacles(3, &[(0, 1)], 0.01);
        // Right (action 3) leads into the obstacle.
        assert_eq!(env.action_mask(), vec![false, true, false, false]);
    }

    #[test]
    fn shortest_path_on_open_grid() {
        let env = GridWorld::new(4);
        assert_eq!(env.shortest_path_len(), Some(6)); // 3 down + 3 right
    }

    #[test]
    fn shortest_path_detours_around_obstacles() {
        // Wall across row 1 except the last column.
        let env = GridWorld::with_obstacles(4, &[(1, 0), (1, 1), (1, 2)], 0.01);
        assert_eq!(env.shortest_path_len(), Some(6)); // forced through (1,3)
    }

    #[test]
    fn unreachable_goal_returns_none() {
        // Full wall across row 1.
        let env = GridWorld::with_obstacles(4, &[(1, 0), (1, 1), (1, 2), (1, 3)], 0.01);
        assert_eq!(env.shortest_path_len(), None);
    }

    #[test]
    fn walking_optimal_path_yields_optimal_return() {
        let mut env = GridWorld::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let mut total = 0.0;
        for a in [1, 1, 3, 3] {
            total += env.step(a, &mut rng).reward;
        }
        assert!((total - env.optimal_return().unwrap()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "masked action")]
    fn taking_masked_action_panics() {
        let mut env = GridWorld::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = env.reset(&mut rng);
        let _ = env.step(0, &mut rng); // up at (0,0)
    }

    #[test]
    #[should_panic(expected = "obstacle on start")]
    fn obstacle_on_start_rejected() {
        let _ = GridWorld::with_obstacles(3, &[(0, 0)], 0.01);
    }
}
