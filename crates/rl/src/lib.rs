//! # rl — reinforcement-learning toolkit
//!
//! Discrete-action RL machinery for the DRL-based VNF manager: environment
//! abstraction with **action masking** (saturated edge nodes must never be
//! selected), uniform and prioritized experience replay, ε-schedules, a
//! REINFORCE agent, and a DQN agent with the Double/Dueling/PER extensions
//! — each independently switchable to support the paper's ablation study.
//!
//! Validation philosophy: the [`toy`] environments have known optimal
//! returns; the test suite requires the DQN to reach them. A regression anywhere in the learning stack (backprop,
//! target computation, masking, replay) fails those tests before it can
//! silently corrupt the headline VNF experiments.
//!
//! # Examples
//!
//! ```
//! use rl::dqn::{DqnAgent, DqnConfig};
//! use rl::env::Environment;
//! use rl::toy::ChainEnv;
//! use rl::trainer::{evaluate_dqn, train_dqn};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut env = ChainEnv::new(4, 0.01);
//! let config = DqnConfig {
//!     learn_start: 32,
//!     epsilon: rl::schedule::EpsilonSchedule::Linear { start: 1.0, end: 0.05, steps: 500 },
//!     ..DqnConfig::default()
//! };
//! let mut agent = DqnAgent::new(config, env.state_dim(), env.action_count(), &mut rng);
//! train_dqn(&mut agent, &mut env, 50, 40, &mut rng);
//! let mean_return = evaluate_dqn(&mut agent, &mut env, 5, 40, &mut rng);
//! assert!(mean_return.is_finite());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dqn;
pub mod env;
pub mod qnet;
pub mod reinforce;
pub mod replay;
pub mod schedule;
pub mod toy;
pub mod trainer;
pub mod transition;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::dqn::{DqnAgent, DqnConfig, LearnStats};
    pub use crate::env::{masked_argmax, masked_max, Environment, StepOutcome};
    pub use crate::qnet::{QNetWorkspace, QNetwork, QNetworkConfig};
    pub use crate::reinforce::{
        masked_softmax, masked_softmax_into, ReinforceAgent, ReinforceConfig,
    };
    pub use crate::replay::{PerConfig, PrioritizedReplay, Replay, SampleBatch, UniformReplay};
    pub use crate::schedule::EpsilonSchedule;
    pub use crate::trainer::{evaluate_dqn, train_dqn, EpisodeStats, TrainingHistory};
    pub use crate::transition::Transition;
}
