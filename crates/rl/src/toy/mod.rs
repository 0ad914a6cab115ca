//! Toy environments used to validate learning algorithms.
//!
//! These are not part of the VNF domain; they exist so the test suite can
//! prove that the deep agents actually learn — a regression in
//! backprop or target computation fails these before it silently degrades
//! the headline experiments.

pub mod bandit;
pub mod chain;
pub mod gridworld;

pub use bandit::BanditEnv;
pub use chain::ChainEnv;
pub use gridworld::GridWorld;
