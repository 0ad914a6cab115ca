//! # perfbench — end-to-end benchmark of the placement stack
//!
//! Four closed-loop workloads drive the program through its public API
//! (`Simulation::drive` with a lazily pulled `RunInput::Stream`), timed
//! from outside at each layer boundary. See `README.md` in this
//! directory for the workloads, the metrics and the layer map.

#![deny(missing_docs)]

pub mod alloc;
pub mod pin;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
