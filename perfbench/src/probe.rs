//! Forwarding wrappers around the program's public boundaries.
//!
//! Each wrapper forwards every call unchanged, counts it, and opens a
//! [`trace`](crate::trace) span around it when the thread is traced.
//! Untraced, the only clock read left is [`PullClock`]'s one stamp per
//! pull, which the request-latency metrics are made of.

use crate::trace::{self, Layer};
use mano::prelude::{
    DecisionContext, DecisionFeedback, PlacementAction, PlacementPolicy, TimedArrival,
};
use nn::tensor::Matrix;
use rand::rngs::StdRng;
use serve::client::ServedPolicy;

/// Calls a [`Probe`] forwarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    /// `decide` calls.
    pub decide_calls: u64,
    /// `greedy_batch` calls.
    pub greedy_batch_calls: u64,
    /// Rows offered across all `greedy_batch` calls.
    pub batch_rows: u64,
    /// `observe` calls.
    pub observe_calls: u64,
}

impl PolicyCounts {
    /// Adds another probe's counts.
    pub fn add(&mut self, other: &PolicyCounts) {
        self.decide_calls += other.decide_calls;
        self.greedy_batch_calls += other.greedy_batch_calls;
        self.batch_rows += other.batch_rows;
        self.observe_calls += other.observe_calls;
    }
}

/// A forwarding [`PlacementPolicy`]: every trait method goes to `inner`,
/// including the ones with defaults (`supports_greedy_batch`,
/// `greedy_batch`, `set_training`, `is_learning`) — falling back to a
/// default would silently switch the engine off its batching paths.
#[derive(Debug, Clone)]
pub struct Probe<P> {
    /// The wrapped policy.
    pub inner: P,
    /// Calls forwarded so far.
    pub counts: PolicyCounts,
}

impl<P> Probe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            counts: PolicyCounts::default(),
        }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Probe<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        self.counts.decide_calls += 1;
        trace::traced(Layer::Decide, || self.inner.decide(ctx, rng))
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.counts.observe_calls += 1;
        trace::traced(Layer::Observe, || self.inner.observe(feedback, rng))
    }

    fn supports_greedy_batch(&self) -> bool {
        self.inner.supports_greedy_batch()
    }

    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        self.counts.greedy_batch_calls += 1;
        self.counts.batch_rows += states.rows() as u64;
        trace::traced(Layer::GreedyBatch, || {
            self.inner.greedy_batch(states, masks, out)
        })
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training)
    }

    fn is_learning(&self) -> bool {
        self.inner.is_learning()
    }
}

/// A [`ServedPolicy`] client whose round trips to the policy server are
/// [`Layer::ServeWave`] spans (nested inside the [`Probe`] span of the
/// policy call that shipped them).
pub struct ServedClient {
    inner: ServedPolicy,
}

impl ServedClient {
    /// Wraps a client of a running server.
    pub fn new(inner: ServedPolicy) -> Self {
        Self { inner }
    }
}

impl PlacementPolicy for ServedClient {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        trace::traced(Layer::ServeWave, || self.inner.decide(ctx, rng))
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.inner.observe(feedback, rng)
    }

    fn supports_greedy_batch(&self) -> bool {
        self.inner.supports_greedy_batch()
    }

    fn greedy_batch(&mut self, states: &Matrix, masks: &[bool], out: &mut Vec<usize>) {
        trace::traced(Layer::ServeWave, || {
            self.inner.greedy_batch(states, masks, out)
        })
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training)
    }

    fn is_learning(&self) -> bool {
        self.inner.is_learning()
    }
}

/// The arrival iterator handed to `RunInput::Stream`, stamped on every
/// pull. The engine pulls the next arrival only after it has handled the
/// earlier ones, so the stamps split host time into per-request shares
/// ([`request_times_us`]).
pub struct PullClock<I> {
    inner: I,
    /// `(ns since the trace epoch, arrival instant in ms)` per pull; the pull that
    /// finds the stream exhausted records `u64::MAX`.
    pub pulls: Vec<(u64, u64)>,
    /// Arrivals handed to the engine.
    pub arrivals: u64,
}

impl<I: Iterator<Item = TimedArrival>> PullClock<I> {
    /// Wraps `inner`, with room for `capacity` pulls.
    pub fn new(inner: I, capacity: usize) -> Self {
        Self {
            inner,
            pulls: Vec::with_capacity(capacity),
            arrivals: 0,
        }
    }
}

impl<I: Iterator<Item = TimedArrival>> Iterator for PullClock<I> {
    type Item = TimedArrival;

    fn next(&mut self) -> Option<TimedArrival> {
        let at_ns = trace::now_ns();
        let item = trace::traced(Layer::Pull, || self.inner.next());
        let at_ms = match &item {
            Some(arrival) => {
                self.arrivals += 1;
                arrival.at.ms()
            }
            None => u64::MAX,
        };
        self.pulls.push((at_ns, at_ms));
        item
    }
}

/// Host time per request, in µs, from a [`PullClock`]'s stamps.
///
/// Arrivals sharing an instant form one group and are pulled
/// back-to-back. The engine pulls group `g+1`'s first arrival before it
/// handles group `g` and pulls group `g+2`'s first arrival right after,
/// so the gap between those two pulls is group `g`'s host time; every
/// request of the group gets an equal share. On a millisecond stream
/// nearly every group is one request and this is the plain gap between
/// successive pulls.
pub fn request_times_us(pulls: &[(u64, u64)], out: &mut Vec<f64>) {
    let mut groups: Vec<(u64, usize)> = Vec::new();
    let mut last_ms = None;
    for &(at_ns, at_ms) in pulls {
        if last_ms == Some(at_ms) {
            if let Some(group) = groups.last_mut() {
                group.1 += 1;
            }
        } else {
            groups.push((at_ns, 1));
            last_ms = Some(at_ms);
        }
    }
    for w in groups.windows(3) {
        let (_, size) = w[0];
        let share = w[2].0.saturating_sub(w[1].0) as f64 * 1e-3 / size as f64;
        out.extend(std::iter::repeat_n(share, size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_groups_give_plain_pull_gaps() {
        // Arrivals at 1, 2, 3 ms, then the exhausted pull.
        let pulls = [(0, 1), (10, 2), (110, 3), (160, u64::MAX)];
        let mut out = Vec::new();
        request_times_us(&pulls, &mut out);
        // Request 1's time is the gap between the pulls of 2 and 3.
        assert_close(&out, &[0.1, 0.05]);
    }

    #[test]
    fn a_group_shares_its_host_time() {
        // Three arrivals at slot start 0, two at 5000, one at 10000.
        let pulls = [
            (0, 0),
            (1, 0),
            (2, 0),
            (4, 5000),
            (5, 5000),
            (3_004, 10000),
            (5_004, u64::MAX),
        ];
        let mut out = Vec::new();
        request_times_us(&pulls, &mut out);
        assert_close(&out, &[1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{got:?} vs {want:?}");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
        }
    }
}
