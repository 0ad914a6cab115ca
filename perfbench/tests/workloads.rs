//! The benchmark's own checks on its workloads, at test sizes: inputs
//! are a pure function of the seed, and wrapping the program's
//! boundaries (or tracing them) never changes what the program does.

use mano::prelude::*;
use perfbench::probe::{Probe, ServedClient};
use perfbench::workloads::{
    metro_arrivals, metro_options, metro_profile, pinned_sites, seeded_trace, slot_scenario,
    summary_bits, Bench, Sizes, TraceArrivals, Workload,
};
use serve::prelude::{PolicyServer, ServeConfig, ServedPolicy};

fn arrivals_of(stream: impl Iterator<Item = TimedArrival>) -> Vec<(u64, u64, usize, usize, u64)> {
    stream
        .map(|a| {
            let r = a.request;
            (
                a.at.ms(),
                r.id.0,
                r.source.0,
                r.chain.0,
                r.duration_ms.unwrap_or(u64::from(r.duration_slots)),
            )
        })
        .collect()
}

fn bits(summaries: &[RunSummary]) -> Vec<Vec<u64>> {
    summaries.iter().map(summary_bits).collect()
}

#[test]
fn metro_stream_is_a_pure_function_of_the_seed() {
    let sites: Vec<edgenet::node::NodeId> = (0..8).map(edgenet::node::NodeId).collect();
    let open = |seed: u64| {
        let profile = metro_profile(seed);
        let pinned = pinned_sites(&profile, &sites);
        arrivals_of(metro_arrivals(&profile, &pinned, 288, 5_000))
    };
    let a = open(7);
    assert!(!a.is_empty());
    assert_eq!(a, open(7), "one seed, one stream");
    assert_ne!(a, open(8), "another seed, another stream");
}

#[test]
fn pinned_sites_fix_the_hotspot_nodes_across_seeds() {
    let sites: Vec<edgenet::node::NodeId> = (0..8).map(edgenet::node::NodeId).collect();
    let hot = |seed: u64| {
        let profile = metro_profile(seed);
        let pinned = pinned_sites(&profile, &sites);
        let mut order = pinned.clone();
        order.sort();
        assert_eq!(order, sites, "a permutation of the sites");
        profile
            .hotspot_indices(sites.len())
            .into_iter()
            .map(|i| pinned[i])
            .collect::<Vec<_>>()
    };
    let first = hot(1);
    for seed in 2..12 {
        assert_eq!(hot(seed), first);
    }
}

#[test]
fn slot_traces_are_a_pure_function_of_the_seed() {
    let scenario = slot_scenario(3, 5.0, 24);
    let open = |seed| {
        arrivals_of(TraceArrivals::new(
            &seeded_trace(&scenario, 24, seed),
            5_000,
        ))
    };
    assert_eq!(open(9), open(9));
    assert_ne!(open(9), open(10));
}

fn metro_unwrapped(bench: &Bench, policy: &mut dyn PlacementPolicy) -> RunSummary {
    let slots = bench.sizes.metro_slots;
    let mut sim = Simulation::new(&bench.scenario, RewardConfig::default());
    let mut stream = metro_arrivals(&bench.profile, bench.stream_sites(), slots, bench.slot_ms());
    let mut sink = TelemetrySink::new();
    sim.drive(
        RunInput::Stream(&mut stream),
        policy,
        metro_options(slots, &mut sink),
    )
}

/// The benchmark's repeat (every boundary wrapped) gives the summaries
/// of `unwrapped`, traced and untraced, and passes its own checks.
fn assert_wrapping_is_transparent(bench: &Bench, unwrapped: &[RunSummary]) {
    for traced in [false, true] {
        let r = bench.repeat(bench.build(), traced);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(bits(&r.summaries), bits(unwrapped), "traced = {traced}");
        assert_eq!(r.spans.is_empty(), !traced);
    }
}

#[test]
fn metro_dqn_wrapped_equals_unwrapped() {
    let bench = Bench::setup(Workload::MetroDqn, 5, Sizes::SMALL);
    let mut frozen = bench.frozen.clone().expect("trained in set-up");
    let plain = metro_unwrapped(&bench, &mut frozen);
    assert!(plain.total_arrivals > 0);
    assert_wrapping_is_transparent(&bench, &[plain]);
    // A second set-up trains the identical network.
    let again = Bench::setup(Workload::MetroDqn, 5, Sizes::SMALL);
    assert_eq!(bench.frozen_fingerprint(), again.frozen_fingerprint());
    assert!(!bench.frozen_fingerprint().is_empty());
}

#[test]
fn train_dqn_wrapped_equals_unwrapped() {
    let bench = Bench::setup(Workload::TrainDqn, 5, Sizes::SMALL);
    let mut policy = bench.fresh_dqn(bench.train_epsilon_steps());
    policy.set_training(true);
    let eval = bench.traces.len() - 1;
    let mut plain = Vec::new();
    for (pass, trace) in bench.traces.iter().enumerate() {
        let scenario = if pass == eval {
            policy.set_training(false);
            &bench.scenario
        } else {
            &bench.train_scenario
        };
        let mut sim = Simulation::new(scenario, RewardConfig::default());
        let mut stream = TraceArrivals::new(trace, bench.slot_ms());
        plain.push(sim.drive(
            RunInput::Stream(&mut stream),
            &mut policy,
            bench.train_options(pass),
        ));
    }
    assert_wrapping_is_transparent(&bench, &plain);
}

#[test]
fn serve_fleet_wrapped_equals_unwrapped_and_in_process() {
    let bench = Bench::setup(Workload::ServeFleet, 5, Sizes::SMALL);
    let reference = bench.serve_reference();
    let frozen = bench.frozen.clone().expect("trained in set-up");
    let served = |wrap: bool| -> Vec<RunSummary> {
        let server = PolicyServer::spawn(frozen.clone(), ServeConfig::default());
        let out = bench
            .traces
            .iter()
            .enumerate()
            .map(|(cell, trace)| {
                let mut sim = Simulation::new(&bench.scenario, RewardConfig::default());
                let mut stream = TraceArrivals::new(trace, bench.slot_ms());
                let input = RunInput::Stream(&mut stream);
                let opts = bench.serve_options(cell);
                if wrap {
                    let mut client = Probe::new(ServedClient::new(ServedPolicy::new(&server)));
                    sim.drive(input, &mut client, opts)
                } else {
                    sim.drive(input, &mut ServedPolicy::new(&server), opts)
                }
            })
            .collect();
        server.shutdown();
        out
    };
    assert_eq!(bits(&served(false)), bits(&reference));
    assert_eq!(bits(&served(true)), bits(&reference));
    for traced in [false, true] {
        let mut r = bench.repeat(bench.build(), traced);
        r.check_served(&reference);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.counts.serve.ticks > 0);
        assert!(
            r.counts.policy.greedy_batch_calls > 0,
            "SlotSnapshot batches"
        );
    }
}

#[test]
fn the_probe_forwards_batching_capability() {
    let bench = Bench::setup(Workload::MetroDqn, 5, Sizes::SMALL);
    let mut frozen = bench.frozen.clone().expect("trained in set-up");
    frozen.set_training(false);
    let mut probe = Probe::new(frozen);
    assert!(probe.supports_greedy_batch());
    assert!(!probe.is_learning());
    probe.set_training(true);
    assert!(probe.inner.is_learning());
    assert!(!probe.supports_greedy_batch());
    assert!(!Probe::new(GreedyLatencyPolicy).supports_greedy_batch());
}
