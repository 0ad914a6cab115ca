//! The `DecisionSemantics::SlotSnapshot` contract, pinned end to end:
//!
//! * **Joint apply never oversubscribes.** Every decision in a slot's
//!   wavefront is planned against the same frozen slot-start snapshot;
//!   the apply phase re-checks feasibility per step and converts
//!   oversubscription into rejections, so node capacity is never
//!   exceeded no matter how many planned placements collide.
//! * **Conflicts resolve in arrival order.** When k of n colliding
//!   requests fit, the FIRST k (by arrival/insertion order) are
//!   admitted and the tail is rejected — deterministically.
//! * **Rerun / batching / engine invariance.** Snapshot runs are
//!   bit-identical across reruns, with batched wavefront forwards vs
//!   per-row decides, and across the slotted and event engines.
//!
//! The serving layer's cross-simulation parity tests build on these
//! guarantees (see `crates/serve/tests/serve_parity.rs`).

use edgenet::node::{NodeId, Resources};
use mano::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::dqn::DqnConfig;
use rl::qnet::QNetworkConfig;
use rl::schedule::EpsilonSchedule;
use sfc::chain::{ChainCatalog, ChainId, ChainSpec};
use sfc::request::{Request, RequestId};
use sfc::vnf::{VnfCatalog, VnfType, VnfTypeId};

/// One resource-hog VNF sized so the conflict arithmetic is exact:
/// demand (16, 64) against edge capacity (32, 128) fits exactly two
/// instances per node, and `service_rate * max_util = 10 * 0.8 = 8 rps`
/// exactly matches one flow's 8 rps — so instances can never be shared
/// and every admission needs a fresh instance.
fn hog_catalogs() -> (VnfCatalog, ChainCatalog) {
    let vnf = VnfType::new(VnfTypeId(0), "hog", Resources::new(16.0, 64.0), 10.0, 1.0);
    let vnfs = VnfCatalog::new(vec![vnf]);
    let chains = ChainCatalog::new(
        vec![ChainSpec::new(
            ChainId(0),
            "hog-chain",
            vec![VnfTypeId(0)],
            100.0,
            0.01,
            8.0,
        )],
        &vnfs,
    );
    (vnfs, chains)
}

fn hog_scenario() -> Scenario {
    let mut s = Scenario::small_test();
    s.topology_builder.edge_capacity = Resources::new(32.0, 128.0);
    s.workload.chain_mix = vec![1.0];
    s.max_instance_utilization = 0.8;
    s.horizon_slots = 4;
    s
}

fn hog_sim(scenario: &Scenario) -> Simulation {
    let (vnfs, chains) = hog_catalogs();
    Simulation::with_catalogs(scenario, RewardConfig::default(), vnfs, chains)
}

/// Always places at node 0 when the snapshot says it is feasible —
/// guaranteeing that colliding wavefronts all target the same node.
struct PinToZero;

impl PlacementPolicy for PinToZero {
    fn name(&self) -> String {
        "pin-zero".into()
    }

    fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
        if ctx.mask[0] {
            PlacementAction::Place(NodeId(0))
        } else {
            PlacementAction::Reject
        }
    }
}

#[test]
fn joint_apply_admits_exactly_what_fits_and_rejects_the_rest() {
    let scenario = hog_scenario();
    let mut sim = hog_sim(&scenario);
    sim.set_decision_semantics(DecisionSemantics::SlotSnapshot);
    let mut policy = PinToZero;
    let mut rng = StdRng::seed_from_u64(7);

    // Five identical slot-0 arrivals, all pinned to node 0, where only
    // two hog instances fit: the snapshot plans Place(0) for all five
    // (the frozen slot-start state says node 0 is free), and the joint
    // apply must admit exactly two and reject three.
    let arrivals: Vec<Request> = (0..5)
        .map(|i| Request::new(RequestId(i), ChainId(0), NodeId(0), 0, 2))
        .collect();
    let record = sim.advance_slot(&arrivals, &mut policy, &mut rng);

    assert_eq!(record.arrivals, 5);
    assert_eq!(record.accepted, 2, "exactly two hog instances fit node 0");
    assert_eq!(
        record.rejected, 3,
        "the oversubscribed tail must be rejected"
    );

    // Node 0 is exactly full — never oversubscribed.
    let util = sim
        .ledger()
        .utilization_of(NodeId(0))
        .expect("node 0 exists");
    assert!(
        (util - 1.0).abs() < 1e-9,
        "node 0 should be exactly full, got {util}"
    );
}

#[test]
fn conflicts_resolve_in_arrival_order() {
    // Same collision through the event engine, with telemetry attached:
    // the FIRST two request ids (arrival order) must be the admitted
    // ones — conflict resolution is positional, not value-dependent.
    let scenario = hog_scenario();
    let mut sim = hog_sim(&scenario);
    let mut policy = PinToZero;
    let mut sink = TelemetrySink::new();

    let arrivals: Vec<TimedArrival> = (0..5)
        .map(|i| TimedArrival {
            at: SimTime::from_ms(0),
            request: Request::new(RequestId(i), ChainId(0), NodeId(0), 0, 2),
        })
        .collect();
    sim.drive(
        RunInput::Events(&arrivals),
        &mut policy,
        RunOptions::new().snapshot().with_telemetry(&mut sink),
    );

    let mut flows: Vec<FlowRecord> = sink.recent_flows().cloned().collect();
    flows.sort_by_key(|f| f.id);
    assert_eq!(flows.len(), 5, "every arrival opens a flow record");
    for flow in &flows[..2] {
        assert!(
            flow.placed_ms.is_some(),
            "request {:?} arrived first and fits — must be admitted",
            flow.id
        );
        assert_eq!(flow.outcome, Some(FlowOutcome::Completed));
    }
    for flow in &flows[2..] {
        assert_eq!(
            flow.outcome,
            Some(FlowOutcome::Rejected),
            "request {:?} is past the capacity cliff — must be rejected",
            flow.id
        );
        assert!(flow.placed_ms.is_none());
    }
}

#[test]
fn snapshot_engine_equivalence_and_rerun_determinism() {
    // A frozen DRL policy through both engines under SlotSnapshot, run
    // twice each: all four summaries (and the slot-record streams) must
    // be bit-identical.
    let mut scenario = Scenario::small_test();
    scenario.horizon_slots = 40;
    let policy = frozen_drl(&scenario);

    let run = |opts: RunOptions| {
        let mut sim = Simulation::new(&scenario, RewardConfig::default());
        let mut worker = policy.clone();
        let mut summary = sim.drive(RunInput::Generated, &mut worker, opts.with_seed_offset(3));
        summary.mean_decision_time_us = 0.0;
        (summary, sim.metrics().slots().to_vec())
    };

    let (event_a, slots_event_a) = run(RunOptions::new().snapshot());
    let (event_b, slots_event_b) = run(RunOptions::new().snapshot());
    let (slotted, slots_slotted) = run(RunOptions::new().slotted().snapshot());

    assert_eq!(event_a, event_b, "snapshot reruns diverged");
    assert_eq!(slots_event_a, slots_event_b);
    assert_eq!(event_a, slotted, "event vs slotted diverged under snapshot");
    assert_eq!(slots_event_a, slots_slotted);
}

#[test]
fn wavefront_batching_matches_per_row_decides() {
    // The fused wavefront forward is a pure row function: planning the
    // same snapshot with `greedy_batch` and with per-row `decide` calls
    // (through a wrapper that does not batch) must produce bit-identical
    // runs.
    let mut scenario = Scenario::small_test();
    scenario.horizon_slots = 40;
    let policy = frozen_drl(&scenario);

    let run = |worker: &mut dyn PlacementPolicy| {
        let mut result = evaluate_policy_with_semantics(
            &scenario,
            RewardConfig::default(),
            worker,
            9,
            DecisionSemantics::SlotSnapshot,
        );
        result.summary.mean_decision_time_us = 0.0;
        result.summary
    };

    let mut per_row = PerRow(policy.clone());
    assert!(policy.supports_greedy_batch());
    assert!(!per_row.supports_greedy_batch());
    assert_eq!(
        run(&mut policy.clone()),
        run(&mut per_row),
        "fused wavefront changed a decision"
    );
}

/// Forwards every decision to the wrapped policy but keeps the trait's
/// default `supports_greedy_batch` (false), so waves go through `decide`.
struct PerRow<P>(P);

impl<P: PlacementPolicy> PlacementPolicy for PerRow<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn decide(&mut self, ctx: &DecisionContext, rng: &mut StdRng) -> PlacementAction {
        self.0.decide(ctx, rng)
    }

    fn observe(&mut self, feedback: DecisionFeedback<'_>, rng: &mut StdRng) {
        self.0.observe(feedback, rng);
    }

    fn set_training(&mut self, training: bool) {
        self.0.set_training(training);
    }

    fn is_learning(&self) -> bool {
        self.0.is_learning()
    }
}

fn frozen_drl(scenario: &Scenario) -> DrlPolicy {
    let probe = Simulation::new(scenario, RewardConfig::default());
    let state_dim = probe.encoder.dim();
    let action_count = probe.action_space.len();
    drop(probe);
    let config = DrlManagerConfig {
        dqn: DqnConfig {
            network: QNetworkConfig::Standard { hidden: vec![16] },
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        },
        label: "drl".into(),
    };
    let mut rng = StdRng::seed_from_u64(0x5107);
    let mut policy = DrlPolicy::new(config, state_dim, action_count, &mut rng);
    policy.set_training(false);
    policy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random collision storms — varying wave sizes, sources and
    /// durations — never leave any node above 100% utilization after a
    /// snapshot slot, and identical reruns produce identical records.
    #[test]
    fn joint_apply_never_oversubscribes(
        seed in 0u64..1_000,
        waves in proptest::collection::vec(0usize..9, 1..5),
    ) {
        let mut scenario = hog_scenario();
        scenario.horizon_slots = waves.len() as u64 + 2;
        let node_count = {
            let probe = hog_sim(&scenario);
            probe.action_space.len() - 1
        };

        let run = |waves: &[usize]| {
            let mut sim = hog_sim(&scenario);
            sim.set_decision_semantics(DecisionSemantics::SlotSnapshot);
            let mut policy = FirstFitPolicy;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next_id = 0u64;
            let mut records = Vec::new();
            for (slot, &n) in waves.iter().enumerate() {
                let arrivals: Vec<Request> = (0..n)
                    .map(|k| {
                        let id = next_id + k as u64;
                        Request::new(
                            RequestId(id),
                            ChainId(0),
                            NodeId(k % 4),
                            slot as u64,
                            1 + (k % 3) as u32,
                        )
                    })
                    .collect();
                next_id += n as u64;
                records.push(sim.advance_slot(&arrivals, &mut policy, &mut rng));
                for node in 0..node_count {
                    let util = sim
                        .ledger()
                        .utilization_of(NodeId(node))
                        .expect("node exists");
                    assert!(
                        util <= 1.0 + 1e-9,
                        "node {node} oversubscribed at {util} after slot {slot}"
                    );
                }
            }
            records
        };

        let first = run(&waves);
        let second = run(&waves);
        prop_assert_eq!(first, second, "snapshot reruns diverged");
    }
}
