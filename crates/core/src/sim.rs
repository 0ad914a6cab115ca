//! The simulation engine: arrivals → placement decisions → flow
//! lifecycle → cost accounting, driven by a discrete-event timeline.
//!
//! One *placement episode* = all decisions for one request (one per VNF in
//! its chain, or a reject). The engine builds the decision context, asks
//! the policy, applies the action (instance reuse or spawn + capacity
//! allocation), shapes the reward, and delivers feedback — so DRL and
//! heuristic policies are driven through exactly the same code path.
//!
//! Two engines drive the lifecycle:
//!
//! * the **event engine** ([`Simulation::run_trace`], the default):
//!   departures, network events, retire checks, arrivals and policy
//!   decisions pop from a deterministic [`crate::timeline::EventQueue`];
//!   completed slots are billed lazily, so a mostly-idle trace costs
//!   ~O(events), not O(slots) of work. In *slot-compatibility* mode every
//!   event lands on a slot boundary and the run is bit-identical to the
//!   slot loop (pinned by `tests/event_slot_equivalence.rs`); the sparse
//!   entry point [`Simulation::run_events`] additionally resolves
//!   sub-slot lifetimes (`Request::duration_ms`) pro rata instead of
//!   rounding them up to whole slots.
//! * the **slot loop** ([`Simulation::advance_slot`] /
//!   [`Simulation::run_trace_slotted`]): the paper's original fixed-slot
//!   sweep, kept as the equivalence oracle and for step-by-step tests.

use crate::action::{ActionSpace, PlacementAction};
use crate::config::Scenario;
use crate::metrics::{MetricsCollector, RunSummary, SlotRecord};
use crate::policy::{CandidateInfo, DecisionContext, DecisionFeedback, PlacementPolicy};
use crate::reward::{RewardConfig, INFEASIBLE_LATENCY_MS};
use crate::state::StateEncoder;
use crate::telemetry::TelemetrySink;
use crate::timeline::{EventQueue, SimEvent, SimEventKind, SimTime};
use edgenet::capacity::CapacityLedger;
use edgenet::node::NodeId;
use edgenet::routing::RoutingTable;
use edgenet::topology::Topology;
use edgenet::view::{NetworkEvent, NetworkView};
use nn::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc::chain::{ChainCatalog, ChainSpec};
use sfc::delay::{admits_load, mm1_sojourn_ms};
use sfc::instance::{InstanceId, InstancePool};
use sfc::placement::{assignment_latency, ChainAssignment};
use sfc::request::{Request, RequestId};
use sfc::vnf::VnfCatalog;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use workload::metro::TimedRequest;
use workload::trace::{generate_trace, Trace};

/// Outcome of one request's placement episode.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementOutcome {
    /// The whole chain was placed.
    Accepted {
        /// End-to-end latency at admission (ms).
        latency_ms: f64,
        /// Whether the latency exceeded the chain's SLA budget.
        sla_violated: bool,
    },
    /// The request was rejected (by choice or by infeasibility).
    Rejected,
}

/// Which engine [`Simulation::drive`] uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RunEngine {
    /// The discrete-event engine (the default): departures, network
    /// events, retire checks, arrivals and policy decisions pop from a
    /// deterministic timeline; idle stretches are ~free.
    #[default]
    Event,
    /// The paper's original fixed-slot sweep, kept as the equivalence
    /// oracle. Only supports slot-compatible billing with `Generated` or
    /// `Trace` input and no telemetry.
    SlottedOracle,
}

/// How completed slots are billed by [`Simulation::drive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BillingMode {
    /// Accounting matches the slot loop bit for bit (the default):
    /// lifetimes round up to whole slots, each active flow bills full
    /// slots. Requesting this after any sparse run on the same
    /// simulation is an error (the two accountings cannot mix).
    #[default]
    SlotCompat,
    /// Sparse accounting: sub-slot lifetimes ([`Request::duration_ms`])
    /// are billed pro rata. Permanently leaves slot compatibility —
    /// later `SlotCompat` runs on this simulation panic.
    Sparse,
}

/// How run metrics are retained by [`Simulation::drive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Keep whatever mode the collector is in (full per-slot records and
    /// per-admission latencies unless a previous run enabled streaming).
    #[default]
    Full,
    /// Fold observations into O(1)-memory streaming aggregates as they
    /// arrive (`RunSummary` percentiles come from a log-spaced
    /// histogram, ≈2% relative error). Once enabled the collector stays
    /// streaming; enabling it on a collector already holding full-mode
    /// data panics.
    Streaming,
}

/// How a slot's (or a same-timestamp group's) arrivals are decided by
/// [`Simulation::drive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecisionSemantics {
    /// The paper's sequential loop (the default): one `decide` call per
    /// chain position, each seeing every earlier placement of the same
    /// group.
    #[default]
    Sequential,
    /// Snapshot-commit: all of a group's decisions are planned against
    /// the FROZEN group-start world — chain positions advance as
    /// wavefronts, each answered by one fused `greedy_batch` forward —
    /// and then applied jointly in arrival order. Capacity conflicts
    /// (a later arrival planned onto capacity an earlier one consumed)
    /// fall back to rejection deterministically. Decision trajectories
    /// (and thus summaries) legitimately differ from `Sequential`; a
    /// given run stays bit-identical across engines, reruns and thread
    /// counts.
    SlotSnapshot,
}

/// Options for [`Simulation::drive`] — the one knob set selecting
/// engine, billing, metrics retention, seeding, horizon and telemetry.
///
/// ```
/// # use mano::prelude::*;
/// let mut sim = Simulation::new(&Scenario::small_test(), RewardConfig::default());
/// let mut policy = FirstFitPolicy;
/// let summary = sim.drive(RunInput::Generated, &mut policy, RunOptions::new());
/// assert_eq!(summary.slots, sim.scenario().horizon_slots);
/// ```
#[derive(Debug, Default)]
pub struct RunOptions<'t> {
    /// Which engine drives the run.
    pub engine: RunEngine,
    /// Slot-compatible vs sparse billing.
    pub billing: BillingMode,
    /// Full vs streaming metrics retention.
    pub metrics: MetricsMode,
    /// Sequential vs slot-snapshot decision semantics.
    pub semantics: DecisionSemantics,
    /// Decorrelates repeated runs (training passes) of one scenario.
    pub seed_offset: u64,
    /// Horizon in slots; defaults to the trace's own horizon for
    /// `Generated`/`Trace` input and the scenario's for the rest.
    pub horizon_slots: Option<u64>,
    /// Observer receiving per-flow lifecycle and per-slot snapshot
    /// hooks. Purely observational: the `RunSummary` is bit-identical
    /// with or without a sink. Event engine only.
    pub telemetry: Option<&'t mut TelemetrySink>,
}

impl<'t> RunOptions<'t> {
    /// The defaults: event engine, slot-compatible billing, full
    /// metrics, seed offset 0, input-derived horizon, no telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the slotted-oracle engine ([`RunEngine::SlottedOracle`]).
    pub fn slotted(mut self) -> Self {
        self.engine = RunEngine::SlottedOracle;
        self
    }

    /// Selects sparse billing ([`BillingMode::Sparse`]).
    pub fn sparse(mut self) -> Self {
        self.billing = BillingMode::Sparse;
        self
    }

    /// Selects streaming metrics retention ([`MetricsMode::Streaming`]).
    pub fn with_streaming_metrics(mut self) -> Self {
        self.metrics = MetricsMode::Streaming;
        self
    }

    /// Sets the decision semantics for the run.
    pub fn with_semantics(mut self, semantics: DecisionSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Selects snapshot-commit decisions
    /// ([`DecisionSemantics::SlotSnapshot`]).
    pub fn snapshot(self) -> Self {
        self.with_semantics(DecisionSemantics::SlotSnapshot)
    }

    /// Sets the seed offset decorrelating repeated runs.
    pub fn with_seed_offset(mut self, seed_offset: u64) -> Self {
        self.seed_offset = seed_offset;
        self
    }

    /// Overrides the horizon (in slots).
    pub fn with_horizon(mut self, horizon_slots: u64) -> Self {
        self.horizon_slots = Some(horizon_slots);
        self
    }

    /// Attaches a telemetry sink for the run.
    pub fn with_telemetry(mut self, sink: &'t mut TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }
}

/// The workload input of one [`Simulation::drive`] call.
pub enum RunInput<'a> {
    /// Generate the scenario's own trace (what [`Simulation::run`] does).
    Generated,
    /// A pre-generated slot-resolution trace.
    Trace(&'a Trace),
    /// An explicit ms-resolution arrival schedule (need not be sorted).
    Events(&'a [TimedArrival]),
    /// A lazily generated ms-resolution arrival stream, pulled as
    /// simulation time advances — the whole trace is never materialized.
    /// Must yield arrivals in non-decreasing time order (checked).
    Stream(&'a mut dyn Iterator<Item = TimedArrival>),
}

impl std::fmt::Debug for RunInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunInput::Generated => write!(f, "Generated"),
            RunInput::Trace(t) => write!(f, "Trace({} requests)", t.requests.len()),
            RunInput::Events(e) => write!(f, "Events({})", e.len()),
            RunInput::Stream(_) => write!(f, "Stream(..)"),
        }
    }
}

/// A flow currently being served.
#[derive(Debug, Clone)]
struct ActiveFlow {
    request: Request,
    instances: Vec<InstanceId>,
    /// Per-instance arrival-rate contribution to release on departure.
    arrival_rate_rps: f64,
    /// End-to-end latency cached at admission (or at the last network
    /// event / re-placement). Avoids re-running `assignment_latency` for
    /// every active flow every slot; the approximation ignores queueing
    /// drift from flows joining/leaving shared instances between events.
    latency_ms: f64,
    /// Activation instant (ms): admission or re-placement time. The
    /// sparse engine bills the activation slot pro rata from here.
    activated_ms: u64,
    /// Scheduled departure instant (ms). The event engine uses it to
    /// ignore stale departure events left behind by a re-placement.
    departure_ms: u64,
}

/// Which engine owns lifecycle bookkeeping (where departures and retire
/// checks are registered). A simulation starts in slot mode and flips to
/// event mode on its first event-driven run; the two cannot interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineMode {
    Slot,
    Event,
}

/// Per-slot counters the event engine accumulates between billing
/// boundaries (the slot loop derives them inside `advance_slot`).
#[derive(Debug, Default, Clone, Copy)]
struct SlotCounters {
    arrivals: u32,
    accepted: u32,
    rejected: u32,
    sla_violations: u32,
    flows_disrupted: u32,
    flows_replaced: u32,
}

/// End-of-slot world snapshot, reused verbatim across billing boundaries
/// while no event has touched the world — what makes idle slots O(1).
/// Reuse is bit-safe: every field is a pure function of world state, and
/// unchanged state recomputes to identical bits anyway.
#[derive(Debug, Clone, Copy)]
struct CostCache {
    compute: f64,
    energy: f64,
    traffic: f64,
    mean_latency: f64,
    mean_utilization: f64,
    active_flows: u32,
    live_instances: u32,
    nodes_down: u32,
}

/// One planned decision of a slot-snapshot group: the action the policy
/// chose against the frozen group-start world, the frozen step reward,
/// and the row of [`GroupPlans::states`] holding the frozen observation
/// (training feedback replays it during the apply phase).
#[derive(Debug, Clone, Copy)]
struct PlannedStep {
    /// Row into [`GroupPlans::states`] / [`GroupPlans::masks`].
    row: usize,
    /// Encoded action index (node or reject).
    action_index: usize,
    /// Step reward from the frozen candidates' marginals (the reject
    /// reward for a planned rejection; completion/conflict adjustments
    /// land at apply time).
    reward: f32,
}

/// One arrival's plan under [`DecisionSemantics::SlotSnapshot`].
#[derive(Debug, Default, Clone)]
struct ArrivalPlan {
    /// One planned decision per chain position reached (the last one is
    /// the reject decision when `rejected`).
    steps: Vec<PlannedStep>,
    /// The policy chose reject at the final planned position.
    rejected: bool,
}

/// A slot-snapshot group's jointly planned decisions: every arrival of
/// the group is decided against ONE frozen group-start world, chain
/// positions batched into wavefronts (one fused `greedy_batch` forward
/// per position when the policy batches). The apply phase then replays
/// the plans against the mutating world in arrival order.
#[derive(Default)]
struct GroupPlans {
    /// Whether the plans cover the currently pending arrival group.
    valid: bool,
    /// Frozen observations, one row per planned decision.
    states: Matrix,
    /// Row-major masks parallel to `states` (`action_space.len()` each).
    masks: Vec<bool>,
    /// Per-arrival plans, indexed like the arrival group.
    plans: Vec<ArrivalPlan>,
    /// Wave staging: the wave's observations, row-major masks and the
    /// policy's action per row (one row per live arrival).
    wave_states: Matrix,
    wave_masks: Vec<bool>,
    wave_actions: Vec<usize>,
    /// Row-staging buffers, reused across rows and waves.
    candidates: Vec<CandidateInfo>,
    mask_row: Vec<bool>,
    state_row: Vec<f32>,
    /// Wave staging: the wave's candidate marginal latencies/costs,
    /// row-major per live arrival (`node_count` entries each).
    cand_lat: Vec<f64>,
    cand_cost: Vec<f64>,
    /// Wave staging: arrival indices still planning, and the next wave's.
    live: Vec<usize>,
    next_live: Vec<usize>,
    /// Wave staging: per-arrival episode cursor (current node, latency
    /// consumed so far under the frozen marginals).
    at_nodes: Vec<NodeId>,
    consumed: Vec<f64>,
}

/// Engine-owned hot-path buffers, reused across every placement decision.
///
/// One decision used to allocate a candidate vector, an action mask, an
/// encoded state, and (for terminal feedback) a fresh all-true mask plus a
/// fresh zero state. All of those now live here: the recycled
/// [`DecisionContext`] carries the working buffers, `prev_state`/`prev_mask`
/// hold the previous decision's observation while its feedback is
/// delivered, and the terminal mask/state are computed once. Policies
/// receive borrowed views ([`DecisionFeedback`]) and clone only what they
/// store.
struct SimScratch {
    /// Recycled decision context (its vectors keep their allocations
    /// between episodes; the request/chain fields are refreshed per
    /// episode).
    ctx: Option<DecisionContext>,
    /// Previous decision's encoded state, swapped out before refilling.
    prev_state: Vec<f32>,
    /// Previous decision's action mask, swapped out before refilling.
    prev_mask: Vec<bool>,
    /// Cached all-true mask (terminal next-state filler).
    all_true: Vec<bool>,
    /// Cached zero state (terminal next-state filler).
    zero_state: Vec<f32>,
    /// The group's snapshot plans ([`DecisionSemantics::SlotSnapshot`]).
    plans: GroupPlans,
}

/// The simulation: all mutable world state plus immutable catalogs.
pub struct Simulation {
    /// The network: topology + routes + capacity behind one versioned,
    /// event-driven API.
    pub network: NetworkView,
    /// Live VNF instances.
    pub pool: InstancePool,
    /// VNF type catalog.
    pub vnfs: VnfCatalog,
    /// Chain catalog.
    pub chains: ChainCatalog,
    /// The action space (nodes + reject).
    pub action_space: ActionSpace,
    /// Observation encoder.
    pub encoder: StateEncoder,
    /// Reward shaping.
    pub reward_config: RewardConfig,
    scenario: Scenario,
    active: BTreeMap<u64, ActiveFlow>,
    departures: BTreeMap<u64, Vec<RequestId>>,
    /// Slot-keyed network events, consumed as slots advance.
    event_timeline: BTreeMap<u64, Vec<NetworkEvent>>,
    slot: u64,
    deployment_cost_this_slot: f64,
    metrics: MetricsCollector,
    scratch: SimScratch,
    /// Decisions served from a snapshot wave's fused forward.
    batched_decisions: u64,
    /// How arrival groups are decided ([`RunOptions::semantics`]).
    semantics: DecisionSemantics,
    /// Duration of one slot on the ms-resolution timeline.
    slot_ms: u64,
    /// Which engine drives lifecycle bookkeeping.
    mode: EngineMode,
    /// The discrete-event queue (event mode).
    queue: EventQueue,
    /// Rank of the event currently being handled (retire-check timing).
    current_rank: u8,
    /// The staged same-timestamp arrival group (event mode).
    pending_arrivals: Vec<Request>,
    /// Counters accumulated since the last billed slot (event mode).
    counters: SlotCounters,
    /// End-of-slot snapshot; `None` after any world mutation.
    cost_cache: Option<CostCache>,
    /// Traffic accrued by sub-slot departures inside the current slot.
    partial_traffic: f64,
    /// Slot-compatibility accounting: billing matches the slot loop bit
    /// for bit. [`Simulation::run_events`] clears it for sparse runs.
    slot_compat: bool,
    /// Slots with a RetireCheck already scheduled (dedupe).
    retire_checks: BTreeSet<u64>,
    /// Latest flow-activation instant (monotone). Sparse billing uses it
    /// to tell which slots' windows can still clip a flow's share.
    latest_activation_ms: u64,
    /// The observer attached for the duration of one [`Simulation::drive`]
    /// call (swapped in from the caller's sink and back out afterwards).
    /// Read-only with respect to the world: hooks never affect the run.
    telemetry: Option<TelemetrySink>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("slot", &self.slot)
            .field("active_flows", &self.active.len())
            .field("live_instances", &self.pool.len())
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation for `scenario` with the given reward shaping and
    /// the standard VNF/chain catalogs.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid.
    pub fn new(scenario: &Scenario, reward_config: RewardConfig) -> Self {
        let vnfs = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&vnfs);
        Self::with_catalogs(scenario, reward_config, vnfs, chains)
    }

    /// Builds a simulation with custom catalogs (e.g. the chain-length
    /// sweep's synthetic chains).
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid or the workload's chain mix does
    /// not cover the chain catalog.
    pub fn with_catalogs(
        scenario: &Scenario,
        reward_config: RewardConfig,
        vnfs: VnfCatalog,
        chains: ChainCatalog,
    ) -> Self {
        scenario.validate();
        reward_config.validate();
        assert!(
            scenario.workload.chain_mix.len() <= chains.chain_count(),
            "workload chain mix references {} chains but the catalog has {}",
            scenario.workload.chain_mix.len(),
            chains.chain_count()
        );
        let mut topo_rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E37_79B9));
        let topology = scenario
            .topology
            .build(&scenario.topology_builder, &mut topo_rng);
        let event_timeline =
            scenario
                .events
                .materialize(&topology, scenario.horizon_slots, scenario.seed);
        let network = NetworkView::new(topology);
        let action_space = ActionSpace::new(network.topology().node_count());
        let encoder = StateEncoder::for_catalogs(
            network.topology().node_count(),
            &chains,
            // Phase features keyed to the diurnal period when present.
            match scenario.workload.pattern {
                workload::pattern::LoadPattern::Diurnal { period, .. } => period,
                _ => 0,
            },
        );
        let scratch = SimScratch {
            ctx: None,
            prev_state: Vec::new(),
            prev_mask: Vec::new(),
            all_true: vec![true; action_space.len()],
            zero_state: encoder.zero_state(),
            plans: GroupPlans::default(),
        };
        Self {
            network,
            pool: InstancePool::new(),
            vnfs,
            chains,
            action_space,
            encoder,
            reward_config,
            scenario: scenario.clone(),
            active: BTreeMap::new(),
            departures: BTreeMap::new(),
            event_timeline,
            slot: 0,
            deployment_cost_this_slot: 0.0,
            metrics: MetricsCollector::new(),
            scratch,
            batched_decisions: 0,
            semantics: DecisionSemantics::Sequential,
            slot_ms: ((scenario.slot_seconds * 1000.0).round() as u64).max(1),
            mode: EngineMode::Slot,
            queue: EventQueue::new(),
            current_rank: 0,
            pending_arrivals: Vec::new(),
            counters: SlotCounters::default(),
            cost_cache: None,
            partial_traffic: 0.0,
            slot_compat: true,
            retire_checks: BTreeSet::new(),
            latest_activation_ms: 0,
            telemetry: None,
        }
    }

    /// The scenario this simulation was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The network topology (shorthand for `network.topology()`).
    pub fn topology(&self) -> &Topology {
        self.network.topology()
    }

    /// Current routes over the live network (shorthand for
    /// `network.routes()`).
    pub fn routes(&self) -> &RoutingTable {
        self.network.routes()
    }

    /// Per-node resource accounting (shorthand for `network.ledger()`).
    pub fn ledger(&self) -> &CapacityLedger {
        self.network.ledger()
    }

    /// Current slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The current instant on the ms timeline: the event clock in event
    /// mode, the current slot's start in slot mode.
    fn now_ms(&self) -> u64 {
        match self.mode {
            EngineMode::Slot => self.slot.saturating_mul(self.slot_ms),
            EngineMode::Event => self.queue.now().ms(),
        }
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    /// Decisions served by [`DecisionSemantics::SlotSnapshot`] waves'
    /// fused `greedy_batch` forwards so far. Always 0 under
    /// [`DecisionSemantics::Sequential`], which decides per decision.
    pub fn batched_decisions(&self) -> u64 {
        self.batched_decisions
    }

    /// Sets the decision semantics for subsequent arrival groups.
    /// [`Simulation::drive`] sets this from [`RunOptions::semantics`];
    /// the setter exists for callers driving `advance_slot` directly.
    pub fn set_decision_semantics(&mut self, semantics: DecisionSemantics) {
        self.semantics = semantics;
    }

    /// Candidate details for placing `chain[position]` when the traffic is
    /// currently at `at_node`.
    pub fn candidates(
        &self,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
    ) -> Vec<CandidateInfo> {
        let mut out = Vec::new();
        self.candidates_into(chain, position, at_node, &mut out);
        out
    }

    /// [`Simulation::candidates`] into a caller-owned vector (cleared
    /// first) — the allocation-free decision-loop form.
    pub fn candidates_into(
        &self,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        out: &mut Vec<CandidateInfo>,
    ) {
        let vnf = self.vnfs.get(chain.vnfs[position]);
        let slot_s = self.scenario.slot_seconds;
        let topology = self.network.topology();
        let routes = self.network.routes();
        out.clear();
        out.extend((0..topology.node_count()).map(|i| {
            let node_id = NodeId(i);
            let node = topology.node(node_id);
            // A dead node can neither host nor be routed to; a dead
            // *source* leaves every candidate infeasible (the request
            // can only be rejected until the site recovers).
            let alive = self.network.node_alive(node_id) && self.network.node_alive(at_node);
            let reachable = alive && (at_node == node_id || routes.reachable(at_node, node_id));
            // Reuse: any instance of the type with queueing headroom.
            let reusable = self
                .pool
                .instances_of(vnf.id, node_id)
                .into_iter()
                .filter(|inst| {
                    admits_load(
                        vnf.service_rate_rps,
                        inst.lambda_rps,
                        chain.arrival_rate_rps,
                        self.scenario.max_instance_utilization,
                    )
                })
                .min_by(|a, b| a.lambda_rps.partial_cmp(&b.lambda_rps).unwrap());
            let can_spawn = self
                .network
                .ledger()
                .fits(node_id, &vnf.demand)
                .unwrap_or(false);
            let feasible = reachable && (reusable.is_some() || can_spawn);

            // Marginal latency: hop + fixed processing + queueing at the
            // post-admission arrival rate.
            let hop = if at_node == node_id {
                0.0
            } else {
                routes.latency_ms(at_node, node_id)
            };
            let lambda_after = reusable
                .map(|inst| inst.lambda_rps + chain.arrival_rate_rps)
                .unwrap_or(chain.arrival_rate_rps);
            let marginal_latency =
                hop + vnf.base_processing_ms + mm1_sojourn_ms(vnf.service_rate_rps, lambda_after);

            // Marginal cost: deployment + compute over the mean flow
            // lifetime (only when a new instance is needed) + hop
            // traffic over the lifetime.
            let mean_duration_s = self.scenario.workload.mean_duration_slots * slot_s;
            let mut cost = 0.0;
            if reusable.is_none() {
                cost += self.scenario.prices.deployment_cost;
                cost +=
                    self.scenario
                        .prices
                        .compute_cost_usd(node, vnf.demand.cpu, mean_duration_s);
            }
            let gb_lifetime = chain.traffic_gb * self.scenario.workload.mean_duration_slots;
            cost += self.scenario.prices.traffic_cost_usd(
                topology.node(at_node),
                node,
                if at_node == node_id { 0.0 } else { gb_lifetime },
            );

            CandidateInfo {
                node: node_id,
                feasible,
                reuse_available: reusable.is_some(),
                marginal_latency_ms: marginal_latency,
                marginal_cost_usd: cost,
                utilization: self.network.ledger().utilization_of(node_id).unwrap_or(1.0),
                is_cloud: node.is_cloud(),
            }
        }));
    }

    /// Builds the full decision context for one placement decision.
    pub fn decision_context(
        &self,
        request: &Request,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        consumed_latency_ms: f64,
    ) -> DecisionContext {
        let mut ctx = DecisionContext {
            encoded_state: Vec::new(),
            mask: Vec::new(),
            request: request.clone(),
            chain: chain.clone(),
            position,
            at_node,
            consumed_latency_ms,
            candidates: Vec::new(),
            slot: self.slot,
        };
        self.fill_context(&mut ctx, chain, position, at_node, consumed_latency_ms);
        ctx
    }

    /// Refills a decision context's per-decision fields in place: the
    /// candidate list, the action mask, and the encoded state all land in
    /// the context's reusable buffers (identical values to a freshly built
    /// [`Simulation::decision_context`]). The episode-scoped fields
    /// (`request`, `chain`) are the caller's responsibility.
    fn fill_context(
        &self,
        ctx: &mut DecisionContext,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        consumed_latency_ms: f64,
    ) {
        self.candidates_into(chain, position, at_node, &mut ctx.candidates);
        ctx.mask.clear();
        ctx.mask.extend(ctx.candidates.iter().map(|c| c.feasible));
        ctx.mask.push(true); // reject always valid
        self.encoder.encode_into(
            self.network.ledger(),
            &self.pool,
            &self.vnfs,
            chain,
            position,
            ctx.request.source,
            at_node,
            consumed_latency_ms,
            self.scenario.max_instance_utilization,
            self.slot,
            self.network.health(),
            &ctx.candidates,
            &mut ctx.encoded_state,
        );
        ctx.position = position;
        ctx.at_node = at_node;
        ctx.consumed_latency_ms = consumed_latency_ms;
        ctx.slot = self.slot;
    }

    /// Takes the recycled decision context (or builds a fresh one) and
    /// re-targets it at `request`/`chain`. `clone_from` reuses the chain
    /// buffers held from the previous episode.
    fn take_ctx(&mut self, request: &Request, chain: &ChainSpec) -> DecisionContext {
        match self.scratch.ctx.take() {
            Some(mut ctx) => {
                ctx.request = request.clone();
                ctx.chain.clone_from(chain);
                ctx
            }
            None => DecisionContext {
                encoded_state: Vec::new(),
                mask: Vec::new(),
                request: request.clone(),
                chain: chain.clone(),
                position: 0,
                at_node: request.source,
                consumed_latency_ms: 0.0,
                candidates: Vec::new(),
                slot: self.slot,
            },
        }
    }

    /// Commits one VNF placement at `node`: reuses an instance with
    /// headroom or spawns a new one. Returns
    /// `(instance, newly_spawned, deployment_cost_incurred)`.
    fn commit_step(
        &mut self,
        chain: &ChainSpec,
        position: usize,
        node: NodeId,
    ) -> (InstanceId, bool, f64) {
        let vnf = self.vnfs.get(chain.vnfs[position]).clone();
        let reusable = self
            .pool
            .instances_of(vnf.id, node)
            .into_iter()
            .filter(|inst| {
                admits_load(
                    vnf.service_rate_rps,
                    inst.lambda_rps,
                    chain.arrival_rate_rps,
                    self.scenario.max_instance_utilization,
                )
            })
            .min_by(|a, b| a.lambda_rps.partial_cmp(&b.lambda_rps).unwrap())
            .map(|inst| inst.id);
        match reusable {
            Some(id) => {
                self.pool
                    .add_flow(id, chain.arrival_rate_rps)
                    .expect("instance exists");
                (id, false, 0.0)
            }
            None => {
                self.network
                    .ledger_mut()
                    .allocate(node, &vnf.demand)
                    .expect("engine only commits feasible placements");
                let id = self.pool.spawn(vnf.id, node, self.slot);
                self.pool
                    .add_flow(id, chain.arrival_rate_rps)
                    .expect("just spawned");
                (id, true, self.scenario.prices.deployment_cost)
            }
        }
    }

    /// Rolls back partially placed steps of an abandoned episode.
    fn rollback(&mut self, chain: &ChainSpec, placed: &[(InstanceId, bool)]) {
        for &(id, spawned) in placed.iter().rev() {
            let (node, vnf_type) = {
                let inst = self.pool.get(id).expect("placed instance exists");
                (inst.node, inst.vnf_type)
            };
            self.pool
                .remove_flow(id, chain.arrival_rate_rps)
                .expect("flow was added");
            if spawned {
                self.pool.retire(id).expect("spawned instance is now idle");
                let demand = self.vnfs.get(vnf_type).demand;
                self.network
                    .ledger_mut()
                    .release(node, &demand)
                    .expect("node exists");
            } else {
                // A reused instance may have just gone idle again.
                self.note_possible_idle(id);
            }
        }
    }

    /// Runs one request's placement episode under `policy`.
    ///
    /// The decision loop is allocation-free at steady state: the decision
    /// context is recycled across episodes, its buffers are refilled in
    /// place per decision, and feedback borrows engine-owned buffers
    /// (policies clone only transitions they store).
    pub fn place_request(
        &mut self,
        request: &Request,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> PlacementOutcome {
        let chain = self.chains.get(request.chain).clone();
        let mut ctx = self.take_ctx(request, &chain);
        let mut placed: Vec<(InstanceId, bool)> = Vec::with_capacity(chain.len());
        let mut at_node = request.source;
        let mut consumed = 0.0f64;
        let mut deployment_cost = 0.0f64;
        // Feedback for the previous decision, waiting for its next-state.
        // The previous observation itself parks in `scratch.prev_*`.
        let mut pending: Option<(usize, f32)> = None;

        for position in 0..chain.len() {
            if pending.is_some() {
                // Keep the previous observation alive while the context
                // buffers are refilled for the new decision.
                std::mem::swap(&mut self.scratch.prev_state, &mut ctx.encoded_state);
                std::mem::swap(&mut self.scratch.prev_mask, &mut ctx.mask);
            }
            self.fill_context(&mut ctx, &chain, position, at_node, consumed);
            if let Some((action_index, reward)) = pending.take() {
                policy.observe(
                    DecisionFeedback {
                        state: &self.scratch.prev_state,
                        mask: &self.scratch.prev_mask,
                        action_index,
                        reward,
                        next_state: &ctx.encoded_state,
                        next_mask: &ctx.mask,
                        done: false,
                    },
                    rng,
                );
            }
            let started = Instant::now();
            let action_index = self.action_space.encode(policy.decide(&ctx, rng));
            self.metrics
                .push_decision_time(started.elapsed().as_nanos() as u64);
            assert!(
                ctx.mask[action_index],
                "policy {} chose masked action {action_index} at position {position}",
                policy.name()
            );
            let action = self.action_space.decode(action_index);

            match action {
                PlacementAction::Reject => {
                    self.rollback(&chain, &placed);
                    policy.observe(
                        DecisionFeedback {
                            state: &ctx.encoded_state,
                            mask: &ctx.mask,
                            action_index,
                            reward: self.reward_config.reject_reward(),
                            next_state: &self.scratch.zero_state,
                            next_mask: &self.scratch.all_true,
                            done: true,
                        },
                        rng,
                    );
                    self.scratch.ctx = Some(ctx);
                    let now = self.now_ms();
                    if let Some(sink) = self.telemetry.as_mut() {
                        sink.on_rejected(request.id, now);
                    }
                    return PlacementOutcome::Rejected;
                }
                PlacementAction::Place(node) => {
                    let info = &ctx.candidates[node.0];
                    let reward = self
                        .reward_config
                        .step_reward(info.marginal_latency_ms, info.marginal_cost_usd);
                    consumed += info.marginal_latency_ms;
                    let (instance, spawned, dep_cost) = self.commit_step(&chain, position, node);
                    deployment_cost += dep_cost;
                    placed.push((instance, spawned));
                    at_node = node;

                    if position + 1 == chain.len() {
                        let instances = placed.iter().map(|&(id, _)| id).collect();
                        let (latency_ms, sla_violated) =
                            self.admit_flow(request, &chain, instances, deployment_cost);
                        let terminal_reward =
                            reward + self.reward_config.completion_reward(sla_violated);
                        policy.observe(
                            DecisionFeedback {
                                state: &ctx.encoded_state,
                                mask: &ctx.mask,
                                action_index,
                                reward: terminal_reward,
                                next_state: &self.scratch.zero_state,
                                next_mask: &self.scratch.all_true,
                                done: true,
                            },
                            rng,
                        );
                        self.scratch.ctx = Some(ctx);
                        return PlacementOutcome::Accepted {
                            latency_ms,
                            sla_violated,
                        };
                    }
                    pending = Some((action_index, reward));
                }
            }
        }
        unreachable!("placement loop always returns from the final position");
    }

    /// Shared admission bookkeeping for a fully committed chain: measures
    /// the true end-to-end latency, activates the flow, schedules its
    /// departure, and records metrics/telemetry. Returns
    /// `(latency_ms, sla_violated)`.
    fn admit_flow(
        &mut self,
        request: &Request,
        chain: &ChainSpec,
        instances: Vec<InstanceId>,
        deployment_cost: f64,
    ) -> (f64, bool) {
        let assignment = ChainAssignment {
            request: request.id,
            instances,
        };
        let breakdown = assignment_latency(
            &assignment,
            chain,
            request.source,
            &self.pool,
            &self.vnfs,
            self.network.routes(),
        )
        .expect("committed assignment is valid");
        let latency_ms = breakdown.total_ms();
        let sla_violated = latency_ms > chain.latency_budget_ms;
        self.deployment_cost_this_slot += deployment_cost;
        // In slot mode flows activate on their arrival-slot boundary; in
        // event mode at the clock, which on a slot-boundary schedule is
        // the same instant.
        let activated_ms = match self.mode {
            EngineMode::Slot => request.arrival_slot * self.slot_ms,
            EngineMode::Event => self.queue.now().ms(),
        };
        let departure_ms = activated_ms
            + request
                .duration_ms
                .unwrap_or(request.duration_slots as u64 * self.slot_ms);
        self.active.insert(
            request.id.0,
            ActiveFlow {
                request: request.clone(),
                instances: assignment.instances,
                arrival_rate_rps: chain.arrival_rate_rps,
                latency_ms: if latency_ms.is_finite() {
                    latency_ms
                } else {
                    INFEASIBLE_LATENCY_MS
                },
                activated_ms,
                departure_ms,
            },
        );
        self.latest_activation_ms = self.latest_activation_ms.max(activated_ms);
        match self.mode {
            EngineMode::Slot => self
                .departures
                .entry(request.departure_slot())
                .or_default()
                .push(request.id),
            EngineMode::Event => self.queue.schedule_at(
                SimTime::from_ms(departure_ms),
                SimEvent::FlowDeparture {
                    request: request.id,
                },
            ),
        }
        self.metrics.push_admission_latency(latency_ms);
        if let Some(sink) = self.telemetry.as_mut() {
            sink.on_admitted(request.id, activated_ms, latency_ms);
        }
        (latency_ms, sla_violated)
    }

    /// Whether `chain[position]` can commit at `node` right now with
    /// traffic arriving from `at_node` — the snapshot apply-phase
    /// re-check, mirroring the feasibility rule of
    /// [`Simulation::candidates_into`] (reachability plus
    /// reuse-or-spawn headroom) against the *current* world.
    fn step_feasible(
        &self,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        node: NodeId,
    ) -> bool {
        let vnf = self.vnfs.get(chain.vnfs[position]);
        let alive = self.network.node_alive(node) && self.network.node_alive(at_node);
        if !alive || (at_node != node && !self.network.routes().reachable(at_node, node)) {
            return false;
        }
        let reusable = self
            .pool
            .instances_of(vnf.id, node)
            .into_iter()
            .any(|inst| {
                admits_load(
                    vnf.service_rate_rps,
                    inst.lambda_rps,
                    chain.arrival_rate_rps,
                    self.scenario.max_instance_utilization,
                )
            });
        reusable
            || self
                .network
                .ledger()
                .fits(node, &vnf.demand)
                .unwrap_or(false)
    }

    /// Plans a slot-snapshot arrival group: every chain position of every
    /// arrival is decided against the FROZEN world as it stands at the
    /// group's start — nothing commits here. Positions advance as a
    /// wavefront: all live arrivals' position-`p` decisions are assembled
    /// into one batch and answered by a single fused `greedy_batch`
    /// forward (or per-decision `decide` calls in arrival order for
    /// policies that cannot batch). Nothing commits during planning, so
    /// every row of a wave stays valid.
    fn plan_group_snapshot(
        &mut self,
        arrivals: &[Request],
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        let mut plans = std::mem::take(&mut self.scratch.plans);
        plans.valid = false;
        for plan in plans.plans.iter_mut() {
            plan.steps.clear();
            plan.rejected = false;
        }
        plans
            .plans
            .resize_with(arrivals.len(), ArrivalPlan::default);
        if arrivals.is_empty() {
            plans.valid = true;
            self.scratch.plans = plans;
            return;
        }

        let stride = self.action_space.len();
        let node_count = self.network.topology().node_count();
        let dim = self.encoder.dim();
        let total_rows: usize = arrivals
            .iter()
            .map(|r| self.chains.get(r.chain).len())
            .sum();
        plans.states.begin_rows(total_rows, dim);
        plans.masks.clear();
        plans.live.clear();
        plans.live.extend(0..arrivals.len());
        plans.at_nodes.clear();
        plans.at_nodes.extend(arrivals.iter().map(|r| r.source));
        plans.consumed.clear();
        plans.consumed.resize(arrivals.len(), 0.0);

        let use_batch = policy.supports_greedy_batch();
        let mut position = 0usize;
        while !plans.live.is_empty() {
            plans.wave_states.begin_rows(plans.live.len(), dim);
            plans.wave_masks.clear();
            plans.wave_actions.clear();
            plans.cand_lat.clear();
            plans.cand_cost.clear();
            if use_batch {
                // Assemble the whole wave, then ONE fused forward.
                for w in 0..plans.live.len() {
                    let i = plans.live[w];
                    let request = &arrivals[i];
                    let chain = self.chains.get(request.chain);
                    self.candidates_into(chain, position, plans.at_nodes[i], &mut plans.candidates);
                    plans.mask_row.clear();
                    plans
                        .mask_row
                        .extend(plans.candidates.iter().map(|c| c.feasible));
                    plans.mask_row.push(true); // reject always valid
                    self.encoder.encode_into(
                        self.network.ledger(),
                        &self.pool,
                        &self.vnfs,
                        chain,
                        position,
                        request.source,
                        plans.at_nodes[i],
                        plans.consumed[i],
                        self.scenario.max_instance_utilization,
                        self.slot,
                        self.network.health(),
                        &plans.candidates,
                        &mut plans.state_row,
                    );
                    plans.wave_states.push_row(&plans.state_row);
                    plans.wave_masks.extend_from_slice(&plans.mask_row);
                    plans
                        .cand_lat
                        .extend(plans.candidates.iter().map(|c| c.marginal_latency_ms));
                    plans
                        .cand_cost
                        .extend(plans.candidates.iter().map(|c| c.marginal_cost_usd));
                }
                let started = Instant::now();
                policy.greedy_batch(
                    &plans.wave_states,
                    &plans.wave_masks,
                    &mut plans.wave_actions,
                );
                let per_row_ns = started.elapsed().as_nanos() as u64 / plans.live.len() as u64;
                for _ in 0..plans.live.len() {
                    self.metrics.push_decision_time(per_row_ns);
                }
                self.batched_decisions += plans.live.len() as u64;
            } else {
                // Unbatched policies see the same frozen contexts,
                // decided in arrival order.
                for w in 0..plans.live.len() {
                    let i = plans.live[w];
                    let request = arrivals[i].clone();
                    let chain = self.chains.get(request.chain).clone();
                    let mut ctx = self.take_ctx(&request, &chain);
                    self.fill_context(
                        &mut ctx,
                        &chain,
                        position,
                        plans.at_nodes[i],
                        plans.consumed[i],
                    );
                    let started = Instant::now();
                    let action = policy.decide(&ctx, rng);
                    self.metrics
                        .push_decision_time(started.elapsed().as_nanos() as u64);
                    plans.wave_states.push_row(&ctx.encoded_state);
                    plans.wave_masks.extend_from_slice(&ctx.mask);
                    plans.wave_actions.push(self.action_space.encode(action));
                    plans
                        .cand_lat
                        .extend(ctx.candidates.iter().map(|c| c.marginal_latency_ms));
                    plans
                        .cand_cost
                        .extend(ctx.candidates.iter().map(|c| c.marginal_cost_usd));
                    self.scratch.ctx = Some(ctx);
                }
            }
            // Record the wave and advance the surviving episodes.
            plans.next_live.clear();
            for w in 0..plans.live.len() {
                let i = plans.live[w];
                let action_index = plans.wave_actions[w];
                let row = plans.states.rows();
                plans.states.push_row(plans.wave_states.row(w));
                plans
                    .masks
                    .extend_from_slice(&plans.wave_masks[w * stride..(w + 1) * stride]);
                assert!(
                    plans.masks[row * stride + action_index],
                    "policy {} chose masked action {action_index} at position {position}",
                    policy.name()
                );
                match self.action_space.decode(action_index) {
                    PlacementAction::Reject => {
                        plans.plans[i].steps.push(PlannedStep {
                            row,
                            action_index,
                            reward: self.reward_config.reject_reward(),
                        });
                        plans.plans[i].rejected = true;
                    }
                    PlacementAction::Place(node) => {
                        let lat = plans.cand_lat[w * node_count + node.0];
                        let cost = plans.cand_cost[w * node_count + node.0];
                        plans.plans[i].steps.push(PlannedStep {
                            row,
                            action_index,
                            reward: self.reward_config.step_reward(lat, cost),
                        });
                        plans.consumed[i] += lat;
                        plans.at_nodes[i] = node;
                        if position + 1 < self.chains.get(arrivals[i].chain).len() {
                            plans.next_live.push(i);
                        }
                    }
                }
            }
            std::mem::swap(&mut plans.live, &mut plans.next_live);
            position += 1;
        }
        plans.valid = true;
        self.scratch.plans = plans;
    }

    /// Applies one arrival's snapshot plan against the now-mutating world
    /// (arrival order = apply order). Every planned placement is
    /// re-checked cheaply before committing: if a prior arrival of the
    /// group consumed the capacity (or the node can no longer host), the
    /// whole chain rolls back and the request is rejected — the
    /// deterministic conflict-resolution contract. For learning policies
    /// feedback replays the frozen observations (frozen policies skip
    /// the replay — they discard it); the terminal reward reflects the applied
    /// outcome (real end-to-end latency for an admission, the reject
    /// reward for a planned rejection or a conflict). Planned decisions
    /// past a conflict were never applied, so they get no feedback.
    fn apply_planned_request(
        &mut self,
        index: usize,
        request: &Request,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> PlacementOutcome {
        let plans = std::mem::take(&mut self.scratch.plans);
        debug_assert!(plans.valid, "apply without a planned group");
        let plan = &plans.plans[index];
        let chain = self.chains.get(request.chain).clone();
        let stride = self.action_space.len();
        let mut placed: Vec<(InstanceId, bool)> = Vec::with_capacity(plan.steps.len());
        let mut deployment_cost = 0.0f64;
        let mut at_node = request.source;
        let mut conflict_at: Option<usize> = None;
        for (p, step) in plan.steps.iter().enumerate() {
            // A planned Reject is always the final step; nothing commits.
            if let PlacementAction::Place(node) = self.action_space.decode(step.action_index) {
                if self.step_feasible(&chain, p, at_node, node) {
                    let (instance, spawned, dep_cost) = self.commit_step(&chain, p, node);
                    deployment_cost += dep_cost;
                    placed.push((instance, spawned));
                    at_node = node;
                } else {
                    conflict_at = Some(p);
                    break;
                }
            }
        }

        let accepted = conflict_at.is_none() && !plan.rejected;
        // The step carrying the episode's terminal feedback.
        let last = conflict_at.unwrap_or(plan.steps.len() - 1);
        let (outcome, terminal_reward) = if accepted {
            let instances = placed.iter().map(|&(id, _)| id).collect();
            let (latency_ms, sla_violated) =
                self.admit_flow(request, &chain, instances, deployment_cost);
            (
                PlacementOutcome::Accepted {
                    latency_ms,
                    sla_violated,
                },
                plan.steps[last].reward + self.reward_config.completion_reward(sla_violated),
            )
        } else {
            self.rollback(&chain, &placed);
            let now = self.now_ms();
            if let Some(sink) = self.telemetry.as_mut() {
                sink.on_rejected(request.id, now);
            }
            let reward = if conflict_at.is_none() {
                plan.steps[last].reward // the policy's own rejection
            } else {
                self.reward_config.reject_reward() // conflict fallback
            };
            (PlacementOutcome::Rejected, reward)
        };

        // Feedback replay costs a slice-and-struct walk per step; frozen
        // policies (`!is_learning`) discard it, so skip the walk — this
        // is the serving layer's hot path, where every planned row passes
        // through here.
        let replay_steps = if policy.is_learning() { last + 1 } else { 0 };
        for p in 0..replay_steps {
            let step = &plan.steps[p];
            let state = plans.states.row(step.row);
            let mask = &plans.masks[step.row * stride..(step.row + 1) * stride];
            if p == last {
                policy.observe(
                    DecisionFeedback {
                        state,
                        mask,
                        action_index: step.action_index,
                        reward: terminal_reward,
                        next_state: &self.scratch.zero_state,
                        next_mask: &self.scratch.all_true,
                        done: true,
                    },
                    rng,
                );
            } else {
                let next = &plan.steps[p + 1];
                policy.observe(
                    DecisionFeedback {
                        state,
                        mask,
                        action_index: step.action_index,
                        reward: step.reward,
                        next_state: plans.states.row(next.row),
                        next_mask: &plans.masks[next.row * stride..(next.row + 1) * stride],
                        done: false,
                    },
                    rng,
                );
            }
        }
        self.scratch.plans = plans;
        outcome
    }

    /// Processes departures scheduled for the current slot.
    fn process_departures(&mut self) {
        let Some(ids) = self.departures.remove(&self.slot) else {
            return;
        };
        for id in ids {
            let Some(flow) = self.active.remove(&id.0) else {
                continue;
            };
            for inst_id in flow.instances {
                self.pool
                    .remove_flow(inst_id, flow.arrival_rate_rps)
                    .expect("active flow's instance exists");
            }
        }
    }

    /// Retires instances idle longer than the scenario grace period.
    /// Returns how many were retired.
    fn retire_idle_instances(&mut self) -> usize {
        let ids = self
            .pool
            .idle_instances(self.slot, self.scenario.idle_retire_slots);
        let retired = ids.len();
        for id in ids {
            let (node, vnf_type) = {
                let inst = self.pool.get(id).expect("listed instance exists");
                (inst.node, inst.vnf_type)
            };
            self.pool.retire(id).expect("idle instance retires");
            let demand = self.vnfs.get(vnf_type).demand;
            self.network
                .ledger_mut()
                .release(node, &demand)
                .expect("node exists");
        }
        retired
    }

    /// Applies the network events scheduled for the current slot. Node
    /// failures evict every instance on the dead node and tear the flows
    /// they served out of the active set; flows whose instances survived
    /// but whose route was severed (a partition) are stranded and torn
    /// out too. All disrupted flows are returned for re-placement.
    /// Surviving flows get their cached latencies refreshed against the
    /// changed routes.
    fn apply_due_events(&mut self) -> Vec<ActiveFlow> {
        let Some(events) = self.event_timeline.remove(&self.slot) else {
            return Vec::new();
        };
        self.apply_network_events(&events)
    }

    /// [`Simulation::apply_due_events`] body, shared with the event
    /// engine (which drains its own queue instead of the slot timeline).
    fn apply_network_events(&mut self, events: &[NetworkEvent]) -> Vec<ActiveFlow> {
        let mut downed: Vec<NodeId> = Vec::new();
        for event in events {
            self.network.apply(event);
            if let Some(node) = event.downed_node() {
                downed.push(node);
            }
        }
        // Evict every instance hosted on a dead node and return its
        // capacity (the ledger stays consistent for eventual recovery).
        let mut dead_instances: BTreeSet<InstanceId> = BTreeSet::new();
        for &node in &downed {
            for inst in self.pool.evict_node(node) {
                let demand = self.vnfs.get(inst.vnf_type).demand;
                self.network
                    .ledger_mut()
                    .release(node, &demand)
                    .expect("node exists");
                dead_instances.insert(inst.id);
            }
        }
        // Tear disrupted flows out of the active set, releasing their load
        // on surviving instances (which may then retire as idle).
        let mut disrupted = Vec::new();
        if !dead_instances.is_empty() {
            let hit: Vec<u64> = self
                .active
                .iter()
                .filter(|(_, f)| f.instances.iter().any(|i| dead_instances.contains(i)))
                .map(|(&id, _)| id)
                .collect();
            for id in hit {
                let flow = self.active.remove(&id).expect("listed flow exists");
                for inst_id in &flow.instances {
                    if !dead_instances.contains(inst_id) {
                        self.pool
                            .remove_flow(*inst_id, flow.arrival_rate_rps)
                            .expect("surviving instance exists");
                        self.note_possible_idle(*inst_id);
                    }
                }
                disrupted.push(flow);
            }
        }
        // Routes (and queueing on surviving instances) changed: refresh
        // the cached end-to-end latency of every surviving flow, and
        // strand the ones whose path no longer exists.
        for id in self.refresh_cached_latencies() {
            let flow = self.active.remove(&id).expect("listed flow exists");
            for inst_id in &flow.instances {
                self.pool
                    .remove_flow(*inst_id, flow.arrival_rate_rps)
                    .expect("stranded flow's instances survived");
                self.note_possible_idle(*inst_id);
            }
            disrupted.push(flow);
        }
        disrupted
    }

    /// Recomputes every active flow's cached latency against the current
    /// network (only called after events — the per-slot hot path reads the
    /// cache instead of re-evaluating assignments). Returns the ids of
    /// flows whose assignment is no longer routable at all (stranded by a
    /// partition); an overloaded-but-routable flow is *not* stranded, it
    /// just carries the [`INFEASIBLE_LATENCY_MS`] sentinel.
    fn refresh_cached_latencies(&mut self) -> Vec<u64> {
        let mut updates: Vec<(u64, f64)> = Vec::new();
        let mut stranded: Vec<u64> = Vec::new();
        for (&id, flow) in &self.active {
            let chain = self.chains.get(flow.request.chain);
            let assignment = ChainAssignment {
                request: flow.request.id,
                instances: flow.instances.clone(),
            };
            match assignment_latency(
                &assignment,
                chain,
                flow.request.source,
                &self.pool,
                &self.vnfs,
                self.network.routes(),
            ) {
                Ok(breakdown) => {
                    let t = breakdown.total_ms();
                    updates.push((
                        id,
                        if t.is_finite() {
                            t
                        } else {
                            INFEASIBLE_LATENCY_MS
                        },
                    ));
                }
                // The only reachable error here is `Unroutable`: the
                // instances exist and match the chain (they were
                // validated at admission), so an error means the network
                // no longer connects them.
                Err(_) => stranded.push(id),
            }
        }
        for (id, latency) in updates {
            self.active.get_mut(&id).expect("listed flow").latency_ms = latency;
        }
        stranded
    }

    /// Per-slot operational costs plus the mean active-flow latency, in a
    /// single pass over the active set (cost's traffic term and the
    /// latency average used to be two separate full scans).
    ///
    /// `window = Some((slot_start_ms, slot_ms))` prorates each flow's
    /// traffic by the fraction of the slot it was actually active for
    /// (sparse mode); `None` bills whole slots, exactly like the paper's
    /// slotted accounting.
    fn slot_costs_and_latency(&self, window: Option<(u64, u64)>) -> (f64, f64, f64, f64) {
        let slot_s = self.scenario.slot_seconds;
        let topology = self.network.topology();
        // Compute: every live instance bills its CPU share.
        let compute: f64 = self
            .pool
            .iter()
            .map(|inst| {
                let node = topology.node(inst.node);
                let cpu = self.vnfs.get(inst.vnf_type).demand.cpu;
                self.scenario.prices.compute_cost_usd(node, cpu, slot_s)
            })
            .sum();
        // Energy: live edge nodes bill their utilization-dependent power
        // (a failed node is powered off and draws nothing).
        let energy: f64 = topology
            .nodes()
            .iter()
            .filter(|n| !n.is_cloud() && self.network.node_alive(n.id))
            .map(|n| {
                let u = self.network.ledger().utilization_of(n.id).unwrap_or(0.0);
                self.scenario.energy.cost_usd(n, u.min(1.0), slot_s)
            })
            .sum();
        // One pass over active flows: traffic cost (chain's per-slot
        // volume along source → VNF₁ → … → VNFₙ) + cached latency sum.
        let mut traffic = 0.0;
        let mut latency_sum = 0.0;
        for flow in self.active.values() {
            latency_sum += flow.latency_ms;
            let chain = self.chains.get(flow.request.chain);
            let share = match window {
                None => 1.0,
                Some((slot_start_ms, slot_ms)) => {
                    let active_ms = (slot_start_ms + slot_ms)
                        .saturating_sub(flow.activated_ms.max(slot_start_ms));
                    (active_ms as f64 / slot_ms as f64).min(1.0)
                }
            };
            let mut at = flow.request.source;
            for &inst_id in &flow.instances {
                let node = self.pool.get(inst_id).expect("active instance").node;
                traffic += share
                    * self.scenario.prices.traffic_cost_usd(
                        topology.node(at),
                        topology.node(node),
                        chain.traffic_gb,
                    );
                at = node;
            }
        }
        let mean_latency = if self.active.is_empty() {
            0.0
        } else {
            latency_sum / self.active.len() as f64
        };
        (compute, energy, traffic, mean_latency)
    }

    /// Sends disrupted flows back through the policy for re-placement.
    /// Returns how many were successfully replaced.
    fn replace_disrupted(
        &mut self,
        disrupted: Vec<ActiveFlow>,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> u32 {
        let mut flows_replaced = 0u32;
        for flow in disrupted {
            let remaining = flow.request.departure_slot().saturating_sub(self.slot);
            if remaining == 0 {
                continue; // departures already ran; defensive only
            }
            // Re-placement rides the exact same policy path as an
            // admission: same context, masks, rewards and feedback. The
            // retry is re-quantized to whole slots (`duration_ms` would
            // otherwise re-bill the lifetime already served).
            let retry = Request {
                arrival_slot: self.slot,
                duration_slots: remaining as u32,
                duration_ms: None,
                ..flow.request
            };
            let now = self.now_ms();
            if let Some(sink) = self.telemetry.as_mut() {
                sink.on_requested(now, &retry, true);
            }
            if let PlacementOutcome::Accepted { .. } = self.place_request(&retry, policy, rng) {
                flows_replaced += 1;
            }
        }
        flows_replaced
    }

    /// Advances one slot: departures, network events (failures evict
    /// instances and send disrupted flows back through the policy for
    /// re-placement), idle retirement, the slot's arrivals, then cost
    /// accounting. Returns the slot record.
    ///
    /// This is the paper's original slotted loop; it cannot be mixed with
    /// the event engine on the same simulation.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already ran event-driven ([`Simulation::run_trace`]
    /// or [`Simulation::run_events`]).
    pub fn advance_slot(
        &mut self,
        arrivals: &[Request],
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> SlotRecord {
        assert!(
            self.mode == EngineMode::Slot,
            "advance_slot drives the slot loop; this simulation is already event-driven"
        );
        self.process_departures();
        self.deployment_cost_this_slot = 0.0;

        // Network events fire after departures (a flow that leaves this
        // slot cannot be disrupted) and before arrivals (new requests see
        // the degraded network).
        let disrupted = self.apply_due_events();
        let flows_disrupted = disrupted.len() as u32;
        let flows_replaced = self.replace_disrupted(disrupted, policy, rng);

        self.retire_idle_instances();

        // Sequential semantics place each arrival in turn, one decision
        // at a time. Snapshot semantics first plan EVERY position of
        // every arrival against the frozen slot-start world, then apply
        // jointly in arrival order.
        let snapshot = self.semantics == DecisionSemantics::SlotSnapshot;
        if snapshot {
            self.plan_group_snapshot(arrivals, policy, rng);
        }

        let mut accepted = 0u32;
        let mut rejected = 0u32;
        let mut sla_violations = 0u32;
        for (row, request) in arrivals.iter().enumerate() {
            let outcome = if snapshot {
                self.apply_planned_request(row, request, policy, rng)
            } else {
                self.place_request(request, policy, rng)
            };
            match outcome {
                PlacementOutcome::Accepted { sla_violated, .. } => {
                    accepted += 1;
                    if sla_violated {
                        sla_violations += 1;
                    }
                }
                PlacementOutcome::Rejected => rejected += 1,
            }
        }
        // Stale once the slot's arrivals ran.
        self.scratch.plans.valid = false;

        let (compute, energy, traffic, mean_latency) = self.slot_costs_and_latency(None);
        let record = SlotRecord {
            slot: self.slot,
            arrivals: arrivals.len() as u32,
            accepted,
            rejected,
            sla_violations,
            active_flows: self.active.len() as u32,
            live_instances: self.pool.len() as u32,
            mean_latency_ms: mean_latency,
            compute_cost: compute,
            energy_cost: energy,
            traffic_cost: traffic,
            deployment_cost: self.deployment_cost_this_slot,
            mean_utilization: self.network.ledger().mean_utilization(),
            flows_disrupted,
            flows_replaced,
            nodes_down: self.network.down_node_count() as u32,
        };
        self.metrics.push_slot(record.clone());
        self.slot += 1;
        record
    }

    /// Generates the trace [`Simulation::run`] would feed the engine.
    fn generate_run_trace(&self, seed_offset: u64) -> Trace {
        let mut trace_rng = StdRng::seed_from_u64(
            self.scenario
                .seed
                .wrapping_add(seed_offset)
                .wrapping_mul(0x2545_F491),
        );
        let sites = self.network.topology().edge_nodes();
        generate_trace(
            &self.scenario.workload,
            &sites,
            self.scenario.horizon_slots,
            &mut trace_rng,
        )
    }

    /// The decision RNG every run entry point derives from the scenario
    /// seed — identical across engines so their policy draws align.
    fn decision_rng(&self, seed_offset: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.scenario
                .seed
                .wrapping_add(seed_offset)
                .wrapping_mul(0x9E37_79B9)
                ^ 0xDEAD_BEEF,
        )
    }

    /// The unified run entry point: drives `input` through the engine,
    /// billing, metrics retention and observer selected by `opts`, and
    /// returns the run's [`RunSummary`].
    ///
    /// Every legacy entry point ([`Simulation::run`],
    /// [`Simulation::run_slotted`], [`Simulation::run_trace`],
    /// [`Simulation::run_trace_slotted`], [`Simulation::run_events`]) is
    /// a thin wrapper over this method, so all of them share its
    /// validation:
    ///
    /// # Panics
    ///
    /// * [`BillingMode::SlotCompat`] after any sparse run on the same
    ///   simulation — the two accountings cannot mix (previously a
    ///   doc-only warning on `run_events`).
    /// * [`RunEngine::SlottedOracle`] combined with sparse billing,
    ///   ms-resolution input ([`RunInput::Events`]/[`RunInput::Stream`])
    ///   or a telemetry sink.
    /// * [`MetricsMode::Streaming`] on a collector already holding
    ///   full-mode data from an earlier run.
    pub fn drive(
        &mut self,
        input: RunInput<'_>,
        policy: &mut dyn PlacementPolicy,
        mut opts: RunOptions<'_>,
    ) -> RunSummary {
        match opts.billing {
            BillingMode::SlotCompat => assert!(
                self.slot_compat,
                "BillingMode::SlotCompat requested, but this simulation already ran sparse \
                 (run_events / BillingMode::Sparse); the two accountings cannot mix on one \
                 simulation — build a fresh Simulation instead"
            ),
            BillingMode::Sparse => {}
        }
        if opts.engine == RunEngine::SlottedOracle {
            assert_eq!(
                opts.billing,
                BillingMode::SlotCompat,
                "the slotted oracle only bills whole slots"
            );
            assert!(
                matches!(input, RunInput::Generated | RunInput::Trace(_)),
                "the slotted oracle needs slot-resolution input (Generated or Trace), \
                 got {input:?}"
            );
            assert!(
                opts.telemetry.is_none(),
                "telemetry hooks are wired into the event engine; the slotted oracle does \
                 not support a TelemetrySink"
            );
        }
        if opts.metrics == MetricsMode::Streaming {
            self.metrics.enable_streaming();
        }
        self.semantics = opts.semantics;
        // Swap the caller's sink in for the run (and back out below) so
        // the hot path tests one `Option` field instead of threading a
        // reference through every engine frame.
        let mut caller_sink = opts.telemetry.take();
        if let Some(sink) = caller_sink.as_deref_mut() {
            self.telemetry = Some(std::mem::take(sink));
        }

        let sparse = opts.billing == BillingMode::Sparse;
        let summary = match input {
            RunInput::Generated => {
                let trace = self.generate_run_trace(opts.seed_offset);
                match opts.engine {
                    RunEngine::SlottedOracle => {
                        self.drive_slotted(&trace, policy, opts.seed_offset, opts.horizon_slots)
                    }
                    RunEngine::Event => self.drive_event(
                        RunInput::Trace(&trace),
                        policy,
                        opts.seed_offset,
                        opts.horizon_slots,
                        sparse,
                    ),
                }
            }
            input => match opts.engine {
                RunEngine::SlottedOracle => {
                    let RunInput::Trace(trace) = input else {
                        unreachable!("oracle input validated above");
                    };
                    self.drive_slotted(trace, policy, opts.seed_offset, opts.horizon_slots)
                }
                RunEngine::Event => {
                    self.drive_event(input, policy, opts.seed_offset, opts.horizon_slots, sparse)
                }
            },
        };
        if let Some(sink) = caller_sink {
            *sink = self.telemetry.take().expect("sink attached above");
        }
        summary
    }

    /// Runs the scenario's full horizon with a freshly generated trace.
    ///
    /// `seed_offset` decorrelates repeated runs (training passes) of the
    /// same scenario. Equivalent to [`Simulation::drive`] with
    /// [`RunInput::Generated`] and default options.
    pub fn run(&mut self, policy: &mut dyn PlacementPolicy, seed_offset: u64) -> RunSummary {
        self.drive(
            RunInput::Generated,
            policy,
            RunOptions::new().with_seed_offset(seed_offset),
        )
    }

    /// [`Simulation::run`] driven by the legacy slotted loop instead of
    /// the event engine — the equivalence suite's reference path.
    /// Equivalent to [`Simulation::drive`] with the slotted oracle.
    pub fn run_slotted(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
    ) -> RunSummary {
        self.drive(
            RunInput::Generated,
            policy,
            RunOptions::new().slotted().with_seed_offset(seed_offset),
        )
    }

    /// Runs a pre-generated trace through the discrete-event engine in
    /// slot-compatibility mode: every lifecycle event lands on a slot
    /// boundary, so the output — `RunSummary` and the full `SlotRecord`
    /// stream — is bit-identical to [`Simulation::run_trace_slotted`],
    /// while idle stretches of the trace are skipped in O(1) per slot
    /// instead of paying a full per-slot sweep. Equivalent to
    /// [`Simulation::drive`] with [`RunInput::Trace`].
    pub fn run_trace(
        &mut self,
        trace: &Trace,
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
    ) -> RunSummary {
        self.drive(
            RunInput::Trace(trace),
            policy,
            RunOptions::new().with_seed_offset(seed_offset),
        )
    }

    /// Runs a pre-generated trace through the paper's original slotted
    /// loop ([`Simulation::advance_slot`] per slot). Kept as the
    /// equivalence oracle for the event engine; see
    /// `tests/event_slot_equivalence.rs`. Equivalent to
    /// [`Simulation::drive`] with the slotted oracle and
    /// [`RunInput::Trace`].
    pub fn run_trace_slotted(
        &mut self,
        trace: &Trace,
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
    ) -> RunSummary {
        self.drive(
            RunInput::Trace(trace),
            policy,
            RunOptions::new().slotted().with_seed_offset(seed_offset),
        )
    }

    /// Runs an explicit ms-resolution arrival schedule through the event
    /// engine for `horizon_slots` slots — the *sparse* entry point.
    /// Arrivals may land anywhere inside a slot and requests may carry
    /// sub-slot holding times ([`Request::duration_ms`]), which are billed
    /// pro rata instead of being rounded up to whole slots. Scheduled
    /// network events from the scenario still fire on their slot
    /// boundaries. Arrivals before the clock or at/after the horizon are
    /// dropped.
    ///
    /// Unlike [`Simulation::run_trace`] this permanently leaves
    /// slot-compatibility accounting: a later slot-compatible run on the
    /// same simulation panics (enforced by [`Simulation::drive`]).
    /// Equivalent to `drive` with [`RunInput::Events`] and sparse
    /// billing.
    pub fn run_events(
        &mut self,
        arrivals: &[TimedArrival],
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
        horizon_slots: u64,
    ) -> RunSummary {
        self.drive(
            RunInput::Events(arrivals),
            policy,
            RunOptions::new()
                .sparse()
                .with_seed_offset(seed_offset)
                .with_horizon(horizon_slots),
        )
    }

    /// [`Simulation::drive`]'s slotted-oracle engine: the paper's
    /// original per-slot sweep over a pre-generated trace.
    fn drive_slotted(
        &mut self,
        trace: &Trace,
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
        horizon_slots: Option<u64>,
    ) -> RunSummary {
        let mut rng = self.decision_rng(seed_offset);
        let start = self.slot;
        let horizon = horizon_slots.unwrap_or(trace.horizon_slots);
        let mut arrivals_by_slot: BTreeMap<u64, Vec<Request>> = BTreeMap::new();
        for r in &trace.requests {
            let mut shifted = r.clone();
            shifted.arrival_slot += start;
            arrivals_by_slot
                .entry(shifted.arrival_slot)
                .or_default()
                .push(shifted);
        }
        for s in start..start + horizon {
            let arrivals = arrivals_by_slot.remove(&s).unwrap_or_default();
            self.advance_slot(&arrivals, policy, &mut rng);
        }
        self.metrics.summarize()
    }

    /// [`Simulation::drive`]'s event engine: schedules (or, for stream
    /// input, lazily feeds) the arrivals and runs the event loop.
    fn drive_event(
        &mut self,
        input: RunInput<'_>,
        policy: &mut dyn PlacementPolicy,
        seed_offset: u64,
        horizon_slots: Option<u64>,
        sparse: bool,
    ) -> RunSummary {
        let mut rng = self.decision_rng(seed_offset);
        let start = self.slot;
        self.enter_event_mode();
        if sparse {
            self.slot_compat = false;
        }
        let mut feed: Option<ArrivalFeed<'_>> = None;
        let end_slot = match input {
            RunInput::Generated => unreachable!("drive materializes Generated into Trace"),
            RunInput::Trace(trace) => {
                let end_slot = start + horizon_slots.unwrap_or(trace.horizon_slots);
                for r in &trace.requests {
                    let slot = r.arrival_slot + start;
                    if slot >= end_slot {
                        continue; // the slot loop never reaches these either
                    }
                    let mut shifted = r.clone();
                    shifted.arrival_slot = slot;
                    self.queue.schedule_at(
                        SimTime::from_slot(slot, self.slot_ms),
                        SimEvent::FlowArrival(shifted),
                    );
                }
                end_slot
            }
            RunInput::Events(arrivals) => {
                let end_slot = start + horizon_slots.unwrap_or(self.scenario.horizon_slots);
                let end_ms = end_slot.saturating_mul(self.slot_ms);
                for arrival in arrivals {
                    if arrival.at.ms() >= end_ms || arrival.at < self.queue.now() {
                        continue;
                    }
                    let mut request = arrival.request.clone();
                    request.arrival_slot = arrival.at.slot(self.slot_ms);
                    self.queue
                        .schedule_at(arrival.at, SimEvent::FlowArrival(request));
                }
                end_slot
            }
            RunInput::Stream(stream) => {
                feed = Some(ArrivalFeed {
                    stream,
                    next: None,
                    last_ms: 0,
                });
                start + horizon_slots.unwrap_or(self.scenario.horizon_slots)
            }
        };
        self.schedule_window_network_events(start, end_slot);
        self.run_event_loop(end_slot, policy, &mut rng, feed);
        self.metrics.summarize()
    }

    /// Admits every stream arrival that is due — at or before the next
    /// queued event (all in-horizon arrivals when the queue is empty) —
    /// onto the queue. Runs before each event pop, which guarantees a
    /// timestamp's arrival group is complete before that group drains
    /// (the stream is time-ordered, so nothing at the group's instant
    /// can appear later). Sets `*feed` to `None` once exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields arrivals out of time order.
    fn feed_due_arrivals(&mut self, feed: &mut Option<ArrivalFeed<'_>>, end_ms: u64) {
        let Some(f) = feed.as_mut() else { return };
        loop {
            if f.next.is_none() {
                f.next = f.stream.next();
            }
            let Some(head) = f.next.as_ref() else {
                *feed = None; // exhausted
                return;
            };
            let at = head.at;
            assert!(
                at.ms() >= f.last_ms,
                "RunInput::Stream must be time-ordered: got an arrival at {}ms after one \
                 at {}ms",
                at.ms(),
                f.last_ms
            );
            if at.ms() >= end_ms {
                return; // ordered stream: the rest is beyond the horizon too
            }
            if let Some((t, _)) = self.queue.peek() {
                if at > t {
                    return; // not due yet
                }
            }
            let mut arrival = f.next.take().expect("head checked above");
            f.last_ms = arrival.at.ms();
            if arrival.at < self.queue.now() {
                continue; // before the clock — dropped, like run_events
            }
            arrival.request.arrival_slot = arrival.at.slot(self.slot_ms);
            self.queue
                .schedule_at(arrival.at, SimEvent::FlowArrival(arrival.request));
        }
    }

    /// Flips the simulation into event mode, migrating departures that
    /// direct [`Simulation::place_request`] calls (or an earlier slotted
    /// run) registered in the slot-keyed map onto the queue. Past-due
    /// keys are dropped — the slot loop would never reach them either.
    fn enter_event_mode(&mut self) {
        if self.mode == EngineMode::Event {
            return;
        }
        self.mode = EngineMode::Event;
        let departures = std::mem::take(&mut self.departures);
        for (slot, ids) in departures {
            if slot < self.slot {
                continue;
            }
            for id in ids {
                self.queue.schedule_at(
                    SimTime::from_slot(slot, self.slot_ms),
                    SimEvent::FlowDeparture { request: id },
                );
            }
        }
    }

    /// Moves the scenario's network events due in `[start, end_slot)`
    /// from the slot timeline onto the queue (later windows stay put for
    /// chained runs).
    fn schedule_window_network_events(&mut self, start: u64, end_slot: u64) {
        let due: Vec<u64> = self
            .event_timeline
            .range(start..end_slot)
            .map(|(&s, _)| s)
            .collect();
        for s in due {
            let events = self.event_timeline.remove(&s).expect("listed key exists");
            for event in events {
                self.queue.schedule_at(
                    SimTime::from_slot(s, self.slot_ms),
                    SimEvent::Network(event),
                );
            }
        }
    }

    /// First slot whose retire phase is still ahead of the clock: the
    /// current slot while handling a pre-retire-rank event exactly on the
    /// boundary, the next slot otherwise.
    fn earliest_retire_slot(&self) -> u64 {
        let now = self.queue.now().ms();
        if now == self.slot.saturating_mul(self.slot_ms)
            && self.current_rank < SimEventKind::RetireCheck.rank()
        {
            self.slot
        } else {
            self.slot + 1
        }
    }

    /// Event-mode bookkeeping after a flow releases instance `id`: if the
    /// instance is now idle, schedule a retire check for the first slot
    /// whose retire phase both hasn't passed and clears the creation-age
    /// grace period — exactly when the slot loop's per-slot sweep would
    /// retire it. No-op in slot mode (the sweep runs every slot there).
    fn note_possible_idle(&mut self, id: InstanceId) {
        if self.mode != EngineMode::Event {
            return;
        }
        let Some(inst) = self.pool.get(id) else {
            return;
        };
        if inst.flows > 0 {
            return;
        }
        let due = self.earliest_retire_slot().max(
            inst.created_slot
                .saturating_add(self.scenario.idle_retire_slots),
        );
        if self.retire_checks.insert(due) {
            self.queue
                .schedule_at(SimTime::from_slot(due, self.slot_ms), SimEvent::RetireCheck);
        }
    }

    /// Bills every slot whose end lies at or before `time_ms`, emitting
    /// one [`SlotRecord`] each. Between events the world cannot change,
    /// so after the first (possibly recomputed) snapshot the remaining
    /// slots reuse it verbatim — a long idle stretch costs O(1) per slot
    /// and no per-flow or per-instance scans.
    fn bill_slots_through(&mut self, time_ms: u64) {
        while (self.slot + 1).saturating_mul(self.slot_ms) <= time_ms {
            // A flow activated after this slot's start owes less than a
            // full share, so its snapshot is specific to THIS slot and
            // must not be cached for the next one. Activations clear the
            // cache, so a live cache implies no clipping.
            let clips = !self.slot_compat
                && self.latest_activation_ms > self.slot.saturating_mul(self.slot_ms);
            let snapshot = match self.cost_cache.filter(|_| !clips) {
                Some(c) => c,
                None => {
                    let window = if self.slot_compat {
                        None
                    } else {
                        Some((self.slot * self.slot_ms, self.slot_ms))
                    };
                    let (compute, energy, traffic, mean_latency) =
                        self.slot_costs_and_latency(window);
                    let c = CostCache {
                        compute,
                        energy,
                        traffic,
                        mean_latency,
                        mean_utilization: self.network.ledger().mean_utilization(),
                        active_flows: self.active.len() as u32,
                        live_instances: self.pool.len() as u32,
                        nodes_down: self.network.down_node_count() as u32,
                    };
                    if !clips {
                        self.cost_cache = Some(c);
                    }
                    c
                }
            };
            let mut traffic_cost = snapshot.traffic;
            if self.partial_traffic != 0.0 {
                // Added (and branch-gated) separately so slot-compat
                // billing reuses the snapshot's bits untouched.
                traffic_cost += self.partial_traffic;
                self.partial_traffic = 0.0;
            }
            let record = SlotRecord {
                slot: self.slot,
                arrivals: self.counters.arrivals,
                accepted: self.counters.accepted,
                rejected: self.counters.rejected,
                sla_violations: self.counters.sla_violations,
                active_flows: snapshot.active_flows,
                live_instances: snapshot.live_instances,
                mean_latency_ms: snapshot.mean_latency,
                compute_cost: snapshot.compute,
                energy_cost: snapshot.energy,
                traffic_cost,
                deployment_cost: self.deployment_cost_this_slot,
                mean_utilization: snapshot.mean_utilization,
                flows_disrupted: self.counters.flows_disrupted,
                flows_replaced: self.counters.flows_replaced,
                nodes_down: snapshot.nodes_down,
            };
            if let Some(sink) = self.telemetry.as_mut() {
                sink.on_slot_billed(&record, self.slot_ms);
            }
            self.metrics.push_slot(record);
            self.counters = SlotCounters::default();
            self.deployment_cost_this_slot = 0.0;
            self.slot += 1;
        }
    }

    /// Removes one departing flow, charging its share of the current
    /// (partial) slot's traffic in sparse mode. Duplicate departure
    /// events are ignored; in sparse mode, stale ones (left behind by a
    /// re-placement, or by a chained run reusing the request id) are
    /// ignored too. Slot-compatibility mode must NOT filter stale events:
    /// the slot loop departs by id, whichever flow currently holds it —
    /// including a later flow that reused the id — and bit-equivalence
    /// means reproducing exactly that.
    fn handle_departure(&mut self, at: SimTime, request: RequestId) {
        match self.active.get(&request.0) {
            None => return, // already departed or disrupted
            Some(flow) if !self.slot_compat && flow.departure_ms != at.ms() => return,
            Some(_) => {}
        }
        let flow = self.active.remove(&request.0).expect("checked present");
        if let Some(sink) = self.telemetry.as_mut() {
            sink.on_completed(request, at.ms());
        }
        // Sub-slot lifetimes: a flow leaving mid-slot owes the fraction of
        // this slot it actually occupied. Zero for boundary departures, so
        // slot-compatibility runs never accrue anything here.
        let slot_start_ms = at.slot(self.slot_ms).saturating_mul(self.slot_ms);
        let occupied_ms = at.ms().saturating_sub(flow.activated_ms.max(slot_start_ms));
        if occupied_ms > 0 {
            let topology = self.network.topology();
            let chain = self.chains.get(flow.request.chain);
            let mut at_node = flow.request.source;
            let mut path_cost = 0.0;
            for &inst_id in &flow.instances {
                let node = self.pool.get(inst_id).expect("active instance").node;
                path_cost += self.scenario.prices.traffic_cost_usd(
                    topology.node(at_node),
                    topology.node(node),
                    chain.traffic_gb,
                );
                at_node = node;
            }
            self.partial_traffic += occupied_ms as f64 / self.slot_ms as f64 * path_cost;
        }
        for &inst_id in &flow.instances {
            self.pool
                .remove_flow(inst_id, flow.arrival_rate_rps)
                .expect("active flow's instance exists");
            self.note_possible_idle(inst_id);
        }
        self.cost_cache = None;
    }

    /// The event engine's core loop: pop events in `(time, kind_rank,
    /// sequence)` order until the horizon, lazily billing completed slots
    /// before each event and once more at the end. Same-timestamp groups
    /// of network events and of arrivals are drained together — the
    /// latter is what a [`DecisionSemantics::SlotSnapshot`] group plans
    /// jointly.
    fn run_event_loop(
        &mut self,
        end_slot: u64,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
        mut feed: Option<ArrivalFeed<'_>>,
    ) {
        let end_ms = end_slot.saturating_mul(self.slot_ms);
        loop {
            // Stream input is admitted lazily: pull every arrival due at
            // or before the next queued event, so a timestamp's arrival
            // group is complete before it drains below.
            self.feed_due_arrivals(&mut feed, end_ms);
            let Some((t, kind)) = self.queue.peek() else {
                break;
            };
            if t.ms() >= end_ms {
                break; // horizon reached; leftovers stay for chained runs
            }
            self.bill_slots_through(t.ms());
            self.current_rank = kind.rank();
            match kind {
                SimEventKind::FlowDeparture => {
                    let Some((_, SimEvent::FlowDeparture { request })) = self.queue.pop() else {
                        unreachable!("peeked departure vanished");
                    };
                    self.handle_departure(t, request);
                }
                SimEventKind::Network => {
                    let mut events: Vec<NetworkEvent> = Vec::new();
                    while let Some(ev) = self.queue.pop_if(t, SimEventKind::Network) {
                        match ev {
                            SimEvent::Network(e) => events.push(e),
                            other => unreachable!("network group held {other:?}"),
                        }
                    }
                    let disrupted = self.apply_network_events(&events);
                    self.counters.flows_disrupted += disrupted.len() as u32;
                    if let Some(sink) = self.telemetry.as_mut() {
                        for flow in &disrupted {
                            sink.on_disrupted(flow.request.id, t.ms());
                        }
                    }
                    let replaced = self.replace_disrupted(disrupted, policy, rng);
                    self.counters.flows_replaced += replaced;
                    self.cost_cache = None;
                }
                SimEventKind::RetireCheck => {
                    self.queue.pop();
                    self.retire_checks.remove(&t.slot(self.slot_ms));
                    if self.retire_idle_instances() > 0 {
                        self.cost_cache = None;
                    }
                }
                SimEventKind::FlowArrival => {
                    self.pending_arrivals.clear();
                    while let Some(ev) = self.queue.pop_if(t, SimEventKind::FlowArrival) {
                        match ev {
                            SimEvent::FlowArrival(request) => self.pending_arrivals.push(request),
                            other => unreachable!("arrival group held {other:?}"),
                        }
                    }
                    self.counters.arrivals += self.pending_arrivals.len() as u32;
                    if let Some(sink) = self.telemetry.as_mut() {
                        for request in &self.pending_arrivals {
                            sink.on_requested(t.ms(), request, false);
                        }
                    }
                    // Snapshot semantics plan the arrivals that share
                    // this timestamp as one group against the frozen world
                    // (the slot loop groups per slot; on a slot-boundary
                    // schedule those coincide).
                    if self.semantics == DecisionSemantics::SlotSnapshot {
                        let pending = std::mem::take(&mut self.pending_arrivals);
                        self.plan_group_snapshot(&pending, policy, rng);
                        self.pending_arrivals = pending;
                    }
                    for row in 0..self.pending_arrivals.len() {
                        self.queue.schedule_at(t, SimEvent::PolicyDecision { row });
                    }
                }
                SimEventKind::PolicyDecision => {
                    let Some((_, SimEvent::PolicyDecision { row })) = self.queue.pop() else {
                        unreachable!("peeked decision vanished");
                    };
                    let request = self.pending_arrivals[row].clone();
                    let outcome = if self.semantics == DecisionSemantics::SlotSnapshot {
                        self.apply_planned_request(row, &request, policy, rng)
                    } else {
                        self.place_request(&request, policy, rng)
                    };
                    match outcome {
                        PlacementOutcome::Accepted { sla_violated, .. } => {
                            self.counters.accepted += 1;
                            if sla_violated {
                                self.counters.sla_violations += 1;
                            }
                        }
                        PlacementOutcome::Rejected => self.counters.rejected += 1,
                    }
                    self.cost_cache = None;
                    if row + 1 == self.pending_arrivals.len() {
                        // Stale once the group's last episode ran.
                        self.scratch.plans.valid = false;
                    }
                }
            }
            self.current_rank = 0;
        }
        self.bill_slots_through(end_ms);
    }

    /// Lifecycle events popped by the event engine so far. The hotpath
    /// benchmark reads this to report events/sec.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    /// Duration of one slot on the millisecond timeline.
    pub fn slot_ms(&self) -> u64 {
        self.slot_ms
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }
}

/// A request with an explicit millisecond arrival time, for
/// [`Simulation::run_events`] / [`RunInput::Events`] /
/// [`RunInput::Stream`] — the sparse engine inputs where arrivals need
/// not land on slot boundaries.
#[derive(Debug, Clone)]
pub struct TimedArrival {
    /// When the request arrives.
    pub at: SimTime,
    /// The request itself (its `arrival_slot` is rewritten from `at`).
    pub request: Request,
}

impl From<TimedRequest> for TimedArrival {
    /// Adapts a workload-side [`TimedRequest`] (e.g. from
    /// `workload::metro::MetroProfile::stream`) into an engine arrival:
    /// `profile.stream(..).map(TimedArrival::from)` plugs a metro stream
    /// straight into [`RunInput::Stream`].
    fn from(t: TimedRequest) -> Self {
        TimedArrival {
            at: SimTime::from_ms(t.at_ms),
            request: t.request,
        }
    }
}

/// Pull-based arrival source backing [`RunInput::Stream`]: holds the
/// stream's head so the event loop can admit arrivals exactly when the
/// timeline reaches them. The queue stays bounded by concurrent flows
/// plus one timestamp's arrivals instead of the whole trace.
struct ArrivalFeed<'a> {
    stream: &'a mut dyn Iterator<Item = TimedArrival>,
    /// The stream's head, pulled but not yet admitted to the queue.
    next: Option<TimedArrival>,
    /// Monotonicity check: the last admitted arrival instant.
    last_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{FirstFitPolicy, RandomPolicy};
    use sfc::chain::ChainId;

    fn sim() -> Simulation {
        Simulation::new(&Scenario::small_test(), RewardConfig::default())
    }

    fn request(id: u64, chain: usize, source: usize, slot: u64, duration: u32) -> Request {
        Request::new(
            RequestId(id),
            ChainId(chain),
            NodeId(source),
            slot,
            duration,
        )
    }

    #[test]
    fn first_fit_places_simple_request() {
        let mut s = sim();
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(0);
        let req = request(0, 1, 0, 0, 5); // voip: 2 VNFs
        let outcome = s.place_request(&req, &mut policy, &mut rng);
        match outcome {
            PlacementOutcome::Accepted { latency_ms, .. } => {
                assert!(latency_ms.is_finite() && latency_ms > 0.0);
            }
            PlacementOutcome::Rejected => panic!("first-fit should accept on an empty network"),
        }
        assert_eq!(s.active_flow_count(), 1);
        assert_eq!(s.pool.len(), 2);
    }

    #[test]
    fn departure_releases_flows_and_idle_retirement_frees_capacity() {
        let mut s = sim();
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(1);
        let req = request(0, 1, 0, 0, 2);
        s.advance_slot(std::slice::from_ref(&req), &mut policy, &mut rng);
        assert_eq!(s.active_flow_count(), 1);
        let used_before = s.ledger().total_used_cpu();
        assert!(used_before > 0.0);
        // Advance past departure + idle grace.
        for _ in 0..10 {
            s.advance_slot(&[], &mut policy, &mut rng);
        }
        assert_eq!(s.active_flow_count(), 0);
        assert_eq!(s.pool.len(), 0, "idle instances retired");
        assert_eq!(s.ledger().total_used_cpu(), 0.0, "capacity returned");
    }

    #[test]
    fn rejection_rolls_back_everything() {
        let mut s = sim();
        // A policy that places the first VNF then rejects.
        struct PlaceThenReject {
            decisions: usize,
        }
        impl PlacementPolicy for PlaceThenReject {
            fn name(&self) -> String {
                "place-then-reject".into()
            }
            fn decide(&mut self, ctx: &DecisionContext, _rng: &mut StdRng) -> PlacementAction {
                self.decisions += 1;
                if self.decisions == 1 {
                    let first = ctx.feasible_candidates().next().expect("feasible");
                    PlacementAction::Place(first.node)
                } else {
                    PlacementAction::Reject
                }
            }
        }
        let mut policy = PlaceThenReject { decisions: 0 };
        let mut rng = StdRng::seed_from_u64(2);
        let req = request(0, 1, 0, 0, 5);
        let outcome = s.place_request(&req, &mut policy, &mut rng);
        assert_eq!(outcome, PlacementOutcome::Rejected);
        assert_eq!(s.pool.len(), 0, "spawned instance rolled back");
        assert_eq!(s.ledger().total_used_cpu(), 0.0, "capacity rolled back");
        assert_eq!(s.active_flow_count(), 0);
    }

    #[test]
    fn instances_are_reused_under_load() {
        let mut s = sim();
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(3);
        // Two identical requests from the same source: the second should
        // reuse both instances (ample headroom).
        let r1 = request(0, 1, 0, 0, 10);
        let r2 = request(1, 1, 0, 0, 10);
        s.place_request(&r1, &mut policy, &mut rng);
        let instances_after_first = s.pool.len();
        s.place_request(&r2, &mut policy, &mut rng);
        assert_eq!(
            s.pool.len(),
            instances_after_first,
            "no new instances needed"
        );
        // Both flows share instances.
        let max_flows = s.pool.iter().map(|i| i.flows).max().unwrap();
        assert_eq!(max_flows, 2);
    }

    #[test]
    fn full_run_produces_consistent_summary() {
        let mut s = sim();
        let mut policy = RandomPolicy;
        let summary = s.run(&mut policy, 0);
        assert_eq!(summary.slots, s.scenario().horizon_slots);
        assert_eq!(
            summary.total_arrivals,
            summary.total_accepted + summary.total_rejected
        );
        assert!(summary.acceptance_ratio >= 0.0 && summary.acceptance_ratio <= 1.0);
        assert!(summary.total_cost_usd >= 0.0);
    }

    #[test]
    fn determinism_same_seed_same_summary() {
        let scenario = Scenario::small_test();
        let run = |seed_offset: u64| {
            let mut s = Simulation::new(&scenario, RewardConfig::default());
            let mut policy = RandomPolicy;
            let mut summary = s.run(&mut policy, seed_offset);
            // Wall-clock decision timing is legitimately non-deterministic.
            summary.mean_decision_time_us = 0.0;
            summary
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    fn scenario_with_timeline(events: Vec<crate::config::TimedEvent>) -> Scenario {
        let mut s = Scenario::small_test();
        s.events = crate::config::EventSchedule::Timeline(events);
        s
    }

    fn down_at(slot: u64, node: usize) -> crate::config::TimedEvent {
        crate::config::TimedEvent {
            slot,
            event: NetworkEvent::NodeDown { node: NodeId(node) },
        }
    }

    #[test]
    fn node_failure_evicts_instances_and_replaces_flows() {
        // First-fit lands every instance on node 0 (lowest id) even for a
        // request arriving at node 1; killing node 0 must evict them,
        // disrupt the flow, and re-place it on a surviving node through
        // the same policy path (the ingress at node 1 stays alive).
        let scenario = scenario_with_timeline(vec![down_at(1, 0)]);
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(5);
        let req = request(0, 1, 1, 0, 30);
        let r0 = s.advance_slot(std::slice::from_ref(&req), &mut policy, &mut rng);
        assert_eq!(r0.accepted, 1);
        assert_eq!(r0.nodes_down, 0);
        assert!(s.pool.iter().all(|i| i.node == NodeId(0)));

        let r1 = s.advance_slot(&[], &mut policy, &mut rng);
        assert_eq!(r1.flows_disrupted, 1);
        assert_eq!(r1.flows_replaced, 1, "3 healthy sites + cloud remain");
        assert_eq!(r1.nodes_down, 1);
        assert_eq!(s.active_flow_count(), 1);
        assert!(
            s.pool.iter().all(|i| i.node != NodeId(0)),
            "no instance may survive on the dead node"
        );
        assert!(!s.network.node_alive(NodeId(0)));
        // The re-placed flow still departs on schedule and the world
        // drains clean afterwards.
        for _ in 0..40 {
            s.advance_slot(&[], &mut policy, &mut rng);
        }
        assert_eq!(s.active_flow_count(), 0);
        assert_eq!(s.pool.len(), 0);
        assert!(s.ledger().total_used_cpu().abs() < 1e-9);
    }

    #[test]
    fn dead_source_forces_rejection_until_recovery() {
        // With the request's source down, every candidate is infeasible:
        // arrivals there must be rejected; after recovery they place again.
        let scenario = scenario_with_timeline(vec![
            down_at(0, 0),
            crate::config::TimedEvent {
                slot: 2,
                event: NetworkEvent::NodeUp { node: NodeId(0) },
            },
        ]);
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(6);
        let r0 = s.advance_slot(&[request(0, 1, 0, 0, 5)], &mut policy, &mut rng);
        assert_eq!(r0.rejected, 1, "dead ingress cannot be served");
        let r1 = s.advance_slot(&[request(1, 1, 0, 1, 5)], &mut policy, &mut rng);
        assert_eq!(r1.rejected, 1, "still down");
        let r2 = s.advance_slot(&[request(2, 1, 0, 2, 5)], &mut policy, &mut rng);
        assert_eq!(r2.accepted, 1, "recovered ingress serves again");
        assert_eq!(r2.nodes_down, 0);
    }

    #[test]
    fn replacement_failure_counts_disruption_without_replacement() {
        // Kill every node except the flow's dead host... impossible to
        // re-place: capacity shrinks to nothing. Use a cloudless 3-site
        // ring-free metro and take down two of three sites; the remaining
        // site cannot be reached from the dead source anyway.
        let mut scenario =
            scenario_with_timeline(vec![down_at(1, 0), down_at(1, 1), down_at(1, 2)]);
        scenario.topology = crate::config::TopologySpec::Metro { sites: 3 };
        scenario.topology_builder.with_cloud = false;
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(7);
        let r0 = s.advance_slot(&[request(0, 1, 0, 0, 20)], &mut policy, &mut rng);
        assert_eq!(r0.accepted, 1);
        let r1 = s.advance_slot(&[], &mut policy, &mut rng);
        assert_eq!(r1.flows_disrupted, 1);
        assert_eq!(r1.flows_replaced, 0, "nowhere left to go");
        assert_eq!(r1.nodes_down, 3);
        assert_eq!(s.active_flow_count(), 0);
        let summary = s.metrics().summarize();
        assert_eq!(summary.flows_disrupted, 1);
        assert_eq!(summary.replacement_success_rate, 0.0);
    }

    #[test]
    fn partition_strands_flows_even_when_their_instances_survive() {
        // Ring of 6, no cloud: first-fit serves a request from node 2 on
        // node 0. Killing nodes 1 and 3 isolates node 2 — the instances
        // on node 0 survive but the flow's path is severed, so it must be
        // disrupted and re-placed (locally, on node 2 itself).
        let mut scenario = scenario_with_timeline(vec![down_at(1, 1), down_at(1, 3)]);
        scenario.topology = crate::config::TopologySpec::Ring { sites: 6 };
        scenario.topology_builder.with_cloud = false;
        let mut s = Simulation::new(&scenario, RewardConfig::default());
        let mut policy = FirstFitPolicy;
        let mut rng = StdRng::seed_from_u64(9);
        let r0 = s.advance_slot(&[request(0, 1, 2, 0, 20)], &mut policy, &mut rng);
        assert_eq!(r0.accepted, 1);
        assert!(s.pool.iter().all(|i| i.node == NodeId(0)));

        let r1 = s.advance_slot(&[], &mut policy, &mut rng);
        assert_eq!(r1.flows_disrupted, 1, "severed route strands the flow");
        assert_eq!(r1.flows_replaced, 1, "re-placed on the isolated ingress");
        assert_eq!(s.active_flow_count(), 1);
        let hosts: Vec<NodeId> = s
            .active
            .values()
            .flat_map(|f| f.instances.iter().map(|&i| s.pool.get(i).unwrap().node))
            .collect();
        assert!(
            hosts.iter().all(|&n| n == NodeId(2)),
            "only node 2 is reachable from the isolated ingress, got {hosts:?}"
        );
    }

    #[test]
    fn failed_nodes_draw_no_energy() {
        // Same scenario twice; in one, a node dies with no load anywhere.
        let healthy = {
            let mut s = sim();
            let mut policy = FirstFitPolicy;
            let mut rng = StdRng::seed_from_u64(10);
            s.advance_slot(&[], &mut policy, &mut rng);
            s.advance_slot(&[], &mut policy, &mut rng).energy_cost
        };
        let degraded = {
            let scenario = scenario_with_timeline(vec![down_at(1, 0)]);
            let mut s = Simulation::new(&scenario, RewardConfig::default());
            let mut policy = FirstFitPolicy;
            let mut rng = StdRng::seed_from_u64(10);
            s.advance_slot(&[], &mut policy, &mut rng);
            s.advance_slot(&[], &mut policy, &mut rng).energy_cost
        };
        assert!(
            degraded < healthy,
            "a powered-off node must stop billing idle energy ({degraded} vs {healthy})"
        );
    }

    #[test]
    fn event_runs_are_deterministic_and_count_downtime() {
        let scenario = Scenario::small_test().with_failures(0.02, 8.0);
        let run = || {
            let mut s = Simulation::new(&scenario, RewardConfig::default());
            let mut policy = FirstFitPolicy;
            let mut summary = s.run(&mut policy, 11);
            summary.mean_decision_time_us = 0.0;
            summary
        };
        let a = run();
        assert_eq!(a, run(), "event runs must be bit-identical");
        assert!(a.downtime_slots > 0, "2% over 60 slots should fail a node");
    }

    #[test]
    fn mask_forbids_saturated_nodes() {
        let mut scenario = Scenario::small_test();
        // Tiny nodes: a single firewall instance (2 cpu) fills a node.
        scenario.topology_builder.edge_capacity = edgenet::node::Resources::new(2.0, 4.0);
        scenario.topology_builder.with_cloud = false;
        let s = Simulation::new(&scenario, RewardConfig::default());
        let chain = s.chains.get(ChainId(3)).clone(); // 5-VNF chain, includes 4-cpu VNFs
        let ctx = s.decision_context(&request(0, 3, 0, 0, 1), &chain, 4, NodeId(0), 0.0);
        // Position 4 is the IDS (4 cpu) — doesn't fit on any 2-cpu node.
        assert!(!ctx.any_feasible());
        assert!(*ctx.mask.last().unwrap(), "reject stays available");
    }
}
