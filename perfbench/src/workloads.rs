//! The three workloads: their inputs, set-up, one timed repeat, and the
//! output checks each repeat runs.
//!
//! Every workload is closed-loop — the engine pulls its next arrival only
//! after it has handled the earlier ones — and every input is a pure
//! function of the workload seed.

use crate::alloc;
use crate::probe::{request_times_us, PolicyCounts, Probe, PullClock, ServedClient};
use crate::trace::{self, Layer, LayerTimes, Span};
use edgenet::node::{NodeId, Resources};
use mano::prelude::*;
use nn::prelude::{Loss, OptimizerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::dqn::DqnConfig;
use rl::qnet::QNetworkConfig;
use rl::schedule::EpsilonSchedule;
use serve::prelude::{PolicyServer, ServeConfig, ServeStats, ServedPolicy};
use sfc::request::Request;
use std::time::Instant;
use workload::metro::{MetroProfile, MetroStream, TimedRequest};
use workload::trace::{generate_trace, Trace};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Metro stream with a frozen DQN: the forward pass is half the work.
    MetroDqn,
    /// DQN training passes plus a greedy evaluation pass.
    TrainDqn,
    /// Concurrent simulations sharing one policy server.
    ServeFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::MetroDqn, Workload::TrainDqn, Workload::ServeFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroDqn => "metro-dqn",
            Workload::TrainDqn => "train-dqn",
            Workload::ServeFleet => "serve-fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload runs: its simulation threads, plus the
    /// policy server on `serve-fleet`.
    pub fn threads(self) -> usize {
        match self {
            Workload::ServeFleet => SERVE_THREADS + 1,
            _ => 1,
        }
    }
}

/// Input sizes. [`Sizes::BENCH`] is what the benchmark measures; the
/// tests run the same code on [`Sizes::SMALL`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Metro stream horizon (slots of 5 s).
    pub metro_slots: u64,
    /// Metro training-stream horizon for the frozen DQN.
    pub metro_train_slots: u64,
    /// `train-dqn`: slots per training pass.
    pub train_slots: u64,
    /// `train-dqn`: slots of the held-out evaluation pass.
    pub eval_slots: u64,
    /// `train-dqn`: training passes before the evaluation pass.
    pub train_passes: u64,
    /// `serve-fleet`: slots per evaluation cell.
    pub serve_slots: u64,
    /// `serve-fleet`: slots of the trace the frozen DQN trains on.
    pub serve_train_slots: u64,
    /// `serve-fleet`: evaluation cells (one seed each).
    pub serve_cells: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const BENCH: Sizes = Sizes {
        metro_slots: 4032,
        metro_train_slots: 144,
        train_slots: 48,
        eval_slots: 720,
        train_passes: 2,
        serve_slots: 96,
        serve_train_slots: 24,
        serve_cells: 8,
    };

    /// Test sizes: the same code paths in well under a second each.
    pub const SMALL: Sizes = Sizes {
        metro_slots: 288,
        metro_train_slots: 48,
        train_slots: 48,
        eval_slots: 24,
        train_passes: 1,
        serve_slots: 24,
        serve_train_slots: 24,
        serve_cells: 2,
    };
}

/// Node-failure probability per edge node per slot on `metro-dqn`.
const FAILURE_RATE: f64 = 0.002;
/// Mean node downtime (slots).
const MEAN_DOWNTIME_SLOTS: f64 = 12.0;
/// Arrivals per slot of `train-dqn`'s traces.
const TRAIN_RATE: f64 = 5.0;
/// Arrivals per slot of `serve-fleet`'s traces.
const SERVE_RATE: f64 = 24.0;
/// Concurrent simulations of `serve-fleet`.
pub const SERVE_THREADS: usize = 2;
/// Seed offset of `train-dqn`'s held-out evaluation pass.
const EVAL_OFFSET: u64 = 0xE7A1;

/// The Table-2 Double DQN (two hidden layers of 128, Adam 5e-4, Huber
/// loss, gradient clip 10, replay 50k, batch 32, learn start 500, target
/// sync 250), with ε decaying linearly over `epsilon_steps` — the short
/// training budgets here would otherwise end still fully exploring.
pub fn table2_dqn(epsilon_steps: u64) -> DrlManagerConfig {
    DrlManagerConfig {
        dqn: DqnConfig {
            network: QNetworkConfig::Standard {
                hidden: vec![128, 128],
            },
            gamma: 0.95,
            optimizer: OptimizerConfig::adam(5e-4),
            loss: Loss::Huber(1.0),
            max_grad_norm: Some(10.0),
            replay_capacity: 50_000,
            batch_size: 32,
            learn_start: 500,
            train_every: 1,
            target_sync_every: 250,
            soft_tau: None,
            double: true,
            prioritized: None,
            epsilon: EpsilonSchedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: epsilon_steps,
            },
        },
        label: "drl".into(),
    }
}

/// The metro scenario: `Scenario::default_metro` (8 sites + cloud) with
/// a seeded stochastic failure process over the whole horizon.
pub fn metro_scenario(seed: u64, slots: u64) -> Scenario {
    let mut s = Scenario::default_metro()
        .with_seed(seed)
        .with_failures(FAILURE_RATE, MEAN_DOWNTIME_SLOTS);
    s.horizon_slots = slots;
    s
}

/// The slot-resolution scenario: 8 metro sites + cloud at 32 vCPU /
/// 128 GB per site and a constant Poisson `rate` per slot.
pub fn slot_scenario(seed: u64, rate: f64, slots: u64) -> Scenario {
    let mut s = Scenario::default_metro()
        .with_arrival_rate(rate)
        .with_seed(seed);
    s.topology_builder.edge_capacity = Resources::new(32.0, 128.0);
    s.horizon_slots = slots;
    s
}

/// `MetroProfile::default_city` for the workload seed `seed` (rush hours,
/// two Zipf hotspots, one-minute mean flows, ms-resolution arrivals).
pub fn metro_profile(seed: u64) -> MetroProfile {
    MetroProfile::default_city(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6D65_7472)
}

/// `sites` reordered so that `profile`'s hotspots land on the nodes the
/// [`TRAIN_SEED`] profile makes hotspots, rank for rank. The profile
/// picks hotspots as positions in the site list, so this pins the city's
/// hotspot nodes while the workload seed still draws every arrival's
/// time, source, chain and holding time. The other sites share one
/// weight, so their order does not change the traffic mix.
pub fn pinned_sites(profile: &MetroProfile, sites: &[NodeId]) -> Vec<NodeId> {
    let hot: Vec<NodeId> = metro_profile(TRAIN_SEED)
        .hotspot_indices(sites.len())
        .into_iter()
        .map(|i| sites[i])
        .collect();
    let mut out: Vec<Option<NodeId>> = vec![None; sites.len()];
    for (rank, i) in profile.hotspot_indices(sites.len()).into_iter().enumerate() {
        out[i] = Some(hot[rank]);
    }
    let mut rest = sites.iter().copied().filter(|n| !hot.contains(n));
    out.into_iter()
        .map(|site| site.or_else(|| rest.next()).expect("one site per position"))
        .collect()
}

/// A metro stream in engine form.
pub type MetroArrivals = std::iter::Map<MetroStream, fn(TimedRequest) -> TimedArrival>;

/// Opens `profile`'s stream over `sites` in engine form.
pub fn metro_arrivals(
    profile: &MetroProfile,
    sites: &[NodeId],
    slots: u64,
    slot_ms: u64,
) -> MetroArrivals {
    profile
        .stream(sites, slots, slot_ms)
        .map(TimedArrival::from as fn(TimedRequest) -> TimedArrival)
}

/// A slot-resolution trace streamed to the engine: every arrival lands
/// on its slot's start.
#[derive(Debug, Clone)]
pub struct TraceArrivals<'a> {
    requests: std::slice::Iter<'a, Request>,
    slot_ms: u64,
}

impl<'a> TraceArrivals<'a> {
    /// Streams `trace` on a timeline of `slot_ms`-ms slots.
    pub fn new(trace: &'a Trace, slot_ms: u64) -> Self {
        Self {
            requests: trace.requests.iter(),
            slot_ms,
        }
    }
}

impl Iterator for TraceArrivals<'_> {
    type Item = TimedArrival;

    fn next(&mut self) -> Option<TimedArrival> {
        self.requests.next().map(|r| TimedArrival {
            at: SimTime::from_slot(r.arrival_slot, self.slot_ms),
            request: r.clone(),
        })
    }
}

/// A seeded slot-resolution trace of `scenario`'s workload.
pub fn seeded_trace(scenario: &Scenario, slots: u64, seed: u64) -> Trace {
    let sites = Simulation::new(scenario, RewardConfig::default())
        .topology()
        .edge_nodes();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x7472);
    generate_trace(&scenario.workload, &sites, slots, &mut rng)
}

/// The run options of a metro drive: sparse billing, streaming metrics
/// and a telemetry sink.
pub fn metro_options(slots: u64, sink: &mut TelemetrySink) -> RunOptions<'_> {
    RunOptions::new()
        .sparse()
        .with_streaming_metrics()
        .with_horizon(slots)
        .with_telemetry(sink)
}

/// Deterministic simulated-time quality of a repeat: the numbers a
/// speed-up must leave unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Accepted / arrived.
    pub acceptance_ratio: f64,
    /// 95th-percentile simulated admission latency (ms).
    pub p95_latency_ms: f64,
    /// Mean operational cost per simulated slot (USD).
    pub cost_per_slot_usd: f64,
}

impl Quality {
    /// One run's quality.
    pub fn of(s: &RunSummary) -> Quality {
        Quality {
            arrivals: s.total_arrivals,
            accepted: s.total_accepted,
            rejected: s.total_rejected,
            acceptance_ratio: s.acceptance_ratio,
            p95_latency_ms: s.p95_admission_latency_ms,
            cost_per_slot_usd: s.mean_slot_cost_usd,
        }
    }

    /// Pools cells: summed counts, pooled acceptance, mean p95 and cost.
    pub fn pooled(summaries: &[RunSummary]) -> Quality {
        let n = summaries.len().max(1) as f64;
        let arrivals: u64 = summaries.iter().map(|s| s.total_arrivals).sum();
        let accepted: u64 = summaries.iter().map(|s| s.total_accepted).sum();
        Quality {
            arrivals,
            accepted,
            rejected: summaries.iter().map(|s| s.total_rejected).sum(),
            acceptance_ratio: accepted as f64 / arrivals.max(1) as f64,
            p95_latency_ms: summaries
                .iter()
                .map(|s| s.p95_admission_latency_ms)
                .sum::<f64>()
                / n,
            cost_per_slot_usd: summaries.iter().map(|s| s.mean_slot_cost_usd).sum::<f64>() / n,
        }
    }

    /// Bit-exact equality (no float tolerance).
    pub fn same_bits(&self, other: &Quality) -> bool {
        self.fingerprint() == other.fingerprint()
    }

    /// The quality as one line of exact bits, for cross-run comparison.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}/{}/{}/{:016x}/{:016x}/{:016x}",
            self.arrivals,
            self.accepted,
            self.rejected,
            self.acceptance_ratio.to_bits(),
            self.p95_latency_ms.to_bits(),
            self.cost_per_slot_usd.to_bits()
        )
    }
}

/// Every deterministic field of a [`RunSummary`] as exact bits (the
/// wall-clock decision time is left out).
pub fn summary_bits(s: &RunSummary) -> Vec<u64> {
    vec![
        s.slots,
        s.total_arrivals,
        s.total_accepted,
        s.total_rejected,
        s.acceptance_ratio.to_bits(),
        s.sla_violation_ratio.to_bits(),
        s.mean_admission_latency_ms.to_bits(),
        s.p50_admission_latency_ms.to_bits(),
        s.p95_admission_latency_ms.to_bits(),
        s.total_cost_usd.to_bits(),
        s.mean_slot_cost_usd.to_bits(),
        s.mean_utilization.to_bits(),
        s.mean_active_flows.to_bits(),
        s.mean_live_instances.to_bits(),
        s.flows_disrupted,
        s.replacement_success_rate.to_bits(),
        s.downtime_slots,
    ]
}

/// Counters read at the layer boundaries during one repeat.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Policy calls seen by the [`Probe`]s.
    pub policy: PolicyCounts,
    /// `Simulation::events_processed` summed over the repeat's drives.
    pub events: u64,
    /// `Simulation::batched_decisions` summed over the repeat's drives.
    pub batched_decisions: u64,
    /// DQN learn steps taken (`train-dqn`).
    pub learn_steps: u64,
    /// The policy server's counters (`serve-fleet`).
    pub serve: ServeStats,
    /// Flow records the telemetry sink closed (`metro-dqn`).
    pub flows_closed: u64,
    /// Closed records the sink's ring evicted (`metro-dqn`).
    pub dropped_flow_records: u64,
}

/// One timed repeat of a workload.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Arrivals the engine pulled from the workload streams.
    pub arrivals: u64,
    /// Host time per request (µs), from the pull stamps.
    pub request_us: Vec<f64>,
    /// Peak live heap above the pre-repeat level (bytes).
    pub peak_heap_bytes: u64,
    /// The repeat's simulated-time quality.
    pub quality: Quality,
    /// Layer counters.
    pub counts: LayerCounts,
    /// Per-layer span times (zero unless traced).
    pub times: LayerTimes,
    /// Spans per thread (empty unless traced).
    pub spans: Vec<Vec<Span>>,
    /// Served wave round trips (µs), from the spans (empty unless traced).
    pub wave_us: Vec<f64>,
    /// Every drive's summary, in drive order (cell order on
    /// `serve-fleet`).
    pub summaries: Vec<RunSummary>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Repeat {
    /// Arrivals processed per host second.
    pub fn requests_per_s(&self) -> f64 {
        self.arrivals as f64 / self.wall_s.max(1e-12)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn check_summary(&mut self, label: &str, s: &RunSummary) {
        self.check(
            s.total_arrivals == s.total_accepted + s.total_rejected,
            || {
                format!(
                    "{label}: arrivals {} != accepted {} + rejected {}",
                    s.total_arrivals, s.total_accepted, s.total_rejected
                )
            },
        );
    }

    fn check_telemetry(&mut self, s: &RunSummary, sink: &TelemetrySink) {
        let totals = sink.totals();
        self.check(totals.requested == s.total_arrivals, || {
            format!(
                "telemetry saw {} requests, the engine {} arrivals",
                totals.requested, s.total_arrivals
            )
        });
        self.check(totals.rejected == s.total_rejected, || {
            format!(
                "telemetry closed {} rejections, the engine counted {}",
                totals.rejected, s.total_rejected
            )
        });
        self.check(sink.recent_flows().all(FlowRecord::funnel_ordered), || {
            "a retained flow record breaks the requested <= placed <= active <= torn-down order"
                .to_string()
        });
        self.counts.flows_closed = totals.closed();
        self.counts.dropped_flow_records = sink.dropped_flow_records();
    }
}

/// A workload's one-time inputs: scenarios, traces and (for the frozen
/// DQN workloads) the trained policy.
///
/// The workload seed drives every input that is measured or evaluated:
/// the metro stream, the evaluation traces and the scenario (topology,
/// failures, decision rng). What the DQNs learn from is a benchmark
/// constant instead ([`TRAIN_SEED`]), so every seed evaluates the same
/// trained network and a quality change across seeds comes from the
/// inputs, not from training luck.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Input sizes.
    pub sizes: Sizes,
    /// The scenario every evaluated simulation is built from.
    pub scenario: Scenario,
    /// The scenario DQN training runs on.
    pub train_scenario: Scenario,
    /// The metro arrival profile (`metro-dqn`).
    pub profile: MetroProfile,
    /// Pre-generated slot-resolution traces: `train-dqn`'s training
    /// passes then its evaluation pass, or `serve-fleet`'s cells.
    pub traces: Vec<Trace>,
    /// The frozen DQN (`metro-dqn`, `serve-fleet`).
    pub frozen: Option<DrlPolicy>,
    state_dim: usize,
    action_count: usize,
    /// Edge sites in metro-stream order ([`pinned_sites`]).
    stream_sites: Vec<NodeId>,
    slot_ms: u64,
}

/// Seed of everything the DQNs train on (streams, traces, scenario,
/// initial weights).
pub const TRAIN_SEED: u64 = 2026;

/// Everything one repeat consumes, built before its timer starts.
pub struct Built {
    sims: Vec<Simulation>,
    policy: Option<DrlPolicy>,
    sink: TelemetrySink,
}

impl Bench {
    /// Builds the workload's inputs for `seed`, training the frozen DQN
    /// where the workload has one (`Sequential` semantics).
    pub fn setup(workload: Workload, seed: u64, sizes: Sizes) -> Bench {
        let scenario_for = |seed| match workload {
            Workload::MetroDqn => metro_scenario(seed, sizes.metro_slots),
            Workload::TrainDqn => slot_scenario(seed, TRAIN_RATE, sizes.train_slots),
            Workload::ServeFleet => slot_scenario(seed, SERVE_RATE, sizes.serve_slots),
        };
        let scenario = scenario_for(seed);
        let probe = Simulation::new(&scenario, RewardConfig::default());
        let mut bench = Bench {
            workload,
            sizes,
            train_scenario: scenario_for(TRAIN_SEED),
            profile: metro_profile(seed),
            traces: Vec::new(),
            frozen: None,
            state_dim: probe.encoder.dim(),
            action_count: probe.action_space.len(),
            stream_sites: pinned_sites(&metro_profile(seed), &probe.topology().edge_nodes()),
            slot_ms: probe.slot_ms(),
            scenario,
        };
        drop(probe);
        match workload {
            Workload::MetroDqn => {
                let slots = sizes.metro_train_slots;
                let sites = Simulation::new(&bench.train_scenario, RewardConfig::default())
                    .topology()
                    .edge_nodes();
                let mut stream =
                    metro_arrivals(&metro_profile(TRAIN_SEED), &sites, slots, bench.slot_ms);
                let mut sink = TelemetrySink::new();
                bench.frozen =
                    Some(bench.train_frozen(&mut stream, metro_options(slots, &mut sink), 1_500));
            }
            Workload::TrainDqn => {
                let mut traces: Vec<Trace> = (0..sizes.train_passes)
                    .map(|pass| {
                        seeded_trace(&bench.train_scenario, sizes.train_slots, TRAIN_SEED + pass)
                    })
                    .collect();
                // `!seed` keeps the held-out trace clear of TRAIN_SEED's.
                traces.push(seeded_trace(&bench.scenario, sizes.eval_slots, !seed));
                bench.traces = traces;
            }
            Workload::ServeFleet => {
                let train =
                    seeded_trace(&bench.train_scenario, sizes.serve_train_slots, TRAIN_SEED);
                let mut stream = TraceArrivals::new(&train, bench.slot_ms);
                let opts = RunOptions::new().with_horizon(sizes.serve_train_slots);
                bench.frozen = Some(bench.train_frozen(&mut stream, opts, 1_500));
                bench.traces = (0..sizes.serve_cells as u64)
                    .map(|cell| {
                        seeded_trace(&bench.scenario, sizes.serve_slots, !seed ^ (cell << 40))
                    })
                    .collect();
            }
        }
        bench
    }

    /// Trains a fresh Table-2 DQN on one pass of `stream`, then freezes it.
    fn train_frozen(
        &self,
        stream: &mut dyn Iterator<Item = TimedArrival>,
        opts: RunOptions<'_>,
        epsilon_steps: u64,
    ) -> DrlPolicy {
        let mut policy = self.fresh_dqn(epsilon_steps);
        policy.set_training(true);
        let mut sim = Simulation::new(&self.train_scenario, RewardConfig::default());
        sim.drive(RunInput::Stream(stream), &mut policy, opts);
        policy.set_training(false);
        policy
    }

    /// A freshly initialised Table-2 DQN (the same weights every time).
    pub fn fresh_dqn(&self, epsilon_steps: u64) -> DrlPolicy {
        let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
        DrlPolicy::new(
            table2_dqn(epsilon_steps),
            self.state_dim,
            self.action_count,
            &mut rng,
        )
    }

    /// Q-values of the frozen DQN on a fixed probe state, as bits: equal
    /// for two set-ups exactly when training was deterministic.
    pub fn frozen_fingerprint(&self) -> Vec<u32> {
        let Some(policy) = &self.frozen else {
            return Vec::new();
        };
        let state: Vec<f32> = (0..self.state_dim)
            .map(|i| ((i * 7919) % 13) as f32 / 13.0)
            .collect();
        policy
            .agent()
            .q_values(&state)
            .iter()
            .map(|q| q.to_bits())
            .collect()
    }

    /// Builds the simulations and policies one repeat consumes.
    pub fn build(&self) -> Built {
        let sims = match self.workload {
            Workload::MetroDqn => 1,
            Workload::TrainDqn => self.traces.len(),
            Workload::ServeFleet => self.traces.len(),
        };
        let policy = match self.workload {
            Workload::TrainDqn => Some(self.fresh_dqn(self.train_epsilon_steps())),
            _ => self.frozen.clone(),
        };
        // `train-dqn` trains on the training scenario and evaluates (its
        // last simulation) on the seeded one.
        let trains = match self.workload {
            Workload::TrainDqn => sims - 1,
            _ => 0,
        };
        Built {
            sims: (0..sims)
                .map(|i| {
                    let scenario = if i < trains {
                        &self.train_scenario
                    } else {
                        &self.scenario
                    };
                    Simulation::new(scenario, RewardConfig::default())
                })
                .collect(),
            policy,
            sink: TelemetrySink::new(),
        }
    }

    /// `train-dqn`'s ε decay: about one training pass of decisions.
    pub fn train_epsilon_steps(&self) -> u64 {
        (TRAIN_RATE * 3.0 * self.sizes.train_slots as f64) as u64
    }

    /// Pull-stamp capacity for one metro stream (grown if exceeded).
    fn metro_capacity(&self) -> usize {
        (self.profile.expected_requests(self.sizes.metro_slots) * 1.5) as usize + 1024
    }

    /// Runs one timed repeat on `built`, traced or not.
    pub fn repeat(&self, built: Built, traced: bool) -> Repeat {
        match self.workload {
            Workload::MetroDqn => {
                let mut built = built;
                let policy = built.policy.take().expect("frozen DQN trained in set-up");
                self.repeat_metro(built, Probe::new(policy), traced)
            }
            Workload::TrainDqn => self.repeat_train(built, traced),
            Workload::ServeFleet => self.repeat_serve(built, traced),
        }
    }

    fn repeat_metro<P: PlacementPolicy>(
        &self,
        mut built: Built,
        mut policy: Probe<P>,
        traced: bool,
    ) -> Repeat {
        let slots = self.sizes.metro_slots;
        let capacity = self.metro_capacity();
        let mut stream = PullClock::new(
            metro_arrivals(&self.profile, &self.stream_sites, slots, self.slot_ms),
            capacity,
        );
        let mut sim = built.sims.pop().expect("one simulation");
        if traced {
            trace::start(capacity * 8);
        }
        let base = alloc::reset_peak();
        let t0 = Instant::now();
        let summary = trace::traced(Layer::Drive, || {
            sim.drive(
                RunInput::Stream(&mut stream),
                &mut policy,
                metro_options(slots, &mut built.sink),
            )
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = Repeat {
            wall_s,
            peak_heap_bytes: alloc::peak_above(base) as u64,
            ..Repeat::default()
        };
        out.collect_spans(vec![trace::finish()]);
        out.arrivals = stream.arrivals;
        request_times_us(&stream.pulls, &mut out.request_us);
        out.counts.policy = policy.counts;
        out.counts.events = sim.events_processed();
        out.counts.batched_decisions = sim.batched_decisions();
        out.check_summary("metro drive", &summary);
        out.check(stream.arrivals == summary.total_arrivals, || {
            format!(
                "the stream yielded {} arrivals, the engine counted {}",
                stream.arrivals, summary.total_arrivals
            )
        });
        out.check_telemetry(&summary, &built.sink);
        out.quality = Quality::of(&summary);
        out.summaries.push(summary);
        out
    }

    fn repeat_train(&self, mut built: Built, traced: bool) -> Repeat {
        let mut policy = Probe::new(built.policy.take().expect("fresh DQN built"));
        let mut streams: Vec<_> = self
            .traces
            .iter()
            .map(|t| PullClock::new(TraceArrivals::new(t, self.slot_ms), t.len() + 1))
            .collect();
        let eval = self.traces.len() - 1;
        if traced {
            trace::start(self.traces.iter().map(Trace::len).sum::<usize>() * 12);
        }
        let base = alloc::reset_peak();
        let t0 = Instant::now();
        policy.set_training(true);
        let mut summaries = Vec::with_capacity(self.traces.len());
        for (pass, (sim, stream)) in built.sims.iter_mut().zip(&mut streams).enumerate() {
            if pass == eval {
                policy.set_training(false);
            }
            let opts = self.train_options(pass);
            summaries.push(trace::traced(Layer::Drive, || {
                sim.drive(RunInput::Stream(stream), &mut policy, opts)
            }));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = Repeat {
            wall_s,
            peak_heap_bytes: alloc::peak_above(base) as u64,
            ..Repeat::default()
        };
        out.collect_spans(vec![trace::finish()]);
        for (pass, (stream, summary)) in streams.iter().zip(&summaries).enumerate() {
            out.arrivals += stream.arrivals;
            request_times_us(&stream.pulls, &mut out.request_us);
            out.check_summary(&format!("pass {pass}"), summary);
        }
        for sim in &built.sims {
            out.counts.events += sim.events_processed();
            out.counts.batched_decisions += sim.batched_decisions();
        }
        out.counts.policy = policy.counts;
        out.counts.learn_steps = policy.inner.agent().learn_steps();
        out.check(out.counts.learn_steps > 0, || {
            "training took no learn step".into()
        });
        out.quality = Quality::of(&summaries[eval]);
        out.summaries = summaries;
        out
    }

    /// The options of `train-dqn`'s pass `pass` (the last is the
    /// evaluation pass, on a held-out seed offset).
    pub fn train_options(&self, pass: usize) -> RunOptions<'static> {
        let offset = if pass + 1 == self.traces.len() {
            EVAL_OFFSET
        } else {
            pass as u64
        };
        RunOptions::new()
            .with_seed_offset(offset)
            .with_horizon(self.traces[pass].horizon_slots)
    }

    /// Edge sites in metro-stream order ([`pinned_sites`]).
    pub fn stream_sites(&self) -> &[NodeId] {
        &self.stream_sites
    }

    /// Slot length of the workload's timeline (ms).
    pub fn slot_ms(&self) -> u64 {
        self.slot_ms
    }

    /// The options of `serve-fleet`'s cell `cell`.
    pub fn serve_options(&self, cell: usize) -> RunOptions<'static> {
        RunOptions::new()
            .snapshot()
            .with_seed_offset(cell as u64)
            .with_horizon(self.sizes.serve_slots)
    }

    /// `serve-fleet`'s cells evaluated in-process by the frozen DQN under
    /// `SlotSnapshot`: what the served summaries must equal bit for bit.
    pub fn serve_reference(&self) -> Vec<RunSummary> {
        let mut policy = self.frozen.clone().expect("frozen DQN trained in set-up");
        self.traces
            .iter()
            .enumerate()
            .map(|(cell, t)| {
                let mut sim = Simulation::new(&self.scenario, RewardConfig::default());
                let mut stream = TraceArrivals::new(t, self.slot_ms);
                sim.drive(
                    RunInput::Stream(&mut stream),
                    &mut policy,
                    self.serve_options(cell),
                )
            })
            .collect()
    }

    /// Runs `serve-fleet`'s cells on [`SERVE_THREADS`] concurrent
    /// simulations sharing one policy server. All of them inherit the
    /// benchmark's CPU pin ([`crate::pin`]).
    fn repeat_serve(&self, mut built: Built, traced: bool) -> Repeat {
        type Cell<'a> = (usize, Simulation, PullClock<TraceArrivals<'a>>);
        let mut shards: Vec<Vec<Cell<'_>>> = (0..SERVE_THREADS).map(|_| Vec::new()).collect();
        for (cell, (sim, t)) in built.sims.drain(..).zip(&self.traces).enumerate() {
            let stream = PullClock::new(TraceArrivals::new(t, self.slot_ms), t.len() + 1);
            shards[cell % SERVE_THREADS].push((cell, sim, stream));
        }
        let span_capacity: usize = self.traces.iter().map(Trace::len).sum::<usize>() * 8;
        let policy = built.policy.take().expect("frozen DQN trained in set-up");

        struct ShardOut<'a> {
            cells: Vec<(usize, RunSummary, Simulation, PullClock<TraceArrivals<'a>>)>,
            counts: PolicyCounts,
            spans: Option<trace::SpanLog>,
        }

        let base = alloc::reset_peak();
        let t0 = Instant::now();
        let server = PolicyServer::spawn(policy, ServeConfig::default());
        let shard_outs: Vec<ShardOut<'_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    let server = &server;
                    scope.spawn(move || {
                        if traced {
                            trace::start(span_capacity / SERVE_THREADS);
                        }
                        let mut client = Probe::new(ServedClient::new(ServedPolicy::new(server)));
                        let mut cells = Vec::with_capacity(shard.len());
                        for (cell, mut sim, mut stream) in shard {
                            let summary = trace::traced(Layer::Drive, || {
                                sim.drive(
                                    RunInput::Stream(&mut stream),
                                    &mut client,
                                    self.serve_options(cell),
                                )
                            });
                            cells.push((cell, summary, sim, stream));
                        }
                        ShardOut {
                            cells,
                            counts: client.counts,
                            spans: trace::finish(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve-fleet simulation thread panicked"))
                .collect()
        });
        let stats = server.shutdown();
        let wall_s = t0.elapsed().as_secs_f64();

        let mut out = Repeat {
            wall_s,
            peak_heap_bytes: alloc::peak_above(base) as u64,
            ..Repeat::default()
        };
        let mut summaries: Vec<(usize, RunSummary)> = Vec::new();
        let mut logs = Vec::new();
        for shard in shard_outs {
            out.counts.policy.add(&shard.counts);
            logs.push(shard.spans);
            for (cell, summary, sim, stream) in shard.cells {
                out.arrivals += stream.arrivals;
                request_times_us(&stream.pulls, &mut out.request_us);
                out.counts.events += sim.events_processed();
                out.counts.batched_decisions += sim.batched_decisions();
                out.check_summary(&format!("cell {cell}"), &summary);
                summaries.push((cell, summary));
            }
        }
        out.collect_spans(logs);
        summaries.sort_by_key(|(cell, _)| *cell);
        let summaries: Vec<RunSummary> = summaries.into_iter().map(|(_, s)| s).collect();
        let asked = out.counts.policy.batch_rows + out.counts.policy.decide_calls;
        out.check(stats.decisions == asked, || {
            format!(
                "the server answered {} decisions, the clients asked {asked}",
                stats.decisions
            )
        });
        out.counts.serve = stats;
        out.quality = Quality::pooled(&summaries);
        out.summaries = summaries;
        out
    }
}

impl Repeat {
    /// Checks `serve-fleet`'s served summaries against the in-process
    /// evaluation of the same cells, bit for bit.
    pub fn check_served(&mut self, reference: &[RunSummary]) {
        let served: Vec<Vec<u64>> = self.summaries.iter().map(summary_bits).collect();
        let local: Vec<Vec<u64>> = reference.iter().map(summary_bits).collect();
        self.check(served == local, || {
            "served summaries differ from the same cells evaluated in-process".to_string()
        });
    }

    fn collect_spans(&mut self, logs: Vec<Option<trace::SpanLog>>) {
        for log in logs.into_iter().flatten() {
            let spans = log.into_spans();
            self.times.add(&trace::self_times(&spans));
            self.wave_us.extend(
                spans
                    .iter()
                    .filter(|s| s.layer == Layer::ServeWave)
                    .map(|s| s.duration_ns() as f64 * 1e-3),
            );
            self.spans.push(spans);
        }
    }
}
