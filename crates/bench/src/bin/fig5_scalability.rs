//! Figure 5 — scalability: per-decision wall-clock time and achieved
//! latency/cost as the number of edge sites grows. One sub-grid per size
//! (the DRL observation width depends on N, so each size trains its own
//! manager), merged into a single report.
//!
//! The DRL manager appears twice: `drl` evaluates under the paper's
//! sequential semantics (one forward per decision, `parallel_eval`
//! fan-out with one warm workspace per worker), and `drl-snap` re-runs
//! the same network under `DecisionSemantics::SlotSnapshot` (whole-slot
//! frozen-snapshot wavefronts, each answered by one batched forward,
//! with joint conflict-checked apply), so the snapshot semantics'
//! policy-quality and µs/decision deltas are columns of the same figure.
//!
//! Decision time is deliberately *kept* in this figure's cells (the whole
//! point is timing), so unlike the other figures its CSV is not covered
//! by the byte-identical determinism guarantee.

use bench::{
    comparison_factories, default_passes, drl_default, emit_csv, emit_report, eval_seeds, scaled,
};
use drl_vnf_edge::prelude::*;
use std::time::Instant;

fn size_scenario(n: usize) -> Scenario {
    let mut scenario = Scenario::default_metro().with_arrival_rate(6.0);
    scenario.topology = TopologySpec::Metro { sites: n };
    scenario.topology_builder.edge_capacity = edgenet::node::Resources::new(32.0, 128.0);
    scenario.horizon_slots = scaled(240, 30) as u64;
    scenario
}

fn main() {
    let sizes: Vec<usize> = if bench::fast_mode() {
        vec![4, 8]
    } else {
        vec![4, 8, 12, 16]
    };
    let reward = RewardConfig::default();

    // Train one DRL manager per size concurrently.
    eprintln!(
        "[fig5] training {} sizes on {} threads…",
        sizes.len(),
        thread_count()
    );
    let trained = parallel_map(&sizes, |_, &n| {
        let scenario = size_scenario(n);
        let t = train_drl(&scenario, reward, drl_default(), default_passes().min(5));
        eprintln!("[fig5] sites = {n}: trained");
        (n, t)
    });

    // One evaluation report per size: the heuristic baselines run through
    // the grid; both DRL columns fan out through `parallel_eval`, one
    // warm policy clone per worker thread.
    let reports: Vec<BenchReport> = trained
        .into_iter()
        .map(|(n, t)| {
            let scenario = size_scenario(n);
            let label = format!("sites={n}");
            let baseline_grid = ExperimentGrid::new(format!("fig5_n{n}"))
                .scenario(label.clone(), n as f64, scenario.clone())
                .reward(reward)
                .seeds(&eval_seeds())
                .keep_decision_time()
                .policies(comparison_factories())
                .run();

            let cells = cells_for_seeds(&label, n as f64, &scenario, &eval_seeds());
            let started = Instant::now();
            let mut drl_cells = parallel_eval(&t.policy, "drl", reward, &cells, None, true);
            drl_cells.extend(parallel_eval_semantics(
                &t.policy,
                "drl-snap",
                reward,
                &cells,
                None,
                true,
                DecisionSemantics::SlotSnapshot,
            ));
            let drl_report = report_from_cells(
                format!("fig5_n{n}_drl"),
                thread_count(),
                started.elapsed().as_secs_f64(),
                drl_cells,
            );
            merge_reports(format!("fig5_n{n}"), vec![drl_report, baseline_grid])
        })
        .collect();
    let report = merge_reports("fig5_scalability", reports);

    emit_csv("fig5_scalability.csv", &sweep_csv(&report));
    for a in &report.aggregates {
        eprintln!(
            "[fig5] n={:>2} {:>16}: {:>6.2} ms, ${:.4}/slot, {:.1} µs/decision",
            a.x,
            a.policy,
            a.aggregate.mean("mean_latency_ms"),
            a.aggregate.mean("mean_slot_cost_usd"),
            a.aggregate.mean("mean_decision_time_us"),
        );
    }
    emit_report(&report);
}
