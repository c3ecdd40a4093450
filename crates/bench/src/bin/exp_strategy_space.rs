//! Widened-strategy-space experiment: does adding `Shard(dim)` SPMD
//! sharding and contiguous `Pipeline` stages to the per-op strategy
//! space beat the best replicate/MP-only plan?
//!
//! For each zoo model the bin evaluates
//!
//! * the **narrow** space — the four uniform replicate baselines
//!   (EV/CP x PS/AR) plus the best single-device MP plan, and
//! * the **widened** seeds — Shard-EV, Shard-CP (power-proportional
//!   SPMD shards over dim 0) and the DP-cut Pipeline plan —
//!
//! all on the analytic ground-truth oracle, and reports the best
//! feasible plan per space. A model "wins" when the widened space is
//! strictly faster. The winning widened plan is additionally replayed
//! through the incremental evaluator under cluster perturbations and
//! must be bit-identical to fresh compile+simulate.
//!
//! Writes `BENCH_strategy_space.json` in the working directory;
//! `bench_compare` gates on its `wins` / `mean_improvement_pct` fields.
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_strategy_space`
//! (pass `--smoke` for a seconds-scale CI configuration).

use heterog_base::json::{self, ToJson};
use heterog_bench::{evaluate, Strategy};
use heterog_cluster::{paper_testbed_8gpu, LinkKind};
use heterog_compile::{CommMethod, OpStrategy};
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::OrderPolicy;
use heterog_strategies::{
    Evaluation, IncrementalEvaluator, Perturbation, PipelinePlanner, Planner, ShardCpPlanner,
};

struct Candidate {
    name: &'static str,
    strategy: Strategy,
}

fn best_feasible(evals: &[(Candidate, Evaluation)]) -> Option<(&Candidate, &Evaluation)> {
    evals
        .iter()
        .filter(|(_, e)| !e.oom)
        .min_by(|(_, a), (_, b)| a.iteration_time.total_cmp(&b.iteration_time))
        .map(|(c, e)| (c, e))
}

fn main() {
    heterog_bench::bench_init();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cluster = paper_testbed_8gpu();
    let cost = GroundTruthCost;

    let specs: Vec<ModelSpec> = if smoke {
        vec![
            ModelSpec::new(BenchmarkModel::Vgg19, 64),
            ModelSpec::with_layers(BenchmarkModel::BertLarge, 24, 12),
        ]
    } else {
        vec![
            ModelSpec::new(BenchmarkModel::Vgg19, 192),
            ModelSpec::new(BenchmarkModel::ResNet200, 192),
            ModelSpec::with_layers(BenchmarkModel::BertLarge, 48, 24),
            ModelSpec::with_layers(BenchmarkModel::XlnetLarge, 48, 24),
        ]
    };

    println!("=== Widened strategy space: Shard/Pipeline vs replicate/MP-only (8 GPUs) ===");
    println!(
        "{:<34}{:>22}{:>22}{:>10}",
        "Model (batch size)", "narrow best", "widened best", "delta"
    );

    let mut wins = 0usize;
    let mut improvements: Vec<f64> = Vec::new();
    let mut all_identical = true;
    let mut rows = Vec::new();

    for spec in &specs {
        let g = spec.build();

        // The fastest single device hosts the MP-only candidate.
        let fastest = cluster
            .device_ids()
            .max_by(|a, b| {
                cluster
                    .device(*a)
                    .effective_tflops()
                    .total_cmp(&cluster.device(*b).effective_tflops())
            })
            .expect("non-empty cluster");
        let narrow = vec![
            Candidate {
                name: "EV-PS",
                strategy: Strategy::even(g.len(), &cluster, CommMethod::Ps),
            },
            Candidate {
                name: "EV-AR",
                strategy: Strategy::even(g.len(), &cluster, CommMethod::AllReduce),
            },
            Candidate {
                name: "CP-PS",
                strategy: Strategy::proportional(g.len(), &cluster, CommMethod::Ps),
            },
            Candidate {
                name: "CP-AR",
                strategy: Strategy::proportional(g.len(), &cluster, CommMethod::AllReduce),
            },
            Candidate {
                name: "MP-best",
                strategy: Strategy::uniform(g.len(), OpStrategy::Mp(fastest)),
            },
        ];
        let widened = vec![
            Candidate {
                name: "Shard-EV",
                strategy: Strategy::uniform(g.len(), OpStrategy::shard_even(&cluster, 0)),
            },
            Candidate {
                name: "Shard-CP",
                strategy: ShardCpPlanner::default().plan(&g, &cluster, &cost),
            },
            Candidate {
                name: "Shard-CP-PS",
                strategy: ShardCpPlanner {
                    comm: CommMethod::Ps,
                }
                .plan(&g, &cluster, &cost),
            },
            Candidate {
                name: "Pipeline",
                strategy: PipelinePlanner.plan(&g, &cluster, &cost),
            },
        ];

        let run = |cands: Vec<Candidate>| -> Vec<(Candidate, Evaluation)> {
            cands
                .into_iter()
                .map(|c| {
                    let e = evaluate(&g, &cluster, &cost, &c.strategy);
                    (c, e)
                })
                .collect()
        };
        let narrow_evals = run(narrow);
        let widened_evals = run(widened);

        let (nc, ne) = best_feasible(&narrow_evals).expect("a replicate baseline fits in memory");
        let (wc, we) = best_feasible(&widened_evals).expect("a widened seed fits in memory");
        let win = we.iteration_time < ne.iteration_time;
        let improvement_pct = (ne.iteration_time - we.iteration_time) / ne.iteration_time * 100.0;
        if win {
            wins += 1;
        }
        improvements.push(improvement_pct);

        // Incremental-vs-full identity on the winning widened plan:
        // cluster perturbations replayed through the staged evaluator
        // must not change a single bit of the verdict.
        let policy = OrderPolicy::RankBased;
        let ev = IncrementalEvaluator::new(&g, &cost, &cluster, &wc.strategy, &policy);
        let mut identical = true;
        for c2 in [
            cluster.with_scaled_link(Some(LinkKind::Pcie), 0.5),
            cluster.with_scaled_link(Some(LinkKind::NicOut), 0.5),
            cluster.with_scaled_link(None, 2.0),
        ] {
            let fast = ev.evaluate_perturbed(Perturbation::Cluster(&c2)).0;
            let full = evaluate(&g, &c2, &cost, &wc.strategy);
            identical &= fast.iteration_time.to_bits() == full.iteration_time.to_bits()
                && fast.oom == full.oom;
        }
        assert!(
            identical,
            "{}: incremental and full evaluations diverged",
            spec.label()
        );
        all_identical &= identical;

        println!(
            "{:<34}{:>22}{:>22}{:>+9.1}%",
            spec.label(),
            format!("{} {:.3}s", nc.name, ne.iteration_time),
            format!("{} {:.3}s", wc.name, we.iteration_time),
            improvement_pct
        );

        rows.push(json::obj([
            ("model", spec.label().to_json()),
            ("narrow_best", nc.name.to_json()),
            ("narrow_s", ne.iteration_time.to_json()),
            ("widened_best", wc.name.to_json()),
            ("widened_s", we.iteration_time.to_json()),
            ("improvement_pct", improvement_pct.to_json()),
            ("win", win.to_json()),
            ("incremental_bit_identical", identical.to_json()),
        ]));
    }

    let mean_improvement = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
    println!(
        "\nwidened space wins on {wins}/{} models (mean improvement {mean_improvement:+.1}%), \
         incremental bit-identical: {all_identical}",
        specs.len()
    );
    let required = if smoke { 1 } else { 2 };
    assert!(
        wins >= required,
        "the widened space must strictly beat the best replicate/MP-only plan on >={required} models"
    );

    let doc = json::obj([
        ("cluster", "paper_testbed_8gpu".to_json()),
        ("smoke", smoke.to_json()),
        ("models", specs.len().to_json()),
        ("wins", wins.to_json()),
        ("mean_improvement_pct", mean_improvement.to_json()),
        ("incremental_bit_identical", all_identical.to_json()),
        ("rows", json::Value::Array(rows)),
    ]);
    heterog_bench::write_bench("BENCH_strategy_space.json", &doc);
}
