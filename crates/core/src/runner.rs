//! `get_runner` and the distributed runner (§3.5).

use heterog_agent::{HeteroGPlanner, RlAgent};
use heterog_cluster::Cluster;
use heterog_compile::{compile, Strategy};
use heterog_graph::Graph;
use heterog_profile::{CostEstimator, GroundTruthCost, Profiler};
use heterog_sched::{OrderPolicy, TaskGraph};
use heterog_sim::{simulate, SimReport};
use heterog_strategies::{
    CpArPlanner, CpPsPlanner, EvArPlanner, EvPsPlanner, FlexFlowPlanner, HetPipePlanner,
    HorovodPlanner, PipelinePlanner, Planner, PostPlanner, ShardCpPlanner,
};

use crate::config::{HeterogConfig, PlannerChoice};

/// Statistics from running `steps` training iterations.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Iterations executed.
    pub steps: u64,
    /// Per-iteration time, seconds.
    pub per_iteration_s: f64,
    /// Total training time, seconds.
    pub total_s: f64,
    /// Throughput in samples/second (global batch / iteration time).
    pub samples_per_second: f64,
    /// Peak memory per GPU, bytes.
    pub peak_memory: Vec<u64>,
    /// Whether the plan overflows any device (a production deployment
    /// would refuse to launch; the simulator reports it instead).
    pub oom: bool,
}

/// The compiled distributed training model, ready to run.
pub struct DistRunner {
    /// The single-GPU graph the plan was derived from.
    pub graph: Graph,
    /// The cluster the plan targets.
    pub cluster: Cluster,
    /// The Part-I strategy HeteroG chose.
    pub strategy: Strategy,
    /// The compiled distributed task graph.
    pub task_graph: TaskGraph,
    /// Execution-order policy (rank-based or FIFO per the config).
    pub order: OrderPolicy,
    /// The one-iteration simulation report.
    pub report: SimReport,
    /// The planner that produced (and can reproduce) the strategy —
    /// kept so the elastic runtime can replan after a cluster fault.
    pub planner: Box<dyn Planner>,
}

impl DistRunner {
    /// Executes `steps` training iterations and returns aggregate
    /// statistics. Synchronous SGD makes every iteration identical, so
    /// the simulated steady-state per-iteration time extrapolates
    /// directly (§6.4).
    pub fn run(&self, steps: u64) -> RunStats {
        let t = self.report.iteration_time;
        RunStats {
            steps,
            per_iteration_s: t,
            total_s: t * steps as f64,
            samples_per_second: if t > 0.0 {
                self.graph.batch_size as f64 / t
            } else {
                0.0
            },
            peak_memory: self.report.memory.peak_bytes.clone(),
            oom: self.report.memory.any_oom(),
        }
    }

    /// The Chrome-tracing timeline of one iteration (load into
    /// `chrome://tracing` or Perfetto).
    pub fn trace_json(&self) -> String {
        heterog_sim::chrome_trace_json(&self.task_graph, &self.report.schedule)
    }

    /// The Chrome-tracing timeline of one iteration with the host-side
    /// planning/compilation spans merged in as a second process lane.
    pub fn trace_json_with_spans(&self) -> String {
        let snap = heterog_telemetry::snapshot();
        heterog_telemetry::merge_chrome_traces(
            &self.trace_json(),
            &heterog_telemetry::chrome_span_events(&snap),
        )
    }

    /// A snapshot of every metric and span recorded so far in this
    /// process (planning, compilation, scheduling, simulation).
    pub fn telemetry_snapshot(&self) -> heterog_telemetry::TelemetrySnapshot {
        heterog_telemetry::snapshot()
    }

    /// Explains the deployment: simulated critical path, makespan
    /// attribution, stragglers, and ranked what-if interventions.
    pub fn explain(&self) -> heterog_explain::ExplainReport {
        self.explain_with(&heterog_explain::ExplainOptions::default())
    }

    /// [`DistRunner::explain`] with explicit options (what-if set,
    /// top-k, or disabling the sensitivity loop entirely).
    pub fn explain_with(
        &self,
        opts: &heterog_explain::ExplainOptions,
    ) -> heterog_explain::ExplainReport {
        heterog_explain::explain(
            &self.graph,
            &self.cluster,
            &self.strategy,
            &self.task_graph,
            &self.order,
            &self.report,
            opts,
        )
    }

    /// Runs the plan elastically: `opts.iterations` simulated training
    /// iterations against `script`'s fault timeline, repairing the plan
    /// with `opts.policy` whenever the cluster changes under it. The
    /// run starts from this runner's cluster but re-plans from scratch
    /// so the report's baseline matches its own planner (for the
    /// `Learned` choice the search planner stands in — retraining the
    /// RL agent mid-run would dominate recovery cost).
    pub fn elastic_run(
        &self,
        script: &heterog_elastic::FaultScript,
        opts: &heterog_elastic::ElasticOptions,
    ) -> heterog_elastic::ElasticOutcome {
        heterog_elastic::elastic_run(
            &self.graph,
            &self.cluster,
            &GroundTruthCost,
            self.planner.as_ref(),
            script,
            opts,
        )
    }
}

/// Converts a single-GPU model into a distributed runner (§3.5's
/// `heterog.get_runner`): profiles the model on the cluster, runs the
/// configured Strategy Maker, compiles the distributed graph, applies
/// order enforcement and returns the runner.
pub fn get_runner(
    model_func: impl FnOnce() -> Graph,
    device_info: Cluster,
    config: HeterogConfig,
) -> DistRunner {
    let _span = heterog_telemetry::span("get_runner");
    let graph = model_func();

    // Profile (the paper's Profiler; §3.3).
    let fitted;
    let cost: &dyn CostEstimator = if config.use_fitted_costs {
        fitted = Profiler::new(config.profiler.clone()).profile(&[&graph], &device_info);
        &fitted
    } else {
        &GroundTruthCost
    };

    // Strategy making. Besides the strategy itself, keep a planner the
    // elastic runtime can re-invoke on a mutated cluster; the learned
    // agent is plan-once, so the search planner stands in for replans.
    let plan_span = heterog_telemetry::span("plan");
    let (strategy, planner): (Strategy, Box<dyn Planner>) = match &config.planner {
        PlannerChoice::Search(p) => (p.plan(&graph, &device_info, cost), Box::new(p.clone())),
        PlannerChoice::Learned(tc) => {
            let mut agent = RlAgent::new(tc.clone());
            agent.train(&[&graph], &device_info, &cost);
            (
                agent.plan(&graph, &device_info, &cost),
                Box::new(HeteroGPlanner::default()),
            )
        }
        PlannerChoice::Baseline(name) => {
            let p = baseline_planner(name);
            (p.plan(&graph, &device_info, cost), p)
        }
    };
    drop(plan_span);

    // Order enforcement choice.
    let order = if config.order_scheduling {
        OrderPolicy::RankBased
    } else {
        OrderPolicy::Fifo
    };

    // The deployment is validated (and, in this reproduction, executed)
    // by the simulator against the ground-truth oracle — the planner saw
    // only fitted costs, mirroring profile-then-deploy.
    let truth_graph = compile(&graph, &device_info, &GroundTruthCost, &strategy);
    let report = simulate(&truth_graph, &device_info.memory_capacities(), &order);

    DistRunner {
        graph,
        cluster: device_info,
        strategy,
        task_graph: truth_graph,
        order,
        report,
        planner,
    }
}

/// Every baseline planner name [`baseline_planner`] resolves, in the
/// paper's comparison order. The CLI's `compare` command and its
/// planner validation both enumerate this list.
pub const BASELINE_PLANNER_NAMES: [&str; 11] = [
    "EV-PS",
    "EV-AR",
    "CP-PS",
    "CP-AR",
    "Horovod",
    "FlexFlow",
    "Post",
    "HetPipe",
    "Shard-CP",
    "Shard-CP-PS",
    "Pipeline",
];

/// Resolves a baseline planner by name, or `None` for an unknown name.
pub(crate) fn try_baseline_planner(name: &str) -> Option<Box<dyn Planner>> {
    Some(match name {
        "EV-PS" => Box::new(EvPsPlanner) as Box<dyn Planner>,
        "EV-AR" => Box::new(EvArPlanner),
        "CP-PS" => Box::new(CpPsPlanner),
        "CP-AR" => Box::new(CpArPlanner),
        "Horovod" => Box::new(HorovodPlanner),
        "FlexFlow" => Box::new(FlexFlowPlanner::default()),
        "Post" => Box::new(PostPlanner::default()),
        "HetPipe" => Box::new(HetPipePlanner),
        "Shard-CP" => Box::new(ShardCpPlanner::default()),
        "Shard-CP-PS" => Box::new(ShardCpPlanner {
            comm: heterog_compile::CommMethod::Ps,
        }),
        "Pipeline" => Box::new(PipelinePlanner),
        _ => return None,
    })
}

/// Resolves a baseline planner by name.
///
/// # Panics
/// On a name not in [`BASELINE_PLANNER_NAMES`].
pub fn baseline_planner(name: &str) -> Box<dyn Planner> {
    try_baseline_planner(name).unwrap_or_else(|| panic!("unknown baseline planner {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};

    fn model() -> Graph {
        ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build()
    }

    #[test]
    fn get_runner_end_to_end() {
        let runner = get_runner(model, paper_testbed_8gpu(), HeterogConfig::quick());
        let stats = runner.run(50);
        assert_eq!(stats.steps, 50);
        assert!(stats.per_iteration_s > 0.0);
        assert!((stats.total_s - 50.0 * stats.per_iteration_s).abs() < 1e-9);
        assert!(stats.samples_per_second > 0.0);
        assert!(!stats.oom);
    }

    #[test]
    fn heterog_beats_fifo_order_on_same_plan() {
        let mut cfg = HeterogConfig::quick();
        cfg.order_scheduling = false;
        let fifo = get_runner(model, paper_testbed_8gpu(), cfg);
        let ranked = get_runner(model, paper_testbed_8gpu(), HeterogConfig::quick());
        // The plans may differ slightly (planner is deterministic, so
        // they're actually identical) — ranked order must not be slower.
        assert!(
            ranked.report.iteration_time <= fifo.report.iteration_time + 1e-9,
            "{} vs {}",
            ranked.report.iteration_time,
            fifo.report.iteration_time
        );
    }

    #[test]
    fn baseline_choice_works() {
        let runner = get_runner(
            model,
            paper_testbed_8gpu(),
            HeterogConfig::baseline("EV-AR"),
        );
        assert!(runner.run(1).per_iteration_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown baseline")]
    fn unknown_baseline_panics() {
        baseline_planner("nope");
    }

    #[test]
    fn trace_export_is_json() {
        let runner = get_runner(model, paper_testbed_8gpu(), HeterogConfig::quick());
        let json = runner.trace_json();
        let v = heterog_base::json::parse(&json).unwrap();
        assert!(v.as_array().unwrap().len() > 100);
    }
}
