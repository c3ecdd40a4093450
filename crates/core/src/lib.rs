//! # heterog
//!
//! The HeteroG public API — the Rust analogue of the paper's Python
//! module (§3.5, Fig. 5). A developer builds a single-GPU training
//! graph, describes the (heterogeneous) devices, and calls
//! [`get_runner`]; HeteroG profiles the model, produces the distributed
//! deployment strategy (parallelism + placement + gradient-aggregation
//! method per operation, plus an execution order), compiles the
//! distributed training graph and returns a [`DistRunner`] whose
//! [`DistRunner::run`] executes training steps (on this repo's simulated
//! substrate — see DESIGN.md for the substitution map).
//!
//! ```
//! use heterog::{get_runner, HeterogConfig};
//! use heterog_cluster::paper_testbed_8gpu;
//! use heterog_graph::{BenchmarkModel, ModelSpec};
//!
//! // 1. a "model function" building the single-GPU graph
//! let model_func = || ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
//! // 2. device info
//! let device_info = paper_testbed_8gpu();
//! // 3. plan + compile
//! let runner = get_runner(model_func, device_info, HeterogConfig::quick());
//! // 4. train
//! let stats = runner.run(100);
//! assert!(stats.samples_per_second > 0.0);
//! ```

pub mod config;
pub mod runner;

pub use config::{HeterogConfig, PlannerChoice};
pub use runner::{baseline_planner, get_runner, DistRunner, RunStats, BASELINE_PLANNER_NAMES};

// Re-export the workspace so `heterog` is a one-stop dependency.
pub use heterog_agent as agent;
pub use heterog_cluster as cluster;
pub use heterog_compile as compile;
pub use heterog_elastic as elastic;
pub use heterog_events as events;
pub use heterog_explain as explain;
pub use heterog_graph as graph;
pub use heterog_nn as nn;
pub use heterog_profile as profile;
pub use heterog_runs as runs;
pub use heterog_sched as sched;
pub use heterog_sim as sim;
pub use heterog_strategies as strategies;
pub use heterog_telemetry as telemetry;
