//! Property-based tests on the core data structures and invariants:
//! scheduler correctness on random DAGs, batch splitting, memory
//! accounting, cost-model monotonicity and the Theorem-1 bound.

use heterog_base::prop;
use heterog_base::rng::ChaCha8Rng;

use heterog_graph::OpKind;
use heterog_profile::LinearFit;
use heterog_sched::{
    list_schedule, makespan_lower_bound, strict_schedule, upward_ranks, OrderPolicy, Proc, Task,
    TaskGraph,
};
use heterog_sim::memory_usage;

/// A placed DAG over `gpus` GPUs and `links` links: task `i` is
/// `(processor, duration, output bytes)`, where processors `0..gpus` are
/// GPUs and the rest links; edges go only from lower to higher index.
fn placed_graph(
    gpus: u32,
    links: u32,
    tasks: &[(u32, f64, u64)],
    edges: &[(usize, usize)],
) -> TaskGraph {
    let mut tg = TaskGraph::new("prop", gpus, links);
    let ids: Vec<_> = tasks
        .iter()
        .enumerate()
        .map(|(i, &(p, dur, bytes))| {
            let (proc, kind) = if p < gpus {
                (Proc::Gpu(p), OpKind::MatMul)
            } else {
                (Proc::Link(p - gpus), OpKind::Transfer)
            };
            tg.add_task(Task::new(format!("t{i}"), kind, proc, dur).with_output_bytes(bytes))
        })
        .collect();
    for &(i, j) in edges {
        tg.add_dep(ids[i], ids[j]);
    }
    tg
}

/// A random placed DAG: `n` tasks over `gpus` GPUs and `links` links,
/// each forward edge present with probability 1/4 (guaranteed acyclic).
fn arb_task_graph(rng: &mut ChaCha8Rng, max_tasks: usize, gpus: u32, links: u32) -> TaskGraph {
    let n = rng.gen_range(2..max_tasks);
    let tasks: Vec<(u32, f64, u64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..(gpus + links) as usize) as u32,
                rng.gen_range(0.0..2.0),
                rng.gen_range(0..1000) as u64,
            )
        })
        .collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if prop::weighted(rng, 0.25) {
                edges.push((i, j));
            }
        }
    }
    placed_graph(gpus, links, &tasks, &edges)
}

/// List scheduling respects all precedence constraints and processor
/// exclusivity, and its makespan is between the lower bound and the
/// Theorem-1 upper bound.
fn check_list_schedule(tg: &TaskGraph) {
    for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
        let s = list_schedule(tg, &policy);
        // Precedence: every dep finishes before its successor starts.
        for t in tg.task_ids() {
            for &succ in tg.succs(t) {
                assert!(s.finish[t.index()] <= s.start[succ.index()] + 1e-9);
            }
        }
        // Exclusivity: tasks on one processor never overlap.
        let mut by_proc: Vec<Vec<(f64, f64)>> = vec![Vec::new(); tg.num_procs()];
        for (id, task) in tg.iter() {
            by_proc[tg.proc_index(task.proc)].push((s.start[id.index()], s.finish[id.index()]));
        }
        for ivs in &mut by_proc {
            ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in ivs.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "overlap {:?}", w);
            }
        }
        // Bounds.
        let lb = makespan_lower_bound(tg);
        assert!(s.makespan >= lb - 1e-9);
        assert!(s.makespan <= tg.total_work() + 1e-9);
        assert!(s.makespan <= tg.num_procs() as f64 * lb + 1e-9);
    }
}

/// Strict per-device order with rank priorities always completes and
/// never beats the lower bound.
fn check_strict_schedule(tg: &TaskGraph) {
    let ranks = upward_ranks(tg);
    let s = strict_schedule(tg, &ranks);
    assert!(s.makespan >= makespan_lower_bound(tg) - 1e-9);
    assert!(s.makespan <= tg.total_work() + 1e-9);
    for t in tg.task_ids() {
        for &succ in tg.succs(t) {
            assert!(s.finish[t.index()] <= s.start[succ.index()] + 1e-9);
        }
    }
    // Work-conserving scheduling under the same priorities also
    // completes validly. (It is NOT universally faster than strict
    // order — Graham's scheduling anomalies — so only validity is
    // asserted here; the worst-case instance tests in heterog-sched
    // compare the two on the appendix's specific family.)
    let wc = list_schedule(tg, &OrderPolicy::Priorities(ranks));
    assert!(wc.makespan >= makespan_lower_bound(tg) - 1e-9);
    assert!(wc.makespan <= tg.total_work() + 1e-9);
}

/// Upward ranks strictly decrease along every edge (by at least the
/// successor's duration).
fn check_ranks_decrease(tg: &TaskGraph) {
    let r = upward_ranks(tg);
    for t in tg.task_ids() {
        for &succ in tg.succs(t) {
            assert!(r[t.index()] >= r[succ.index()] + tg.task(t).duration - 1e-12);
        }
    }
}

/// `time_breakdown` is a partition of total work: every component is
/// non-negative, the four components sum to the per-processor busy
/// total, and that total never exceeds procs x makespan (each
/// processor is busy at most the whole iteration).
fn check_time_breakdown(tg: &TaskGraph) {
    let s = list_schedule(tg, &OrderPolicy::RankBased);
    let bd = heterog_sim::time_breakdown(tg, &s);
    for (i, component) in bd.iter().enumerate() {
        assert!(*component >= 0.0, "component {i} negative: {component}");
    }
    let total: f64 = bd.iter().sum();
    let busy: f64 = s.proc_busy.iter().sum();
    assert!(
        (total - busy).abs() <= 1e-9 * busy.max(1.0),
        "breakdown {total} != busy {busy}"
    );
    assert!(total <= tg.num_procs() as f64 * s.makespan + 1e-9);
}

#[test]
fn list_schedule_is_valid_and_bounded() {
    prop::check(64, 0x11, |rng| {
        check_list_schedule(&arb_task_graph(rng, 24, 3, 2))
    });
}

#[test]
fn strict_schedule_valid_under_ranks() {
    prop::check(64, 0x12, |rng| {
        check_strict_schedule(&arb_task_graph(rng, 18, 3, 1))
    });
}

#[test]
fn ranks_decrease_along_edges() {
    prop::check(64, 0x13, |rng| {
        check_ranks_decrease(&arb_task_graph(rng, 20, 2, 1))
    });
}

/// A case the strict-schedule property once failed on, shrunk and
/// recorded: 7 tasks on 3 GPUs and 1 link, a chain `t2 -> t3 -> t5 -> t6` plus `t2 -> t4`,
/// with zero-duration tasks (`t2`, `t3`, `t4`) at the chain's head.
#[test]
fn recorded_zero_duration_chain_on_three_gpus_and_one_link() {
    let tasks = [
        (1, 0.6352781214916341, 0),
        (1, 1.5467197920114386, 0),
        (2, 0.0, 0),
        (1, 0.0, 0),
        (0, 0.0, 183),
        (3, 0.34936509919358155, 743),
        (3, 1.7319605673908067, 395),
    ];
    let tg = placed_graph(3, 1, &tasks, &[(2, 3), (2, 4), (3, 5), (5, 6)]);
    assert_eq!(tg.len(), 7);
    assert_eq!(tg.task(heterog_sched::TaskId(5)).proc, Proc::Link(0));
    check_strict_schedule(&tg);
    check_ranks_decrease(&tg);
    check_time_breakdown(&tg);
}

/// Peak memory is monotone in capacity violations: params always
/// counted, peaks never below pinned params, OOM iff peak exceeds
/// capacity.
#[test]
fn memory_accounting_invariants() {
    prop::check(64, 0x14, |rng| {
        let tg = arb_task_graph(rng, 20, 2, 1);
        let cap = rng.gen_range(1..5000) as u64;
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let mem = memory_usage(&tg, &s, &[cap, cap]);
        for g in 0..2 {
            assert!(mem.peak_bytes[g] >= mem.param_bytes[g]);
            assert_eq!(mem.oom[g], mem.peak_bytes[g] > cap);
        }
        // Total activation accounting: peak cannot exceed the sum of all
        // GPU-task outputs plus params.
        let total_out: u64 = tg
            .iter()
            .filter(|(_, t)| !t.proc.is_link())
            .map(|(_, t)| t.output_bytes + t.param_bytes)
            .sum();
        assert!(mem.peak_bytes.iter().sum::<u64>() <= total_out);
    });
}

/// Batch splitting conserves samples and is near-even.
#[test]
fn split_batch_conserves() {
    prop::check(64, 0x15, |rng| {
        let batch = rng.gen_range(0..10_000) as u64;
        let n = rng.gen_range(1..64) as u64;
        let shares = heterog_compile::placement::split_batch(batch, n);
        assert_eq!(shares.len(), n as usize);
        assert_eq!(shares.iter().sum::<u64>(), batch);
        let max = *shares.iter().max().unwrap();
        let min = *shares.iter().min().unwrap();
        assert!(max - min <= 1);
    });
}

#[test]
fn time_breakdown_partitions_total_work() {
    prop::check(64, 0x16, |rng| {
        check_time_breakdown(&arb_task_graph(rng, 24, 3, 2))
    });
}

/// Least-squares fits interpolate affine data exactly and never
/// predict negative times.
#[test]
fn linear_fit_recovers_affine() {
    prop::check(64, 0x17, |rng| {
        let a = rng.gen_range(-5.0..5.0);
        let b = rng.gen_range(0.0..10.0);
        let xs = prop::vec(rng, 2..20, |rng| rng.gen_range(0.0..100.0));
        let pts: Vec<(f64, f64)> = xs.iter().map(|&x| (x, a * x + b)).collect();
        let fit = LinearFit::fit(&pts);
        let distinct = xs.iter().any(|&x| (x - xs[0]).abs() > 1e-9);
        if distinct {
            for &x in &xs {
                let pred = fit.predict(x);
                let want = (a * x + b).max(0.0);
                assert!((pred - want).abs() < 1e-6 * (1.0 + want.abs()));
            }
        }
        assert!(fit.predict(1e6) >= 0.0);
    });
}

/// Sanity: the generator itself produces valid DAGs.
#[test]
fn generator_produces_acyclic_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    for _ in 0..16 {
        let tg = arb_task_graph(&mut rng, 16, 2, 1);
        let order = tg.topo_order();
        assert_eq!(order.len(), tg.len());
    }
}

// ---------------------------------------------------------------------------
// Compiler properties: random training graphs under random strategies must
// compile to valid, semantics-preserving task graphs.
// ---------------------------------------------------------------------------

mod compile_props {
    use super::*;
    use heterog_cluster::{paper_testbed_4gpu, DeviceId};
    use heterog_compile::{compile, CommMethod, OpStrategy, Strategy as PlanStrategy};
    use heterog_graph::{Graph, GraphBuilder};
    use heterog_profile::GroundTruthCost;

    /// A random layered training graph: a chain of parameterized and
    /// simple layers with occasional residual joins.
    pub(crate) fn arb_training_graph(rng: &mut ChaCha8Rng) -> Graph {
        let batch = rng.gen_range(8..64) as u64;
        let kinds = prop::vec(rng, 2..8, |rng| rng.gen_range(0..3));
        {
            {
                let mut b = GraphBuilder::new("prop_model", batch);
                let x = b.input(256);
                let mut cur = x;
                let mut skip = x;
                for (i, k) in kinds.iter().enumerate() {
                    cur = match k {
                        0 => b.param_layer(
                            &format!("p{i}"),
                            heterog_graph::OpKind::MatMul,
                            cur,
                            256,
                            256 * 256,
                            1.0e6,
                        ),
                        1 => b.simple_layer(
                            &format!("s{i}"),
                            heterog_graph::OpKind::Activation,
                            cur,
                            256,
                            256.0,
                        ),
                        _ => {
                            let j = b.combine(
                                &format!("j{i}"),
                                heterog_graph::OpKind::Add,
                                cur,
                                skip,
                                256,
                            );
                            skip = j;
                            j
                        }
                    };
                }
                b.finish(cur)
            }
        }
    }

    /// A random per-op strategy over the 4-GPU testbed's action space.
    fn arb_strategy(rng: &mut ChaCha8Rng, num_ops: usize) -> PlanStrategy {
        let cluster = paper_testbed_4gpu();
        let per_op = (0..num_ops)
            .map(|_| match rng.gen_range(0..8) {
                c @ 0..=3 => OpStrategy::Mp(DeviceId(c as u32)),
                4 => OpStrategy::even(&cluster, CommMethod::Ps),
                5 => OpStrategy::even(&cluster, CommMethod::AllReduce),
                6 => OpStrategy::proportional(&cluster, CommMethod::Ps),
                _ => OpStrategy::proportional(&cluster, CommMethod::AllReduce),
            })
            .collect();
        PlanStrategy::from_per_op(per_op)
    }

    /// Any strategy compiles to an acyclic, fully schedulable task
    /// graph that conserves the global batch.
    #[test]
    fn compile_preserves_batch_under_random_strategies() {
        prop::check(32, 0x21, |rng| {
            let g = arb_training_graph(rng);
            let cluster = paper_testbed_4gpu();
            let s = arb_strategy(rng, g.len());
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            // Acyclic + schedulable.
            let sched = list_schedule(&tg, &OrderPolicy::RankBased);
            assert!(sched.finish.iter().all(|f| f.is_finite()));
            // Batch conservation for every splittable op.
            for (id, node) in g.iter() {
                if !node.batch_splittable {
                    continue;
                }
                let total: u64 = tg
                    .iter()
                    .filter(|(_, t)| t.origin == Some(id))
                    .map(|(_, t)| t.batch_share)
                    .sum();
                assert_eq!(total, g.batch_size, "{}", node.name);
            }
            // Every original op materialized at least once.
            for id in g.op_ids() {
                assert!(
                    tg.iter().any(|(_, t)| t.origin == Some(id)),
                    "op {id} lost in lowering"
                );
            }
        });
    }

    /// Rank priorities of the compiled graph strictly decrease along
    /// dependencies (the §4.2 invariant the order enforcement needs).
    #[test]
    fn compiled_graph_ranks_are_consistent() {
        prop::check(32, 0x22, |rng| {
            let g = arb_training_graph(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::even(g.len(), &cluster, CommMethod::AllReduce);
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            let r = upward_ranks(&tg);
            for t in tg.task_ids() {
                for &succ in tg.succs(t) {
                    assert!(r[t.index()] >= r[succ.index()] - 1e-12);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Incremental re-simulation properties: any sequence of perturbed queries
// against an `IncrementalEvaluator` must be bit-identical to a fresh full
// compile+schedule+simulate of the same deployment, for every checkpoint
// spacing and fallback threshold (including the degenerate ones: 0.0 forces
// the full-replay path on every query, 1.0 forbids it).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Widened-strategy-space properties (ROADMAP item 2): sharded plans must be
// shape- and memory-consistent — shard slices partition the full batch,
// activation and parameter tensors exactly; the per-device pinned-parameter
// accounting derived from the strategy's shard arithmetic alone matches
// `simulate`'s memory report; and `Strategy::validate` rejects shard vectors
// that still weight a removed device (the elastic repair invariant).
// ---------------------------------------------------------------------------

mod shard_props {
    use super::*;
    use heterog_cluster::{paper_testbed_4gpu, DeviceId};
    use heterog_compile::{
        compile, lower::OPTIMIZER_STATE_FACTOR, OpStrategy, Strategy as PlanStrategy, StrategyError,
    };
    use heterog_graph::{proportional_split, Graph};
    use heterog_profile::GroundTruthCost;
    use heterog_sim::memory_usage;

    /// A random shard-weight vector over the 4-GPU testbed; at least one
    /// device must own a slice (the all-zero vector is invalid by
    /// construction, tested separately below).
    fn arb_shards(rng: &mut ChaCha8Rng) -> Vec<u32> {
        let mut w: Vec<u32> = (0..4).map(|_| rng.gen_range(0..4) as u32).collect();
        if w.iter().all(|&x| x == 0) {
            w[0] = 1;
        }
        w
    }

    /// Mirrors the placement/lowering shard arithmetic to predict, from
    /// the strategy alone, how many pinned parameter (+optimizer-state)
    /// bytes each device must report: splittable param ops with >=2
    /// nonzero-share participants pin `proportional_split` slices of the
    /// parameters; everything else collapses to one full pin on the
    /// heaviest-weighted device.
    fn expected_param_pins(g: &Graph, shards: &[u32], num_devices: usize) -> Vec<u64> {
        let mut out = vec![0u64; num_devices];
        let participants: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, _)| i)
            .collect();
        for (_, node) in g.iter() {
            if node.param_bytes == 0 {
                continue;
            }
            let full_pin = node.param_bytes * OPTIMIZER_STATE_FACTOR;
            if participants.is_empty() {
                out[0] += full_pin;
                continue;
            }
            if !node.batch_splittable || participants.len() == 1 {
                let best = shards
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &w)| (w, std::cmp::Reverse(i)))
                    .map(|(i, _)| i)
                    .unwrap();
                out[best] += full_pin;
                continue;
            }
            let active: Vec<u64> = participants.iter().map(|&i| shards[i] as u64).collect();
            let shares = proportional_split(g.batch_size, &active);
            let reps: Vec<(usize, u64)> = participants
                .iter()
                .copied()
                .zip(shares)
                .filter(|&(_, s)| s > 0)
                .collect();
            match reps.len() {
                0 => out[0] += full_pin,
                1 => out[reps[0].0] += full_pin,
                _ => {
                    let shard_shares: Vec<u64> = reps.iter().map(|r| r.1).collect();
                    let slices = proportional_split(node.param_bytes, &shard_shares);
                    for (&(d, _), slice) in reps.iter().zip(&slices) {
                        out[d] += slice * OPTIMIZER_STATE_FACTOR;
                    }
                }
            }
        }
        out
    }

    /// The single source of shard sizing: slices partition the total
    /// exactly, one slice per weight, and (given any positive weight)
    /// zero-weight entries own nothing.
    #[test]
    fn proportional_split_partitions_exactly() {
        prop::check(32, 0x31, |rng| {
            let total = rng.gen_range(0..1_000_000) as u64;
            let weights = prop::vec(rng, 1..12, |rng| rng.gen_range(0..16) as u64);
            let parts = proportional_split(total, &weights);
            assert_eq!(parts.len(), weights.len());
            assert_eq!(parts.iter().sum::<u64>(), total);
            if weights.iter().any(|&w| w > 0) {
                for (i, &w) in weights.iter().enumerate() {
                    if w == 0 {
                        assert_eq!(parts[i], 0, "zero weight {i} owns a slice");
                    }
                }
            }
        });
    }

    /// Sharded plans are shape-consistent after lowering: per op, the
    /// task batch shares sum to the global batch, the forward output
    /// slices sum to the full activation, and the pinned parameter
    /// slices partition the parameters (x optimizer state) exactly
    /// once — not once per device as DP replication would.
    #[test]
    fn shard_slices_partition_batch_outputs_and_params() {
        prop::check(32, 0x32, |rng| {
            let g = super::compile_props::arb_training_graph(rng);
            let shards = arb_shards(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::uniform(g.len(), OpStrategy::Shard { dim: 0, shards });
            assert!(s.validate(&cluster).is_ok());
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            for (id, node) in g.iter() {
                let tasks: Vec<_> = tg.iter().filter(|(_, t)| t.origin == Some(id)).collect();
                assert!(!tasks.is_empty(), "op {} lost in lowering", &node.name);
                if node.batch_splittable {
                    let total: u64 = tasks.iter().map(|(_, t)| t.batch_share).sum();
                    assert_eq!(total, g.batch_size, "batch not conserved at {}", &node.name);
                }
                if node.kind == OpKind::MatMul && node.phase == heterog_graph::Phase::Forward {
                    let out: u64 = tasks.iter().map(|(_, t)| t.output_bytes).sum();
                    assert_eq!(
                        out,
                        node.output.bytes(g.batch_size),
                        "output slices of {} do not partition the activation",
                        &node.name
                    );
                }
                if node.param_bytes > 0 {
                    let pinned: u64 = tasks.iter().map(|(_, t)| t.param_bytes).sum();
                    assert_eq!(
                        pinned,
                        node.param_bytes * OPTIMIZER_STATE_FACTOR,
                        "param slices of {} do not partition the parameters",
                        &node.name
                    );
                }
            }
        });
    }

    /// Per-device memory accounting: the pinned parameter bytes that
    /// `simulate`'s memory report attributes to each device equal the
    /// prediction computed from the strategy's shard arithmetic alone,
    /// and every device's peak covers its pins.
    #[test]
    fn shard_memory_accounting_matches_simulate() {
        prop::check(32, 0x33, |rng| {
            let g = super::compile_props::arb_training_graph(rng);
            let shards = arb_shards(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::uniform(
                g.len(),
                OpStrategy::Shard {
                    dim: 0,
                    shards: shards.clone(),
                },
            );
            let tg = compile(&g, &cluster, &GroundTruthCost, &s);
            let sched = list_schedule(&tg, &OrderPolicy::RankBased);
            let mem = memory_usage(&tg, &sched, &cluster.memory_capacities());
            let expected = expected_param_pins(&g, &shards, cluster.num_devices());
            assert_eq!(
                &mem.param_bytes, &expected,
                "per-device param accounting diverged from the strategy arithmetic"
            );
            for d in 0..cluster.num_devices() {
                assert!(mem.peak_bytes[d] >= mem.param_bytes[d]);
            }
        });
    }

    /// The elastic repair invariant: a shard vector that was valid on
    /// the full testbed must be rejected once a device it references
    /// is removed — naming the removed device when it still owns a
    /// slice, and the length mismatch otherwise. The all-zero vector
    /// is rejected outright.
    #[test]
    fn validate_rejects_shards_on_removed_devices() {
        prop::check(32, 0x34, |rng| {
            let g = super::compile_props::arb_training_graph(rng);
            let shards = arb_shards(rng);
            let cluster = paper_testbed_4gpu();
            let s = PlanStrategy::uniform(
                g.len(),
                OpStrategy::Shard {
                    dim: 0,
                    shards: shards.clone(),
                },
            );
            assert!(s.validate(&cluster).is_ok());
            let shrunk = cluster.without_device(DeviceId(3));
            let err = s.validate(&shrunk);
            assert!(err.is_err(), "shard vector for 4 devices accepted on 3");
            match err.unwrap_err() {
                StrategyError::ShardDeviceMissing { device, .. } => {
                    assert!(shards[3] > 0, "named a device that owned no slice");
                    assert_eq!(device, DeviceId(3));
                }
                StrategyError::ShardLengthMismatch { len, devices, .. } => {
                    assert_eq!(shards[3], 0, "missing device not named");
                    assert_eq!(len, 4);
                    assert_eq!(devices, 3);
                }
                other => panic!("unexpected error {other:?}"),
            }
            let zeros = PlanStrategy::uniform(
                g.len(),
                OpStrategy::Shard {
                    dim: 0,
                    shards: vec![0; 4],
                },
            );
            if !g.is_empty() {
                assert_eq!(
                    zeros.validate(&cluster),
                    Err(StrategyError::NoShards { op: 0 })
                );
            }
        });
    }
}

mod incremental_props {
    use super::*;
    use heterog_cluster::{paper_testbed_4gpu, Cluster, DeviceId, GpuModel, LinkKind};
    use heterog_compile::{CommMethod, OpStrategy, Strategy as PlanStrategy};
    use heterog_profile::GroundTruthCost;
    use heterog_sim::ResimOptions;
    use heterog_strategies::{
        evaluate_with_policy, Evaluation, IncrementalEvaluator, Perturbation,
    };

    const KINDS: [LinkKind; 4] = [
        LinkKind::NvLink,
        LinkKind::Pcie,
        LinkKind::NicOut,
        LinkKind::NicIn,
    ];
    const MODELS: [GpuModel; 4] = [
        GpuModel::TeslaV100,
        GpuModel::TeslaP100,
        GpuModel::Gtx1080Ti,
        GpuModel::TeslaK80,
    ];

    /// One owned perturbation drawn per case; realized against a
    /// concrete graph/cluster inside the test.
    #[derive(Debug, Clone)]
    enum PertSpec {
        /// Scale one link class (or all links) by a factor.
        ScaleLink(Option<usize>, f64),
        /// Swap one device's GPU model.
        SwapModel(usize, usize),
        /// Replace the strategy (choices indexed modulo their length).
        Strategy(Vec<usize>),
        /// Flip the order policy (true = FIFO).
        Policy(bool),
        /// Cluster and strategy changed together.
        Combined(usize, usize, Vec<usize>),
    }

    fn arb_choices(rng: &mut ChaCha8Rng) -> Vec<usize> {
        prop::vec(rng, 1..24, |rng| rng.gen_range(0..8))
    }

    fn arb_pert(rng: &mut ChaCha8Rng) -> PertSpec {
        match rng.gen_range(0..5) {
            0 => {
                let kind = prop::weighted(rng, 0.5).then(|| rng.gen_range(0..4));
                PertSpec::ScaleLink(kind, rng.gen_range(0.25..2.0))
            }
            1 => PertSpec::SwapModel(rng.gen_range(0..4), rng.gen_range(0..4)),
            2 => PertSpec::Strategy(arb_choices(rng)),
            3 => PertSpec::Policy(prop::weighted(rng, 0.5)),
            _ => PertSpec::Combined(rng.gen_range(0..4), rng.gen_range(0..4), arb_choices(rng)),
        }
    }

    /// Realizes raw action choices as a per-op strategy over the 4-GPU
    /// testbed's 8-way action space.
    fn strategy_from(cluster: &Cluster, num_ops: usize, choices: &[usize]) -> PlanStrategy {
        let per_op = (0..num_ops)
            .map(|i| match choices[i % choices.len()] {
                c @ 0..=3 => OpStrategy::Mp(DeviceId(c as u32)),
                4 => OpStrategy::even(cluster, CommMethod::Ps),
                5 => OpStrategy::even(cluster, CommMethod::AllReduce),
                6 => OpStrategy::proportional(cluster, CommMethod::Ps),
                _ => OpStrategy::proportional(cluster, CommMethod::AllReduce),
            })
            .collect();
        PlanStrategy::from_per_op(per_op)
    }

    fn assert_bits_eq(got: &Evaluation, want: &Evaluation) {
        assert_eq!(got.iteration_time.to_bits(), want.iteration_time.to_bits());
        assert_eq!(got.oom, want.oom);
        assert_eq!(
            got.report.schedule.makespan.to_bits(),
            want.report.schedule.makespan.to_bits()
        );
        assert_eq!(
            &got.report.memory.peak_bytes,
            &want.report.memory.peak_bytes
        );
        for (a, b) in got.report.gpu_busy.iter().zip(&want.report.gpu_busy) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Each case pays one full evaluation per perturbed query for the
    // reference result, so keep the case count modest.

    /// Random perturbation sequences served incrementally match the
    /// full pipeline bit for bit, across checkpoint spacings
    /// (boundary cases included) and fallback thresholds (0.0 =
    /// always fall back, 1.0 = never).
    #[test]
    fn perturbation_sequences_are_bit_identical() {
        prop::check(12, 0x41, |rng| {
            let g = super::compile_props::arb_training_graph(rng);
            let specs = prop::vec(rng, 1..5, arb_pert);
            let ckpt = [0.02, 0.125, 0.5, 1.0][rng.gen_range(0..4)];
            let fallback = [0.0, 0.35, 1.0][rng.gen_range(0..3)];
            let cluster = paper_testbed_4gpu();
            let cost = GroundTruthCost;
            let base_s = PlanStrategy::even(g.len(), &cluster, CommMethod::AllReduce);
            let policy = OrderPolicy::RankBased;
            let opts = ResimOptions {
                checkpoint_interval_frac: ckpt,
                fallback_dirty_frac: fallback,
            };
            let ev =
                IncrementalEvaluator::with_options(&g, &cost, &cluster, &base_s, &policy, opts);
            assert_bits_eq(
                ev.base(),
                &evaluate_with_policy(&g, &cluster, &cost, &base_s, &policy),
            );
            for spec in &specs {
                match spec {
                    PertSpec::ScaleLink(kind, factor) => {
                        let c2 = cluster.with_scaled_link(kind.map(|k| KINDS[k]), *factor);
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
                        let want = evaluate_with_policy(&g, &c2, &cost, &base_s, &policy);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::SwapModel(dev, model) => {
                        let c2 = cluster.with_device_model(DeviceId(*dev as u32), MODELS[*model]);
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
                        let want = evaluate_with_policy(&g, &c2, &cost, &base_s, &policy);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::Strategy(choices) => {
                        let s2 = strategy_from(&cluster, g.len(), choices);
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Strategy(&s2));
                        let want = evaluate_with_policy(&g, &cluster, &cost, &s2, &policy);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::Policy(fifo) => {
                        let p2 = if *fifo {
                            OrderPolicy::Fifo
                        } else {
                            OrderPolicy::RankBased
                        };
                        let (got, _) = ev.evaluate_perturbed(Perturbation::Policy(&p2));
                        let want = evaluate_with_policy(&g, &cluster, &cost, &base_s, &p2);
                        assert_bits_eq(&got, &want);
                    }
                    PertSpec::Combined(dev, model, choices) => {
                        let c2 = cluster.with_device_model(DeviceId(*dev as u32), MODELS[*model]);
                        let s2 = strategy_from(&c2, g.len(), choices);
                        let (got, _) =
                            ev.evaluate_perturbed(Perturbation::ClusterAndStrategy(&c2, &s2));
                        let want = evaluate_with_policy(&g, &c2, &cost, &s2, &policy);
                        assert_bits_eq(&got, &want);
                    }
                }
            }
        });
    }

    /// Re-anchoring mid-sequence preserves bit-identity: rebase onto
    /// a perturbed strategy, then query around the new anchor.
    #[test]
    fn rebase_preserves_bit_identity() {
        prop::check(12, 0x42, |rng| {
            let g = super::compile_props::arb_training_graph(rng);
            let choices = arb_choices(rng);
            let factor = rng.gen_range(0.25..2.0);
            let cluster = paper_testbed_4gpu();
            let cost = GroundTruthCost;
            let base_s = PlanStrategy::even(g.len(), &cluster, CommMethod::Ps);
            let policy = OrderPolicy::RankBased;
            let mut ev = IncrementalEvaluator::new(&g, &cost, &cluster, &base_s, &policy);
            let s2 = strategy_from(&cluster, g.len(), &choices);
            ev.rebase(&cluster, &s2, &policy);
            assert_bits_eq(
                ev.base(),
                &evaluate_with_policy(&g, &cluster, &cost, &s2, &policy),
            );
            let c2 = cluster.with_scaled_link(None, factor);
            let (got, _) = ev.evaluate_perturbed(Perturbation::Cluster(&c2));
            let want = evaluate_with_policy(&g, &c2, &cost, &s2, &policy);
            assert_bits_eq(&got, &want);
        });
    }
}

// ---- eval-cache concurrency ----------------------------------------------

mod cache_props {
    use super::*;
    use std::sync::Arc;

    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_strategies::{evaluate, CpArPlanner, EvalCache, Planner};

    /// Hammering one cache from several threads over a random set of
    /// contexts must (a) return bit-identical results to a fresh
    /// evaluation, and (b) account every lookup as a hit or a miss with
    /// each context resident exactly once.
    #[test]
    fn concurrent_lookups_stay_coherent() {
        prop::check(4, 0x5A4D, |rng| {
            let nbatches = rng.gen_range(1..4);
            let seed = rng.gen_range(0..1000) as u64;
            let threads = rng.gen_range(2..4);
            // Derive `nbatches` distinct batch sizes from the seed
            // (7 is coprime to 31, so the residues never collide).
            let batches: Vec<u64> = (0..nbatches as u64)
                .map(|i| 8 * (1 + (seed + 7 * i) % 31))
                .collect();
            let cluster = paper_testbed_8gpu();
            let cache = Arc::new(EvalCache::with_capacity(16));

            let mut fresh = Vec::new();
            for &b in &batches {
                let g = ModelSpec::new(BenchmarkModel::Vgg19, b).build();
                let s = CpArPlanner.plan(&g, &cluster, &GroundTruthCost);
                let e = evaluate(&g, &cluster, &GroundTruthCost, &s);
                fresh.push((g, s, e));
            }
            let fresh = Arc::new(fresh);

            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let cluster = cluster.clone();
                    let fresh = Arc::clone(&fresh);
                    std::thread::spawn(move || {
                        for (g, s, expected) in fresh.iter() {
                            let got = cache.evaluate(g, &cluster, &GroundTruthCost, s);
                            assert_eq!(
                                got.iteration_time.to_bits(),
                                expected.iteration_time.to_bits(),
                                "cached evaluation must bit-match a fresh one"
                            );
                            assert_eq!(got.oom, expected.oom);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }

            // Every lookup is accounted as a hit or a miss, and each
            // context is resident once. Threads racing on the first
            // lookup of a context may each record a miss, so the miss
            // count is bounded, not exact.
            let total = (threads * batches.len()) as u64;
            assert_eq!(cache.hits() + cache.misses(), total);
            assert_eq!(cache.contexts(), batches.len());
            assert!(cache.misses() >= batches.len() as u64);
            assert!(cache.misses() <= total);
            assert_eq!(cache.hits(), total - cache.misses());
        });
    }
}
