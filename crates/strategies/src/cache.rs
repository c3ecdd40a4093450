//! Strategy-evaluation cache.
//!
//! Every planner and the RL agent score candidate strategies through the
//! same compile→schedule→simulate pipeline, and searches revisit
//! strategies constantly: MCMC proposals walk back over earlier states,
//! CEM elites recur across rounds, and the RL agent's sampled placements
//! collapse onto a small set of distinct strategies once the policy
//! sharpens. Caching `(graph, cluster, strategy) -> Evaluation` turns
//! all of those repeats into hash lookups.
//!
//! Keys combine the graph's identity (name, op count, batch size), the
//! cluster's structural [`fingerprint`](heterog_cluster::Cluster::fingerprint),
//! and the strategy's own hash; buckets store `(Strategy, Evaluation)`
//! pairs and compare strategies by equality, so hash collisions can
//! never return a wrong evaluation. The map is guarded by a `Mutex` and
//! hit/miss counters are atomic: batched rollouts probe it from worker
//! threads concurrently. Misses are computed *outside* the lock —
//! concurrent misses on the same key may both evaluate (the pipeline is
//! deterministic, so both compute the identical value and the second
//! insert is a no-op).
//!
//! The cache is bounded per *context* (one context = one
//! graph/cluster-fingerprint/policy combination): the elastic runtime
//! re-plans on a mutated cluster after every fault, and each mutation
//! has a fresh fingerprint, so an unbounded cache would accumulate one
//! dead context per fault forever. When the number of distinct contexts
//! exceeds the capacity, the oldest-inserted context's entries are
//! evicted wholesale. Hit/miss counters are monotone and unaffected by
//! eviction (an evicted entry simply misses again).

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use heterog_cluster::Cluster;
use heterog_compile::Strategy;
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::OrderPolicy;

use crate::evaluate::{evaluate_with_policy, Evaluation};

static CACHE_HITS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_eval_cache_hits_total",
    "Strategy evaluations served from the cache",
);
static CACHE_MISSES: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_eval_cache_misses_total",
    "Strategy evaluations computed on cache miss",
);
static CACHE_EVICTIONS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_strategies_eval_cache_evicted_contexts_total",
    "Whole evaluation contexts evicted when the cache hit capacity",
);

// Process-global totals across every cache instance, always on (not
// gated on `HETEROG_TELEMETRY`) — surfaced by explain-report footers
// via [`crate::evaluate::eval_stats`].
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_EVICTIONS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn global_cache_totals() -> (u64, u64, u64) {
    (
        GLOBAL_HITS.load(Ordering::Relaxed),
        GLOBAL_MISSES.load(Ordering::Relaxed),
        GLOBAL_EVICTIONS.load(Ordering::Relaxed),
    )
}

/// Contexts a default-constructed cache holds before evicting. One
/// context per (graph, cluster fingerprint, order policy); a planner
/// run uses one, an elastic run uses one per cluster mutation. 64 is
/// far above any run in the repo while still bounding a fault-storm.
pub const DEFAULT_CONTEXT_CAPACITY: usize = 64;

#[derive(Debug, Default)]
struct CacheInner {
    /// `hash(context, strategy)` -> strategies sharing that hash. The
    /// equality check on the stored strategy makes collisions harmless.
    map: HashMap<u64, Vec<(Strategy, Evaluation)>>,
    /// Every full key inserted under a given context, for eviction.
    ctx_keys: HashMap<u64, Vec<u64>>,
    /// Contexts in insertion order; front is evicted first.
    ctx_order: VecDeque<u64>,
}

/// A concurrent, bounded memo of strategy evaluations for one or more
/// (graph, cluster) contexts.
#[derive(Debug)]
pub struct EvalCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CONTEXT_CAPACITY)
    }
}

/// 64-bit key context: what besides the strategy determines the result.
fn context_key(g: &Graph, cluster: &Cluster, policy: &OrderPolicy) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    g.name.hash(&mut h);
    g.len().hash(&mut h);
    g.batch_size.hash(&mut h);
    cluster.fingerprint().hash(&mut h);
    std::mem::discriminant(policy).hash(&mut h);
    if let OrderPolicy::Priorities(p) = policy {
        for v in p {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

fn full_key(ctx: u64, strategy: &Strategy) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ctx.hash(&mut h);
    strategy.hash(&mut h);
    h.finish()
}

impl EvalCache {
    /// An empty cache holding up to [`DEFAULT_CONTEXT_CAPACITY`]
    /// contexts.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `contexts` distinct
    /// (graph, cluster, policy) contexts (minimum 1). When a new
    /// context would exceed the bound, the oldest-inserted context's
    /// entries are dropped.
    pub fn with_capacity(contexts: usize) -> Self {
        EvalCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: contexts.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum distinct contexts retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cached [`crate::evaluate`]: rank-based order policy.
    pub fn evaluate<C: CostEstimator>(
        &self,
        g: &Graph,
        cluster: &Cluster,
        cost: &C,
        strategy: &Strategy,
    ) -> Evaluation {
        self.evaluate_with_policy(g, cluster, cost, strategy, &OrderPolicy::RankBased)
    }

    /// Cached [`crate::evaluate_with_policy`].
    pub fn evaluate_with_policy<C: CostEstimator>(
        &self,
        g: &Graph,
        cluster: &Cluster,
        cost: &C,
        strategy: &Strategy,
        policy: &OrderPolicy,
    ) -> Evaluation {
        let ctx = context_key(g, cluster, policy);
        let key = full_key(ctx, strategy);
        if let Some(hit) = self.lookup(key, strategy) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.inc();
            return hit;
        }
        // Compute outside the lock: evaluations are orders of magnitude
        // slower than the map operations, and they are deterministic, so
        // a racing duplicate computation is wasteful but never wrong.
        let eval = evaluate_with_policy(g, cluster, cost, strategy, policy);
        self.misses.fetch_add(1, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.inc();
        let mut inner = self.inner.lock().expect("eval cache poisoned");
        if !inner.ctx_keys.contains_key(&ctx) {
            while inner.ctx_order.len() >= self.capacity {
                let oldest = inner.ctx_order.pop_front().expect("order tracks ctx_keys");
                for k in inner.ctx_keys.remove(&oldest).unwrap_or_default() {
                    inner.map.remove(&k);
                }
                CACHE_EVICTIONS.inc();
                GLOBAL_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
            inner.ctx_order.push_back(ctx);
        }
        let bucket = inner.map.entry(key).or_default();
        if !bucket.iter().any(|(s, _)| s == strategy) {
            bucket.push((strategy.clone(), eval.clone()));
            inner.ctx_keys.entry(ctx).or_default().push(key);
        }
        eval
    }

    fn lookup(&self, key: u64, strategy: &Strategy) -> Option<Evaluation> {
        let inner = self.inner.lock().expect("eval cache poisoned");
        inner
            .map
            .get(&key)?
            .iter()
            .find(|(s, _)| s == strategy)
            .map(|(_, e)| e.clone())
    }

    /// Evaluations served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluations computed fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct strategies currently stored (shrinks on eviction).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("eval cache poisoned")
            .map
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Distinct (graph, cluster, policy) contexts currently resident.
    pub fn contexts(&self) -> usize {
        self.inner
            .lock()
            .expect("eval cache poisoned")
            .ctx_order
            .len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of evaluations served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::topology::uniform_cluster;
    use heterog_cluster::{paper_testbed_8gpu, GpuModel};
    use heterog_compile::CommMethod;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    fn mobilenet() -> Graph {
        ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build()
    }

    #[test]
    fn hit_and_miss_counters_track_reuse() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let cache = EvalCache::new();
        let s1 = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let s2 = Strategy::even(g.len(), &c, CommMethod::Ps);
        cache.evaluate(&g, &c, &GroundTruthCost, &s1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.evaluate(&g, &c, &GroundTruthCost, &s1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.evaluate(&g, &c, &GroundTruthCost, &s2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        cache.evaluate(&g, &c, &GroundTruthCost, &s2);
        cache.evaluate(&g, &c, &GroundTruthCost, &s1);
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.contexts(), 1);
        assert!((cache.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn cached_result_equals_fresh_evaluation() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let cache = EvalCache::new();
        let s = Strategy::proportional(g.len(), &c, CommMethod::Ps);
        let fresh = crate::evaluate(&g, &c, &GroundTruthCost, &s);
        let miss = cache.evaluate(&g, &c, &GroundTruthCost, &s);
        let hit = cache.evaluate(&g, &c, &GroundTruthCost, &s);
        for e in [&miss, &hit] {
            assert_eq!(e.iteration_time.to_bits(), fresh.iteration_time.to_bits());
            assert_eq!(e.oom, fresh.oom);
            assert_eq!(
                e.report.schedule.makespan.to_bits(),
                fresh.report.schedule.makespan.to_bits()
            );
            assert_eq!(e.report.memory.peak_bytes, fresh.report.memory.peak_bytes);
        }
    }

    #[test]
    fn distinct_clusters_never_share_entries() {
        let g = mobilenet();
        let fast = uniform_cluster(GpuModel::TeslaV100, 8, 4, 10e9);
        let slow = uniform_cluster(GpuModel::TeslaV100, 8, 4, 1e9);
        let cache = EvalCache::new();
        let s = Strategy::even(g.len(), &fast, CommMethod::AllReduce);
        let on_fast = cache.evaluate(&g, &fast, &GroundTruthCost, &s);
        // Same graph, same strategy, different hardware: must be a miss
        // and must produce the slow cluster's own (different) time.
        let on_slow = cache.evaluate(&g, &slow, &GroundTruthCost, &s);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.contexts(), 2);
        assert!(
            on_slow.iteration_time > on_fast.iteration_time,
            "slow NIC must simulate slower: {} vs {}",
            on_slow.iteration_time,
            on_fast.iteration_time
        );
    }

    #[test]
    fn distinct_order_policies_never_share_entries() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let cache = EvalCache::new();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        cache.evaluate_with_policy(&g, &c, &GroundTruthCost, &s, &OrderPolicy::RankBased);
        cache.evaluate_with_policy(&g, &c, &GroundTruthCost, &s, &OrderPolicy::Fifo);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn capacity_evicts_oldest_context_and_keeps_counters_correct() {
        let g = mobilenet();
        let c1 = uniform_cluster(GpuModel::TeslaV100, 4, 4, 10e9);
        let c2 = uniform_cluster(GpuModel::TeslaV100, 4, 4, 5e9);
        let c3 = uniform_cluster(GpuModel::TeslaV100, 4, 4, 1e9);
        let cache = EvalCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let s = Strategy::even(g.len(), &c1, CommMethod::AllReduce);

        cache.evaluate(&g, &c1, &GroundTruthCost, &s); // miss, ctx1 in
        cache.evaluate(&g, &c2, &GroundTruthCost, &s); // miss, ctx2 in
        assert_eq!(cache.contexts(), 2);
        cache.evaluate(&g, &c3, &GroundTruthCost, &s); // miss, evicts ctx1
        assert_eq!(cache.contexts(), 2);
        assert_eq!(cache.len(), 2, "evicted context's entries are gone");

        // ctx2 and ctx3 survived: both hit.
        cache.evaluate(&g, &c2, &GroundTruthCost, &s);
        cache.evaluate(&g, &c3, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (2, 3));

        // ctx1 was evicted: same inputs miss again, and the fresh value
        // still equals a direct evaluation (eviction never corrupts).
        let fresh = crate::evaluate(&g, &c1, &GroundTruthCost, &s);
        let re = cache.evaluate(&g, &c1, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
        assert_eq!(re.iteration_time.to_bits(), fresh.iteration_time.to_bits());
        // Re-inserting ctx1 evicted the then-oldest ctx2.
        assert_eq!(cache.contexts(), 2);
        cache.evaluate(&g, &c2, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (2, 5));
    }
}
