//! Bench-regression gate: diff a fresh bench artifact against the
//! committed baseline and fail on a large regression.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json> [--max-regression 0.25]
//! ```
//!
//! Four artifact kinds are recognized by their fields:
//!
//! * **eval-throughput** (`BENCH_eval_throughput.json`) — compares the
//!   throughput fields (`serial_evals_per_sec`,
//!   `batched_cached_evals_per_sec`) and the derived `speedup`.
//! * **strategy-space** (`BENCH_strategy_space.json`, detected by its
//!   `wins` field) — gates on `wins` (models where the widened
//!   Shard/Pipeline space beats the best replicate/MP-only plan) and
//!   `mean_improvement_pct`. These come from the deterministic
//!   simulator, so any drop is a planner/lowering change, not noise.
//! * **elastic-recovery** (`BENCH_elastic_recovery.json`, detected by
//!   its `policies` field) — gates per model on summed `repair_evals`
//!   (*higher* is worse: repairs getting more expensive) and on the
//!   `migrate_below_replan` bit flipping true→false. Models present in
//!   only one artifact (a smoke run covers fewer models than the
//!   committed full baseline) print "(new, skipped)" instead of
//!   failing; the cross-model `migrate_faster_models` count is
//!   informational for the same reason.
//! * **archive-overhead** (`BENCH_archive_overhead.json`, detected by
//!   its `overhead_pct` field) — gates on `overhead_pct` (*higher* is
//!   worse: the archiver eating into planning time). A baseline without
//!   the field prints "(new, skipped)", so the gate can land before the
//!   baseline artifact does. Absolute ms/plan figures are machine-bound
//!   and stay informational.
//!
//! A fresh value more than `--max-regression` (default 25%) below the
//! baseline exits nonzero with a per-field report; improvements and
//! small noise pass. CI runs this as a *non-blocking* step — machine
//! throughput varies wildly across runners, so the gate informs rather
//! than merges-blocks, but the artifact diff is printed either way.
//!
//! Run: `cargo run --release -p heterog-bench --bin bench_compare -- \
//!       BENCH_eval_throughput.json fresh.json`

use std::process::ExitCode;

/// Throughput-style fields where *lower is worse*: gate on these.
const GATED: [&str; 3] = [
    "serial_evals_per_sec",
    "batched_cached_evals_per_sec",
    "speedup",
];

/// Newer throughput fields, gated only when the baseline has them too.
/// Baselines written before the perturbation-workload section lack
/// these keys; a missing baseline entry prints "(new, skipped)" instead
/// of failing, so old artifacts stay diffable.
const GATED_OPTIONAL: [&str; 3] = [
    "perturbation_full_evals_per_sec",
    "perturbation_incremental_evals_per_sec",
    "perturbation_speedup",
];

/// Context fields echoed in the report but never gated.
const INFORMATIONAL: [&str; 5] = [
    "total_evals",
    "threads",
    "cache_hit_rate",
    "cache_misses",
    "perturbation_total_evals",
];

/// Strategy-space artifacts (`exp_strategy_space`): *lower is worse*.
const SS_GATED: [&str; 2] = ["wins", "mean_improvement_pct"];

/// Strategy-space context fields, never gated.
const SS_INFORMATIONAL: [&str; 1] = ["models"];

/// Archive-overhead artifacts: `overhead_pct` is *higher is worse*.
const ARCH_GATED_HIGHER: [&str; 1] = ["overhead_pct"];

/// Archive-overhead context fields (machine-bound wall clock).
const ARCH_INFORMATIONAL: [&str; 3] = [
    "plain_ms_per_plan",
    "archived_ms_per_plan",
    "events_per_run",
];

fn load(path: &str) -> Result<heterog_base::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    heterog_base::json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn num(v: &heterog_base::json::Value, key: &str) -> Option<f64> {
    v.get(key).and_then(heterog_base::json::Value::as_f64)
}

/// Compares elastic-recovery artifacts; returns whether a gated field
/// regressed. Per model: summed `repair_evals` (higher is worse) and
/// the `migrate_below_replan` bit (true→false is a regression). Models
/// missing from the baseline are skipped, so smoke artifacts stay
/// diffable against the committed full baseline.
fn compare_elastic(
    baseline: &heterog_base::json::Value,
    fresh: &heterog_base::json::Value,
    max_regression: f64,
) -> bool {
    use std::collections::HashMap;
    let arr = |v: &heterog_base::json::Value| -> Vec<heterog_base::json::Value> {
        v.get("models")
            .and_then(|m| m.as_array())
            .cloned()
            .unwrap_or_default()
    };
    let base_models: HashMap<String, heterog_base::json::Value> = arr(baseline)
        .into_iter()
        .filter_map(|m| Some((m.get("model")?.as_str()?.to_string(), m)))
        .collect();
    let sum_evals = |m: &heterog_base::json::Value| -> f64 {
        m.get("repair_evals")
            .and_then(|r| r.as_array())
            .map(|a| a.iter().filter_map(heterog_base::json::Value::as_f64).sum())
            .unwrap_or(0.0)
    };
    let mut failed = false;
    for m in arr(fresh) {
        let name = m
            .get("model")
            .and_then(|n| n.as_str())
            .unwrap_or("?")
            .to_string();
        let f_evals = sum_evals(&m);
        let key = format!("{name} repair_evals");
        let Some(b) = base_models.get(&name) else {
            println!(
                "{key:<32}{:>14}{f_evals:>14.3}{:>10}  (new, skipped)",
                "-", ""
            );
            continue;
        };
        let b_evals = sum_evals(b);
        // Higher is worse here: repairing got more expensive.
        let delta = if b_evals != 0.0 {
            (f_evals - b_evals) / b_evals
        } else if f_evals > 0.0 {
            1.0
        } else {
            0.0
        };
        let regressed = delta > max_regression;
        println!(
            "{key:<32}{b_evals:>14.3}{f_evals:>14.3}{:>9.1}%  {}",
            delta * 100.0,
            if regressed { "REGRESSED" } else { "ok" }
        );
        failed |= regressed;

        let key = format!("{name} migrate_below_replan");
        let bit = |v: &heterog_base::json::Value| {
            v.get("migrate_below_replan")
                .and_then(heterog_base::json::Value::as_bool)
                .unwrap_or(false)
        };
        let (b_bit, f_bit) = (bit(b), bit(&m));
        let regressed = b_bit && !f_bit;
        println!(
            "{key:<32}{b_bit:>14}{f_bit:>14}{:>10}  {}",
            "",
            if regressed { "REGRESSED" } else { "ok" }
        );
        failed |= regressed;
    }
    // Smoke and full artifacts cover different model counts, so the
    // aggregate migrate-wins count can only inform, never gate.
    if let (Some(b), Some(f)) = (
        num(baseline, "migrate_faster_models"),
        num(fresh, "migrate_faster_models"),
    ) {
        println!(
            "{:<32}{b:>14.3}{f:>14.3}{:>10}  (info)",
            "migrate_faster_models", ""
        );
    }
    failed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regression = 0.25_f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--max-regression" {
            let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                eprintln!("bad --max-regression value");
                return ExitCode::FAILURE;
            };
            max_regression = v;
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json> [--max-regression 0.25]");
        return ExitCode::FAILURE;
    };

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Artifact kind: elastic-recovery artifacts carry `policies`,
    // strategy-space artifacts carry `wins`, archive artifacts carry
    // `overhead_pct`, and eval throughput artifacts carry evals/sec
    // fields.
    let elastic = fresh.get("policies").is_some() || baseline.get("policies").is_some();
    let strategy_space = fresh.get("wins").is_some() || baseline.get("wins").is_some();
    let archive = fresh.get("overhead_pct").is_some() || baseline.get("overhead_pct").is_some();
    let (gated, gated_optional, gated_higher, informational): (&[&str], &[&str], &[&str], &[&str]) =
        if strategy_space {
            (&SS_GATED, &[], &[], &SS_INFORMATIONAL)
        } else if archive {
            (&[], &[], &ARCH_GATED_HIGHER, &ARCH_INFORMATIONAL)
        } else {
            (&GATED, &GATED_OPTIONAL, &[], &INFORMATIONAL)
        };

    println!("bench compare: {baseline_path} (baseline) vs {fresh_path} (fresh)");
    println!(
        "{:<32}{:>14}{:>14}{:>10}  verdict",
        "field", "baseline", "fresh", "delta"
    );

    if elastic {
        return if compare_elastic(&baseline, &fresh, max_regression) {
            eprintln!(
                "FAIL: gated fields regressed more than {:.0}% vs committed baseline",
                max_regression * 100.0
            );
            ExitCode::FAILURE
        } else {
            println!(
                "PASS: no gated field regressed more than {:.0}%",
                max_regression * 100.0
            );
            ExitCode::SUCCESS
        };
    }

    let mut failed = false;
    for &key in gated {
        let (Some(b), Some(f)) = (num(&baseline, key), num(&fresh, key)) else {
            println!("{key:<32}{:>14}{:>14}{:>10}  MISSING (fail)", "?", "?", "?");
            failed = true;
            continue;
        };
        let delta = if b != 0.0 { (f - b) / b } else { 0.0 };
        let regressed = delta < -max_regression;
        println!(
            "{key:<32}{b:>14.3}{f:>14.3}{:>9.1}%  {}",
            delta * 100.0,
            if regressed { "REGRESSED" } else { "ok" }
        );
        failed |= regressed;
    }
    for &key in gated_optional {
        let Some(f) = num(&fresh, key) else {
            continue;
        };
        let Some(b) = num(&baseline, key) else {
            println!("{key:<32}{:>14}{f:>14.3}{:>10}  (new, skipped)", "-", "");
            continue;
        };
        let delta = if b != 0.0 { (f - b) / b } else { 0.0 };
        let regressed = delta < -max_regression;
        println!(
            "{key:<32}{b:>14.3}{f:>14.3}{:>9.1}%  {}",
            delta * 100.0,
            if regressed { "REGRESSED" } else { "ok" }
        );
        failed |= regressed;
    }
    for &key in gated_higher {
        let Some(f) = num(&fresh, key) else {
            continue;
        };
        let Some(b) = num(&baseline, key) else {
            println!("{key:<32}{:>14}{f:>14.3}{:>10}  (new, skipped)", "-", "");
            continue;
        };
        // Higher is worse (e.g. archiver overhead growing). A baseline
        // near zero would make the relative delta explode, so fall back
        // to gating on the absolute rise there.
        let delta = if b.abs() > 1e-9 {
            (f - b) / b.abs()
        } else {
            f - b
        };
        let regressed = delta > max_regression;
        println!(
            "{key:<32}{b:>14.3}{f:>14.3}{:>9.1}%  {}",
            delta * 100.0,
            if regressed { "REGRESSED" } else { "ok" }
        );
        failed |= regressed;
    }
    for &key in informational {
        if let (Some(b), Some(f)) = (num(&baseline, key), num(&fresh, key)) {
            println!("{key:<32}{b:>14.3}{f:>14.3}{:>10}  (info)", "");
        }
    }

    if failed {
        eprintln!(
            "FAIL: gated fields regressed more than {:.0}% vs committed baseline",
            max_regression * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "PASS: no gated field regressed more than {:.0}%",
            max_regression * 100.0
        );
        ExitCode::SUCCESS
    }
}
