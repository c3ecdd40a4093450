//! Archive-overhead experiment: how much does the always-on run
//! archiver cost a planning invocation?
//!
//! Runs the same `get_runner` planning workload twice per repetition —
//! once with the event bus disabled (the `--no-archive` path) and once
//! with the bus enabled and a [`heterog::runs::RunArchiver`] pumping the
//! stream into a temp store, exactly as the CLI does by default — and
//! reports the wall-clock overhead. The acceptance target is <2%: the
//! archiver buffers in memory and writes once at exit, so the hot
//! planning loops only pay the bus's per-event cost.
//!
//! Every archived repetition is also loaded back and re-serialized to
//! prove the stream survives the store round trip bit-identically.
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_archive_overhead`
//! (add `--smoke` for a 2-rep CI-sized run). Writes
//! `BENCH_archive_overhead.json`.

use std::time::Instant;

use heterog::events as ev;
use heterog::runs::{ArchiveHandle, RunArchiver, RunStore, StoredEvaluation};
use heterog::{get_runner, HeterogConfig};
use heterog_base::json::{self, ToJson};
use heterog_cluster::paper_testbed_8gpu;
use heterog_graph::{BenchmarkModel, ModelSpec};

fn plan_once() -> f64 {
    let spec = ModelSpec::new(BenchmarkModel::MobileNetV2, 64);
    let runner = get_runner(
        || spec.build(),
        paper_testbed_8gpu(),
        HeterogConfig::quick(),
    );
    runner.run(1).per_iteration_s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps: u32 = if smoke { 2 } else { 5 };
    let store_root =
        std::env::temp_dir().join(format!("heterog-archive-overhead-{}", std::process::id()));
    std::fs::remove_dir_all(&store_root).ok();

    // Warm-up: fault in lazy statics and the allocator's working set.
    plan_once();

    let mut plain_s = 0.0;
    let mut archived_s = 0.0;
    let mut events_per_run = 0usize;
    let mut roundtrip_ok = true;

    for rep in 0..reps {
        // Plain: bus disabled, nothing observes the run.
        ev::reset();
        ev::disable();
        let t = Instant::now();
        let makespan_plain = plan_once();
        plain_s += t.elapsed().as_secs_f64();

        // Archived: bus on, archiver sink pumping, store written at exit
        // — the CLI's default path.
        ev::reset();
        ev::enable();
        let manifest = ev::RunManifest {
            command: "bench".into(),
            model: "mobilenet_v2".into(),
            planner: "heterog".into(),
            seed: rep as u64,
            events_capacity: ev::DEFAULT_CAPACITY,
            ..Default::default()
        };
        ev::set_manifest(manifest.clone());
        let handle = ArchiveHandle::new(&store_root, manifest);
        let sinks: Vec<Box<dyn ev::EventSink + Send>> =
            vec![Box::new(RunArchiver::new(handle.clone()))];
        let pump = ev::EventPump::spawn(sinks);
        let t = Instant::now();
        let makespan = plan_once();
        handle.set_evaluation(StoredEvaluation {
            outcome: "ok".into(),
            makespan,
            oom: false,
            samples_per_second: 0.0,
            wall_s: t.elapsed().as_secs_f64(),
        });
        handle.mark_finished("ok", makespan, false);
        pump.finish();
        archived_s += t.elapsed().as_secs_f64();
        ev::disable();
        ev::reset();
        ev::clear_manifest();

        assert!(
            (makespan - makespan_plain).abs() < 1e-12,
            "archiving must not change the planned makespan"
        );

        // Round trip: the stored stream, re-serialized, must reproduce
        // the file bit-for-bit (only provable when nothing was dropped).
        let store = RunStore::open(&store_root);
        let run = store
            .load(handle.run_id())
            .expect("archived run must load back");
        events_per_run = run.log.events.len();
        if run.log.missed == 0 {
            let mut rebuilt = String::new();
            rebuilt.push_str(&run.manifest().to_json());
            rebuilt.push('\n');
            for e in &run.log.events {
                rebuilt.push_str(&e.to_json_line());
                rebuilt.push('\n');
            }
            let on_disk = std::fs::read_to_string(run.dir.join(heterog::runs::EVENTS_FILE))
                .expect("events file");
            if rebuilt != on_disk {
                roundtrip_ok = false;
                eprintln!("round-trip mismatch in rep {rep}");
            }
        }
    }
    std::fs::remove_dir_all(&store_root).ok();
    assert!(roundtrip_ok, "store round trip must be bit-identical");

    let plain_ms = 1e3 * plain_s / reps as f64;
    let archived_ms = 1e3 * archived_s / reps as f64;
    let overhead_pct = 100.0 * (archived_ms - plain_ms) / plain_ms;
    println!("archive overhead ({reps} reps, mobilenet_v2 quick plan):");
    println!("  plain:    {plain_ms:.2} ms/plan");
    println!("  archived: {archived_ms:.2} ms/plan ({events_per_run} events/run)");
    println!("  overhead: {overhead_pct:+.2}%  (target < 2%)");

    let doc = json::obj([
        ("smoke", smoke.to_json()),
        ("reps", reps.to_json()),
        ("plain_ms_per_plan", plain_ms.to_json()),
        ("archived_ms_per_plan", archived_ms.to_json()),
        ("overhead_pct", overhead_pct.to_json()),
        ("events_per_run", events_per_run.to_json()),
        ("roundtrip_bit_identical", roundtrip_ok.to_json()),
    ]);
    heterog_bench::write_bench("BENCH_archive_overhead.json", &doc);
}
