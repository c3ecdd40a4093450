//! Seeded fuzz-style tests for every parser of outside input: the JSON
//! parser itself, cluster specs, run manifests, explain artifacts and
//! event streams. Each valid sample is truncated,
//! corrupted with bytes that are never valid JSON at any position, replaced
//! by random bytes, or nested far too deep; every such case must come back
//! as an error (for the event reader: a truncated, prefix-only decode), and
//! none may panic.

use heterog::cluster::ClusterSpec;
use heterog::events::{parse_jsonl, RunManifest};
use heterog::explain::digest_from_json;
use heterog_base::json;
use heterog_base::rng::ChaCha8Rng;

const CLUSTER: &str = r#"{"servers": [{"name": "v100-box", "nic_gbps": 100.0, "nvlink": true, "gpus": ["V100", "V100"]}, {"name": "gtx", "nic_gbps": 50, "gpus": ["1080Ti"]}]}"#;

const MANIFEST: &str = r#"{"type":"manifest","command":"plan","argv":["heterog-cli","plan","--model","vgg19"],"model":"vgg19","batch_size":64,"cluster_fingerprint":12345678901234567890,"num_devices":8,"planner":"heterog","seed":7,"version":"0.1.0","started_unix":1700000000,"events_capacity":4096}"#;

const EXPLAIN: &str = r#"{"model": "vgg19", "makespan": 0.5, "mean_gpu_utilization": 0.75, "oom": false, "attribution": {"compute": 0.3, "collective": 0.1, "transfer": 0.05, "idle": 0.05}, "devices": [{"id": 0, "utilization": 0.9}, {"id": 1, "utilization": 0.6}]}"#;

/// A plan-request-shaped object: strings, numbers and a bool around a
/// nested cluster spec.
const PLAN_BODY: &str = r#"{"tenant": "alice", "model": "mobilenet", "batch": 64, "planner": "CP-AR", "cluster": {"servers": [{"name": "a", "nic_gbps": 10, "gpus": ["V100", "P100"]}]}, "wait": true}"#;

/// Bytes that are invalid at every position of a JSON text: control
/// characters other than JSON whitespace (never allowed raw, inside or
/// outside strings). All are ASCII, so the input stays UTF-8.
const POISON: [u8; 6] = [0x00, 0x01, 0x08, 0x0b, 0x0c, 0x1f];

/// The malformed variants of one valid sample, drawn from `rng`.
fn mutants(rng: &mut ChaCha8Rng, sample: &str) -> Vec<String> {
    let bytes = sample.as_bytes();
    let mut out = Vec::new();
    // Every strict prefix (the samples are objects, so no strict prefix
    // closes them).
    for cut in 0..bytes.len() {
        out.push(sample[..cut].to_string());
    }
    // Poison bytes written over or inserted at random positions.
    for _ in 0..200 {
        let at = rng.gen_range(0..bytes.len());
        let poison = POISON[rng.gen_range(0..POISON.len())];
        let mut flipped = bytes.to_vec();
        if rng.gen_range(0..2) == 0 {
            flipped[at] = poison;
        } else {
            flipped.insert(at, poison);
        }
        out.push(String::from_utf8(flipped).expect("ASCII samples stay UTF-8"));
    }
    // Random printable garbage behind a valid-looking opener; the final
    // `~` can neither close nor trail a document.
    for _ in 0..100 {
        let len = rng.gen_range(0..64);
        let junk: String = (0..len)
            .map(|_| char::from(rng.gen_range(0x20..0x7f) as u8))
            .collect();
        out.push(format!("{{{junk}~"));
        out.push(format!("[{junk}~"));
    }
    // Deep nesting, open-ended and balanced.
    for depth in [json::MAX_DEPTH + 1, 1_000, 100_000] {
        out.push("[".repeat(depth));
        out.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
        out.push("{\"a\":".repeat(depth));
        out.push(format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth)));
    }
    out
}

/// Runs `parse` on every mutant of `sample` and requires an error each
/// time; the sample itself must parse.
fn fuzz<T, E>(seed: u64, sample: &str, parse: impl Fn(&str) -> Result<T, E>) {
    assert!(parse(sample).is_ok(), "the valid sample must parse");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for (i, input) in mutants(&mut rng, sample).iter().enumerate() {
        let shown: String = input.chars().take(80).collect();
        assert!(parse(input).is_err(), "mutant {i} accepted: {shown:?}");
    }
}

#[test]
fn json_parse_rejects_every_mutant() {
    for (seed, sample) in [(1, CLUSTER), (2, MANIFEST), (3, EXPLAIN), (4, PLAN_BODY)] {
        fuzz(seed, sample, json::parse);
        fuzz(seed, sample, |s| json::parse_bytes(s.as_bytes()));
    }
    // Raw bytes that are not UTF-8 at all.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..500 {
        let len = rng.gen_range(1..48);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
        bytes[rng.gen_range(0..len)] = 0xff;
        assert!(json::parse_bytes(&bytes).is_err(), "accepted {bytes:?}");
    }
}

#[test]
fn cluster_spec_rejects_every_mutant() {
    fuzz(11, CLUSTER, ClusterSpec::from_json);
}

#[test]
fn run_manifest_rejects_every_mutant() {
    fuzz(12, MANIFEST, RunManifest::from_json);
}

#[test]
fn explain_digest_rejects_every_mutant() {
    fuzz(13, EXPLAIN, digest_from_json);
}

/// The JSONL reader never fails outright: it decodes the longest
/// well-formed prefix and flags the rest. A damaged line must therefore
/// stop decoding there (`truncated`), keeping only the events before it.
#[test]
fn event_reader_keeps_only_the_prefix_before_damage() {
    let events = [
        r#"{"seq":0,"ts":0.000100,"type":"run_started","phase":"plan-search","total_units":4}"#,
        r#"{"seq":1,"ts":0.000200,"type":"strategy_evaluated","makespan":0.5,"oom":false}"#,
        r#"{"type":"gap","missed":3}"#,
        r#"{"seq":5,"ts":0.000300,"type":"run_finished","outcome":"ok","makespan":0.5,"oom":false}"#,
    ];
    let lines: Vec<&str> = std::iter::once(MANIFEST).chain(events).collect();
    let full = parse_jsonl(&lines.join("\n"));
    assert!(!full.truncated && full.manifest.is_some());
    assert_eq!(full.events.len(), 3);
    // Events decoded from the lines before line `k`.
    let events_before = |k: usize| (1..k).filter(|&l| l != 3).count();

    let mut rng = ChaCha8Rng::seed_from_u64(15);
    for (k, line) in lines.iter().enumerate() {
        for damaged in mutants(&mut rng, line) {
            if damaged.trim().is_empty() {
                continue; // a blank line is skipped, not damage
            }
            let mut stream = lines.clone();
            stream[k] = &damaged;
            let log = parse_jsonl(&stream.join("\n"));
            assert!(log.truncated, "line {k} damage not flagged: {damaged:?}");
            assert_eq!(log.events, full.events[..events_before(k)], "line {k}");
        }
    }
}
