//! # heterog-events
//!
//! Structured live-event stream for the HeteroG pipeline: a typed,
//! bounded, lock-light event bus plus the three stock subscribers —
//! a JSONL sink, a terminal progress renderer, and a crash flight
//! recorder.
//!
//! ## Design
//!
//! * **One atomic load when disabled.** Like `heterog-telemetry`'s
//!   metrics, emission is off by default; a disabled [`emit_with`] costs
//!   a single relaxed `AtomicBool` load and never constructs the event.
//!   The planner hot loops emit per strategy evaluation, so this is the
//!   load-bearing property.
//! * **Bounded, never blocking.** Events go MPSC into one fixed-capacity
//!   ring buffer under a `std::sync::Mutex` held for a push/pop only.
//!   When the ring is full the *oldest* event is dropped and a dropped-
//!   events counter incremented — producers never block and never see an
//!   error. Subscribers poll cursors and learn exactly how many events
//!   they missed.
//! * **Self-describing artifacts.** Every event serializes to one JSON
//!   line carrying a monotone sequence number; a stream starts with a
//!   [`RunManifest`] header (seed, model, cluster fingerprint, crate
//!   version, CLI args) so any `events.jsonl` is reproducible on its
//!   own.
//! * **Flight recorder for free.** The ring *is* the last-N window: on
//!   panic (see [`install_panic_hook`]) or on demand ([`dump_flight`])
//!   its contents plus the run manifest and a telemetry snapshot are
//!   written to `heterog-flight-<ts>.json`, turning a silent crash into
//!   a post-mortem.
//!
//! The stream is consumed either through a polling [`Subscription`]
//! (what an embedder holding a runner polls) or an [`EventPump`]
//! background thread fanning events out to [`EventSink`]s (what the CLI
//! uses for `--events-out` / `--progress`).

pub mod bus;
pub mod event;
pub mod flight;
pub mod manifest;
pub mod progress;
pub mod reader;
pub mod sink;

pub use bus::{
    disable, dropped, emit, emit_with, emitted, enable, enable_with_capacity, enabled, reset,
    snapshot_ring, subscribe, Subscription, DEFAULT_CAPACITY,
};
pub use event::{Event, EventKind};
pub use flight::{
    default_flight_file, default_flight_path, dump_flight, flight_json, install_panic_hook,
    set_default_flight_file,
};
pub use manifest::{clear_manifest, manifest, set_manifest, RunManifest};
pub use progress::{sparkline, ProgressRenderer};
pub use reader::{parse_jsonl, read_jsonl, EventLog};
pub use sink::{EventPump, EventSink, JsonlSink};
