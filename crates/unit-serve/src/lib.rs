//! `unit-serve` — the inference-serving runtime on top of the UNIT
//! compiler stack.
//!
//! The compiler layers (PRs 1–4) end at "compile a model and report its
//! latency"; this crate is the runtime that **serves** those compiled
//! models:
//!
//! * [`artifact`] — the in-memory compiled-artifact store: per
//!   `(model, target)`, every kernel's tuning decision (workload,
//!   config, search-free replay config, latency, note), plus the
//!   hand-rolled entry encoding the journal persists it in. A warm
//!   start replays the store and performs **zero** tuner searches.
//! * [`engine`] — per-target (sharded) latency + executable-kernel +
//!   instruction-tape caches, artifact-aware compilation, whole-model
//!   reports (bit-identical to the graph compiler), and request
//!   execution through the compiled instruction tape (bit-identical to
//!   `run_reference`, which stays a test oracle), including fused
//!   batched-GEMM dispatch.
//! * [`scheduler`] — bounded admission, dynamic `(model, target)`
//!   batching, one worker thread per target; order-independent but
//!   result-deterministic. Workers fuse same-shape GEMM runs within a
//!   batch into single batched-GEMM tape executions.
//! * [`journal`] — the one on-disk format: a file-locked, append-only
//!   log of checksummed `put`/`retire` lines, one artifact entry per
//!   `put`. N replicas on one host append tuning decisions under an
//!   advisory lock and tail each other's appends, so a replica
//!   warm-starts search-free off decisions another replica just made.
//!   A torn final line (a crashed append) is dropped and healed; atomic
//!   compaction with retired-target GC and a max-size policy; unknown
//!   headers are rejected with a typed error.
//! * [`net`] — the hand-rolled HTTP/1.1 front-end over std
//!   `TcpListener`: `POST /v1/execute` bridges onto the scheduler's
//!   bounded queue (queue-full → 429, per-request failure → 500, body
//!   and header limits, read/write timeouts), `GET /metrics` serves the
//!   Prometheus text exposition.
//! * [`retune`] — tiered cold starts: a tiered engine serves a novel
//!   workload immediately from a cheap search-capped compile
//!   (`TuneTier::Cold`), then a bounded, hottest-first background queue
//!   re-runs the tuner at the full tier and **hot-swaps** the upgraded
//!   kernel in (artifact entry + exec cache + tape together, under the
//!   engine's swap lock) without a serving stall — and journals the
//!   upgrade so peer replicas swap too. Outputs are bit-identical
//!   across tiers; only latency changes.
//! * [`metrics`] — counters, queue-depth gauges, artifact/kernel cache
//!   hit rates, re-tune/swap counters, epilogue-fusion counters, a
//!   per-`(model, target)` hot-pair table and fixed-bucket latency
//!   histograms (request latency plus tier-split cold-start latency),
//!   rendered as Prometheus text exposition.
//! * [`trace`] — request-scoped tracing: every request gets a trace id
//!   at admission; stages append timestamped spans (admission → queue →
//!   batch → cache lookup → tape dispatch → epilogue → reply; compile
//!   path: inspect → tune → lower → tape-compile, retune-queue wait,
//!   hot-swap) into a bounded ring with slow-request exemplar
//!   retention. `GET /v1/trace/<id>` renders one timeline;
//!   `GET /v1/traces?export=chrome` emits Chrome `trace_event` JSON.
//!   Disabled (the default) it costs one relaxed atomic load per
//!   request.
//! * [`model`] — whole-model serving: the target-agnostic compact
//!   activation representation, deterministic implicit model
//!   parameters, layout scatter/gather adapters, and the unfused
//!   reference epilogue. [`ServeEngine::execute_model`] serves an
//!   entire quantized transformer forward pass as **one artifact**: one
//!   cache entry and one compiled tape per fused step, with bias /
//!   residual-add / ReLU / requantize / softmax / layernorm executing
//!   inside the kernel dispatch (zero reference-interpreter passes on
//!   the serve path).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use unit_core::pipeline::TuningConfig;
//! use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
//! use unit_graph::OpSpec;
//! use unit_serve::{Scheduler, SchedulerConfig, ServeEngine, ServeRequest};
//!
//! let tuning = TuningConfig {
//!     cpu: CpuTuneMode::ParallelUnroll,
//!     gpu: GpuTuneMode::Generic,
//! };
//! let engine = Arc::new(ServeEngine::new(tuning));
//! let scheduler = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
//! let (_, response) = scheduler
//!     .submit(ServeRequest {
//!         model: "demo".to_string(),
//!         target: "x86-avx512-vnni".to_string(),
//!         op: OpSpec::gemm(16, 16, 16),
//!         seed: 42,
//!     })
//!     .unwrap();
//! let out = response.recv().unwrap();
//! assert!(out.result.is_ok());
//! scheduler.shutdown();
//! ```

pub mod artifact;
pub mod engine;
pub mod journal;
pub mod metrics;
pub mod model;
pub mod net;
pub mod retune;
pub mod scheduler;
pub mod trace;

pub use artifact::{ArtifactEntry, ArtifactError, ArtifactStore};
pub use engine::{reference_report, ExecOutcome, ModelOutcome, ServeEngine, ServeError};
pub use journal::{Journal, JournalConfig, JournalRecord, JOURNAL_FORMAT_VERSION};
pub use metrics::{LatencyHistogram, ServeMetrics, HOT_PAIR_CAPACITY, LATENCY_BUCKETS_US};
pub use model::{model_graph, Compact};
pub use net::{parse_graph_body, GraphRequest, HttpServer, HttpServerConfig};
pub use retune::{RetuneJob, RetuneWorker, RETUNE_QUEUE_CAPACITY};
pub use scheduler::{Scheduler, SchedulerConfig, ServeRequest, ServeResponse, SubmitError};
pub use trace::{
    Span, TraceCollector, TraceHandle, TRACE_ENV, TRACE_EXEMPLARS, TRACE_RING_CAPACITY,
};
pub use unit_core::tuner::TuneTier;
