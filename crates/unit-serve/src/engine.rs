//! The serving engine: per-target compiled-kernel caches, the artifact
//! replay path, and request execution on compiled instruction tapes.
//!
//! The engine owns two cache families, both **sharded per target** (one
//! independent `ShardedCache` per target id, so traffic for one target
//! never contends on another's locks):
//!
//! * a *latency* cache (`unit_graph::compile::KernelCache`) shared with
//!   the graph compiler for whole-model reports, and
//! * an *executable* cache mapping the same [`KernelCacheKey`]s to
//!   [`CompiledOp`]s, beside a *tape* cache holding each kernel's
//!   compiled instruction tape ([`unit_interp::Tape`]) — the one
//!   executor every request runs on.
//!
//! Compilation consults the [`ArtifactStore`] first: a hit **replays**
//! the persisted search-free config (`CpuTuneMode::Fixed` at the
//! searched winner / `GpuTuneMode::Generic`), rebuilding the identical
//! kernel with zero tuner searches; a miss compiles cold under the
//! engine's tuning config and records the decision back into the store,
//! so `export_artifacts` always reflects everything the engine learned.
//!
//! # Tiered cold starts
//!
//! With [`ServeEngine::with_tiered_cold_start`], a cold miss compiles at
//! the capped **cold tier** (`TuningConfig::at_tier(TuneTier::Cold)` —
//! a 2-candidate CPU search / the generic GPU schedule) so the first
//! response returns quickly, then a [`crate::retune`] job re-runs the
//! tuner at the full tier in the background and **hot-swaps** the
//! upgraded kernel in: artifact entry, exec-cache slot, tier tag and
//! tape are replaced together under the engine's swap lock, and the
//! upgrade is journaled so peer replicas swap too. Outputs are
//! bit-identical across tiers (schedules never change results); only
//! latency and the reported tier/note change.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use unit_core::pipeline::{StageTimings, Target, TuningConfig};
use unit_core::tuner::TuneTier;
use unit_graph::compile::{compile_model_with_artifacts, e2e_latency, KernelCache, UnitProvider};
use unit_graph::{
    build_plan, CacheWorkload, CompiledOp, E2eReport, Graph, KernelCacheKey, OpSpec, PlanSource,
    ShardedCache,
};
use unit_interp::{alloc_buffers, random_fill, Tape};
use unit_isa::{registry, TypedBuf};
use unit_tir::EpiGeom;

use crate::artifact::{ArtifactEntry, ArtifactError, ArtifactStore};
use crate::journal::{Journal, JournalRecord};
use crate::metrics::ServeMetrics;
use crate::model::{self, Compact};
use crate::retune::{RetuneJob, RetuneQueue};
use crate::trace::{TraceCollector, TraceHandle};

/// Lock a mutex, recovering from poisoning. Every engine mutex guards
/// plain data whose invariants hold between operations (a `BTreeMap`
/// store, an `Option` handle), so a panic that interrupted some *other*
/// thread's critical section leaves nothing half-updated worth
/// rejecting: take the data and keep serving. Without this, one
/// panicking client thread turned every later `lock().unwrap()` into a
/// panic — a single poisoned request wedged the whole engine.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Errors surfaced by the engine (and through scheduler responses).
#[derive(Debug)]
pub enum ServeError {
    /// The request names a target id the engine does not serve.
    UnknownTarget(String),
    /// The model id cannot be used as an artifact namespace (it contains
    /// `|` or a newline, which the journal's line format reserves).
    InvalidModelId(String),
    /// The tape failed compiling or executing the kernel.
    Exec(unit_interp::ExecError),
    /// Whole-model serving failed at the plan level: an unknown model
    /// name, a graph the plan builder cannot lower, or a step whose
    /// operand shapes do not adapt.
    Plan(String),
    /// Compilation or execution panicked; the scheduler contains the
    /// panic to the offending request instead of losing the worker.
    Panicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTarget(id) => write!(f, "unknown target id `{id}`"),
            ServeError::InvalidModelId(id) => {
                write!(f, "model id {id:?} may not contain `|` or newlines")
            }
            ServeError::Exec(e) => write!(f, "execution failed: {e:?}"),
            ServeError::Plan(msg) => write!(f, "model plan failed: {msg}"),
            ServeError::Panicked(msg) => write!(f, "{msg}"),
        }
    }
}

/// Whether an id is usable as an artifact namespace (a journal `put`
/// line reserves `|` and newlines, and its parser rejects empty ids;
/// `ArtifactStore::record` would panic on them — the engine rejects
/// such ids *before* touching the store, so a hostile request can
/// neither poison the artifacts mutex nor write a journal line that
/// fails to parse).
fn valid_artifact_id(id: &str) -> bool {
    !id.is_empty() && !id.contains('|') && !id.contains('\n')
}

impl std::error::Error for ServeError {}

/// One executed request's result.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The kernel's output buffer (bit-exact, comparable against
    /// `unit_interp::run_reference`).
    pub output: TypedBuf,
    /// Modeled kernel latency in microseconds.
    pub micros: f64,
    /// Provider note (chosen schedule / fallback reason).
    pub note: String,
    /// Whether a tensorized instruction was applied.
    pub tensorized: bool,
    /// Which tuning tier compiled the kernel that served this request
    /// (`Cold` until the background re-tune hot-swaps the full-tier
    /// kernel in; always `Full` on non-tiered engines).
    pub tier: TuneTier,
}

/// One whole-model execution's result
/// ([`ServeEngine::execute_model`]).
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// The model's final activation (the plan output step's logical
    /// tensor). Bit-identical on one target across fused and unfused
    /// serving, tuning tiers and replicas; **not** across targets —
    /// operands saturate to each target's data/weight dtypes, so u8-data
    /// targets clamp negative activations to zero (see [`crate::model`]).
    pub output: Compact,
    /// Summed modeled kernel latency across the plan's steps, in
    /// microseconds.
    pub micros: f64,
    /// How many kernel dispatches served the forward pass.
    pub steps: usize,
    /// How many epilogue ops executed inside kernel dispatches
    /// (0 when served unfused).
    pub fused_epilogue_ops: usize,
}

/// The serving engine. Thread-safe: `&self` methods may be called from
/// any number of scheduler workers concurrently.
pub struct ServeEngine {
    tuning: TuningConfig,
    /// `tuning` capped to the cold tier (`at_tier(TuneTier::Cold)`);
    /// what tiered cold misses compile under.
    cold_tuning: TuningConfig,
    /// Whether cold misses serve at the cold tier + background re-tune.
    tiered: bool,
    workers: usize,
    targets: BTreeMap<String, Target>,
    latency: BTreeMap<String, Arc<KernelCache>>,
    exec: BTreeMap<String, Arc<ShardedCache<KernelCacheKey, Arc<CompiledOp>>>>,
    /// Which tier compiled each exec-cache kernel, keyed identically.
    /// Absent means full tier (pre-tier kernels, non-tiered engines).
    /// Kept beside — not inside — `CompiledOp`: the tier is a serving
    /// concept the graph-compiler layer has no business knowing.
    kernel_tiers: BTreeMap<String, Arc<ShardedCache<KernelCacheKey, TuneTier>>>,
    /// Compiled instruction tapes, one cache per target, keyed exactly
    /// like the executable cache (plus fused-kernel keys).
    tapes: BTreeMap<String, Arc<ShardedCache<KernelCacheKey, Arc<Tape>>>>,
    /// Batch-fused kernels (e.g. N same-shape GEMMs as one batched
    /// GEMM), compiled search-free from a served kernel's replay config.
    /// Kept out of `exec`/`artifacts`: fused shapes are an execution
    /// detail, never a served workload.
    fused: BTreeMap<String, Arc<ShardedCache<KernelCacheKey, Arc<CompiledOp>>>>,
    artifacts: Mutex<ArtifactStore>,
    /// The fleet-shared artifact journal, when attached: cold-compile
    /// decisions are appended for other replicas to tail, and
    /// [`ServeEngine::sync_journal`] imports theirs.
    journal: Mutex<Option<Arc<Journal>>>,
    /// The hot-swap lock. Held across every sequence that must observe
    /// kernel, tier tag and artifact entry **coherently**: the hit
    /// path's read-tier-record, a re-tune's read-compare-swap, and a
    /// tailed peer upgrade. Never held across tuner searches or journal
    /// I/O.
    swap: Mutex<()>,
    /// Pending background re-tune jobs (tiered engines only).
    retunes: RetuneQueue,
    metrics: Arc<ServeMetrics>,
    /// Request-scoped tracing (disabled by default: one relaxed load
    /// per entry point; every span hook is behind `Option`).
    tracer: TraceCollector,
}

impl ServeEngine {
    /// An engine serving **every registered target** (built-ins plus
    /// runtime registrations) under one tuning config.
    #[must_use]
    pub fn new(tuning: TuningConfig) -> ServeEngine {
        let ids: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        ServeEngine::for_targets(tuning, &id_refs).expect("registry targets resolve")
    }

    /// An engine serving a subset of registered targets.
    ///
    /// # Errors
    ///
    /// The first id that is not in the target registry.
    pub fn for_targets(tuning: TuningConfig, ids: &[&str]) -> Result<ServeEngine, ServeError> {
        let mut targets = BTreeMap::new();
        let mut latency = BTreeMap::new();
        let mut exec = BTreeMap::new();
        let mut kernel_tiers = BTreeMap::new();
        let mut tapes = BTreeMap::new();
        let mut fused = BTreeMap::new();
        for id in ids {
            let target =
                Target::by_id(id).ok_or_else(|| ServeError::UnknownTarget((*id).to_string()))?;
            targets.insert((*id).to_string(), target);
            latency.insert((*id).to_string(), Arc::new(KernelCache::default()));
            exec.insert((*id).to_string(), Arc::new(ShardedCache::default()));
            kernel_tiers.insert((*id).to_string(), Arc::new(ShardedCache::default()));
            tapes.insert((*id).to_string(), Arc::new(ShardedCache::default()));
            fused.insert((*id).to_string(), Arc::new(ShardedCache::default()));
        }
        Ok(ServeEngine {
            tuning,
            cold_tuning: tuning.at_tier(TuneTier::Cold),
            tiered: false,
            workers: 1,
            targets,
            latency,
            exec,
            kernel_tiers,
            tapes,
            fused,
            artifacts: Mutex::new(ArtifactStore::new()),
            journal: Mutex::new(None),
            swap: Mutex::new(()),
            retunes: RetuneQueue::default(),
            metrics: Arc::new(ServeMetrics::new()),
            tracer: TraceCollector::new(),
        })
    }

    /// Enable request tracing from construction (equivalent to setting
    /// `UNIT_SERVE_TRACE=1`, or `engine.tracer().set_enabled(true)` at
    /// runtime).
    #[must_use]
    pub fn with_tracing(self) -> ServeEngine {
        self.tracer.set_enabled(true);
        self
    }

    /// The engine's trace collector (shared with the scheduler and the
    /// HTTP front-end).
    #[must_use]
    pub fn tracer(&self) -> &TraceCollector {
        &self.tracer
    }

    /// Finish `handle` into the trace ring and account it in metrics.
    pub(crate) fn finish_trace(&self, handle: &TraceHandle) {
        let dropped = self.tracer.finish(handle);
        self.metrics.record_trace(dropped);
    }

    /// Serve cold misses at the capped cold tier and re-tune in the
    /// background: the first response for a novel workload compiles a
    /// cheap 2-candidate kernel, a [`RetuneJob`] is queued, and a later
    /// [`ServeEngine::run_pending_retunes`] (or a
    /// [`crate::retune::RetuneWorker`]) hot-swaps the full-tier kernel
    /// in without a serving stall. Off by default — non-tiered engines
    /// behave exactly as before this knob existed.
    #[must_use]
    pub fn with_tiered_cold_start(mut self) -> ServeEngine {
        self.tiered = true;
        self
    }

    /// Tune cold compiles with up to `n` worker threads per kernel
    /// (`0` = one per core). Deterministic — the chosen schedules,
    /// latencies and notes are identical at any worker count
    /// (`unit_core::tuner::parallel`'s guarantee), so this only changes
    /// cold-compile wall clock.
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> ServeEngine {
        self.workers = n;
        self
    }

    /// The engine's metrics registry (shared with the scheduler).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The tuning config cold compiles run under.
    #[must_use]
    pub fn tuning(&self) -> TuningConfig {
        self.tuning
    }

    /// Whether tiered cold-start serving is enabled.
    #[must_use]
    pub fn tiered(&self) -> bool {
        self.tiered
    }

    /// The tuning config tiered cold misses compile under (the full
    /// config capped by [`TuningConfig::at_tier`]).
    #[must_use]
    pub fn cold_tuning(&self) -> TuningConfig {
        self.cold_tuning
    }

    /// Served target ids, in canonical order.
    #[must_use]
    pub fn target_ids(&self) -> Vec<String> {
        self.targets.keys().cloned().collect()
    }

    /// Whether the engine serves `target`.
    #[must_use]
    pub fn serves(&self, target: &str) -> bool {
        self.targets.contains_key(target)
    }

    /// Import a persisted artifact store: merge its entries and restore
    /// every `(model, target)` block this engine serves into the
    /// per-target latency caches. Returns the number of restored cache
    /// entries.
    pub fn import_artifacts(&self, store: ArtifactStore) -> usize {
        let mut restored = 0;
        for (model, target) in store.model_targets() {
            if let Some(cache) = self.latency.get(&target) {
                restored += store.restore_latency_cache(&model, &target, cache);
            }
        }
        lock_recovering(&self.artifacts).merge(store);
        restored
    }

    /// Export a snapshot of everything the engine has learned (loaded
    /// artifacts plus every cold compile since). To persist it, append
    /// [`crate::journal::store_records`] of the snapshot to a
    /// [`Journal`].
    #[must_use]
    pub fn export_artifacts(&self) -> ArtifactStore {
        lock_recovering(&self.artifacts).clone()
    }

    /// Attach a fleet-shared [`Journal`]: import its current snapshot
    /// (exactly like [`ServeEngine::import_artifacts`] — a replica
    /// attaching to a journal other replicas already populated
    /// warm-starts search-free), then keep it attached so every cold
    /// compile this engine performs is appended for the rest of the
    /// fleet, and [`ServeEngine::sync_journal`] can tail theirs.
    /// Returns the number of restored latency-cache entries.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when the journal cannot be read.
    pub fn attach_journal(&self, journal: Arc<Journal>) -> Result<usize, ArtifactError> {
        let store = journal.snapshot()?;
        let restored = self.import_artifacts(store);
        *lock_recovering(&self.journal) = Some(journal);
        Ok(restored)
    }

    /// Tail the attached journal: import every record other replicas
    /// appended since the last snapshot/sync. `put` records absorb into
    /// the artifact store (higher tier wins; a peer's stale cold record
    /// never downgrades a local full-tier entry) and restore the latency
    /// cache; a `put` that **upgrades the tier of a kernel this engine
    /// is actively serving** — a peer's re-tune — is hot-swapped into
    /// the exec cache search-free, exactly like a local re-tune.
    /// `retire` records drop the target's entries from the store.
    /// Returns the number of records applied (0 when no journal is
    /// attached).
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when the journal cannot be read.
    pub fn sync_journal(&self) -> Result<usize, ArtifactError> {
        let Some(journal) = lock_recovering(&self.journal).clone() else {
            return Ok(0);
        };
        let records = journal.poll()?;
        let applied = records.len();
        for record in records {
            match record {
                JournalRecord::Put {
                    model,
                    target,
                    entry,
                } => self.apply_peer_put(&model, &target, *entry),
                JournalRecord::Retire { target } => {
                    lock_recovering(&self.artifacts).retire_target(&target);
                }
            }
        }
        self.metrics.record_journal_tailed(applied as u64);
        Ok(applied)
    }

    /// Apply one tailed `put` record. When it upgrades a kernel this
    /// engine serves from its exec cache, rebuild the full-tier kernel
    /// from the record's **replay config** (search-free — the peer
    /// already paid the search) and swap it in under the swap lock.
    fn apply_peer_put(&self, model: &str, target: &str, entry: ArtifactEntry) {
        let key = KernelCacheKey::new(entry.workload, target, entry.tuning);
        // The rebuild runs outside the swap lock: search-free is not
        // free, and the serving hit path must not stall behind it.
        let rebuilt = self
            .targets
            .get(target)
            .filter(|_| {
                self.exec[target].get(&key).is_some() && self.kernel_tier(target, &key) < entry.tier
            })
            .map(|t| {
                let provider =
                    UnitProvider::new(t.clone(), entry.replay).with_workers(self.workers);
                let mut kernel = provider.compile_workload_full(&entry.workload);
                kernel.micros = entry.micros;
                kernel.note = entry.note.clone();
                kernel.replay = entry.replay;
                let tape = Tape::compile(&kernel.func).ok();
                (Arc::new(kernel), tape)
            });
        let _swap = lock_recovering(&self.swap);
        if !lock_recovering(&self.artifacts).absorb(model, target, entry.clone()) {
            return;
        }
        if let Some(cache) = self.latency.get(target) {
            cache.insert(key.clone(), (entry.micros, entry.note.clone()));
        }
        let Some((kernel, tape)) = rebuilt else {
            return;
        };
        // Re-check under the lock: a local re-tune may have swapped
        // first while we were rebuilding.
        if self.kernel_tier(target, &key) >= entry.tier {
            return;
        }
        self.exec[target].insert(key.clone(), kernel);
        self.kernel_tiers[target].insert(key.clone(), entry.tier);
        if let Some(tape) = tape {
            self.tapes[target].insert(key, Arc::new(tape));
        }
        self.metrics.record_retune_swap();
    }

    /// Compile a whole model for a target: every unique tensor workload
    /// plus the dense classifier go through the artifact-aware compile
    /// path, then the latency report is aggregated from the warm cache
    /// (bit-identical to `unit_graph::compile::compile_graph`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTarget`] when the engine does not serve
    /// `target_id`.
    pub fn compile_model(&self, graph: &Graph, target_id: &str) -> Result<E2eReport, ServeError> {
        let target = self
            .targets
            .get(target_id)
            .ok_or_else(|| ServeError::UnknownTarget(target_id.to_string()))?;
        if !valid_artifact_id(&graph.name) {
            return Err(ServeError::InvalidModelId(graph.name.clone()));
        }
        let mut workloads: Vec<CacheWorkload> = unit_graph::unique_workloads(&[graph])
            .into_iter()
            .map(CacheWorkload::Op)
            .collect();
        workloads.extend(
            graph
                .dense_workloads()
                .into_iter()
                .map(|(in_features, units)| CacheWorkload::Dense { in_features, units }),
        );
        let cache = &self.latency[target_id];
        for workload in workloads {
            // The report path only needs latencies: a workload already in
            // the latency cache (restored from artifacts, or compiled
            // earlier) is left alone — its *executable* kernel is built
            // lazily by the first request that needs it, via the
            // search-free replay path. This is what makes a warm model
            // compile invoke the tuner exactly zero times.
            let key = KernelCacheKey::new(workload, target_id, self.tuning);
            if cache.get(&key).is_some() {
                let recorded = lock_recovering(&self.artifacts)
                    .lookup(&graph.name, target_id, &workload, self.tuning)
                    .is_some();
                if recorded {
                    continue;
                }
                // Cached (another model compiled it first) but absent
                // from *this* model's artifact namespace: record it from
                // the executable cache if possible so the exported store
                // replays for this model too — otherwise fall through to
                // the full compile path.
                if self.record_cached_artifact(&graph.name, target_id, workload) {
                    continue;
                }
            }
            self.ensure_compiled(&graph.name, target_id, workload);
        }
        Ok(compile_model_with_artifacts(
            graph,
            target.clone(),
            self.tuning,
            cache,
            self.workers,
        ))
    }

    /// Execute one request: compile (cache / artifact replay / cold),
    /// then run the kernel's tape over buffers deterministically seeded
    /// with `seed`. The outcome is a pure function of
    /// `(op, target, tuning, seed)` — independent of batching, worker
    /// interleaving and warm/cold history (the soak suite asserts this
    /// against `run_reference`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTarget`] for unserved targets,
    /// [`ServeError::Exec`] when the tape fails.
    pub fn execute(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seed: u64,
    ) -> Result<ExecOutcome, ServeError> {
        // In-process callers get a trace of their own when tracing is
        // on; the scheduler passes each request's handle to
        // [`ServeEngine::execute_traced`] instead.
        let own = self
            .tracer
            .begin(format!("execute model={model} target={target_id}"));
        let result = self.execute_traced(model, target_id, op, seed, own.as_ref());
        if let Some(handle) = own {
            self.finish_trace(&handle);
        }
        result
    }

    /// [`ServeEngine::execute`] with an explicit trace handle: spans for
    /// cache lookup, compile stages and the tape dispatch (with its
    /// execution profile) are recorded onto `trace` when present.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::execute`].
    pub fn execute_traced(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seed: u64,
        trace: Option<&TraceHandle>,
    ) -> Result<ExecOutcome, ServeError> {
        if !self.serves(target_id) {
            return Err(ServeError::UnknownTarget(target_id.to_string()));
        }
        if !valid_artifact_id(model) {
            return Err(ServeError::InvalidModelId(model.to_string()));
        }
        self.metrics.record_request_pair(model, target_id);
        let (kernel, tier) =
            self.ensure_compiled_traced(model, target_id, CacheWorkload::Op(op), trace);
        let mut bufs = alloc_buffers(&kernel.func);
        random_fill(&mut bufs, seed);
        let key = KernelCacheKey::new(CacheWorkload::Op(op), target_id, self.tuning);
        let tape = self.ensure_tape(target_id, &key, &kernel, trace)?;
        self.dispatch_tape(&tape, &mut bufs, 1, trace, kernel.func.name.as_str())?;
        Ok(ExecOutcome {
            output: bufs.swap_remove(kernel.output),
            micros: kernel.micros,
            note: kernel.note.clone(),
            tensorized: kernel.tensorized,
            tier,
        })
    }

    /// Run `tape` over `bufs` with a per-dispatch scratch, account the
    /// dispatch and its execution profile in metrics, and record a
    /// `tape_dispatch` span (run-time counters plus the compile-time
    /// `elided_guards` contrast) when tracing.
    fn dispatch_tape(
        &self,
        tape: &Tape,
        bufs: &mut [TypedBuf],
        requests: usize,
        trace: Option<&TraceHandle>,
        label: &str,
    ) -> Result<(), ServeError> {
        let span = trace.map(|t| t.start("tape_dispatch"));
        let mut scratch = tape.scratch();
        tape.run(bufs, &mut scratch).map_err(ServeError::Exec)?;
        let prof = scratch.profile();
        self.metrics.record_tape_dispatch(requests);
        self.metrics.record_tape_profile(
            prof.ops_retired,
            prof.guards_executed,
            prof.intrin_dispatches,
        );
        if let Some(span) = span {
            span.finish(format!(
                "func={label} requests={requests} ops_retired={} guards_executed={} \
                 intrin_dispatches={} elided_guards={}",
                prof.ops_retired,
                prof.guards_executed,
                prof.intrin_dispatches,
                tape.stats().elided_guards
            ));
        }
        Ok(())
    }

    /// Execute a whole model graph as **one served artifact**: build its
    /// fused [`unit_graph::ModelPlan`], then run every step as a single
    /// kernel dispatch with the step's epilogue chain (bias, residual
    /// add, ReLU, requantize, softmax, layernorm) executing *inside* the
    /// compiled tape — zero reference-interpreter passes on the serve
    /// path. With `fused = false` the same plan runs unfused (plain GEMM
    /// kernels plus the compact-domain reference epilogue) as the
    /// differential baseline; both modes are bit-identical per target.
    /// Outputs are not comparable across targets: GEMM operands saturate
    /// to each target's data/weight dtypes (see [`ModelOutcome::output`]).
    ///
    /// Model parameters are implicit (deterministic in
    /// `(model, step, role)`; see [`crate::model`]); the request `seed`
    /// only picks the input tokens. The outcome is a pure function of
    /// `(graph, target, tuning, seed, fused)`.
    ///
    /// Fused and unfused kernels can never collide in any cache:
    /// fused steps are keyed as [`CacheWorkload::Fused`], whose encoding
    /// carries the epilogue chain.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTarget`] / [`ServeError::InvalidModelId`] as
    /// [`ServeEngine::execute`]; [`ServeError::Plan`] when the graph
    /// does not lower to a fused plan or a step's operands do not adapt;
    /// [`ServeError::Exec`] when kernel execution fails.
    pub fn execute_model(
        &self,
        graph: &Graph,
        target_id: &str,
        seed: u64,
        fused: bool,
    ) -> Result<ModelOutcome, ServeError> {
        let own = self.tracer.begin(format!(
            "execute_model model={} target={target_id} fused={fused}",
            graph.name
        ));
        let result = self.execute_model_traced(graph, target_id, seed, fused, own.as_ref());
        if let Some(handle) = own {
            self.finish_trace(&handle);
        }
        result
    }

    /// [`ServeEngine::execute_model`] with an explicit trace handle: one
    /// dispatch span and one epilogue span per plan step, plus compile
    /// spans for any step compiled along the way.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::execute_model`].
    pub fn execute_model_traced(
        &self,
        graph: &Graph,
        target_id: &str,
        seed: u64,
        fused: bool,
        trace: Option<&TraceHandle>,
    ) -> Result<ModelOutcome, ServeError> {
        if !self.serves(target_id) {
            return Err(ServeError::UnknownTarget(target_id.to_string()));
        }
        if !valid_artifact_id(&graph.name) {
            return Err(ServeError::InvalidModelId(graph.name.clone()));
        }
        let plan = build_plan(graph).map_err(ServeError::Plan)?;
        self.metrics.record_request_pair(&graph.name, target_id);
        let (rows, cols) = model::plan_input_dims(graph).map_err(ServeError::Plan)?;
        let tokens = model::input_tokens(seed, rows, cols);
        let mut outputs: Vec<Compact> = Vec::with_capacity(plan.steps.len());
        let mut micros = 0.0;
        for step in &plan.steps {
            let OpSpec::Gemm { m, n, k, batch } = step.op else {
                return Err(ServeError::Plan(format!(
                    "step `{}` is not a GEMM; only GEMM plans serve",
                    step.name
                )));
            };
            let src = match step.data {
                PlanSource::Input => &tokens,
                PlanSource::Step(s) => &outputs[s],
            };
            let data = model::gather_data(src, batch, m, k).map_err(ServeError::Plan)?;
            let weight = match step.weight {
                None => model::implicit_weight(&graph.name, &step.name, batch, n, k),
                Some(src) => {
                    let src = match src {
                        PlanSource::Input => &tokens,
                        PlanSource::Step(s) => &outputs[s],
                    };
                    model::weight_from_activation(src, batch, n, k, step.weight_rows_are_n)
                        .map_err(ServeError::Plan)?
                }
            };
            let workload = if fused {
                CacheWorkload::Fused {
                    op: step.op,
                    epi: step.epi,
                }
            } else {
                CacheWorkload::Op(step.op)
            };
            let (kernel, _tier) =
                self.ensure_compiled_traced(&graph.name, target_id, workload, trace);
            let mut bufs = alloc_buffers(&kernel.func);
            model::scatter_operands(&kernel.func, &data, &weight, &mut bufs)
                .map_err(ServeError::Plan)?;
            let bias = model::implicit_bias(&graph.name, &step.name, n);
            let residuals =
                model::resolve_residuals(step, &tokens, &outputs).map_err(ServeError::Plan)?;
            if fused {
                model::fill_epilogue_operands(&kernel.func, &bias, &residuals, &mut bufs)
                    .map_err(ServeError::Plan)?;
            }
            let key = KernelCacheKey::new(workload, target_id, self.tuning);
            let tape = self.ensure_tape(target_id, &key, &kernel, trace)?;
            self.dispatch_tape(&tape, &mut bufs, 1, trace, &step.name)?;
            let epi_span = trace.map(|t| t.start("epilogue"));
            let out_shape = &kernel.func.buffers[kernel.output].shape;
            let geom = EpiGeom::for_output(batch, m, n, out_shape).ok_or_else(|| {
                ServeError::Plan(format!(
                    "step `{}` output shape {out_shape:?} has no [{batch}, {m}, {n}] geometry",
                    step.name
                ))
            })?;
            let mut out = model::gather_output(&bufs[kernel.output], geom);
            if !fused {
                model::apply_epilogue_reference(&mut out, &step.epi, &bias, &residuals)
                    .map_err(ServeError::Plan)?;
            }
            if let Some(span) = epi_span {
                span.finish(format!(
                    "step={} fused={fused} epi_ops={}",
                    step.name,
                    step.epi.len()
                ));
            }
            micros += kernel.micros;
            outputs.push(out);
        }
        let output = outputs.swap_remove(plan.output);
        Ok(ModelOutcome {
            output,
            micros,
            steps: plan.steps.len(),
            fused_epilogue_ops: if fused { plan.fused_epilogue_ops() } else { 0 },
        })
    }

    /// Execute a run of same-shape GEMM requests (one model/target/op,
    /// per-request seeds) as **one fused batched-GEMM tape execution**:
    /// the N requests stack along the GEMM's existing batch axis (the
    /// outermost dimension of every GEMM tensor layout), the fused kernel
    /// is compiled *search-free* from the served kernel's replay config,
    /// and per-request outputs are sliced back out of the fused output's
    /// leading axis. Outcomes are bit-identical to N separate
    /// [`ServeEngine::execute`] calls — fusion is a dispatch-count
    /// optimization, never observable in the outputs.
    ///
    /// Falls back to per-request execution when fusion does not apply
    /// (single request, non-GEMM op, or a fused lowering whose buffers
    /// are not exact leading-axis stacks).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::execute`].
    pub fn execute_gemm_batch(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seeds: &[u64],
    ) -> Result<Vec<ExecOutcome>, ServeError> {
        self.execute_gemm_batch_traced(model, target_id, op, seeds, &[])
    }

    /// [`ServeEngine::execute_gemm_batch`] with one optional trace handle
    /// per request (`traces` may be shorter than `seeds`; missing entries
    /// trace nothing). A fused dispatch records a `tape_dispatch` span on
    /// every present trace — the requests genuinely share the execution.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::execute_gemm_batch`].
    pub fn execute_gemm_batch_traced(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seeds: &[u64],
        traces: &[Option<TraceHandle>],
    ) -> Result<Vec<ExecOutcome>, ServeError> {
        let fused_spec = match (op, seeds.len()) {
            (OpSpec::Gemm { m, n, k, batch }, cnt) if cnt > 1 => OpSpec::Gemm {
                m,
                n,
                k,
                batch: batch * cnt as i64,
            },
            _ => return self.execute_each(model, target_id, op, seeds, traces),
        };
        if !self.serves(target_id) {
            return Err(ServeError::UnknownTarget(target_id.to_string()));
        }
        if !valid_artifact_id(model) {
            return Err(ServeError::InvalidModelId(model.to_string()));
        }
        // Compile spans land on the first traced request in the run: the
        // compile happens once for the whole fused dispatch.
        let first = traces.iter().flatten().next();
        let (kernel, tier) =
            self.ensure_compiled_traced(model, target_id, CacheWorkload::Op(op), first);
        let fused_key =
            KernelCacheKey::new(CacheWorkload::Op(fused_spec), target_id, kernel.replay);
        let Some(fused) = self.fused_kernel(target_id, &kernel, &fused_key, seeds.len()) else {
            return self.execute_each(model, target_id, op, seeds, traces);
        };
        let Ok(tape) = self.ensure_tape(target_id, &fused_key, &fused, first) else {
            return self.execute_each(model, target_id, op, seeds, traces);
        };

        // Fill the fused buffers with each request's exact input stream:
        // `random_fill(_, seed)` is a pure function of the per-request
        // buffer shapes, and every fused buffer is the per-request buffer
        // stacked N times along its leading axis.
        let mut fused_bufs = alloc_buffers(&fused.func);
        for (j, &seed) in seeds.iter().enumerate() {
            let mut per_bufs = alloc_buffers(&kernel.func);
            random_fill(&mut per_bufs, seed);
            for (fb, pb) in fused_bufs.iter_mut().zip(&per_bufs) {
                let stride = pb.len();
                for i in 0..stride {
                    fb.set(j * stride + i, pb.get(i));
                }
            }
        }
        let spans: Vec<_> = traces
            .iter()
            .map(|t| t.as_ref().map(|t| t.start("tape_dispatch")))
            .collect();
        let mut scratch = tape.scratch();
        tape.run(&mut fused_bufs, &mut scratch)
            .map_err(ServeError::Exec)?;
        let prof = scratch.profile();
        self.metrics.record_tape_dispatch(seeds.len());
        self.metrics.record_tape_profile(
            prof.ops_retired,
            prof.guards_executed,
            prof.intrin_dispatches,
        );
        for span in spans.into_iter().flatten() {
            span.finish(format!(
                "func={} fused={} ops_retired={} guards_executed={} intrin_dispatches={} \
                 elided_guards={}",
                fused.func.name,
                seeds.len(),
                prof.ops_retired,
                prof.guards_executed,
                prof.intrin_dispatches,
                tape.stats().elided_guards
            ));
        }
        for _ in seeds {
            self.metrics.record_request_pair(model, target_id);
        }

        let out = &fused_bufs[fused.output];
        let per_len = kernel.func.buffers[kernel.output].len();
        let mut outcomes = Vec::with_capacity(seeds.len());
        for j in 0..seeds.len() {
            let mut output = TypedBuf::zeros(out.dtype, per_len);
            for i in 0..per_len {
                output.set(i, out.get(j * per_len + i));
            }
            outcomes.push(ExecOutcome {
                output,
                micros: kernel.micros,
                note: kernel.note.clone(),
                tensorized: kernel.tensorized,
                tier,
            });
        }
        Ok(outcomes)
    }

    /// The fusion fallback: N independent executions, each on its own
    /// trace when the caller supplied one (otherwise [`Self::execute`]
    /// begins per-request traces itself, exactly as before fusion).
    fn execute_each(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seeds: &[u64],
        traces: &[Option<TraceHandle>],
    ) -> Result<Vec<ExecOutcome>, ServeError> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| match traces.get(i).and_then(Option::as_ref) {
                Some(trace) => self.execute_traced(model, target_id, op, seed, Some(trace)),
                None => self.execute(model, target_id, op, seed),
            })
            .collect()
    }

    /// Compile (or fetch) the fused-batch kernel, then prove the stacking
    /// invariant fusion relies on: every fused buffer must be exactly the
    /// per-request buffer repeated `n` times along its leading axis, with
    /// matching dtypes and buffer/output indices. Returns `None` (caller
    /// falls back to per-request execution) when the invariant fails.
    fn fused_kernel(
        &self,
        target_id: &str,
        per: &CompiledOp,
        fused_key: &KernelCacheKey,
        n: usize,
    ) -> Option<Arc<CompiledOp>> {
        let cache = &self.fused[target_id];
        let fused = match cache.get(fused_key) {
            Some(hit) => hit,
            None => {
                // Search-free: replay the served kernel's persisted config
                // on the fused shape. No tuner search, no artifact entry —
                // a warm engine stays at zero searches through fusion.
                let provider = UnitProvider::new(self.targets[target_id].clone(), per.replay)
                    .with_workers(self.workers);
                let built = Arc::new(provider.compile_workload_full(&fused_key.spec));
                cache.get_or_insert_with(fused_key.clone(), || built)
            }
        };
        if fused.func.buffers.len() != per.func.buffers.len() || fused.output != per.output {
            return None;
        }
        for (fb, pb) in fused.func.buffers.iter().zip(&per.func.buffers) {
            if fb.dtype != pb.dtype || fb.len() != pb.len() * n {
                return None;
            }
        }
        Some(fused)
    }

    /// The per-target tape cache: lower the kernel once, replay forever.
    fn ensure_tape(
        &self,
        target_id: &str,
        key: &KernelCacheKey,
        kernel: &CompiledOp,
        trace: Option<&TraceHandle>,
    ) -> Result<Arc<Tape>, ServeError> {
        let cache = &self.tapes[target_id];
        if let Some(hit) = cache.get(key) {
            return Ok(hit);
        }
        let span = trace.map(|t| t.start("tape_compile"));
        let tape = Arc::new(Tape::compile(&kernel.func).map_err(ServeError::Exec)?);
        if let Some(span) = span {
            let stats = tape.stats();
            span.finish(format!(
                "func={} ops={} intrin_sites={} elided_guards={} epilogue_ops={}",
                kernel.func.name,
                stats.ops,
                stats.intrin_sites,
                stats.elided_guards,
                stats.epilogue_ops
            ));
        }
        let won = cache.get_or_insert_with(key.clone(), || Arc::clone(&tape));
        if Arc::ptr_eq(&won, &tape) {
            self.metrics.record_tape_compile();
        }
        Ok(won)
    }

    /// The artifact-aware compile path. Returns the executable kernel
    /// for `(workload, target, engine tuning)` and the tier that
    /// compiled it, from (in order): the per-target executable cache,
    /// artifact replay, or a cold compile — at the cold tier on tiered
    /// engines — which records its decision into the artifact store.
    fn ensure_compiled(
        &self,
        model: &str,
        target_id: &str,
        workload: CacheWorkload,
    ) -> (Arc<CompiledOp>, TuneTier) {
        self.ensure_compiled_traced(model, target_id, workload, None)
    }

    /// [`Self::ensure_compiled`] with compile-path spans: `cache_lookup`
    /// on every call, then `artifact_replay` or `cold_compile` plus
    /// back-dated per-stage spans (inspect → tune → lower) on misses.
    fn ensure_compiled_traced(
        &self,
        model: &str,
        target_id: &str,
        workload: CacheWorkload,
        trace: Option<&TraceHandle>,
    ) -> (Arc<CompiledOp>, TuneTier) {
        let target = &self.targets[target_id];
        let exec = &self.exec[target_id];
        let key = KernelCacheKey::new(workload, target_id, self.tuning);
        // The hit path holds the swap lock across the whole
        // read-tier-record sequence. Without it, a background hot-swap
        // landing between the exec-cache read and the artifact record
        // let this thread write the stale cold-tier entry (with the
        // cold replay config) into a namespace the swap had already
        // upgraded — a lost update that resurrected the cheap kernel on
        // the next warm start. Journal I/O stays outside the lock.
        let lookup = trace.map(|t| t.start("cache_lookup"));
        let hit = {
            let _swap = lock_recovering(&self.swap);
            exec.get(&key).map(|hit| {
                let tier = self.kernel_tier(target_id, &key);
                // The executable cache is keyed per (workload, target),
                // not per model — a second model sharing a workload with
                // an earlier one rides the same kernel. Its *artifact*
                // entry must still be recorded, or a warm start serving
                // only this model would re-search.
                let entry = ArtifactEntry {
                    workload,
                    tuning: self.tuning,
                    replay: hit.replay,
                    micros: hit.micros,
                    note: hit.note.clone(),
                    tier,
                };
                let inserted =
                    lock_recovering(&self.artifacts).absorb(model, target_id, entry.clone());
                (hit, tier, inserted.then_some(entry))
            })
        };
        if let Some((hit, tier, journaled)) = hit {
            if let Some(span) = lookup {
                span.finish(format!("kernel_cache=hit tier={tier:?}"));
            }
            self.metrics.record_kernel_hit();
            if let Some(entry) = journaled {
                self.journal_put(model, target_id, entry);
            }
            if tier == TuneTier::Cold {
                self.enqueue_retune(model, target_id, workload);
            }
            return (hit, tier);
        }
        self.metrics.record_kernel_miss();

        let entry = lock_recovering(&self.artifacts)
            .lookup(model, target_id, &workload, self.tuning)
            .cloned();
        if let Some(span) = lookup {
            span.finish(format!(
                "kernel_cache=miss artifact={}",
                if entry.is_some() { "hit" } else { "miss" }
            ));
        }
        let (compiled, tier) = match entry {
            Some(entry) => {
                self.metrics.record_artifact_hit();
                let span = trace.map(|t| t.start("artifact_replay"));
                // Replay: rebuild the identical kernel search-free; the
                // persisted micros/note are authoritative (the replayed
                // estimate would differ on GPU targets, where `Generic`
                // re-profiles a different config).
                let provider =
                    UnitProvider::new(target.clone(), entry.replay).with_workers(self.workers);
                let mut compiled = provider.compile_workload_full(&workload);
                compiled.micros = entry.micros;
                compiled.note = entry.note;
                compiled.replay = entry.replay;
                if let Some(t) = trace {
                    record_stage_spans(t, compiled.stages, "path=artifact_replay");
                }
                if let Some(span) = span {
                    span.finish(format!("tier={:?} note={}", entry.tier, compiled.note));
                }
                if entry.tier == TuneTier::Cold {
                    // A replayed cold-tier decision serves cheaply but
                    // still owes its full-tier upgrade.
                    self.enqueue_retune(model, target_id, workload);
                }
                (compiled, entry.tier)
            }
            None => {
                self.metrics.record_artifact_miss();
                let (effective, tier) = self.cold_compile_config();
                let span = trace.map(|t| t.start("cold_compile"));
                let started = Instant::now();
                let provider =
                    UnitProvider::new(target.clone(), effective).with_workers(self.workers);
                let compiled = provider.compile_workload_full(&workload);
                if let Some(t) = trace {
                    record_stage_spans(t, compiled.stages, "path=cold_compile");
                }
                if let Some(span) = span {
                    span.finish(format!("tier={tier:?} note={}", compiled.note));
                }
                // A search only actually ran when the workload tensorized
                // (fallback kernels never reach the tuner), keeping this
                // metric aligned with the ground-truth counters in
                // `unit_core::tuner::stats`.
                if compiled.tensorized && effective.searches(&target.desc.style) {
                    self.metrics.record_tuner_search();
                }
                self.metrics.record_cold_start(tier, started.elapsed());
                self.persist_entry(
                    model,
                    target_id,
                    ArtifactEntry {
                        workload,
                        tuning: self.tuning,
                        replay: compiled.replay,
                        micros: compiled.micros,
                        note: compiled.note.clone(),
                        tier,
                    },
                );
                if tier == TuneTier::Cold {
                    self.enqueue_retune(model, target_id, workload);
                }
                (compiled, tier)
            }
        };
        // A fused kernel was (re)built for this engine: account its
        // in-dispatch epilogue ops — the per-op reference passes the
        // fusion eliminated from the serve path.
        if let CacheWorkload::Fused { epi, .. } = workload {
            if !epi.is_empty() {
                self.metrics.record_epilogue_fusion(epi.len());
            }
        }
        // Keep the latency cache coherent so whole-model reports agree
        // with what requests were served (first-insert-wins on races).
        self.latency[target_id]
            .get_or_insert_with(key.clone(), || (compiled.micros, compiled.note.clone()));
        let compiled = Arc::new(compiled);
        let _swap = lock_recovering(&self.swap);
        let won = exec.get_or_insert_with(key.clone(), || Arc::clone(&compiled));
        if Arc::ptr_eq(&won, &compiled) {
            self.kernel_tiers[target_id].insert(key, tier);
            (won, tier)
        } else {
            // Lost the insert race (possibly against a concurrent
            // hot-swap): the winner's tier tag is authoritative.
            let tier = self.kernel_tier(target_id, &key);
            (won, tier)
        }
    }

    /// The tuning config and tier a cold compile runs at. Tiered
    /// engines compile at the capped cold tier *only when it actually
    /// differs* from the full config — `at_tier` on an already-cheap
    /// config is the identity, and labelling those compiles `Cold`
    /// would queue re-tunes that cannot improve anything.
    fn cold_compile_config(&self) -> (TuningConfig, TuneTier) {
        if self.tiered && self.cold_tuning != self.tuning {
            (self.cold_tuning, TuneTier::Cold)
        } else {
            (self.tuning, TuneTier::Full)
        }
    }

    /// The tier that compiled the exec-cached kernel under `key`
    /// (absent = full tier).
    fn kernel_tier(&self, target_id: &str, key: &KernelCacheKey) -> TuneTier {
        self.kernel_tiers[target_id].get(key).unwrap_or_default()
    }

    /// Record the exec-cached kernel for `workload` into `model`'s
    /// artifact namespace, reading kernel and tier together under the
    /// swap lock so a concurrent hot-swap cannot produce a mixed-tier
    /// record. Returns `false` when no executable kernel is cached
    /// (the caller falls through to the compile path).
    fn record_cached_artifact(
        &self,
        model: &str,
        target_id: &str,
        workload: CacheWorkload,
    ) -> bool {
        let key = KernelCacheKey::new(workload, target_id, self.tuning);
        let (tier, journaled) = {
            let _swap = lock_recovering(&self.swap);
            let Some(kernel) = self.exec[target_id].get(&key) else {
                return false;
            };
            let tier = self.kernel_tier(target_id, &key);
            let entry = ArtifactEntry {
                workload,
                tuning: self.tuning,
                replay: kernel.replay,
                micros: kernel.micros,
                note: kernel.note.clone(),
                tier,
            };
            let inserted = lock_recovering(&self.artifacts).absorb(model, target_id, entry.clone());
            (tier, inserted.then_some(entry))
        };
        if let Some(entry) = journaled {
            self.journal_put(model, target_id, entry);
        }
        if tier == TuneTier::Cold {
            self.enqueue_retune(model, target_id, workload);
        }
        true
    }

    /// Absorb `entry` into the store (insert if absent, upgrade if
    /// strictly higher tier) and append newly learned decisions to the
    /// attached journal. The journal append happens *outside* the
    /// artifacts mutex — journal I/O (lock, write, fsync) must never
    /// serialize the compile path behind it.
    fn persist_entry(&self, model: &str, target_id: &str, entry: ArtifactEntry) {
        if lock_recovering(&self.artifacts).absorb(model, target_id, entry.clone()) {
            self.journal_put(model, target_id, entry);
        }
    }

    /// Append a `put` record for `entry` to the attached journal, if
    /// any. Serving must survive journal I/O failures (a full disk
    /// poisons durability, not availability); the error count is
    /// visible in `/metrics`.
    fn journal_put(&self, model: &str, target_id: &str, entry: ArtifactEntry) {
        let Some(journal) = lock_recovering(&self.journal).clone() else {
            return;
        };
        let record = JournalRecord::Put {
            model: model.to_string(),
            target: target_id.to_string(),
            entry: Box::new(entry),
        };
        match journal.append(std::slice::from_ref(&record)) {
            Ok(compacted) => {
                self.metrics.record_journal_append();
                if compacted {
                    self.metrics.record_journal_compaction();
                }
            }
            Err(_) => self.metrics.record_journal_error(),
        }
    }

    /// Queue a background re-tune for `workload` (tiered engines only;
    /// deduplicated per `(target, workload)` and bounded).
    fn enqueue_retune(&self, model: &str, target_id: &str, workload: CacheWorkload) {
        if !self.tiered {
            return;
        }
        let job = RetuneJob {
            model: model.to_string(),
            target: target_id.to_string(),
            workload,
            enqueued: Instant::now(),
        };
        if self.retunes.push(job) {
            self.metrics.record_retune_queued();
        }
    }

    /// Pending background re-tune jobs.
    #[must_use]
    pub fn pending_retunes(&self) -> usize {
        self.retunes.len()
    }

    /// Synchronously drain the re-tune queue, hottest `(model, target)`
    /// pair first. Returns the number of hot swaps performed (a job
    /// whose kernel was already full-tier completes without swapping).
    /// [`crate::retune::RetuneWorker`] calls this in a loop; tests and
    /// single-threaded demos call it directly for determinism.
    pub fn run_pending_retunes(&self) -> usize {
        let mut swaps = 0;
        while let Some(job) = self
            .retunes
            .pop_max_by(|j| self.metrics.hot_pair_requests(&j.model, &j.target))
        {
            if self.retune(&job) {
                swaps += 1;
            }
        }
        swaps
    }

    /// Park until re-tune work arrives or `timeout` elapses.
    pub(crate) fn wait_for_retune_work(&self, timeout: Duration) {
        self.retunes.wait_for_work(timeout);
    }

    /// Run one re-tune job: re-run the tuner at the **full** tier
    /// (outside every lock — the search is the expensive part), then
    /// atomically swap the upgraded kernel in under the swap lock:
    /// artifact entries (every model namespace sharing the identity),
    /// exec-cache slot, tier tag, latency entry and tape move together,
    /// so no request can observe a full-tier artifact with a cold-tier
    /// kernel or vice versa. Journals the upgrade for peer replicas.
    /// Returns whether a swap happened.
    fn retune(&self, job: &RetuneJob) -> bool {
        // Re-tunes get traces of their own: the request that queued the
        // job finished long ago, so its timeline cannot carry the
        // background upgrade.
        let own = self.tracer.begin(format!(
            "retune target={} workload={:?}",
            job.target, job.workload
        ));
        if let Some(t) = own.as_ref() {
            let wait = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
            t.record_ending_now("retune_queue_wait", wait, "");
        }
        let swapped = self.retune_inner(job, own.as_ref());
        if let Some(handle) = own {
            self.finish_trace(&handle);
        }
        swapped
    }

    fn retune_inner(&self, job: &RetuneJob, trace: Option<&TraceHandle>) -> bool {
        let Some(target) = self.targets.get(&job.target) else {
            self.metrics.record_retune_completed();
            return false;
        };
        let provider = UnitProvider::new(target.clone(), self.tuning).with_workers(self.workers);
        let compiled = provider.compile_workload_full(&job.workload);
        if let Some(t) = trace {
            record_stage_spans(t, compiled.stages, "path=retune_full_tier");
        }
        if compiled.tensorized && self.tuning.searches(&target.desc.style) {
            self.metrics.record_tuner_search();
        }
        let entry = ArtifactEntry {
            workload: job.workload,
            tuning: self.tuning,
            replay: compiled.replay,
            micros: compiled.micros,
            note: compiled.note.clone(),
            tier: TuneTier::Full,
        };
        let tape = Tape::compile(&compiled.func).ok();
        let key = KernelCacheKey::new(job.workload, &job.target, self.tuning);
        let compiled = Arc::new(compiled);
        let swap_span = trace.map(|t| t.start("hot_swap"));
        let upgraded: Vec<String> = {
            let _swap = lock_recovering(&self.swap);
            let mut artifacts = lock_recovering(&self.artifacts);
            // Every model namespace holding this identity below full
            // tier upgrades together — the kernel is shared.
            let models: Vec<String> = artifacts
                .model_targets()
                .into_iter()
                .filter(|(m, t)| {
                    t == &job.target
                        && artifacts
                            .lookup(m, t, &job.workload, self.tuning)
                            .is_some_and(|e| e.tier < TuneTier::Full)
                })
                .map(|(m, _)| m)
                .collect();
            if models.is_empty() {
                Vec::new()
            } else {
                for model in &models {
                    artifacts.record(model, &job.target, entry.clone());
                }
                drop(artifacts);
                self.latency[&job.target].insert(key.clone(), (entry.micros, entry.note.clone()));
                self.exec[&job.target].insert(key.clone(), Arc::clone(&compiled));
                self.kernel_tiers[&job.target].insert(key.clone(), TuneTier::Full);
                if let Some(tape) = tape {
                    self.tapes[&job.target].insert(key, Arc::new(tape));
                }
                models
            }
        };
        if let Some(span) = swap_span {
            span.finish(format!("upgraded_namespaces={}", upgraded.len()));
        }
        self.metrics.record_retune_completed();
        if upgraded.is_empty() {
            return false;
        }
        self.metrics.record_retune_swap();
        for model in &upgraded {
            self.journal_put(model, &job.target, entry.clone());
        }
        true
    }
}

/// Back-date compile-stage spans (inspect → tune → lower) onto `trace`
/// from the kernel's measured [`StageTimings`], anchored so the last
/// stage ends now — stages are measured inside the compile pipeline,
/// which knows nothing about tracing. `lower` is zero-width on CPU
/// kernels (lowering happens inside the tuner's measured candidates).
fn record_stage_spans(trace: &TraceHandle, stages: StageTimings, detail: &str) {
    let end = trace.now_us();
    let lower_start = end.saturating_sub(stages.lower_us);
    let tune_start = lower_start.saturating_sub(stages.tune_us);
    let inspect_start = tune_start.saturating_sub(stages.inspect_us);
    trace.record("inspect", inspect_start, tune_start, detail);
    trace.record("tune", tune_start, lower_start, detail);
    trace.record("lower", lower_start, end, detail);
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine")
            .field("targets", &self.target_ids())
            .field("artifact_entries", &lock_recovering(&self.artifacts).len())
            .finish_non_exhaustive()
    }
}

/// Reference report for tests: the plain serial graph compiler, which
/// the engine's artifact-aware reports must match bit-for-bit.
#[must_use]
pub fn reference_report(graph: &Graph, target: Target, tuning: TuningConfig) -> E2eReport {
    let provider = UnitProvider::new(target, tuning);
    e2e_latency(graph, &provider)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_interp::{alloc_op_buffers, run_reference};

    /// The DSL semantics of `op` lowered for `target`, run directly by
    /// `run_reference` — no schedule, no tape.
    fn reference_output(op: OpSpec, target: &str, seed: u64) -> TypedBuf {
        let (ref_op, _) =
            unit_graph::layout::op_for_target(&op, &registry::target_by_id(target).unwrap());
        let mut bufs = alloc_op_buffers(&ref_op);
        random_fill(&mut bufs, seed);
        run_reference(&ref_op, &mut bufs).unwrap();
        bufs.swap_remove(ref_op.output.0 as usize)
    }

    #[test]
    fn execute_matches_reference_and_hits_cache_on_repeat() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        let out1 = engine.execute("t", "x86-avx512-vnni", op, 7).unwrap();
        let out2 = engine.execute("t", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(out1.output, out2.output, "same seed, same bits");
        assert!(out1.tensorized);
        assert_eq!(out1.output, reference_output(op, "x86-avx512-vnni", 7));
        // One miss (the first call), one executable-cache hit.
        assert!((engine.metrics().kernel_hit_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn unknown_target_is_a_typed_error() {
        let engine = ServeEngine::new(TuningConfig::default());
        let err = engine
            .execute("t", "riscv-vector", OpSpec::gemm(8, 8, 8), 1)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownTarget(id) if id == "riscv-vector"));
    }

    #[test]
    fn invalid_model_ids_are_rejected_without_poisoning_the_engine() {
        // Regression: ids containing the artifact format's reserved
        // characters used to panic inside ArtifactStore::record *while
        // holding the artifacts mutex*, poisoning it and failing every
        // later cold compile and export.
        let engine = ServeEngine::new(TuningConfig::default());
        for bad in ["a|b", "a\nb", ""] {
            let err = engine
                .execute(bad, "x86-avx512-vnni", OpSpec::gemm(8, 8, 8), 1)
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidModelId(_)), "{bad:?}");
        }
        let mut graph = unit_graph::models::transformer_tiny();
        graph.name = "bad|name".to_string();
        assert!(matches!(
            engine.compile_model(&graph, "x86-avx512-vnni"),
            Err(ServeError::InvalidModelId(_))
        ));
        // The engine is still fully functional afterwards, and the
        // exported store persists through the journal and reads back
        // (an empty id would have written a line the parser rejects).
        assert!(engine
            .execute("good", "x86-avx512-vnni", OpSpec::gemm(8, 8, 8), 1)
            .is_ok());
        let store = engine.export_artifacts();
        assert!(!store.is_empty());
        let path = std::env::temp_dir().join(format!("unit-engine-ids-{}", std::process::id()));
        let journal = Journal::open(crate::JournalConfig::at(&path)).unwrap();
        journal
            .append(&crate::journal::store_records(&store))
            .unwrap();
        let back = Journal::open(crate::JournalConfig::at(&path))
            .expect("exported store stays loadable")
            .snapshot()
            .unwrap();
        assert_eq!(back.len(), store.len());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("lock")).ok();
    }

    #[test]
    fn poisoned_artifacts_mutex_does_not_wedge_the_engine() {
        // Regression: every `artifacts.lock().unwrap()` used to panic
        // forever once any thread panicked while holding the mutex — one
        // poisoned client request turned the whole engine read-only.
        // `lock_recovering` takes the data back instead.
        let engine = Arc::new(ServeEngine::new(TuningConfig::default()));
        let op = OpSpec::gemm(16, 16, 32);
        engine.execute("before", "x86-avx512-vnni", op, 1).unwrap();

        // Poison both engine mutexes the way a panicking request thread
        // would: panic while holding the guard.
        for _ in 0..2 {
            let poisoner = Arc::clone(&engine);
            let result = std::thread::spawn(move || {
                let _swap = poisoner.swap.lock().unwrap();
                let _artifacts = poisoner.artifacts.lock().unwrap();
                let _journal = poisoner.journal.lock().unwrap();
                panic!("simulated client panic while holding engine locks");
            })
            .join();
            assert!(result.is_err(), "the poisoning thread must panic");
        }
        assert!(engine.artifacts.lock().is_err(), "mutex really is poisoned");

        // Subsequent requests — cache hits, cold compiles, whole-model
        // compiles and exports — all still succeed.
        let hit = engine.execute("before", "x86-avx512-vnni", op, 1).unwrap();
        assert!(!hit.output.is_empty());
        engine
            .execute("after", "arm-neon-dot", OpSpec::gemm(8, 8, 8), 2)
            .unwrap();
        engine
            .compile_model(&unit_graph::models::transformer_tiny(), "x86-avx512-vnni")
            .unwrap();
        let store = engine.export_artifacts();
        assert!(store
            .lookup(
                "after",
                "arm-neon-dot",
                &CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
                engine.tuning()
            )
            .is_some());
        assert_eq!(engine.sync_journal().unwrap(), 0, "no journal attached");
    }

    #[test]
    fn shared_workloads_are_recorded_under_every_requesting_model() {
        // Regression: the executable cache is keyed per (workload,
        // target) — without explicit recording, the second model's
        // cache-hit path skipped the artifact store entirely, so a warm
        // start serving only that model would re-search.
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        let workload = CacheWorkload::Op(op);
        engine.execute("model-a", "x86-avx512-vnni", op, 1).unwrap();
        engine.execute("model-b", "x86-avx512-vnni", op, 2).unwrap();
        let store = engine.export_artifacts();
        for model in ["model-a", "model-b"] {
            let entry = store
                .lookup(model, "x86-avx512-vnni", &workload, engine.tuning())
                .unwrap_or_else(|| panic!("{model} must have an artifact entry"));
            assert!(entry.micros > 0.0);
        }
        // Both entries describe the identical kernel.
        let a = store.lookup("model-a", "x86-avx512-vnni", &workload, engine.tuning());
        let b = store.lookup("model-b", "x86-avx512-vnni", &workload, engine.tuning());
        assert_eq!(a, b);
    }

    #[test]
    fn compile_model_records_shared_workloads_under_each_model() {
        // Regression: the latency-cache-hit skip path in compile_model
        // used to bypass artifact recording entirely, so a second model
        // sharing workloads with the first was never persisted and
        // re-searched on warm start.
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let engine = ServeEngine::new(TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 2 },
            gpu: GpuTuneMode::Tuned,
        });
        let a = unit_graph::models::transformer_tiny();
        let mut b = unit_graph::models::transformer_tiny();
        b.name = "transformer-clone".to_string();
        engine.compile_model(&a, "x86-avx512-vnni").unwrap();
        engine.compile_model(&b, "x86-avx512-vnni").unwrap();
        let store = engine.export_artifacts();
        let a_entries = store.entries(&a.name, "x86-avx512-vnni");
        let b_entries = store.entries(&b.name, "x86-avx512-vnni");
        assert!(!a_entries.is_empty());
        assert_eq!(
            a_entries.len(),
            b_entries.len(),
            "the clone must be fully persisted under its own namespace"
        );
    }

    #[test]
    fn tape_is_the_default_path_and_matches_the_interpreter_oracle() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        for seed in 0..3 {
            let t = engine.execute("t", "arm-neon-dot", op, seed).unwrap();
            assert_eq!(
                t.output,
                reference_output(op, "arm-neon-dot", seed),
                "tape diverged from run_reference at seed {seed}"
            );
        }
        // The tape was compiled once and dispatched per request.
        assert_eq!(engine.metrics().tape_compiles(), 1);
        assert_eq!(engine.metrics().tape_dispatches(), 3);
    }

    #[test]
    fn fused_gemm_batch_is_one_dispatch_with_bit_identical_outputs() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::batched_gemm(2, 8, 16, 16);
        let seeds = [1u64, 2, 3, 4];
        let expected: Vec<TypedBuf> = seeds
            .iter()
            .map(|&s| {
                engine
                    .execute("m", "x86-avx512-vnni", op, s)
                    .unwrap()
                    .output
            })
            .collect();
        let before = engine.metrics().tape_dispatches();
        let fused = engine
            .execute_gemm_batch("m", "x86-avx512-vnni", op, &seeds)
            .unwrap();
        assert_eq!(fused.len(), seeds.len());
        for (j, (got, want)) in fused.iter().zip(&expected).enumerate() {
            assert_eq!(got.output, *want, "fused output {j} diverged");
        }
        // Four requests, ONE tape dispatch.
        assert_eq!(engine.metrics().tape_dispatches(), before + 1);
        assert_eq!(engine.metrics().tape_fused_requests(), seeds.len() as u64);
        // And no tuner search was spent on the fused shape.
        let searches = engine.metrics().tuner_searches();
        engine
            .execute_gemm_batch("m", "x86-avx512-vnni", op, &seeds)
            .unwrap();
        assert_eq!(engine.metrics().tuner_searches(), searches);
    }

    #[test]
    fn gemm_batch_falls_back_per_request_when_fusion_does_not_apply() {
        let engine = ServeEngine::new(TuningConfig::default());
        // Single request: no fusion.
        let gemm = OpSpec::gemm(8, 16, 16);
        let one = engine
            .execute_gemm_batch("m", "arm-neon-dot", gemm, &[7])
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(engine.metrics().tape_fused_requests(), 0);
        assert_eq!(one[0].output, reference_output(gemm, "arm-neon-dot", 7));
        // Conv: no batch axis to stack on.
        let conv = OpSpec::conv2d(4, 6, 8, 3, 1, 1);
        let outs = engine
            .execute_gemm_batch("m", "arm-neon-dot", conv, &[1, 2])
            .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(engine.metrics().tape_fused_requests(), 0);
        // Each fallback request still runs its own tape dispatch and
        // matches the DSL semantics.
        assert_eq!(engine.metrics().tape_dispatches(), 3);
        for (out, seed) in outs.iter().zip([1, 2]) {
            assert_eq!(out.output, reference_output(conv, "arm-neon-dot", seed));
        }
    }

    #[test]
    fn tiered_engine_serves_cold_then_hot_swaps_to_full() {
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 16 },
            gpu: GpuTuneMode::Tuned,
        };
        let engine = ServeEngine::new(tuning).with_tiered_cold_start();
        let op = OpSpec::gemm(16, 16, 32);
        let workload = CacheWorkload::Op(op);

        // Cold start: answered immediately at the cheap tier, with the
        // cold decision persisted and the upgrade queued.
        let cold = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(cold.tier, TuneTier::Cold);
        assert_eq!(engine.pending_retunes(), 1);
        let store = engine.export_artifacts();
        assert_eq!(
            store
                .lookup("m", "x86-avx512-vnni", &workload, tuning)
                .unwrap()
                .tier,
            TuneTier::Cold
        );

        // Drain the queue: exactly one hot swap.
        assert_eq!(engine.run_pending_retunes(), 1);
        assert_eq!(engine.pending_retunes(), 0);

        // Post-swap: full tier, same bits, artifact upgraded — and
        // bit-identical to a non-tiered engine that paid the full
        // search up front.
        let hot = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(hot.tier, TuneTier::Full);
        assert_eq!(hot.output, cold.output, "tiers must not change bits");
        let store = engine.export_artifacts();
        assert_eq!(
            store
                .lookup("m", "x86-avx512-vnni", &workload, tuning)
                .unwrap()
                .tier,
            TuneTier::Full
        );
        let reference = ServeEngine::new(tuning)
            .execute("m", "x86-avx512-vnni", op, 7)
            .unwrap();
        assert_eq!(reference.tier, TuneTier::Full);
        assert_eq!(hot.output, reference.output);

        let m = engine.metrics();
        assert_eq!(m.retune_queued(), 1);
        assert_eq!(m.retune_completed(), 1);
        assert_eq!(m.retune_swaps(), 1);
    }

    #[test]
    fn non_tiered_engine_stays_full_tier_and_never_queues() {
        let engine = ServeEngine::new(TuningConfig::default());
        let out = engine
            .execute("m", "x86-avx512-vnni", OpSpec::gemm(8, 8, 8), 1)
            .unwrap();
        assert_eq!(out.tier, TuneTier::Full);
        assert_eq!(engine.pending_retunes(), 0);
        assert_eq!(engine.run_pending_retunes(), 0);
        assert_eq!(engine.metrics().retune_queued(), 0);
        assert!(engine
            .export_artifacts()
            .entries("m", "x86-avx512-vnni")
            .iter()
            .all(|e| e.tier == TuneTier::Full));
    }

    #[test]
    fn hit_path_cannot_resurrect_a_swapped_out_cold_entry() {
        // Satellite regression: the hit path used to read the cached
        // kernel and record its artifact entry in two unlocked steps; a
        // hot swap landing between them re-recorded the stale cold
        // entry over the freshly upgraded one. The swap lock now covers
        // read-tier-record as one critical section, so a request thread
        // observes either (cold kernel, cold tier) or (full kernel,
        // full tier) — never a mix, and never a downgrade.
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 16 },
            gpu: GpuTuneMode::Tuned,
        };
        let engine = Arc::new(ServeEngine::new(tuning).with_tiered_cold_start());
        let op = OpSpec::gemm(16, 16, 32);
        let workload = CacheWorkload::Op(op);
        let cold = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(cold.tier, TuneTier::Cold);

        // One thread hammers the hit path while this thread swaps.
        let hammer = {
            let engine = Arc::clone(&engine);
            let expected = cold.output.clone();
            std::thread::spawn(move || {
                let mut tiers = Vec::new();
                for _ in 0..200 {
                    let out = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
                    assert_eq!(out.output, expected, "bits changed mid-swap");
                    tiers.push(out.tier);
                }
                tiers
            })
        };
        let mut swaps = engine.run_pending_retunes();
        let tiers = hammer.join().unwrap();
        swaps += engine.run_pending_retunes();
        assert!(swaps >= 1, "the cold kernel must have been swapped");

        // Within one request thread the observed tier is monotone: once
        // the swap is visible it cannot un-happen.
        let first_full = tiers.iter().position(|t| *t == TuneTier::Full);
        if let Some(i) = first_full {
            assert!(
                tiers[i..].iter().all(|t| *t == TuneTier::Full),
                "tier regressed after the swap: {tiers:?}"
            );
        }
        // And the artifact record ends full-tier: no stale cold entry
        // resurrected by a racing hit.
        let store = engine.export_artifacts();
        assert_eq!(
            store
                .lookup("m", "x86-avx512-vnni", &workload, tuning)
                .unwrap()
                .tier,
            TuneTier::Full
        );
        let after = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(after.tier, TuneTier::Full);
        assert_eq!(after.output, cold.output);
    }

    #[test]
    fn different_seeds_produce_different_outputs() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        let a = engine.execute("t", "arm-neon-dot", op, 1).unwrap();
        let b = engine.execute("t", "arm-neon-dot", op, 2).unwrap();
        assert_ne!(a.output, b.output);
    }
}
