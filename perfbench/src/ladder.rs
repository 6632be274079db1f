//! The traced run: the same requests issued at each layer's public entry
//! point, from the top of the stack down, with spans recorded around
//! every call.
//!
//! | layer   | entry point                         | span            |
//! |---------|-------------------------------------|-----------------|
//! | L4      | `net::http_request` -> `HttpServer` | `http`          |
//! | L3      | `Scheduler::submit` -> reply        | `queue`         |
//! | L2      | `ServeEngine::execute[_model]`      | `execute`       |
//! | L1      | `Tape::run` (reused scratch)        | `tape_dispatch` |
//! | L0      | `unit_isa::execute`                 | `intrin`        |
//! | compile | `UnitProvider` / `Tensorizer` stages| `inspect` `tune` `lower` `tape_compile` |
//!
//! A layer's self time is its span minus its logical child's (the layer
//! below, issued separately for the same request); the `*.overhead_ms`
//! metrics are those self times. Every traced run measures every layer, so
//! it reports every per-layer metric whichever workload it names, on probe
//! requests drawn from the pools with the run's seed. Spans stay in
//! memory and are written at the end as Chrome `trace_event` JSON.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use unit_core::pipeline::Target;
use unit_graph::compile::UnitProvider;
use unit_graph::{build_plan, unique_workloads, CacheWorkload, Graph, ModelPlan, OpSpec};
use unit_interp::{alloc_buffers, alloc_op_buffers, random_fill, Tape, TapeProfile, TapeScratch};
use unit_isa::{registry, TensorIntrinsic, TypedBuf};
use unit_serve::{model_graph, Scheduler, SchedulerConfig, ServeEngine, ServeRequest, SubmitError};

use crate::floor::floor_ms;
use crate::oracle;
use crate::report::{json_str, mean, median, RunResult};
use crate::stack::{
    self, graph_body, op_body, payload_hash, pool_seeds, Rng, Stack, GRAPH, HTTP_TIMEOUT, MODEL_ID,
};
use crate::workloads::{self, Opts, Sample};

/// Repetitions of each ladder call; the layer time is their median.
const REPS: usize = 3;
/// Small ops are cheap: more repetitions for a steadier overhead.
const SMALL_REPS: usize = 7;
/// Kernel-heavy tape runs, each paired with its L0 replay.
const TAPE_REPS: usize = 5;
/// Forward passes per target, each paired with its step tape runs.
const GLUE_REPS: usize = 15;

/// Arrival rate of the scheduler probe's open loop: a quarter of the
/// ~850 req/s an overloaded (fully batching) scheduler completed on the
/// same mix on a 2-core x86 host. At half that capacity the queue sat
/// near its knee, and the median latency of identical runs varied 2.5x.
const SMALL_OP_RATE: f64 = 200.0;
/// Requests arrive in bursts of this many at once (every
/// `SMALL_OP_BURST / SMALL_OP_RATE` seconds): evenly spaced single
/// arrivals at this rate never share a batch, and the stream would not
/// exercise batching or batch fusion at all. Each burst carries the same
/// number of requests for every target; with free draws, the tail
/// latency was set by the few bursts that happened to pile onto one
/// target.
const SMALL_OP_BURST: usize = 8;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder (the ladder is single-threaded).
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }

    fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Time `f` as span `name`; returns its result, the span's duration
    /// in ms and the span index.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64, usize) {
        let start = self.epoch.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            request,
        });
        (out, (end - start) / 1e3, self.spans.len() - 1)
    }

    /// Record an interval measured elsewhere (compile stages, which the
    /// compiler reports as durations).
    fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
        parent: Option<usize>,
        request: u64,
    ) {
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us + dur_us,
            parent,
            request,
        });
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {i}, \"parent\": {}, \"request\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Median of `reps` timed calls of one layer for one request, each call
/// its own span under `parent`.
fn layer<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (Vec<T>, f64, usize) {
    let mut outs = Vec::with_capacity(reps);
    let mut times = Vec::with_capacity(reps);
    let mut first = None;
    for _ in 0..reps {
        let (out, ms, idx) = tr.span(name, parent, request, &mut f);
        first.get_or_insert(idx);
        outs.push(out);
        times.push(ms);
    }
    (outs, median(&times), first.expect("reps > 0"))
}

/// The intrinsic a compiled kernel dispatches (its note starts with the
/// instruction name); `None` for SIMD-fallback kernels.
fn kernel_intrinsic(note: &str, target: &str) -> Option<TensorIntrinsic> {
    registry::for_target(target)
        .into_iter()
        .find(|i| note.starts_with(&format!("{} ", i.name)))
}

/// L0 for one request: the tape's intrinsic dispatches replayed as
/// `unit_isa::execute` calls on `regs`, seeded like the request.
fn replay_intrinsic(intrin: &TensorIntrinsic, dispatches: u64, regs: &mut [TypedBuf]) {
    for _ in 0..dispatches {
        unit_isa::execute(intrin, std::hint::black_box(&mut *regs)).expect("intrinsic executes");
    }
}

/// A compiled kernel plus its tape, built outside the engine exactly as
/// the engine's cold path builds it.
struct Kernel {
    tape: Tape,
    func: unit_tir::TirFunc,
    output: usize,
    note: String,
}

/// Compile `workload` for `target`, recording the tape compile as a
/// `tape_compile` span; returns the kernel and the tape compile time, ms.
fn build_kernel(tr: &mut Tracer, workload: CacheWorkload, target: &str) -> (Kernel, f64) {
    let compiled = UnitProvider::new(Target::by_id(target).expect("target"), stack::tuning())
        .compile_workload_full(&workload);
    let request = tr.request();
    let (tape, tape_ms, _) = tr.span("tape_compile", None, request, || {
        Tape::compile(&compiled.func).expect("tape compiles")
    });
    (
        Kernel {
            tape,
            func: compiled.func,
            output: compiled.output,
            note: compiled.note,
        },
        tape_ms,
    )
}

/// L1 for one request: a kernel's tape on buffers seeded like the
/// engine's, with a scratch reused across runs. Construction makes one
/// untimed warm-up run, which also yields the exact per-run profile.
struct ArmedTape<'k> {
    kernel: &'k Kernel,
    seed: u64,
    bufs: Vec<TypedBuf>,
    scratch: TapeScratch,
    profile: TapeProfile,
}

impl<'k> ArmedTape<'k> {
    fn new(kernel: &'k Kernel, seed: u64) -> ArmedTape<'k> {
        let mut bufs = alloc_buffers(&kernel.func);
        random_fill(&mut bufs, seed);
        let mut scratch = kernel.tape.scratch();
        kernel.tape.run(&mut bufs, &mut scratch).expect("tape runs");
        let profile = scratch.profile();
        ArmedTape {
            kernel,
            seed,
            bufs,
            scratch,
            profile,
        }
    }

    /// One timed run as a `tape_dispatch` span; returns its ms and span.
    fn run(&mut self, tr: &mut Tracer, parent: Option<usize>, request: u64) -> (f64, usize) {
        let (_, ms, span) = tr.span("tape_dispatch", parent, request, || {
            self.kernel
                .tape
                .run(&mut self.bufs, &mut self.scratch)
                .expect("tape runs");
        });
        (ms, span)
    }

    /// The median of `reps` timed runs.
    fn median_run(
        &mut self,
        tr: &mut Tracer,
        parent: Option<usize>,
        request: u64,
        reps: usize,
    ) -> f64 {
        let times: Vec<f64> = (0..reps).map(|_| self.run(tr, parent, request).0).collect();
        median(&times)
    }

    /// Run once on freshly seeded buffers and hash the output: it must
    /// match the oracle, and an accumulating kernel must not have carried
    /// state between runs.
    fn fresh_output_hash(&mut self) -> u64 {
        let mut fresh = alloc_buffers(&self.kernel.func);
        random_fill(&mut fresh, self.seed);
        self.kernel
            .tape
            .run(&mut fresh, &mut self.scratch)
            .expect("tape runs");
        oracle::payload_hash_of(&fresh[self.kernel.output])
    }
}

fn http_op(addr: std::net::SocketAddr, body: &str) -> Option<u64> {
    match unit_serve::net::http_request(addr, "POST", "/v1/execute", body, HTTP_TIMEOUT) {
        Ok((200, reply)) => payload_hash(&reply),
        _ => None,
    }
}

/// Oracle comparisons made by the ladder.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Checks {
    /// `bad` of `total` comparisons failed.
    fn tally(&mut self, total: u64, bad: u64, what: String) {
        self.attempted += total;
        self.failed += bad;
        if bad > 0 {
            self.mismatches.push(what);
        }
    }

    fn check(&mut self, ok: bool, what: String) {
        self.tally(1, u64::from(!ok), what);
    }
}

/// The L2 engine, called directly. It counts the kernel-cache lookups its
/// calls make (one per op request, one per plan step of a forward pass),
/// which turns the engine's cumulative hit rate into an exact count.
struct Direct {
    engine: ServeEngine,
    lookups: u64,
    steps: u64,
}

impl Direct {
    fn execute(&mut self, target: &str, op: OpSpec, seed: u64) -> Option<u64> {
        self.lookups += 1;
        let out = self.engine.execute(MODEL_ID, target, op, seed).ok()?;
        Some(oracle::payload_hash_of(&out.output))
    }

    fn forward(&mut self, graph: &Graph, target: &str, token: u64) -> Option<u64> {
        self.lookups += self.steps;
        let out = self.engine.execute_model(graph, target, token, true).ok()?;
        Some(oracle::model_hash(&out.output))
    }

    /// Hit rate of the lookups made after the first `warm` lookups, of
    /// which `warm_misses` missed.
    fn hit_rate_since(&self, warm: u64, warm_misses: u64) -> f64 {
        let rate = self.engine.metrics().kernel_hit_rate();
        let hits = (rate * self.lookups as f64).round() as u64;
        hits.saturating_sub(warm - warm_misses) as f64 / (self.lookups - warm) as f64
    }
}

/// The request pools every traced run probes, drawn with the run's seed.
struct Pools {
    targets: Vec<String>,
    graph: Graph,
    plan: ModelPlan,
    tokens: Vec<u64>,
    heavy: Vec<(OpSpec, String)>,
    heavy_seeds: Vec<Vec<u64>>,
    small: Vec<(OpSpec, String)>,
    small_seeds: Vec<Vec<u64>>,
}

/// What an open loop observed, beside its samples.
struct OpenLoop {
    samples: Vec<Sample>,
    /// Generator lateness per arrival, ms.
    lag_ms: Vec<f64>,
    /// `ServeResponse::batch_size` per completed request.
    batch_sizes: Vec<f64>,
}

/// Open loop in-process at `Scheduler::try_submit`: the calling thread
/// submits each burst of same-time arrivals at its due time, regardless of
/// replies, and one waiter thread per request blocks on its reply. Latency
/// runs from the due time.
fn open_loop(scheduler: &Scheduler, schedule: &[(f64, usize, ServeRequest)]) -> OpenLoop {
    // Per request: the sample and, when answered, the batch size.
    let done: Mutex<Vec<(Sample, Option<f64>)>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let record = |sample, batch| {
        done.lock()
            .expect("a waiter panicked while recording")
            .push((sample, batch));
    };
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let started = Instant::now();
    std::thread::scope(|s| {
        for burst in schedule.chunk_by(|a, b| a.0 == b.0) {
            let due = started + Duration::from_secs_f64(burst[0].0);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let mut replies = Vec::with_capacity(burst.len());
            for (_, key, req) in burst {
                lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                match scheduler.try_submit(req.clone()) {
                    Ok((_, reply)) => replies.push((*key, reply)),
                    Err(
                        SubmitError::QueueFull
                        | SubmitError::ShuttingDown
                        | SubmitError::UnknownTarget(_),
                    ) => {
                        let sample = Sample {
                            key: *key,
                            ms: 0.0,
                            ok: false,
                            hash: 0,
                        };
                        record(sample, None);
                    }
                }
            }
            for (key, reply) in replies {
                let record = &record;
                s.spawn(move || {
                    let resp = reply.recv();
                    let ms = due.elapsed().as_secs_f64() * 1e3;
                    let resp = resp.ok();
                    let hash = resp
                        .as_ref()
                        .and_then(|r| r.result.as_ref().ok())
                        .map(oracle::payload_hash_of);
                    let sample = Sample {
                        key,
                        ms,
                        ok: hash.is_some(),
                        hash: hash.unwrap_or(0),
                    };
                    record(sample, resp.map(|r| r.batch_size as f64));
                });
            }
        }
    });
    let done = done.into_inner().expect("waiters finished");
    OpenLoop {
        batch_sizes: done.iter().filter_map(|(_, b)| *b).collect(),
        samples: done.into_iter().map(|(sample, _)| sample).collect(),
        lag_ms,
    }
}

/// A fixed-rate arrival schedule over `seconds` at `rate` requests per
/// second in bursts of `SMALL_OP_BURST`. Targets take turns within a
/// burst; each request's op and input are seeded draws from the small-op
/// pool (`kernels` is shape-major, as `op_kernels` builds it).
fn small_op_schedule(
    rng: &mut Rng,
    seconds: f64,
    rate: f64,
    kernels: &[(OpSpec, String)],
    seeds: &[Vec<u64>],
) -> Vec<(f64, usize, ServeRequest)> {
    let n_targets = stack::targets().len();
    let mut out = Vec::new();
    for i in 0..(seconds * rate) as usize {
        let at = (i / SMALL_OP_BURST * SMALL_OP_BURST) as f64 / rate;
        let kernel = rng.below(kernels.len() / n_targets) * n_targets + i % n_targets;
        let s = rng.below(stack::SEEDS_PER_KERNEL);
        let (op, target) = &kernels[kernel];
        out.push((
            at,
            kernel * stack::SEEDS_PER_KERNEL + s,
            ServeRequest {
                model: MODEL_ID.to_string(),
                target: target.clone(),
                op: *op,
                seed: seeds[kernel][s],
            },
        ));
    }
    out
}

/// State shared by the ladder's phases.
struct Ladder {
    tr: Tracer,
    checks: Checks,
    result: RunResult,
    rng: Rng,
    pools: Pools,
    tape_compile_ms: Vec<f64>,
    /// Per-request self times of L2, L3 and L4.
    engine_over: Vec<f64>,
    sched_over: Vec<f64>,
    net_over: Vec<f64>,
    /// Traced / untraced time of back-to-back identical L2 calls.
    trace_ratio: Vec<f64>,
}

/// What the kernel-heavy L1 pass leaves for the op ladder: each kernel's
/// median tape run (ms) and its oracle payload hash.
struct HeavyTapes {
    l1_ms: Vec<f64>,
    expected: Vec<u64>,
}

impl Ladder {
    fn new(seed: u64) -> Ladder {
        let graph = model_graph(GRAPH).expect("serving graph");
        let plan = build_plan(&graph).expect("graph plans");
        let (heavy, heavy_seeds) = workloads::op_kernels(&stack::heavy_shapes(), seed, 100);
        let (small, small_seeds) = workloads::op_kernels(&stack::small_shapes(), seed, 300);
        Ladder {
            tr: Tracer::new(),
            checks: Checks::default(),
            result: RunResult::new(),
            rng: Rng::new(seed ^ 0x6c61_6464_6572),
            pools: Pools {
                targets: stack::targets(),
                graph,
                plan,
                tokens: pool_seeds(seed, 200, stack::TOKEN_SEEDS),
                heavy,
                heavy_seeds,
                small,
                small_seeds,
            },
            tape_compile_ms: Vec::new(),
            engine_over: Vec::new(),
            sched_over: Vec::new(),
            net_over: Vec::new(),
            trace_ratio: Vec::new(),
        }
    }

    fn build(&mut self, workload: CacheWorkload, target: &str) -> Kernel {
        let (kernel, ms) = build_kernel(&mut self.tr, workload, target);
        self.tape_compile_ms.push(ms);
        kernel
    }

    /// L1 on every kernel-heavy (shape, target) against the scalar floor,
    /// each run followed by its L0 replay so both see the same machine
    /// state. Register set-up stays outside the `intrin` span.
    fn kernel_tapes(&mut self, seed: u64) -> HeavyTapes {
        let p = &self.pools;
        let requests: Vec<_> = p
            .heavy
            .iter()
            .zip(&p.heavy_seeds)
            .map(|((op, t), s)| (*op, t.clone(), s[0]))
            .collect();
        let expected = oracle::op_hashes(&requests, 2);
        let mut l1_ms = Vec::new();
        let (mut ops_retired, mut dispatches) = (0u64, 0u64);
        let (mut emu_ms, mut tape_ms) = (0.0, 0.0);
        // Per target: L0 time (ms), dispatches and MACs replayed.
        let mut l0: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
        for (k, (op, t, input)) in requests.iter().enumerate() {
            let kernel = self.build(CacheWorkload::Op(*op), t);
            let request = self.tr.request();
            let mut armed = ArmedTape::new(&kernel, *input);
            let prof = armed.profile;
            let intrin = kernel_intrinsic(&kernel.note, t).expect("kernel-heavy ops tensorize");
            let n = prof.intrin_dispatches;
            let mut regs = alloc_op_buffers(&intrin.semantics);
            random_fill(&mut regs, *input);
            let (mut run_ms, mut replay_ms) = (Vec::new(), Vec::new());
            for _ in 0..TAPE_REPS {
                let (ms, span) = armed.run(&mut self.tr, None, request);
                let (_, replay, _) = self.tr.span("intrin", Some(span), request, || {
                    replay_intrinsic(&intrin, n, &mut regs);
                });
                run_ms.push(ms);
                replay_ms.push(replay);
            }
            self.checks.check(
                armed.fresh_output_hash() == expected[k],
                format!("L1 {} on {t} differs from run_reference", op.describe()),
            );
            let (ms, replay_ms) = (median(&run_ms), median(&replay_ms));
            let entry = l0.entry(t.clone()).or_default();
            entry.0 += replay_ms;
            entry.1 += n;
            entry.2 += n * intrin.macs_per_call();
            emu_ms += replay_ms;
            tape_ms += ms;
            ops_retired += prof.ops_retired;
            dispatches += n;
            l1_ms.push(ms);
        }
        let n_t = self.pools.targets.len();
        for (i, (label, op)) in stack::heavy_shapes().iter().enumerate() {
            let run_ms = mean(&l1_ms[i * n_t..(i + 1) * n_t]);
            let floor = floor_ms(op, seed, 50.0);
            self.result
                .metric(format!("tape.run_ms.{label}"), run_ms, "ms");
            self.result
                .metric(format!("tape.floor_ratio.{label}"), run_ms / floor, "ratio");
        }
        for (t, (ms, n, macs)) in &l0 {
            self.result
                .metric(format!("isa.dispatch_ns.{t}"), ms * 1e6 / *n as f64, "ns");
            self.result.metric(
                format!("isa.mac_per_s.{t}"),
                *macs as f64 / (ms / 1e3),
                "MAC/s",
            );
        }
        self.result
            .metric("tape.emu_share", emu_ms / tape_ms, "ratio");
        self.result
            .metric("tape.ops_retired", ops_retired as f64, "count");
        self.result
            .metric("tape.intrin_dispatches", dispatches as f64, "count");
        HeavyTapes { l1_ms, expected }
    }

    /// L4 -> L3 -> L2 -> L1 on op requests: one seeded kernel-heavy draw
    /// per target, then every small-op kernel. Only small ops feed the
    /// overhead metrics: on MAC-dense kernels the run-to-run jitter of the
    /// tape swamps the fixed per-request costs.
    fn op_requests(&mut self, stack: &Stack, direct: &mut Direct, heavy: &HeavyTapes) {
        let n_t = self.pools.targets.len();
        let n_shapes = stack::heavy_shapes().len();
        let heavy_sample: Vec<usize> = (0..n_t)
            .map(|j| self.rng.below(n_shapes) * n_t + j)
            .collect();
        let small_requests: Vec<_> = self
            .pools
            .small
            .iter()
            .zip(&self.pools.small_seeds)
            .map(|((op, t), s)| (*op, t.clone(), s[0]))
            .collect();
        let small_expected = oracle::op_hashes(&small_requests, 2);
        let heavy_requests = heavy_sample.iter().map(|&k| {
            let (op, t) = &self.pools.heavy[k];
            (
                *op,
                t.clone(),
                self.pools.heavy_seeds[k][0],
                heavy.expected[k],
                Some(heavy.l1_ms[k]),
            )
        });
        let small_requests = small_requests
            .iter()
            .zip(&small_expected)
            .map(|((op, t, s), e)| (*op, t.clone(), *s, *e, None));
        let requests: Vec<_> = heavy_requests.chain(small_requests).collect();
        let addr = stack.addr();
        for (op, t, seed, expected, heavy_l1) in requests {
            let reps = if heavy_l1.is_some() { REPS } else { SMALL_REPS };
            let request = self.tr.request();
            let body = op_body(&t, &op, seed);
            let tr = &mut self.tr;
            let (l4, l4_ms, l4_span) =
                layer(tr, "http", None, request, reps, || http_op(addr, &body));
            let (l3, l3_ms, l3_span) = layer(tr, "queue", Some(l4_span), request, reps, || {
                let req = ServeRequest {
                    model: MODEL_ID.to_string(),
                    target: t.clone(),
                    op,
                    seed,
                };
                let (_, reply) = stack.scheduler.submit(req).expect("admitted");
                let reply = reply.recv().expect("reply");
                reply.result.ok().map(|b| oracle::payload_hash_of(&b))
            });
            let (l2, l2_ms, l2_span) = layer(tr, "execute", Some(l3_span), request, reps, || {
                direct.execute(&t, op, seed)
            });
            for (name, outs) in [("L4", &l4), ("L3", &l3), ("L2", &l2)] {
                for out in outs {
                    self.checks.check(
                        *out == Some(expected),
                        format!("{name} {} on {t} differs from run_reference", op.describe()),
                    );
                }
            }
            if heavy_l1.is_some() {
                continue;
            }
            let kernel = self.build(CacheWorkload::Op(op), &t);
            let mut armed = ArmedTape::new(&kernel, seed);
            let l1_ms = armed.median_run(&mut self.tr, Some(l2_span), request, reps);
            self.checks.check(
                armed.fresh_output_hash() == expected,
                format!("L1 {} on {t} differs from run_reference", op.describe()),
            );
            self.engine_over.push(l2_ms - l1_ms);
            self.sched_over.push(l3_ms - l2_ms);
            self.net_over.push(l4_ms - l3_ms);
            // Tracing overhead: the same L2 call without and with a span.
            for _ in 0..reps {
                let t0 = Instant::now();
                direct.execute(&t, op, seed);
                let untraced = t0.elapsed().as_secs_f64() * 1e3;
                let (_, traced, _) = self.tr.span("execute", Some(l3_span), request, || {
                    direct.execute(&t, op, seed)
                });
                self.trace_ratio.push(traced / untraced);
            }
        }
    }

    /// Whole model: L4 -> L2 -> the sum of the plan's step tape runs.
    /// Each `execute_model` call is paired with one run of every step
    /// tape right after it, and the glue is the median of the pairs'
    /// differences: separately taken medians differ by more than the glue.
    fn forward_passes(&mut self, stack: &Stack, direct: &mut Direct) {
        let addr = stack.addr();
        let mut glue = Vec::new();
        for t in self.pools.targets.clone() {
            let steps: Vec<Kernel> = self
                .pools
                .plan
                .steps
                .clone()
                .iter()
                .map(|s| {
                    self.build(
                        CacheWorkload::Fused {
                            op: s.op,
                            epi: s.epi,
                        },
                        &t,
                    )
                })
                .collect();
            let token = self.pools.tokens[self.rng.below(self.pools.tokens.len())];
            let graph = &self.pools.graph;
            let expected = oracle::model_hash(&oracle::model_output(
                graph,
                token,
                oracle::operand_dtypes(&t),
            ));
            let request = self.tr.request();
            let body = graph_body(&t, token);
            let tr = &mut self.tr;
            let (l4, l4_ms, l4_span) =
                layer(tr, "http", None, request, REPS, || http_op(addr, &body));
            let mut armed: Vec<ArmedTape> =
                steps.iter().map(|k| ArmedTape::new(k, token)).collect();
            let (mut l2, mut l2_ms, mut pair_glue) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..GLUE_REPS {
                let (out, ms, span) = tr.span("execute", Some(l4_span), request, || {
                    direct.forward(graph, &t, token)
                });
                let steps_ms: f64 = armed
                    .iter_mut()
                    .map(|a| a.run(tr, Some(span), request).0)
                    .sum();
                l2.push(out);
                l2_ms.push(ms);
                pair_glue.push(ms - steps_ms);
            }
            for out in l4.iter().chain(&l2) {
                self.checks.check(
                    *out == Some(expected),
                    format!("forward pass on {t} differs from the scalar forward"),
                );
            }
            glue.push(median(&pair_glue));
            self.net_over.push(l4_ms - median(&l2_ms));
        }
        self.result.metric("model.glue_ms", median(&glue), "ms");
    }

    /// The scheduler under an open loop: small ops arriving on a seeded
    /// schedule for a short window on the served stack.
    fn scheduler_probe(&mut self, stack: &Stack, seconds: f64) {
        let p = &self.pools;
        let probe_s = (seconds / 4.0).clamp(1.0, 3.0);
        let schedule = small_op_schedule(
            &mut self.rng,
            probe_s,
            SMALL_OP_RATE,
            &p.small,
            &p.small_seeds,
        );
        let expected = oracle::op_hashes(
            &p.small
                .iter()
                .zip(&p.small_seeds)
                .flat_map(|((op, t), seeds)| seeds.iter().map(move |s| (*op, t.clone(), *s)))
                .collect::<Vec<_>>(),
            2,
        );
        let m = stack.engine.metrics();
        let (wait_n, wait_us) = (m.queue_wait().count(), m.queue_wait().sum_us());
        let (done, fused) = (m.completed(), m.tape_fused_requests());
        let open = open_loop(&stack.scheduler, &schedule);
        let wait_n = m.queue_wait().count() - wait_n;
        let wait_ms = (m.queue_wait().sum_us() - wait_us) as f64 / 1e3 / wait_n.max(1) as f64;
        let fused_share =
            (m.tape_fused_requests() - fused) as f64 / (m.completed() - done).max(1) as f64;
        let bad = open
            .samples
            .iter()
            .filter(|s| !s.ok || s.hash != expected[s.key])
            .count() as u64;
        self.checks.tally(
            open.samples.len() as u64,
            bad,
            format!("{bad} open-loop probe responses failed or differ from run_reference"),
        );
        self.result.metric("scheduler.queue_wait_ms", wait_ms, "ms");
        self.result.metric(
            "scheduler.batch_size_mean",
            mean(&open.batch_sizes),
            "count",
        );
        self.result
            .metric("scheduler.fused_share", fused_share, "ratio");
        self.result
            .metric("scheduler.gen_lag_ms", mean(&open.lag_ms), "ms");
    }

    /// Compile: per-stage wall time over the zoo's unique workloads on
    /// every target, then a journal warm start.
    fn compile_stages(&mut self) {
        let graphs = workloads::zoo();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let searches = unit_core::tuner::tuner_searches();
        let (mut inspect, mut tune, mut lower) = (0u64, 0u64, 0u64);
        for t in &self.pools.targets {
            let provider = UnitProvider::new(Target::by_id(t).expect("target"), stack::tuning());
            for w in unique_workloads(&refs) {
                let tr = &mut self.tr;
                let request = tr.request();
                let start = tr.now_us();
                let (compiled, _, span) = tr.span("compile", None, request, || {
                    provider.compile_workload_full(&CacheWorkload::Op(w))
                });
                let s = compiled.stages;
                let (i, u, l) = (s.inspect_us as f64, s.tune_us as f64, s.lower_us as f64);
                tr.record("inspect", start, i, Some(span), request);
                tr.record("tune", start + i, u, Some(span), request);
                tr.record("lower", start + i + u, l, Some(span), request);
                inspect += s.inspect_us;
                tune += s.tune_us;
                lower += s.lower_us;
            }
        }
        let searches = unit_core::tuner::tuner_searches() - searches;
        self.result
            .metric("compile.inspect_ms", inspect as f64 / 1e3, "ms");
        self.result
            .metric("compile.tune_ms", tune as f64 / 1e3, "ms");
        self.result
            .metric("compile.lower_ms", lower as f64 / 1e3, "ms");
        self.result
            .metric("compile.tuner_searches", searches as f64, "count");

        let journal = workloads::write_zoo_journal(&graphs, &self.pools.targets);
        let request = self.tr.request();
        let targets = &self.pools.targets;
        let ((replay_s, replay_searches), _, _) =
            self.tr.span("warm_replay", None, request, || {
                workloads::warm_replay(&journal, &graphs, targets)
            });
        workloads::remove_journal(&journal);
        self.checks.check(
            replay_searches == 0,
            format!("warm replay ran {replay_searches} tuner searches"),
        );
        self.result
            .metric("compile.warm_replay_ms", replay_s * 1e3, "ms");
    }
}

pub fn run(workload: &str, opts: &Opts) -> RunResult {
    let mut ladder = Ladder::new(opts.seed);
    let p = &ladder.pools;
    let max_batch = SchedulerConfig::default().max_batch;

    // The served stack (L3, L4), warmed like the workloads warm theirs.
    let stack = Stack::start();
    for ((op, t), seeds) in p.heavy.iter().zip(&p.heavy_seeds) {
        stack.warm_op(t, *op, seeds[0], 1);
    }
    for ((op, t), seeds) in p.small.iter().zip(&p.small_seeds) {
        stack.warm_op(t, *op, seeds[0], max_batch);
    }
    for t in &p.targets {
        stack
            .engine
            .execute_model(&p.graph, t, p.tokens[0], true)
            .expect("warm forward");
    }
    // The direct L2 engine: its warm-up misses once per distinct kernel.
    let mut direct = Direct {
        engine: ServeEngine::new(stack::tuning()),
        lookups: 0,
        steps: p.plan.steps.len() as u64,
    };
    for ((op, t), seeds) in p
        .heavy
        .iter()
        .zip(&p.heavy_seeds)
        .chain(p.small.iter().zip(&p.small_seeds))
    {
        direct.execute(t, *op, seeds[0]).expect("warm request");
    }
    for t in &p.targets {
        direct
            .forward(&p.graph, t, p.tokens[0])
            .expect("warm forward");
    }
    let fused_steps: BTreeSet<CacheWorkload> = p
        .plan
        .steps
        .iter()
        .map(|s| CacheWorkload::Fused {
            op: s.op,
            epi: s.epi,
        })
        .collect();
    let warm_lookups = direct.lookups;
    let warm_misses = (p.heavy.len() + p.small.len() + fused_steps.len() * p.targets.len()) as u64;

    let heavy = ladder.kernel_tapes(opts.seed);
    ladder.op_requests(&stack, &mut direct, &heavy);
    ladder.forward_passes(&stack, &mut direct);
    let hit_rate = direct.hit_rate_since(warm_lookups, warm_misses);
    ladder.checks.check(
        hit_rate == 1.0,
        format!("kernel cache hit rate {hit_rate} < 1 after warm-up"),
    );
    ladder.scheduler_probe(&stack, opts.seconds);
    stack.shutdown();
    ladder.compile_stages();

    let Ladder {
        tr,
        checks,
        mut result,
        tape_compile_ms,
        engine_over,
        sched_over,
        net_over,
        trace_ratio,
        ..
    } = ladder;
    result.metric("tape.compile_ms", mean(&tape_compile_ms), "ms");
    result.metric("engine.overhead_ms", median(&engine_over), "ms");
    result.metric("engine.kernel_hit_rate", hit_rate, "ratio");
    result.metric("scheduler.overhead_ms", median(&sched_over), "ms");
    result.metric("net.overhead_ms", median(&net_over), "ms");
    result.metric(
        "trace.overhead_pct",
        (median(&trace_ratio) - 1.0) * 100.0,
        "%",
    );
    result.phase("ladder", checks.attempted, checks.failed);
    for what in checks.mismatches {
        result.mismatch(what);
    }
    result.note("ladder_workload", workload);
    result.note("spans", tr.spans.len());
    let path = workloads::scratch_dir().join(format!("trace-{workload}-seed{}.json", opts.seed));
    if let Err(e) = std::fs::write(&path, tr.chrome_json()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    result
}
