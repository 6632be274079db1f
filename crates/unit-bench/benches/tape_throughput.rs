//! Tape-executor throughput: the compiled instruction tape vs. the
//! statement-tree interpreter on the serving kernels, plus the
//! batch-fusion dispatch contract.
//!
//! Run via `cargo bench -p unit-bench --bench tape_throughput`. The
//! request mix — transformer-tiny GEMMs and resnet-style convolutions —
//! is compiled once through the serving compile path
//! (`UnitProvider::compile_workload_full`); each kernel is then run by
//! both executors over identical buffers: [`Tape::run`] (what the serve
//! engine dispatches) and `unit_interp::run` (the statement-tree
//! interpreter, a test oracle). Compilation stays out of the timed
//! loops. The run asserts:
//!
//! * **throughput**: the tape runs the mix at least as fast as the
//!   interpreter (best-of-3 timed passes per executor),
//! * **fusion**: a batch of same-shape batched-GEMM requests through
//!   [`ServeEngine::execute_gemm_batch`] costs exactly *one* tape
//!   dispatch — fewer dispatches than requests,
//! * **oracle agreement**: both executors — and the serve engine —
//!   produce bit-identical outputs,
//! * **tracing-off overhead**: the tape hot loop paying the serve
//!   engine's per-dispatch disabled-tracing check (one relaxed atomic
//!   load through [`TraceCollector::begin`] returning `None`) stays
//!   within 3% of the raw loop.
//!
//! `TAPE_THROUGHPUT_SMOKE=1` switches to a single short repetition count
//! and additionally writes `BENCH_tape.json` (kernel runs/sec per
//! executor, speedup, fusion counters) into the working directory — the
//! tracked CI artifact.

use std::hint::black_box;
use std::time::{Duration, Instant};

use unit_core::pipeline::{Target, Tensorizer, TuningConfig};
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::compile::UnitProvider;
use unit_graph::{CacheWorkload, CompiledOp, OpSpec};
use unit_interp::{alloc_buffers, random_fill, run, Tape, TapeScratch};
use unit_isa::{registry, TypedBuf};
use unit_serve::{ServeEngine, TraceCollector};

const TARGET: &str = "x86-avx512-vnni";

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 4 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The request mix: transformer-tiny GEMM shapes plus resnet-style
/// convolutions, large enough that execution (not buffer setup)
/// dominates each request.
fn menu() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("transformer-tiny", OpSpec::gemm(16, 16, 16)),
        ("transformer-tiny", OpSpec::gemm(32, 32, 32)),
        ("transformer-tiny", OpSpec::batched_gemm(2, 8, 16, 16)),
        ("resnet-18", OpSpec::conv2d(16, 10, 16, 3, 1, 1)),
        ("resnet-18", OpSpec::conv2d(8, 8, 32, 1, 1, 0)),
    ]
}

/// One menu kernel, ready to run: its lowered function, its tape, and
/// pristine seeded input buffers every run starts from.
struct Kernel {
    compiled: CompiledOp,
    tape: Tape,
    pristine: Vec<TypedBuf>,
}

impl Kernel {
    fn compile(op: OpSpec) -> Kernel {
        let provider = UnitProvider::new(Target::by_id(TARGET).expect("target"), tuning());
        let compiled = provider.compile_workload_full(&CacheWorkload::Op(op));
        let tape = Tape::compile(&compiled.func).expect("tape compiles");
        let mut pristine = alloc_buffers(&compiled.func);
        random_fill(&mut pristine, 42);
        Kernel {
            compiled,
            tape,
            pristine,
        }
    }
}

/// Which executor a timed pass drives.
#[derive(Clone, Copy)]
enum Executor {
    Tape,
    Interp,
}

/// Run `kernel` once on fresh copies of its pristine buffers.
fn run_once(kernel: &Kernel, executor: Executor, bufs: &mut [TypedBuf], scratch: &mut TapeScratch) {
    for (b, p) in bufs.iter_mut().zip(&kernel.pristine) {
        b.clone_from(p);
    }
    match executor {
        Executor::Tape => kernel.tape.run(black_box(bufs), scratch),
        Executor::Interp => run(&kernel.compiled.func, black_box(bufs)),
    }
    .expect("kernel executes");
}

/// One timed pass: every menu kernel `reps` times on one executor.
fn timed_pass(kernels: &[Kernel], executor: Executor, reps: usize) -> Duration {
    let mut work: Vec<(Vec<TypedBuf>, TapeScratch)> = kernels
        .iter()
        .map(|k| (k.pristine.clone(), k.tape.scratch()))
        .collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        for (kernel, (bufs, scratch)) in kernels.iter().zip(&mut work) {
            run_once(kernel, executor, bufs, scratch);
        }
    }
    t0.elapsed()
}

/// One pass of the tape hot loop. With `tracer`, each run additionally
/// pays exactly what the serve engine pays per dispatch when tracing is
/// disabled: one [`TraceCollector::begin`] call that reads the enabled
/// flag and returns `None` without allocating.
fn tape_pass(
    tape: &Tape,
    bufs: &mut [TypedBuf],
    scratch: &mut TapeScratch,
    runs: usize,
    tracer: Option<&TraceCollector>,
) -> Duration {
    let t0 = Instant::now();
    for _ in 0..runs {
        if let Some(tracer) = tracer {
            assert!(
                black_box(tracer).begin("tape_dispatch").is_none(),
                "tracing must stay disabled in the overhead measurement"
            );
        }
        tape.run(black_box(bufs), scratch).expect("tape executes");
    }
    t0.elapsed()
}

/// Tracing-off overhead on the tape hot path, in percent: best-of-5
/// interleaved passes of the raw loop vs. the loop with the disabled
/// check. Returns `(baseline_runs_per_sec, tracing_off_runs_per_sec,
/// overhead_pct)`.
fn tracing_off_overhead(runs: usize) -> (f64, f64, f64) {
    let desc = registry::target_by_id(TARGET).expect("registered target");
    // Small shape on purpose: short runs give many samples per pass, so
    // best-of-N converges and the 3% bound measures the check, not
    // scheduler drift across long passes.
    let (lowered, _) = unit_graph::layout::op_for_target(&OpSpec::gemm(8, 8, 8), &desc);
    let kernel = Tensorizer::new(Target::x86_avx512_vnni())
        .with_tuning(tuning())
        .compile(&lowered)
        .expect("kernel compiles");
    let tape = Tape::compile(&kernel.func).expect("tape compiles");
    let mut bufs = alloc_buffers(&kernel.func);
    random_fill(&mut bufs, 7);
    let mut scratch = tape.scratch();
    let tracer = TraceCollector::new();
    assert!(!tracer.enabled(), "collectors start disabled");

    // Warm caches, then interleave so drift hits both loops equally.
    tape_pass(&tape, &mut bufs, &mut scratch, runs / 10, None);
    let mut base_best = Duration::MAX;
    let mut off_best = Duration::MAX;
    for _ in 0..9 {
        base_best = base_best.min(tape_pass(&tape, &mut bufs, &mut scratch, runs, None));
        off_best = off_best.min(tape_pass(
            &tape,
            &mut bufs,
            &mut scratch,
            runs,
            Some(&tracer),
        ));
    }
    let base_rps = runs as f64 / base_best.as_secs_f64();
    let off_rps = runs as f64 / off_best.as_secs_f64();
    let overhead_pct = (off_best.as_secs_f64() / base_best.as_secs_f64() - 1.0) * 100.0;
    (base_rps, off_rps, overhead_pct)
}

fn main() {
    let smoke = std::env::var("TAPE_THROUGHPUT_SMOKE").is_ok();
    let reps: usize = if smoke { 30 } else { 200 };

    let tape_engine = ServeEngine::new(tuning());
    let kernels: Vec<Kernel> = menu()
        .into_iter()
        .map(|(_, op)| Kernel::compile(op))
        .collect();

    // Pin the oracle agreement before timing: tape, interpreter and the
    // serve engine produce identical outputs per kernel.
    for ((model, op), kernel) in menu().into_iter().zip(&kernels) {
        let [tape_out, interp_out] = [Executor::Tape, Executor::Interp].map(|executor| {
            let mut bufs = kernel.pristine.clone();
            run_once(kernel, executor, &mut bufs, &mut kernel.tape.scratch());
            bufs.swap_remove(kernel.compiled.output)
        });
        assert_eq!(tape_out, interp_out, "{model}: tape diverged from oracle");
        let served = tape_engine.execute(model, TARGET, op, 42).expect("serves");
        assert_eq!(
            served.output, tape_out,
            "{model}: serve engine diverged from its kernel's tape"
        );
    }

    // Best-of-3 interleaved passes per executor.
    let mut tape_best = Duration::MAX;
    let mut interp_best = Duration::MAX;
    for _ in 0..3 {
        tape_best = tape_best.min(timed_pass(&kernels, Executor::Tape, reps));
        interp_best = interp_best.min(timed_pass(&kernels, Executor::Interp, reps));
    }
    let requests = (reps * menu().len()) as f64;
    let tape_rps = requests / tape_best.as_secs_f64();
    let interp_rps = requests / interp_best.as_secs_f64();

    // Fusion contract: 8 same-shape batched-GEMM requests, one dispatch.
    let fusion_seeds: Vec<u64> = (0..8).collect();
    let dispatches_before = tape_engine.metrics().tape_dispatches();
    let outcomes = tape_engine
        .execute_gemm_batch(
            "transformer-tiny",
            TARGET,
            OpSpec::batched_gemm(2, 8, 16, 16),
            &fusion_seeds,
        )
        .expect("fused batch executes");
    assert_eq!(outcomes.len(), fusion_seeds.len());
    let fused_dispatches = tape_engine.metrics().tape_dispatches() - dispatches_before;
    assert!(
        (fused_dispatches as usize) < fusion_seeds.len(),
        "fusion must cost fewer tape dispatches ({fused_dispatches}) than requests ({})",
        fusion_seeds.len()
    );
    assert_eq!(fused_dispatches, 1, "same-shape batch fuses into one tape");

    // Tracing disabled must cost nothing measurable on the tape hot
    // path: the per-dispatch disabled check stays within 3% of the raw
    // loop (ISSUE acceptance bound).
    let tape_runs = if smoke { 2_000 } else { 10_000 };
    let (base_rps, off_rps, overhead_pct) = tracing_off_overhead(tape_runs);

    println!(
        "tape_throughput: {} kernel runs per executor",
        requests as usize
    );
    println!(
        "  tape   {:>8.2} ms   {:>9.0} req/s",
        tape_best.as_secs_f64() * 1e3,
        tape_rps
    );
    println!(
        "  interp {:>8.2} ms   {:>9.0} req/s   (tape {:.2}x)",
        interp_best.as_secs_f64() * 1e3,
        interp_rps,
        tape_rps / interp_rps
    );
    println!(
        "  tracing-off overhead: {overhead_pct:.2}% \
         (raw {base_rps:.0} runs/s, with disabled check {off_rps:.0} runs/s)"
    );
    println!("{}", tape_engine.metrics().render_prometheus());

    assert!(
        overhead_pct <= 3.0,
        "tracing disabled must cost <= 3% on the tape hot path, measured {overhead_pct:.2}%"
    );
    assert!(
        tape_best <= interp_best,
        "the compiled tape must serve at least interpreter throughput: \
         tape {:.2} ms vs interp {:.2} ms",
        tape_best.as_secs_f64() * 1e3,
        interp_best.as_secs_f64() * 1e3
    );

    if smoke {
        // Hand-rolled JSON (the vendored serde is a stub): the tracked
        // tape-bench artifact CI archives as BENCH_tape.json.
        let json = format!(
            "{{\n  \"bench\": \"tape_throughput\",\n  \"requests_per_mode\": {},\n  \"tape_requests_per_sec\": {tape_rps:.1},\n  \"interp_requests_per_sec\": {interp_rps:.1},\n  \"tape_speedup\": {:.3},\n  \"tape_compiles\": {},\n  \"fused_batch_requests\": {},\n  \"fused_batch_dispatches\": {fused_dispatches},\n  \"tracing_off_baseline_runs_per_sec\": {base_rps:.1},\n  \"tracing_off_runs_per_sec\": {off_rps:.1},\n  \"tracing_off_overhead_pct\": {overhead_pct:.2}\n}}\n",
            requests as usize,
            tape_rps / interp_rps,
            tape_engine.metrics().tape_compiles(),
            fusion_seeds.len(),
        );
        std::fs::write("BENCH_tape.json", &json).expect("write BENCH_tape.json");
        println!("wrote BENCH_tape.json:\n{json}");
    }
}
