//! Whole-model end-to-end serving latency: fused-epilogue tapes vs the
//! unfused baseline.
//!
//! Run via `cargo bench -p unit-bench --bench e2e_latency`. One engine
//! serves the transformer-tiny forward pass both ways through
//! [`ServeEngine::execute_model`]:
//!
//! * **fused** — each of the 8 plan steps is one tape dispatch with its
//!   epilogue chain (bias, residual add, ReLU, requantize, softmax,
//!   layernorm) executing inside the kernel;
//! * **unfused** — plain GEMM tapes plus per-op epilogue passes between
//!   steps (the pre-fusion serving shape).
//!
//! The engine is fully warmed first (tuner searches and tape compiles
//! out of the timed region), latencies are the best of `reps`
//! alternating passes, and the two modes' outputs are asserted
//! bit-identical before anything is timed — fusion must never be
//! observable in the payload.
//!
//! `E2E_LATENCY_SMOKE=1` shortens the run, asserts the fused forward is
//! no slower than the unfused one, and writes `BENCH_e2e.json` (per-mode
//! latency, speedup, fusion counters) — the tracked CI artifact.

use std::time::{Duration, Instant};

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::models::transformer_tiny;
use unit_serve::ServeEngine;

const TARGET: &str = "x86-avx512-vnni";
const MODEL: &str = "transformer-tiny";

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 4 },
        gpu: GpuTuneMode::Tuned,
    }
}

fn main() {
    let smoke = std::env::var("E2E_LATENCY_SMOKE").is_ok();
    let reps: usize = if smoke { 5 } else { 15 };

    let graph = transformer_tiny();
    let engine = ServeEngine::new(tuning());

    // Warm both serving modes (all searches and tape compiles happen
    // here) and pin the differential contract before timing anything.
    let fused = engine
        .execute_model(&graph, TARGET, 42, true)
        .expect("fused forward");
    let unfused = engine
        .execute_model(&graph, TARGET, 42, false)
        .expect("unfused forward");
    assert_eq!(
        fused.output, unfused.output,
        "fusion must never change the served values"
    );
    assert_eq!(fused.steps, 8, "one dispatch per fused step");
    assert_eq!(fused.fused_epilogue_ops, 17);
    assert_eq!(unfused.fused_epilogue_ops, 0);
    let fused_kernels = engine.metrics().epilogue_fused_kernels();
    let ops_eliminated = engine.metrics().epilogue_ops_eliminated();
    assert_eq!(fused_kernels, 6, "unique fused cache entries");
    assert_eq!(ops_eliminated, 13, "unique-kernel epilogue ops");

    // Alternating best-of passes, seeds rotating so neither mode can
    // ride a value-dependent shortcut.
    let mut fused_best = Duration::MAX;
    let mut unfused_best = Duration::MAX;
    for r in 0..reps {
        let seed = (r % 3) as u64;
        let t0 = Instant::now();
        engine
            .execute_model(&graph, TARGET, seed, true)
            .expect("fused forward");
        fused_best = fused_best.min(t0.elapsed());
        let t1 = Instant::now();
        engine
            .execute_model(&graph, TARGET, seed, false)
            .expect("unfused forward");
        unfused_best = unfused_best.min(t1.elapsed());
    }
    let fused_us = fused_best.as_secs_f64() * 1e6;
    let unfused_us = unfused_best.as_secs_f64() * 1e6;
    let speedup = unfused_us / fused_us;

    println!("e2e_latency: {MODEL} on {TARGET}, best of {reps} forwards per mode");
    println!("  fused    {fused_us:>10.1} us   (8 fused-epilogue tape dispatches)");
    println!("  unfused  {unfused_us:>10.1} us   (plain GEMMs + per-op epilogue passes)");
    println!("  speedup  {speedup:>10.3}x");
    println!("{}", engine.metrics().render_prometheus());

    if smoke {
        assert!(
            fused_best <= unfused_best,
            "the fused whole-model forward must be no slower than the unfused \
             baseline: fused {fused_us:.1} us vs unfused {unfused_us:.1} us"
        );
        // Hand-rolled JSON (the vendored serde is a stub): the tracked
        // end-to-end bench artifact CI archives as BENCH_e2e.json.
        let json = format!(
            "{{\n  \"bench\": \"e2e_latency\",\n  \"model\": \"{MODEL}\",\n  \"target\": \"{TARGET}\",\n  \"fused_us\": {fused_us:.1},\n  \"unfused_us\": {unfused_us:.1},\n  \"speedup\": {speedup:.3},\n  \"steps\": {},\n  \"fused_epilogue_ops\": {},\n  \"epilogue_fused_kernels\": {fused_kernels},\n  \"epilogue_ops_eliminated\": {ops_eliminated}\n}}\n",
            fused.steps, fused.fused_epilogue_ops,
        );
        std::fs::write("BENCH_e2e.json", &json).expect("write BENCH_e2e.json");
        println!("wrote BENCH_e2e.json:\n{json}");
    }
}
