//! Fused-epilogue serving differential suite (ISSUE 9 acceptance).
//!
//! The transformer-tiny quantized forward pass serves end-to-end as one
//! artifact: eight fused kernel dispatches with every epilogue op (bias,
//! residual add, ReLU, requantize, softmax, layernorm) executing inside
//! the compiled tape. On **every registered target** the fused tape run
//! must be bit-identical to
//!
//! * a scalar forward pass written in this file that shares no code with
//!   the engine's execution path (a plain `i64` GEMM over operands
//!   saturated to the target's data/weight dtypes, then the compact
//!   reference epilogue), and
//! * the unfused baseline (plain GEMM kernels + the compact-domain
//!   reference epilogue).
//!
//! A property test then fuzzes random epilogue chains — random subsets
//! of {bias, relu, add, layernorm, softmax} in random order — through
//! the fused compile path on every target, asserting tape vs tree-walk
//! bit-identity for each chain.

use unit_core::pipeline::{Target, TuningConfig};
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_dsl::DType;
use unit_graph::compile::UnitProvider;
use unit_graph::models::{transformer_micro, transformer_tiny};
use unit_graph::{build_plan, CacheWorkload, Graph, OpSpec, PlanSource};
use unit_interp::{alloc_buffers, random_fill, run, Tape};
use unit_isa::registry;
use unit_serve::model::{self, Compact};
use unit_serve::ServeEngine;
use unit_tir::{EpiOp, EpilogueSpec};

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 2 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The encoder under test plus its expected output dims. The full
/// transformer-tiny forward emulates ~1.6M MACs per pass, which
/// optimized builds serve in seconds but the dev profile grinds at for
/// minutes per target — so `cargo test -q`
/// runs a structurally identical reduced encoder (same 8 fused steps,
/// same epilogue chains, same 6-unique-kernel dedup; only the extents
/// shrink), and the full model runs under `cargo test --release`
/// (CI's release-tests job) and the `e2e_latency` bench.
fn serving_graph() -> (Graph, i64, i64) {
    if cfg!(debug_assertions) {
        (transformer_micro(), 8, 16)
    } else {
        (transformer_tiny(), 64, 128)
    }
}

/// `v` saturated to the range of `dtype` — the serving convention for
/// GEMM operands (u8 targets clamp negative activations to zero; float
/// dtypes hold every serving value exactly).
fn saturate(v: i64, dtype: DType) -> i64 {
    match dtype {
        DType::I8 => v.clamp(-128, 127),
        DType::U8 => v.clamp(0, 255),
        DType::I16 => v.clamp(-32768, 32767),
        DType::U16 => v.clamp(0, 65535),
        _ => v,
    }
}

/// The scalar oracle: `graph`'s forward pass for token seed `seed` on
/// target `id`, by a plain `i64` GEMM per plan step over operands
/// saturated to the target's data/weight dtypes, followed by
/// [`model::apply_epilogue_reference`]. No kernel, layout or tape code
/// is involved, so the expected output depends only on the seed and
/// the target's operand dtypes.
fn scalar_forward(graph: &Graph, id: &str, seed: u64) -> Compact {
    let (_, _, data_dtype, weight_dtype) = registry::target_by_id(id)
        .expect("registered target")
        .blocking();
    let plan = build_plan(graph).expect("graph plans");
    let (rows, cols) = model::plan_input_dims(graph).expect("token input");
    let tokens = model::input_tokens(seed, rows, cols);
    let mut outputs: Vec<Compact> = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let OpSpec::Gemm { m, n, k, batch } = step.op else {
            panic!("step {} is not a GEMM", step.name);
        };
        let source = |s: PlanSource| match s {
            PlanSource::Input => &tokens,
            PlanSource::Step(i) => &outputs[i],
        };
        let data = model::gather_data(source(step.data), batch, m, k).expect("data adapts");
        let weight = match step.weight {
            None => model::implicit_weight(&graph.name, &step.name, batch, n, k),
            Some(src) => {
                model::weight_from_activation(source(src), batch, n, k, step.weight_rows_are_n)
                    .expect("weight adapts")
            }
        };
        let mut out = Compact::zeros(batch, m, n);
        for b in 0..batch {
            for i in 0..m {
                for j in 0..n {
                    let acc: i64 = (0..k)
                        .map(|kk| {
                            saturate(data.get(b, i, kk), data_dtype)
                                * saturate(weight.get(b, j, kk), weight_dtype)
                        })
                        .sum();
                    out.set(b, i, j, acc);
                }
            }
        }
        let bias = model::implicit_bias(&graph.name, &step.name, n);
        let residuals = model::resolve_residuals(step, &tokens, &outputs).expect("residuals");
        model::apply_epilogue_reference(&mut out, &step.epi, &bias, &residuals)
            .expect("epilogue applies");
        outputs.push(out);
    }
    outputs.swap_remove(plan.output)
}

fn target_ids() -> Vec<String> {
    let ids: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    assert!(
        ids.len() >= 4,
        "expected the four built-in targets: {ids:?}"
    );
    ids
}

#[test]
fn transformer_serves_fused_bit_identical_to_oracle_on_every_target() {
    let (graph, rows, cols) = serving_graph();
    for id in target_ids() {
        let engine = ServeEngine::new(tuning());

        let fused = engine
            .execute_model(&graph, &id, 42, true)
            .unwrap_or_else(|e| panic!("fused serve failed on {id}: {e}"));
        assert_eq!(fused.steps, 8, "{id}: one dispatch per fused step");
        assert_eq!(
            fused.fused_epilogue_ops, 17,
            "{id}: every epilogue op executed inside a kernel dispatch"
        );
        assert_eq!(
            (fused.output.batch, fused.output.rows, fused.output.cols),
            (1, rows, cols),
            "{id}: final activation is the token-shaped layernorm output"
        );
        // The whole forward pass is 8 tape dispatches — zero
        // reference-interpreter passes on the serve path.
        assert_eq!(engine.metrics().tape_dispatches(), 8, "{id}");

        // Differential 1: the scalar forward pass agrees bit-for-bit.
        assert_eq!(
            fused.output,
            scalar_forward(&graph, &id, 42),
            "{id}: fused tape diverged from the scalar oracle"
        );

        // Differential 2: the unfused baseline (plain GEMMs + reference
        // epilogue between steps) agrees bit-for-bit.
        let unfused = engine
            .execute_model(&graph, &id, 42, false)
            .unwrap_or_else(|e| panic!("unfused serve failed on {id}: {e}"));
        assert_eq!(unfused.fused_epilogue_ops, 0);
        assert_eq!(
            fused.output, unfused.output,
            "{id}: fusion changed the served values"
        );

        // Determinism: same seed, same bits on replay. (The *final*
        // activation is not asserted seed-sensitive: two layernorms
        // normalizing bias-scale values crush token-scale variation to
        // ~1 quantum, so distinct seeds can legitimately collide bit-
        // for-bit. Seed sensitivity of the token stream itself is a
        // `model` unit test.)
        let again = engine.execute_model(&graph, &id, 42, true).unwrap();
        assert_eq!(fused.output, again.output, "{id}: replay diverged");
        // The three-way agreement must hold at any seed, not just one.
        let fused2 = engine.execute_model(&graph, &id, 43, true).unwrap();
        let unfused2 = engine.execute_model(&graph, &id, 43, false).unwrap();
        assert_eq!(
            fused2.output,
            scalar_forward(&graph, &id, 43),
            "{id}: seed 43 vs oracle"
        );
        assert_eq!(fused2.output, unfused2.output, "{id}: seed 43 vs unfused");
    }
}

#[test]
fn fused_serving_accounts_epilogue_fusion_metrics() {
    let (graph, _, _) = serving_graph();
    let engine = ServeEngine::new(tuning());
    let id = &target_ids()[0];
    engine.execute_model(&graph, id, 7, true).expect("serves");
    // The 8-step plan deduplicates to 6 unique fused cache entries
    // (q/k/v share one kernel, out/ffn2 share another) carrying 13
    // epilogue ops between them.
    assert_eq!(engine.metrics().epilogue_fused_kernels(), 6);
    assert_eq!(engine.metrics().epilogue_ops_eliminated(), 13);
    // A replay compiles nothing new: the counters stay put while the
    // dispatch count doubles.
    engine.execute_model(&graph, id, 8, true).expect("serves");
    assert_eq!(engine.metrics().epilogue_fused_kernels(), 6);
    assert_eq!(engine.metrics().epilogue_ops_eliminated(), 13);
    assert_eq!(engine.metrics().tape_dispatches(), 16);
    // Unfused serving shares nothing with the fused cache namespace and
    // records no fusion.
    engine.execute_model(&graph, id, 7, false).expect("serves");
    assert_eq!(engine.metrics().epilogue_fused_kernels(), 6);
}

/// splitmix64, the suite's only randomness (no external crates).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random epilogue chain: a subset of the fusible ops, in random
/// order, ended half the time by a saturating requantize (the shape the
/// plan builder emits).
fn random_chain(state: &mut u64) -> EpilogueSpec {
    let mut pool = vec![
        EpiOp::Bias,
        EpiOp::Relu,
        EpiOp::Add,
        EpiOp::LayerNorm,
        EpiOp::Softmax,
    ];
    let len = (next(state) % (pool.len() as u64 + 1)) as usize;
    let mut ops = Vec::with_capacity(len + 1);
    for _ in 0..len {
        let at = (next(state) as usize) % pool.len();
        ops.push(pool.swap_remove(at));
    }
    if next(state).is_multiple_of(2) {
        ops.push(EpiOp::Quant);
    }
    EpilogueSpec::new(&ops)
}

#[test]
fn random_epilogue_chains_are_tape_vs_interpreter_bit_identical() {
    let mut state = 0x5eed_u64;
    let op = OpSpec::batched_gemm(2, 8, 16, 12);
    for id in target_ids() {
        let target = Target::by_id(&id).expect("registered");
        let provider = UnitProvider::new(target, tuning());
        for round in 0..12 {
            let epi = random_chain(&mut state);
            let workload = CacheWorkload::Fused { op, epi };
            let compiled = provider.compile_workload_full(&workload);
            if !epi.is_empty() {
                assert!(
                    compiled.func.epilogue.is_some(),
                    "{id}: GEMM output geometry always admits an epilogue"
                );
            }
            let mut tape_bufs = alloc_buffers(&compiled.func);
            random_fill(&mut tape_bufs, 1000 + round);
            let mut interp_bufs = tape_bufs.clone();
            let tape = Tape::compile(&compiled.func).expect("tape compiles");
            tape.run_fresh(&mut tape_bufs).expect("tape runs");
            run(&compiled.func, &mut interp_bufs).expect("interp runs");
            assert_eq!(
                tape_bufs[compiled.output],
                interp_bufs[compiled.output],
                "{id}: chain `{}` diverged between tape and tree walk",
                epi.encode()
            );
        }
    }
}

#[test]
fn fused_and_unfused_kernels_never_collide_in_the_cache() {
    // Same GEMM, same target, same tuning — one fused, one not. The
    // encodings (and so every cache key derived from them) differ.
    let op = OpSpec::gemm(16, 16, 16);
    let epi = EpilogueSpec::new(&[EpiOp::Bias, EpiOp::Quant]);
    let fused = CacheWorkload::Fused { op, epi };
    let plain = CacheWorkload::Op(op);
    assert_ne!(fused.encode(), plain.encode());
    assert_eq!(CacheWorkload::decode(&fused.encode()), Ok(fused));
    // An empty chain still encodes distinctly from the unfused op.
    let empty = CacheWorkload::Fused {
        op,
        epi: EpilogueSpec::default(),
    };
    assert_ne!(empty.encode(), plain.encode());
}
