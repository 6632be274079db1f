//! Independent expected outputs, computed outside every timed region.
//!
//! * Ops: `unit_interp::run_reference` over the target-lowered
//!   `ComputeOp` (the DSL semantics, no schedule, no tape).
//! * Whole model: a scalar forward pass built here from the public
//!   `unit_serve::model` parameter helpers, a plain i64 GEMM and
//!   `apply_epilogue_reference`. GEMM operands saturate to the target's
//!   data and weight dtypes, the serving convention `unit_serve::model`
//!   documents (u8 targets clamp negative activations to zero), so the
//!   expected output depends on the token seed and the target's dtypes
//!   only.
//! * Zoo compile: `unit_graph::compile::compile_graph` reports.

use std::collections::BTreeMap;

use unit_core::pipeline::Target;
use unit_dsl::DType;
use unit_graph::compile::{compile_graph, E2eReport};
use unit_graph::layout::op_for_target;
use unit_graph::{build_plan, Graph, OpSpec, PlanSource};
use unit_interp::{alloc_op_buffers, random_fill, run_reference};
use unit_isa::{registry, Scalar, TypedBuf};
use unit_serve::model::{self, Compact};
use unit_serve::net::encode_typed_buf;

use crate::stack::{fnv, tuning};

/// Expected output of `op` on `target` with inputs seeded by `seed`.
pub fn op_output(op: &OpSpec, target: &str, seed: u64) -> TypedBuf {
    let desc = registry::target_by_id(target).expect("registered target");
    let (lowered, _) = op_for_target(op, &desc);
    let mut bufs = alloc_op_buffers(&lowered);
    random_fill(&mut bufs, seed);
    run_reference(&lowered, &mut bufs).expect("reference executes");
    bufs.swap_remove(lowered.output.0 as usize)
}

/// Hash of the response payload the server must send for `buf`.
pub fn payload_hash_of(buf: &TypedBuf) -> u64 {
    fnv(encode_typed_buf(buf).as_bytes())
}

/// Expected payload hashes for a set of `(op, target, seed)` requests,
/// computed on `threads` threads.
pub fn op_hashes(requests: &[(OpSpec, String, u64)], threads: usize) -> Vec<u64> {
    let chunk = requests.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(op, t, seed)| payload_hash_of(&op_output(op, t, *seed)))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

/// `v` saturated to the range of `dtype` (floats hold these values
/// exactly).
fn saturate(v: i64, dtype: DType) -> i64 {
    match dtype {
        DType::I8 => v.clamp(-128, 127),
        DType::U8 => v.clamp(0, 255),
        DType::I16 => v.clamp(-32768, 32767),
        DType::U16 => v.clamp(0, 65535),
        _ => v,
    }
}

/// The GEMM operand dtypes `(data, weight)` of a target.
pub fn operand_dtypes(target: &str) -> (DType, DType) {
    let (_, _, data, weight) = registry::target_by_id(target)
        .expect("registered target")
        .blocking();
    (data, weight)
}

/// The model's final activation for a token seed on a target with the
/// given operand dtypes, by a scalar forward pass that shares no code
/// with the engine's execution path.
pub fn model_output(graph: &Graph, seed: u64, dtypes: (DType, DType)) -> Compact {
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
                            saturate(data.get(b, i, kk), dtypes.0)
                                * saturate(weight.get(b, j, kk), dtypes.1)
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

/// Hash of the response payload the server must send for a model output.
pub fn model_hash(out: &Compact) -> u64 {
    let mut buf = TypedBuf::zeros(DType::I64, out.vals.len());
    for (i, &v) in out.vals.iter().enumerate() {
        buf.set(i, Scalar::Int(v));
    }
    payload_hash_of(&buf)
}

/// Digest of a compile report: the model, the total and every layer's
/// name, modeled latency (bit for bit) and note.
pub fn report_digest(report: &E2eReport) -> u64 {
    let mut text = format!("{}|{:x}", report.model, report.total_ms.to_bits());
    for layer in &report.layers {
        text.push_str(&format!(
            "|{}|{:x}|{}",
            layer.name,
            layer.micros.to_bits(),
            layer.note
        ));
    }
    fnv(text.as_bytes())
}

/// Digests of the reference compile reports, keyed by `(graph index,
/// target index)`.
pub fn zoo_digests(graphs: &[Graph], targets: &[String]) -> BTreeMap<(usize, usize), u64> {
    let mut out = BTreeMap::new();
    for (t, id) in targets.iter().enumerate() {
        for (g, graph) in graphs.iter().enumerate() {
            let target = Target::by_id(id).expect("registered target");
            out.insert(
                (g, t),
                report_digest(&compile_graph(graph, target, tuning())),
            );
        }
    }
    out
}
