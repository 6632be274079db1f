//! Differential validation of the compiled instruction tape against the
//! statement-tree interpreter (a test oracle; the serving runtime runs
//! only the tape).
//!
//! Two angles of attack:
//!
//! * **Random schedules** (property tests): arbitrary
//!   split/fuse/reorder/annotate transformations of a matmul — including
//!   non-dividing split factors, whose residue guards must survive onto
//!   the tape — compiled to a [`Tape`] and checked bit-for-bit against
//!   [`run`] on *every* buffer, not just the output (a tape that
//!   scribbles on an input would still "match the output").
//! * **The op × target matrix**: every `OpSpec` family through the exact
//!   graph-compiler lowering ([`compile_workload_full`]) on every
//!   registered target, tape vs. tree walker, all buffers bit-identical.

use proptest::prelude::*;
use unit::dsl::builder::matmul_u8i8;
use unit::interp::{alloc_buffers, random_fill, run, Tape};
use unit::pipeline::{Target, TuningConfig};
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::compile::UnitProvider;
use unit_graph::{CacheWorkload, OpSpec};
use unit_isa::registry;
use unit_isa::TypedBuf;
use unit_tir::{lower::lower, LoopKind, Schedule, TirFunc};

/// Run `func` through both executors on identical random inputs and
/// assert every buffer — inputs, output, scratch — is bit-identical.
fn assert_tape_matches_interpreter(func: &TirFunc, seed: u64, what: &str) {
    let mut via_tree = alloc_buffers(func);
    random_fill(&mut via_tree, seed);
    let mut via_tape = via_tree.clone();

    run(func, &mut via_tree).unwrap_or_else(|e| panic!("{what}: interpreter failed: {e}"));
    let tape = Tape::compile(func).unwrap_or_else(|e| panic!("{what}: tape compile failed: {e}"));
    tape.run_fresh(&mut via_tape)
        .unwrap_or_else(|e| panic!("{what}: tape run failed: {e}"));

    assert_buffers_identical(&via_tree, &via_tape, what);
}

fn assert_buffers_identical(tree: &[TypedBuf], tape: &[TypedBuf], what: &str) {
    assert_eq!(tree.len(), tape.len(), "{what}: buffer count diverged");
    for (i, (a, b)) in tree.iter().zip(tape).enumerate() {
        assert_eq!(a, b, "{what}: buffer {i} diverged between tape and tree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random split/fuse/reorder/annotate schedules — factors chosen so
    /// most draws tile imperfectly (residue guards land on the tape) —
    /// never make the tape diverge from the tree walker.
    #[test]
    fn random_schedules_run_identically_on_tape_and_tree(
        split_axis in 0usize..3,
        factor in prop::sample::select(vec![2i64, 3, 4, 5, 7]),
        swap in any::<bool>(),
        fuse_first in any::<bool>(),
        kind in prop::sample::select(vec![
            LoopKind::Serial, LoopKind::Parallel, LoopKind::Unrolled,
        ]),
        seed in 0u64..1000,
    ) {
        // 12 x 10 x 21: no factor above divides every axis, so residue
        // guards appear on most draws.
        let op = matmul_u8i8(12, 10, 21);
        let mut s = Schedule::new(&op);
        if fuse_first {
            let leaves = s.leaves();
            s.fuse(leaves[0], leaves[1]).expect("fuse adjacent leaves");
        }
        let leaves = s.leaves();
        let target = leaves[split_axis % leaves.len()];
        let (o, i) = s.split(target, factor).expect("leaf split");
        if swap {
            s.reorder(&[i, o]).expect("reorder");
        }
        // Annotation legality depends on the drawn axis (reduction axes
        // reject `Parallel`); an illegal draw just stays `Serial`.
        let _ = s.annotate(o, kind);
        let func = lower(&s, "mm_tape_random").expect("lowers");
        assert_tape_matches_interpreter(&func, seed, "random schedule");
    }

    /// Imperfect tilings specifically: splitting every axis by a
    /// non-dividing factor stacks guards; the tape must keep exactly the
    /// checks the bounds analysis cannot discharge and still agree.
    #[test]
    fn imperfect_tilings_run_identically_on_tape_and_tree(
        f0 in prop::sample::select(vec![5i64, 7, 11]),
        f1 in prop::sample::select(vec![3i64, 7, 9]),
        f2 in prop::sample::select(vec![2i64, 5, 13]),
        seed in 0u64..1000,
    ) {
        let op = matmul_u8i8(13, 11, 17); // prime extents: nothing divides
        let mut s = Schedule::new(&op);
        for (axis, f) in s.leaves().into_iter().zip([f0, f1, f2]) {
            s.split(axis, f).expect("split");
        }
        let func = lower(&s, "mm_imperfect").expect("lowers");
        let tape = Tape::compile(&func).expect("compiles");
        prop_assert!(
            tape.stats().checked_accesses > 0 || tape.stats().ops > 0,
            "imperfect tiling should leave residue work on the tape"
        );
        assert_tape_matches_interpreter(&func, seed, "imperfect tiling");
    }
}

/// Every `OpSpec` family on every registered target, lowered exactly as
/// the serving engine lowers them. GPU-style targets reject depthwise
/// (cost model only, no kernel) — skipped there, matching
/// `differential_tuning.rs`.
#[test]
fn op_spec_matrix_runs_identically_on_tape_and_tree() {
    let specs = [
        OpSpec::conv2d(8, 6, 8, 3, 1, 1),
        OpSpec::depthwise(8, 6, 3, 1, 1),
        OpSpec::grouped(8, 6, 8, 3, 1, 1, 2),
        OpSpec::conv3d(4, 4, 3, 8, 3, 1, 1),
        OpSpec::gemm(6, 8, 12),
        OpSpec::batched_gemm(2, 4, 8, 12),
    ];
    let tuning = TuningConfig {
        cpu: CpuTuneMode::ParallelUnroll,
        gpu: GpuTuneMode::Generic,
    };
    let targets: Vec<Target> = registry::targets()
        .into_iter()
        .map(Target::from_desc)
        .collect();
    assert!(targets.len() >= 4, "registry lost its built-in targets");
    for (j, target) in targets.iter().enumerate() {
        let provider = UnitProvider::new(target.clone(), tuning);
        for (i, spec) in specs.iter().enumerate() {
            if spec.is_depthwise() && target.desc.is_gpu() {
                continue;
            }
            let what = format!("{} on {}", spec.encode(), target.desc.id);
            let compiled = provider.compile_workload_full(&CacheWorkload::Op(*spec));
            let seed = 9000 + (i * 10 + j) as u64;
            assert_tape_matches_interpreter(&compiled.func, seed, &what);
        }
    }
}

/// Dense workloads ride a different lowering path in the provider; give
/// the tape the same coverage the serving report path gets.
#[test]
fn dense_workloads_run_identically_on_tape_and_tree() {
    let tuning = TuningConfig {
        cpu: CpuTuneMode::ParallelUnroll,
        gpu: GpuTuneMode::Generic,
    };
    for (j, target) in registry::targets().into_iter().enumerate() {
        let target = Target::from_desc(target);
        let provider = UnitProvider::new(target.clone(), tuning);
        let compiled = provider.compile_workload_full(&CacheWorkload::Dense {
            in_features: 24,
            units: 10,
        });
        let what = format!("dense 24x10 on {}", target.desc.id);
        assert_tape_matches_interpreter(&compiled.func, 9900 + j as u64, &what);
    }
}
