//! The end-to-end pipeline: Inspector → Rewriter → Tuner.

use std::time::Instant;

use unit_dsl::{AxisId, ComputeOp};
use unit_isa::{registry, ExecStyle, TargetDesc, TensorIntrinsic};
use unit_sim::{CpuMachine, Estimate, GpuKernelDesc, GpuMachine};
use unit_tir::TirFunc;

use crate::error::CompileError;
use crate::inspector::{inspect, Match};
use crate::rewriter::{build_tensorized_schedule, finalize};
use crate::tuner::{
    tune_cpu_with_workers, tune_gpu_with_workers, CpuTuneMode, GpuTuneMode, TuneTier,
};

/// A compilation target: a [`TargetDesc`] plus the machine model built
/// from it for profiling.
///
/// The pipeline never dispatches on a target's identity — only on the
/// descriptor's [`ExecStyle`] — so targets registered at runtime through
/// [`registry::register_target`] compile through the exact same path as
/// the built-ins.
#[derive(Debug, Clone)]
pub struct Target {
    /// The target descriptor (instruction set selection, blocking,
    /// execution style).
    pub desc: TargetDesc,
    /// CPU machine model, built from the descriptor (CPU-style targets).
    /// Public so benchmarks can profile against hand-tweaked models.
    pub cpu: Option<CpuMachine>,
    /// GPU machine model, built from the descriptor (GPU-style targets).
    pub gpu: Option<GpuMachine>,
}

impl Target {
    /// Build a target from a descriptor: the machine model is extracted
    /// from the descriptor's execution style.
    #[must_use]
    pub fn from_desc(desc: TargetDesc) -> Target {
        let (cpu, gpu) = match &desc.style {
            ExecStyle::Cpu { machine } => (Some(machine.clone()), None),
            ExecStyle::Gpu { machine } => (None, Some(machine.clone())),
        };
        Target { desc, cpu, gpu }
    }

    /// Look a target up in the registry by descriptor id — built-ins and
    /// runtime registrations alike.
    #[must_use]
    pub fn by_id(id: &str) -> Option<Target> {
        registry::target_by_id(id).map(Target::from_desc)
    }

    /// The target's descriptor id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.desc.id
    }

    /// Intel Cascade Lake with AVX-512 VNNI (the paper's c5.12xlarge).
    #[must_use]
    pub fn x86_avx512_vnni() -> Target {
        Target::by_id("x86-avx512-vnni").expect("built-in target")
    }

    /// AWS Graviton2 with the ARM dot-product extension (m6g.8xlarge).
    #[must_use]
    pub fn arm_neon_dot() -> Target {
        Target::by_id("arm-neon-dot").expect("built-in target")
    }

    /// Nvidia V100 with Tensor Cores (p3.2xlarge).
    #[must_use]
    pub fn nvidia_tensor_core() -> Target {
        Target::by_id("nvidia-tensor-core").expect("built-in target")
    }
}

/// Tuning effort configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningConfig {
    /// CPU search mode.
    pub cpu: CpuTuneMode,
    /// GPU search mode.
    pub gpu: GpuTuneMode,
}

impl Default for TuningConfig {
    fn default() -> TuningConfig {
        TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 16 },
            gpu: GpuTuneMode::Tuned,
        }
    }
}

impl TuningConfig {
    /// Stable text encoding, e.g. `cpu=tuned:16;gpu=tuned`. This is the
    /// encoding the `unit-serve` artifact journal persists, so it must
    /// round-trip exactly ([`TuningConfig::decode`]) and may only change
    /// together with the journal's format version.
    #[must_use]
    pub fn encode(&self) -> String {
        format!("cpu={};gpu={}", self.cpu.encode(), self.gpu.encode())
    }

    /// Parse the [`TuningConfig::encode`] encoding.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed field.
    pub fn decode(s: &str) -> Result<TuningConfig, String> {
        let mut cpu = None;
        let mut gpu = None;
        for field in s.split(';') {
            match field.split_once('=') {
                Some(("cpu", v)) => cpu = Some(CpuTuneMode::decode(v)?),
                Some(("gpu", v)) => gpu = Some(GpuTuneMode::decode(v)?),
                _ => return Err(format!("tuning config `{s}`: bad field `{field}`")),
            }
        }
        Ok(TuningConfig {
            cpu: cpu.ok_or_else(|| format!("tuning config `{s}`: missing cpu mode"))?,
            gpu: gpu.ok_or_else(|| format!("tuning config `{s}`: missing gpu mode"))?,
        })
    }

    /// Whether compiling under this config on the given execution style
    /// enumerates more than one candidate (an actual tuner *search*).
    #[must_use]
    pub fn searches(&self, style: &ExecStyle) -> bool {
        match style {
            ExecStyle::Cpu { .. } => {
                matches!(self.cpu, CpuTuneMode::Tuned { max_pairs } if max_pairs > 1)
            }
            ExecStyle::Gpu { .. } => matches!(self.gpu, GpuTuneMode::Tuned),
        }
    }

    /// This config restricted to a tuning tier.
    ///
    /// [`TuneTier::Full`] is the identity. [`TuneTier::Cold`] caps the
    /// search budget to a cheap first-response compile: a searching CPU
    /// `Tuned { max_pairs > 2 }` drops to `Tuned { max_pairs: 2 }`, and a
    /// searching GPU `Tuned` drops to the search-free `Generic`
    /// heuristic. Configs that already search no harder than that are
    /// returned unchanged — so when `at_tier(Cold) == *self`, tiering is
    /// a no-op and the serving runtime skips the background re-tune
    /// entirely.
    #[must_use]
    pub fn at_tier(&self, tier: TuneTier) -> TuningConfig {
        match tier {
            TuneTier::Full => *self,
            TuneTier::Cold => TuningConfig {
                cpu: match self.cpu {
                    CpuTuneMode::Tuned { max_pairs } if max_pairs > 2 => {
                        CpuTuneMode::Tuned { max_pairs: 2 }
                    }
                    other => other,
                },
                gpu: match self.gpu {
                    GpuTuneMode::Tuned => GpuTuneMode::Generic,
                    other => other,
                },
            },
        }
    }
}

/// Wall-clock time spent in each compile stage, measured by
/// [`Tensorizer::compile_with_hint`] around the stage calls themselves.
/// The serving runtime replays these into per-request trace spans
/// (`inspect` → `tune` → `lower`) so a cold-start's cost is attributable
/// to a stage rather than a lump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Instruction applicability inspection ([`Tensorizer::inspect`]).
    pub inspect_us: u64,
    /// Schedule search / candidate profiling (the tuner call). For CPU
    /// targets this includes lowering, which candidate construction
    /// performs internally.
    pub tune_us: u64,
    /// Tensorized lowering outside the tuner (GPU targets: schedule
    /// build + finalize; `0` for CPU targets, see `tune_us`).
    pub lower_us: u64,
}

impl StageTimings {
    /// Total compile wall time across the recorded stages.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.inspect_us + self.tune_us + self.lower_us
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A compiled, tuned, tensorized kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Name of the source operation.
    pub op_name: String,
    /// The instruction UNIT selected.
    pub intrinsic: TensorIntrinsic,
    /// The loop mapping `(operation axis, instruction axis)` used.
    pub mapping: Vec<(AxisId, AxisId)>,
    /// The tensorized function (tuned for CPU targets; base-tensorized for
    /// GPU targets, whose tuning lives in `gpu_desc`).
    pub func: TirFunc,
    /// Latency estimate of the chosen schedule on the target machine.
    pub estimate: Estimate,
    /// The chosen schedule, human-readable.
    pub chosen: String,
    /// `(candidate, cycles)` tuning log.
    pub tuning_log: Vec<(String, f64)>,
    /// GPU kernel configuration (GPU targets only).
    pub gpu_desc: Option<GpuKernelDesc>,
    /// The *search-free* tuning config that reproduces this kernel:
    /// `CpuTuneMode::Fixed` at the winning pair for CPU targets (the
    /// rebuilt function, estimate and chosen-schedule string are all
    /// identical, since candidate construction is deterministic), and
    /// `GpuTuneMode::Generic` for GPU targets (whose functional kernel
    /// does not depend on the scheduling knobs). The serving runtime
    /// persists this per kernel so a warm start replays tuning decisions
    /// with zero searches.
    pub replay: TuningConfig,
    /// Wall-clock time spent per compile stage (observability only —
    /// never persisted, never compared for determinism).
    pub stages: StageTimings,
}

/// The UNIT compiler front object.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Tensorizer {
    target: Target,
    tuning: TuningConfig,
    workers: usize,
}

impl Tensorizer {
    /// A tensorizer with default (full) tuning and a serial search.
    #[must_use]
    pub fn new(target: Target) -> Tensorizer {
        Tensorizer {
            target,
            tuning: TuningConfig::default(),
            workers: 1,
        }
    }

    /// Override the tuning effort (used by the ablation benches).
    #[must_use]
    pub fn with_tuning(mut self, tuning: TuningConfig) -> Tensorizer {
        self.tuning = tuning;
        self
    }

    /// Evaluate tuning candidates with up to `n` threads (`0` = one per
    /// available core). The search stays deterministic: the chosen
    /// schedule, estimate and tuning log are identical at any worker
    /// count (see `crate::tuner::parallel`).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Tensorizer {
        self.workers = n;
        self
    }

    /// The configured tuning worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The target this tensorizer compiles for.
    #[must_use]
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Inspect applicability only: the first applicable instruction and its
    /// match, without rewriting.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoApplicableInstruction`] listing the per-instruction
    /// rejection reasons.
    pub fn inspect(&self, op: &ComputeOp) -> Result<(TensorIntrinsic, Match), CompileError> {
        let mut tried = Vec::new();
        for intrin in registry::for_target(&self.target.desc.id) {
            match inspect(&intrin, op) {
                Ok(m) => return Ok((intrin, m)),
                Err(reason) => tried.push((intrin.name.clone(), reason)),
            }
        }
        Err(CompileError::NoApplicableInstruction { tried })
    }

    /// Compile an operation: detect, rewrite, tune.
    ///
    /// # Errors
    ///
    /// [`CompileError`] if no instruction applies or a pipeline stage fails.
    pub fn compile(&self, op: &ComputeOp) -> Result<CompiledKernel, CompileError> {
        self.compile_with_hint(op, None)
    }

    /// Compile with a convolution-structure hint for the GPU tuner (the
    /// implicit-GEMM view erases the spatial/channel split that dimension
    /// fusion and split-K are defined in terms of).
    ///
    /// # Errors
    ///
    /// [`CompileError`] if no instruction applies or a pipeline stage fails.
    pub fn compile_with_hint(
        &self,
        op: &ComputeOp,
        hint: Option<crate::tuner::gpu::ConvGpuHint>,
    ) -> Result<CompiledKernel, CompileError> {
        let stage_start = Instant::now();
        let (intrinsic, m) = self.inspect(op)?;
        let inspect_us = elapsed_us(stage_start);
        // Dispatch on the descriptor's execution style — never on which
        // target this is. Adding a target therefore never touches this.
        match self.target.desc.style {
            ExecStyle::Cpu { .. } => {
                // Prefer the (possibly hand-tweaked) built machine; fall
                // back to the descriptor's own model so a hand-assembled
                // Target can never desynchronize style and machine.
                let machine = self
                    .target
                    .cpu
                    .as_ref()
                    .or_else(|| self.target.desc.cpu_machine())
                    .expect("CPU-style target carries a CPU machine");
                let stage_start = Instant::now();
                let tuned = tune_cpu_with_workers(
                    op,
                    &m,
                    &intrinsic,
                    machine,
                    self.tuning.cpu,
                    self.workers,
                )?;
                let tune_us = elapsed_us(stage_start);
                let (par, unroll) = tuned.chosen_pair;
                Ok(CompiledKernel {
                    op_name: op.name.clone(),
                    intrinsic,
                    mapping: m.mapping,
                    func: tuned.func,
                    estimate: tuned.estimate,
                    chosen: tuned.chosen,
                    tuning_log: tuned.log,
                    gpu_desc: None,
                    replay: TuningConfig {
                        cpu: CpuTuneMode::Fixed { par, unroll },
                        gpu: GpuTuneMode::Generic,
                    },
                    stages: StageTimings {
                        inspect_us,
                        tune_us,
                        // CPU lowering happens inside candidate
                        // construction, i.e. under `tune_us`.
                        lower_us: 0,
                    },
                })
            }
            ExecStyle::Gpu { .. } => {
                let machine = self
                    .target
                    .gpu
                    .as_ref()
                    .or_else(|| self.target.desc.gpu_machine())
                    .expect("GPU-style target carries a GPU machine");
                let stage_start = Instant::now();
                let tuned = tune_gpu_with_workers(
                    op,
                    &m,
                    &intrinsic,
                    machine,
                    self.tuning.gpu,
                    hint,
                    self.workers,
                );
                let tune_us = elapsed_us(stage_start);
                // The functional kernel: base tensorized lowering (the GPU
                // scheduling knobs do not change semantics).
                let stage_start = Instant::now();
                let ts = build_tensorized_schedule(op, &m, &intrinsic)?;
                let func = finalize(&ts, &format!("{}_wmma", op.name))?;
                let lower_us = elapsed_us(stage_start);
                Ok(CompiledKernel {
                    op_name: op.name.clone(),
                    intrinsic,
                    mapping: m.mapping,
                    func,
                    estimate: tuned.estimate,
                    chosen: tuned.chosen,
                    tuning_log: tuned.log,
                    gpu_desc: Some(tuned.desc),
                    replay: TuningConfig {
                        // The functional GPU kernel is tuning-independent;
                        // `Generic` profiles one config, so replay never
                        // searches. The replayed *estimate* is not used —
                        // warm latency reports come from the persisted
                        // micros, not from re-profiling.
                        cpu: CpuTuneMode::ParallelUnroll,
                        gpu: GpuTuneMode::Generic,
                    },
                    stages: StageTimings {
                        inspect_us,
                        tune_us,
                        lower_us,
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_dsl::builder::{
        batched_matmul_f16, batched_matmul_u8i8, conv2d_hwc, matmul_f16, matmul_u8i8,
    };

    #[test]
    fn at_tier_caps_search_budget_and_full_is_identity() {
        let full = TuningConfig::default();
        assert_eq!(full.at_tier(TuneTier::Full), full);
        let cold = full.at_tier(TuneTier::Cold);
        assert_eq!(cold.cpu, CpuTuneMode::Tuned { max_pairs: 2 });
        assert_eq!(cold.gpu, GpuTuneMode::Generic);
        // Configs already at or below the cold budget are untouched, so
        // tiering degenerates to a no-op (the engine detects this via
        // `at_tier(Cold) == full` and skips re-tunes).
        let cheap = TuningConfig {
            cpu: CpuTuneMode::Fixed { par: 1, unroll: 1 },
            gpu: GpuTuneMode::Generic,
        };
        assert_eq!(cheap.at_tier(TuneTier::Cold), cheap);
        assert_eq!(cold.at_tier(TuneTier::Cold), cold);
    }

    #[test]
    fn x86_pipeline_compiles_quantized_conv() {
        let op = conv2d_hwc(18, 18, 32, 64, 3, 3);
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap();
        assert_eq!(k.intrinsic.name, "llvm.x86.avx512.vpdpbusd.512");
        assert!(k.estimate.cycles > 0.0);
        assert!(!k.tuning_log.is_empty());
    }

    #[test]
    fn gpu_pipeline_compiles_fp16_matmul() {
        let op = matmul_f16(112, 256, 512);
        let k = Tensorizer::new(Target::nvidia_tensor_core())
            .compile(&op)
            .unwrap();
        assert!(k.intrinsic.name.contains("wmma"));
        assert!(k.gpu_desc.is_some());
    }

    #[test]
    fn batched_matmul_needs_no_pipeline_special_case() {
        // The operator-agnosticism claim: a batched matmul is "just" a
        // matmul with one more outer data-parallel loop, so the unchanged
        // Inspector/Rewriter/Tuner compile it on both instruction families
        // it is typed for. There is no `match op.kind` anywhere in the
        // pipeline to extend.
        let q = batched_matmul_u8i8(4, 8, 16, 16);
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&q)
            .unwrap();
        assert!(k.intrinsic.name.contains("vpdpbusd"));
        let f = batched_matmul_f16(4, 32, 32, 32);
        let k = Tensorizer::new(Target::nvidia_tensor_core())
            .compile(&f)
            .unwrap();
        assert!(k.intrinsic.name.contains("wmma"));
        assert!(k.gpu_desc.is_some());
    }

    #[test]
    fn batched_matmul_kernels_are_correct_end_to_end() {
        use unit_interp::{alloc_buffers, random_fill, run, run_reference};
        for (op, target) in [
            (batched_matmul_u8i8(3, 8, 16, 8), Target::x86_avx512_vnni()),
            (
                batched_matmul_f16(2, 16, 16, 16),
                Target::nvidia_tensor_core(),
            ),
        ] {
            let k = Tensorizer::new(target).compile(&op).unwrap();
            let mut bufs = alloc_buffers(&k.func);
            random_fill(&mut bufs, 314);
            let mut reference = bufs.clone();
            run(&k.func, &mut bufs).unwrap();
            run_reference(&op, &mut reference).unwrap();
            assert_eq!(
                bufs[op.output.0 as usize], reference[op.output.0 as usize],
                "{} diverges from the reference",
                op.name
            );
        }
    }

    #[test]
    fn inapplicable_ops_report_reasons() {
        // fp16 matmul on VNNI: every x86 instruction must report why not.
        let op = matmul_f16(64, 64, 64);
        let err = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap_err();
        match err {
            CompileError::NoApplicableInstruction { tried } => {
                assert_eq!(tried.len(), registry::for_target("x86-avx512-vnni").len());
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn narrower_vnni_is_selected_when_lanes_do_not_fit() {
        // Neither data-parallel extent (24, 8) tiles by 16 lanes, so the
        // 512-bit encoding is inapplicable; the 256-bit one (8 lanes) fits.
        let op = matmul_u8i8(24, 8, 64);
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap();
        assert_eq!(k.intrinsic.name, "llvm.x86.avx512.vpdpbusd.256");
    }

    #[test]
    fn with_workers_does_not_change_the_compilation_result() {
        let op = conv2d_hwc(18, 18, 32, 64, 3, 3);
        let serial = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap();
        let parallel = Tensorizer::new(Target::x86_avx512_vnni())
            .with_workers(8)
            .compile(&op)
            .unwrap();
        assert_eq!(parallel.chosen, serial.chosen);
        assert_eq!(parallel.estimate.cycles, serial.estimate.cycles);
        assert_eq!(parallel.tuning_log, serial.tuning_log);
    }

    #[test]
    fn tuning_config_encoding_round_trips() {
        use crate::tuner::{CpuTuneMode, GpuTuneMode};
        let configs = [
            TuningConfig::default(),
            TuningConfig {
                cpu: CpuTuneMode::ParallelOnly,
                gpu: GpuTuneMode::Generic,
            },
            TuningConfig {
                cpu: CpuTuneMode::ParallelUnroll,
                gpu: GpuTuneMode::FuseDim,
            },
            TuningConfig {
                cpu: CpuTuneMode::Fixed {
                    par: 1500,
                    unroll: 8,
                },
                gpu: GpuTuneMode::SplitK,
            },
            TuningConfig {
                cpu: CpuTuneMode::Tuned { max_pairs: 3 },
                gpu: GpuTuneMode::Tuned,
            },
        ];
        for cfg in configs {
            let enc = cfg.encode();
            let dec = TuningConfig::decode(&enc).unwrap();
            assert_eq!(dec.cpu, cfg.cpu, "{enc}");
            assert_eq!(dec.gpu, cfg.gpu, "{enc}");
        }
        assert_eq!(TuningConfig::default().encode(), "cpu=tuned:16;gpu=tuned");
        // Malformed inputs are rejected, never panicking.
        for bad in [
            "",
            "cpu=tuned:16",
            "gpu=tuned",
            "cpu=warp;gpu=tuned",
            "cpu=tuned:0;gpu=tuned",
            "cpu=fixed:12;gpu=tuned",
            "cpu=fixed:1:2:3;gpu=tuned",
            "cpu=tuned:x;gpu=tuned",
            "cpu=tuned:16;gpu=magic",
            "cpu=tuned:16;gpu=tuned;extra=1",
        ] {
            assert!(TuningConfig::decode(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn replay_config_rebuilds_the_identical_cpu_kernel_without_searching() {
        let op = conv2d_hwc(18, 18, 32, 64, 3, 3);
        let target = Target::x86_avx512_vnni();
        let searched = Tensorizer::new(target.clone()).compile(&op).unwrap();
        assert!(matches!(
            searched.replay.cpu,
            crate::tuner::CpuTuneMode::Fixed { .. }
        ));
        let invocations_before = crate::tuner::tuner_searches();
        let replayed = Tensorizer::new(target)
            .with_tuning(searched.replay)
            .compile(&op)
            .unwrap();
        // Replay profiles exactly one candidate: bit-identical function,
        // same estimate and chosen schedule, and no additional search
        // (the global search counter may move due to concurrent tests,
        // so assert through the replayed kernel's own log instead).
        assert_eq!(replayed.tuning_log.len(), 1);
        assert_eq!(replayed.chosen, searched.chosen);
        assert_eq!(replayed.estimate.cycles, searched.estimate.cycles);
        assert_eq!(
            format!("{:?}", replayed.func),
            format!("{:?}", searched.func),
            "replayed function must be identical"
        );
        let _ = invocations_before;
    }

    #[test]
    fn gpu_replay_is_search_free_and_functionally_identical() {
        let op = matmul_f16(112, 256, 512);
        let target = Target::nvidia_tensor_core();
        let searched = Tensorizer::new(target.clone()).compile(&op).unwrap();
        let replayed = Tensorizer::new(target)
            .with_tuning(searched.replay)
            .compile(&op)
            .unwrap();
        assert_eq!(replayed.tuning_log.len(), 1, "Generic profiles one config");
        assert_eq!(
            format!("{:?}", replayed.func),
            format!("{:?}", searched.func)
        );
    }

    #[test]
    fn compiled_kernels_are_correct_end_to_end() {
        use unit_interp::{alloc_buffers, random_fill, run, run_reference};
        let op = conv2d_hwc(12, 12, 16, 32, 3, 3);
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap();
        let mut bufs = alloc_buffers(&k.func);
        random_fill(&mut bufs, 77);
        let mut reference = bufs.clone();
        run(&k.func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[op.output.0 as usize], reference[op.output.0 as usize]);
    }
}
