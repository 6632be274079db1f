//! # UNIT — Unifying Tensorized Instruction Compilation (Rust reproduction)
//!
//! This facade crate re-exports the whole UNIT workspace, reproducing the
//! system of *"UNIT: Unifying Tensorized Instruction Compilation"*
//! (Weng et al., CGO 2021):
//!
//! * [`dsl`] — the tensor DSL in which both tensor operations and tensorized
//!   instructions (Intel VNNI, ARM DOT, Nvidia Tensor Core) are described.
//! * [`isa`] — the instruction *and target* registries: unified semantics
//!   descriptors plus bit-accurate software emulation of every instruction,
//!   and the open target model (`TargetDesc`) — targets are data carrying
//!   their own machine model, blocking and dtypes, registrable at runtime.
//! * [`tir`] — the tensor IR: canonical loop nests, scheduling primitives
//!   (`split`/`reorder`/`fuse`/`parallel`/`unroll`/`bind`), lowering, and the
//!   tensorize-replacement pass.
//! * [`interp`] — a tensor-IR interpreter used as the functional-correctness
//!   substrate (no LLVM backend is required).
//! * [`sim`] — analytic CPU/GPU performance estimators used as the profiling
//!   substrate; the machine models they consume (Cascade Lake, Graviton2,
//!   V100, ...) travel inside each target's descriptor.
//! * [`pipeline`] — the paper's contribution: Inspector (applicability
//!   detection), Rewriter (loop reorganization + instruction injection) and
//!   Tuner (CPU/GPU schedule search).
//! * [`graph`] — a graph-level IR with quantization, layout and fusion
//!   passes, plus the nine CNN models of the evaluation.
//! * [`serve`] — the inference-serving runtime: a compiled-artifact
//!   store persisted through an append-only journal (warm starts replay
//!   tuning decisions with zero searches), a batching scheduler sharded
//!   per target, and serving metrics in Prometheus text exposition.
//! * [`baselines`] — simulated vendor-library comparators (oneDNN, cuDNN,
//!   TVM manual schedules, TVM-NEON).
//!
//! ## Quickstart
//!
//! ```
//! use unit::pipeline::{Tensorizer, Target};
//! use unit::dsl::builder::conv2d_hwc;
//!
//! // The paper's running example: map Intel VNNI onto a small convolution.
//! let op = conv2d_hwc(18, 18, 32, 64, 3, 3);
//! let compiled = Tensorizer::new(Target::x86_avx512_vnni())
//!     .compile(&op)
//!     .expect("VNNI applies to quantized convolution");
//! assert_eq!(compiled.intrinsic.name, "llvm.x86.avx512.vpdpbusd.512");
//! ```

pub use unit_baselines as baselines;
pub use unit_core as pipeline;
pub use unit_dsl as dsl;
pub use unit_graph as graph;
pub use unit_interp as interp;
pub use unit_isa as isa;
pub use unit_serve as serve;
pub use unit_sim as sim;
pub use unit_tir as tir;
