//! Regeneration logic for every figure of the paper's evaluation.
//!
//! Each function returns a [`FigureResult`] whose rows are *relative
//! performance* numbers normalized to the figure's baseline (exactly how
//! the paper plots them). The `paper` field carries the approximate values
//! digitized from the published figures, so the printed tables and
//! `EXPERIMENTS.md` can show paper-vs-measured side by side.

use serde::{Deserialize, Serialize};
use unit_baselines::{
    CudnnMode, CudnnProvider, MxnetOneDnnProvider, TvmArmManualProvider, TvmNeonProvider,
    TvmX86Provider,
};
use unit_core::pipeline::{Target, TuningConfig};
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::compile::{e2e_latency, ConvProvider, UnitProvider};
use unit_graph::models::{all_models, model_labels, res18_3d_convs};

use crate::{geomean, render_table, workloads::table_i};

/// One x-axis entry (a model or a workload) with one value per series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// x-axis label.
    pub label: String,
    /// One relative-performance value per series.
    pub values: Vec<f64>,
}

/// A regenerated figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureResult {
    /// Figure title (paper numbering).
    pub title: String,
    /// Series names, aligned with each row's values.
    pub series: Vec<String>,
    /// Data rows.
    pub rows: Vec<FigureRow>,
    /// Geometric mean per series.
    pub geomean: Vec<f64>,
    /// The paper's approximate reported values for the same series
    /// (geomean level), for the reproduction report.
    pub paper_geomean: Vec<f64>,
}

impl FigureResult {
    fn from_rows(
        title: &str,
        series: Vec<String>,
        rows: Vec<FigureRow>,
        paper_geomean: Vec<f64>,
    ) -> FigureResult {
        let geomean = (0..series.len())
            .map(|i| geomean(&rows.iter().map(|r| r.values[i]).collect::<Vec<_>>()))
            .collect();
        FigureResult {
            title: title.to_string(),
            series,
            rows,
            geomean,
            paper_geomean,
        }
    }

    /// Render as an aligned text table with a geomean footer.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut header = vec!["workload".to_string()];
        header.extend(self.series.clone());
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = vec![r.label.clone()];
                cells.extend(r.values.iter().map(|v| format!("{v:.2}")));
                cells
            })
            .collect();
        let mut geo = vec!["geomean".to_string()];
        geo.extend(self.geomean.iter().map(|v| format!("{v:.2}")));
        rows.push(geo);
        let mut paper = vec!["paper(geomean)".to_string()];
        paper.extend(self.paper_geomean.iter().map(|v| format!("{v:.2}")));
        rows.push(paper);
        format!("{}\n{}", self.title, render_table(&header, &rows))
    }
}

fn unit_cpu_tuning(max_pairs: usize) -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs },
        gpu: GpuTuneMode::Tuned,
    }
}

/// Figure 1: cuDNN fp16 *without* Tensor Cores, relative to fp32 (values
/// below 1 demonstrate that naive mixed precision is a slowdown).
#[must_use]
pub fn fig01() -> FigureResult {
    let fp32 = CudnnProvider::new(CudnnMode::Fp32);
    let fp16 = CudnnProvider::new(CudnnMode::Fp16NoTensorCore);
    let mut rows = Vec::new();
    for (graph, label) in all_models().iter().zip(model_labels()) {
        let base = e2e_latency(graph, &fp32).total_ms;
        let naive = e2e_latency(graph, &fp16).total_ms;
        rows.push(FigureRow {
            label: label.to_string(),
            values: vec![1.0, base / naive],
        });
    }
    FigureResult::from_rows(
        "Figure 1: fp16 without mixed-precision instructions (V100, bs=1)",
        vec![
            "cuDNN(fp32)".to_string(),
            "cuDNN(fp16) w/o Tensor Core".to_string(),
        ],
        rows,
        vec![1.0, 0.76],
    )
}

/// Figure 8: quantized end-to-end inference on Cascade Lake VNNI, relative
/// to MXNet+oneDNN.
#[must_use]
pub fn fig08() -> FigureResult {
    let onednn = MxnetOneDnnProvider::new();
    let tvm = TvmX86Provider::new();
    let unit = UnitProvider::new(Target::x86_avx512_vnni(), unit_cpu_tuning(8))
        .with_workers(crate::bench_workers());
    let mut rows = Vec::new();
    for (graph, label) in all_models().iter().zip(model_labels()) {
        let base = e2e_latency(graph, &onednn).total_ms;
        let t = e2e_latency(graph, &tvm).total_ms;
        let u = e2e_latency(graph, &unit).total_ms;
        rows.push(FigureRow {
            label: label.to_string(),
            values: vec![1.0, base / t, base / u],
        });
    }
    FigureResult::from_rows(
        "Figure 8: quantized e2e inference (bs=1) accelerated by Intel VNNI",
        vec![
            "MXNet w/ oneDNN".to_string(),
            "TVM".to_string(),
            "UNIT".to_string(),
        ],
        rows,
        vec![1.0, 1.10, 1.30],
    )
}

/// Figure 9: mixed-precision end-to-end inference on V100, relative to
/// cuDNN's Tensor-Core fp16 path.
#[must_use]
pub fn fig09() -> FigureResult {
    let cudnn = CudnnProvider::new(CudnnMode::Fp16TensorCore);
    let unit = UnitProvider::new(Target::nvidia_tensor_core(), unit_cpu_tuning(8))
        .with_workers(crate::bench_workers());
    let mut rows = Vec::new();
    for (graph, label) in all_models().iter().zip(model_labels()) {
        let base = e2e_latency(graph, &cudnn).total_ms;
        let u = e2e_latency(graph, &unit).total_ms;
        rows.push(FigureRow {
            label: label.to_string(),
            values: vec![1.0, base / u],
        });
    }
    FigureResult::from_rows(
        "Figure 9: mixed-precision e2e inference (bs=1) accelerated by Tensor Cores",
        vec![
            "cuDNN (fp16) w/ Tensor Core".to_string(),
            "UNIT".to_string(),
        ],
        rows,
        vec![1.0, 1.75],
    )
}

/// Figure 10: CPU schedule-space ablation over the 16 Table I layers,
/// relative to oneDNN.
#[must_use]
pub fn fig10() -> FigureResult {
    let onednn = MxnetOneDnnProvider::new();
    let stages: Vec<(&str, CpuTuneMode)> = vec![
        ("Parallel", CpuTuneMode::ParallelOnly),
        ("+Unroll", CpuTuneMode::ParallelUnroll),
        ("+Tune", CpuTuneMode::Tuned { max_pairs: 16 }),
    ];
    let providers: Vec<UnitProvider> = stages
        .iter()
        .map(|(label, mode)| {
            UnitProvider::new(
                Target::x86_avx512_vnni(),
                TuningConfig {
                    cpu: *mode,
                    gpu: GpuTuneMode::Tuned,
                },
            )
            .with_label(*label)
            .with_workers(crate::bench_workers())
        })
        .collect();
    let mut rows = Vec::new();
    for (i, spec) in table_i().iter().enumerate() {
        // Per-kernel comparison: no framework overhead on either side.
        let base = onednn.conv_micros(spec).0;
        let mut values = vec![1.0];
        for p in &providers {
            values.push(base / p.conv_micros(spec).0);
        }
        rows.push(FigureRow {
            label: format!("#{}", i + 1),
            values,
        });
    }
    let mut series = vec!["oneDNN".to_string()];
    series.extend(stages.iter().map(|(l, _)| (*l).to_string()));
    FigureResult::from_rows(
        "Figure 10: CPU code-space exploration (VNNI, Table I layers)",
        series,
        rows,
        vec![1.0, 0.85, 1.30, 1.35],
    )
}

/// Figure 11: GPU schedule-space ablation over the 16 Table I layers,
/// relative to cuDNN.
#[must_use]
pub fn fig11() -> FigureResult {
    let cudnn = CudnnProvider::new(CudnnMode::Fp16TensorCore);
    let stages: Vec<(&str, GpuTuneMode)> = vec![
        ("Generic", GpuTuneMode::Generic),
        ("+FuseDim", GpuTuneMode::FuseDim),
        ("+SplitK", GpuTuneMode::SplitK),
        ("+Tune", GpuTuneMode::Tuned),
    ];
    let providers: Vec<UnitProvider> = stages
        .iter()
        .map(|(label, mode)| {
            UnitProvider::new(
                Target::nvidia_tensor_core(),
                TuningConfig {
                    cpu: CpuTuneMode::ParallelUnroll,
                    gpu: *mode,
                },
            )
            .with_label(*label)
            .with_workers(crate::bench_workers())
        })
        .collect();
    let mut rows = Vec::new();
    for (i, spec) in table_i().iter().enumerate() {
        let base = cudnn.conv_micros(spec).0;
        let mut values = vec![1.0];
        for p in &providers {
            values.push(base / p.conv_micros(spec).0);
        }
        rows.push(FigureRow {
            label: format!("#{}", i + 1),
            values,
        });
    }
    let mut series = vec!["cuDNN".to_string()];
    series.extend(stages.iter().map(|(l, _)| (*l).to_string()));
    FigureResult::from_rows(
        "Figure 11: GPU code-space exploration (Tensor Core, Table I layers)",
        series,
        rows,
        vec![1.0, 1.0, 1.1, 1.45, 1.5],
    )
}

/// Figure 12: quantized end-to-end inference on Graviton2 DOT, relative to
/// TVM-NEON.
#[must_use]
pub fn fig12() -> FigureResult {
    let neon = TvmNeonProvider::new();
    let manual = TvmArmManualProvider::new();
    let unit = UnitProvider::new(Target::arm_neon_dot(), unit_cpu_tuning(8))
        .with_workers(crate::bench_workers());
    let mut rows = Vec::new();
    for (graph, label) in all_models().iter().zip(model_labels()) {
        let base = e2e_latency(graph, &neon).total_ms;
        let m = e2e_latency(graph, &manual).total_ms;
        let u = e2e_latency(graph, &unit).total_ms;
        rows.push(FigureRow {
            label: label.to_string(),
            values: vec![1.0, base / m, base / u],
        });
    }
    FigureResult::from_rows(
        "Figure 12: e2e inference on ARM (bs=1) accelerated by DOT",
        vec![
            "TVM-NEON".to_string(),
            "TVM-Manual".to_string(),
            "UNIT".to_string(),
        ],
        rows,
        vec![1.0, 4.2, 4.7],
    )
}

/// Figure 13: conv3d extensibility — the resnet-18 layers converted to 3D,
/// relative to oneDNN.
#[must_use]
pub fn fig13() -> FigureResult {
    let onednn = MxnetOneDnnProvider::new();
    let unit = UnitProvider::new(Target::x86_avx512_vnni(), unit_cpu_tuning(8))
        .with_workers(crate::bench_workers());
    let mut rows = Vec::new();
    for (i, spec) in res18_3d_convs().iter().enumerate() {
        let base = onednn.conv_micros(spec).0;
        let u = unit.conv_micros(spec).0;
        rows.push(FigureRow {
            label: format!("{i}"),
            values: vec![1.0, base / u],
        });
    }
    FigureResult::from_rows(
        "Figure 13: per-layer conv3d performance on res18-3d (VNNI)",
        vec!["oneDNN".to_string(), "UNIT".to_string()],
        rows,
        vec![1.0, 1.2],
    )
}

/// The "candidates to optimum" statistic of Section VI-B: for each Table I
/// layer, at which candidate index the tuner's best schedule was found.
#[must_use]
pub fn candidates_to_optimum() -> Vec<usize> {
    use unit_core::pipeline::Tensorizer;
    use unit_graph::layout::blocked_conv2d;
    let mut out = Vec::new();
    for spec in table_i() {
        let op = blocked_conv2d(&spec, 16, 4, unit_dsl::DType::U8, unit_dsl::DType::I8);
        let t = Tensorizer::new(Target::x86_avx512_vnni())
            .with_tuning(unit_cpu_tuning(16))
            .with_workers(crate::bench_workers());
        let kernel = t.compile(&op).expect("Table I layers all tensorize");
        let best = kernel
            .tuning_log
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        out.push(best + 1); // 1-indexed: "found at the n-th pair"
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure-shape assertions live in the workspace-level integration
    // tests (`tests/figures.rs`); here we only sanity-check plumbing on
    // the cheapest figures.

    #[test]
    fn fig10_produces_16_rows_with_4_series_plus_baseline() {
        let f = fig10();
        assert_eq!(f.rows.len(), 16);
        assert_eq!(f.series.len(), 4);
        for r in &f.rows {
            assert_eq!(r.values.len(), 4);
            assert!(r.values.iter().all(|v| *v > 0.0));
        }
        let text = f.to_table();
        assert!(text.contains("geomean"));
        assert!(text.contains("paper"));
    }

    #[test]
    fn fig11_stages_are_monotonically_non_worsening_in_geomean() {
        let f = fig11();
        // Generic <= +FuseDim <= +SplitK <= +Tune is enforced by superset
        // search spaces (each stage includes the previous stage's choice)
        // only for +Tune; FuseDim/SplitK are fixed choices, so just check
        // +Tune dominates everything.
        let tune = f.geomean[4];
        for i in 1..4 {
            assert!(
                tune >= f.geomean[i] * 0.999,
                "+Tune ({tune}) must dominate stage {i} ({})",
                f.geomean[i]
            );
        }
    }
}
