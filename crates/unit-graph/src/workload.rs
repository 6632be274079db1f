//! Workload descriptors: the operator-generic [`OpSpec`] the graph
//! compiler, kernel cache and tuner entry points are phrased in, plus the
//! convolution-shaped [`ConvSpec`] the evaluation tables (Table I,
//! Figures 10/11/13) use.
//!
//! UNIT's pipeline is operator-agnostic — the Inspector matches loop
//! nests, not operator names — so the workload model must be too.
//! [`OpSpec`] models groups *explicitly* (a first-class `GroupedConv`
//! variant) instead of the historical `ConvSpec.groups == c` encoding of
//! depthwise layers, and adds (batched) GEMM as a peer of convolution.

use serde::{Deserialize, Serialize};

/// One (grouped, strided, padded) 2D or 3D convolution layer at batch 1.
///
/// Kernels may be rectangular (`r x rw`, e.g. inception-v3's 1x7 and 7x1
/// factorized convolutions); the evaluation layers keep square feature maps
/// via SAME-style padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub c: i64,
    /// Input height and width (the evaluation layers are square).
    pub ihw: i64,
    /// Input depth for 3D convolutions (1 = 2D).
    pub id: i64,
    /// Output channels.
    pub k: i64,
    /// Kernel height (and depth for 3D).
    pub r: i64,
    /// Kernel width.
    pub rw: i64,
    /// Spatial stride.
    pub stride: i64,
    /// Padding on top/bottom.
    pub pad: i64,
    /// Padding on left/right.
    pub pad_w: i64,
    /// Groups (1 = dense conv, `c` = depthwise).
    pub groups: i64,
}

impl ConvSpec {
    /// A plain dense 2D convolution with a square kernel.
    #[must_use]
    pub fn new_2d(c: i64, ihw: i64, k: i64, r: i64, stride: i64, pad: i64) -> ConvSpec {
        ConvSpec {
            c,
            ihw,
            id: 1,
            k,
            r,
            rw: r,
            stride,
            pad,
            pad_w: pad,
            groups: 1,
        }
    }

    /// A dense 2D convolution with a rectangular `r x rw` kernel.
    #[must_use]
    pub fn new_rect(
        c: i64,
        ihw: i64,
        k: i64,
        (r, rw): (i64, i64),
        stride: i64,
        (pad, pad_w): (i64, i64),
    ) -> ConvSpec {
        ConvSpec {
            c,
            ihw,
            id: 1,
            k,
            r,
            rw,
            stride,
            pad,
            pad_w,
            groups: 1,
        }
    }

    /// A grouped 2D convolution spec with the group count **explicit** —
    /// the replacement for the retired `ConvSpec::depthwise` compat
    /// constructor (graph nodes store `ConvSpec`; the workload layer
    /// normalizes through [`OpSpec::from_conv`], so a `groups == c == k`
    /// spec built here classifies as depthwise everywhere).
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is positive and divides both `c` and `k`.
    #[must_use]
    pub fn grouped_2d(
        c: i64,
        ihw: i64,
        k: i64,
        r: i64,
        stride: i64,
        pad: i64,
        groups: i64,
    ) -> ConvSpec {
        assert!(groups >= 1, "groups must be positive");
        assert_eq!(c % groups, 0, "groups must divide input channels");
        assert_eq!(k % groups, 0, "groups must divide output channels");
        let mut spec = ConvSpec::new_2d(c, ihw, k, r, stride, pad);
        spec.groups = groups;
        spec
    }

    /// A dense 3D convolution with input `id x ihw x ihw`.
    #[must_use]
    pub fn new_3d(c: i64, ihw: i64, id: i64, k: i64, r: i64, stride: i64, pad: i64) -> ConvSpec {
        ConvSpec {
            c,
            ihw,
            id,
            k,
            r,
            rw: r,
            stride,
            pad,
            pad_w: pad,
            groups: 1,
        }
    }

    /// Output height.
    #[must_use]
    pub fn oh(&self) -> i64 {
        (self.ihw + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output width.
    #[must_use]
    pub fn ow(&self) -> i64 {
        (self.ihw + 2 * self.pad_w - self.rw) / self.stride + 1
    }

    /// Output height/width for square-output layers (all evaluation layers).
    ///
    /// # Panics
    ///
    /// Panics if the output is not square (misuse of a rectangular layer).
    #[must_use]
    pub fn ohw(&self) -> i64 {
        assert_eq!(self.oh(), self.ow(), "layer output is not square");
        self.oh()
    }

    /// Output depth (3D).
    #[must_use]
    pub fn od(&self) -> i64 {
        if self.id == 1 {
            1
        } else {
            (self.id + 2 * self.pad - self.r) / self.stride + 1
        }
    }

    /// Whether this is a depthwise convolution: one input *and* one
    /// output channel per group. A `groups == c` conv with a depth
    /// multiplier (`k == 2c`) is grouped, not depthwise — it still has
    /// `k/groups` output channels to reduce into per group.
    #[must_use]
    pub fn is_depthwise(&self) -> bool {
        self.groups == self.c && self.groups > 1 && self.k == self.c
    }

    /// Whether this is a 3D convolution.
    #[must_use]
    pub fn is_3d(&self) -> bool {
        self.id > 1
    }

    /// Total multiply-accumulates at batch 1.
    #[must_use]
    pub fn macs(&self) -> i64 {
        let spatial = self.oh() * self.ow() * self.od();
        let depth_taps = if self.is_3d() { self.r } else { 1 };
        let per_output = (self.c / self.groups) * self.r * self.rw * depth_taps;
        spatial * self.k * per_output
    }

    /// Input feature-map elements.
    #[must_use]
    pub fn input_elems(&self) -> i64 {
        self.c * self.ihw * self.ihw * self.id
    }

    /// Weight elements.
    #[must_use]
    pub fn weight_elems(&self) -> i64 {
        let depth_taps = if self.is_3d() { self.r } else { 1 };
        self.k * (self.c / self.groups) * self.r * self.rw * depth_taps
    }

    /// Output feature-map elements.
    #[must_use]
    pub fn output_elems(&self) -> i64 {
        self.k * self.oh() * self.ow() * self.od()
    }
}

/// An operator-generic workload: the unit the graph compiler deduplicates,
/// the kernel cache keys on, and the differential test matrix enumerates.
///
/// Three families, one pipeline: every variant lowers to a multiply-
/// accumulate reduction loop nest, which is exactly what the Inspector
/// pattern-matches — no variant needs per-op plumbing in `inspect` /
/// `match_compute` (that operator-agnosticism is the paper's core claim).
///
/// Grouped convolution is a *first-class* variant with its group count
/// stored explicitly, replacing the historical `ConvSpec.groups == c`
/// encoding of depthwise layers (whose deprecated `ConvSpec::depthwise`
/// compat constructor is now retired; build explicit specs with
/// [`ConvSpec::grouped_2d`] or [`OpSpec::depthwise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpSpec {
    /// A dense (groups = 1) 2D or 3D convolution.
    Conv(ConvSpec),
    /// A grouped convolution: `groups` independent convolutions over
    /// `c/groups` input and `k/groups` output channels each.
    /// `groups == c` is depthwise.
    ///
    /// Invariant: `conv.groups == groups` (so `ConvSpec`'s MAC/element
    /// accounting stays correct); the constructors enforce it.
    GroupedConv {
        /// The convolution geometry (channels are totals, not per-group).
        conv: ConvSpec,
        /// The explicit group count (divides both `conv.c` and `conv.k`).
        groups: i64,
    },
    /// A (batched) matrix multiplication `out[b] = a[b] (m x k) * w[b]
    /// (k x n)`: dense/projection layers at `batch == 1`, attention-style
    /// batched matmuls at `batch == heads`.
    Gemm {
        /// Rows of the left operand (e.g. sequence length).
        m: i64,
        /// Columns of the right operand (output features).
        n: i64,
        /// The reduction depth.
        k: i64,
        /// Independent problem instances sharing one kernel launch.
        batch: i64,
    },
}

impl OpSpec {
    /// A dense 2D convolution workload.
    #[must_use]
    pub fn conv2d(c: i64, ihw: i64, k: i64, r: i64, stride: i64, pad: i64) -> OpSpec {
        OpSpec::Conv(ConvSpec::new_2d(c, ihw, k, r, stride, pad))
    }

    /// A dense 3D convolution workload.
    #[must_use]
    pub fn conv3d(c: i64, ihw: i64, id: i64, k: i64, r: i64, stride: i64, pad: i64) -> OpSpec {
        OpSpec::Conv(ConvSpec::new_3d(c, ihw, id, k, r, stride, pad))
    }

    /// A grouped 2D convolution with the group count modeled explicitly.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` divides both `c` and `k`.
    #[must_use]
    pub fn grouped(c: i64, ihw: i64, k: i64, r: i64, stride: i64, pad: i64, groups: i64) -> OpSpec {
        assert!(groups >= 1, "groups must be positive");
        assert_eq!(c % groups, 0, "groups must divide input channels");
        assert_eq!(k % groups, 0, "groups must divide output channels");
        let mut conv = ConvSpec::new_2d(c, ihw, k, r, stride, pad);
        conv.groups = groups;
        if groups == 1 {
            OpSpec::Conv(conv)
        } else {
            OpSpec::GroupedConv { conv, groups }
        }
    }

    /// A depthwise 2D convolution (`groups == c == k`), the explicit
    /// replacement for the retired `ConvSpec::depthwise` compat
    /// constructor.
    #[must_use]
    pub fn depthwise(c: i64, ihw: i64, r: i64, stride: i64, pad: i64) -> OpSpec {
        OpSpec::grouped(c, ihw, c, r, stride, pad, c)
    }

    /// A single matrix multiplication `(m x k) * (k x n)`.
    #[must_use]
    pub fn gemm(m: i64, n: i64, k: i64) -> OpSpec {
        OpSpec::batched_gemm(1, m, n, k)
    }

    /// A batched matrix multiplication (`batch` independent instances).
    ///
    /// # Panics
    ///
    /// Panics on non-positive dimensions.
    #[must_use]
    pub fn batched_gemm(batch: i64, m: i64, n: i64, k: i64) -> OpSpec {
        assert!(
            batch > 0 && m > 0 && n > 0 && k > 0,
            "GEMM dimensions must be positive"
        );
        OpSpec::Gemm { m, n, k, batch }
    }

    /// Normalize a `ConvSpec` into the explicit workload model: specs
    /// carrying the implicit `groups > 1` encoding become
    /// [`OpSpec::GroupedConv`]; dense specs stay [`OpSpec::Conv`]. This is
    /// the compatibility bridge from graph nodes (which store `ConvSpec`)
    /// to the workload layer, and it is injective, so deduplication and
    /// cache keying over `OpSpec` never merge distinct conv layers.
    #[must_use]
    pub fn from_conv(conv: ConvSpec) -> OpSpec {
        if conv.groups > 1 {
            OpSpec::GroupedConv {
                conv,
                groups: conv.groups,
            }
        } else {
            OpSpec::Conv(conv)
        }
    }

    /// The convolution geometry, if this is a conv-family workload.
    #[must_use]
    pub fn conv(&self) -> Option<&ConvSpec> {
        match self {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => Some(c),
            OpSpec::Gemm { .. } => None,
        }
    }

    /// The explicit group count (1 for dense conv and GEMM).
    #[must_use]
    pub fn groups(&self) -> i64 {
        match self {
            OpSpec::GroupedConv { conv, groups } => {
                // The constructors keep the compat field in sync; catch
                // hand-built or deserialized values that break it.
                debug_assert_eq!(
                    conv.groups, *groups,
                    "GroupedConv payload disagrees with conv.groups"
                );
                *groups
            }
            _ => 1,
        }
    }

    /// Whether this is a depthwise convolution (`groups == c == k`),
    /// modeled explicitly rather than inferred from `ConvSpec` internals.
    /// A `groups == c` conv with a depth multiplier (`k > c`) is *not*
    /// depthwise — it keeps per-group output channels and lowers through
    /// the grouped blocked builder.
    #[must_use]
    pub fn is_depthwise(&self) -> bool {
        match self {
            OpSpec::GroupedConv { conv, groups } => {
                *groups == conv.c && *groups > 1 && conv.k == conv.c
            }
            _ => false,
        }
    }

    /// Total multiply-accumulates at batch 1 (graph batch; GEMM `batch`
    /// instances all count).
    #[must_use]
    pub fn macs(&self) -> i64 {
        match self {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => c.macs(),
            OpSpec::Gemm { m, n, k, batch } => batch * m * n * k,
        }
    }

    /// Input operand elements (activations / left matrix).
    #[must_use]
    pub fn input_elems(&self) -> i64 {
        match self {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => c.input_elems(),
            OpSpec::Gemm { m, k, batch, .. } => batch * m * k,
        }
    }

    /// Weight operand elements (kernels / right matrix).
    #[must_use]
    pub fn weight_elems(&self) -> i64 {
        match self {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => c.weight_elems(),
            OpSpec::Gemm { n, k, batch, .. } => batch * k * n,
        }
    }

    /// Output operand elements.
    #[must_use]
    pub fn output_elems(&self) -> i64 {
        match self {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => c.output_elems(),
            OpSpec::Gemm { m, n, batch, .. } => batch * m * n,
        }
    }

    /// Stable text encoding used by the `unit-serve` artifact journal:
    /// every field of the workload identity, colon-separated.
    /// Round-trips exactly through [`OpSpec::decode`]; change only
    /// together with the journal's format version.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => format!(
                "conv:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
                c.c, c.ihw, c.id, c.k, c.r, c.rw, c.stride, c.pad, c.pad_w, c.groups
            ),
            OpSpec::Gemm { m, n, k, batch } => format!("gemm:{batch}:{m}:{n}:{k}"),
        }
    }

    /// Parse the [`OpSpec::encode`] encoding. Unlike the panicking
    /// constructors, this validates untrusted (on-disk) input and returns
    /// errors instead.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed field.
    pub fn decode(s: &str) -> Result<OpSpec, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        let mut next = |what: &str| -> Result<i64, String> {
            parts
                .next()
                .ok_or_else(|| format!("workload `{s}`: missing {what}"))?
                .parse::<i64>()
                .map_err(|e| format!("workload `{s}`: bad {what}: {e}"))
        };
        let spec = match head {
            "conv" => {
                let conv = ConvSpec {
                    c: next("c")?,
                    ihw: next("ihw")?,
                    id: next("id")?,
                    k: next("k")?,
                    r: next("r")?,
                    rw: next("rw")?,
                    stride: next("stride")?,
                    pad: next("pad")?,
                    pad_w: next("pad_w")?,
                    groups: next("groups")?,
                };
                if conv.c < 1 || conv.ihw < 1 || conv.id < 1 || conv.k < 1 {
                    return Err(format!("workload `{s}`: non-positive dimensions"));
                }
                if conv.r < 1 || conv.rw < 1 || conv.stride < 1 || conv.pad < 0 || conv.pad_w < 0 {
                    return Err(format!("workload `{s}`: bad kernel geometry"));
                }
                if conv.groups < 1 || conv.c % conv.groups != 0 || conv.k % conv.groups != 0 {
                    return Err(format!(
                        "workload `{s}`: groups {} must divide channels {}x{}",
                        conv.groups, conv.c, conv.k
                    ));
                }
                OpSpec::from_conv(conv)
            }
            "gemm" => {
                let (batch, m, n, k) = (next("batch")?, next("m")?, next("n")?, next("k")?);
                if batch < 1 || m < 1 || n < 1 || k < 1 {
                    return Err(format!("workload `{s}`: GEMM dimensions must be positive"));
                }
                OpSpec::Gemm { m, n, k, batch }
            }
            other => return Err(format!("unknown workload kind `{other}`")),
        };
        if parts.next().is_some() {
            return Err(format!("workload `{s}`: trailing fields"));
        }
        Ok(spec)
    }

    /// A short human-readable label used in notes and reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            OpSpec::Conv(c) if c.is_3d() => format!(
                "conv3d c{} hw{} d{} k{} r{} s{}",
                c.c, c.ihw, c.id, c.k, c.r, c.stride
            ),
            OpSpec::Conv(c) => format!(
                "conv2d c{} hw{} k{} r{}x{} s{}",
                c.c, c.ihw, c.k, c.r, c.rw, c.stride
            ),
            OpSpec::GroupedConv { conv, .. } if self.is_depthwise() => {
                format!(
                    "dwconv c{} hw{} r{} s{}",
                    conv.c, conv.ihw, conv.r, conv.stride
                )
            }
            OpSpec::GroupedConv { conv, groups } => format!(
                "grouped conv g{} c{} hw{} k{} r{} s{}",
                groups, conv.c, conv.ihw, conv.k, conv.r, conv.stride
            ),
            OpSpec::Gemm { m, n, k, batch } if *batch == 1 => format!("gemm {m}x{n}x{k}"),
            OpSpec::Gemm { m, n, k, batch } => format!("bmm b{batch} {m}x{n}x{k}"),
        }
    }
}

impl From<ConvSpec> for OpSpec {
    fn from(conv: ConvSpec) -> OpSpec {
        OpSpec::from_conv(conv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims_follow_the_conv_formula() {
        // Table I workload #1: C=288, IHW=35, K=384, R=3, stride 2 -> OHW 17.
        let w = ConvSpec::new_2d(288, 35, 384, 3, 2, 0);
        assert_eq!(w.ohw(), 17);
        // Workload #4: C=80, IHW=73, K=192, R=3, stride 1 -> OHW 71.
        let w4 = ConvSpec::new_2d(80, 73, 192, 3, 1, 0);
        assert_eq!(w4.ohw(), 71);
    }

    #[test]
    fn macs_count_depthwise_correctly() {
        let dense = ConvSpec::new_2d(32, 16, 64, 3, 1, 1);
        assert_eq!(dense.macs(), 16 * 16 * 64 * 32 * 9);
        let dw = ConvSpec::grouped_2d(32, 16, 32, 3, 1, 1, 32);
        assert!(dw.is_depthwise());
        assert_eq!(dw.macs(), 16 * 16 * 32 * 9);
    }

    #[test]
    fn op_spec_normalizes_the_implicit_group_encoding() {
        // A groups == c == k ConvSpec (how graph nodes still store
        // depthwise layers) maps onto the explicit GroupedConv variant...
        let dw = OpSpec::from_conv(ConvSpec::grouped_2d(32, 16, 32, 3, 1, 1, 32));
        assert_eq!(dw, OpSpec::depthwise(32, 16, 3, 1, 1));
        assert!(dw.is_depthwise());
        assert_eq!(dw.groups(), 32);
        // ...while dense specs stay in the Conv variant.
        let dense = OpSpec::from_conv(ConvSpec::new_2d(32, 16, 64, 3, 1, 1));
        assert!(matches!(dense, OpSpec::Conv(_)));
        assert_eq!(dense.groups(), 1);
    }

    #[test]
    fn workload_encoding_round_trips_every_variant() {
        let specs = [
            OpSpec::conv2d(64, 14, 64, 3, 1, 1),
            OpSpec::conv3d(16, 28, 8, 32, 3, 1, 1),
            OpSpec::Conv(ConvSpec::new_rect(128, 17, 128, (1, 7), 1, (0, 3))),
            OpSpec::grouped(32, 16, 64, 3, 1, 1, 4),
            OpSpec::depthwise(32, 16, 3, 2, 1),
            OpSpec::gemm(64, 128, 256),
            OpSpec::batched_gemm(4, 64, 64, 32),
        ];
        for spec in specs {
            let enc = spec.encode();
            assert_eq!(OpSpec::decode(&enc).unwrap(), spec, "{enc}");
        }
    }

    #[test]
    fn workload_decoding_rejects_malformed_input() {
        for bad in [
            "",
            "conv",
            "conv:64:14:1:64:3:3:1:1:1",     // missing groups
            "conv:64:14:1:64:3:3:1:1:1:3",   // groups don't divide
            "conv:0:14:1:64:3:3:1:1:1:1",    // non-positive dim
            "conv:64:14:1:64:3:3:0:1:1:1",   // zero stride
            "conv:64:14:1:64:3:3:1:1:1:1:9", // trailing field
            "conv:64:14:1:64:3:x:1:1:1:1",   // non-numeric
            "gemm:0:64:64:64",               // zero batch
            "gemm:1:64:64",                  // missing k
            "pool:1:2",                      // unknown kind
        ] {
            assert!(OpSpec::decode(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn grouped_conv_macs_scale_inversely_with_groups() {
        let dense = OpSpec::conv2d(32, 16, 64, 3, 1, 1);
        let grouped = OpSpec::grouped(32, 16, 64, 3, 1, 1, 4);
        assert_eq!(grouped.groups(), 4);
        assert!(!grouped.is_depthwise());
        assert_eq!(grouped.macs() * 4, dense.macs());
        // groups == 1 normalizes to the dense variant.
        assert_eq!(OpSpec::grouped(32, 16, 64, 3, 1, 1, 1), dense);
    }

    #[test]
    #[should_panic(expected = "divide input channels")]
    fn grouped_conv_rejects_indivisible_channels() {
        let _ = OpSpec::grouped(30, 16, 64, 3, 1, 1, 4);
    }

    #[test]
    fn depth_multiplier_conv_is_grouped_not_depthwise() {
        // groups == c but k == 2c: every group still reduces into two
        // output channels, so no depthwise classification (which would
        // silently drop half the output channels in the lowering).
        let dm = OpSpec::grouped(8, 6, 16, 3, 1, 1, 8);
        assert!(!dm.is_depthwise());
        assert_eq!(dm.groups(), 8);
        assert_eq!(dm.macs(), 6 * 6 * 16 * 9, "k=16 outputs, 1 tap each");
        // And the ConvSpec-level predicate agrees.
        assert!(!dm.conv().unwrap().is_depthwise());
    }

    #[test]
    fn gemm_accounting() {
        let g = OpSpec::gemm(64, 128, 256);
        assert_eq!(g.macs(), 64 * 128 * 256);
        assert_eq!(g.input_elems(), 64 * 256);
        assert_eq!(g.weight_elems(), 256 * 128);
        assert_eq!(g.output_elems(), 64 * 128);
        let b = OpSpec::batched_gemm(8, 64, 32, 64);
        assert_eq!(b.macs(), 8 * 64 * 32 * 64);
        assert_eq!(b.describe(), "bmm b8 64x32x64");
        assert_eq!(g.describe(), "gemm 64x128x256");
        assert!(g.conv().is_none());
    }

    #[test]
    fn op_spec_orders_and_hashes_distinctly() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        assert!(set.insert(OpSpec::conv2d(8, 8, 8, 3, 1, 1)));
        assert!(set.insert(OpSpec::grouped(8, 8, 8, 3, 1, 1, 2)));
        assert!(set.insert(OpSpec::depthwise(8, 8, 3, 1, 1)));
        assert!(set.insert(OpSpec::gemm(8, 8, 8)));
        assert!(set.insert(OpSpec::batched_gemm(2, 8, 8, 8)));
        assert!(!set.insert(OpSpec::gemm(8, 8, 8)), "duplicates collapse");
    }

    #[test]
    fn rectangular_kernels_keep_square_outputs_with_same_padding() {
        // inception-v3's 1x7 conv at 17x17 with (0,3) padding.
        let w = ConvSpec::new_rect(128, 17, 128, (1, 7), 1, (0, 3));
        assert_eq!(w.oh(), 17);
        assert_eq!(w.ow(), 17);
        assert_eq!(w.macs(), 17 * 17 * 128 * 128 * 7);
    }

    #[test]
    fn conv3d_dimensions() {
        let w = ConvSpec::new_3d(64, 56, 8, 64, 3, 1, 1);
        assert!(w.is_3d());
        assert_eq!(w.ohw(), 56);
        assert_eq!(w.od(), 8);
        assert_eq!(w.macs(), 56 * 56 * 8 * 64 * 64 * 27);
    }
}
