//! The scalar floor: plain u8 x i8 -> i32 loops over the logical
//! (unblocked) tensors of each kernel-heavy shape. `tape.floor_ratio`
//! divides the tape's run time by these, so "fast" has a fixed reference
//! that shares no code with the compiler or the executor.

use std::hint::black_box;
use std::time::Instant;

use unit_graph::OpSpec;

use crate::report::median;
use crate::stack::Rng;

fn bytes(rng: &mut Rng, n: usize, signed: bool) -> Vec<i32> {
    (0..n)
        .map(|_| {
            let b = (rng.next_u64() & 0xff) as i32;
            if signed {
                b - 128
            } else {
                b
            }
        })
        .collect()
}

/// `out[b][i][j] = sum_k a[b][i][k] * w[b][j][k]`.
fn gemm(batch: usize, m: usize, n: usize, k: usize, a: &[i32], w: &[i32], out: &mut [i32]) {
    for b in 0..batch {
        for i in 0..m {
            let row = &a[(b * m + i) * k..(b * m + i + 1) * k];
            for j in 0..n {
                let col = &w[(b * n + j) * k..(b * n + j + 1) * k];
                let mut acc = 0i32;
                for (x, y) in row.iter().zip(col) {
                    acc = acc.wrapping_add(x * y);
                }
                out[(b * m + i) * n + j] = acc;
            }
        }
    }
}

/// Direct NHWC convolution, one image, square kernel, zero padding.
#[allow(clippy::too_many_arguments)]
fn conv(
    c: usize,
    hw: usize,
    k: usize,
    r: usize,
    stride: usize,
    pad: usize,
    x: &[i32],
    w: &[i32],
    out: &mut [i32],
) {
    let ohw = (hw + 2 * pad - r) / stride + 1;
    for oy in 0..ohw {
        for ox in 0..ohw {
            for kk in 0..k {
                let mut acc = 0i32;
                for ry in 0..r {
                    let iy = (oy * stride + ry) as isize - pad as isize;
                    if iy < 0 || iy >= hw as isize {
                        continue;
                    }
                    for rx in 0..r {
                        let ix = (ox * stride + rx) as isize - pad as isize;
                        if ix < 0 || ix >= hw as isize {
                            continue;
                        }
                        let xin = &x[((iy as usize) * hw + ix as usize) * c..][..c];
                        let win = &w[((kk * r + ry) * r + rx) * c..][..c];
                        for (p, q) in xin.iter().zip(win) {
                            acc = acc.wrapping_add(p * q);
                        }
                    }
                }
                out[(oy * ohw + ox) * k + kk] = acc;
            }
        }
    }
}

/// Median wall time in milliseconds of the scalar loop for `spec`, over
/// enough repetitions to fill ~`budget_ms`.
pub fn floor_ms(spec: &OpSpec, seed: u64, budget_ms: f64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut run: Box<dyn FnMut()> = match *spec {
        OpSpec::Gemm { m, n, k, batch } => {
            let (b, m, n, k) = (batch as usize, m as usize, n as usize, k as usize);
            let a = bytes(&mut rng, b * m * k, false);
            let w = bytes(&mut rng, b * n * k, true);
            let mut out = vec![0i32; b * m * n];
            Box::new(move || {
                gemm(b, m, n, k, black_box(&a), black_box(&w), &mut out);
                black_box(&out);
            })
        }
        OpSpec::Conv(cs) => {
            let (c, hw, k, r) = (cs.c as usize, cs.ihw as usize, cs.k as usize, cs.r as usize);
            let (stride, pad) = (cs.stride as usize, cs.pad as usize);
            let ohw = (hw + 2 * pad - r) / stride + 1;
            let x = bytes(&mut rng, hw * hw * c, false);
            let w = bytes(&mut rng, k * r * r * c, true);
            let mut out = vec![0i32; ohw * ohw * k];
            Box::new(move || {
                conv(
                    c,
                    hw,
                    k,
                    r,
                    stride,
                    pad,
                    black_box(&x),
                    black_box(&w),
                    &mut out,
                );
                black_box(&out);
            })
        }
        other => panic!("no scalar floor for {}", other.describe()),
    };
    run();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5
        || (started.elapsed().as_secs_f64() * 1e3 < budget_ms && samples.len() < 10_000)
    {
        let t = Instant::now();
        run();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}
