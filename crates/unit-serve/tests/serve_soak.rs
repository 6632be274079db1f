//! The serving soak test (ISSUE 5 acceptance): 8 client threads push
//! 1k+ mixed Conv/Gemm requests through the batching scheduler across
//! **every registered target**, and every response must be bit-identical
//! to `run_reference` for its workload — independent of batching,
//! worker interleaving, queue pressure and cache warm-up order.
//!
//! A second pass replays the same request list through a `max_batch = 1`
//! scheduler (serial batches) and asserts the outputs are identical to
//! the batched run: batching is a throughput optimization, never an
//! observable behavior.
//!
//! Workload shapes are deliberately small — the tape executes every
//! request faithfully, so soak cost scales with MACs, not with request
//! count alone.

use std::collections::HashMap;
use std::sync::Arc;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::layout::op_for_target;
use unit_graph::OpSpec;
use unit_interp::{alloc_op_buffers, random_fill, run_reference};
use unit_isa::{registry, TypedBuf};
use unit_serve::{Scheduler, SchedulerConfig, ServeEngine, ServeRequest};

/// Modest tuning keeps compile time negligible next to execution; the
/// correctness contract is identical at any tuning effort (the
/// differential suite covers the full matrix).
fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 2 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The mixed Conv/Gemm workload menu: dense conv, pointwise conv,
/// depthwise conv (SIMD fallback path), grouped conv, plain GEMM and
/// batched GEMM.
fn menu() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("convnet", OpSpec::conv2d(4, 6, 8, 3, 1, 1)),
        ("convnet", OpSpec::conv2d(8, 5, 8, 1, 1, 0)),
        ("convnet", OpSpec::depthwise(8, 8, 3, 1, 1)),
        ("convnet", OpSpec::grouped(8, 6, 16, 3, 1, 1, 2)),
        ("attention", OpSpec::gemm(16, 16, 16)),
        ("attention", OpSpec::batched_gemm(2, 8, 16, 16)),
    ]
}

/// The deterministic master request list: every menu item on every
/// registered target, seeds cycling over a small set, shuffled across
/// targets so per-target workers interleave.
fn request_list(total: usize) -> Vec<ServeRequest> {
    let targets: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    assert!(
        targets.len() >= 4,
        "expected the four built-in targets, got {targets:?}"
    );
    let menu = menu();
    let mut out = Vec::with_capacity(total);
    for i in 0..total {
        let (model, op) = &menu[i % menu.len()];
        let target = &targets[(i / menu.len()) % targets.len()];
        out.push(ServeRequest {
            model: (*model).to_string(),
            target: target.clone(),
            op: *op,
            seed: (i % 5) as u64,
        });
    }
    out
}

/// Expected output for a request, from the reference executor over the
/// same target-specific lowering the engine uses.
fn reference_outputs(requests: &[ServeRequest]) -> HashMap<(String, String, u64), TypedBuf>
where
{
    let mut memo: HashMap<(String, String, u64), TypedBuf> = HashMap::new();
    for req in requests {
        let key = (req.target.clone(), req.op.encode(), req.seed);
        if memo.contains_key(&key) {
            continue;
        }
        let desc = registry::target_by_id(&req.target).expect("registered");
        let (op, _) = op_for_target(&req.op, &desc);
        let mut bufs = alloc_op_buffers(&op);
        random_fill(&mut bufs, req.seed);
        run_reference(&op, &mut bufs).expect("reference executes");
        memo.insert(key, bufs.swap_remove(op.output.0 as usize));
    }
    memo
}

/// Drive `requests` through a scheduler with 8 client threads; returns
/// outputs in request order.
fn drive(requests: &[ServeRequest], config: SchedulerConfig, clients: usize) -> Vec<TypedBuf> {
    let engine = Arc::new(ServeEngine::new(tuning()));
    let scheduler = Arc::new(Scheduler::start(Arc::clone(&engine), config));
    let mut outputs: Vec<Option<TypedBuf>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..clients {
            let scheduler = Arc::clone(&scheduler);
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                // Client c owns requests c, c+clients, c+2*clients, ...
                for (idx, req) in requests
                    .iter()
                    .enumerate()
                    .skip(client)
                    .step_by(clients.max(1))
                {
                    let (_, rx) = scheduler.submit(req.clone()).expect("admission");
                    let resp = rx.recv().expect("response");
                    assert!(resp.batch_size >= 1);
                    got.push((
                        idx,
                        resp.result
                            .unwrap_or_else(|e| panic!("request {idx} failed: {e}")),
                    ));
                }
                got
            }));
        }
        for handle in handles {
            for (idx, buf) in handle.join().expect("client thread") {
                outputs[idx] = Some(buf);
            }
        }
    });
    let metrics = engine.metrics();
    assert_eq!(metrics.completed(), requests.len() as u64);
    assert_eq!(metrics.failed(), 0);
    assert_eq!(metrics.queue_depth(), 0, "everything drained");
    outputs.into_iter().map(|o| o.expect("filled")).collect()
}

#[test]
fn soak_8_threads_1k_mixed_requests_bit_identical_to_reference() {
    let requests = request_list(1024);
    let expected = reference_outputs(&requests);

    // Batched run: 8 clients against a batching scheduler.
    let batched = drive(
        &requests,
        SchedulerConfig {
            queue_capacity: 64,
            max_batch: 8,
        },
        8,
    );
    for (idx, (req, out)) in requests.iter().zip(&batched).enumerate() {
        let key = (req.target.clone(), req.op.encode(), req.seed);
        assert_eq!(
            out,
            &expected[&key],
            "request {idx} ({} on {}, seed {}) diverged from run_reference",
            req.op.describe(),
            req.target,
            req.seed
        );
    }

    // Serial batches (max_batch = 1), single client: identical outputs.
    let serial = drive(
        &requests[..256],
        SchedulerConfig {
            queue_capacity: 16,
            max_batch: 1,
        },
        1,
    );
    for (idx, (s, b)) in serial.iter().zip(&batched[..256]).enumerate() {
        assert_eq!(s, b, "serial and batched outputs diverged at request {idx}");
    }
}

#[test]
fn tiered_scheduler_serves_cold_then_swaps_mid_traffic_without_changing_bits() {
    // ISSUE 8 acceptance: a tiered replica under live traffic answers
    // novel workloads at the cold tier, the background worker hot-swaps
    // the full-tier kernels in mid-traffic, and no response — before,
    // during or after the swaps — ever differs from `run_reference` (or,
    // transitively, from a cold full-tier compile of the same tuning).
    use unit_serve::{RetuneWorker, TuneTier};

    let full = TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 16 },
        gpu: GpuTuneMode::Tuned,
    };
    let targets = ["x86-avx512-vnni", "arm-neon-dot"];
    let menu = [
        ("convnet", OpSpec::conv2d(4, 6, 8, 3, 1, 1)),
        ("attention", OpSpec::gemm(16, 16, 16)),
        ("attention", OpSpec::batched_gemm(2, 8, 16, 16)),
    ];
    let unique_pairs = (targets.len() * menu.len()) as u64;
    let mut requests = Vec::new();
    for i in 0..96 {
        let (model, op) = &menu[i % menu.len()];
        requests.push(ServeRequest {
            model: (*model).to_string(),
            target: targets[(i / menu.len()) % targets.len()].to_string(),
            op: *op,
            seed: (i % 3) as u64,
        });
    }
    let expected = reference_outputs(&requests);

    let engine = Arc::new(ServeEngine::new(full).with_tiered_cold_start());
    let scheduler = Arc::new(Scheduler::start(
        Arc::clone(&engine),
        SchedulerConfig {
            queue_capacity: 16,
            max_batch: 4,
        },
    ));
    let worker = RetuneWorker::start(Arc::clone(&engine));

    let run = |label: &str| -> Vec<TuneTier> {
        let mut tiers = Vec::new();
        for (idx, req) in requests.iter().enumerate() {
            let (_, rx) = scheduler.submit(req.clone()).expect("admission");
            let resp = rx.recv().expect("response");
            let out = resp
                .result
                .unwrap_or_else(|e| panic!("{label} request {idx} failed: {e}"));
            let key = (req.target.clone(), req.op.encode(), req.seed);
            assert_eq!(
                out, expected[&key],
                "{label} request {idx} diverged from run_reference"
            );
            tiers.push(resp.tier.expect("executed responses carry a tier"));
        }
        tiers
    };

    // Pass 1: the first request of each unique (target, workload) pair
    // compiles cold in the request path, so cold-tier responses must
    // appear — and every one of them already matches the reference.
    let first = run("cold pass");
    assert!(
        first.contains(&TuneTier::Cold),
        "first pass must serve cold-tier responses"
    );

    // The worker drains every queued upgrade: one swap per unique pair.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while engine.metrics().retune_swaps() < unique_pairs || engine.pending_retunes() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "re-tune worker stalled: {} swaps, {} pending\n{}",
            engine.metrics().retune_swaps(),
            engine.pending_retunes(),
            engine.metrics().render_prometheus()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Pass 2: everything now serves at the full tier, bits unchanged.
    let second = run("hot pass");
    assert!(
        second.iter().all(|t| *t == TuneTier::Full),
        "post-swap responses must all be full-tier: {second:?}"
    );

    // The swapped artifacts are byte-for-byte what a cold full-tier
    // compile of the same tuning produces (tier, micros and note
    // included) — the cheap tier left no residue.
    let cold_full = ServeEngine::new(full);
    for req in &requests {
        cold_full
            .execute(&req.model, &req.target, req.op, req.seed)
            .expect("cold full-tier compile");
    }
    let swapped = engine.export_artifacts();
    let reference = cold_full.export_artifacts();
    for (model, target) in reference.model_targets() {
        assert_eq!(
            swapped.entries(&model, &target),
            reference.entries(&model, &target),
            "({model}, {target}): swapped artifacts diverged from a cold full-tier compile"
        );
    }

    worker.shutdown();
    if let Ok(scheduler) = Arc::try_unwrap(scheduler) {
        scheduler.shutdown();
    }
}

#[test]
fn backpressure_try_submit_rejects_then_recovers() {
    // A tiny queue with a single slow-ish flow: try_submit must reject
    // with QueueFull at some point under a burst, and every admitted
    // request must still complete correctly.
    let engine = Arc::new(ServeEngine::new(tuning()));
    let scheduler = Scheduler::start(
        Arc::clone(&engine),
        SchedulerConfig {
            queue_capacity: 2,
            max_batch: 2,
        },
    );
    let mut receivers = Vec::new();
    let mut rejected = 0;
    for seed in 0..64 {
        let req = ServeRequest {
            model: "burst".to_string(),
            target: "x86-avx512-vnni".to_string(),
            op: OpSpec::conv2d(4, 6, 8, 3, 1, 1),
            seed: seed % 3,
        };
        match scheduler.try_submit(req.clone()) {
            Ok((_, rx)) => receivers.push(rx),
            Err(unit_serve::SubmitError::QueueFull) => {
                rejected += 1;
                // Blocking submit applies backpressure instead.
                let (_, rx) = scheduler.submit(req).expect("blocking admission");
                receivers.push(rx);
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    for rx in receivers {
        assert!(rx.recv().expect("response").result.is_ok());
    }
    scheduler.shutdown();
    assert_eq!(engine.metrics().completed(), 64);
    assert_eq!(engine.metrics().rejected(), rejected);
    assert_eq!(engine.metrics().queue_depth(), 0);
}
