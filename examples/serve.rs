//! The networked serving fleet end to end: **two replicas over one
//! file-locked artifact journal**, plus the HTTP/1.1 front-end.
//!
//! * Replica A attaches an empty journal, compiles transformer-tiny and
//!   mobilenet-v1 cold for every registered target — every tuning
//!   decision is appended to the journal as it is made.
//! * Replica B attaches the *same* journal and compiles the same models
//!   with **zero tuner invocations** (asserted through the process-global
//!   tuner counters): the fleet shares tuning through the file, not
//!   through any in-process state.
//! * A then makes a *new* decision; B tails it live via `sync_journal`
//!   and replays it search-free.
//! * B serves a concurrent request stream — every response asserted
//!   bit-identical to `run_reference` — first in-process through the
//!   batching scheduler, then over a real TCP socket through the
//!   HTTP front-end.
//! * Tracing is flipped on at runtime: one whole-model request is
//!   served traced, its stage timeline fetched via `/v1/trace/<id>`,
//!   and the fleet's Chrome trace_event export pulled via
//!   `/v1/traces?export=chrome` (written to `trace_export.json` when
//!   `UNIT_SERVE_TRACE` is set — open it in Perfetto).
//! * A second, **tiered** fleet on its own journal serves a novel
//!   workload immediately at the cold tuning tier, the background
//!   re-tune worker hot-swaps the full-tier kernel in mid-traffic, and
//!   a peer replica tails the upgrade search-free — every response
//!   bit-identical across tiers.
//! * Finally the journal is compacted (generation bump + retired-target
//!   GC) and the metrics are printed.
//!
//! Run with `cargo run --release --example serve`. Set
//! `UNIT_SERVE_SMOKE=1` (the CI smoke mode) to shrink the request count;
//! correctness assertions run in both modes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unit::graph::layout::op_for_target;
use unit::graph::models::{mobilenet_v1, transformer_tiny};
use unit::graph::OpSpec;
use unit::interp::{alloc_op_buffers, random_fill, run_reference};
use unit::isa::registry;
use unit::pipeline::TuningConfig;
use unit::serve::net::{encode_typed_buf, http_request};
use unit::serve::{
    model_graph, HttpServer, HttpServerConfig, Journal, JournalConfig, JournalRecord, Scheduler,
    SchedulerConfig, ServeEngine, ServeRequest,
};
use unit_core::tuner::{tuner_invocations, tuner_searches, CpuTuneMode, GpuTuneMode};

fn main() {
    let smoke = std::env::var("UNIT_SERVE_SMOKE").is_ok();
    let tuning = TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 4 },
        gpu: GpuTuneMode::Tuned,
    };
    let models = [transformer_tiny(), mobilenet_v1()];
    let targets: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    let dir = std::env::temp_dir().join(format!("unit-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal_path = dir.join("journal");
    println!(
        "fleet demo: {} models on {} targets sharing {}",
        models.len(),
        targets.len(),
        journal_path.display()
    );

    // --- Phase 1: replica A compiles cold, journaling every decision. ---
    let replica_a = ServeEngine::new(tuning);
    let journal_a =
        Arc::new(Journal::open(JournalConfig::at(&journal_path)).expect("open journal"));
    replica_a
        .attach_journal(Arc::clone(&journal_a))
        .expect("attach journal to A");
    let t0 = Instant::now();
    for graph in &models {
        for target in &targets {
            let report = replica_a
                .compile_model(graph, target)
                .expect("cold compile");
            println!(
                "  A cold {:<17} on {:<18} {:>9.2} ms ({} kernels)",
                graph.name,
                target,
                report.total_ms,
                report.layers.len()
            );
        }
    }
    // Execute the serving menu once cold so its decisions are journaled
    // alongside the model artifacts.
    for (model, op) in serving_menu() {
        for target in &targets {
            replica_a
                .execute(model, target, op, 0)
                .expect("cold execute");
        }
    }
    let cold_elapsed = t0.elapsed();
    let appended = replica_a.metrics().journal_appends();
    println!(
        "\nA: cold compile {:.2}s, {appended} decisions appended to the journal",
        cold_elapsed.as_secs_f64()
    );
    assert!(appended > 0);

    // --- Phase 2: replica B warm-starts off the journal — zero tuner
    // invocations for the same models. ---
    let replica_b = ServeEngine::new(tuning);
    let journal_b =
        Arc::new(Journal::open(JournalConfig::at(&journal_path)).expect("open journal"));
    let restored = replica_b
        .attach_journal(Arc::clone(&journal_b))
        .expect("attach journal to B");
    let invocations_before = tuner_invocations();
    let t1 = Instant::now();
    for graph in &models {
        for target in &targets {
            let report = replica_b
                .compile_model(graph, target)
                .expect("warm compile");
            assert!(report.total_ms > 0.0);
        }
    }
    let warm_elapsed = t1.elapsed();
    assert_eq!(
        tuner_invocations(),
        invocations_before,
        "B's journal-warm compiles must never invoke the tuner"
    );
    println!(
        "B: warm compile {:.3}s from {restored} journaled entries — zero tuner invocations, {:.0}x faster than cold",
        warm_elapsed.as_secs_f64(),
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
    );

    // --- Phase 3: live tailing. A tunes something new; B picks it up
    // without restarting. ---
    let live_op = OpSpec::gemm(16, 32, 16);
    let a_out = replica_a
        .execute("live", &targets[0], live_op, 11)
        .expect("A executes cold");
    let tailed = replica_b.sync_journal().expect("B tails the journal");
    let searches_before = tuner_searches();
    let b_out = replica_b
        .execute("live", &targets[0], live_op, 11)
        .expect("B replays");
    assert_eq!(
        b_out.output, a_out.output,
        "replicas must agree bit-for-bit"
    );
    assert_eq!(
        tuner_searches(),
        searches_before,
        "B replays A's decision search-free"
    );
    println!("B: tailed {tailed} live record(s) from A and replayed search-free");

    // --- Phase 4: B serves a concurrent stream; every response checked
    // bit-identical to run_reference. ---
    let engine = Arc::new(replica_b);
    let scheduler = Arc::new(Scheduler::start(
        Arc::clone(&engine),
        SchedulerConfig {
            queue_capacity: 64,
            max_batch: 8,
        },
    ));
    let menu = serving_menu();
    let clients = 8;
    let per_client = if smoke { 16 } else { 64 };
    let t2 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let scheduler = Arc::clone(&scheduler);
            let targets = &targets;
            let menu = &menu;
            scope.spawn(move || {
                for i in 0..per_client {
                    let (model, op) = &menu[(client + i) % menu.len()];
                    let target = &targets[(client * per_client + i) % targets.len()];
                    let seed = (i % 7) as u64;
                    let (_, rx) = scheduler
                        .submit(ServeRequest {
                            model: (*model).to_string(),
                            target: target.clone(),
                            op: *op,
                            seed,
                        })
                        .expect("admission");
                    let resp = rx.recv().expect("response");
                    let out = resp.result.expect("execution succeeds");
                    assert_eq!(
                        encode_typed_buf(&out),
                        reference_encoding(target, op, seed),
                        "{} on {target} seed {seed}: diverged from run_reference",
                        op.describe()
                    );
                }
            });
        }
    });
    let served = clients * per_client;
    let elapsed = t2.elapsed();
    println!(
        "\nB served {served} in-process requests across {} targets in {:.2}s ({:.0} req/s), all bit-identical to run_reference",
        targets.len(),
        elapsed.as_secs_f64(),
        engine.metrics().throughput_rps(elapsed)
    );

    // --- Phase 5: the HTTP front-end over a real socket. ---
    let server = HttpServer::start(Arc::clone(&scheduler), HttpServerConfig::default())
        .expect("bind HTTP front-end");
    let addr = server.local_addr();
    let timeout = Duration::from_secs(30);
    let http_requests = if smoke { 8 } else { 32 };
    for i in 0..http_requests {
        let (model, op) = &menu[i % menu.len()];
        let target = &targets[i % targets.len()];
        let seed = (i % 7) as u64;
        let body = format!(
            "model {model}\ntarget {target}\nop {}\nseed {seed}\n",
            op.encode()
        );
        let (status, response) =
            http_request(addr, "POST", "/v1/execute", &body, timeout).expect("HTTP request");
        assert_eq!(status, 200, "{response}");
        let payload = response
            .split_once("dtype ")
            .map(|(_, p)| format!("dtype {p}"))
            .expect("response carries a buffer");
        assert_eq!(
            payload,
            reference_encoding(target, op, seed),
            "HTTP response diverged from run_reference"
        );
    }
    let (status, metrics_text) =
        http_request(addr, "GET", "/metrics", "", timeout).expect("GET /metrics");
    assert_eq!(status, 200);
    println!("HTTP front-end on {addr}: {http_requests} requests bit-identical over the wire\n");

    // --- Phase 5b: request-scoped tracing over the wire. Flip the
    // collector on at runtime, serve one whole model, and pull the
    // timeline plus the Chrome trace_event export back through the
    // front-end (open the export in Perfetto / chrome://tracing). ---
    engine.tracer().set_enabled(true);
    let traced_graph = if cfg!(debug_assertions) {
        "transformer-micro"
    } else {
        "transformer-tiny"
    };
    // A pays the fused whole-model search once — journaled like every
    // other decision — so B serves the traced request search-free.
    let graph_spec = model_graph(traced_graph).expect("known graph");
    replica_a
        .execute_model(&graph_spec, &targets[0], 3, true)
        .expect("A compiles the fused model");
    engine
        .sync_journal()
        .expect("B tails the fused whole-model artifacts");
    let body = format!("graph {traced_graph}\ntarget {}\nseed 3\n", &targets[0]);
    let (status, response) =
        http_request(addr, "POST", "/v1/execute", &body, timeout).expect("traced model request");
    assert_eq!(status, 200, "{response}");
    let trace_id = response
        .lines()
        .find_map(|l| l.strip_prefix("trace "))
        .expect("tracing is on: the response names its trace")
        .to_string();
    let (status, timeline) =
        http_request(addr, "GET", &format!("/v1/trace/{trace_id}"), "", timeout)
            .expect("GET /v1/trace/<id>");
    assert_eq!(status, 200, "{timeline}");
    for required in ["admission", "queue", "tape_dispatch", "epilogue", "reply"] {
        assert!(
            timeline.contains(&format!("span {required} ")),
            "timeline is missing `{required}`:\n{timeline}"
        );
    }
    let spans = timeline.lines().filter(|l| l.starts_with("span ")).count();
    let dispatches = timeline
        .lines()
        .filter(|l| l.starts_with("span tape_dispatch "))
        .count();
    assert_eq!(dispatches, 8, "one tape dispatch per transformer step");
    let (status, export) =
        http_request(addr, "GET", "/v1/traces?export=chrome", "", timeout).expect("chrome export");
    assert_eq!(status, 200);
    assert!(
        export.starts_with('{') && export.contains("\"traceEvents\""),
        "{export}"
    );
    if std::env::var("UNIT_SERVE_TRACE").is_ok() {
        std::fs::write("trace_export.json", &export).expect("write trace_export.json");
        println!("wrote trace_export.json ({} bytes)", export.len());
    }
    engine.tracer().set_enabled(false);
    println!(
        "trace OK: trace {trace_id} has {spans} spans ({dispatches} tape dispatches), chrome export {} bytes\n",
        export.len()
    );
    server.shutdown();

    // --- Phase 6: a tiered fleet on its own journal — serve cold
    // immediately, re-tune in the background, hot-swap mid-traffic, and
    // let the peer replica tail the upgrade search-free. ---
    {
        use unit::serve::{RetuneWorker, TuneTier};
        let full_tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 16 },
            gpu: GpuTuneMode::Tuned,
        };
        let tiered_journal = dir.join("journal-tiered");
        let tiered_op = OpSpec::gemm(24, 16, 32);
        let tiered_target = &targets[0];
        let expected = reference_encoding(tiered_target, &tiered_op, 5);

        // Replica C answers the novel workload immediately at the cold
        // tier instead of stalling on the full search.
        let replica_c = Arc::new(ServeEngine::new(full_tuning).with_tiered_cold_start());
        let journal_c = Arc::new(
            Journal::open(JournalConfig::at(&tiered_journal)).expect("open tiered journal"),
        );
        replica_c
            .attach_journal(Arc::clone(&journal_c))
            .expect("attach journal to C");
        let t3 = Instant::now();
        let cold_out = replica_c
            .execute("live", tiered_target, tiered_op, 5)
            .expect("cold-tier execute");
        let cold_ms = t3.elapsed().as_secs_f64() * 1e3;
        assert_eq!(cold_out.tier, TuneTier::Cold);
        assert_eq!(encode_typed_buf(&cold_out.output), expected);

        // Replica D attaches while the decision is still cold-tier and
        // replays it as-is.
        let replica_d = ServeEngine::new(full_tuning).with_tiered_cold_start();
        let journal_d = Arc::new(
            Journal::open(JournalConfig::at(&tiered_journal)).expect("open tiered journal"),
        );
        replica_d
            .attach_journal(Arc::clone(&journal_d))
            .expect("attach journal to D");
        let d_cold = replica_d
            .execute("live", tiered_target, tiered_op, 5)
            .expect("D replays the cold decision");
        assert_eq!(d_cold.tier, TuneTier::Cold);

        // The background worker re-tunes at the full tier and hot-swaps
        // mid-traffic; C keeps serving throughout, bits unchanged.
        let worker = RetuneWorker::start(Arc::clone(&replica_c));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let out = replica_c
                .execute("live", tiered_target, tiered_op, 5)
                .expect("serve during the swap");
            assert_eq!(
                encode_typed_buf(&out.output),
                expected,
                "bits changed mid-swap"
            );
            if out.tier == TuneTier::Full {
                break;
            }
            assert!(Instant::now() < deadline, "re-tune worker never swapped");
            std::thread::sleep(Duration::from_millis(5));
        }
        worker.shutdown();
        let swaps = replica_c.metrics().retune_swaps();
        assert!(swaps >= 1);

        // D tails the journaled upgrade and swaps too — search-free,
        // the peer already paid the search.
        let searches_before = tuner_searches();
        let tailed = replica_d.sync_journal().expect("D tails the upgrade");
        assert!(tailed > 0, "C's re-tune must reach D");
        assert_eq!(
            tuner_searches(),
            searches_before,
            "a peer hot-swap must be search-free"
        );
        let d_hot = replica_d
            .execute("live", tiered_target, tiered_op, 5)
            .expect("D serves full-tier");
        assert_eq!(d_hot.tier, TuneTier::Full);
        assert_eq!(encode_typed_buf(&d_hot.output), expected);
        assert!(replica_d.metrics().retune_swaps() >= 1);

        println!(
            "tiered OK: cold tier answered in {cold_ms:.2} ms, {swaps} hot swap(s) mid-traffic, peer replica swapped search-free, bits identical across tiers"
        );
    }

    // --- Phase 7: decommission a target fleet-wide, then compact: the
    // retired target's entries are GC'd and the generation bumps. ---
    let retired = targets.last().expect("at least one target");
    journal_a
        .append(&[JournalRecord::Retire {
            target: retired.clone(),
        }])
        .expect("append retire");
    let before = std::fs::metadata(&journal_path)
        .expect("journal size")
        .len();
    journal_a.compact().expect("compact");
    let after = std::fs::metadata(&journal_path)
        .expect("journal size")
        .len();
    assert!(
        after < before,
        "GC must reclaim the retired target's entries"
    );
    println!(
        "journal compacted after retiring {retired}: {before} -> {after} bytes, generation {}",
        journal_a.generation().expect("generation")
    );

    println!("{metrics_text}");
    std::fs::remove_dir_all(&dir).ok();

    let metrics = engine.metrics();
    assert!(metrics.completed() >= served as u64 + http_requests as u64);
    assert_eq!(metrics.failed(), 0);
    assert_eq!(
        metrics.tuner_searches(),
        0,
        "journal-warm serving must replay decisions, never search"
    );
    println!(
        "fleet OK: two replicas shared {appended}+ decisions through the journal, zero failures, zero warm searches"
    );
}

/// Expected output for `(target, op, seed)` straight from the reference
/// executor, encoded exactly like the serving responses.
fn reference_encoding(target: &str, op: &OpSpec, seed: u64) -> String {
    let desc = registry::target_by_id(target).expect("registered target");
    let (lowered, _) = op_for_target(op, &desc);
    let mut bufs = alloc_op_buffers(&lowered);
    random_fill(&mut bufs, seed);
    run_reference(&lowered, &mut bufs).expect("reference executes");
    encode_typed_buf(&bufs.swap_remove(lowered.output.0 as usize))
}

/// The request mix served in phases 4–5: small workloads tagged with
/// the model whose artifact namespace they live in (the tape emulates
/// every instruction faithfully, so the mix stays small).
fn serving_menu() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("mobilenet-v1", OpSpec::depthwise(8, 8, 3, 1, 1)),
        ("mobilenet-v1", OpSpec::conv2d(8, 5, 8, 1, 1, 0)),
        ("transformer-tiny", OpSpec::gemm(16, 16, 16)),
        ("transformer-tiny", OpSpec::batched_gemm(2, 8, 16, 16)),
    ]
}
