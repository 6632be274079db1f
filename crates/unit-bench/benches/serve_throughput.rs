//! Serving-runtime throughput: cold vs warm whole-model compilation and
//! scheduler requests/sec.
//!
//! Run via `cargo bench -p unit-bench --bench serve_throughput`. Four
//! tracked numbers:
//!
//! * **cold compile**: transformer-tiny + mobilenet-v1 on every
//!   registered target into an empty engine (full tuner searches),
//! * **journal-warm compile**: the same set into a replica that
//!   attached the artifact journal the cold engine appended to —
//!   replayed tuning decisions, *zero tuner searches* (asserted),
//! * **cold first response**: the first-request latency for a novel
//!   workload on a *tiered* engine (cheap cold-tier search, re-tune
//!   deferred to the background) vs a non-tiered engine paying the full
//!   search up front — asserted faster, and asserted bit-identical
//!   before and after the background swap,
//! * **serving throughput**: a burst of small mixed Conv/Gemm requests
//!   pushed through the batching scheduler by 8 client threads across
//!   all targets, reported as requests/sec.
//!
//! `SERVE_THROUGHPUT_SMOKE=1` switches to a single-repetition smoke run
//! that still asserts the warm-start contract and additionally writes
//! `BENCH_serve.json` (requests/sec, cold vs journal-warm compile
//! millis) into
//! the working directory — the start of the serving bench trajectory
//! tracked by CI.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{tuner_searches, CpuTuneMode, GpuTuneMode};
use unit_graph::models::{mobilenet_v1, transformer_tiny};
use unit_graph::{Graph, OpSpec};
use unit_isa::registry;
use unit_serve::{Journal, JournalConfig, Scheduler, SchedulerConfig, ServeEngine, ServeRequest};

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 8 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The request mix (small: the tape executes every request).
fn menu() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("mobilenet-v1", OpSpec::depthwise(8, 8, 3, 1, 1)),
        ("mobilenet-v1", OpSpec::conv2d(4, 6, 8, 3, 1, 1)),
        ("transformer-tiny", OpSpec::gemm(16, 16, 16)),
        ("transformer-tiny", OpSpec::batched_gemm(2, 8, 16, 16)),
    ]
}

fn compile_all(engine: &ServeEngine, models: &[Graph], targets: &[String]) -> Duration {
    let t0 = Instant::now();
    for graph in models {
        for target in targets {
            let _ = engine.compile_model(graph, target).expect("compile");
        }
    }
    t0.elapsed()
}

fn main() {
    let smoke = std::env::var("SERVE_THROUGHPUT_SMOKE").is_ok();
    let models = [transformer_tiny(), mobilenet_v1()];
    let targets: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    let journal_dir = std::env::temp_dir().join(format!("unit-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("journal dir");
    let journal_path = journal_dir.join("journal");

    // --- Cold compile, persisted through the journal. ---
    let cold = ServeEngine::new(tuning());
    cold.attach_journal(Arc::new(
        Journal::open(JournalConfig::at(&journal_path)).expect("open journal"),
    ))
    .expect("attach journal");
    let cold_elapsed = compile_all(&cold, &models, &targets);
    for (model, op) in menu() {
        for target in &targets {
            cold.execute(model, target, op, 0).expect("cold execute");
        }
    }

    // --- Journal warm start: a fresh replica attaching the journal the
    // cold engine appended to, as a second replica in a fleet would. ---
    let journal_warm = ServeEngine::new(tuning());
    let restored = journal_warm
        .attach_journal(Arc::new(
            Journal::open(JournalConfig::at(&journal_path)).expect("reopen journal"),
        ))
        .expect("attach journal");
    assert!(restored > 0, "the journal snapshot restores entries");
    let searches_before = tuner_searches();
    let journal_warm_elapsed = compile_all(&journal_warm, &models, &targets);
    assert_eq!(
        tuner_searches(),
        searches_before,
        "journal-warm compile must perform zero tuner searches"
    );

    // --- Cold first response: how long the *first* request for a novel
    // workload waits, tiered (cheap cold-tier search now, full search in
    // the background) vs non-tiered (full search up front). The probe
    // op is small so the search — not the tape's execution of the
    // request — dominates the first response; best of five fresh
    // engines each, so one scheduling hiccup cannot flip the
    // comparison. ---
    use unit_serve::TuneTier;
    let full16 = TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 16 },
        gpu: GpuTuneMode::Tuned,
    };
    let probe = OpSpec::gemm(16, 16, 16);
    let probe_target = &targets[0];
    let mut tiered_first = Duration::MAX;
    let mut full_first = Duration::MAX;
    let mut probe_bits: Option<Vec<u8>> = None;
    for _ in 0..5 {
        let tiered = ServeEngine::new(full16).with_tiered_cold_start();
        let t0 = Instant::now();
        let cold_out = tiered
            .execute("probe", probe_target, probe, 3)
            .expect("tiered cold execute");
        tiered_first = tiered_first.min(t0.elapsed());
        assert_eq!(cold_out.tier, TuneTier::Cold);

        let full = ServeEngine::new(full16);
        let t0 = Instant::now();
        let full_out = full
            .execute("probe", probe_target, probe, 3)
            .expect("full cold execute");
        full_first = full_first.min(t0.elapsed());
        assert_eq!(full_out.tier, TuneTier::Full);
        assert_eq!(
            cold_out.output, full_out.output,
            "the cold tier must not change bits"
        );

        // The background upgrade lands without changing bits either.
        assert!(tiered.run_pending_retunes() >= 1);
        let swapped = tiered
            .execute("probe", probe_target, probe, 3)
            .expect("post-swap execute");
        assert_eq!(swapped.tier, TuneTier::Full);
        assert_eq!(swapped.output, full_out.output);
        let bits = unit_serve::net::encode_typed_buf(&full_out.output).into_bytes();
        assert!(probe_bits.get_or_insert(bits.clone()) == &bits);
    }
    assert!(
        tiered_first < full_first,
        "tiered cold start ({tiered_first:?}) must answer before a full search ({full_first:?})"
    );

    // --- Serving throughput: submit the whole burst, then drain, so the
    // dispatcher actually forms multi-request batches. ---
    let requests: usize = if smoke { 128 } else { 512 };
    let clients = 8;
    let per_client = requests / clients;
    let engine = Arc::new(journal_warm);
    let scheduler = Arc::new(Scheduler::start(
        Arc::clone(&engine),
        SchedulerConfig {
            queue_capacity: 64,
            max_batch: 8,
        },
    ));
    let menu = menu();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let scheduler = Arc::clone(&scheduler);
            let (menu, targets) = (&menu, &targets);
            scope.spawn(move || {
                let mut pending = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let (model, op) = &menu[(client + i) % menu.len()];
                    let target = &targets[(client + i) % targets.len()];
                    let (_, rx) = scheduler
                        .submit(ServeRequest {
                            model: (*model).to_string(),
                            target: target.clone(),
                            op: *op,
                            seed: (i % 5) as u64,
                        })
                        .expect("admission");
                    pending.push(rx);
                }
                for rx in pending {
                    assert!(rx.recv().expect("response").result.is_ok());
                }
            });
        }
    });
    let serve_elapsed = t0.elapsed();
    let rps = engine.metrics().throughput_rps(serve_elapsed);
    std::fs::remove_dir_all(&journal_dir).ok();

    println!(
        "serve_throughput: {} targets, {} requests",
        targets.len(),
        requests
    );
    println!(
        "  cold compile {:>8.1} ms   journal-warm compile {:>8.2} ms   ({:.0}x)",
        cold_elapsed.as_secs_f64() * 1e3,
        journal_warm_elapsed.as_secs_f64() * 1e3,
        cold_elapsed.as_secs_f64() / journal_warm_elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  cold first response {:>8.2} ms tiered   {:>8.2} ms full   ({:.1}x)",
        tiered_first.as_secs_f64() * 1e3,
        full_first.as_secs_f64() * 1e3,
        full_first.as_secs_f64() / tiered_first.as_secs_f64().max(1e-9)
    );
    println!(
        "  serving      {:>8.2} s    {:>8.0} req/s",
        serve_elapsed.as_secs_f64(),
        rps
    );
    println!("{}", engine.metrics().render_prometheus());

    assert_eq!(engine.metrics().completed(), requests as u64);
    assert_eq!(engine.metrics().failed(), 0);
    assert_eq!(engine.metrics().tuner_searches(), 0);
    assert!(
        journal_warm_elapsed < cold_elapsed,
        "replaying artifacts must be faster than searching"
    );

    if smoke {
        // Hand-rolled JSON (the vendored serde is a stub): the tracked
        // serving-bench artifact CI archives as BENCH_serve.json.
        let json = format!(
            "{{\n  \"bench\": \"serve_throughput\",\n  \"targets\": {},\n  \"requests\": {requests},\n  \"requests_per_sec\": {rps:.1},\n  \"cold_compile_ms\": {:.2},\n  \"journal_warm_compile_ms\": {:.3},\n  \"cold_first_response_tiered_ms\": {:.3},\n  \"cold_first_response_full_ms\": {:.3},\n  \"warm_tuner_searches\": 0,\n  \"batch_size_mean\": {:.2}\n}}\n",
            targets.len(),
            cold_elapsed.as_secs_f64() * 1e3,
            journal_warm_elapsed.as_secs_f64() * 1e3,
            tiered_first.as_secs_f64() * 1e3,
            full_first.as_secs_f64() * 1e3,
            mean_batch(&engine),
        );
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json:\n{json}");
    }
}

fn mean_batch(engine: &ServeEngine) -> f64 {
    // Read the two counters off the Prometheus exposition rather than
    // growing the metrics API a bench-only accessor.
    let text = engine.metrics().render_prometheus();
    let counter = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("unit_serve_{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let batches = counter("batches_executed");
    if batches == 0.0 {
        0.0
    } else {
        counter("batched_requests") / batches
    }
}
