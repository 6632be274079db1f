//! Warm-start contract: replaying artifacts persisted through the
//! [`Journal`] performs **zero tuner searches** — measured at the tuner
//! itself through the process-global counters in
//! `unit_core::tuner::stats`, not through any cache-level bookkeeping
//! the engine could fake.
//!
//! This binary holds exactly one test: the stats counters are global and
//! monotone, so the delta assertions below must not share a process with
//! unrelated tuner traffic (`cargo test` runs each integration-test
//! binary as its own process, and tests *within* a binary would run
//! concurrently).

use std::sync::Arc;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{tuner_invocations, tuner_searches};
use unit_graph::models::{mobilenet_v1, transformer_tiny};
use unit_graph::OpSpec;
use unit_isa::registry;
use unit_serve::journal::store_records;
use unit_serve::{
    reference_report, Journal, JournalConfig, Scheduler, SchedulerConfig, ServeEngine,
    ServeRequest, TuneTier,
};

/// Small request workloads for the serving phase — the tape executes
/// every request faithfully, so the serving-phase ops must stay
/// small (full mobilenet layers are compile-only in this test, exactly
/// like production: artifacts persist *models*, requests execute
/// *kernels*).
fn menu() -> Vec<OpSpec> {
    vec![
        OpSpec::conv2d(4, 6, 8, 3, 1, 1),
        OpSpec::depthwise(8, 8, 3, 1, 1),
        OpSpec::gemm(16, 16, 16),
        OpSpec::batched_gemm(2, 8, 16, 16),
    ]
}

#[test]
fn warm_start_replays_artifacts_with_zero_tuner_searches() {
    let tuning = TuningConfig::default();
    let models = [transformer_tiny(), mobilenet_v1()];
    let targets: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    let dir = std::env::temp_dir().join(format!("unit-serve-warm-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal");

    // --- Cold phase: compile every model on every target; reports must
    // match the plain serial graph compiler bit-for-bit. ---
    let cold = ServeEngine::new(tuning);
    let mut cold_reports = Vec::new();
    let searches_before_cold = tuner_searches();
    for graph in &models {
        for target in &targets {
            let report = cold.compile_model(graph, target).expect("cold compile");
            let reference = reference_report(
                graph,
                unit_core::pipeline::Target::by_id(target).unwrap(),
                tuning,
            );
            assert_eq!(
                report.total_ms, reference.total_ms,
                "{}/{target}: artifact-aware report diverged from compile_graph",
                graph.name
            );
            for (a, b) in report.layers.iter().zip(&reference.layers) {
                assert_eq!(
                    a.micros, b.micros,
                    "{}/{target}: layer {}",
                    graph.name, a.name
                );
                assert_eq!(a.note, b.note, "{}/{target}: layer {}", graph.name, a.name);
            }
            cold_reports.push(report);
        }
    }
    assert!(
        tuner_searches() > searches_before_cold,
        "the cold phase must actually search"
    );
    // Also execute the small serving menu once cold, so its tuning
    // decisions are persisted alongside the model artifacts.
    for op in menu() {
        for target in &targets {
            let out = cold.execute("menu", target, op, 5).expect("cold execute");
            assert!(!out.output.is_empty(), "outputs are non-empty");
        }
    }

    // --- Persist through the journal, then reload from a fresh handle. ---
    let store = cold.export_artifacts();
    assert!(!store.is_empty());
    Journal::open(JournalConfig::at(&journal_path))
        .expect("open journal")
        .append(&store_records(&store))
        .expect("persist artifacts");
    let journal = Journal::open(JournalConfig::at(&journal_path)).expect("reopen journal");

    // --- Warm phase 1: whole-model reports from the restored latency
    // cache — zero tuner *invocations* (the tuner never runs at all). ---
    let warm = ServeEngine::new(tuning);
    let restored = warm
        .attach_journal(Arc::new(journal))
        .expect("journal replays");
    assert_eq!(restored, store.len(), "every entry lands in a served cache");
    assert_eq!(warm.export_artifacts().len(), store.len());
    let invocations_before = tuner_invocations();
    let mut warm_reports = Vec::new();
    for graph in &models {
        for target in &targets {
            warm_reports.push(warm.compile_model(graph, target).expect("warm compile"));
        }
    }
    assert_eq!(
        tuner_invocations(),
        invocations_before,
        "a fully warm model compile must never invoke the tuner"
    );
    for (w, c) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(w.total_ms, c.total_ms, "{}: warm report diverged", w.model);
        assert_eq!(w.layers.len(), c.layers.len());
        for (a, b) in w.layers.iter().zip(&c.layers) {
            assert_eq!(a.micros, b.micros, "{}: layer {}", w.model, a.name);
            assert_eq!(a.note, b.note, "{}: layer {}", w.model, a.name);
        }
    }
    // The warm report path never even consulted the store — it is pure
    // latency-cache hits, so no artifact misses (every miss is a cold
    // compile) and no engine searches.
    for tier in [TuneTier::Cold, TuneTier::Full] {
        assert_eq!(
            warm.metrics().cold_start(tier).count(),
            0,
            "warm model compiles must never miss the store:\n{}",
            warm.metrics().render_prometheus()
        );
    }
    assert_eq!(warm.metrics().tuner_searches(), 0);

    // --- Warm phase 2: *executing* requests replays kernels through the
    // search-free configs — tuner invocations happen (one candidate
    // each) but zero *searches*. Outputs must match the cold engine's
    // bit-for-bit (replay rebuilds identical kernels). ---
    let warm = Arc::new(warm);
    let scheduler = Scheduler::start(Arc::clone(&warm), SchedulerConfig::default());
    let searches_before_serving = tuner_searches();
    let mut pending = Vec::new();
    for op in menu() {
        for target in &targets {
            let (_, rx) = scheduler
                .submit(ServeRequest {
                    model: "menu".to_string(),
                    target: target.clone(),
                    op,
                    seed: 5,
                })
                .expect("admission");
            pending.push((op, target.clone(), rx));
        }
    }
    for (op, target, rx) in pending {
        let resp = rx.recv().expect("response");
        let warm_out = resp.result.expect("warm execution succeeds");
        let cold_out = cold.execute("menu", &target, op, 5).expect("cold replay");
        assert_eq!(
            warm_out,
            cold_out.output,
            "{} on {target}: warm-served output diverged from the cold engine",
            op.describe()
        );
    }
    scheduler.shutdown();
    assert_eq!(
        tuner_searches(),
        searches_before_serving,
        "warm serving must perform zero tuner searches:\n{}",
        warm.metrics().render_prometheus()
    );
    assert_eq!(warm.metrics().tuner_searches(), 0);
    // Every serving-phase compile was answered by the store: the first
    // execution of each (workload, target) replayed an artifact (100%
    // hit rate), later ones hit the executable cache.
    assert!(
        (warm.metrics().artifact_hit_rate() - 1.0).abs() < f64::EPSILON,
        "warm serving must be 100% artifact hits:\n{}",
        warm.metrics().render_prometheus()
    );
    std::fs::remove_dir_all(&dir).ok();
}
