//! ArtifactStore persistence through a real engine and the real
//! filesystem: export → journal → attach in a fresh engine → 100%
//! artifact hit rate, with version-bumped/truncated/corrupt journals
//! rejected by typed errors at the attach entry point, torn tails
//! recovered at every byte offset, plus graceful handling of partial
//! stores and stores naming unserved targets.
//!
//! Counter-based *zero-search* assertions at the tuner itself live in
//! `tests/warm_start_zero_search.rs` (their process-global counters need
//! a dedicated binary); this suite asserts through the engine's own
//! metrics, which are per-engine and race-free across tests.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{CpuTuneMode, GpuTuneMode, TuneTier};
use unit_graph::models::transformer_tiny;
use unit_graph::OpSpec;
use unit_serve::journal::store_records;
use unit_serve::{ArtifactError, ArtifactStore, Journal, JournalConfig, ServeEngine};

/// A fresh per-test directory holding one journal path.
fn journal_path(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("unit-serve-artifact-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal")
}

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 4 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// Persist `store` as a journal at `path`.
fn save(store: &ArtifactStore, path: &Path) {
    Journal::open(JournalConfig::at(path))
        .unwrap()
        .append(&store_records(store))
        .unwrap();
}

/// Attach the journal at `path` to `engine`.
fn attach(engine: &ServeEngine, path: &Path) -> Result<usize, ArtifactError> {
    engine.attach_journal(Arc::new(Journal::open(JournalConfig::at(path))?))
}

/// No cold compile ran on `engine` — every compile lookup was a cache
/// hit or an artifact replay, never an artifact miss.
fn assert_no_artifact_misses(engine: &ServeEngine, ctx: &str) {
    for tier in [TuneTier::Cold, TuneTier::Full] {
        assert_eq!(
            engine.metrics().cold_start(tier).count(),
            0,
            "{ctx}: {}",
            engine.metrics().render_prometheus()
        );
    }
    assert_eq!(engine.metrics().tuner_searches(), 0, "{ctx}");
}

#[test]
fn save_load_round_trip_reaches_full_artifact_hit_rate() {
    let graph = transformer_tiny();
    let cold = ServeEngine::new(tuning());
    let cold_report = cold.compile_model(&graph, "x86-avx512-vnni").unwrap();
    let path = journal_path("roundtrip");
    let exported = cold.export_artifacts();
    save(&exported, &path);

    let warm = ServeEngine::new(tuning());
    let restored = attach(&warm, &path).unwrap();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    assert!(restored > 0);
    assert_eq!(warm.export_artifacts().len(), exported.len());

    let warm_report = warm.compile_model(&graph, "x86-avx512-vnni").unwrap();
    assert_eq!(warm_report.total_ms, cold_report.total_ms);
    for (w, c) in warm_report.layers.iter().zip(&cold_report.layers) {
        assert_eq!(w.micros, c.micros, "layer {}", w.name);
        assert_eq!(w.note, c.note, "layer {}", w.name);
    }
    // Every compile lookup was answered by the store: the report path
    // is pure cache hits, so no artifact misses and no searches.
    assert_no_artifact_misses(&warm, "warm compile");
}

#[test]
fn partial_store_warms_partially_and_backfills() {
    let graph = transformer_tiny();
    let cold = ServeEngine::new(tuning());
    let _ = cold.compile_model(&graph, "arm-neon-dot").unwrap();
    let full = cold.export_artifacts();

    // Keep only half the entries.
    let entries = full.entries(&graph.name, "arm-neon-dot");
    assert!(entries.len() >= 4, "transformer has 5 unique GEMMs");
    let mut partial = ArtifactStore::new();
    for e in &entries[..entries.len() / 2] {
        partial.record(&graph.name, "arm-neon-dot", e.clone());
    }

    let warm = ServeEngine::new(tuning());
    warm.import_artifacts(partial);
    let report = warm.compile_model(&graph, "arm-neon-dot").unwrap();
    let reference = cold.compile_model(&graph, "arm-neon-dot").unwrap();
    assert_eq!(
        report.total_ms, reference.total_ms,
        "partial warm still exact"
    );
    // The missing half was compiled cold and recorded: exporting now
    // yields the full set again.
    let refilled = warm.export_artifacts();
    assert_eq!(
        refilled.entries(&graph.name, "arm-neon-dot").len(),
        entries.len()
    );
    assert!(
        warm.metrics().tuner_searches() > 0,
        "the missing half must have searched: {}",
        warm.metrics().render_prometheus()
    );
}

#[test]
fn stores_for_unserved_targets_are_kept_but_not_restored() {
    let cold = ServeEngine::new(tuning());
    let _ = cold
        .compile_model(&transformer_tiny(), "nvidia-tensor-core")
        .unwrap();
    let store = cold.export_artifacts();

    // An engine serving only x86 imports the nvidia store: nothing to
    // restore, nothing lost (re-export still carries the entries).
    let warm = ServeEngine::for_targets(tuning(), &["x86-avx512-vnni"]).unwrap();
    let n = store.len();
    assert_eq!(warm.import_artifacts(store), 0);
    assert_eq!(warm.export_artifacts().len(), n);
}

#[test]
fn load_rejects_bad_files_with_typed_errors() {
    let cold = ServeEngine::new(tuning());
    let _ = cold
        .compile_model(&transformer_tiny(), "x86-avx512-vnni")
        .unwrap();
    let path = journal_path("reject");
    save(&cold.export_artifacts(), &path);
    let good = std::fs::read_to_string(&path).unwrap();
    let engine = ServeEngine::new(tuning());
    let attach_text = |text: &str| {
        std::fs::write(&path, text).unwrap();
        attach(&engine, &path)
    };

    // Version bump.
    assert!(matches!(
        attach_text(&good.replacen(" v3 ", " v9 ", 1)),
        Err(ArtifactError::UnsupportedVersion { .. })
    ));
    // Truncation: the header line itself is cut.
    assert!(matches!(
        attach_text(&good[..10]),
        Err(ArtifactError::Truncated { .. })
    ));
    // Corruption: flip one byte inside a complete record (a note
    // character); the record's checksum catches it.
    let tampered = good.replacen("vpdpbusd", "vpdpbusq", 1);
    assert_ne!(tampered, good);
    assert!(matches!(
        attach_text(&tampered),
        Err(ArtifactError::Corrupt { .. })
    ));
    // A journal under a missing directory is an Io error, not a panic.
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    assert!(matches!(attach(&engine, &path), Err(ArtifactError::Io(_))));
    // Nothing was imported by any rejected attach.
    assert!(engine.export_artifacts().is_empty());
}

#[test]
fn torn_on_disk_store_recovers_and_warms_the_engine() {
    // A crash mid-append leaves a torn final line. Populate a journal
    // through an attached engine — the model's decisions first, then one
    // unrelated request's decision as the final `put` — and cut it at
    // every byte offset inside that final line.
    let graph = transformer_tiny();
    let target = "x86-avx512-vnni";
    let path = journal_path("torn");
    let cold = ServeEngine::new(tuning());
    attach(&cold, &path).unwrap();
    let cold_report = cold.compile_model(&graph, target).unwrap();
    cold.execute("late-request", target, OpSpec::gemm(8, 8, 24), 1)
        .unwrap();
    let full = cold.export_artifacts();
    let text = std::fs::read_to_string(&path).unwrap();
    let final_line = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    assert!(
        text[final_line..].contains(" late-request|"),
        "the final put is the late request's: {}",
        &text[final_line..]
    );
    let earlier = full.len() - 1;

    for cut in final_line..text.len() {
        let ctx = format!("cut at byte {cut}");
        std::fs::write(&path, &text[..cut]).unwrap();
        let warm = ServeEngine::new(tuning());
        // Every earlier entry is restored; the torn one is dropped.
        let restored = attach(&warm, &path).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(restored, earlier, "{ctx}");
        let recovered = warm.export_artifacts();
        assert_eq!(recovered.len(), earlier, "{ctx}");
        assert!(
            recovered.entries("late-request", target).is_empty(),
            "{ctx}"
        );
        for e in recovered.entries(&graph.name, target) {
            let orig = full
                .lookup(&graph.name, target, &e.workload, e.tuning)
                .unwrap_or_else(|| panic!("{ctx}: recovered entry not in the original"));
            assert_eq!(e, orig, "{ctx}");
        }
        // The recovered journal warms the model with zero searches.
        let warm_report = warm.compile_model(&graph, target).unwrap();
        assert_eq!(warm_report.total_ms, cold_report.total_ms, "{ctx}");
        assert_no_artifact_misses(&warm, &ctx);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
