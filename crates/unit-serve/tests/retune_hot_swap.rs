//! Tiered hot-swap across the fleet journal (ISSUE 8 acceptance): a
//! replica that tailed a peer's *cold-tier* decision later tails the
//! peer's full-tier re-tune and hot-swaps the upgraded kernel in
//! **search-free** — the peer already paid the search, the tailing
//! replica only replays the journaled replay config — while every
//! response stays bit-identical across tiers and replicas.
//!
//! This binary holds exactly one test: the search assertions read the
//! process-global counters in `unit_core::tuner::stats`, so they must
//! not share a process with unrelated tuner traffic.

use std::sync::Arc;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{tuner_searches, CpuTuneMode, GpuTuneMode, TuneTier};
use unit_graph::OpSpec;
use unit_serve::{Journal, JournalConfig, ServeEngine};

#[test]
fn replica_tails_a_peer_retune_and_hot_swaps_search_free() {
    let tuning = TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 16 },
        gpu: GpuTuneMode::Tuned,
    };
    let target = "x86-avx512-vnni";
    let op = OpSpec::gemm(24, 16, 32);
    let dir = std::env::temp_dir().join(format!("unit-retune-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal");

    // --- Replica A: tiered; serves the novel workload cold and
    // journals the cold-tier decision. ---
    let a = ServeEngine::new(tuning).with_tiered_cold_start();
    let journal_a = Arc::new(Journal::open(JournalConfig::at(&path)).unwrap());
    a.attach_journal(Arc::clone(&journal_a)).unwrap();
    let a_cold = a.execute("m", target, op, 11).unwrap();
    assert_eq!(a_cold.tier, TuneTier::Cold);

    // --- Replica B: attaches to the same journal, replays the cold
    // decision search-free, and serves the same bits cold. ---
    let b = ServeEngine::new(tuning).with_tiered_cold_start();
    let journal_b = Arc::new(Journal::open(JournalConfig::at(&path)).unwrap());
    assert!(b.attach_journal(Arc::clone(&journal_b)).unwrap() > 0);
    let searches_before = tuner_searches();
    let b_cold = b.execute("m", target, op, 11).unwrap();
    assert_eq!(b_cold.tier, TuneTier::Cold);
    assert_eq!(b_cold.output, a_cold.output, "cold bits diverged");
    assert_eq!(
        tuner_searches(),
        searches_before,
        "replaying a journaled cold decision must be search-free"
    );

    // --- Replica A re-tunes in the background (this is the search) and
    // journals the full-tier upgrade. ---
    assert_eq!(a.run_pending_retunes(), 1);
    assert_eq!(a.execute("m", target, op, 11).unwrap().tier, TuneTier::Full);

    // --- Replica B tails the upgrade: the full-tier kernel is rebuilt
    // from the journaled replay config — zero additional searches — and
    // hot-swapped into B's exec cache. ---
    let searches_before = tuner_searches();
    let tailed = b.sync_journal().unwrap();
    assert!(tailed > 0, "A's re-tune must reach B through the journal");
    assert_eq!(
        tuner_searches(),
        searches_before,
        "tailing a peer's re-tune must be search-free"
    );
    assert!(
        b.metrics().retune_swaps() >= 1,
        "B must count the peer swap:\n{}",
        b.metrics().render_prometheus()
    );
    let b_hot = b.execute("m", target, op, 11).unwrap();
    assert_eq!(b_hot.tier, TuneTier::Full);
    assert_eq!(
        b_hot.output, a_cold.output,
        "bits must be identical across tiers and replicas"
    );

    std::fs::remove_dir_all(&dir).ok();
}
