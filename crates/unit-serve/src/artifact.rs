//! The compiled-artifact store and its entry encoding.
//!
//! An [`ArtifactStore`] maps `(model id, target id)` to the list of
//! compiled-kernel decisions that model needs on that target: for every
//! [`KernelCacheKey`]-shaped workload, the tuning config it was compiled
//! under, the **search-free replay config** that rebuilds the identical
//! kernel (`CpuTuneMode::Fixed` at the searched winner /
//! `GpuTuneMode::Generic`), the modeled latency and the provider note.
//! A warm start restores these into the engine's caches and performs
//! *zero* tuner searches — the contract `tests/warm_start_zero_search.rs`
//! asserts through `unit_core::tuner::stats`.
//!
//! The store is in-memory only. Its one on-disk form is the
//! [`crate::journal`]: every entry persists as a checksummed `put`
//! record whose payload is this module's entry encoding.
//!
//! # Entry encoding
//!
//! The vendored `serde` is a no-op stub, so the encoding is hand-rolled
//! text, one entry per line:
//!
//! ```text
//! <workload>|<tuning>|<replay>|<f64-bits-hex16>|[tier=<tier>|]<note>
//! ```
//!
//! * `<workload>` is [`CacheWorkload::encode`], `<tuning>`/`<replay>` are
//!   [`TuningConfig::encode`] — the sub-encodings owned by `unit-graph`
//!   and `unit-core` respectively.
//! * Latency is persisted as the raw IEEE-754 bit pattern (16 hex
//!   digits) so micros round-trip *bit-exactly*; a decimal rendering
//!   would silently perturb warm-start latency reports.
//! * The optional `tier=<tier>|` marker ([`TuneTier::encode`]) says
//!   which tuning tier compiled the entry. Full-tier entries — the
//!   terminal state — omit it, so **absent means full tier**. A field
//!   starting with `tier=` that is not a valid marker is rejected
//!   (provider notes never start with `tier=`).
//! * The note is the last field and may contain anything but newlines
//!   (including `|`).
//!
//! Model and target ids must not contain `|` or newlines ([`ArtifactStore::record`]
//! panics on such ids rather than persisting an unparseable record).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::TuneTier;
use unit_graph::compile::KernelCache;
use unit_graph::{CacheWorkload, KernelCacheKey};

use crate::journal::JOURNAL_FORMAT_VERSION;

/// Typed artifact-persistence errors; every malformed journal is
/// rejected with one of these (never a panic).
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure while loading/saving.
    Io(std::io::Error),
    /// The header line names a format this build does not understand.
    UnsupportedVersion {
        /// The header line found in the file.
        found: String,
    },
    /// The file ends before its header line is complete.
    Truncated {
        /// What was missing.
        reason: String,
    },
    /// A complete line failed to parse or its checksum disagrees.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact journal I/O: {e}"),
            ArtifactError::UnsupportedVersion { found } => {
                write!(f, "unsupported artifact journal header `{found}` (expected `{JOURNAL_FORMAT_VERSION} gen <n>`)")
            }
            ArtifactError::Truncated { reason } => {
                write!(f, "truncated artifact journal: {reason}")
            }
            ArtifactError::Corrupt { line, reason } => {
                write!(f, "corrupt artifact journal at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

/// One persisted compiled-kernel decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactEntry {
    /// The workload identity (conv / grouped conv / GEMM / dense).
    pub workload: CacheWorkload,
    /// The tuning config the kernel was compiled under — together with
    /// the workload and target id this reconstructs the [`KernelCacheKey`].
    pub tuning: TuningConfig,
    /// The search-free config that rebuilds the identical kernel.
    pub replay: TuningConfig,
    /// Modeled latency in microseconds (bit-exact round-trip).
    pub micros: f64,
    /// The tuning tier that compiled this entry: [`TuneTier::Cold`]
    /// entries are provisional (a background re-tune owes them a
    /// full-tier upgrade), [`TuneTier::Full`] entries are terminal.
    pub tier: TuneTier,
    /// Provider note (chosen schedule / fallback reason).
    pub note: String,
}

/// The compiled-artifact store: a sorted two-level map
/// `model id -> target id -> entries`, sorted so journal compaction
/// writes it in canonical order (same contents, same bytes), two-level so
/// [`ArtifactStore::lookup`] — which the serving engine calls on the
/// request hot path under its artifacts mutex — allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ArtifactStore {
    models: BTreeMap<String, BTreeMap<String, Vec<ArtifactEntry>>>,
}

impl ArtifactStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Record one entry for `(model, target)`, replacing any previous
    /// entry with the same workload + tuning identity.
    ///
    /// # Panics
    ///
    /// Panics when `model` or `target` is empty or contains `|` or a
    /// newline (such ids would persist an unparseable record; the serving
    /// engine rejects them with a typed error before reaching here).
    pub fn record(&mut self, model: &str, target: &str, entry: ArtifactEntry) {
        for id in [model, target] {
            assert!(
                !id.is_empty() && !id.contains('|') && !id.contains('\n'),
                "artifact ids must be non-empty and free of `|`/newlines: {id:?}"
            );
        }
        let entries = self
            .models
            .entry(model.to_string())
            .or_default()
            .entry(target.to_string())
            .or_default();
        match entries
            .iter_mut()
            .find(|e| e.workload == entry.workload && e.tuning == entry.tuning)
        {
            Some(slot) => *slot = entry,
            None => entries.push(entry),
        }
    }

    /// The entry for a workload compiled under `tuning`, if persisted.
    #[must_use]
    pub fn lookup(
        &self,
        model: &str,
        target: &str,
        workload: &CacheWorkload,
        tuning: TuningConfig,
    ) -> Option<&ArtifactEntry> {
        self.models
            .get(model)
            .and_then(|targets| targets.get(target))
            .and_then(|entries| {
                entries
                    .iter()
                    .find(|e| e.workload == *workload && e.tuning == tuning)
            })
    }

    /// All entries for a `(model, target)` pair (empty when unknown).
    #[must_use]
    pub fn entries(&self, model: &str, target: &str) -> &[ArtifactEntry] {
        self.models
            .get(model)
            .and_then(|targets| targets.get(target))
            .map_or(&[], Vec::as_slice)
    }

    /// Every persisted `(model, target)` pair, in canonical order.
    #[must_use]
    pub fn model_targets(&self) -> Vec<(String, String)> {
        self.models
            .iter()
            .flat_map(|(model, targets)| {
                targets
                    .keys()
                    .map(move |target| (model.clone(), target.clone()))
            })
            .collect()
    }

    /// Total entries across all models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restore every entry of `(model, target)` into a kernel (latency)
    /// cache — `unit_graph::compile::compile_model_with_artifacts` then
    /// reports from the cache without ever invoking the tuner. Existing
    /// cache entries win (first-insert-wins), matching the cache's
    /// consistency contract. Returns how many entries were inserted.
    pub fn restore_latency_cache(&self, model: &str, target: &str, cache: &KernelCache) -> usize {
        cache.restore(self.entries(model, target).iter().map(|e| {
            (
                KernelCacheKey::new(e.workload, target, e.tuning),
                (e.micros, e.note.clone()),
            )
        }))
    }

    /// Record `entry` only if it *upgrades* the store: inserted when the
    /// identity is absent or the incumbent entry sits at a strictly
    /// lower tier; ties and downgrades keep the incumbent. Returns
    /// whether the entry landed. This is the merge primitive the fleet
    /// needs — a cold-tier record tailed from a slow peer must never
    /// clobber a local full-tier decision.
    ///
    /// # Panics
    ///
    /// As [`ArtifactStore::record`], on invalid ids.
    pub fn absorb(&mut self, model: &str, target: &str, entry: ArtifactEntry) -> bool {
        match self.lookup(model, target, &entry.workload, entry.tuning) {
            Some(incumbent) if incumbent.tier >= entry.tier => false,
            _ => {
                self.record(model, target, entry);
                true
            }
        }
    }

    /// Merge another store into this one. Per same-identity entry the
    /// **higher tier wins**; on a tie the incumbent is kept (see
    /// [`ArtifactStore::absorb`]) — merging is how journal tails and
    /// store imports land, and neither may downgrade a hot-swapped
    /// full-tier kernel back to its cold ancestor.
    pub fn merge(&mut self, other: ArtifactStore) {
        for (model, targets) in other.models {
            for (target, entries) in targets {
                for entry in entries {
                    self.absorb(&model, &target, entry);
                }
            }
        }
    }

    /// Drop every entry for `target` across all models (the journal's
    /// retired-target GC). Returns how many entries were removed.
    pub fn retire_target(&mut self, target: &str) -> usize {
        let mut removed = 0;
        self.models.retain(|_, targets| {
            if let Some(entries) = targets.remove(target) {
                removed += entries.len();
            }
            !targets.is_empty()
        });
        removed
    }
}

/// Render one entry's payload fields —
/// `workload|tuning|replay|f64-bits-hex16|[tier=<tier>|]note` — the
/// payload of the journal's `put` records. Full-tier entries omit the
/// tier marker, so only transient cold entries carry one (and absent
/// decodes as full).
pub(crate) fn encode_entry_fields(e: &ArtifactEntry) -> String {
    let tier = match e.tier {
        TuneTier::Full => String::new(),
        tier => format!("tier={tier}|"),
    };
    format!(
        "{}|{}|{}|{:016x}|{tier}{}",
        e.workload.encode(),
        e.tuning.encode(),
        e.replay.encode(),
        e.micros.to_bits(),
        e.note
    )
}

/// Parse the [`encode_entry_fields`] payload. Errors are plain strings;
/// callers wrap them with their own line/position context.
pub(crate) fn decode_entry_fields(s: &str) -> Result<ArtifactEntry, String> {
    let mut parts = s.splitn(5, '|');
    let workload = parts.next().ok_or("missing workload")?;
    let tuning = parts.next().ok_or("missing tuning config")?;
    let replay = parts.next().ok_or("missing replay config")?;
    let bits = parts.next().ok_or("missing latency bits")?;
    let rest = parts.next().ok_or("missing note field")?;
    let workload = CacheWorkload::decode(workload)?;
    let tuning = TuningConfig::decode(tuning)?;
    let replay = TuningConfig::decode(replay)?;
    if bits.len() != 16 {
        return Err("latency bits must be 16 hex digits".to_string());
    }
    let micros = f64::from_bits(
        u64::from_str_radix(bits, 16).map_err(|e| format!("bad latency bits: {e}"))?,
    );
    if !micros.is_finite() || micros < 0.0 {
        return Err("latency must be finite and non-negative".to_string());
    }
    // Sniff the optional tier marker. Absent = full tier. A field that
    // is a *torn* marker — `tier=co`, or any proper prefix like `tie` —
    // is damage, not a note: provider notes never spell a tier marker,
    // and accepting the fragment as a note would silently mislabel a
    // cold entry as full.
    let (tier, note) = match rest.strip_prefix("tier=") {
        None => {
            if !rest.is_empty()
                && ("tier=cold|".starts_with(rest) || "tier=full|".starts_with(rest))
            {
                return Err("torn tier marker".to_string());
            }
            (TuneTier::Full, rest)
        }
        Some(marked) => {
            let (tier, note) = marked
                .split_once('|')
                .ok_or("unterminated tier marker (missing `|`)")?;
            (TuneTier::decode(tier)?, note)
        }
    };
    Ok(ArtifactEntry {
        workload,
        tuning,
        replay,
        micros,
        tier,
        note: note.to_string(),
    })
}

/// The sibling temp path an atomic write of `path` stages through
/// (pid-suffixed so concurrent processes saving the same path never
/// clobber each other's staging file).
pub(crate) fn save_temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the target, then best-effort `fsync` of the
/// parent directory so the rename itself is durable. The journal's
/// create and compaction rewrites go through here.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = save_temp_path(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync makes the rename durable; failure here
            // (e.g. an fs that cannot open directories) is not fatal.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// FNV-1a 64-bit: tiny, dependency-free, good enough to catch flipped
/// bits and truncated/edited records (not a cryptographic signature).
/// The journal's per-record checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{fold_records, store_records, Journal, JournalConfig, JournalRecord};
    use std::path::PathBuf;
    use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
    use unit_graph::OpSpec;

    fn sample_store() -> ArtifactStore {
        let tuning = TuningConfig::default();
        let replay = TuningConfig {
            cpu: CpuTuneMode::Fixed {
                par: 3000,
                unroll: 16,
            },
            gpu: GpuTuneMode::Generic,
        };
        let mut store = ArtifactStore::new();
        store.record(
            "resnet-18",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::conv2d(64, 14, 64, 3, 1, 1)),
                tuning,
                replay,
                micros: 123.456789,
                tier: TuneTier::Full,
                note: "llvm.x86.avx512.vpdpbusd.512 [parallel<3000,unroll<16]".to_string(),
            },
        );
        store.record(
            "resnet-18",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Dense {
                    in_features: 512,
                    units: 1000,
                },
                tuning,
                replay,
                micros: 17.25,
                tier: TuneTier::Full,
                note: String::new(),
            },
        );
        store.record(
            "transformer-tiny",
            "nvidia-tensor-core",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::batched_gemm(4, 64, 64, 32)),
                tuning,
                replay: TuningConfig {
                    cpu: CpuTuneMode::ParallelUnroll,
                    gpu: GpuTuneMode::Generic,
                },
                micros: 0.1 + 0.2, // deliberately non-representable exactly
                tier: TuneTier::Full,
                note: "wmma [p=2,fuse=false,splitK=1]".to_string(),
            },
        );
        store
    }

    /// Every entry of `store`, with its `(model, target)`.
    fn all_entries(store: &ArtifactStore) -> Vec<&ArtifactEntry> {
        store
            .model_targets()
            .into_iter()
            .flat_map(|(m, t)| store.entries(&m, &t).iter())
            .collect()
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let store = sample_store();
        for e in all_entries(&store) {
            let text = encode_entry_fields(e);
            let back = decode_entry_fields(&text).unwrap();
            assert_eq!(&back, e);
            // Canonical: encoding the decoded entry reproduces the bytes.
            assert_eq!(encode_entry_fields(&back), text);
        }
        // Bit-exact latency: 0.1 + 0.2 != 0.3 must survive.
        let e = &store.entries("transformer-tiny", "nvidia-tensor-core")[0];
        let back = decode_entry_fields(&encode_entry_fields(e)).unwrap();
        assert_eq!(back.micros.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn record_replaces_same_identity_entries() {
        let mut store = sample_store();
        let n = store.len();
        let tuning = TuningConfig::default();
        store.record(
            "resnet-18",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::conv2d(64, 14, 64, 3, 1, 1)),
                tuning,
                replay: tuning,
                micros: 99.0,
                tier: TuneTier::Full,
                note: "updated".to_string(),
            },
        );
        assert_eq!(store.len(), n, "same identity replaces, not appends");
        let got = store
            .lookup(
                "resnet-18",
                "x86-avx512-vnni",
                &CacheWorkload::Op(OpSpec::conv2d(64, 14, 64, 3, 1, 1)),
                tuning,
            )
            .unwrap();
        assert_eq!(got.note, "updated");
    }

    #[test]
    #[should_panic(expected = "artifact ids")]
    fn pipe_in_model_id_is_rejected() {
        let tuning = TuningConfig::default();
        ArtifactStore::new().record(
            "bad|id",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
                tuning,
                replay: tuning,
                micros: 1.0,
                tier: TuneTier::Full,
                note: String::new(),
            },
        );
    }

    #[test]
    fn save_is_atomic_under_a_simulated_mid_save_crash() {
        // Journal compaction — the atomic rewrite's remaining caller —
        // stages the new bytes through a sibling temp file and lands
        // them via rename: a crash before the rename leaves the previous
        // journal byte-identical and strictly loadable.
        let dir = std::env::temp_dir().join(format!("unit-atomic-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal");
        let old = sample_store();
        let journal = Journal::open(JournalConfig::at(&path)).unwrap();
        journal.append(&store_records(&old)).unwrap();
        journal.compact().unwrap();
        assert!(
            !save_temp_path(&path).exists(),
            "a completed compaction leaves no staging file behind"
        );
        let before = std::fs::read_to_string(&path).unwrap();

        // Simulate the crash: a rewrite that died after writing half its
        // temp file and never reached the rename.
        std::fs::write(save_temp_path(&path), &before[..before.len() / 2]).unwrap();

        // The journal at `path` is untouched and opens strictly.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let back = Journal::open(JournalConfig::at(&path))
            .expect("old journal survives the crash intact")
            .snapshot()
            .unwrap();
        assert_eq!(all_entries(&back), all_entries(&old));

        // A subsequent completed compaction replaces it and cleans up
        // the staging file.
        let extra = ArtifactEntry {
            workload: CacheWorkload::Op(OpSpec::gemm(32, 32, 32)),
            tuning: TuningConfig::default(),
            replay: TuningConfig::default(),
            micros: 3.5,
            tier: TuneTier::Full,
            note: "late arrival".to_string(),
        };
        let mut bigger = old.clone();
        bigger.record("extra-model", "x86-avx512-vnni", extra);
        journal.append(&store_records(&bigger)).unwrap();
        journal.compact().unwrap();
        assert!(!save_temp_path(&path).exists());
        let back = Journal::open(JournalConfig::at(&path))
            .unwrap()
            .snapshot()
            .unwrap();
        assert_eq!(all_entries(&back), all_entries(&bigger));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `store` persisted as a fresh journal — the store's one on-disk
    /// form — in its own temp directory. Returns the directory, the
    /// journal path and the journal's bytes.
    fn persisted(tag: &str, store: &ArtifactStore) -> (PathBuf, PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("unit-artifact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal");
        Journal::open(JournalConfig::at(&path))
            .unwrap()
            .append(&store_records(store))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        (dir, path, text)
    }

    /// Write `text` over the journal at `path`, then open it strictly
    /// and fold it back into a store.
    fn reopen(path: &Path, text: &str) -> Result<ArtifactStore, ArtifactError> {
        std::fs::write(path, text).unwrap();
        Journal::open(JournalConfig::at(path))?.snapshot()
    }

    /// A `put` line whose checksum matches its payload, so only the
    /// field-level validation can reject it.
    fn signed_put(payload: &str) -> String {
        format!("put {:016x} {payload}\n", fnv1a(payload.as_bytes()))
    }

    /// The sample store's conv entry, the one every damage test edits.
    fn conv_entry(store: &ArtifactStore) -> &ArtifactEntry {
        &store.entries("resnet-18", "x86-avx512-vnni")[0]
    }

    #[test]
    fn version_bump_is_rejected_with_a_typed_error() {
        // A journal under any other header — a newer version, an unknown
        // one, or a file of the deleted standalone store format — is
        // rejected with the header it carries, and left byte-identical.
        let (dir, path, text) = persisted("version", &sample_store());
        let body = &text[text.find('\n').unwrap() + 1..];
        for header in [
            "unit-artifact-journal v4 gen 1",
            "unit-artifact-journal v99",
            "unit-artifact-store v1",
        ] {
            let bumped = format!("{header}\n{body}");
            match reopen(&path, &bumped) {
                Err(ArtifactError::UnsupportedVersion { found }) => assert_eq!(found, header),
                other => panic!("{header}: expected UnsupportedVersion, got {other:?}"),
            }
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                bumped,
                "{header}: a rejected journal is left untouched"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_rejected_with_a_typed_error() {
        let store = sample_store();
        let (dir, path, text) = persisted("truncation", &store);
        // A header without its newline — or no header at all — is
        // truncation: headers are written atomically, so this file was
        // never a journal of ours.
        let header = text.lines().next().unwrap();
        for cut in [&header[..header.len() / 2], header, ""] {
            assert!(
                matches!(reopen(&path, cut), Err(ArtifactError::Truncated { .. })),
                "{cut:?}"
            );
        }
        // An entry cut short after any of its fixed fields is rejected,
        // both by the entry decoder and, checksummed, by the journal.
        let e = conv_entry(&store);
        let fields = [
            e.workload.encode(),
            e.tuning.encode(),
            e.replay.encode(),
            format!("{:016x}", e.micros.to_bits()),
        ];
        let next_line = text.lines().count() + 1;
        for k in 1..=fields.len() {
            let short = fields[..k].join("|");
            assert!(decode_entry_fields(&short).is_err(), "{short}");
            let err = reopen(
                &path,
                &format!("{text}{}", signed_put(&format!("m|t|{short}"))),
            )
            .unwrap_err();
            assert!(
                matches!(err, ArtifactError::Corrupt { line, .. } if line == next_line),
                "{short}: {err:?}"
            );
        }
        // A journal that cannot even be created is an I/O error.
        assert!(matches!(
            Journal::open(JournalConfig::at(dir.join("missing").join("journal"))),
            Err(ArtifactError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_rejected_with_a_typed_error() {
        let store = sample_store();
        let (dir, path, text) = persisted("corruption", &store);
        let next_line = text.lines().count() + 1;
        let fields = encode_entry_fields(conv_entry(&store));
        // Field-level corruption under a valid checksum: an unknown
        // workload kind, a conv with a zero-sized kernel, bad latency
        // bits and a torn tier marker all fail to parse.
        for bad in [
            fields.replacen("conv:", "vonc:", 1),
            fields.replacen(":3:3:", ":0:3:", 1),
            fields.replacen(
                &format!("{:016x}", conv_entry(&store).micros.to_bits()),
                "zz",
                1,
            ),
            fields.replacen("|llvm", "|tier=co", 1),
        ] {
            assert_ne!(bad, fields, "the edit must land");
            let err = reopen(
                &path,
                &format!("{text}{}", signed_put(&format!("m|t|{bad}"))),
            )
            .unwrap_err();
            assert!(
                matches!(err, ArtifactError::Corrupt { line, .. } if line == next_line),
                "{bad}: {err:?}"
            );
        }
        // Silent edit: a tampered note still parses, but the record
        // checksum catches it.
        let tampered = text.replacen("wmma", "wmmb", 1);
        assert_ne!(tampered, text, "the fixture must contain a wmma note");
        match reopen(&path, &tampered) {
            Err(ArtifactError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected a checksum failure, got {other:?}"),
        }
        // A record of an unknown kind is corruption even when signed.
        let unknown = format!("{text}add {:016x} x\n", fnv1a(b"x"));
        assert!(matches!(
            reopen(&path, &unknown),
            Err(ArtifactError::Corrupt { line, .. }) if line == next_line
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chopping_the_final_record_recovers_at_every_byte_offset() {
        // A crash mid-append leaves the final `put` line torn. At every
        // cut inside it, a strict open succeeds, every earlier entry is
        // restored bit-exactly and only the torn one is lost; the next
        // append heals the tail, after which re-recording the lost entry
        // restores the whole store.
        let store = sample_store();
        let (dir, path, text) = persisted("chop", &store);
        let final_line = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let records = store_records(&store);
        let (lost, earlier) = records.split_last().unwrap();
        let expected = fold_records(earlier.to_vec());
        for cut in final_line..text.len() {
            let ctx = format!("cut at byte {cut}");
            let back = reopen(&path, &text[..cut]).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(back.len(), store.len() - 1, "{ctx}");
            assert_eq!(all_entries(&back), all_entries(&expected), "{ctx}");

            let journal = Journal::open(JournalConfig::at(&path)).unwrap();
            journal.append(std::slice::from_ref(lost)).unwrap();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                text,
                "{ctx}: healing truncates the fragment, then appends whole lines"
            );
            assert_eq!(
                all_entries(&journal.snapshot().unwrap()),
                all_entries(&store),
                "{ctx}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_still_rejects_mid_file_damage() {
        // Torn-tail tolerance covers only the bytes after the last
        // newline: a damaged complete line is corruption even when more
        // records — or a torn tail — follow it, and no append heals it
        // away.
        let store = sample_store();
        let (dir, path, text) = persisted("mid-file", &store);
        let damaged = text.replacen("llvm.x86", "llvm.x87", 1);
        assert_ne!(damaged, text, "the fixture must contain an llvm note");
        let with_torn_tail = &damaged[..damaged.len() - 5];
        for bytes in [damaged.as_str(), with_torn_tail] {
            assert!(matches!(
                reopen(&path, bytes),
                Err(ArtifactError::Corrupt { line: 2, .. })
            ));
        }
        // A handle opened before the damage appends after it, but the
        // damaged line stays in place and the journal stays rejected.
        std::fs::write(&path, &text).unwrap();
        let journal = Journal::open(JournalConfig::at(&path)).unwrap();
        std::fs::write(&path, &damaged).unwrap();
        journal.append(&store_records(&store)[..1]).unwrap();
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with(&damaged));
        assert!(matches!(
            Journal::open(JournalConfig::at(&path)),
            Err(ArtifactError::Corrupt { line: 2, .. })
        ));
        // A stray line between the header and the records, likewise.
        let header = text.lines().next().unwrap();
        let stray = text.replacen(&format!("{header}\n"), &format!("{header}\ngarbage\n"), 1);
        assert!(matches!(
            reopen(&path, &stray),
            Err(ArtifactError::Corrupt { line: 2, .. })
        ));
        // An unsupported header is never recovered, torn tail or not.
        let bumped = text.replacen(JOURNAL_FORMAT_VERSION, "unit-artifact-journal v4", 1);
        assert!(matches!(
            reopen(&path, &bumped[..bumped.len() - 3]),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_files_recover_as_clean() {
        // A journal with no torn tail opens without being touched, folds
        // back to the exact store, and an append truncates none of it.
        let store = sample_store();
        let (dir, path, text) = persisted("clean", &store);
        let journal = Journal::open(JournalConfig::at(&path)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert_eq!(
            all_entries(&journal.snapshot().unwrap()),
            all_entries(&store)
        );
        let extra = tiered_entry(TuneTier::Cold, "appended");
        journal
            .append(&[JournalRecord::Put {
                model: "m".to_string(),
                target: "t".to_string(),
                entry: Box::new(extra.clone()),
            }])
            .unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with(&text));
        let back = journal.snapshot().unwrap();
        assert_eq!(back.len(), store.len() + 1);
        assert_eq!(back.entries("m", "t"), [extra]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retire_target_drops_every_model_entry_for_it() {
        let mut store = sample_store();
        let total = store.len();
        let vnni: usize = store
            .model_targets()
            .iter()
            .filter(|(_, t)| t == "x86-avx512-vnni")
            .map(|(m, t)| store.entries(m, t).len())
            .sum();
        assert!(vnni > 0);
        let removed = store.retire_target("x86-avx512-vnni");
        assert_eq!(removed, vnni);
        assert_eq!(store.len(), total - vnni);
        assert!(store.entries("resnet-18", "x86-avx512-vnni").is_empty());
        // Other targets are untouched.
        assert!(!store
            .entries("transformer-tiny", "nvidia-tensor-core")
            .is_empty());
        assert_eq!(store.retire_target("x86-avx512-vnni"), 0, "idempotent");
    }

    fn tiered_entry(tier: TuneTier, note: &str) -> ArtifactEntry {
        ArtifactEntry {
            workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
            tuning: TuningConfig::default(),
            replay: TuningConfig {
                cpu: CpuTuneMode::Fixed { par: 64, unroll: 4 },
                gpu: GpuTuneMode::Generic,
            },
            micros: 42.5,
            tier,
            note: note.to_string(),
        }
    }

    #[test]
    fn tiered_entries_round_trip_and_absent_tier_decodes_full() {
        let cold = tiered_entry(TuneTier::Cold, "cheap|pick");
        let text = encode_entry_fields(&cold);
        assert!(text.contains("|tier=cold|"), "{text}");
        assert_eq!(decode_entry_fields(&text).unwrap(), cold);

        // Absent marker = full tier: the terminal state stays implicit.
        let full = tiered_entry(TuneTier::Full, "final pick");
        let text = encode_entry_fields(&full);
        assert!(!text.contains("tier="), "full tier stays implicit: {text}");
        assert_eq!(decode_entry_fields(&text).unwrap().tier, TuneTier::Full);

        // Torn markers are damage, not notes.
        for bad in ["tier=co|x", "tier=cold", "tier=", "tie"] {
            let line = format!(
                "gemm:1:8:8:8|{t}|{t}|{:016x}|{bad}",
                42.5f64.to_bits(),
                t = TuningConfig::default().encode()
            );
            assert!(
                decode_entry_fields(&line).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn chopping_a_cold_record_recovers_or_drops_never_mislabels() {
        // Every prefix of a *cold* entry's encoding either decodes with
        // its tier intact (the chop landed in the note) or is rejected —
        // never a full-tier mislabel from a half-written `tier=cold|`
        // marker.
        let full = encode_entry_fields(&tiered_entry(TuneTier::Cold, "cold note"));
        // A chop at exactly the marker start leaves `…|<micros>|` — a
        // syntactically complete full-tier encoding with an empty note.
        // Undetectable by construction (the marker is what distinguishes
        // tiers), so that one offset is allowed to decode as
        // full/empty-note.
        let marker_start = full.rfind("|tier=cold|").unwrap() + 1;
        for cut in 0..=full.len() {
            match decode_entry_fields(&full[..cut]) {
                Err(_) => {}
                Ok(e) if cut == marker_start => {
                    assert_eq!(e.tier, TuneTier::Full, "cut at byte {cut}");
                    assert!(e.note.is_empty(), "cut at byte {cut}");
                }
                Ok(e) => {
                    assert_eq!(e.tier, TuneTier::Cold, "cut at byte {cut} mislabeled");
                    assert!("cold note".starts_with(&e.note), "cut at byte {cut}");
                }
            }
        }
    }

    #[test]
    fn merge_keeps_the_higher_tier_in_both_directions() {
        // Satellite regression: merge used to replace unconditionally,
        // so a tier-2 (cold) record tailed from a slow peer clobbered a
        // local tier-16 (full) entry.
        let cold = tiered_entry(TuneTier::Cold, "cheap");
        let full = tiered_entry(TuneTier::Full, "retuned");

        // Direction 1: cold incoming, full incumbent → incumbent wins.
        let mut local = ArtifactStore::new();
        local.record("m", "t", full.clone());
        let mut peer = ArtifactStore::new();
        peer.record("m", "t", cold.clone());
        local.merge(peer);
        assert_eq!(local.entries("m", "t"), std::slice::from_ref(&full));

        // Direction 2: full incoming, cold incumbent → upgrade lands.
        let mut local = ArtifactStore::new();
        local.record("m", "t", cold.clone());
        let mut peer = ArtifactStore::new();
        peer.record("m", "t", full.clone());
        local.merge(peer);
        assert_eq!(local.entries("m", "t"), std::slice::from_ref(&full));

        // Tie goes to the incumbent.
        let mut local = ArtifactStore::new();
        local.record("m", "t", tiered_entry(TuneTier::Full, "incumbent"));
        let mut peer = ArtifactStore::new();
        peer.record("m", "t", tiered_entry(TuneTier::Full, "challenger"));
        local.merge(peer);
        assert_eq!(local.entries("m", "t")[0].note, "incumbent");

        // And absorb reports whether the entry landed.
        let mut store = ArtifactStore::new();
        assert!(store.absorb("m", "t", cold.clone()));
        assert!(!store.absorb("m", "t", cold.clone()), "tie → incumbent");
        assert!(store.absorb("m", "t", full.clone()), "upgrade lands");
        assert!(!store.absorb("m", "t", cold), "downgrade refused");
        assert_eq!(store.entries("m", "t"), &[full]);
    }

    #[test]
    fn notes_may_contain_pipes() {
        let tuning = TuningConfig::default();
        let entry = ArtifactEntry {
            workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
            tuning,
            replay: tuning,
            micros: 2.5,
            tier: TuneTier::Full,
            note: "a|b|c".to_string(),
        };
        let back = decode_entry_fields(&encode_entry_fields(&entry)).unwrap();
        assert_eq!(back.note, "a|b|c");
    }
}
