//! Serving metrics: counters, gauges and a fixed-bucket latency
//! histogram, rendered as deterministic **Prometheus text exposition**
//! ([`ServeMetrics::render_prometheus`]) so tests (and scrapers) can
//! assert on the exact output. Tests read single values through the
//! typed accessors.
//!
//! Everything is lock-free atomics — the scheduler's worker threads
//! record into one shared registry without contending on a mutex — with
//! one exception: the **hot-pair table** (per-`(model, target)` request
//! counts, the re-tune worker's priority signal) is a small sorted map
//! behind its own mutex, touched once per request. The histogram trades
//! precision for determinism: latencies are counted into fixed bucket
//! bounds and quantiles report the *upper bound* of the bucket
//! containing the requested rank, so p50/p95/p99 are exact functions of
//! the recorded counts (no interpolation, no sampling).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use unit_core::tuner::TuneTier;

/// Histogram bucket upper bounds in microseconds (the last bucket is an
/// unbounded overflow). Spanning 1 us .. 1 s covers everything from a
/// cache-hit GEMM on a warm engine to a cold whole-model compile.
pub const LATENCY_BUCKETS_US: [u64; 19] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000,
];

/// Maximum `(model, target)` pairs the hot-pair table tracks. Past the
/// cap the coldest entry (fewest requests, ties by key) is evicted, so
/// adversarial model-id churn cannot grow the table without bound.
pub const HOT_PAIR_CAPACITY: usize = 256;

/// The serving metrics registry. One instance per engine; shared with
/// the scheduler and its workers via `Arc`.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    kernel_hits: AtomicU64,
    kernel_misses: AtomicU64,
    tuner_searches: AtomicU64,
    tape_compiles: AtomicU64,
    tape_dispatches: AtomicU64,
    tape_fused_requests: AtomicU64,
    epilogue_fused_kernels: AtomicU64,
    epilogue_ops_eliminated: AtomicU64,
    dispatcher_wakes: AtomicU64,
    journal_appends: AtomicU64,
    journal_tailed_records: AtomicU64,
    journal_compactions: AtomicU64,
    journal_errors: AtomicU64,
    http_requests: AtomicU64,
    http_errors: AtomicU64,
    retune_queued: AtomicU64,
    retune_completed: AtomicU64,
    retune_swaps: AtomicU64,
    tape_ops_retired: AtomicU64,
    tape_guard_checks: AtomicU64,
    tape_intrin_dispatches: AtomicU64,
    traces_recorded: AtomicU64,
    trace_dropped: AtomicU64,
    hot_pairs_evicted: AtomicU64,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    service: LatencyHistogram,
    cold_start_cold: LatencyHistogram,
    cold_start_full: LatencyHistogram,
    hot_pairs: Mutex<BTreeMap<(String, String), u64>>,
}

/// Fixed-bucket latency histogram (see [`LATENCY_BUCKETS_US`]).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Count one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values, microseconds (Prometheus `_sum`).
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The quantile `p` (in `[0, 1]`) as the upper bound of the bucket
    /// holding that rank, or `None` when nothing was recorded. Overflow
    /// observations report `None`-like saturation as `u64::MAX`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

impl ServeMetrics {
    /// A zeroed registry.
    #[must_use]
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// A request was admitted to the queue.
    pub fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Roll back a [`ServeMetrics::record_submit`] whose enqueue failed
    /// (queue full on `try_submit`, or shutdown).
    pub fn record_unsubmit(&self) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request was rejected at admission (queue full / unknown target).
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A batch of `size` requests was handed to a worker.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// A request finished (successfully or not) after `queue_wait` in
    /// the queue and `service` executing. End-to-end latency (the
    /// historical histogram) is their sum; the split histograms let a
    /// p99 regression be attributed to queueing vs. execution.
    pub fn record_completion(&self, queue_wait: Duration, service: Duration, ok: bool) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let wait_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
        let service_us = u64::try_from(service.as_micros()).unwrap_or(u64::MAX);
        self.latency.record(wait_us.saturating_add(service_us));
        self.queue_wait.record(wait_us);
        self.service.record(service_us);
    }

    /// The artifact store had a replayable entry for a compile.
    pub fn record_artifact_hit(&self) {
        self.artifact_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The artifact store had no entry; a cold compile was needed.
    pub fn record_artifact_miss(&self) {
        self.artifact_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// The in-memory executable-kernel cache served a compile.
    pub fn record_kernel_hit(&self) {
        self.kernel_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The in-memory executable-kernel cache missed.
    pub fn record_kernel_miss(&self) {
        self.kernel_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A compile actually searched the tuning space (cold, multi-candidate).
    pub fn record_tuner_search(&self) {
        self.tuner_searches.fetch_add(1, Ordering::Relaxed);
    }

    /// A kernel was lowered to an instruction tape (tape-cache miss).
    pub fn record_tape_compile(&self) {
        self.tape_compiles.fetch_add(1, Ordering::Relaxed);
    }

    /// One tape execution served `requests` requests (`1` for an
    /// unfused dispatch, more when a worker fused a same-shape GEMM
    /// batch into a single batched-GEMM tape run).
    pub fn record_tape_dispatch(&self, requests: usize) {
        self.tape_dispatches.fetch_add(1, Ordering::Relaxed);
        if requests > 1 {
            self.tape_fused_requests
                .fetch_add(requests as u64, Ordering::Relaxed);
        }
    }

    /// A kernel carrying a fused epilogue chain of `ops` ops was built
    /// for the engine: its bias/ReLU/residual/requantize/softmax/
    /// layernorm steps execute inside the kernel dispatch instead of as
    /// per-op interpreter passes.
    pub fn record_epilogue_fusion(&self, ops: usize) {
        self.epilogue_fused_kernels.fetch_add(1, Ordering::Relaxed);
        self.epilogue_ops_eliminated
            .fetch_add(ops as u64, Ordering::Relaxed);
    }

    /// The scheduler's dispatcher thread woke up to form a batch
    /// window. On an idle scheduler this stays flat — the dispatcher
    /// blocks on `recv` rather than spinning — which
    /// `scheduler::tests` asserts as the no-busy-spin proxy.
    pub fn record_dispatcher_wake(&self) {
        self.dispatcher_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// A tuning decision was appended to the shared journal.
    pub fn record_journal_append(&self) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// `records` journal records from other replicas were tailed and
    /// applied to this engine's caches.
    pub fn record_journal_tailed(&self, records: u64) {
        self.journal_tailed_records
            .fetch_add(records, Ordering::Relaxed);
    }

    /// A journal compaction ran (triggered by this replica).
    pub fn record_journal_compaction(&self) {
        self.journal_compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// A journal operation failed; serving continued on in-memory state.
    pub fn record_journal_error(&self) {
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The HTTP front-end accepted and parsed a request.
    pub fn record_http_request(&self) {
        self.http_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The HTTP front-end answered with a non-2xx status.
    pub fn record_http_error(&self) {
        self.http_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A background re-tune job was enqueued (cold-tier artifact served;
    /// full-tier upgrade pending).
    pub fn record_retune_queued(&self) {
        self.retune_queued.fetch_add(1, Ordering::Relaxed);
    }

    /// A background re-tune job ran to completion (whether or not it
    /// produced a swap — the incumbent may already have been full-tier).
    pub fn record_retune_completed(&self) {
        self.retune_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A completed re-tune atomically swapped a cold-tier kernel for its
    /// full-tier replacement (artifact entry + exec-cache slot together).
    pub fn record_retune_swap(&self) {
        self.retune_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// A cold compile finished after `latency` at `tier`. Feeds the
    /// tier-split cold-start histograms — the observable for "cold-tier
    /// first responses are cheaper than full-tune first responses".
    pub fn record_cold_start(&self, tier: TuneTier, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.cold_start(tier).record(us);
    }

    /// One request arrived for `(model, target)` — bumps the hot-pair
    /// table the re-tune worker uses to prioritise upgrades. The table
    /// is bounded at [`HOT_PAIR_CAPACITY`]: past the cap the coldest
    /// entry (fewest requests, ties broken by key order) is evicted, so
    /// per-request adversarial model ids cannot grow it without bound.
    pub fn record_request_pair(&self, model: &str, target: &str) {
        let mut pairs = lock_recovering(&self.hot_pairs);
        *pairs
            .entry((model.to_string(), target.to_string()))
            .or_insert(0) += 1;
        if pairs.len() > HOT_PAIR_CAPACITY {
            let coldest = pairs
                .iter()
                .min_by_key(|(key, &count)| (count, (*key).clone()))
                .map(|(key, _)| key.clone());
            if let Some(key) = coldest {
                pairs.remove(&key);
                self.hot_pairs_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One tape execution retired `ops` instructions, evaluated `guards`
    /// residue-guard conditions and ran `intrins` tensorized dispatches
    /// (deltas from `unit_interp::tape::TapeProfile`).
    pub fn record_tape_profile(&self, ops: u64, guards: u64, intrins: u64) {
        self.tape_ops_retired.fetch_add(ops, Ordering::Relaxed);
        self.tape_guard_checks.fetch_add(guards, Ordering::Relaxed);
        self.tape_intrin_dispatches
            .fetch_add(intrins, Ordering::Relaxed);
    }

    /// A request trace finished; `dropped` when publishing it overflowed
    /// the trace ring (see `trace::TraceCollector::finish`).
    pub fn record_trace(&self, dropped: bool) {
        self.traces_recorded.fetch_add(1, Ordering::Relaxed);
        if dropped {
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Completed requests (successful only).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Failed requests.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Requests rejected at admission.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Current queue depth (admitted, not yet completed).
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Artifact-store hit rate over all compile lookups (0 when none).
    #[must_use]
    pub fn artifact_hit_rate(&self) -> f64 {
        rate(
            self.artifact_hits.load(Ordering::Relaxed),
            self.artifact_misses.load(Ordering::Relaxed),
        )
    }

    /// Executable-kernel cache hit rate (0 when no lookups).
    #[must_use]
    pub fn kernel_hit_rate(&self) -> f64 {
        rate(
            self.kernel_hits.load(Ordering::Relaxed),
            self.kernel_misses.load(Ordering::Relaxed),
        )
    }

    /// Tuner searches triggered by cold compiles.
    #[must_use]
    pub fn tuner_searches(&self) -> u64 {
        self.tuner_searches.load(Ordering::Relaxed)
    }

    /// Kernels lowered to instruction tapes (tape-cache misses).
    #[must_use]
    pub fn tape_compiles(&self) -> u64 {
        self.tape_compiles.load(Ordering::Relaxed)
    }

    /// Tape executions. With batch fusion this is *less* than the
    /// request count: a fused batch of N requests is one dispatch.
    #[must_use]
    pub fn tape_dispatches(&self) -> u64 {
        self.tape_dispatches.load(Ordering::Relaxed)
    }

    /// Requests served through fused (multi-request) tape dispatches.
    #[must_use]
    pub fn tape_fused_requests(&self) -> u64 {
        self.tape_fused_requests.load(Ordering::Relaxed)
    }

    /// Kernels built with a fused epilogue chain.
    #[must_use]
    pub fn epilogue_fused_kernels(&self) -> u64 {
        self.epilogue_fused_kernels.load(Ordering::Relaxed)
    }

    /// Epilogue ops executing inside kernel dispatches (summed over
    /// fused kernels) instead of as per-op interpreter passes.
    #[must_use]
    pub fn epilogue_ops_eliminated(&self) -> u64 {
        self.epilogue_ops_eliminated.load(Ordering::Relaxed)
    }

    /// Dispatcher batch-window wake-ups.
    #[must_use]
    pub fn dispatcher_wakes(&self) -> u64 {
        self.dispatcher_wakes.load(Ordering::Relaxed)
    }

    /// Tuning decisions appended to the shared journal.
    #[must_use]
    pub fn journal_appends(&self) -> u64 {
        self.journal_appends.load(Ordering::Relaxed)
    }

    /// Journal records tailed from other replicas and applied here.
    #[must_use]
    pub fn journal_tailed_records(&self) -> u64 {
        self.journal_tailed_records.load(Ordering::Relaxed)
    }

    /// Journal compactions this replica triggered.
    #[must_use]
    pub fn journal_compactions(&self) -> u64 {
        self.journal_compactions.load(Ordering::Relaxed)
    }

    /// Failed journal operations (serving continued without them).
    #[must_use]
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// HTTP requests accepted and parsed by the front-end.
    #[must_use]
    pub fn http_requests(&self) -> u64 {
        self.http_requests.load(Ordering::Relaxed)
    }

    /// HTTP responses with a non-2xx status.
    #[must_use]
    pub fn http_errors(&self) -> u64 {
        self.http_errors.load(Ordering::Relaxed)
    }

    /// Background re-tune jobs enqueued.
    #[must_use]
    pub fn retune_queued(&self) -> u64 {
        self.retune_queued.load(Ordering::Relaxed)
    }

    /// Background re-tune jobs that ran to completion.
    #[must_use]
    pub fn retune_completed(&self) -> u64 {
        self.retune_completed.load(Ordering::Relaxed)
    }

    /// Completed re-tunes that hot-swapped a cold-tier kernel.
    #[must_use]
    pub fn retune_swaps(&self) -> u64 {
        self.retune_swaps.load(Ordering::Relaxed)
    }

    /// Requests recorded against `(model, target)` in the hot-pair table.
    #[must_use]
    pub fn hot_pair_requests(&self, model: &str, target: &str) -> u64 {
        lock_recovering(&self.hot_pairs)
            .get(&(model.to_string(), target.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// The end-to-end (queue + service) latency histogram.
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The queue-wait latency histogram (admission to batch receipt).
    #[must_use]
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    /// The service-time histogram (batch receipt to reply).
    #[must_use]
    pub fn service(&self) -> &LatencyHistogram {
        &self.service
    }

    /// Tape instructions retired across all dispatches.
    #[must_use]
    pub fn tape_ops_retired(&self) -> u64 {
        self.tape_ops_retired.load(Ordering::Relaxed)
    }

    /// Run-time residue-guard checks across all dispatches.
    #[must_use]
    pub fn tape_guard_checks(&self) -> u64 {
        self.tape_guard_checks.load(Ordering::Relaxed)
    }

    /// Tensorized-intrinsic dispatches across all tape runs.
    #[must_use]
    pub fn tape_intrin_dispatches(&self) -> u64 {
        self.tape_intrin_dispatches.load(Ordering::Relaxed)
    }

    /// Request traces finished.
    #[must_use]
    pub fn traces_recorded(&self) -> u64 {
        self.traces_recorded.load(Ordering::Relaxed)
    }

    /// Request traces dropped on trace-ring overflow.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// Hot-pair entries evicted by the [`HOT_PAIR_CAPACITY`] bound.
    #[must_use]
    pub fn hot_pairs_evicted(&self) -> u64 {
        self.hot_pairs_evicted.load(Ordering::Relaxed)
    }

    /// Currently tracked hot-pair entries (bounded by
    /// [`HOT_PAIR_CAPACITY`]).
    #[must_use]
    pub fn hot_pairs_tracked(&self) -> usize {
        lock_recovering(&self.hot_pairs).len()
    }

    /// The cold-start (first compile) latency histogram for `tier`.
    #[must_use]
    pub fn cold_start(&self, tier: TuneTier) -> &LatencyHistogram {
        match tier {
            TuneTier::Cold => &self.cold_start_cold,
            TuneTier::Full => &self.cold_start_full,
        }
    }

    /// Successful requests per second over `elapsed` wall clock.
    #[must_use]
    pub fn throughput_rps(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// Prometheus text exposition (`GET /metrics`): the whole registry
    /// in the standard `# TYPE` / `_bucket{le=...}` / `_sum` / `_count`
    /// shape, all metric names under the `unit_serve_` namespace. The
    /// output is deterministic for a given set of recorded values.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut counter = |name: &str, v: u64| {
            out.push_str(&format!(
                "# TYPE unit_serve_{name} counter\nunit_serve_{name} {v}\n"
            ));
        };
        counter("requests_submitted", load(&self.submitted));
        counter("requests_rejected", load(&self.rejected));
        counter("requests_completed", load(&self.completed));
        counter("requests_failed", load(&self.failed));
        counter("batches_executed", load(&self.batches));
        counter("batched_requests", load(&self.batched_requests));
        counter("artifact_hits", load(&self.artifact_hits));
        counter("artifact_misses", load(&self.artifact_misses));
        counter("kernel_cache_hits", load(&self.kernel_hits));
        counter("kernel_cache_misses", load(&self.kernel_misses));
        counter("tuner_searches", load(&self.tuner_searches));
        counter("tape_compiles", load(&self.tape_compiles));
        counter("tape_dispatches", load(&self.tape_dispatches));
        counter("tape_fused_requests", load(&self.tape_fused_requests));
        counter("tape_ops_retired", load(&self.tape_ops_retired));
        counter("tape_guard_checks", load(&self.tape_guard_checks));
        counter("tape_intrin_dispatches", load(&self.tape_intrin_dispatches));
        counter("epilogue_fused_kernels", load(&self.epilogue_fused_kernels));
        counter(
            "epilogue_ops_eliminated",
            load(&self.epilogue_ops_eliminated),
        );
        counter("dispatcher_wakes", load(&self.dispatcher_wakes));
        counter("journal_appends", load(&self.journal_appends));
        counter("journal_tailed_records", load(&self.journal_tailed_records));
        counter("journal_compactions", load(&self.journal_compactions));
        counter("journal_errors", load(&self.journal_errors));
        counter("http_requests", load(&self.http_requests));
        counter("http_errors", load(&self.http_errors));
        counter("retune_queued", load(&self.retune_queued));
        counter("retune_completed", load(&self.retune_completed));
        counter("retune_swaps", load(&self.retune_swaps));
        counter("traces_recorded", load(&self.traces_recorded));
        counter("trace_dropped", load(&self.trace_dropped));
        counter("hot_pairs_evicted", load(&self.hot_pairs_evicted));
        let mut gauge = |name: &str, v: u64| {
            out.push_str(&format!(
                "# TYPE unit_serve_{name} gauge\nunit_serve_{name} {v}\n"
            ));
        };
        gauge("queue_depth", load(&self.queue_depth));
        gauge("queue_depth_peak", load(&self.queue_depth_peak));
        gauge(
            "hot_pairs_tracked",
            lock_recovering(&self.hot_pairs).len() as u64,
        );
        let mut hist = |name: &str, h: &LatencyHistogram| {
            out.push_str(&format!("# TYPE unit_serve_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "unit_serve_{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            cumulative += h.buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "unit_serve_{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!("unit_serve_{name}_sum {}\n", h.sum_us()));
            out.push_str(&format!("unit_serve_{name}_count {cumulative}\n"));
        };
        hist("request_latency_us", &self.latency);
        hist("queue_wait_us", &self.queue_wait);
        hist("service_us", &self.service);
        hist("cold_start_cold_tier_us", &self.cold_start_cold);
        hist("cold_start_full_tier_us", &self.cold_start_full);
        out
    }
}

/// Lock a mutex, recovering the data if a panicking holder poisoned it.
/// Metrics are monotone counters — a half-applied bump is still valid.
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 90 fast (<= 100us), 9 medium (<= 1000us), 1 slow (<= 10ms).
        for _ in 0..90 {
            h.record(73);
        }
        for _ in 0..9 {
            h.record(800);
        }
        h.record(9_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), Some(100));
        assert_eq!(h.quantile(0.90), Some(100));
        assert_eq!(h.quantile(0.95), Some(1_000));
        assert_eq!(h.quantile(0.99), Some(1_000));
        assert_eq!(h.quantile(1.0), Some(10_000));
    }

    #[test]
    fn overflow_bucket_saturates() {
        let h = LatencyHistogram::default();
        h.record(5_000_000);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_quantile_at_any_p() {
        let h = LatencyHistogram::default();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), None, "p={p}");
        }
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn all_samples_in_the_overflow_bucket() {
        let h = LatencyHistogram::default();
        let top = LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1];
        for _ in 0..100 {
            h.record(top + 1);
        }
        // Every quantile saturates to u64::MAX — including the extremes.
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), Some(u64::MAX), "p={p}");
        }
        // The saturation renders into the `+Inf` bucket only, not a
        // fake finite bound.
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_completion(Duration::ZERO, Duration::from_secs(5), true);
        let text = m.render_prometheus();
        assert!(text.contains(&format!(
            "unit_serve_request_latency_us_bucket{{le=\"{top}\"}} 0\n"
        )));
        assert!(text.contains("unit_serve_request_latency_us_bucket{le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn p0_and_p1_hit_the_exact_bounds() {
        let h = LatencyHistogram::default();
        h.record(1); // first bucket (bound 1)
        h.record(600_000); // second-to-last bucket (bound 1_000_000)
                           // p=0.0: rank clamps to 1, the *first* recorded observation —
                           // never a phantom rank-0 below every sample.
        assert_eq!(h.quantile(0.0), Some(1));
        // p=1.0: rank = total, the last observation's bucket bound.
        assert_eq!(h.quantile(1.0), Some(1_000_000));
        // Both are exact bucket upper bounds, monotone in p.
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
        // A single-sample histogram answers the same bound for every p.
        let single = LatencyHistogram::default();
        single.record(42);
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(single.quantile(p), Some(50), "p={p}");
        }
    }

    #[test]
    fn render_is_stable_and_deterministic() {
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_submit();
        m.record_batch(2);
        m.record_kernel_miss();
        m.record_artifact_miss();
        m.record_tuner_search();
        m.record_completion(Duration::from_micros(10), Duration::from_micros(30), true);
        m.record_kernel_hit();
        m.record_completion(Duration::from_micros(40), Duration::from_micros(50), true);
        m.record_tape_compile();
        m.record_tape_dispatch(1);
        m.record_tape_dispatch(2);
        m.record_tape_profile(120, 4, 6);
        m.record_tape_profile(30, 2, 2);
        m.record_trace(false);
        m.record_trace(true);
        m.record_epilogue_fusion(3);
        m.record_epilogue_fusion(2);
        m.record_dispatcher_wake();
        m.record_journal_append();
        m.record_journal_tailed(3);
        m.record_journal_compaction();
        m.record_http_request();
        m.record_http_request();
        m.record_http_error();
        m.record_retune_queued();
        m.record_retune_queued();
        m.record_retune_completed();
        m.record_retune_swap();
        m.record_cold_start(TuneTier::Cold, Duration::from_micros(40));
        m.record_cold_start(TuneTier::Full, Duration::from_micros(900));
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("attention", "cpu");
        let text = m.render_prometheus();
        assert_eq!(m.render_prometheus(), text, "rendering twice is identical");
        // Every recorded value lands on its own series.
        for (name, value) in [
            ("requests_submitted", 2),
            ("requests_rejected", 0),
            ("requests_completed", 2),
            ("requests_failed", 0),
            ("batches_executed", 1),
            ("batched_requests", 2),
            ("artifact_hits", 0),
            ("artifact_misses", 1),
            ("kernel_cache_hits", 1),
            ("kernel_cache_misses", 1),
            ("tuner_searches", 1),
            ("tape_compiles", 1),
            ("tape_dispatches", 2),
            ("tape_fused_requests", 2),
            ("tape_ops_retired", 150),
            ("tape_guard_checks", 6),
            ("tape_intrin_dispatches", 8),
            ("epilogue_fused_kernels", 2),
            ("epilogue_ops_eliminated", 5),
            ("dispatcher_wakes", 1),
            ("journal_appends", 1),
            ("journal_tailed_records", 3),
            ("journal_compactions", 1),
            ("journal_errors", 0),
            ("http_requests", 2),
            ("http_errors", 1),
            ("retune_queued", 2),
            ("retune_completed", 1),
            ("retune_swaps", 1),
            ("traces_recorded", 2),
            ("trace_dropped", 1),
            ("hot_pairs_evicted", 0),
            ("queue_depth", 0),
            ("queue_depth_peak", 2),
            ("hot_pairs_tracked", 2),
            ("request_latency_us_count", 2),
            ("request_latency_us_sum", 130),
            ("queue_wait_us_sum", 50),
            ("service_us_sum", 80),
            ("cold_start_cold_tier_us_count", 1),
            ("cold_start_full_tier_us_count", 1),
        ] {
            let line = format!("\nunit_serve_{name} {value}\n");
            assert!(
                text.contains(&line),
                "missing `{}` in:\n{text}",
                line.trim()
            );
        }
        // Bucket placement: the 900 us full-tier cold start is in the
        // 1000 us bucket and not below it.
        assert!(text.contains("unit_serve_cold_start_full_tier_us_bucket{le=\"500\"} 0\n"));
        assert!(text.contains("unit_serve_cold_start_full_tier_us_bucket{le=\"1000\"} 1\n"));
        // The derived rates agree with the raw counters.
        assert!((m.kernel_hit_rate() - 0.5).abs() < f64::EPSILON);
        assert!(m.artifact_hit_rate().abs() < f64::EPSILON);
        assert_eq!(m.latency().quantile(0.5), Some(50));
    }

    #[test]
    fn hot_pair_table_counts_per_model_target() {
        let m = ServeMetrics::new();
        assert_eq!(m.hot_pair_requests("convnet", "cpu"), 0);
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("convnet", "gpu:0");
        assert_eq!(m.hot_pair_requests("convnet", "cpu"), 2);
        assert_eq!(m.hot_pair_requests("convnet", "gpu:0"), 1);
        assert_eq!(m.hot_pair_requests("attention", "cpu"), 0);
    }

    #[test]
    fn hot_pair_table_is_bounded_with_coldest_eviction() {
        let m = ServeMetrics::new();
        // A genuinely hot pair, then an adversarial flood of unique ids.
        for _ in 0..50 {
            m.record_request_pair("hot-model", "cpu");
        }
        for i in 0..(HOT_PAIR_CAPACITY + 40) {
            m.record_request_pair(&format!("adversarial-{i:04}"), "cpu");
        }
        assert!(
            m.hot_pairs_tracked() <= HOT_PAIR_CAPACITY,
            "table stays bounded: {} > {}",
            m.hot_pairs_tracked(),
            HOT_PAIR_CAPACITY
        );
        assert!(
            m.hot_pairs_evicted() >= 40,
            "flood must evict: {}",
            m.hot_pairs_evicted()
        );
        // Evict-coldest: the hot pair survives the flood of count-1 ids.
        assert_eq!(m.hot_pair_requests("hot-model", "cpu"), 50);
        let render = m.render_prometheus();
        assert!(render.contains(&format!(
            "unit_serve_hot_pairs_evicted {}\n",
            m.hot_pairs_evicted()
        )));
    }

    #[test]
    fn queue_wait_and_service_histograms_split_the_latency() {
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_completion(Duration::from_micros(400), Duration::from_micros(20), true);
        assert_eq!(m.queue_wait().count(), 1);
        assert_eq!(m.service().count(), 1);
        assert_eq!(m.queue_wait().quantile(0.5), Some(500));
        assert_eq!(m.service().quantile(0.5), Some(25));
        // End-to-end stays the sum of the parts.
        assert_eq!(m.latency().quantile(0.5), Some(500));
        assert_eq!(m.latency().sum_us(), 420);
    }

    #[test]
    fn prometheus_exposition_is_golden() {
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_completion(Duration::from_micros(10), Duration::from_micros(30), true);
        let text = m.render_prometheus();
        let expected = "\
# TYPE unit_serve_requests_submitted counter
unit_serve_requests_submitted 1
# TYPE unit_serve_requests_rejected counter
unit_serve_requests_rejected 0
# TYPE unit_serve_requests_completed counter
unit_serve_requests_completed 1
# TYPE unit_serve_requests_failed counter
unit_serve_requests_failed 0
# TYPE unit_serve_batches_executed counter
unit_serve_batches_executed 0
# TYPE unit_serve_batched_requests counter
unit_serve_batched_requests 0
# TYPE unit_serve_artifact_hits counter
unit_serve_artifact_hits 0
# TYPE unit_serve_artifact_misses counter
unit_serve_artifact_misses 0
# TYPE unit_serve_kernel_cache_hits counter
unit_serve_kernel_cache_hits 0
# TYPE unit_serve_kernel_cache_misses counter
unit_serve_kernel_cache_misses 0
# TYPE unit_serve_tuner_searches counter
unit_serve_tuner_searches 0
# TYPE unit_serve_tape_compiles counter
unit_serve_tape_compiles 0
# TYPE unit_serve_tape_dispatches counter
unit_serve_tape_dispatches 0
# TYPE unit_serve_tape_fused_requests counter
unit_serve_tape_fused_requests 0
# TYPE unit_serve_tape_ops_retired counter
unit_serve_tape_ops_retired 0
# TYPE unit_serve_tape_guard_checks counter
unit_serve_tape_guard_checks 0
# TYPE unit_serve_tape_intrin_dispatches counter
unit_serve_tape_intrin_dispatches 0
# TYPE unit_serve_epilogue_fused_kernels counter
unit_serve_epilogue_fused_kernels 0
# TYPE unit_serve_epilogue_ops_eliminated counter
unit_serve_epilogue_ops_eliminated 0
# TYPE unit_serve_dispatcher_wakes counter
unit_serve_dispatcher_wakes 0
# TYPE unit_serve_journal_appends counter
unit_serve_journal_appends 0
# TYPE unit_serve_journal_tailed_records counter
unit_serve_journal_tailed_records 0
# TYPE unit_serve_journal_compactions counter
unit_serve_journal_compactions 0
# TYPE unit_serve_journal_errors counter
unit_serve_journal_errors 0
# TYPE unit_serve_http_requests counter
unit_serve_http_requests 0
# TYPE unit_serve_http_errors counter
unit_serve_http_errors 0
# TYPE unit_serve_retune_queued counter
unit_serve_retune_queued 0
# TYPE unit_serve_retune_completed counter
unit_serve_retune_completed 0
# TYPE unit_serve_retune_swaps counter
unit_serve_retune_swaps 0
# TYPE unit_serve_traces_recorded counter
unit_serve_traces_recorded 0
# TYPE unit_serve_trace_dropped counter
unit_serve_trace_dropped 0
# TYPE unit_serve_hot_pairs_evicted counter
unit_serve_hot_pairs_evicted 0
# TYPE unit_serve_queue_depth gauge
unit_serve_queue_depth 0
# TYPE unit_serve_queue_depth_peak gauge
unit_serve_queue_depth_peak 1
# TYPE unit_serve_hot_pairs_tracked gauge
unit_serve_hot_pairs_tracked 0
# TYPE unit_serve_request_latency_us histogram
unit_serve_request_latency_us_bucket{le=\"1\"} 0
unit_serve_request_latency_us_bucket{le=\"2\"} 0
unit_serve_request_latency_us_bucket{le=\"5\"} 0
unit_serve_request_latency_us_bucket{le=\"10\"} 0
unit_serve_request_latency_us_bucket{le=\"25\"} 0
unit_serve_request_latency_us_bucket{le=\"50\"} 1
unit_serve_request_latency_us_bucket{le=\"100\"} 1
unit_serve_request_latency_us_bucket{le=\"250\"} 1
unit_serve_request_latency_us_bucket{le=\"500\"} 1
unit_serve_request_latency_us_bucket{le=\"1000\"} 1
unit_serve_request_latency_us_bucket{le=\"2500\"} 1
unit_serve_request_latency_us_bucket{le=\"5000\"} 1
unit_serve_request_latency_us_bucket{le=\"10000\"} 1
unit_serve_request_latency_us_bucket{le=\"25000\"} 1
unit_serve_request_latency_us_bucket{le=\"50000\"} 1
unit_serve_request_latency_us_bucket{le=\"100000\"} 1
unit_serve_request_latency_us_bucket{le=\"250000\"} 1
unit_serve_request_latency_us_bucket{le=\"500000\"} 1
unit_serve_request_latency_us_bucket{le=\"1000000\"} 1
unit_serve_request_latency_us_bucket{le=\"+Inf\"} 1
unit_serve_request_latency_us_sum 40
unit_serve_request_latency_us_count 1
# TYPE unit_serve_queue_wait_us histogram
unit_serve_queue_wait_us_bucket{le=\"1\"} 0
unit_serve_queue_wait_us_bucket{le=\"2\"} 0
unit_serve_queue_wait_us_bucket{le=\"5\"} 0
unit_serve_queue_wait_us_bucket{le=\"10\"} 1
unit_serve_queue_wait_us_bucket{le=\"25\"} 1
unit_serve_queue_wait_us_bucket{le=\"50\"} 1
unit_serve_queue_wait_us_bucket{le=\"100\"} 1
unit_serve_queue_wait_us_bucket{le=\"250\"} 1
unit_serve_queue_wait_us_bucket{le=\"500\"} 1
unit_serve_queue_wait_us_bucket{le=\"1000\"} 1
unit_serve_queue_wait_us_bucket{le=\"2500\"} 1
unit_serve_queue_wait_us_bucket{le=\"5000\"} 1
unit_serve_queue_wait_us_bucket{le=\"10000\"} 1
unit_serve_queue_wait_us_bucket{le=\"25000\"} 1
unit_serve_queue_wait_us_bucket{le=\"50000\"} 1
unit_serve_queue_wait_us_bucket{le=\"100000\"} 1
unit_serve_queue_wait_us_bucket{le=\"250000\"} 1
unit_serve_queue_wait_us_bucket{le=\"500000\"} 1
unit_serve_queue_wait_us_bucket{le=\"1000000\"} 1
unit_serve_queue_wait_us_bucket{le=\"+Inf\"} 1
unit_serve_queue_wait_us_sum 10
unit_serve_queue_wait_us_count 1
# TYPE unit_serve_service_us histogram
unit_serve_service_us_bucket{le=\"1\"} 0
unit_serve_service_us_bucket{le=\"2\"} 0
unit_serve_service_us_bucket{le=\"5\"} 0
unit_serve_service_us_bucket{le=\"10\"} 0
unit_serve_service_us_bucket{le=\"25\"} 0
unit_serve_service_us_bucket{le=\"50\"} 1
unit_serve_service_us_bucket{le=\"100\"} 1
unit_serve_service_us_bucket{le=\"250\"} 1
unit_serve_service_us_bucket{le=\"500\"} 1
unit_serve_service_us_bucket{le=\"1000\"} 1
unit_serve_service_us_bucket{le=\"2500\"} 1
unit_serve_service_us_bucket{le=\"5000\"} 1
unit_serve_service_us_bucket{le=\"10000\"} 1
unit_serve_service_us_bucket{le=\"25000\"} 1
unit_serve_service_us_bucket{le=\"50000\"} 1
unit_serve_service_us_bucket{le=\"100000\"} 1
unit_serve_service_us_bucket{le=\"250000\"} 1
unit_serve_service_us_bucket{le=\"500000\"} 1
unit_serve_service_us_bucket{le=\"1000000\"} 1
unit_serve_service_us_bucket{le=\"+Inf\"} 1
unit_serve_service_us_sum 30
unit_serve_service_us_count 1
# TYPE unit_serve_cold_start_cold_tier_us histogram
unit_serve_cold_start_cold_tier_us_bucket{le=\"1\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"2\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"5\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"10\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"25\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"50\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"100\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"250\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"500\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"1000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"2500\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"5000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"10000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"25000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"50000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"100000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"250000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"500000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"1000000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"+Inf\"} 0
unit_serve_cold_start_cold_tier_us_sum 0
unit_serve_cold_start_cold_tier_us_count 0
# TYPE unit_serve_cold_start_full_tier_us histogram
unit_serve_cold_start_full_tier_us_bucket{le=\"1\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"2\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"5\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"10\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"25\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"50\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"100\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"250\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"500\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"1000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"2500\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"5000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"10000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"25000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"50000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"100000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"250000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"500000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"1000000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"+Inf\"} 0
unit_serve_cold_start_full_tier_us_sum 0
unit_serve_cold_start_full_tier_us_count 0
";
        assert_eq!(text, expected);
        assert_eq!(text, m.render_prometheus(), "exposition is deterministic");
    }

    #[test]
    fn cold_start_histograms_are_split_by_tier() {
        let m = ServeMetrics::new();
        m.record_cold_start(TuneTier::Cold, Duration::from_micros(3));
        m.record_cold_start(TuneTier::Cold, Duration::from_micros(4));
        m.record_cold_start(TuneTier::Full, Duration::from_micros(700));
        assert_eq!(m.cold_start(TuneTier::Cold).count(), 2);
        assert_eq!(m.cold_start(TuneTier::Full).count(), 1);
        assert_eq!(m.cold_start(TuneTier::Cold).quantile(0.5), Some(5));
        assert_eq!(m.cold_start(TuneTier::Full).quantile(0.5), Some(1_000));
    }

    #[test]
    fn throughput_is_completed_over_elapsed() {
        let m = ServeMetrics::new();
        for _ in 0..10 {
            m.record_submit();
            m.record_completion(Duration::from_micros(4), Duration::from_micros(6), true);
        }
        let rps = m.throughput_rps(Duration::from_secs(2));
        assert!((rps - 5.0).abs() < 1e-9);
        assert_eq!(m.throughput_rps(Duration::ZERO), 0.0);
    }
}
