#ifndef TPGNN_WORKLOAD_SOAK_H_
#define TPGNN_WORKLOAD_SOAK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "workload/generator.h"

// Invariant-checked soak harness (DESIGN.md §4.9): streams a generated
// workload through a live InferenceEngine — optionally with failpoints
// armed — and continuously asserts the properties a long-running server
// must hold:
//
//   * Exact accounting. At every checkpoint (after a Flush, so no score is
//     in flight): sessions_begun == sessions_ended + sessions_evicted +
//     resident_sessions. Holds bit-exactly through overload shedding,
//     eviction churn, and injected Begin/enqueue faults.
//   * Bounded memory. Once the warmup phase has populated the caches, the
//     buffer-pool peak, the summed fold-scratch peak, and the process RSS
//     high-water mark may not grow beyond a declared slack over their
//     warmup baselines — monotone growth is a leak, caught while it is
//     still megabytes.
//   * Latency SLOs. Declared p99 bounds over the engine's score/e2e/ingest
//     histograms.
//   * Bitwise parity. A deterministic sample of sessions is re-scored
//     offline at checkpoints: the serving logit of every sampled completed
//     score must equal the model's offline forward over the materialized
//     edge prefix, bit for bit.
//
// Violations are collected (not thrown) so a run reports every broken
// invariant; SoakReport::ok() is the single pass/fail bit.

namespace tpgnn::workload {

// p99 latency ceilings in microseconds over the whole run; 0 disables the
// corresponding check.
struct SoakSlos {
  double ingest_p99_us = 0.0;
  double score_p99_us = 0.0;
  double e2e_p99_us = 0.0;
};

struct SoakOptions {
  WorkloadOptions workload;
  serve::EngineOptions engine;
  core::TpGnnConfig config;
  uint64_t model_seed = 7;

  // Unbounded workloads (workload.num_sessions == 0) run until BOTH
  // min_sessions have begun AND min_wall_seconds have elapsed; bounded
  // workloads run to stream exhaustion.
  uint64_t min_sessions = 0;
  double min_wall_seconds = 0.0;

  // Checkpoint cadence in ingested events.
  uint64_t checkpoint_every_events = 200000;
  // Events before the memory baselines are captured; bound checks apply
  // only to checkpoints after warmup.
  uint64_t warmup_events = 100000;
  // Allowed growth of each high-water mark over its warmup baseline:
  // limit = baseline * (1 + slack) + headroom. The relative slack scales
  // with the workload; the absolute headroom absorbs small post-warmup
  // ramp (scoring-concurrency peaks, allocator noise) that a percentage of
  // a tiny baseline cannot. A real leak grows without bound and crosses
  // any fixed headroom within the run.
  double pool_slack = 0.30;
  double arena_slack = 0.30;
  double rss_slack = 0.30;
  uint64_t pool_headroom_bytes = 1ull << 20;    // 1 MiB
  uint64_t arena_headroom_bytes = 256ull << 10;  // 256 KiB
  uint64_t rss_headroom_kb = 32768;              // 32 MiB

  SoakSlos slos;

  // Fraction of sessions whose scores are re-verified offline (0 disables
  // parity checking). Sampling is a pure function of the session id.
  double parity_sample_rate = 1.0 / 64.0;
  // Bounded-memory guards on the parity machinery: at most this many
  // sampled sessions tracked at once, and at most this many offline
  // re-scores per checkpoint (excess completed scores are dropped and
  // counted, never silently).
  size_t max_tracked_parity_sessions = 4096;
  size_t max_parity_checks_per_checkpoint = 64;

  // Ingest retries when the engine reports kOverloaded (each retry drains a
  // ProcessPending batch first). Exhausted retries shed the event.
  int max_overload_retries = 64;

  // TPGNN_FAILPOINTS-grammar spec armed for the run ("" = none) and its
  // deterministic schedule seed.
  std::string failpoint_spec;
  uint64_t failpoint_seed = 1;

  // Invoked after every checkpoint (progress reporting); may be empty.
  std::function<void(const struct SoakCheckpoint&)> on_checkpoint;
};

struct SoakCheckpoint {
  uint64_t events = 0;
  uint64_t sessions_begun = 0;
  uint64_t scores_completed = 0;
  uint64_t resident_sessions = 0;
  uint64_t pool_bytes_peak = 0;
  uint64_t arena_bytes_peak = 0;
  uint64_t rss_peak_kb = 0;
  double wall_seconds = 0.0;
  uint64_t parity_checks = 0;      // Cumulative.
  uint64_t parity_mismatches = 0;  // Cumulative.
  uint64_t violations = 0;         // Cumulative.
};

struct SoakReport {
  // One human-readable line per broken invariant, in detection order.
  std::vector<std::string> violations;
  std::vector<SoakCheckpoint> checkpoints;

  uint64_t events = 0;
  uint64_t sessions_started = 0;
  uint64_t scores_completed = 0;
  uint64_t scores_failed = 0;
  // Events dropped after exhausting overload retries, and events rejected
  // with a non-retryable status (injected faults, post-shed kNotFound).
  uint64_t events_shed = 0;
  uint64_t events_rejected = 0;
  uint64_t failpoint_fires = 0;

  uint64_t parity_checks = 0;
  uint64_t parity_mismatches = 0;
  // Sampled scores dropped by the parity-machinery memory bounds.
  uint64_t parity_skipped = 0;

  double wall_seconds = 0.0;
  serve::MetricsSnapshot final_metrics;

  bool ok() const { return violations.empty(); }
};

// Runs the soak to completion. Installs the failpoint spec on entry and
// clears all failpoints on exit.
SoakReport RunSoak(const SoakOptions& options);

}  // namespace tpgnn::workload

#endif  // TPGNN_WORKLOAD_SOAK_H_
