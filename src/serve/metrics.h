#ifndef TPGNN_SERVE_METRICS_H_
#define TPGNN_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

// Serving telemetry: monotone counters plus fixed-bucket latency
// histograms. Everything is updated with relaxed atomics on the hot path
// and snapshotted without stopping traffic; a snapshot is internally
// consistent per counter (each is monotone) but not across counters, which
// is the usual contract for serving metrics.

// Every integer metric, in METRICS JSON order, as X(name, merge kind). One
// row declares the Metrics atomic (relaxed increments), the MetricsSnapshot
// field and its key under "counters"; Snapshot, ToJson, ParseMetricsJson
// and MergeFrom walk kCounterFields below, so a new metric is one row. kSum
// rows are flows and sum across processes; kMax rows are gauges, and a
// cluster's value is its worst single process.
#define TPGNN_SERVE_COUNTERS(X)                                               \
  X(events_ingested, kSum)                                                    \
  X(sessions_begun, kSum)                                                     \
  X(sessions_ended, kSum)                                                     \
  X(sessions_evicted, kSum)                                                   \
  /* Session migrations (cluster serving, DESIGN.md §4.7): snapshots handed   \
     out via SESSION_EXPORT and installed via SESSION_IMPORT                  \
     (SessionShard::ExportSession / ImportSession). */                        \
  X(sessions_exported, kSum)                                                  \
  X(sessions_imported, kSum)                                                  \
  X(edges_ingested, kSum)                                                     \
  X(scores_completed, kSum)                                                   \
  X(scores_failed, kSum)                                                      \
  X(overload_rejections, kSum)                                                \
  /* Admissions refused for a NaN or ±inf node feature or edge time           \
     (SessionShard::BeginSession, AddEdge, ImportSession). */                 \
  X(nonfinite_rejections, kSum)                                               \
  /* Folded session states discarded and rebuilt (time-normalization or       \
     out-of-order invalidation; see SessionShard). */                         \
  X(state_refolds, kSum)                                                      \
  /* Scores that absorbed a max-time move through the TimeBasis::kInvariant   \
     finalize-time correction instead of a refold (SessionShard; the O(1)     \
     counterpart of state_refolds). */                                        \
  X(state_rescales, kSum)                                                     \
  /* Model lifecycle (versioned registry, DESIGN.md §4.8, driven through      \
     InferenceEngine / SessionShard): checkpoint versions loaded, primary     \
     activations, sessions refolded onto a new version after an               \
     immediate-rebase swap or an A/B assignment change, and — the hot-swap    \
     safety gate, asserted zero by bench_swap and the chaos sweep — scores    \
     whose folded state mixed parameters from two versions. */                \
  X(model_loads, kSum)                                                        \
  X(model_activations, kSum)                                                  \
  X(version_rebases, kSum)                                                    \
  X(mixed_version_scores, kSum)                                               \
  /* Shadow scoring (never returned to clients): candidate re-scores of       \
     primary scores, off the client path, and failed shadow attempts. */      \
  X(shadow_scores, kSum)                                                      \
  X(shadow_failures, kSum)                                                    \
  /* Network front-end, maintained by net::Server (zero unless one drives     \
     the engine): wire bytes and frames each way, connection churn, and       \
     streams torn down for protocol violations (kDataLoss frames). */         \
  X(bytes_received, kSum)                                                     \
  X(bytes_sent, kSum)                                                         \
  X(frames_received, kSum)                                                    \
  X(frames_sent, kSum)                                                        \
  X(connections_accepted, kSum)                                               \
  X(connections_closed, kSum)                                                 \
  X(protocol_errors, kSum)                                                    \
  /* Process memory high-water marks (soak harness, DESIGN.md §4.9),          \
     written only by Metrics::UpdateResourcePeaks at checkpoint rate (never   \
     the per-event hot path), zero until its first probe: the buffer pool's   \
     live-bytes peak, its currently cached bytes, the summed fold-scratch     \
     peak (core::PropagationScratch bytes: one per shard plus one per offline \
     forward in flight), and the kernel's RSS high-water mark (VmHWM). Peaks  \
     are gauges, so they merge by max; cached bytes sum (parked per process). \
   */                                                                         \
  X(pool_bytes_peak, kMax)                                                    \
  X(pool_bytes_cached, kSum)                                                  \
  X(arena_bytes_peak, kMax)                                                   \
  X(rss_peak_kb, kMax)

// Latency distributions, all in microseconds, as X(field, key under
// "latency_us"), in METRICS JSON order.
#define TPGNN_SERVE_HISTOGRAMS(X)                                             \
  X(ingest_latency, "ingest") /* One Ingest(event) call. */                   \
  X(score_latency, "score")   /* The scoring computation. */                  \
  X(e2e_latency, "e2e")       /* Score enqueue -> result ready. */            \
  X(shadow_latency, "shadow") /* One shadow re-score (off hot path). */

namespace tpgnn::serve {

// Power-of-two-bucketed latency histogram over microseconds: bucket i
// counts samples in [2^i, 2^(i+1)) µs (bucket 0 is [0, 2)), the last
// bucket absorbs overflow. 26 buckets cover 1 µs .. ~33 s.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 26;

  void Record(double micros);

  struct Snapshot {
    uint64_t count = 0;
    double sum_micros = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double mean_micros() const { return count > 0 ? sum_micros / count : 0.0; }
    // Percentile estimate (q in [0, 1]): upper edge of the bucket where the
    // cumulative count crosses q * count; 0 when empty.
    double PercentileMicros(double q) const;
  };

  Snapshot Snap() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  // Sum in nanoseconds so the accumulator stays integral (atomic<double>
  // fetch_add is C++20 but emulated with a CAS loop on most targets).
  std::atomic<uint64_t> sum_nanos_{0};
};

struct MetricsSnapshot {
#define TPGNN_SERVE_FIELD(name, merge) uint64_t name = 0;
  TPGNN_SERVE_COUNTERS(TPGNN_SERVE_FIELD)
#undef TPGNN_SERVE_FIELD
  // Shadow logit divergence, the one block outside the tables: Metrics
  // keeps it as nanounits and raw double bits, and it merges as sum / max.
  double shadow_delta_sum = 0.0;  // Σ |primary_logit − shadow_logit|.
  double shadow_delta_max = 0.0;  // max |primary_logit − shadow_logit|.
#define TPGNN_SERVE_FIELD(field, key) LatencyHistogram::Snapshot field;
  TPGNN_SERVE_HISTOGRAMS(TPGNN_SERVE_FIELD)
#undef TPGNN_SERVE_FIELD

  // One-line human-readable summary (counts + score p50/p95/p99).
  std::string ToString() const;
  // Full snapshot as a JSON object: every counter under "counters", each
  // latency histogram under "latency_us" as {count, mean, sum, p50, p95,
  // p99, buckets}. The raw buckets make the payload mergeable — a router
  // aggregating N backends parses them back and recomputes percentiles
  // over the combined distribution instead of averaging quantiles. Doubles
  // print in shortest round-trip form (printf's %g when that is exact), so
  // a parse gives back the exact sums. This is the METRICS RPC payload and
  // the server half of BENCH_net.json.
  std::string ToJson() const;

  // Field-wise aggregation: each counter by its merge kind; histogram
  // counts/sums/buckets add, so percentiles of the merged snapshot are
  // percentiles of the union distribution. A default snapshot is identity.
  void MergeFrom(const MetricsSnapshot& other);
};

// Parses a snapshot back out of MetricsSnapshot::ToJson() output — the
// emitter's exact shape, not general JSON (unknown keys are skipped, but
// structure is expected). The router's cluster-wide METRICS RPC uses this
// to fold N backend payloads into one. kDataLoss when a required section
// or field is missing or malformed: counters and bucket counts must be
// exact unsigned 64-bit integers, sums finite and non-negative.
Status ParseMetricsJson(const std::string& json, MetricsSnapshot* snap);

class Metrics {
 public:
#define TPGNN_SERVE_FIELD(name, merge) std::atomic<uint64_t> name{0};
  TPGNN_SERVE_COUNTERS(TPGNN_SERVE_FIELD)
#undef TPGNN_SERVE_FIELD
  // Shadow divergence accumulators stay integral (nanounits / double bits)
  // so the hot path needs no atomic<double> CAS loop for the common add.
  std::atomic<uint64_t> shadow_delta_sum_nanos{0};
  std::atomic<uint64_t> shadow_delta_max_bits{0};
  // Records one |primary − shadow| logit delta into the sum and running
  // max (CAS max over double bits; monotone for non-negative doubles).
  void RecordShadowDelta(double abs_delta);

  // Probes the buffer pool, the fold-scratch byte accounting, and the
  // kernel's VmHWM, folding the readings into the memory gauges (peaks
  // only ever rise; bytes_cached tracks the current reading). Callers that
  // export metrics for bounded-memory gating — the METRICS RPC, the soak
  // harness's checkpoints — call this right before Snapshot/ToJson.
  void UpdateResourcePeaks();

#define TPGNN_SERVE_FIELD(field, key) LatencyHistogram field;
  TPGNN_SERVE_HISTOGRAMS(TPGNN_SERVE_FIELD)
#undef TPGNN_SERVE_FIELD

  MetricsSnapshot Snapshot() const;
  // Shorthand for Snapshot().ToJson().
  std::string ToJson() const;
};

// The two tables as data, for code that loops over every metric.
enum class MergeKind { kSum, kMax };

struct CounterField {
  const char* key;
  MergeKind merge;
  uint64_t MetricsSnapshot::*value;
  std::atomic<uint64_t> Metrics::*live;
};

struct HistogramField {
  const char* key;
  LatencyHistogram::Snapshot MetricsSnapshot::*value;
  LatencyHistogram Metrics::*live;
};

#define TPGNN_SERVE_FIELD(name, merge) \
  {#name, MergeKind::merge, &MetricsSnapshot::name, &Metrics::name},
inline constexpr CounterField kCounterFields[] = {
    TPGNN_SERVE_COUNTERS(TPGNN_SERVE_FIELD)};
#undef TPGNN_SERVE_FIELD

#define TPGNN_SERVE_FIELD(field, key) \
  {key, &MetricsSnapshot::field, &Metrics::field},
inline constexpr HistogramField kHistogramFields[] = {
    TPGNN_SERVE_HISTOGRAMS(TPGNN_SERVE_FIELD)};
#undef TPGNN_SERVE_FIELD

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_METRICS_H_
