#ifndef TPGNN_WORKLOAD_DRIVER_H_
#define TPGNN_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/client.h"
#include "serve/event.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"

// The one load driver (DESIGN.md §4.9): ships a bounded event stream, as
// WorkloadGenerator::Draw produces it, into a serving target and reports
// what came back. Two targets, one report:
//
//   * DriveEngine: an in-process InferenceEngine, on the calling thread.
//     Each event is ingested; a kOverloaded reply pumps one micro-batch and
//     retries. The driver pumps whenever the engine's max_batch scores are
//     pending and flushes at the end, so an engine built with max_batch = 1
//     scores every request as soon as it arrives.
//   * DriveWire: a wire endpoint, a net::Server or a cluster::Router (they
//     speak one protocol). Events split over `connections` connections by
//     session_id % connections, which keeps every session on one
//     connection in order. One thread per connection hands each
//     max_events_per_batch slice to net::Client::IngestAll, which absorbs
//     OVERLOADED replies, and drains the results at the end.

namespace tpgnn::workload {

struct LoadReport {
  uint64_t events_applied = 0;
  // Score requests in acked prefixes: each is owed exactly one result.
  uint64_t scores_acked = 0;
  // Every result, in request order per engine or connection.
  std::vector<serve::ScoreResult> results;
  uint64_t overloads = 0;  // kOverloaded replies absorbed by a retry.
  uint64_t errors = 0;     // Failed ingests, connects or drains.
  std::string first_error;
  double wall_seconds = 0.0;
  // In-process, one Ingest call (a retried event counts once per call) and
  // Score enqueue -> result: the engine's own ingest and e2e histograms
  // over the run. On the wire, one IngestAll call (a batch sent -> acked,
  // overload retries included) and a batch sent -> each of its scores'
  // results collected.
  serve::LatencyHistogram::Snapshot ingest_latency;
  serve::LatencyHistogram::Snapshot score_latency;

  size_t scores_ok() const;
  double events_per_second() const;
};

LoadReport DriveEngine(serve::InferenceEngine& engine,
                       std::span<const serve::Event> events);

LoadReport DriveWire(const net::ClientOptions& endpoint,
                     std::span<const serve::Event> events,
                     size_t connections = 1);

}  // namespace tpgnn::workload

#endif  // TPGNN_WORKLOAD_DRIVER_H_
