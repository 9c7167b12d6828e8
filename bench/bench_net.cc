// Network load generator: drives a live serve_server (or a serve_router,
// which speaks the same protocol) over real TCP sockets with the
// PaperMixProfile stream through the load driver, and records
// client-observed throughput, latency quantiles and the overload
// (backpressure) rate to BENCH_net.json, alongside the server's own
// metrics fetched over the METRICS RPC.
//
//   $ ./build/examples/serve_server --port=7471 &
//   $ ./build/bench/bench_net --port=7471 --shutdown=1
//
// workload::DriveWire splits sessions across connections by session id
// (the protocol's session-affinity contract: all events of a session ride
// one connection, in order). Each connection ships --batch events per
// frame, absorbs OVERLOADED backpressure in net::Client::IngestAll, and
// measures:
//   * ingest latency — a batch sent to its ack (one RTT + server dispatch,
//     plus any overload retries),
//   * score latency — the batch carrying a Score sent to its SCORE_RESULT
//     collected (queueing + micro-batching + scoring + return trip).
//
// Flags: --host=A --port=N    server address (port required)
//        --connections=N      client connections/threads (default 4)
//        --sessions=N         generated sessions (default 80)
//        --batch=N            events per INGEST_BATCH frame (default 64)
//        --json=PATH          output (default BENCH_net.json)
//        --shutdown=0|1       send SHUTDOWN when done (default 0)
//        --parity_sample=N    sessions re-driven for parity (default 5)
// Exits nonzero on a failed connect, ingest or drain, when no session was
// scored, when the parity sample check could not run, when any re-driven
// score differs bitwise from the load phase, when the server's METRICS
// payload does not parse, or when it reports protocol errors (CI smoke
// contract). The server's protocol_errors is also written at the top level
// of the JSON, where bench/trajectory.json's zero gate reads it.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_host.h"
#include "net/client.h"
#include "serve/metrics.h"
#include "util/flags.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

namespace {

// (session_id, edges_scored) -> logit from the load phase; scoring is a
// pure function of the session's event prefix, so a re-drive of the same
// session must reproduce these bits exactly.
using ScoreTable = std::map<std::pair<uint64_t, int64_t>, float>;

// Parity sample check: re-drives up to `sample` sessions that ended in the
// stream and produced OK scores during the load phase, over one fresh
// connection, and demands bit-identical logits the second time around.
// The picked sessions ship whole and back to back in one frame (a router
// forwards each same-backend run of it as one frame), so every edge of a
// session is in before the server scores any of its requests: each
// re-driven score must land at the session's full prefix, which the load
// phase scored too (the generator ends every session with a Score after
// its last edge). A re-driven score at any other prefix, or with no
// load-phase reference, is a mismatch. Returns false when the check could
// not run at all — the caller must treat that as a failure, not a pass.
bool RedriveSessionsForParity(const net::ClientOptions& options,
                              const std::vector<serve::Event>& all_events,
                              const ScoreTable& reference, size_t sample,
                              size_t* sessions_checked,
                              size_t* scores_compared, size_t* mismatches) {
  *sessions_checked = 0;
  *scores_compared = 0;
  *mismatches = 0;
  // A session that never ended is still open on the server, so a second
  // Begin would be refused; only ended sessions are re-driven.
  std::set<uint64_t> ended;
  for (const serve::Event& event : all_events) {
    if (event.kind == serve::Event::Kind::kEnd) {
      ended.insert(event.session_id);
    }
  }
  // Picked session -> its edge count. The table is sorted by session id.
  std::map<uint64_t, int64_t> full_prefix;
  for (const auto& [key, logit] : reference) {
    (void)logit;
    if (full_prefix.size() < sample && ended.count(key.first) > 0) {
      full_prefix.emplace(key.first, 0);
    }
  }
  if (full_prefix.empty()) {
    return false;
  }
  std::vector<serve::Event> events;
  for (auto& [session_id, edges] : full_prefix) {
    for (const serve::Event& event : all_events) {
      if (event.session_id == session_id) {
        events.push_back(event);
        edges += event.kind == serve::Event::Kind::kEdge ? 1 : 0;
      }
    }
  }
  net::ClientOptions one_frame = options;
  one_frame.max_events_per_batch = events.size();
  const workload::LoadReport report = workload::DriveWire(one_frame, events);
  if (report.errors > 0) {
    std::fprintf(stderr, "parity re-drive failed: %s\n",
                 report.first_error.c_str());
    return false;
  }
  *sessions_checked = full_prefix.size();
  for (const serve::ScoreResult& result : report.results) {
    ++*scores_compared;
    const auto full = full_prefix.find(result.session_id);
    const auto it = reference.find({result.session_id, result.edges_scored});
    if (!result.status.ok() || full == full_prefix.end() ||
        result.edges_scored != full->second || it == reference.end() ||
        it->second != result.logit) {
      ++*mismatches;
    }
  }
  return *scores_compared > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string host = FlagValue(argc, argv, "host", "127.0.0.1");
  const int64_t port = FlagInt(argc, argv, "port", 0);
  const int64_t connections = FlagInt(argc, argv, "connections", 4);
  const int64_t sessions = FlagInt(argc, argv, "sessions", 80);
  const int64_t batch = FlagInt(argc, argv, "batch", 64);
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_net.json");
  const bool shutdown_server = FlagInt(argc, argv, "shutdown", 0) != 0;
  const int64_t parity_sample = FlagInt(argc, argv, "parity_sample", 5);
  if (port <= 0) {
    std::fprintf(stderr, "usage: bench_net --port=N [--host=A] ...\n");
    return 2;
  }

  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/17);
  mix.num_sessions = static_cast<uint64_t>(sessions);
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);
  std::printf("driving %s:%lld with %lld connections, %llu sessions, "
              "%zu events, %llu score requests\n",
              host.c_str(), static_cast<long long>(port),
              static_cast<long long>(connections),
              static_cast<unsigned long long>(mix.num_sessions),
              stream.events.size(),
              static_cast<unsigned long long>(stream.scores));

  net::ClientOptions client_options;
  client_options.host = host;
  client_options.port = static_cast<int>(port);
  client_options.max_events_per_batch = static_cast<size_t>(batch);
  const workload::LoadReport report = workload::DriveWire(
      client_options, stream.events, static_cast<size_t>(connections));

  ScoreTable scores;
  for (const serve::ScoreResult& result : report.results) {
    if (result.status.ok()) {
      scores[{result.session_id, result.edges_scored}] = result.logit;
    }
  }

  // Parity sample: a handful of sessions re-scored on a fresh connection
  // must reproduce the load phase's logits bit-for-bit. Skipping this check
  // (no OK scores, connect failure) is itself a failure — a smoke run that
  // never validated a score proves nothing.
  size_t parity_sessions = 0;
  size_t parity_scores = 0;
  size_t parity_mismatches = 0;
  bool parity_ran = true;
  if (parity_sample > 0) {
    parity_ran = RedriveSessionsForParity(
        client_options, stream.events, scores,
        static_cast<size_t>(parity_sample), &parity_sessions, &parity_scores,
        &parity_mismatches);
  }

  // Server-side view over the METRICS RPC (and optionally a shutdown).
  std::string server_metrics = "{}";
  {
    net::Client control(client_options);
    if (control.Connect().ok()) {
      control.GetMetricsJson(&server_metrics);
      if (shutdown_server) {
        control.Shutdown();
      }
    }
  }
  serve::MetricsSnapshot server_snapshot;
  const tpgnn::Status parsed =
      serve::ParseMetricsJson(server_metrics, &server_snapshot);

  const double wall_seconds = report.wall_seconds;
  const size_t scores_ok = report.scores_ok();
  const serve::LatencyHistogram::Snapshot& ingest = report.ingest_latency;
  const serve::LatencyHistogram::Snapshot& score = report.score_latency;
  // Frames sent: one per IngestAll call plus one resend per overload.
  const uint64_t frames = ingest.count + report.overloads;
  const double overload_rate =
      frames > 0 ? static_cast<double>(report.overloads) /
                       static_cast<double>(frames)
                 : 0.0;

  std::printf("%8.0f events/s %8.0f scores/s  ingest p50/p95/p99 "
              "%5.0f/%5.0f/%5.0f us  score p50/p95/p99 %5.0f/%5.0f/%5.0f us"
              "  overload rate %.3f\n",
              report.events_per_second(), scores_ok / wall_seconds,
              ingest.PercentileMicros(0.5), ingest.PercentileMicros(0.95),
              ingest.PercentileMicros(0.99), score.PercentileMicros(0.5),
              score.PercentileMicros(0.95), score.PercentileMicros(0.99),
              overload_rate);

  std::ostringstream out;
  out << "{\"bench\": \"net\""
      << ", \"connections\": " << connections
      << ", \"sessions\": " << mix.num_sessions
      << ", \"events\": " << report.events_applied
      << ", \"scores\": " << scores_ok
      << ", \"scores_failed\": " << report.results.size() - scores_ok
      << ", \"wall_seconds\": " << wall_seconds
      << ", \"events_per_second\": " << report.events_per_second()
      << ", \"scores_per_second\": " << scores_ok / wall_seconds
      << ", \"ingest_p50_us\": " << ingest.PercentileMicros(0.5)
      << ", \"ingest_p95_us\": " << ingest.PercentileMicros(0.95)
      << ", \"ingest_p99_us\": " << ingest.PercentileMicros(0.99)
      << ", \"score_p50_us\": " << score.PercentileMicros(0.5)
      << ", \"score_p95_us\": " << score.PercentileMicros(0.95)
      << ", \"score_p99_us\": " << score.PercentileMicros(0.99)
      << ", \"overloads\": " << report.overloads
      << ", \"overload_rate\": " << overload_rate
      << ", \"parity_sessions\": " << parity_sessions
      << ", \"parity_scores\": " << parity_scores
      << ", \"parity_mismatches\": " << parity_mismatches
      << ", \"protocol_errors\": " << server_snapshot.protocol_errors << ", "
      << tpgnn::bench::HostJsonFields()
      << ", \"server_metrics\": " << server_metrics << "}";

  std::ofstream file(json_path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  file << out.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (report.errors > 0) {
    std::fprintf(stderr, "smoke check failed: %llu connection errors, first: "
                 "%s\n",
                 static_cast<unsigned long long>(report.errors),
                 report.first_error.c_str());
    return 1;
  }
  if (scores_ok == 0) {
    std::fprintf(stderr, "smoke check failed: no session was scored\n");
    return 1;
  }
  if (parity_sample > 0) {
    if (!parity_ran) {
      std::fprintf(stderr,
                   "smoke check failed: parity sample check was skipped\n");
      return 1;
    }
    if (parity_mismatches > 0) {
      std::fprintf(stderr,
                   "smoke check failed: %zu parity mismatches over %zu "
                   "re-driven scores\n",
                   parity_mismatches, parity_scores);
      return 1;
    }
    std::printf("parity sample: %zu sessions, %zu scores bit-identical\n",
                parity_sessions, parity_scores);
  }
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "smoke check failed: METRICS payload did not parse: %s\n",
                 parsed.ToString().c_str());
    return 1;
  }
  if (server_snapshot.protocol_errors > 0) {
    std::fprintf(stderr,
                 "smoke check failed: server saw %llu protocol errors\n",
                 static_cast<unsigned long long>(
                     server_snapshot.protocol_errors));
    return 1;
  }
  return 0;
}
