// Network load generator: drives a live serve_server over real TCP sockets
// with multi-connection replayed traffic and records client-observed
// throughput, latency quantiles, and the overload (backpressure) rate to
// BENCH_net.json, alongside the server's own metrics fetched over the
// METRICS RPC.
//
//   $ ./build/examples/serve_server --port=7471 &
//   $ ./build/bench/bench_net --port=7471 --shutdown=1
//
// Sessions are partitioned across connections by session id (the protocol's
// session-affinity contract: all events of a session ride one connection,
// in order). Each connection ships batched event frames, pipelines score
// requests, honours OVERLOADED backpressure by draining results before
// resending the shed tail, and measures:
//   * ingest latency — send of an INGEST_BATCH to its ack (one RTT + server
//     dispatch),
//   * score latency — send of the batch carrying a Score to arrival of its
//     SCORE_RESULT (queueing + micro-batching + scoring + return trip).
//
// Flags: --host=A --port=N    server address (port required)
//        --connections=N      client connections/threads (default 4)
//        --sessions=N         replayed sessions (default 60)
//        --score_every=N      mid-session score cadence in edges (default 8)
//        --batch=N            events per INGEST_BATCH frame (default 64)
//        --json=PATH          output (default BENCH_net.json)
//        --shutdown=0|1       send SHUTDOWN when done (default 0)
//        --parity_sample=N    sessions re-replayed for parity (default 5)
// Exits nonzero when no session was scored, when the parity sample check
// could not run, when any re-replayed score differs bitwise from the load
// phase, when the server's METRICS payload does not parse, or when it
// reports protocol errors (CI smoke contract).

#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "net/client.h"
#include "serve/metrics.h"
#include "serve/replay.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace data = tpgnn::data;
namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

namespace {

// (session_id, edges_scored) -> logit from the load phase; scoring is a
// pure function of the session's event prefix, so a re-replay of the same
// session must reproduce these bits exactly.
using ScoreTable = std::map<std::pair<uint64_t, int64_t>, float>;

struct SharedStats {
  serve::LatencyHistogram ingest_latency;  // Batch send -> ack, µs.
  serve::LatencyHistogram score_latency;   // Batch send -> result, µs.
  std::atomic<uint64_t> events_sent{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> overloads{0};
  std::atomic<uint64_t> scores_ok{0};
  std::atomic<uint64_t> scores_failed{0};
  std::atomic<uint64_t> errors{0};
  std::mutex mu;
  ScoreTable scores;  // Guarded by mu.
};

size_t CountScores(const std::vector<serve::Event>& events, size_t limit) {
  size_t scores = 0;
  for (size_t i = 0; i < limit && i < events.size(); ++i) {
    if (events[i].kind == serve::Event::Kind::kScore) {
      ++scores;
    }
  }
  return scores;
}

// One connection's worth of traffic: batched frames with overload retries,
// FIFO timestamp matching for per-score latency.
void RunConnection(const net::ClientOptions& options,
                   const std::vector<serve::Event>& events, size_t batch_size,
                   const tpgnn::Stopwatch& clock, SharedStats* stats) {
  net::Client client(options);
  if (tpgnn::Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    stats->errors.fetch_add(1);
    return;
  }
  std::deque<double> score_sent_micros;  // FIFO, matches result order.

  auto collect = [&]() {
    const double now = clock.ElapsedMicros();
    for (const serve::ScoreResult& result : client.TakeResults()) {
      if (!score_sent_micros.empty()) {
        stats->score_latency.Record(now - score_sent_micros.front());
        score_sent_micros.pop_front();
      }
      if (result.status.ok()) {
        stats->scores_ok.fetch_add(1);
        std::lock_guard<std::mutex> lock(stats->mu);
        stats->scores[{result.session_id, result.edges_scored}] = result.logit;
      } else {
        stats->scores_failed.fetch_add(1);
      }
    }
  };

  size_t pos = 0;
  int stalls = 0;
  while (pos < events.size()) {
    const size_t take = std::min(batch_size, events.size() - pos);
    const std::vector<serve::Event> slice(
        events.begin() + static_cast<ptrdiff_t>(pos),
        events.begin() + static_cast<ptrdiff_t>(pos + take));
    const double sent_micros = clock.ElapsedMicros();
    uint64_t applied = 0;
    tpgnn::Status st = client.IngestBatch(slice, &applied);
    stats->batches.fetch_add(1);
    stats->events_sent.fetch_add(applied);
    const size_t applied_scores =
        CountScores(slice, static_cast<size_t>(applied));
    for (size_t i = 0; i < applied_scores; ++i) {
      score_sent_micros.push_back(sent_micros);
    }
    pos += static_cast<size_t>(applied);
    if (st.ok()) {
      stats->ingest_latency.Record(clock.ElapsedMicros() - sent_micros);
      collect();
      stalls = 0;
      continue;
    }
    if (st.code() == tpgnn::StatusCode::kOverloaded) {
      stats->overloads.fetch_add(1);
      if (client.inflight_scores() > 0) {
        if (tpgnn::Status d = client.DrainResults(); !d.ok()) {
          std::fprintf(stderr, "drain failed: %s\n", d.ToString().c_str());
          stats->errors.fetch_add(1);
          return;
        }
      }
      collect();
      stalls = applied > 0 ? 0 : stalls + 1;
      if (stalls > 200) {
        std::fprintf(stderr, "stuck in overload, giving up\n");
        stats->errors.fetch_add(1);
        return;
      }
      continue;
    }
    std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
    stats->errors.fetch_add(1);
    return;
  }
  if (tpgnn::Status s = client.DrainResults(); !s.ok()) {
    std::fprintf(stderr, "final drain failed: %s\n", s.ToString().c_str());
    stats->errors.fetch_add(1);
  }
  collect();
}

// Parity sample check: re-replays up to `sample` sessions that produced OK
// scores during the load phase and demands bit-identical logits the second
// time around (scoring is a pure function of the session's event prefix).
// Returns false when the check could not run at all — the caller must treat
// that as a failure, not a pass.
bool ReplaySessionsForParity(const net::ClientOptions& options,
                             const std::vector<serve::Event>& all_events,
                             const ScoreTable& reference, size_t sample,
                             size_t* sessions_checked, size_t* scores_compared,
                             size_t* mismatches) {
  *sessions_checked = 0;
  *scores_compared = 0;
  *mismatches = 0;
  std::vector<uint64_t> picked;  // The table is sorted by session id.
  for (const auto& [key, logit] : reference) {
    (void)logit;
    if (picked.empty() || picked.back() != key.first) {
      picked.push_back(key.first);
      if (picked.size() >= sample) {
        break;
      }
    }
  }
  if (picked.empty()) {
    return false;
  }
  net::Client client(options);
  if (tpgnn::Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "parity connect failed: %s\n", s.ToString().c_str());
    return false;
  }
  for (uint64_t session_id : picked) {
    std::vector<serve::Event> events;
    for (const serve::Event& event : all_events) {
      if (event.session_id == session_id) {
        events.push_back(event);
      }
    }
    size_t pos = 0;
    int stalls = 0;
    while (pos < events.size()) {
      const std::vector<serve::Event> slice(
          events.begin() + static_cast<ptrdiff_t>(pos), events.end());
      uint64_t applied = 0;
      tpgnn::Status st = client.IngestBatch(slice, &applied);
      pos += static_cast<size_t>(applied);
      if (st.ok()) {
        stalls = 0;
        continue;
      }
      if (st.code() != tpgnn::StatusCode::kOverloaded || ++stalls > 200) {
        std::fprintf(stderr, "parity replay failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
      if (tpgnn::Status d = client.DrainResults(); !d.ok()) {
        return false;
      }
    }
    ++*sessions_checked;
  }
  if (tpgnn::Status s = client.DrainResults(); !s.ok()) {
    std::fprintf(stderr, "parity drain failed: %s\n", s.ToString().c_str());
    return false;
  }
  for (const serve::ScoreResult& result : client.TakeResults()) {
    ++*scores_compared;
    if (!result.status.ok()) {
      ++*mismatches;
      continue;
    }
    auto it = reference.find({result.session_id, result.edges_scored});
    if (it == reference.end() || it->second != result.logit) {
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
  const int64_t sessions = FlagInt(argc, argv, "sessions", 60);
  const int64_t score_every = FlagInt(argc, argv, "score_every", 8);
  const int64_t batch = FlagInt(argc, argv, "batch", 64);
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_net.json");
  const bool shutdown_server = FlagInt(argc, argv, "shutdown", 0) != 0;
  const int64_t parity_sample = FlagInt(argc, argv, "parity_sample", 5);
  if (port <= 0) {
    std::fprintf(stderr, "usage: bench_net --port=N [--host=A] ...\n");
    return 2;
  }

  // Held-out seed, same generator family as the quickstart training set.
  tpgnn::graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), sessions, /*seed=*/17);
  serve::ReplayOptions replay_options;
  replay_options.session_start_interval = 0.25;
  replay_options.score_every_edges = score_every;
  serve::EventReplayer replayer(dataset, replay_options);

  // Session affinity: all events of a session go to one connection.
  std::vector<std::vector<serve::Event>> per_connection(
      static_cast<size_t>(connections));
  for (const serve::Event& event : replayer.events()) {
    per_connection[event.session_id % static_cast<uint64_t>(connections)]
        .push_back(event);
  }
  std::printf("driving %s:%lld with %lld connections, %zu sessions, "
              "%zu events, %zu score requests\n",
              host.c_str(), static_cast<long long>(port),
              static_cast<long long>(connections), replayer.num_sessions(),
              replayer.events().size(), replayer.num_score_requests());

  net::ClientOptions client_options;
  client_options.host = host;
  client_options.port = static_cast<int>(port);

  SharedStats stats;
  tpgnn::Stopwatch clock;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  for (int64_t c = 0; c < connections; ++c) {
    workers.emplace_back(RunConnection, client_options,
                         std::cref(per_connection[static_cast<size_t>(c)]),
                         static_cast<size_t>(batch), std::cref(clock),
                         &stats);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double wall_seconds = clock.ElapsedSeconds();

  // Parity sample: a handful of sessions re-scored on a fresh connection
  // must reproduce the load phase's logits bit-for-bit. Skipping this check
  // (no OK scores, connect failure) is itself a failure — a smoke run that
  // never validated a score proves nothing.
  size_t parity_sessions = 0;
  size_t parity_scores = 0;
  size_t parity_mismatches = 0;
  bool parity_ran = true;
  if (parity_sample > 0) {
    parity_ran = ReplaySessionsForParity(
        client_options, replayer.events(), stats.scores,
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

  const uint64_t scores_ok = stats.scores_ok.load();
  const uint64_t events_sent = stats.events_sent.load();
  const uint64_t batches = stats.batches.load();
  const uint64_t overloads = stats.overloads.load();
  const serve::LatencyHistogram::Snapshot ingest = stats.ingest_latency.Snap();
  const serve::LatencyHistogram::Snapshot score = stats.score_latency.Snap();
  const double overload_rate =
      batches + overloads > 0
          ? static_cast<double>(overloads) /
                static_cast<double>(batches + overloads)
          : 0.0;

  std::printf("%8.0f events/s %8.0f scores/s  ingest p50/p95/p99 "
              "%5.0f/%5.0f/%5.0f us  score p50/p95/p99 %5.0f/%5.0f/%5.0f us"
              "  overload rate %.3f\n",
              events_sent / wall_seconds, scores_ok / wall_seconds,
              ingest.PercentileMicros(0.5), ingest.PercentileMicros(0.95),
              ingest.PercentileMicros(0.99), score.PercentileMicros(0.5),
              score.PercentileMicros(0.95), score.PercentileMicros(0.99),
              overload_rate);

  std::ostringstream out;
  out << "{\"bench\": \"net\""
      << ", \"connections\": " << connections
      << ", \"sessions\": " << replayer.num_sessions()
      << ", \"events\": " << events_sent
      << ", \"scores\": " << scores_ok
      << ", \"scores_failed\": " << stats.scores_failed.load()
      << ", \"wall_seconds\": " << wall_seconds
      << ", \"events_per_second\": " << events_sent / wall_seconds
      << ", \"scores_per_second\": " << scores_ok / wall_seconds
      << ", \"ingest_p50_us\": " << ingest.PercentileMicros(0.5)
      << ", \"ingest_p95_us\": " << ingest.PercentileMicros(0.95)
      << ", \"ingest_p99_us\": " << ingest.PercentileMicros(0.99)
      << ", \"score_p50_us\": " << score.PercentileMicros(0.5)
      << ", \"score_p95_us\": " << score.PercentileMicros(0.95)
      << ", \"score_p99_us\": " << score.PercentileMicros(0.99)
      << ", \"overloads\": " << overloads
      << ", \"overload_rate\": " << overload_rate
      << ", \"parity_sessions\": " << parity_sessions
      << ", \"parity_scores\": " << parity_scores
      << ", \"parity_mismatches\": " << parity_mismatches
      << ", \"server_metrics\": " << server_metrics << "}";

  std::ofstream file(json_path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  file << out.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (stats.errors.load() > 0) {
    std::fprintf(stderr, "smoke check failed: %llu connection errors\n",
                 static_cast<unsigned long long>(stats.errors.load()));
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
                   "re-replayed scores\n",
                   parity_mismatches, parity_scores);
      return 1;
    }
    std::printf("parity sample: %zu sessions, %zu scores bit-identical\n",
                parity_sessions, parity_scores);
  }
  serve::MetricsSnapshot server_snapshot;
  const tpgnn::Status parsed =
      serve::ParseMetricsJson(server_metrics, &server_snapshot);
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
