// Cluster scaling and chaos benchmark: bench_net's load generator pointed
// at a self-contained cluster — N in-process backend servers behind an
// in-process Router — swept over cluster sizes, with an optional mid-run
// backend kill/restart. Writes BENCH_cluster.json with per-size throughput
// and the scaling efficiency vs a single backend.
//
// Every run double-checks the cluster's core contracts and exits nonzero
// on a violation, so this is also the CI cluster smoke gate:
//   * exactly-once — every score request the router acked as applied
//     resolves exactly once (a result or a typed failure), even across a
//     backend SIGKILL and rejoin;
//   * bitwise parity — every successful score passes serve::ParityOracle:
//     it equals the offline forward over its session's arrival prefix bit
//     for bit, no matter which backend served it or how often the session
//     moved;
//   * with --kill_backend=1, the router must actually observe the
//     failover (backend_failovers >= 1) and recover the rejoined backend.
//
// Flags: --cluster_sizes=1,2,4  cluster sizes to sweep (default "1,2,4")
//        --sessions=N           replayed sessions per run (default 48)
//        --score_every=N        mid-session score cadence (default 8)
//        --connections=N        client connections/threads (default 4)
//        --batch=N              events per INGEST_BATCH (default 48)
//        --kill_backend=0|1     kill+restart a backend mid-run at the
//                               largest swept size (default 0)
//        --json=PATH            output (default BENCH_cluster.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/ring.h"
#include "cluster/router.h"
#include "core/model.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/inference_engine.h"
#include "serve/parity_oracle.h"
#include "serve/replay.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace cluster = tpgnn::cluster;
namespace core = tpgnn::core;
namespace data = tpgnn::data;
namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

namespace {

// Every engine in the bench — backends and restarts — and the parity
// oracle use this model, the precondition for bitwise parity.
constexpr uint64_t kModelSeed = 5;

core::TpGnnConfig BenchConfig() {
  core::TpGnnConfig config;
  config.updater = core::Updater::kSum;
  return config;
}

std::vector<int> ParseSizes(const std::string& csv) {
  std::vector<int> sizes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      sizes.push_back(std::stoi(item));
    }
  }
  return sizes;
}

// One in-process backend: engine + server + poll thread, restartable on a
// fixed port (the "supervisor brings the process back" half of chaos).
class Backend {
 public:
  explicit Backend(int port) : engine_(BenchConfig(), kModelSeed, {}) {
    net::ServerOptions options;
    options.port = port;
    for (int attempt = 0; attempt < 50 && server_ == nullptr; ++attempt) {
      auto server = std::make_unique<net::Server>(&engine_, options);
      if (server->Start().ok()) {
        server_ = std::move(server);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (server_ == nullptr) {
      std::fprintf(stderr, "backend start failed (port %d)\n", port);
      std::exit(1);
    }
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~Backend() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }

  // SIGKILL stand-in: hard-stop with no GOODBYE and no drain.
  void Kill() { server_->Abort(); }

  int port() const { return server_->port(); }

 private:
  serve::InferenceEngine engine_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

struct SharedStats {
  std::atomic<uint64_t> events_sent{0};
  std::atomic<uint64_t> scores_sent{0};  // Scores in ACKED prefixes.
  std::atomic<uint64_t> scores_ok{0};
  std::atomic<uint64_t> scores_failed{0};
  std::atomic<uint64_t> overloads{0};
  std::atomic<uint64_t> errors{0};
  std::mutex mu;
  std::vector<serve::ScoreResult> scored;  // Successful results; guarded by mu.
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

// One connection's traffic through the router: batched frames, overload
// retries, applied-prefix score accounting (bench_net's contract — only a
// score the server acked as applied owes us a result).
void RunConnection(const net::ClientOptions& options,
                   const std::vector<serve::Event>& events, size_t batch_size,
                   SharedStats* stats) {
  net::Client client(options);
  if (tpgnn::Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    stats->errors.fetch_add(1);
    return;
  }

  auto collect = [&]() {
    for (const serve::ScoreResult& result : client.TakeResults()) {
      if (result.status.ok()) {
        stats->scores_ok.fetch_add(1);
        std::lock_guard<std::mutex> lock(stats->mu);
        stats->scored.push_back(result);
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
    uint64_t applied = 0;
    tpgnn::Status st = client.IngestBatch(slice, &applied);
    stats->events_sent.fetch_add(applied);
    stats->scores_sent.fetch_add(
        CountScores(slice, static_cast<size_t>(applied)));
    pos += static_cast<size_t>(applied);
    if (st.ok()) {
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
      if (applied == 0) {
        // Ring momentarily empty (mid-failover): back off instead of
        // hammering the router's shed path.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      stalls = applied > 0 ? 0 : stalls + 1;
      if (stalls > 600) {
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

struct RunResult {
  int backends = 0;
  double wall_seconds = 0.0;
  uint64_t events = 0;
  uint64_t scores_sent = 0;
  uint64_t scores_ok = 0;
  uint64_t scores_failed = 0;
  uint64_t overloads = 0;
  uint64_t errors = 0;
  size_t parity_mismatches = 0;
  bool killed = false;
  cluster::ClusterCounters counters;
};

// Runs the full event stream through an N-backend cluster; with `kill`,
// hard-kills the busiest backend mid-run and restarts it on the same port.
RunResult RunCluster(int num_backends, bool kill,
                     const std::vector<std::vector<serve::Event>>& per_conn,
                     size_t batch, serve::ParityOracle& oracle) {
  RunResult out;
  out.backends = num_backends;
  out.killed = kill;

  std::vector<std::unique_ptr<Backend>> backends;
  std::vector<cluster::BackendConfig> configs;
  for (int i = 0; i < num_backends; ++i) {
    backends.push_back(std::make_unique<Backend>(/*port=*/0));
    configs.push_back({"b" + std::to_string(i), "127.0.0.1",
                       backends.back()->port()});
  }

  cluster::RouterOptions options;
  // Fast failure detection so the chaos run's recovery fits the bench.
  options.registry.probe_interval_seconds = 0.2;
  options.registry.probe_timeout_seconds = 0.5;
  options.registry.reconnect_backoff_seconds = 0.1;
  options.registry.reconnect_backoff_max_seconds = 0.5;
  cluster::Router router(configs, options);
  if (tpgnn::Status s = router.Start(); !s.ok()) {
    std::fprintf(stderr, "router start failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::thread router_thread([&router] { router.Run(); });
  while (router.connected_backends() < static_cast<size_t>(num_backends)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  net::ClientOptions client_options;
  client_options.port = router.port();

  uint64_t total_events = 0;
  for (const auto& events : per_conn) {
    total_events += events.size();
  }

  SharedStats stats;
  std::atomic<bool> workers_done{false};
  tpgnn::Stopwatch clock;
  std::vector<std::thread> workers;
  workers.reserve(per_conn.size());
  for (const auto& events : per_conn) {
    workers.emplace_back(RunConnection, client_options, std::cref(events),
                         batch, &stats);
  }

  std::thread killer;
  if (kill) {
    killer = std::thread([&] {
      // Wait until the stream is mid-flight, then kill the backend that
      // owns the most sessions and bring it back on the same port.
      while (stats.events_sent.load() < total_events / 2 &&
             stats.errors.load() == 0 && !workers_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (stats.errors.load() != 0 || workers_done.load()) {
        return;  // The run is already over (or broken); nothing to kill.
      }
      cluster::HashRing ring(options.vnodes_per_backend);
      for (const auto& config : configs) {
        ring.AddBackend(config.name);
      }
      std::vector<size_t> owned(static_cast<size_t>(num_backends), 0);
      for (const auto& events : per_conn) {
        for (const serve::Event& event : events) {
          if (event.kind == serve::Event::Kind::kBegin) {
            const std::string* owner = ring.OwnerOf(event.session_id);
            for (int i = 0; i < num_backends; ++i) {
              if (*owner == configs[static_cast<size_t>(i)].name) {
                ++owned[static_cast<size_t>(i)];
              }
            }
          }
        }
      }
      const size_t victim = static_cast<size_t>(std::distance(
          owned.begin(), std::max_element(owned.begin(), owned.end())));
      const int port = backends[victim]->port();
      std::printf("chaos: killing backend %s (%zu sessions)\n",
                  configs[victim].name.c_str(), owned[victim]);
      backends[victim]->Kill();
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      backends[victim] = std::make_unique<Backend>(port);
      std::printf("chaos: backend restarted on port %d\n", port);
    });
  }

  for (std::thread& worker : workers) {
    worker.join();
  }
  workers_done.store(true);
  if (killer.joinable()) {
    killer.join();
  }
  out.wall_seconds = clock.ElapsedSeconds();

  router.RequestShutdown();
  router_thread.join();
  out.counters = router.counters();  // Safe: poll thread has exited.

  out.events = stats.events_sent.load();
  out.scores_sent = stats.scores_sent.load();
  out.scores_ok = stats.scores_ok.load();
  out.scores_failed = stats.scores_failed.load();
  out.overloads = stats.overloads.load();
  out.errors = stats.errors.load();

  // Bitwise parity: every successful score must pass the oracle. Checked
  // after the run, so the offline forwards stay out of the measured wall.
  for (const serve::ScoreResult& result : stats.scored) {
    if (const tpgnn::Status s = oracle.Check(result); !s.ok()) {
      if (out.parity_mismatches == 0) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }
      ++out.parity_mismatches;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<int> sizes =
      ParseSizes(FlagValue(argc, argv, "cluster_sizes", "1,2,4"));
  const int64_t sessions = FlagInt(argc, argv, "sessions", 48);
  const int64_t score_every = FlagInt(argc, argv, "score_every", 8);
  const int64_t connections = FlagInt(argc, argv, "connections", 4);
  const int64_t batch = FlagInt(argc, argv, "batch", 48);
  const bool kill_backend = FlagInt(argc, argv, "kill_backend", 0) != 0;
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_cluster.json");
  if (sizes.empty()) {
    std::fprintf(stderr, "usage: bench_cluster --cluster_sizes=1,2,4 ...\n");
    return 2;
  }

  tpgnn::graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), sessions, /*seed=*/17);
  serve::ReplayOptions replay_options;
  replay_options.session_start_interval = 0.25;
  replay_options.score_every_edges = score_every;
  serve::EventReplayer replayer(dataset, replay_options);

  serve::ParityOracle oracle(BenchConfig(), kModelSeed);
  oracle.Record(replayer.events());

  // Session affinity: all events of a session ride one connection.
  std::vector<std::vector<serve::Event>> per_conn(
      static_cast<size_t>(connections));
  for (const serve::Event& event : replayer.events()) {
    per_conn[event.session_id % static_cast<uint64_t>(connections)].push_back(
        event);
  }
  std::printf("cluster sweep over %zu sizes: %zu sessions, %zu events, "
              "%zu score requests, %lld connections (%u cores)\n",
              sizes.size(), replayer.num_sessions(), replayer.events().size(),
              replayer.num_score_requests(),
              static_cast<long long>(connections),
              std::thread::hardware_concurrency());

  std::vector<RunResult> runs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const bool kill = kill_backend && i + 1 == sizes.size() && sizes[i] > 1;
    runs.push_back(RunCluster(sizes[i], kill, per_conn,
                              static_cast<size_t>(batch), oracle));
    const RunResult& r = runs.back();
    std::printf("backends=%d%s  %8.0f events/s  scores %llu ok / %llu "
                "failed  overloads %llu  failovers %llu\n",
                r.backends, r.killed ? " (chaos)" : "",
                r.events / r.wall_seconds,
                static_cast<unsigned long long>(r.scores_ok),
                static_cast<unsigned long long>(r.scores_failed),
                static_cast<unsigned long long>(r.overloads),
                static_cast<unsigned long long>(r.counters.backend_failovers));
  }

  // A list of entries keyed by bench+variant, the shape
  // bench/check_bench.py gates (like BENCH_alloc.json's variants).
  const double base_throughput = runs[0].events / runs[0].wall_seconds;
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const double throughput = r.events / r.wall_seconds;
    if (i > 0) out << ",\n ";
    out << "{\"bench\": \"cluster\", \"variant\": \"backends=" << r.backends
        << (r.killed ? "_chaos" : "") << "\""
        << ", \"backends\": " << r.backends
        << ", \"chaos\": " << (r.killed ? "true" : "false")
        << ", \"cores\": " << std::thread::hardware_concurrency()
        << ", \"sessions\": " << replayer.num_sessions()
        << ", \"connections\": " << connections
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"events_per_second\": " << throughput
        << ", \"speedup_vs_1\": " << throughput / base_throughput
        << ", \"scaling_efficiency\": "
        << throughput / (base_throughput * r.backends)
        << ", \"scores_ok\": " << r.scores_ok
        << ", \"scores_failed\": " << r.scores_failed
        << ", \"overloads\": " << r.overloads
        << ", \"parity_mismatches\": " << r.parity_mismatches
        << ", \"backend_failovers\": " << r.counters.backend_failovers
        << ", \"sessions_replayed\": " << r.counters.sessions_replayed
        << ", \"sessions_migrated\": " << r.counters.sessions_migrated
        << ", \"scores_reissued\": " << r.counters.scores_reissued
        << ", \"scores_failed_over\": " << r.counters.scores_failed_over
        << "}";
  }
  out << "]";
  std::ofstream file(json_path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  file << out.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());

  // --- Smoke gates: any violation fails the binary -----------------------
  int failures = 0;
  for (const RunResult& r : runs) {
    if (r.errors > 0) {
      std::fprintf(stderr, "FAIL backends=%d: %llu connection errors\n",
                   r.backends, static_cast<unsigned long long>(r.errors));
      ++failures;
    }
    if (r.scores_ok == 0) {
      std::fprintf(stderr, "FAIL backends=%d: no session was scored\n",
                   r.backends);
      ++failures;
    }
    // Exactly-once: every acked score resolved, once.
    if (r.scores_ok + r.scores_failed != r.scores_sent) {
      std::fprintf(stderr,
                   "FAIL backends=%d: exactly-once violated (%llu acked, "
                   "%llu resolved)\n",
                   r.backends,
                   static_cast<unsigned long long>(r.scores_sent),
                   static_cast<unsigned long long>(r.scores_ok +
                                                   r.scores_failed));
      ++failures;
    }
    if (r.parity_mismatches > 0) {
      std::fprintf(stderr, "FAIL backends=%d: %zu parity mismatches\n",
                   r.backends, r.parity_mismatches);
      ++failures;
    }
    if (!r.killed && r.scores_failed > 0) {
      std::fprintf(stderr,
                   "FAIL backends=%d: %llu scores failed without chaos\n",
                   r.backends,
                   static_cast<unsigned long long>(r.scores_failed));
      ++failures;
    }
    if (r.killed && r.counters.backend_failovers == 0) {
      std::fprintf(stderr,
                   "FAIL backends=%d: kill ran but no failover observed\n",
                   r.backends);
      ++failures;
    }
  }
  if (failures > 0) {
    return 1;
  }
  std::printf("cluster smoke: exactly-once and bitwise parity held over "
              "%zu runs%s\n",
              runs.size(), kill_backend ? " (with backend kill/restart)" : "");
  return 0;
}
