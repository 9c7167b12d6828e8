// Cluster scaling and chaos benchmark: the PaperMixProfile stream, driven
// by workload::DriveWire (bench_net's load driver) at a self-contained
// cluster — N in-process net::ServerHarness backends behind an in-process
// Router — swept over cluster sizes, with an optional mid-run backend
// kill/restart. Writes BENCH_cluster.json with per-size throughput and the
// scaling efficiency vs a single backend.
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
//        --sessions=N           generated sessions per run (default 60)
//        --connections=N        client connections/threads (default 4)
//        --batch=N              events per INGEST_BATCH (default 48)
//        --kill_backend=0|1     kill+restart a backend mid-run at the
//                               largest swept size (default 0)
//        --json=PATH            output (default BENCH_cluster.json)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.h"
#include "cluster/router.h"
#include "core/model.h"
#include "net/harness.h"
#include "serve/parity_oracle.h"
#include "util/flags.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace cluster = tpgnn::cluster;
namespace core = tpgnn::core;
namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;
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

// A backend on `port` (0 = ephemeral); a restart passes the dead one's
// port, the "supervisor brings the process back" half of chaos.
std::unique_ptr<net::ServerHarness> StartBackend(int port) {
  net::ServerOptions options;
  options.port = port;
  return std::make_unique<net::ServerHarness>(BenchConfig(), kModelSeed,
                                              serve::EngineOptions{}, options);
}

struct RunResult {
  int backends = 0;
  bool killed = false;
  workload::LoadReport report;
  size_t parity_mismatches = 0;
  cluster::ClusterCounters counters;
};

// Drives the full stream through an N-backend cluster; with `kill`,
// hard-kills the busiest backend once half the stream has reached the
// backends and restarts it on the same port.
RunResult RunCluster(int num_backends, bool kill,
                     const std::vector<serve::Event>& events,
                     size_t connections, size_t batch,
                     serve::ParityOracle& oracle) {
  RunResult out;
  out.backends = num_backends;
  out.killed = kill;

  std::vector<std::unique_ptr<net::ServerHarness>> backends;
  std::vector<cluster::BackendConfig> configs;
  for (int i = 0; i < num_backends; ++i) {
    backends.push_back(StartBackend(/*port=*/0));
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

  std::atomic<bool> driven{false};
  std::thread killer;
  if (kill) {
    killer = std::thread([&] {
      // Wait until the stream is mid-flight (the backends' engines have
      // ingested half of it), then kill the backend that has begun the
      // most sessions and bring it back on the same port.
      auto metrics = [&](size_t i) -> const serve::Metrics& {
        return backends[i]->engine().metrics();
      };
      uint64_t ingested = 0;
      while (ingested < events.size() / 2 && !driven.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ingested = 0;
        for (size_t i = 0; i < backends.size(); ++i) {
          ingested += metrics(i).events_ingested.load();
        }
      }
      if (driven.load()) {
        return;  // The run is already over (or broken); nothing to kill.
      }
      size_t victim = 0;
      for (size_t i = 1; i < backends.size(); ++i) {
        if (metrics(i).sessions_begun.load() >
            metrics(victim).sessions_begun.load()) {
          victim = i;
        }
      }
      const int port = backends[victim]->port();
      std::printf("chaos: killing backend %s (%llu sessions begun)\n",
                  configs[victim].name.c_str(),
                  static_cast<unsigned long long>(
                      metrics(victim).sessions_begun.load()));
      backends[victim]->server().Abort();
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      backends[victim] = StartBackend(port);
      std::printf("chaos: backend restarted on port %d\n", port);
    });
  }

  net::ClientOptions client_options;
  client_options.port = router.port();
  client_options.max_events_per_batch = batch;
  out.report = workload::DriveWire(client_options, events, connections);
  driven.store(true);
  if (killer.joinable()) {
    killer.join();
  }

  router.RequestShutdown();
  router_thread.join();
  out.counters = router.counters();  // Safe: poll thread has exited.

  // Bitwise parity: every successful score must pass the oracle. Checked
  // after the run, so the offline forwards stay out of the measured wall.
  for (const serve::ScoreResult& result : out.report.results) {
    if (!result.status.ok()) {
      continue;
    }
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
  const int64_t sessions = FlagInt(argc, argv, "sessions", 60);
  const int64_t connections = FlagInt(argc, argv, "connections", 4);
  const int64_t batch = FlagInt(argc, argv, "batch", 48);
  const bool kill_backend = FlagInt(argc, argv, "kill_backend", 0) != 0;
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_cluster.json");
  if (sizes.empty()) {
    std::fprintf(stderr, "usage: bench_cluster --cluster_sizes=1,2,4 ...\n");
    return 2;
  }

  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/17);
  mix.num_sessions = static_cast<uint64_t>(sessions);
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);

  serve::ParityOracle oracle(BenchConfig(), kModelSeed);
  oracle.Record(stream.events);
  std::printf("cluster sweep over %zu sizes: %llu sessions, %zu events, "
              "%llu score requests, %lld connections (%u cores)\n",
              sizes.size(), static_cast<unsigned long long>(mix.num_sessions),
              stream.events.size(),
              static_cast<unsigned long long>(stream.scores),
              static_cast<long long>(connections),
              std::thread::hardware_concurrency());

  std::vector<RunResult> runs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const bool kill = kill_backend && i + 1 == sizes.size() && sizes[i] > 1;
    runs.push_back(RunCluster(sizes[i], kill, stream.events,
                              static_cast<size_t>(connections),
                              static_cast<size_t>(batch), oracle));
    const RunResult& r = runs.back();
    std::printf("backends=%d%s  %8.0f events/s  scores %zu ok / %zu "
                "failed  overloads %llu  failovers %llu\n",
                r.backends, r.killed ? " (chaos)" : "",
                r.report.events_per_second(), r.report.scores_ok(),
                r.report.results.size() - r.report.scores_ok(),
                static_cast<unsigned long long>(r.report.overloads),
                static_cast<unsigned long long>(r.counters.backend_failovers));
  }

  // A list of entries keyed by bench+variant, the shape
  // bench/check_bench.py gates (like BENCH_alloc.json's variants).
  const double base_throughput = runs[0].report.events_per_second();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const double throughput = r.report.events_per_second();
    const size_t scores_ok = r.report.scores_ok();
    if (i > 0) out << ",\n ";
    out << "{\"bench\": \"cluster\", \"variant\": \"backends=" << r.backends
        << (r.killed ? "_chaos" : "") << "\""
        << ", \"backends\": " << r.backends
        << ", \"chaos\": " << (r.killed ? "true" : "false") << ", "
        << tpgnn::bench::HostJsonFields()
        << ", \"sessions\": " << mix.num_sessions
        << ", \"connections\": " << connections
        << ", \"wall_seconds\": " << r.report.wall_seconds
        << ", \"events_per_second\": " << throughput
        << ", \"speedup_vs_1\": " << throughput / base_throughput
        << ", \"scaling_efficiency\": "
        << throughput / (base_throughput * r.backends)
        << ", \"scores_ok\": " << scores_ok
        << ", \"scores_failed\": " << r.report.results.size() - scores_ok
        << ", \"overloads\": " << r.report.overloads
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
    const size_t scores_ok = r.report.scores_ok();
    const size_t scores_failed = r.report.results.size() - scores_ok;
    if (r.report.errors > 0) {
      std::fprintf(stderr,
                   "FAIL backends=%d: %llu connection errors, first: %s\n",
                   r.backends, static_cast<unsigned long long>(r.report.errors),
                   r.report.first_error.c_str());
      ++failures;
    }
    if (scores_ok == 0) {
      std::fprintf(stderr, "FAIL backends=%d: no session was scored\n",
                   r.backends);
      ++failures;
    }
    // Exactly-once: every acked score resolved, once.
    if (r.report.results.size() != r.report.scores_acked) {
      std::fprintf(stderr,
                   "FAIL backends=%d: exactly-once violated (%llu acked, "
                   "%zu resolved)\n",
                   r.backends,
                   static_cast<unsigned long long>(r.report.scores_acked),
                   r.report.results.size());
      ++failures;
    }
    if (r.parity_mismatches > 0) {
      std::fprintf(stderr, "FAIL backends=%d: %zu parity mismatches\n",
                   r.backends, r.parity_mismatches);
      ++failures;
    }
    if (!r.killed && scores_failed > 0) {
      std::fprintf(stderr,
                   "FAIL backends=%d: %zu scores failed without chaos\n",
                   r.backends, scores_failed);
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
