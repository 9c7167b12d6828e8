// Router/proxy front-end for a sharded serving cluster: speaks the TP-GNN
// wire protocol to clients, consistent-hashes sessions onto N backend
// serve_server processes, probes backend health, fails over dead backends
// by replaying session journals, and live-migrates sessions on drain.
// Clients cannot tell it from a single serve_server.
//
// Four-step flow (README "Running a cluster"):
//
//   $ ./build/examples/serve_server --port=7481 &
//   $ ./build/examples/serve_server --port=7482 &
//   $ ./build/examples/serve_router --port=7471 "--backends=..." (the two
//     server addresses, e.g. --backends=127.0.0.1:7481,127.0.0.1:7482)
//   $ ./build/bench/bench_net --port=7471 --shutdown=1
//
// Backends are named b0, b1, ... in flag order; the names are the ring
// identities, so keep the flag order stable across router restarts to keep
// session placement stable.
//
// Flags: --backends=H:P,H:P   backend addresses (required)
//        --port=N             client-facing TCP port, 0 = ephemeral
//                             (default 7471)
//        --port_file=PATH     write the bound port here after listen
//        --vnodes=N           virtual nodes per backend (default 64)

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "util/flags.h"

namespace cluster = tpgnn::cluster;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

namespace {

cluster::Router* g_router = nullptr;

void HandleSignal(int) {
  if (g_router != nullptr) {
    g_router->RequestShutdown();  // Async-signal-safe: atomic + pipe write.
  }
}

// "host:port,host:port" -> configs named b0, b1, ... in flag order.
bool ParseBackends(const std::string& csv,
                   std::vector<cluster::BackendConfig>* configs) {
  size_t start = 0;
  while (start <= csv.size()) {
    size_t end = csv.find(',', start);
    if (end == std::string::npos) {
      end = csv.size();
    }
    const std::string item = csv.substr(start, end - start);
    if (!item.empty()) {
      const size_t colon = item.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == item.size()) {
        std::fprintf(stderr, "bad backend address: %s\n", item.c_str());
        return false;
      }
      cluster::BackendConfig config;
      config.name = "b" + std::to_string(configs->size());
      config.host = item.substr(0, colon);
      config.port = std::stoi(item.substr(colon + 1));
      configs->push_back(std::move(config));
    }
    start = end + 1;
  }
  return !configs->empty();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string backends_csv = FlagValue(argc, argv, "backends", "");
  const std::string port_file = FlagValue(argc, argv, "port_file", "");
  const int64_t port = FlagInt(argc, argv, "port", 7471);
  const int64_t vnodes = FlagInt(argc, argv, "vnodes", 64);

  std::vector<cluster::BackendConfig> configs;
  if (backends_csv.empty() || !ParseBackends(backends_csv, &configs)) {
    std::fprintf(stderr,
                 "usage: serve_router --backends=HOST:PORT,HOST:PORT "
                 "[--port=N] [--port_file=PATH]\n");
    return 2;
  }

  cluster::RouterOptions options;
  options.port = static_cast<int>(port);
  options.vnodes_per_backend = static_cast<int>(vnodes);
  cluster::Router router(configs, options);
  if (tpgnn::Status status = router.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << router.port() << "\n";
  }
  std::printf("routing %s:%d over %zu backends:\n",
              options.bind_address.c_str(), router.port(), configs.size());
  for (const cluster::BackendConfig& config : configs) {
    std::printf("  %s = %s:%d\n", config.name.c_str(), config.host.c_str(),
                config.port);
  }
  std::fflush(stdout);

  g_router = &router;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  router.Run();
  g_router = nullptr;

  const cluster::ClusterCounters& c = router.counters();
  std::printf("cluster: %llu failovers, %llu sessions replayed, "
              "%llu migrated (%llu failed), %llu scores reissued, "
              "%llu failed over, %llu/%llu probes missed/sent, "
              "%llu overloads shed\n",
              static_cast<unsigned long long>(c.backend_failovers),
              static_cast<unsigned long long>(c.sessions_replayed),
              static_cast<unsigned long long>(c.sessions_migrated),
              static_cast<unsigned long long>(c.migration_failures),
              static_cast<unsigned long long>(c.scores_reissued),
              static_cast<unsigned long long>(c.scores_failed_over),
              static_cast<unsigned long long>(c.probes_missed),
              static_cast<unsigned long long>(c.probes_sent),
              static_cast<unsigned long long>(c.overloads_shed));
  return 0;
}
