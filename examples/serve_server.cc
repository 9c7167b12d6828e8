// Networked serving front-end: loads a quickstart checkpoint and serves
// the TP-GNN wire protocol on a TCP port until a SHUTDOWN frame (e.g. from
// bench_net --shutdown=1 or net::Client::Shutdown) or SIGINT/SIGTERM.
//
// Three-step flow (README "Serving over the network"):
//
//   $ ./build/examples/quickstart --save_checkpoint=/tmp/tpgnn.ckpt
//   $ ./build/examples/serve_server --checkpoint=/tmp/tpgnn.ckpt --port=7471
//   $ ./build/bench/bench_net --port=7471 --shutdown=1
//
// Without --checkpoint the server serves a freshly initialized model (same
// plumbing, untrained scores). --port=0 binds an ephemeral port; pass
// --port_file=PATH to have the bound port written there so scripts (and the
// CI smoke step) can discover it without racing on a fixed port.
//
// Flags: --checkpoint=PATH   snapshot to serve (default: none)
//        --port=N            TCP port, 0 = ephemeral (default 7471)
//        --port_file=PATH    write the bound port here after listen
//        --shards=N          session shards (default 4)
//        --max_pending=N     bounded score-queue depth (default 256)
//        --max_batch=N       micro-batch drained per engine pump (default 64)

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/model.h"
#include "net/server.h"
#include "serve/inference_engine.h"
#include "util/flags.h"

namespace core = tpgnn::core;
namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

namespace {

net::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) {
    g_server->RequestShutdown();  // Async-signal-safe: atomic + pipe write.
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string checkpoint = FlagValue(argc, argv, "checkpoint", "");
  const std::string port_file = FlagValue(argc, argv, "port_file", "");
  const int64_t port = FlagInt(argc, argv, "port", 7471);
  const int64_t shards = FlagInt(argc, argv, "shards", 4);
  const int64_t max_pending = FlagInt(argc, argv, "max_pending", 256);
  const int64_t max_batch = FlagInt(argc, argv, "max_batch", 64);

  // Must match the snapshot's config; both use the quickstart's
  // paper-default SUM configuration.
  core::TpGnnConfig config;
  config.updater = core::Updater::kSum;

  serve::EngineOptions engine_options;
  engine_options.num_shards = static_cast<int>(shards);
  engine_options.max_pending_scores = static_cast<size_t>(max_pending);
  engine_options.max_batch = static_cast<size_t>(max_batch);
  serve::InferenceEngine engine(config, /*seed=*/1, engine_options);

  if (!checkpoint.empty()) {
    tpgnn::Status status = engine.LoadSnapshot(checkpoint);
    if (!status.ok()) {
      std::fprintf(stderr, "snapshot rejected: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("serving snapshot: %s\n", checkpoint.c_str());
  } else {
    std::printf("serving untrained model (no --checkpoint)\n");
  }

  net::ServerOptions server_options;
  server_options.port = static_cast<int>(port);
  net::Server server(&engine, server_options);
  if (tpgnn::Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
  }
  std::printf("listening on %s:%d (%lld shards, queue depth %lld)\n",
              server_options.bind_address.c_str(), server.port(),
              static_cast<long long>(shards),
              static_cast<long long>(max_pending));
  std::fflush(stdout);

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  server.Run();
  g_server = nullptr;

  const serve::MetricsSnapshot snap = engine.metrics().Snapshot();
  std::printf("%s\n", snap.ToString().c_str());
  std::printf("wire: %llu/%llu frames in/out, %llu/%llu bytes in/out, "
              "%llu connections, %llu protocol errors\n",
              static_cast<unsigned long long>(snap.frames_received),
              static_cast<unsigned long long>(snap.frames_sent),
              static_cast<unsigned long long>(snap.bytes_received),
              static_cast<unsigned long long>(snap.bytes_sent),
              static_cast<unsigned long long>(snap.connections_accepted),
              static_cast<unsigned long long>(snap.protocol_errors));
  return 0;
}
