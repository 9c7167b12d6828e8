#ifndef TPGNN_TESTS_NET_NET_TEST_UTIL_H_
#define TPGNN_TESTS_NET_NET_TEST_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/temporal_graph.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/event.h"
#include "serve/inference_engine.h"
#include "serve/replay.h"
#include "serve/serve_test_util.h"

// Shared helpers for the network and cluster tests: the serving tests'
// event builders, the replayed stream they share, a replay-and-drain
// client step, and a harness that runs a real Server on a loopback port in
// a background thread.

namespace tpgnn::net {

using serve::BeginEvent;
using serve::EdgeEvent;
using serve::EndEvent;
using serve::ScoreEvent;

// The replayed stream of `dataset` the network and cluster tests drive:
// staggered session starts and a score every four edges.
inline serve::EventReplayer MakeReplayer(const graph::GraphDataset& dataset) {
  serve::ReplayOptions options;
  options.session_start_interval = 0.25;
  options.score_every_edges = 4;
  return serve::EventReplayer(dataset, options);
}

// Ships `events` over one fresh connection, drains, and returns every
// result; a failed connect, ingest or drain fails the calling test.
inline std::vector<serve::ScoreResult> Replay(
    const ClientOptions& options, const std::vector<serve::Event>& events) {
  Client client(options);
  Status status = client.Connect();
  if (status.ok()) status = client.IngestAll(events);
  if (status.ok()) status = client.DrainResults();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return client.TakeResults();
}

// A live server on 127.0.0.1:<server_options.port> (0, the default, picks
// an ephemeral port) backed by its own engine, with the poll loop on a
// background thread. A fixed port is what a supervisor brings a dead
// backend back on, so Start retries for a few seconds while the dead
// listener's port frees. Stop() (or the destructor) requests a graceful
// shutdown and joins.
class ServerHarness {
 public:
  explicit ServerHarness(const serve::EngineOptions& engine_options = {},
                         const ServerOptions& server_options = {},
                         uint64_t seed = 5)
      : engine_(serve::TinyServeConfig(), seed, engine_options) {
    Status status;
    for (int attempt = 0; attempt < 50; ++attempt) {
      server_ = std::make_unique<Server>(&engine_, server_options);
      status = server_->Start();
      if (status.ok()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!status.ok()) {
      std::fprintf(stderr, "harness start on port %d failed: %s\n",
                   server_options.port, status.ToString().c_str());
      std::abort();
    }
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerHarness() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }

  int port() const { return server_->port(); }
  serve::InferenceEngine& engine() { return engine_; }
  Server& server() { return *server_; }

  ClientOptions client_options() const {
    ClientOptions options;
    options.port = port();
    return options;
  }

 private:
  serve::InferenceEngine engine_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

}  // namespace tpgnn::net

#endif  // TPGNN_TESTS_NET_NET_TEST_UTIL_H_
