#ifndef TPGNN_NET_HARNESS_H_
#define TPGNN_NET_HARNESS_H_

#include <cstdint>
#include <memory>
#include <thread>

#include "core/config.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/inference_engine.h"

// One live backend in-process: an InferenceEngine serving `config` with
// parameters drawn from `seed`, a Server on 127.0.0.1:<server_options.port>
// (0 picks an ephemeral port), and its poll loop on a background thread.
// A fixed port is what a supervisor brings a dead backend back on, so the
// constructor retries the bind for up to 5 s while a dead listener's port
// frees, and aborts the process if it never does. Stop() (or the
// destructor) requests a graceful shutdown and joins; server().Abort() is
// the SIGKILL stand-in.

namespace tpgnn::net {

class ServerHarness {
 public:
  ServerHarness(const core::TpGnnConfig& config, uint64_t seed,
                const serve::EngineOptions& engine_options = {},
                const ServerOptions& server_options = {});
  ~ServerHarness();

  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  void Stop();

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

#endif  // TPGNN_NET_HARNESS_H_
