#include "net/harness.h"

#include <chrono>

#include "util/logging.h"

namespace tpgnn::net {

ServerHarness::ServerHarness(const core::TpGnnConfig& config, uint64_t seed,
                             const serve::EngineOptions& engine_options,
                             const ServerOptions& server_options)
    : engine_(config, seed, engine_options) {
  Status status;
  for (int attempt = 0; attempt < 50; ++attempt) {
    server_ = std::make_unique<Server>(&engine_, server_options);
    status = server_->Start();
    if (status.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  TPGNN_CHECK(status.ok()) << "server start on port " << server_options.port
                           << " failed: " << status.ToString();
  thread_ = std::thread([this] { server_->Run(); });
}

ServerHarness::~ServerHarness() { Stop(); }

void ServerHarness::Stop() {
  if (thread_.joinable()) {
    server_->RequestShutdown();
    thread_.join();
  }
}

}  // namespace tpgnn::net
