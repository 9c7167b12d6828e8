#ifndef TPGNN_TESTS_CLUSTER_CLUSTER_TEST_UTIL_H_
#define TPGNN_TESTS_CLUSTER_CLUSTER_TEST_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/ring.h"
#include "cluster/router.h"
#include "net/client.h"
#include "net/harness.h"
#include "net/net_test_util.h"
#include "net/server.h"
#include "serve/inference_engine.h"
#include "serve/parity_oracle.h"
#include "serve/serve_test_util.h"

// Shared helpers for the cluster tests: a harness running N real backend
// servers plus a Router (threaded, or hand-polled for tests that call the
// poll-thread-only admin API), and the serve::ParityOracle check extended
// with the typed-failure outcome a failover may legitimately produce.

namespace tpgnn::cluster {

// All backends share this seed, so every engine in the cluster serves the
// same model — the precondition for bit-identical scores across moves.
constexpr uint64_t kClusterSeed = 5;

// N backend servers (each a net::ServerHarness with its own engine) plus a
// Router in front. `threaded` runs the router's poll loop on a background
// thread, like production; `threaded = false` leaves polling to the test
// (PumpUntil), which is how the poll-thread-only admin calls
// (DrainBackend / UndrainBackend) are driven safely.
class RouterHarness {
 public:
  explicit RouterHarness(size_t num_backends, RouterOptions options = {},
                         bool threaded = true) {
    std::vector<BackendConfig> configs;
    for (size_t i = 0; i < num_backends; ++i) {
      backends_.push_back(std::make_unique<net::ServerHarness>(
          serve::TinyServeConfig(), kClusterSeed));
      configs.push_back(
          {BackendName(i), "127.0.0.1", backends_[i]->port()});
    }
    router_ = std::make_unique<Router>(configs, options);
    Status status = router_->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "router start failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    if (threaded) {
      thread_ = std::thread([this] { router_->Run(); });
      WaitForConnectedBackends(num_backends);
    }
  }

  ~RouterHarness() { Stop(); }

  static std::string BackendName(size_t i) {
    return "b" + std::to_string(i);
  }

  // Stops a threaded router; for a hand-polled one, pumps the shutdown to
  // completion on the calling thread.
  void Stop() {
    router_->RequestShutdown();
    if (thread_.joinable()) {
      thread_.join();
    } else {
      while (router_->PollOnce(5)) {
      }
    }
  }

  // Spins (threaded router) until the connected-backend count reaches `n`.
  void WaitForConnectedBackends(size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (router_->connected_backends() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "backends never connected\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Hand-polls the router until `pred` holds. Aborts the test on timeout.
  void PumpUntil(const std::function<bool()>& pred, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "PumpUntil timed out";
      router_->PollOnce(5);
    }
  }

  // Simulates a backend crash: hard-stops its server (no GOODBYE, no
  // drain), exactly like a SIGKILLed process.
  void KillBackend(size_t i) { backends_[i]->server().Abort(); }

  net::ClientOptions client_options() const {
    net::ClientOptions options;
    options.port = router_->port();
    return options;
  }

  Router& router() { return *router_; }
  net::ServerHarness& backend(size_t i) { return *backends_[i]; }
  size_t num_backends() const { return backends_.size(); }

 private:
  std::vector<std::unique_ptr<net::ServerHarness>> backends_;
  std::unique_ptr<Router> router_;
  std::thread thread_;
};

// A standalone ring with the harness's backend names: placement is a pure
// function of the name set, so tests use this to predict which backend the
// router will route a session to.
inline HashRing HarnessRing(size_t num_backends, int vnodes = 64) {
  HashRing ring(vnodes);
  for (size_t i = 0; i < num_backends; ++i) {
    ring.AddBackend(RouterHarness::BackendName(i));
  }
  return ring;
}

// Every successful result must pass the oracle at its (session, prefix);
// a failover may instead resolve a score with a typed kDataLoss, which
// still counts toward exactly-once. Returns the number of typed failures.
inline size_t ExpectPrefixParityOrTypedFailure(
    serve::ParityOracle& oracle,
    const std::vector<serve::ScoreResult>& results) {
  size_t failed = 0;
  for (const serve::ScoreResult& result : results) {
    if (!result.status.ok()) {
      EXPECT_EQ(result.status.code(), StatusCode::kDataLoss)
          << result.status.ToString();
      ++failed;
      continue;
    }
    const Status parity = oracle.Check(result);
    EXPECT_TRUE(parity.ok()) << parity.ToString();
  }
  return failed;
}

}  // namespace tpgnn::cluster

#endif  // TPGNN_TESTS_CLUSTER_CLUSTER_TEST_UTIL_H_
