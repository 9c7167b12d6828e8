#ifndef TPGNN_TESTS_NET_NET_TEST_UTIL_H_
#define TPGNN_TESTS_NET_NET_TEST_UTIL_H_

#include <cstdint>

#include "serve/serve_test_util.h"
#include "workload/generator.h"
#include "workload/profiles.h"

// Shared helpers for the network and cluster tests: the serving tests'
// event builders and the generated stream they drive through
// workload::DriveWire.

namespace tpgnn::net {

using serve::BeginEvent;
using serve::EdgeEvent;
using serve::EndEvent;
using serve::ScoreEvent;

// `sessions` sessions of the PaperMixProfile stream of `seed`.
inline workload::Stream MixStream(uint64_t seed, uint64_t sessions) {
  workload::WorkloadOptions options = workload::PaperMixProfile(seed);
  options.num_sessions = sessions;
  return workload::WorkloadGenerator::Draw(options);
}

}  // namespace tpgnn::net

#endif  // TPGNN_TESTS_NET_NET_TEST_UTIL_H_
