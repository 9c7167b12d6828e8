// Chaos benchmark: drives the PaperMixProfile stream through an in-process
// TCP server (a net::ServerHarness) with the load driver while a
// configurable failpoint mix fires, then verifies the serving stack's fault
// invariants and records throughput under chaos to BENCH_chaos.json. Exits
// nonzero on any invariant violation, which makes it usable as a CI gate
// and under sanitizers:
//
//   * every score request produces exactly one result;
//   * every OK result passes serve::ParityOracle, checked after the
//     failpoints are disarmed: bit-identical to the fault-free offline
//     forward over its session's arrival prefix;
//   * every failed result carries the injected-fault marker;
//   * serve::Metrics error counters equal the injected fire counts exactly
//     (queues run uncapped so no genuine backpressure can contaminate the
//     accounting);
//   * state_refolds equals the shard.rescale forced-fallback fires times
//     the number of folded state components, and state_rescales equals a
//     replay of each session's successful-score sequence (the model runs
//     TimeBasis::kInvariant, so refolds happen only when injected and every
//     absorbed max move is a rescale).
//
// Flags: --seed=N        first failpoint seed (default 101)
//        --seeds=N       number of consecutive seeds to run (default 3)
//        --sessions=N    generated sessions (default 16)
//        --faults=SPEC   TPGNN_FAILPOINTS-syntax override of the default mix
//        --json=PATH     output (default BENCH_chaos.json)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_host.h"
#include "core/config.h"
#include "net/harness.h"
#include "serve/inference_engine.h"
#include "serve/parity_oracle.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace core = tpgnn::core;
namespace failpoint = tpgnn::failpoint;
namespace net = tpgnn::net;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

namespace {

// All fault families that keep the exactly-once contract intact: partial
// I/O, dispatch delays, allocation pressure, queue rejections, begin
// rejections, and typed scoring failures. (Frame corruption tears the
// connection down by design and is exercised by tests/net/chaos_test.cc.)
constexpr char kDefaultFaults[] =
    "net.recv=0.15:short_io:7,net.send=0.15:short_io:5,"
    "net.send_all=0.1:short_io:9,net.recv_some=0.1:short_io:11,"
    "server.dispatch=0.02:delay:200,pool.acquire=0.2:alloc_fail,"
    "engine.score_enqueue=0.05:return_error,shard.begin=0.1:return_error,"
    "shard.score=0.05:return_error,shard.rescale=0.1:return_error";

core::TpGnnConfig SmallConfig() {
  core::TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  // Serving formulation: generated streams are chronological per session, so
  // every state_refold must come from the shard.rescale forced fallback and
  // every max-time move a score absorbs must count as a state_rescale —
  // which is what makes both counters exactly attributable below.
  config.time_basis = core::TimeBasis::kInvariant;
  return config;
}

// SmallConfig folds two state components per session (the SUM node state x
// and the time accumulator m), so one forced-fallback fire discards and
// replays exactly two folds.
constexpr uint64_t kFoldedComponents = 2;

constexpr uint64_t kModelSeed = 5;

// (session_id, edges ingested) -> max edge timestamp over that prefix.
// Drives the state_rescales simulation: a successful score rescales exactly
// when the previous successful score of its session finalized a nonempty
// fold at a different max time.
using PrefixMaxTable = std::map<std::pair<uint64_t, int64_t>, double>;

PrefixMaxTable BuildPrefixMax(const std::vector<serve::Event>& events) {
  PrefixMaxTable table;
  std::map<uint64_t, int64_t> edges_seen;
  std::map<uint64_t, double> running_max;
  for (const serve::Event& event : events) {
    if (event.kind == serve::Event::Kind::kBegin) {
      table[{event.session_id, 0}] = 0.0;
    } else if (event.kind == serve::Event::Kind::kEdge) {
      const int64_t count = ++edges_seen[event.session_id];
      double& mx = running_max[event.session_id];
      if (event.edge_time > mx) {
        mx = event.edge_time;
      }
      table[{event.session_id, count}] = mx;
    }
  }
  return table;
}

struct SeedOutcome {
  uint64_t seed = 0;
  uint64_t total_fires = 0;
  uint64_t scores_ok = 0;
  uint64_t scores_failed = 0;
  double wall_seconds = 0.0;
  std::vector<std::string> violations;
};

// One full chaos run under `seed`. Appends human-readable invariant
// violations; an empty list means the run passed.
SeedOutcome RunChaosSeed(uint64_t seed, const std::string& faults,
                         const workload::Stream& stream,
                         serve::ParityOracle& oracle,
                         const PrefixMaxTable& prefix_max) {
  SeedOutcome outcome;
  outcome.seed = seed;
  auto violation = [&outcome](std::string text) {
    outcome.violations.push_back(std::move(text));
  };

  // Uncapped queues: every overload counter increment must be attributable
  // to an injected fire, never to genuine backpressure.
  serve::EngineOptions engine_options;
  engine_options.max_pending_scores = 1u << 20;
  net::ServerOptions server_options;
  server_options.max_inflight_scores = 1u << 20;
  server_options.port = 0;

  net::ServerHarness server(SmallConfig(), kModelSeed, engine_options,
                           server_options);

  failpoint::ResetCounters();
  failpoint::SetSeed(seed);
  workload::LoadReport report;
  if (tpgnn::Status s = failpoint::InstallFromSpecString(faults); !s.ok()) {
    violation("bad --faults spec: " + s.ToString());
  } else {
    report = workload::DriveWire(server.client_options(), stream.events);
    if (report.errors > 0) {
      violation("client failed: " + report.first_error);
    }
  }
  outcome.wall_seconds = report.wall_seconds;

  // Disarm before reading counters so the accounting below is frozen.
  failpoint::ClearAll();
  outcome.total_fires = failpoint::TotalFires();

  const std::vector<serve::ScoreResult>& results = report.results;
  for (const serve::ScoreResult& result : results) {
    if (!result.status.ok()) {
      ++outcome.scores_failed;
      if (result.status.message().find("injected fault") ==
          std::string::npos) {
        violation("failed score without injected-fault marker: " +
                  result.status.ToString());
      }
      continue;
    }
    ++outcome.scores_ok;
    if (const tpgnn::Status s = oracle.Check(result); !s.ok()) {
      violation(s.ToString());
    }
  }
  if (report.scores_acked != stream.scores ||
      results.size() != stream.scores) {
    violation("expected " + std::to_string(stream.scores) + " results, got " +
              std::to_string(results.size()) + " for " +
              std::to_string(report.scores_acked) + " acked requests");
  }

  const serve::Metrics& metrics = server.engine().metrics();
  const uint64_t expected_overloads =
      failpoint::FireCount("engine.score_enqueue") +
      failpoint::FireCount("shard.begin");
  if (metrics.overload_rejections.load() != expected_overloads) {
    violation("overload_rejections " +
              std::to_string(metrics.overload_rejections.load()) +
              " != injected " + std::to_string(expected_overloads));
  }
  if (metrics.scores_failed.load() != failpoint::FireCount("shard.score")) {
    violation("scores_failed " + std::to_string(metrics.scores_failed.load()) +
              " != injected " +
              std::to_string(failpoint::FireCount("shard.score")));
  }
  if (outcome.scores_failed != failpoint::FireCount("shard.score")) {
    violation("failed results " + std::to_string(outcome.scores_failed) +
              " != injected " +
              std::to_string(failpoint::FireCount("shard.score")));
  }
  if (metrics.protocol_errors.load() !=
      failpoint::FireCount("client.corrupt_frame")) {
    violation("protocol_errors " +
              std::to_string(metrics.protocol_errors.load()) +
              " != injected " +
              std::to_string(failpoint::FireCount("client.corrupt_frame")));
  }

  // Refold/rescale attribution. The invariant-basis model never refolds a
  // chronological stream on its own, so every refold is kFoldedComponents
  // discarded folds per shard.rescale fire. Rescales are deterministic in
  // which scores succeeded: replay each session's successful scores in
  // prefix order and count the absorbed max-time moves.
  const uint64_t expected_refolds =
      kFoldedComponents * failpoint::FireCount("shard.rescale");
  if (metrics.state_refolds.load() != expected_refolds) {
    violation("state_refolds " + std::to_string(metrics.state_refolds.load()) +
              " != " + std::to_string(kFoldedComponents) + " x " +
              std::to_string(failpoint::FireCount("shard.rescale")) +
              " injected shard.rescale fires");
  }
  std::map<uint64_t, std::vector<int64_t>> ok_prefixes;
  for (const serve::ScoreResult& result : results) {
    if (result.status.ok()) {
      ok_prefixes[result.session_id].push_back(result.edges_scored);
    }
  }
  uint64_t expected_rescales = 0;
  for (auto& [session_id, prefixes] : ok_prefixes) {
    std::sort(prefixes.begin(), prefixes.end());
    int64_t finalized_edges = 0;
    double finalized_max = 0.0;
    for (const int64_t edges : prefixes) {
      const auto it = prefix_max.find({session_id, edges});
      if (it == prefix_max.end()) {
        continue;  // Unknown prefix: already reported by the oracle.
      }
      if (finalized_edges > 0 && finalized_max != it->second) {
        ++expected_rescales;
      }
      finalized_edges = edges;
      finalized_max = it->second;
    }
  }
  if (metrics.state_rescales.load() != expected_rescales) {
    violation("state_rescales " +
              std::to_string(metrics.state_rescales.load()) +
              " != simulated " + std::to_string(expected_rescales));
  }

  server.Stop();
  failpoint::ResetCounters();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t first_seed =
      static_cast<uint64_t>(FlagInt(argc, argv, "seed", 101));
  const int64_t num_seeds = FlagInt(argc, argv, "seeds", 3);
  const int64_t sessions = FlagInt(argc, argv, "sessions", 16);
  const std::string faults =
      FlagValue(argc, argv, "faults", kDefaultFaults);
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_chaos.json");

  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/19);
  mix.num_sessions = static_cast<uint64_t>(sessions);
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);

  failpoint::ClearAll();
  serve::ParityOracle oracle(SmallConfig(), kModelSeed);
  oracle.Record(stream.events);
  const PrefixMaxTable prefix_max = BuildPrefixMax(stream.events);
  std::printf("chaos: %llu sessions, %zu events, %llu score requests, "
              "faults=%s\n",
              static_cast<unsigned long long>(mix.num_sessions),
              stream.events.size(),
              static_cast<unsigned long long>(stream.scores), faults.c_str());

  std::vector<SeedOutcome> outcomes;
  size_t total_violations = 0;
  for (int64_t i = 0; i < num_seeds; ++i) {
    SeedOutcome outcome =
        RunChaosSeed(first_seed + static_cast<uint64_t>(i), faults, stream,
                     oracle, prefix_max);
    std::printf("  seed %llu: %llu fires, %llu ok / %llu failed scores, "
                "%.3fs — %s\n",
                static_cast<unsigned long long>(outcome.seed),
                static_cast<unsigned long long>(outcome.total_fires),
                static_cast<unsigned long long>(outcome.scores_ok),
                static_cast<unsigned long long>(outcome.scores_failed),
                outcome.wall_seconds,
                outcome.violations.empty() ? "OK" : "VIOLATIONS");
    for (const std::string& violation : outcome.violations) {
      std::fprintf(stderr, "    %s\n", violation.c_str());
    }
    total_violations += outcome.violations.size();
    outcomes.push_back(std::move(outcome));
  }

  std::ostringstream out;
  out << "{\"bench\": \"chaos\", \"faults\": \"" << faults << "\""
      << ", \"sessions\": " << mix.num_sessions
      << ", \"events\": " << stream.events.size()
      << ", \"score_requests\": " << stream.scores << ", "
      << tpgnn::bench::HostJsonFields()
      << ", \"violations\": " << total_violations << ", \"runs\": [";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SeedOutcome& o = outcomes[i];
    out << (i == 0 ? "" : ", ") << "{\"seed\": " << o.seed
        << ", \"fires\": " << o.total_fires
        << ", \"scores_ok\": " << o.scores_ok
        << ", \"scores_failed\": " << o.scores_failed
        << ", \"wall_seconds\": " << o.wall_seconds
        << ", \"violations\": " << o.violations.size() << "}";
  }
  out << "]}";
  std::ofstream file(json_path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  file << out.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (total_violations > 0) {
    std::fprintf(stderr, "chaos check failed: %zu invariant violations\n",
                 total_violations);
    return 1;
  }
  return 0;
}
