// Online-serving demo: drive the PaperMixProfile stream, the traffic the
// serving benches and the repository benchmark run, through the
// InferenceEngine with the load driver and report throughput and latency
// percentiles.
//
// Pairs with the quickstart's checkpoint flags for a two-step flow:
//
//   $ ./build/examples/quickstart --save_checkpoint=/tmp/tpgnn.ckpt
//   $ ./build/examples/serve_demo --checkpoint=/tmp/tpgnn.ckpt
//
// Without --checkpoint the engine serves a freshly initialized model (the
// plumbing is identical; the scores are just untrained). Session
// abandonment is off, so every session ends and none may stay resident.
// Exits nonzero when the snapshot is rejected, an event fails to ingest,
// no session was scored or a session leaked, so CI can use a run as a
// smoke test.
//
// Flags: --checkpoint=PATH  snapshot to serve (default: none)
//        --sessions=N       generated sessions (default 56)
//        --shards=N         session shards (default 4)

#include <cstdio>
#include <string>

#include "core/model.h"
#include "serve/inference_engine.h"
#include "util/flags.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace core = tpgnn::core;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

int main(int argc, char** argv) {
  const std::string checkpoint = FlagValue(argc, argv, "checkpoint", "");
  const int64_t num_sessions = FlagInt(argc, argv, "sessions", 56);
  const int64_t num_shards = FlagInt(argc, argv, "shards", 4);

  // The engine config must match the snapshot's; both use the quickstart's
  // paper-default SUM configuration.
  core::TpGnnConfig config;
  config.updater = core::Updater::kSum;

  serve::EngineOptions options;
  options.num_shards = static_cast<int>(num_shards);
  options.max_pending_scores = 256;
  options.max_batch = 64;
  serve::InferenceEngine engine(config, /*seed=*/1, options);

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

  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/99);
  mix.num_sessions = static_cast<uint64_t>(num_sessions);
  for (workload::TenantProfile& tenant : mix.tenants) {
    tenant.abandon_probability = 0.0;
  }
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);
  std::printf("driving %llu sessions / %zu events / %llu score requests\n",
              static_cast<unsigned long long>(mix.num_sessions),
              stream.events.size(),
              static_cast<unsigned long long>(stream.scores));

  const workload::LoadReport report =
      workload::DriveEngine(engine, stream.events);
  const size_t scored = report.scores_ok();

  const serve::MetricsSnapshot snap = engine.metrics().Snapshot();
  std::printf("%s\n", snap.ToString().c_str());
  std::printf("throughput: %.0f events/s, %.0f scores/s (wall %.3f s)\n",
              report.events_per_second(), scored / report.wall_seconds,
              report.wall_seconds);
  std::printf("resident sessions after shutdown: %zu\n",
              engine.resident_sessions());

  if (report.errors > 0) {
    std::fprintf(stderr, "smoke check failed: %llu failed ingests, first: %s\n",
                 static_cast<unsigned long long>(report.errors),
                 report.first_error.c_str());
    return 1;
  }
  if (scored == 0) {
    std::fprintf(stderr, "smoke check failed: no session was scored\n");
    return 1;
  }
  if (engine.resident_sessions() != 0) {
    std::fprintf(stderr, "smoke check failed: %zu sessions leaked\n",
                 engine.resident_sessions());
    return 1;
  }
  return 0;
}
