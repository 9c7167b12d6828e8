// Online-serving demo: replay a synthetic session dataset as one
// interleaved event stream through the InferenceEngine and report
// throughput, latency percentiles, and scoring accuracy.
//
// Pairs with the quickstart's checkpoint flags for a two-step flow:
//
//   $ ./build/examples/quickstart --save_checkpoint=/tmp/tpgnn.ckpt
//   $ ./build/examples/serve_demo --checkpoint=/tmp/tpgnn.ckpt
//
// Without --checkpoint the engine serves a freshly initialized model (the
// plumbing is identical; the scores are just untrained). Exits nonzero when
// no session was scored or the snapshot is rejected, so CI can use a run as
// a smoke test.
//
// Flags: --checkpoint=PATH  snapshot to serve (default: none)
//        --sessions=N       replayed sessions (default 40)
//        --score_every=N    mid-session score cadence in edges (default 8)
//        --shards=N         session shards (default 4)

#include <cstdio>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "serve/inference_engine.h"
#include "serve/replay.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace core = tpgnn::core;
namespace data = tpgnn::data;
namespace serve = tpgnn::serve;
using tpgnn::FlagInt;
using tpgnn::FlagValue;

int main(int argc, char** argv) {
  const std::string checkpoint = FlagValue(argc, argv, "checkpoint", "");
  const int64_t num_sessions = FlagInt(argc, argv, "sessions", 40);
  const int64_t score_every = FlagInt(argc, argv, "score_every", 8);
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

  // Same generator family as the quickstart's training set, held-out seed.
  tpgnn::graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), num_sessions, /*seed=*/99);
  serve::ReplayOptions replay_options;
  replay_options.session_start_interval = 0.5;
  replay_options.score_every_edges = score_every;
  serve::EventReplayer replayer(dataset, replay_options);
  std::printf("replaying %zu sessions / %zu events / %zu score requests\n",
              replayer.num_sessions(), replayer.events().size(),
              replayer.num_score_requests());

  std::vector<serve::ScoreResult> results;
  tpgnn::Stopwatch wall;
  for (const serve::Event& event : replayer.events()) {
    tpgnn::Status status = engine.Ingest(event);
    while (status.code() == tpgnn::StatusCode::kOverloaded) {
      // Backpressure: drain a micro-batch, then resubmit.
      engine.ProcessPending(&results);
      status = engine.Ingest(event);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (engine.pending_scores() >= options.max_batch) {
      engine.ProcessPending(&results);
    }
  }
  engine.Flush(&results);
  const double wall_seconds = wall.ElapsedSeconds();

  size_t scored = 0;
  size_t correct = 0;
  size_t labeled = 0;
  for (const serve::ScoreResult& r : results) {
    if (!r.status.ok()) continue;
    ++scored;
    if (r.label >= 0) {
      ++labeled;
      const int predicted = r.probability > 0.5f ? 1 : 0;
      if (predicted == r.label) ++correct;
    }
  }

  const serve::MetricsSnapshot snap = engine.metrics().Snapshot();
  std::printf("%s\n", snap.ToString().c_str());
  std::printf("throughput: %.0f events/s, %.0f scores/s (wall %.3f s)\n",
              snap.events_ingested / wall_seconds, scored / wall_seconds,
              wall_seconds);
  if (labeled > 0) {
    std::printf("final-score accuracy: %zu/%zu = %.1f%%\n", correct, labeled,
                100.0 * static_cast<double>(correct) /
                    static_cast<double>(labeled));
  }
  std::printf("resident sessions after shutdown: %zu\n",
              engine.resident_sessions());

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
