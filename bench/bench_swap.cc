// Hot-swap benchmark: drive the InferenceEngine with the PaperMixProfile
// stream through the load driver and roll a new model version in
// mid-stream, measuring what
// the swap costs the serving path and gating the lifecycle invariants
// (DESIGN.md §4.8):
//
//   * mixed_version_scores must be exactly 0 — a session begun under
//     version A never mixes A's folded state with B's classifier head, under
//     either SwapPolicy.
//   * Score p99 inside the swap window must stay bounded relative to the
//     steady-state p99 (the swap is an atomic pointer move; kImmediateRebase
//     additionally refolds each live session on its next touch, which is the
//     cost this bench makes visible).
//   * A shadow version with the primary's seed must re-score every primary
//     score bit-identically (shadow_delta_max == 0) with zero failures —
//     the exactly-once attribution check, off the client-visible path.
//
// Three runs: swap_drain (SwapPolicy::kDrain), swap_rebase
// (SwapPolicy::kImmediateRebase, v2 loaded from a real checkpoint file so
// the load path is exercised too), and shadow (no swap; shadow scoring
// enabled for the whole stream to price the off-hot-path re-score).
//
// Writes BENCH_swap.json (TPGNN_BENCH_SWAP_JSON); check_bench.py gates the
// record with --require-zero mixed_version_scores. Scale knobs:
// TPGNN_SWAP_SESSIONS (default 240), TPGNN_SWAP_SHARDS (default 4).
//
// Flags: --max_p99_multiple=N (default 25) — the swap-window p99 may exceed
// the pre-swap steady-state p99 by at most this factor (with a 2 ms absolute
// floor so micro-latency jitter on fast machines cannot trip the gate).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_host.h"
#include "core/config.h"
#include "core/model.h"
#include "model/registry.h"
#include "nn/checkpoint.h"
#include "serve/inference_engine.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace core = tpgnn::core;
namespace model = tpgnn::model;
namespace nn = tpgnn::nn;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;

namespace {

constexpr uint64_t kPrimarySeed = 1;
constexpr uint64_t kV2Seed = 2;

// Which lifecycle action a run performs mid-stream.
enum class Mode { kSwapDrain, kSwapRebase, kShadow };

struct SwapMeasurement {
  std::string name;
  size_t events = 0;
  size_t scores = 0;
  uint64_t errors = 0;  // Failed ingests.
  double wall_seconds = 0.0;
  double steady_p99_us = 0.0;  // Score p99 before the swap point.
  double swap_p99_us = 0.0;    // Score p99 inside the swap window.
  serve::MetricsSnapshot metrics;

  double events_per_second() const {
    return wall_seconds > 0.0 ? events / wall_seconds : 0.0;
  }
};

// Drives `events` through a fresh engine in four segments: at one third
// of the stream the v2 checkpoint is MODEL_LOADed, at two thirds it is
// activated under the run's SwapPolicy (Mode::kShadow instead registers a
// primary-seed shadow up front and never swaps). Each segment ends with
// the driver's flush, so the pre-swap snapshot covers every steady-state
// score; the swap window covers the activation plus the next sixth of the
// stream.
SwapMeasurement RunSwapStream(Mode mode, const std::string& name,
                              const core::TpGnnConfig& config,
                              const std::vector<serve::Event>& events,
                              int num_shards,
                              const std::string& checkpoint_path) {
  serve::EngineOptions options;
  options.num_shards = num_shards;
  options.max_pending_scores = 256;
  options.max_batch = 64;
  serve::InferenceEngine engine(config, kPrimarySeed, options);

  if (mode == Mode::kShadow) {
    TPGNN_CHECK(engine.registry().Register("shadow", kPrimarySeed).ok());
    TPGNN_CHECK(engine.registry().SetShadow("shadow").ok());
  }

  const std::span<const serve::Event> stream(events);
  const size_t load_at = events.size() / 3;
  const size_t swap_at = 2 * events.size() / 3;
  const size_t window_end = swap_at + events.size() / 6;

  SwapMeasurement m;
  m.name = name;
  auto drive = [&](size_t begin, size_t end) {
    const workload::LoadReport report =
        workload::DriveEngine(engine, stream.subspan(begin, end - begin));
    m.events += report.events_applied;
    m.scores += report.scores_ok();
    m.errors += report.errors;
  };
  serve::MetricsSnapshot pre_swap;
  serve::MetricsSnapshot post_window;
  tpgnn::Stopwatch wall;
  if (mode == Mode::kShadow) {
    drive(0, events.size());
  } else {
    drive(0, load_at);
    tpgnn::Status loaded = engine.LoadModelVersion("v2", checkpoint_path);
    TPGNN_CHECK(loaded.ok()) << loaded.ToString();
    drive(load_at, swap_at);
    pre_swap = engine.metrics().Snapshot();
    const model::SwapPolicy policy = mode == Mode::kSwapRebase
                                         ? model::SwapPolicy::kImmediateRebase
                                         : model::SwapPolicy::kDrain;
    tpgnn::Status activated = engine.ActivateModel("v2", policy);
    TPGNN_CHECK(activated.ok()) << activated.ToString();
    drive(swap_at, window_end);
    post_window = engine.metrics().Snapshot();
    drive(window_end, events.size());
  }
  m.wall_seconds = wall.ElapsedSeconds();
  m.metrics = engine.metrics().Snapshot();
  if (mode != Mode::kShadow) {
    m.steady_p99_us = pre_swap.score_latency.PercentileMicros(0.99);
    m.swap_p99_us = post_window.score_latency.Since(pre_swap.score_latency)
                        .PercentileMicros(0.99);
  }
  return m;
}

std::string ToJsonLine(const SwapMeasurement& m) {
  std::ostringstream line;
  line << "{\"bench\": \"swap_" << m.name
       << "\", \"events\": " << m.events
       << ", \"scores\": " << m.scores
       << ", \"wall_seconds\": " << m.wall_seconds
       << ", \"events_per_second\": " << m.events_per_second()
       << ", \"score_p50_us\": " << m.metrics.score_latency.PercentileMicros(0.5)
       << ", \"score_p99_us\": " << m.metrics.score_latency.PercentileMicros(0.99)
       << ", \"steady_p99_us\": " << m.steady_p99_us
       << ", \"swap_p99_us\": " << m.swap_p99_us
       << ", \"mixed_version_scores\": " << m.metrics.mixed_version_scores
       << ", \"version_rebases\": " << m.metrics.version_rebases
       << ", \"model_loads\": " << m.metrics.model_loads
       << ", \"model_activations\": " << m.metrics.model_activations
       << ", \"shadow_scores\": " << m.metrics.shadow_scores
       << ", \"shadow_failures\": " << m.metrics.shadow_failures
       << ", \"shadow_delta_max\": " << m.metrics.shadow_delta_max
       << ", \"shadow_p99_us\": "
       << m.metrics.shadow_latency.PercentileMicros(0.99) << ", "
       << tpgnn::bench::HostJsonFields() << "}";
  return line.str();
}

}  // namespace

int main(int argc, char** argv) {
  double max_p99_multiple = 25.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--max_p99_multiple=", 19) == 0) {
      max_p99_multiple = std::atof(arg + 19);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --max_p99_multiple=N)\n", arg);
      return 2;
    }
  }

  const int64_t sessions = tpgnn::GetEnvInt("TPGNN_SWAP_SESSIONS", 240);
  const int shards = static_cast<int>(tpgnn::GetEnvInt("TPGNN_SWAP_SHARDS", 4));

  core::TpGnnConfig config;  // Serving formulation: invariant time basis.
  config.time_basis = core::TimeBasis::kInvariant;

  // The v2 checkpoint the swap runs load mid-stream: a real file so the
  // bench exercises the same pre-flight + LoadParameters path as MODEL_LOAD.
  const std::string ckpt_path = tpgnn::GetEnvString(
      "TPGNN_SWAP_CKPT", "bench_swap_ckpt_v2.tmp");
  {
    core::TpGnnModel v2(config, kV2Seed);
    tpgnn::Status saved =
        nn::SaveParameters(v2, ckpt_path, core::ConfigMetadata(config));
    TPGNN_CHECK(saved.ok()) << saved.ToString();
  }

  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/17);
  mix.num_sessions = static_cast<uint64_t>(sessions);
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);
  std::printf("stream: %llu sessions, %zu events, %llu score requests, "
              "%d shards\n",
              static_cast<unsigned long long>(mix.num_sessions),
              stream.events.size(),
              static_cast<unsigned long long>(stream.scores), shards);

  struct RunSpec {
    Mode mode;
    const char* name;
  };
  const RunSpec specs[] = {{Mode::kSwapDrain, "drain"},
                           {Mode::kSwapRebase, "rebase"},
                           {Mode::kShadow, "shadow"}};

  std::vector<SwapMeasurement> measurements;
  for (const RunSpec& spec : specs) {
    RunSwapStream(spec.mode, spec.name, config, stream.events, shards,
                  ckpt_path);  // Warm-up.
    const SwapMeasurement m = RunSwapStream(spec.mode, spec.name, config,
                                            stream.events, shards, ckpt_path);
    std::printf(
        "%-8s %10.0f events/s  score p50/p99 %5.0f/%5.0f us  "
        "steady p99 %5.0f us  swap p99 %5.0f us  mixed %llu  rebases %llu  "
        "shadow %llu (max delta %.3g)\n",
        m.name.c_str(), m.events_per_second(),
        m.metrics.score_latency.PercentileMicros(0.5),
        m.metrics.score_latency.PercentileMicros(0.99), m.steady_p99_us,
        m.swap_p99_us,
        static_cast<unsigned long long>(m.metrics.mixed_version_scores),
        static_cast<unsigned long long>(m.metrics.version_rebases),
        static_cast<unsigned long long>(m.metrics.shadow_scores),
        m.metrics.shadow_delta_max);
    measurements.push_back(m);
  }
  std::remove(ckpt_path.c_str());

  const std::string path =
      tpgnn::GetEnvString("TPGNN_BENCH_SWAP_JSON", "BENCH_swap.json");
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "[\n";
  for (size_t i = 0; i < measurements.size(); ++i) {
    out << "  " << ToJsonLine(measurements[i])
        << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::printf("wrote %s\n", path.c_str());

  // Gates. Mixed-version scores are a hard zero under every policy; the
  // swap window's p99 may not blow past the steady-state p99 (2 ms floor
  // absorbs scheduler jitter on runs whose steady p99 is a few µs).
  bool gate_failed = false;
  for (const SwapMeasurement& m : measurements) {
    if (m.errors != 0) {
      std::fprintf(stderr, "SWAP GATE: %s: %llu failed ingests\n",
                   m.name.c_str(), static_cast<unsigned long long>(m.errors));
      gate_failed = true;
    }
    if (m.metrics.mixed_version_scores != 0) {
      std::fprintf(stderr, "SWAP GATE: %s reported %llu mixed_version_scores\n",
                   m.name.c_str(),
                   static_cast<unsigned long long>(
                       m.metrics.mixed_version_scores));
      gate_failed = true;
    }
    if (m.swap_p99_us > 0.0) {
      const double bound =
          std::max(2000.0, max_p99_multiple * m.steady_p99_us);
      if (m.swap_p99_us > bound) {
        std::fprintf(stderr,
                     "SWAP GATE: %s swap-window p99 %.0f us exceeds bound "
                     "%.0f us (steady p99 %.0f us, multiple %.1f)\n",
                     m.name.c_str(), m.swap_p99_us, bound, m.steady_p99_us,
                     max_p99_multiple);
        gate_failed = true;
      }
    }
    if (m.name == "shadow") {
      // Primary-seed shadow: bit-identical re-score of every primary score.
      if (m.metrics.shadow_scores != m.metrics.scores_completed ||
          m.metrics.shadow_failures != 0 ||
          m.metrics.shadow_delta_max != 0.0) {
        std::fprintf(stderr,
                     "SWAP GATE: shadow parity violated (shadow %llu of %llu "
                     "scores, %llu failures, max delta %.9g)\n",
                     static_cast<unsigned long long>(m.metrics.shadow_scores),
                     static_cast<unsigned long long>(
                         m.metrics.scores_completed),
                     static_cast<unsigned long long>(
                         m.metrics.shadow_failures),
                     m.metrics.shadow_delta_max);
        gate_failed = true;
      }
    }
  }
  return gate_failed ? 1 : 0;
}
