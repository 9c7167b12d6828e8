// Serving benchmark: drive the InferenceEngine flat-out with the
// PaperMixProfile stream, the traffic the engine_paper benchmark serves,
// through the load driver, and record sustained throughput plus latency
// percentiles.
//
// Headline runs use TimeBasis::kInvariant (the serving formulation: no
// refolds on monotone streams); the *_refold companions run the absolute
// basis so the cost the invariant basis removes stays visible. A
// long-session sweep charts per-score cost against session length: each
// run is a one-tenant stream of sessions with edges fixed at the length
// (8 nodes, a score every 16 edges; one session at 10,000 edges, enough
// sessions for 10,000 edges below that, so no row is a few microseconds
// of work) on an engine with max_batch = 1, so every score is served as
// soon as it arrives and observes the max time of its own prefix. Its
// Variant::kTime2Vec rows have no extractor, so the fold dominates: flat
// in length for the invariant basis, linear for the absolute one. Its
// Variant::kFull rows (SUM, up to 1000 edges) add the global extractor,
// which re-runs over every edge at each score.
//
// Runs the stream twice per configuration (warm-up + measured). Prints a
// human-readable table and writes a machine-readable record to
// BENCH_serve.json (TPGNN_BENCH_SERVE_JSON).
//
// Scale knobs: TPGNN_SERVE_SESSIONS (default 260), TPGNN_SERVE_SHARDS
// (default 4), TPGNN_SERVE_SWEEP_MAX (default 10000; caps the sweep's
// session length).
//
// Flags: --max_refolds=N (default 0) — the bench exits nonzero when an
// invariant-basis run reports more than N state_refolds. Generated
// sessions carry no out-of-order edges, so any refold is a regression of
// the O(1) contract. Absolute-basis *_refold runs are exempt (refolding is
// their point). It also exits nonzero when any event fails to ingest.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_host.h"
#include "core/model.h"
#include "serve/inference_engine.h"
#include "util/env.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace core = tpgnn::core;
namespace serve = tpgnn::serve;
namespace workload = tpgnn::workload;

namespace {

struct ServeMeasurement {
  std::string name;
  bool refold_gated = false;  // Invariant-basis run: the gate applies.
  workload::LoadReport report;
  serve::MetricsSnapshot metrics;

  double scores_per_second() const {
    return report.wall_seconds > 0.0
               ? report.scores_ok() / report.wall_seconds
               : 0.0;
  }
};

// Drives `events` through a fresh engine and keeps the driver's report
// with the engine's metrics snapshot.
ServeMeasurement Measure(const std::string& name,
                         const core::TpGnnConfig& config,
                         const std::vector<serve::Event>& events,
                         int num_shards, size_t max_batch) {
  serve::EngineOptions options;
  options.num_shards = num_shards;
  options.max_pending_scores = 256;
  options.max_batch = max_batch;
  serve::InferenceEngine engine(config, /*seed=*/1, options);
  ServeMeasurement m;
  m.name = name;
  m.refold_gated = config.time_basis == core::TimeBasis::kInvariant;
  m.report = workload::DriveEngine(engine, events);
  m.metrics = engine.metrics().Snapshot();
  return m;
}

// Sessions of `length` edges over 8 nodes, a score every 16 edges, enough
// of them for 10,000 edges. Edge times only grow, so every score sees a
// new max — the worst case for the absolute basis and the flat case for
// the invariant one.
std::vector<serve::Event> LongSessions(int64_t length) {
  workload::TenantProfile tenant;
  tenant.name = "long";
  tenant.min_edges = length;
  tenant.max_edges = length;
  tenant.min_nodes = 8;
  tenant.max_nodes = 8;
  tenant.score_every_edges = 16;
  workload::WorkloadOptions options;
  options.num_sessions = static_cast<uint64_t>(std::max<int64_t>(
      1, 10000 / length));
  options.tenants = {tenant};
  return workload::WorkloadGenerator::Draw(options).events;
}

std::string ToJsonLine(const ServeMeasurement& m) {
  std::ostringstream line;
  line << "{\"bench\": \"serve_" << m.name
       << "\", \"events\": " << m.report.events_applied
       << ", \"scores\": " << m.report.scores_ok()
       << ", \"wall_seconds\": " << m.report.wall_seconds
       << ", \"events_per_second\": " << m.report.events_per_second()
       << ", \"scores_per_second\": " << m.scores_per_second()
       << ", \"score_p50_us\": " << m.metrics.score_latency.PercentileMicros(0.5)
       << ", \"score_p95_us\": " << m.metrics.score_latency.PercentileMicros(0.95)
       << ", \"score_p99_us\": " << m.metrics.score_latency.PercentileMicros(0.99)
       << ", \"score_mean_us\": " << m.metrics.score_latency.mean_micros()
       << ", \"e2e_p50_us\": " << m.metrics.e2e_latency.PercentileMicros(0.5)
       << ", \"e2e_p95_us\": " << m.metrics.e2e_latency.PercentileMicros(0.95)
       << ", \"e2e_p99_us\": " << m.metrics.e2e_latency.PercentileMicros(0.99)
       << ", \"state_refolds\": " << m.metrics.state_refolds
       << ", \"state_rescales\": " << m.metrics.state_rescales << ", "
       << tpgnn::bench::HostJsonFields() << "}";
  return line.str();
}

}  // namespace

int main(int argc, char** argv) {
  int64_t max_refolds = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--max_refolds=", 14) == 0) {
      max_refolds = std::atoll(arg + 14);
    } else {
      std::fprintf(stderr, "unknown flag %s (supported: --max_refolds=N)\n",
                   arg);
      return 2;
    }
  }

  const int64_t sessions = tpgnn::GetEnvInt("TPGNN_SERVE_SESSIONS", 260);
  const int shards =
      static_cast<int>(tpgnn::GetEnvInt("TPGNN_SERVE_SHARDS", 4));
  const int64_t sweep_max =
      tpgnn::GetEnvInt("TPGNN_SERVE_SWEEP_MAX", 10000);

  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/17);
  mix.num_sessions = static_cast<uint64_t>(sessions);
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);
  std::printf("stream: %llu sessions, %zu events, %llu score requests, "
              "%d shards\n",
              static_cast<unsigned long long>(mix.num_sessions),
              stream.events.size(),
              static_cast<unsigned long long>(stream.scores), shards);

  std::vector<ServeMeasurement> measurements;
  for (const core::Updater updater :
       {core::Updater::kSum, core::Updater::kGru}) {
    for (const core::TimeBasis basis :
         {core::TimeBasis::kInvariant, core::TimeBasis::kAbsolute}) {
      core::TpGnnConfig config;
      config.updater = updater;
      config.time_basis = basis;
      std::string name = updater == core::Updater::kSum ? "sum" : "gru";
      if (basis == core::TimeBasis::kAbsolute) {
        name += "_refold";
      }
      Measure(name, config, stream.events, shards, 64);  // Warm-up.
      const ServeMeasurement m =
          Measure(name, config, stream.events, shards, 64);
      std::printf(
          "%-10s %10.0f events/s %9.0f scores/s  score p50/p95/p99 "
          "%5.0f/%5.0f/%5.0f us  e2e p99 %6.0f us  refolds %llu  "
          "rescales %llu\n",
          m.name.c_str(), m.report.events_per_second(), m.scores_per_second(),
          m.metrics.score_latency.PercentileMicros(0.5),
          m.metrics.score_latency.PercentileMicros(0.95),
          m.metrics.score_latency.PercentileMicros(0.99),
          m.metrics.e2e_latency.PercentileMicros(0.99),
          static_cast<unsigned long long>(m.metrics.state_refolds),
          static_cast<unsigned long long>(m.metrics.state_rescales));
      measurements.push_back(m);
    }
  }

  // Long-session sweep, every score served on arrival. The absolute basis
  // replays the whole session per max-moving score (O(length) per score);
  // the invariant basis rescales at finalize (O(1) in length). The full
  // model's extractor is O(length) per score in either basis; 10,000 edges
  // would re-run it over every edge 625 times, so its rows stop at 1000.
  std::printf("\nlong-session sweep (per-score mean us; flat = O(1)):\n");
  struct SweepSpec {
    core::Variant variant;
    core::Updater updater;
    int64_t max_length;
  };
  const SweepSpec specs[] = {
      {core::Variant::kTime2Vec, core::Updater::kSum, 10000},
      {core::Variant::kTime2Vec, core::Updater::kGru, 10000},
      {core::Variant::kFull, core::Updater::kSum, 1000}};
  for (const SweepSpec& spec : specs) {
    for (const core::TimeBasis basis :
         {core::TimeBasis::kInvariant, core::TimeBasis::kAbsolute}) {
      for (const int64_t length : {10LL, 100LL, 1000LL, 10000LL}) {
        if (length > sweep_max || length > spec.max_length) continue;
        core::TpGnnConfig config;
        config.updater = spec.updater;
        config.time_basis = basis;
        config.variant = spec.variant;
        config.embed_dim = 8;
        config.time_dim = 4;
        config.hidden_dim = 8;
        std::ostringstream name;
        name << "sweep_"
             << (spec.variant == core::Variant::kFull ? "full_" : "")
             << (spec.updater == core::Updater::kSum ? "sum" : "gru")
             << (basis == core::TimeBasis::kInvariant ? "" : "_refold") << "_"
             << length;
        const std::vector<serve::Event> events = LongSessions(length);
        Measure(name.str(), config, events, 1, 1);  // Warm-up.
        const ServeMeasurement m = Measure(name.str(), config, events, 1, 1);
        std::printf("%-27s %8.1f us/score  %9.0f events/s  refolds %llu\n",
                    m.name.c_str(), m.metrics.score_latency.mean_micros(),
                    m.report.events_per_second(),
                    static_cast<unsigned long long>(m.metrics.state_refolds));
        measurements.push_back(m);
      }
    }
  }

  const std::string path =
      tpgnn::GetEnvString("TPGNN_BENCH_SERVE_JSON", "BENCH_serve.json");
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

  // Gates: every event ingests, and an invariant-basis run over a
  // monotone stream does not refold (beyond the allowed budget for
  // deliberately disordered streams).
  bool gate_failed = false;
  for (const ServeMeasurement& m : measurements) {
    if (m.report.errors > 0) {
      std::fprintf(stderr, "INGEST GATE: %s: %llu failed ingests, first: %s\n",
                   m.name.c_str(),
                   static_cast<unsigned long long>(m.report.errors),
                   m.report.first_error.c_str());
      gate_failed = true;
    }
    if (m.refold_gated &&
        m.metrics.state_refolds > static_cast<uint64_t>(max_refolds)) {
      std::fprintf(stderr,
                   "REFOLD GATE: %s reported %llu state_refolds "
                   "(max_refolds=%lld)\n",
                   m.name.c_str(),
                   static_cast<unsigned long long>(m.metrics.state_refolds),
                   static_cast<long long>(max_refolds));
      gate_failed = true;
    }
  }
  return gate_failed ? 1 : 0;
}
