#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "graph/temporal_graph.h"
#include "serve/inference_engine.h"
#include "util/buffer_pool.h"
#include "workload/generator.h"

// Shared vocabulary of the benchmark's workloads (see NOTES.md).
//
// Every workload prints the same end-to-end metric names; per-layer
// metrics a workload never calls into are printed as 0 (no call, no time).

namespace perfbench {

using namespace tpgnn;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where span files go (inside the build tree).
  std::string work_dir = ".";
  // The checkpoint every serving engine loads (see WriteCheckpoint).
  std::string checkpoint;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  // Correctness failures; any entry makes the run exit nonzero with no
  // result line.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Run context, printed as a JSON line before the result: key -> JSON
  // value text (already quoted when it is a string).
  std::vector<std::pair<std::string, std::string>> context;

  void Fail(const std::string& what) { failures.push_back(what); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Context(const std::string& key, double value);
  void Context(const std::string& key, const std::string& text);
};

// The soak's engine options (bench/bench_soak.cc) and the default model
// config: SUM updater, TimeBasis::kAbsolute.
serve::EngineOptions SoakEngineOptions();
constexpr uint64_t kModelSeed = 7;
// Seed of the parameters the benchmark writes to a checkpoint and every
// engine loads with LoadSnapshot before serving.
constexpr uint64_t kCheckpointSeed = 11;

// Writes the default-config checkpoint the serving workloads load; returns
// the process exit status. Run in its own process, before any timed
// set-up, so set-up pays for plan compilation and cold allocation.
int WriteCheckpoint(const std::string& path);

// Deterministic parity sampling, a pure function of the session id.
bool SampledForParity(uint64_t session_id, uint64_t one_in);

// The prefix graph of a materialized session after `edges` edges.
graph::TemporalGraph PrefixGraph(const workload::MaterializedSession& session,
                                 int64_t edges);

// A served logit waiting for its offline re-score.
struct ParitySample {
  uint64_t session_index = 0;
  int64_t edges_scored = 0;
  float logit = 0.0f;
};

class Tracer;

// Adds the per-layer metrics every traced run shares: the core.* stage
// costs from the tracer's core spans, the tensor arena peak, and the
// buffer pool's peak and hit ratio between two pool snapshots. Then writes
// the spans to the work directory.
void AddSharedLayerMetrics(const RunArgs& args, const Tracer& tracer,
                           const util::BufferPoolStats& pool_before,
                           const util::BufferPoolStats& pool_after,
                           RunResult* result);

// Re-scores each sample offline through the model's public stages
// (propagation, extractor, classifier) and demands bitwise equality with
// the served logit. With a tracer, each stage is recorded as a span.
// `label` names the check in the context line and in failures.
void CheckParity(const std::string& label,
                 const workload::WorkloadGenerator& generator,
                 core::TpGnnModel& model,
                 const std::vector<ParitySample>& samples, Tracer* tracer,
                 RunResult* result);

// One measuring window of a run. Host noise on shared machines comes in
// bursts, so each end-to-end rate, cost and latency figure is computed per
// window and reported as the median over the run's windows.
struct Window {
  double events = 0.0;
  double graphs = 0.0;
  double busy_seconds = 0.0;
  double cpu_seconds = 0.0;
  size_t latency_begin = 0;  // [begin, end) of the run's latency samples.
  size_t latency_end = 0;
};

// The window between two running totals of a pass (both in Window form,
// with latency_end = samples so far); appended to `windows` when it holds
// any event.
void AppendWindow(const Window& mark, const Window& now,
                  std::vector<Window>* windows);

// Adds events_per_s, graphs_per_s, cpu_us_per_event, score_p50_us and
// score_p90_us (medians over `windows`) plus the sample counts behind them.
void AddWindowMetrics(const std::vector<Window>& windows,
                      const std::vector<double>& latency_us,
                      RunResult* result);

// Process-wide probes.
double ProcessCpuSeconds();
double PeakRssMb();
double NowSeconds();

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Exact percentile (nearest rank) of `values`; reorders them.
double Percentile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

RunResult RunEnginePaper(const RunArgs& args);
RunResult RunTrainSum(const RunArgs& args);

// Sends `seconds` of the engine_paper stream through a client, a router and
// two backends, recording every client call in `tracer`; checks the
// answers, adds the net.* and cluster.* per-layer metrics, and writes the
// spans next to the run's other span file.
void AddWireLegMetrics(const RunArgs& args, const core::TpGnnConfig& config,
                       double seconds, Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
