// Benchmark binary: runs one workload for a fixed number of seconds,
// checks its outputs, and prints a context line plus one result line of
// JSON. perfbench/run.py builds this and forwards its arguments:
//
//   perfbench --workload engine_paper|train_sum --seed N
//             --seconds S --trace 0|1 --checkpoint PATH [--work_dir DIR]
//             [--git_sha SHA]
//
// engine_paper loads PATH, which an earlier process wrote with
//
//   perfbench --write_checkpoint PATH
//
// so that no model is built (and no plan compiled) before the timed
// set-up. Exit status is nonzero, with no result line, when any
// correctness check fails.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "nn/checkpoint.h"
#include "tensor/executor.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "trace.h"
#include "util/resource.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

// End-to-end metrics, printed on every workload with tracing off.
const Metric kEndToEnd[] = {
    {"setup_s", 0, "s"},
    {"events_per_s", 0, "1/s"},
    {"graphs_per_s", 0, "1/s"},
    {"cpu_us_per_event", 0, "us"},
    {"score_p50_us", 0, "us"},
    {"score_p90_us", 0, "us"},
    {"rss_peak_mb", 0, "MB"},
};

// Per-layer metrics, printed on every workload with tracing on; a layer
// the workload never calls reads 0.
const Metric kPerLayer[] = {
    {"serve.ingest_edge_ns", 0, "ns"},
    {"serve.ingest_begin_us", 0, "us"},
    {"serve.pump_us", 0, "us"},
    {"serve.pump_batch", 0, "count"},
    {"util.pool_busy_frac", 0, "ratio"},
    {"serve.score_us_p50", 0, "us"},
    {"serve.queue_us_p50", 0, "us"},
    {"serve.refolds_per_score", 0, "ratio"},
    {"serve.rescales_per_score", 0, "ratio"},
    {"serve.evicted_frac", 0, "ratio"},
    {"serve.overload_frac", 0, "ratio"},
    {"core.propagate_ns_per_edge", 0, "ns"},
    {"core.extract_ns_per_edge", 0, "ns"},
    {"core.classify_us", 0, "us"},
    {"tensor.arena_kb_peak", 0, "KB"},
    {"util.pool_mb_peak", 0, "MB"},
    {"util.buffer_hit_ratio", 0, "ratio"},
    {"net.ingest_rtt_us_p50", 0, "us"},
    {"net.bytes_per_event", 0, "bytes"},
    {"net.encode_ns_per_event", 0, "ns"},
    {"net.decode_ns_per_event", 0, "ns"},
    {"cluster.hop_us_p50", 0, "us"},
    {"cluster.runs_per_batch", 0, "count"},
    {"train.forward_us", 0, "us"},
    {"train.backward_us", 0, "us"},
    {"train.step_us", 0, "us"},
    {"train.tape_nodes_per_graph", 0, "count"},
    {"data.dataset_ms", 0, "ms"},
    {"trace.coverage", 0, "ratio"},
    {"trace.overhead_frac", 0, "ratio"},
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Both workloads run the global pool at size 1 (every ParallelFor inline on
// the caller). With 2 threads, engine_paper's wall-clock rate swung
// 111k-212k events/s over ten busy-host runs (IQR/median 0.37) at a steady
// 6.8-7.7 us CPU/event: the caller waited on a worker whose vCPU the host
// had descheduled. 4 threads spread more than 2 in earlier probes.
constexpr int kPoolThreads = 1;

}  // namespace

void RunResult::Context(const std::string& key, double value) {
  context.emplace_back(key, JsonNumber(value));
}

void RunResult::Context(const std::string& key, const std::string& text) {
  context.emplace_back(key, JsonString(text));
}

serve::EngineOptions SoakEngineOptions() {
  serve::EngineOptions options;
  options.num_shards = 8;
  options.max_resident_sessions = 4096;
  options.idle_ttl_seconds = 30.0;
  options.max_pending_scores = 512;
  options.max_batch = 128;
  return options;
}

int WriteCheckpoint(const std::string& path) {
  const core::TpGnnConfig config;
  core::TpGnnModel model(config, kCheckpointSeed);
  if (Status s = nn::SaveParameters(model, path, core::ConfigMetadata(config));
      !s.ok()) {
    std::fprintf(stderr, "cannot write checkpoint %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}

bool SampledForParity(uint64_t session_id, uint64_t one_in) {
  uint64_t state = session_id ^ 0x7065726662656e63ULL;
  return SplitMix64(state) % one_in == 0;
}

graph::TemporalGraph PrefixGraph(const workload::MaterializedSession& session,
                                 int64_t edges) {
  graph::TemporalGraph prefix(session.num_nodes, session.feature_dim);
  for (int64_t node = 0; node < session.num_nodes; ++node) {
    prefix.SetNodeFeature(node, session.features[static_cast<size_t>(node)]);
  }
  for (int64_t k = 0; k < edges; ++k) {
    const auto& e = session.edges[static_cast<size_t>(k)];
    prefix.AddEdge(e.src, e.dst, e.time);
  }
  return prefix;
}

void CheckParity(const std::string& label,
                 const workload::WorkloadGenerator& generator,
                 core::TpGnnModel& model,
                 const std::vector<ParitySample>& samples, Tracer* tracer,
                 RunResult* result) {
  tensor::NoGradGuard no_grad;
  size_t mismatches = 0;
  for (const ParitySample& sample : samples) {
    const workload::MaterializedSession session =
        generator.MaterializeSession(sample.session_index);
    if (sample.edges_scored < 0 ||
        static_cast<size_t>(sample.edges_scored) > session.edges.size()) {
      ++mismatches;
      continue;
    }
    const graph::TemporalGraph prefix =
        PrefixGraph(session, sample.edges_scored);
    const auto order = prefix.ChronologicalEdges();
    const uint64_t edges = order.size();
    // The offline forward, staged exactly as TpGnnModel::ForwardLogit
    // composes it in inference mode.
    uint32_t span = tracer != nullptr
                        ? tracer->Begin(SpanName::kCorePropagate,
                                        session.session_id)
                        : 0;
    const tensor::Tensor h = model.propagation().Forward(prefix, order);
    if (tracer != nullptr) {
      tracer->End(span, edges);
      span = tracer->Begin(SpanName::kCoreExtract, session.session_id);
    }
    const tensor::Tensor g = model.EmbedFromNodeStates(h, order);
    if (tracer != nullptr) {
      tracer->End(span, edges);
      span = tracer->Begin(SpanName::kCoreClassify, session.session_id);
    }
    const float offline = model.ClassifyEmbedding(g).item();
    if (tracer != nullptr) {
      tracer->End(span, 1);
    }
    if (std::memcmp(&offline, &sample.logit, sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  result->Context(label + "_checks", static_cast<double>(samples.size()));
  if (samples.empty()) {
    result->Fail(label + ": no served score was sampled for the check");
  }
  if (mismatches > 0) {
    result->Fail(label + ": " + std::to_string(mismatches) + " of " +
                 std::to_string(samples.size()) +
                 " sampled served logits differ from the offline forward");
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  return static_cast<double>(util::PeakRssKb()) / 1024.0;
}

double NowSeconds() { return static_cast<double>(Tracer::NowNs()) * 1e-9; }

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

void AppendWindow(const Window& mark, const Window& now,
                  std::vector<Window>* windows) {
  Window w;
  w.events = now.events - mark.events;
  w.graphs = now.graphs - mark.graphs;
  w.busy_seconds = now.busy_seconds - mark.busy_seconds;
  w.cpu_seconds = now.cpu_seconds - mark.cpu_seconds;
  w.latency_begin = mark.latency_end;
  w.latency_end = now.latency_end;
  if (w.events > 0.0) {
    windows->push_back(w);
  }
}

void AddSharedLayerMetrics(const RunArgs& args, const Tracer& tracer,
                           const util::BufferPoolStats& pool_before,
                           const util::BufferPoolStats& pool_after,
                           RunResult* result) {
  const auto propagate = tracer.Collect(SpanName::kCorePropagate);
  const auto extract = tracer.Collect(SpanName::kCoreExtract);
  const auto classify = tracer.Collect(SpanName::kCoreClassify);
  result->Add("core.propagate_ns_per_edge",
              Ratio(propagate.total_ns, propagate.total_count), "ns");
  result->Add("core.extract_ns_per_edge",
              Ratio(extract.total_ns, extract.total_count), "ns");
  result->Add("core.classify_us", classify.mean_ns() * 1e-3, "us");
  result->Add("tensor.arena_kb_peak",
              static_cast<double>(tensor::plan::ArenaBytesPeak()) / 1024.0,
              "KB");
  result->Add("util.pool_mb_peak",
              static_cast<double>(pool_after.bytes_peak) / (1024.0 * 1024.0),
              "MB");
  result->Add("util.buffer_hit_ratio",
              Ratio(static_cast<double>(pool_after.pool_hits -
                                        pool_before.pool_hits),
                    static_cast<double>(pool_after.acquires -
                                        pool_before.acquires)),
              "ratio");
  result->Add("trace.coverage", tracer.Coverage(), "ratio");
  result->Context("spans", static_cast<double>(tracer.spans().size()));
  const std::string path =
      args.work_dir + "/spans_" + args.workload + ".csv";
  if (!tracer.Write(path)) {
    result->Fail("cannot write " + path);
  }
  result->Context("span_file", path);
}

void AddWindowMetrics(const std::vector<Window>& windows,
                      const std::vector<double>& latency_us,
                      RunResult* result) {
  std::vector<double> events_per_s, graphs_per_s, cpu_us, p50, p90, samples;
  for (const Window& w : windows) {
    if (w.busy_seconds <= 0.0 || w.events <= 0.0) {
      continue;
    }
    events_per_s.push_back(w.events / w.busy_seconds);
    graphs_per_s.push_back(w.graphs / w.busy_seconds);
    cpu_us.push_back(w.cpu_seconds * 1e6 / w.events);
    std::vector<double> latency(latency_us.begin() + w.latency_begin,
                                latency_us.begin() + w.latency_end);
    if (!latency.empty()) {
      samples.push_back(static_cast<double>(latency.size()));
      p50.push_back(Percentile(latency, 0.5));
      p90.push_back(Percentile(latency, 0.9));
    }
  }
  result->Add("events_per_s", Median(events_per_s), "1/s");
  result->Add("graphs_per_s", Median(graphs_per_s), "1/s");
  result->Add("cpu_us_per_event", Median(cpu_us), "us");
  result->Add("score_p50_us", Median(p50), "us");
  result->Add("score_p90_us", Median(p90), "us");
  result->Context("windows", static_cast<double>(events_per_s.size()));
  result->Context("score_windows", static_cast<double>(p50.size()));
  result->Context("score_samples_per_window_median", Median(samples));
  result->Context("score_samples", static_cast<double>(latency_us.size()));
}

}  // namespace perfbench

namespace {

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) {
      return argv[i + 1];
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (const std::string path = Flag(argc, argv, "write_checkpoint", "");
      !path.empty()) {
    return WriteCheckpoint(path);
  }
  RunArgs args;
  args.workload = Flag(argc, argv, "workload", "");
  args.work_dir = Flag(argc, argv, "work_dir", ".");
  args.checkpoint = Flag(argc, argv, "checkpoint", "");
  try {
    args.seed = std::stoull(Flag(argc, argv, "seed", "1"));
    args.seconds = std::stod(Flag(argc, argv, "seconds", "10"));
    args.trace = std::stoi(Flag(argc, argv, "trace", "0")) != 0;
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad --seed/--seconds/--trace value\n");
    return 2;
  }
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  RunResult (*run)(const RunArgs&) = nullptr;
  if (args.workload == "engine_paper") run = RunEnginePaper;
  if (args.workload == "train_sum") run = RunTrainSum;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.checkpoint.empty() && args.workload == "engine_paper") {
    std::fprintf(stderr, "--checkpoint is required for %s\n",
                 args.workload.c_str());
    return 2;
  }

  // The global pool reads its size once, at first use.
  const int pool_threads = kPoolThreads;
  setenv("TPGNN_NUM_THREADS", std::to_string(pool_threads).c_str(), 1);
  if (tpgnn::ThreadPool::Global().num_threads() != pool_threads) {
    std::fprintf(stderr, "pool did not resolve to %d threads\n", pool_threads);
    return 1;
  }

  RunResult result = run(args);

  std::ostringstream context;
  context << "{\"context\": {\"workload\": " << JsonString(args.workload)
          << ", \"seed\": " << args.seed
          << ", \"seconds\": " << JsonNumber(args.seconds)
          << ", \"trace\": " << (args.trace ? 1 : 0)
          << ", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"simd_mode\": "
          << JsonString(tpgnn::tensor::SimdModeName(
                 tpgnn::tensor::ActiveSimdMode()))
          << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
          << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
          << ", \"git_sha\": "
          << JsonString(Flag(argc, argv, "git_sha", "unknown"))
          << ", \"pool_threads\": " << pool_threads
          << ", \"attempted\": " << result.attempted
          << ", \"failed\": " << result.failed << ", \"failed_frac\": "
          << JsonNumber(result.attempted > 0
                            ? static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted)
                            : 0.0);
  for (const auto& [key, value] : result.context) {
    context << ", " << JsonString(key) << ": " << value;
  }
  context << "}}";
  std::printf("%s\n", context.str().c_str());

  if (!result.failures.empty()) {
    for (const std::string& failure : result.failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    }
    return 1;
  }

  // Every declared metric, in declaration order, with its declared unit.
  std::map<std::string, const Metric*> measured;
  for (const Metric& m : result.metrics) {
    measured[m.name] = &m;
  }
  std::ostringstream line;
  line << "{\"correct\": true, \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  size_t used = 0;
  auto emit = [&](const Metric& declared, bool required) {
    const auto it = measured.find(declared.name);
    if (it == measured.end() && required) {
      std::fprintf(stderr, "metric %s was not measured\n",
                   declared.name.c_str());
      std::exit(1);
    }
    if (it != measured.end()) {
      ++used;
      if (it->second->unit != declared.unit) {
        std::fprintf(stderr, "metric %s measured in %s, declared in %s\n",
                     declared.name.c_str(), it->second->unit.c_str(),
                     declared.unit.c_str());
        std::exit(1);
      }
    }
    const double value = it != measured.end() ? it->second->value : 0.0;
    line << (first ? "" : ", ") << JsonString(declared.name)
         << ": {\"value\": " << JsonNumber(value)
         << ", \"unit\": " << JsonString(declared.unit) << "}";
    first = false;
  };
  if (args.trace) {
    for (const Metric& m : kPerLayer) emit(m, false);
  } else {
    for (const Metric& m : kEndToEnd) emit(m, true);
  }
  if (used != result.metrics.size()) {
    std::fprintf(stderr, "workload measured a metric that is not declared\n");
    return 1;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}
