// train_sum: eval::TrainClassifier for TP-GNN-SUM on MakeDataset(HdfsSpec())
// with one thread and batch size 1 (the seed trainer). It exercises the
// autograd ops, tape and buffer recycling and nn code that serving never
// touches.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common.h"
#include "data/datasets.h"
#include "eval/trainer.h"
#include "nn/optimizer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "trace.h"
#include "util/buffer_pool.h"

namespace perfbench {

namespace {

constexpr int64_t kGraphs = 1000;  // HdfsSpec graphs per run.
// Each TrainClassifier call trains one slice of the dataset for one epoch;
// a call (and the scoring of its slice) is one measuring window.
constexpr int64_t kSliceGraphs = 125;
constexpr int64_t kWarmupGraphs = 256;
// rss_peak_mb is read once this many graphs were trained: the buffer pool
// keeps growing over a run, so a fixed amount of work (not of time) keeps
// the figure independent of host speed.
constexpr double kRssAfterGraphs = 1000;
constexpr size_t kSpanCapacity = 1u << 20;

// The golden configuration and per-epoch losses of
// tests/eval/golden_determinism_test.cc (scalar kernels, three epochs of the
// smallest HDFS configuration), checked within its relative tolerance.
// The traced run compares its own training loop with TrainClassifier
// within the same tolerance.
constexpr double kGoldenEpochLosses[3] = {0.71099739968776698,
                                          0.70415572524070735,
                                          0.70345779061317448};
constexpr double kGoldenRelTol = 1e-5;

bool WithinGoldenTolerance(double value, double golden) {
  return std::fabs(value - golden) <= kGoldenRelTol * std::fabs(golden) + 1e-12;
}

void CheckGolden(RunResult* result) {
  tensor::ScopedSimdMode scalar_mode(tensor::SimdMode::kScalar);
  const auto dataset = data::MakeDataset(data::HdfsSpec(), 40, /*seed=*/21);
  const auto split = data::SplitDataset(dataset, 0.5);
  core::TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  core::TpGnnModel model(config, /*seed=*/1);
  eval::TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 5e-3f;
  options.seed = 1;
  const auto losses = eval::TrainClassifier(model, split.train, options)
                          .epoch_losses;
  for (size_t e = 0; e < 3; ++e) {
    const double golden = kGoldenEpochLosses[e];
    if (e >= losses.size() || !WithinGoldenTolerance(losses[e], golden)) {
      result->Fail("golden: epoch " + std::to_string(e) + " loss " +
                   (e < losses.size() ? std::to_string(losses[e]) : "none") +
                   " is not within 1e-5 of " + std::to_string(golden));
    }
  }
}

eval::TrainOptions EpochOptions(uint64_t seed, int64_t epoch) {
  eval::TrainOptions options;  // Default learning rate and clipping.
  options.epochs = 1;
  options.seed = seed * 1000003ULL + static_cast<uint64_t>(epoch);
  options.batch_size = 1;
  options.num_threads = 1;
  return options;
}

struct System {
  graph::GraphDataset dataset;
  std::vector<graph::GraphDataset> slices;
  std::unique_ptr<core::TpGnnModel> model;
};

System SetUp(const RunArgs& args, Tracer* tracer) {
  System sys;
  const uint32_t span =
      tracer != nullptr ? tracer->Begin(SpanName::kDataMakeDataset) : 0;
  sys.dataset = data::MakeDataset(data::HdfsSpec(), kGraphs, args.seed);
  if (tracer != nullptr) {
    tracer->End(span, sys.dataset.size());
  }
  for (int64_t begin = 0; begin < kGraphs; begin += kSliceGraphs) {
    sys.slices.emplace_back(sys.dataset.begin() + begin,
                            sys.dataset.begin() + begin + kSliceGraphs);
  }
  sys.model = std::make_unique<core::TpGnnModel>(core::TpGnnConfig(),
                                                 kModelSeed);
  const graph::GraphDataset warmup(sys.dataset.begin(),
                                   sys.dataset.begin() + kWarmupGraphs);
  eval::TrainClassifier(*sys.model, warmup, EpochOptions(args.seed, -1));
  return sys;
}

double Edges(const graph::GraphDataset& dataset) {
  double edges = 0.0;
  for (const auto& sample : dataset) {
    edges += static_cast<double>(sample.graph.num_edges());
  }
  return edges;
}

struct TrainStats {
  int64_t calls = 0;
  double graphs = 0.0;
  double busy_seconds = 0.0;
  std::vector<double> losses;
  std::vector<Window> windows;
  std::vector<double> latency_us;
  double rss_mb = 0.0;  // Peak RSS once kRssAfterGraphs were trained.
};

std::vector<double> ScoreLatencies(System& sys, const graph::GraphDataset& set,
                                   Tracer* tracer);

// TrainClassifier calls, one slice each, until `seconds` of training time
// have passed; each slice is scored right after it is trained.
void TrainSlices(System& sys, uint64_t seed, double seconds,
                 TrainStats* stats) {
  while (stats->busy_seconds < seconds) {
    const graph::GraphDataset& slice =
        sys.slices[static_cast<size_t>(stats->calls) % sys.slices.size()];
    const double cpu0 = ProcessCpuSeconds();
    const double wall0 = NowSeconds();
    const auto losses = eval::TrainClassifier(*sys.model, slice,
                                              EpochOptions(seed, stats->calls))
                            .epoch_losses;
    Window w;
    w.busy_seconds = NowSeconds() - wall0;
    w.cpu_seconds = ProcessCpuSeconds() - cpu0;
    w.events = Edges(slice);
    w.graphs = static_cast<double>(slice.size());
    w.latency_begin = stats->latency_us.size();
    const std::vector<double> latency = ScoreLatencies(sys, slice, nullptr);
    stats->latency_us.insert(stats->latency_us.end(), latency.begin(),
                             latency.end());
    w.latency_end = stats->latency_us.size();
    stats->windows.push_back(w);
    stats->busy_seconds += w.busy_seconds;
    stats->graphs += w.graphs;
    stats->losses.insert(stats->losses.end(), losses.begin(), losses.end());
    ++stats->calls;
    if (stats->rss_mb == 0.0 && stats->graphs >= kRssAfterGraphs) {
      stats->rss_mb = PeakRssMb();
    }
  }
}

// The trainer's gradient clipping (eval/trainer.cc), so the traced loop
// below follows TrainClassifier; the traced run checks that it does.
void ClipGradNorm(std::vector<tensor::Tensor>& params, float clip_norm) {
  double total = 0.0;
  for (const tensor::Tensor& p : params) {
    for (float g : p.grad()) {
      total += static_cast<double>(g) * g;
    }
  }
  const double norm = std::sqrt(total);
  if (norm <= static_cast<double>(clip_norm) || norm == 0.0) {
    return;
  }
  const float scale = clip_norm / static_cast<float>(norm);
  for (tensor::Tensor& p : params) {
    for (float& g : p.MutableGrad()) {
      g *= scale;
    }
  }
}

// One epoch of the seed trainer's loop with its calls into core/nn/tensor
// timed as spans: ForwardLogit(training) + loss, Tensor::Backward, and
// Adam::Step (count = tape nodes the graph acquired).
double TracedEpoch(System& sys, const graph::GraphDataset& set,
                   const eval::TrainOptions& options, Tracer* tracer) {
  Rng rng(options.seed ^ 0x7261696e65724cULL);
  std::vector<tensor::Tensor> params = sys.model->TrainableParameters();
  nn::Adam optimizer(params, options.learning_rate);
  std::vector<size_t> order(set.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  double loss_sum = 0.0;
  for (size_t idx : order) {
    const graph::LabeledGraph& sample = set[idx];
    optimizer.ZeroGrad();
    const uint64_t nodes0 = util::GetBufferPoolStats().node_acquires;
    uint32_t span = tracer->Begin(SpanName::kTrainForward, idx);
    tensor::Tensor logit =
        sys.model->ForwardLogit(sample.graph, /*training=*/true, rng);
    tensor::Tensor loss = tensor::BinaryCrossEntropyWithLogits(
        logit, tensor::Tensor::Scalar(static_cast<float>(sample.label)));
    tracer->End(span);
    span = tracer->Begin(SpanName::kTrainBackward, idx);
    loss.Backward();
    tracer->End(span);
    ClipGradNorm(params, options.clip_norm);
    const uint64_t nodes = util::GetBufferPoolStats().node_acquires - nodes0;
    span = tracer->Begin(SpanName::kTrainStep, idx);
    optimizer.Step();
    tracer->End(span, nodes);
    loss_sum += static_cast<double>(loss.item());
  }
  return loss_sum / static_cast<double>(order.size());
}

// Per-graph inference latency of the trained model over `set`, each graph
// staged through propagation, extractor and classifier (traced runs record
// the stages as spans).
std::vector<double> ScoreLatencies(System& sys, const graph::GraphDataset& set,
                                   Tracer* tracer) {
  tensor::NoGradGuard no_grad;
  std::vector<double> micros;
  micros.reserve(set.size());
  for (size_t i = 0; i < set.size(); ++i) {
    const graph::TemporalGraph& g = set[i].graph;
    const int64_t t0 = Tracer::NowNs();
    const auto order = g.ChronologicalEdges();
    uint32_t span =
        tracer != nullptr ? tracer->Begin(SpanName::kCorePropagate, i) : 0;
    const tensor::Tensor h = sys.model->propagation().Forward(g, order);
    if (tracer != nullptr) {
      tracer->End(span, order.size());
      span = tracer->Begin(SpanName::kCoreExtract, i);
    }
    const tensor::Tensor embedding = sys.model->EmbedFromNodeStates(h, order);
    if (tracer != nullptr) {
      tracer->End(span, order.size());
      span = tracer->Begin(SpanName::kCoreClassify, i);
    }
    const float logit = sys.model->ClassifyEmbedding(embedding).item();
    if (tracer != nullptr) {
      tracer->End(span, 1);
    }
    micros.push_back(static_cast<double>(Tracer::NowNs() - t0) * 1e-3);
    if (!std::isfinite(logit)) {
      micros.back() = -1.0;  // CheckLosses flags it.
    }
  }
  return micros;
}

void CheckLosses(const std::vector<double>& losses,
                 const std::vector<double>& latencies, RunResult* result) {
  for (double loss : losses) {
    if (!std::isfinite(loss) || loss <= 0.0) {
      result->Fail("train: non-finite or non-positive epoch loss");
      return;
    }
  }
  for (double us : latencies) {
    if (us < 0.0) {
      result->Fail("train: the trained model scored a non-finite logit");
      return;
    }
  }
}

void CopyParameters(const core::TpGnnModel& from, core::TpGnnModel* to) {
  const std::vector<tensor::Tensor> source = from.Parameters();
  std::vector<tensor::Tensor> target = to->Parameters();
  for (size_t i = 0; i < source.size(); ++i) {
    std::vector<float>& data = target[i].MutableData();
    std::copy(source[i].data().begin(), source[i].data().end(), data.begin());
  }
}

}  // namespace

RunResult RunTrainSum(const RunArgs& args) {
  RunResult result;
  result.Context("dataset", "HDFS");
  result.Context("dataset_graphs", static_cast<double>(kGraphs));
  result.Context("batch_size", 1);
  result.Context("offered_rate", "closed_loop");

  if (!args.trace) {
    const double t0 = NowSeconds();
    System sys = SetUp(args, nullptr);
    const double setup_seconds = NowSeconds() - t0;
    TrainStats stats;
    TrainSlices(sys, args.seed, args.seconds, &stats);
    CheckLosses(stats.losses, stats.latency_us, &result);
    // After the timed part, so its model does not warm the set-up.
    CheckGolden(&result);
    result.attempted = static_cast<uint64_t>(stats.graphs);
    result.Add("setup_s", setup_seconds, "s");
    AddWindowMetrics(stats.windows, stats.latency_us, &result);
    result.Add("rss_peak_mb", stats.rss_mb > 0.0 ? stats.rss_mb : PeakRssMb(),
               "MB");
    result.Context("rss_after_graphs",
                   stats.rss_mb > 0.0 ? kRssAfterGraphs : stats.graphs);
    result.Context("train_calls", static_cast<double>(stats.calls));
    result.Context("input_edges", Edges(sys.dataset));
    result.Context("final_loss", stats.losses.back());
    return result;
  }

  // Traced run: two models train the same slices in alternation, one
  // through TrainClassifier untraced, the other through the traced loop,
  // which starts each call from the first model's parameters (Adam is fresh
  // per call in both). Their losses must agree within the golden
  // tolerance, and alternating makes host drift hit both rates alike.
  Tracer tracer(kSpanCapacity);
  System plain_sys = SetUp(args, &tracer);
  System traced_sys = SetUp(args, nullptr);
  const util::BufferPoolStats pool_before = util::GetBufferPoolStats();
  double graphs = 0.0;
  double plain_seconds = 0.0;
  double traced_seconds = 0.0;
  for (int64_t call = 0; traced_seconds < args.seconds / 2 && !tracer.full();
       ++call) {
    const size_t which = static_cast<size_t>(call) % plain_sys.slices.size();
    const eval::TrainOptions options = EpochOptions(args.seed, call);
    CopyParameters(*plain_sys.model, traced_sys.model.get());
    double t0 = NowSeconds();
    const double plain_loss =
        eval::TrainClassifier(*plain_sys.model, plain_sys.slices[which],
                              options)
            .epoch_losses.at(0);
    plain_seconds += NowSeconds() - t0;
    const uint32_t loop_span = tracer.Begin(SpanName::kLoop);
    t0 = NowSeconds();
    const double traced_loss =
        TracedEpoch(traced_sys, traced_sys.slices[which], options, &tracer);
    traced_seconds += NowSeconds() - t0;
    tracer.End(loop_span);
    graphs += static_cast<double>(plain_sys.slices[which].size());
    CheckLosses({plain_loss, traced_loss}, {}, &result);
    if (!WithinGoldenTolerance(traced_loss, plain_loss)) {
      result.Fail("traced training loop diverged from TrainClassifier at "
                  "call " + std::to_string(call) + ": loss " +
                  std::to_string(traced_loss) + " vs " +
                  std::to_string(plain_loss));
      break;
    }
  }
  const util::BufferPoolStats pool_after = util::GetBufferPoolStats();
  CheckLosses({}, ScoreLatencies(traced_sys, traced_sys.dataset, &tracer),
              &result);
  CheckGolden(&result);
  result.attempted = static_cast<uint64_t>(2 * graphs);

  const auto forward = tracer.Collect(SpanName::kTrainForward);
  const auto backward = tracer.Collect(SpanName::kTrainBackward);
  const auto step = tracer.Collect(SpanName::kTrainStep);
  const auto dataset = tracer.Collect(SpanName::kDataMakeDataset);
  AddSharedLayerMetrics(args, tracer, pool_before, pool_after, &result);
  result.Add("train.forward_us", forward.mean_ns() * 1e-3, "us");
  result.Add("train.backward_us", backward.mean_ns() * 1e-3, "us");
  result.Add("train.step_us", step.mean_ns() * 1e-3, "us");
  result.Add("train.tape_nodes_per_graph",
             Ratio(step.total_count, step.spans), "count");
  result.Add("data.dataset_ms", dataset.mean_ns() * 1e-6, "ms");
  result.Add("trace.overhead_frac", traced_seconds / plain_seconds - 1.0,
             "ratio");
  return result;
}

}  // namespace perfbench
