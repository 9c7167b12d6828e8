// engine_paper: a closed loop of PaperMixProfile sessions through one
// in-process serve::InferenceEngine (the soak's engine options, the
// default SUM / kAbsolute config, a 1-thread pool). Serve, core and tensor
// do nearly all the work here; net and cluster do none. The traced run
// also sends a slice of the same stream over the wire (wire_leg.cc) to time
// the net and cluster layers.

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common.h"
#include "trace.h"
#include "util/buffer_pool.h"
#include "util/thread_pool.h"
#include "workload/profiles.h"

namespace perfbench {

namespace {

// Events generated per chunk; generation happens between timed chunks so
// the figures hold only engine time, and input memory stays bounded.
constexpr size_t kChunk = 4096;
// Chunks per measuring window (about a quarter second).
constexpr uint64_t kWindowChunks = 16;
// rss_peak_mb is read once this many events have been served: the buffer
// pool and allocator keep growing over a run, so a fixed amount of work
// (not of time) keeps the figure independent of host speed.
constexpr uint64_t kRssAfterEvents = 200000;
// The fixed warm-up prefix every set-up serves.
constexpr uint64_t kWarmupEvents = 60000;
constexpr uint64_t kParityOneIn = 64;
constexpr size_t kMaxParitySamples = 256;
constexpr int kMaxOverloadRetries = 64;
constexpr size_t kSpanCapacity = 1u << 20;
constexpr double kTraceWindowSeconds = 0.25;
// Share of a traced run given to the in-process engine; the wire leg gets
// the rest.
constexpr double kEngineShare = 0.75;
constexpr size_t kWireSpanCapacity = 1u << 16;

struct LoopStats {
  uint64_t events = 0;
  uint64_t scores_ok = 0;
  uint64_t failed = 0;
  uint64_t overloaded = 0;  // kOverloaded returns, retried or not.
  double busy_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> latency_us;
  std::vector<Window> windows;
  std::vector<double> score_us;  // Traced passes only.
  std::vector<double> queue_us;  // Traced passes only.
};

// The closed loop over one engine: ingest each event, retry overloads after
// a drain, pump whenever a micro-batch is ready. Score results must come
// back exactly once, in request order.
class ClosedLoop {
 public:
  ClosedLoop(serve::InferenceEngine* engine,
             workload::WorkloadGenerator* generator)
      : engine_(engine), generator_(generator) {}

  // Runs for `seconds` of wall time (or until the tracer fills).
  void Run(double seconds, Tracer* tracer, LoopStats* stats) {
    const double deadline = NowSeconds() + seconds;
    mark_ = Totals(*stats);
    std::vector<serve::Event> chunk(kChunk);
    std::vector<uint64_t> index(kChunk);
    while (NowSeconds() < deadline && (tracer == nullptr || !tracer->full())) {
      for (size_t i = 0; i < kChunk; ++i) {
        generator_->Next(&chunk[i], &index[i]);
      }
      const double cpu0 = ProcessCpuSeconds();
      const double wall0 = NowSeconds();
      for (size_t i = 0; i < kChunk; ++i) {
        Apply(chunk[i], index[i], tracer, stats);
      }
      stats->busy_seconds += NowSeconds() - wall0;
      stats->cpu_seconds += ProcessCpuSeconds() - cpu0;
      if (++chunks_ % kWindowChunks == 0) {
        CloseWindow(stats);
      }
      if (rss_mb_ == 0.0 && stats->events >= kRssAfterEvents) {
        rss_mb_ = PeakRssMb();
      }
    }
    Finish(tracer, stats);
    CloseWindow(stats);
  }

  // Drains every queued score (timed as busy time).
  void Finish(Tracer* tracer, LoopStats* stats) {
    const double cpu0 = ProcessCpuSeconds();
    const double wall0 = NowSeconds();
    while (Pump(tracer, stats) > 0) {
    }
    stats->busy_seconds += NowSeconds() - wall0;
    stats->cpu_seconds += ProcessCpuSeconds() - cpu0;
  }

  const std::vector<ParitySample>& samples() const { return samples_; }
  bool answered_all() const { return pending_.empty() && order_ok_; }
  // Peak RSS once kRssAfterEvents were served (0 before that).
  double rss_mb() const { return rss_mb_; }

 private:
  void CloseWindow(LoopStats* stats) {
    const Window now = Totals(*stats);
    AppendWindow(mark_, now, &stats->windows);
    mark_ = now;
  }

  static Window Totals(const LoopStats& stats) {
    return {static_cast<double>(stats.events),
            static_cast<double>(stats.scores_ok), stats.busy_seconds,
            stats.cpu_seconds, 0, stats.latency_us.size()};
  }

  void Apply(const serve::Event& event, uint64_t session_index,
             Tracer* tracer, LoopStats* stats) {
    using Kind = serve::Event::Kind;
    if (event.kind == Kind::kBegin && samples_.size() < kMaxParitySamples &&
        SampledForParity(event.session_id, kParityOneIn)) {
      tracked_.emplace(event.session_id, session_index);
    }
    const SpanName span_name =
        event.kind == Kind::kBegin   ? SpanName::kServeIngestBegin
        : event.kind == Kind::kEdge  ? SpanName::kServeIngestEdge
        : event.kind == Kind::kScore ? SpanName::kServeIngestScore
                                     : SpanName::kServeIngestEnd;
    const int64_t enqueue_ns = Tracer::NowNs();
    Status status = Ingest(event, span_name, tracer);
    for (int retry = 0; status.code() == StatusCode::kOverloaded &&
                        retry < kMaxOverloadRetries;
         ++retry) {
      ++stats->overloaded;
      Pump(tracer, stats);
      status = Ingest(event, span_name, tracer);
    }
    ++stats->events;
    if (!status.ok()) {
      if (status.code() == StatusCode::kOverloaded) {
        ++stats->overloaded;
      }
      ++stats->failed;
    } else if (event.kind == Kind::kScore) {
      pending_.push_back({event.session_id, enqueue_ns});
    }
    if (engine_->pending_scores() >= engine_->options().max_batch) {
      Pump(tracer, stats);
    }
  }

  Status Ingest(const serve::Event& event, SpanName name, Tracer* tracer) {
    if (tracer == nullptr) {
      return engine_->Ingest(event);
    }
    const uint32_t span = tracer->Begin(name, event.session_id);
    Status status = engine_->Ingest(event);
    tracer->End(span);
    return status;
  }

  size_t Pump(Tracer* tracer, LoopStats* stats) {
    results_.clear();
    const uint32_t span =
        tracer != nullptr ? tracer->Begin(SpanName::kServePump) : 0;
    const size_t n = engine_->ProcessPending(&results_);
    if (tracer != nullptr) {
      tracer->End(span, n);
    }
    const int64_t now_ns = Tracer::NowNs();
    for (const serve::ScoreResult& r : results_) {
      if (pending_.empty() || pending_.front().session_id != r.session_id) {
        order_ok_ = false;
        continue;
      }
      stats->latency_us.push_back(
          static_cast<double>(now_ns - pending_.front().enqueue_ns) * 1e-3);
      pending_.pop_front();
      if (!r.status.ok()) {
        ++stats->failed;
        continue;
      }
      ++stats->scores_ok;
      if (tracer != nullptr) {
        stats->score_us.push_back(r.score_micros);
        stats->queue_us.push_back(r.queue_micros);
      }
      const auto it = tracked_.find(r.session_id);
      if (it != tracked_.end() && samples_.size() < kMaxParitySamples) {
        samples_.push_back({it->second, r.edges_scored, r.logit});
      }
    }
    return n;
  }

  struct Pending {
    uint64_t session_id = 0;
    int64_t enqueue_ns = 0;
  };

  serve::InferenceEngine* engine_;
  workload::WorkloadGenerator* generator_;
  uint64_t chunks_ = 0;
  Window mark_;  // Totals at the last window boundary.
  double rss_mb_ = 0.0;
  std::deque<Pending> pending_;
  bool order_ok_ = true;
  std::vector<serve::ScoreResult> results_;
  std::unordered_map<uint64_t, uint64_t> tracked_;  // Sampled id -> index.
  std::vector<ParitySample> samples_;
};

// One set-up system under test: engine with the checkpoint loaded, a fresh
// generator, and the warm-up prefix already served.
struct System {
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<workload::WorkloadGenerator> generator;
  std::unique_ptr<ClosedLoop> loop;
};

System SetUp(const RunArgs& args, const core::TpGnnConfig& config,
             const std::string& checkpoint, RunResult* result) {
  System sys;
  sys.engine = std::make_unique<serve::InferenceEngine>(config, kModelSeed,
                                                        SoakEngineOptions());
  if (Status s = sys.engine->LoadSnapshot(checkpoint); !s.ok()) {
    result->Fail("LoadSnapshot: " + s.ToString());
  }
  sys.generator = std::make_unique<workload::WorkloadGenerator>(
      workload::PaperMixProfile(args.seed));
  sys.loop = std::make_unique<ClosedLoop>(sys.engine.get(),
                                          sys.generator.get());
  // Warm-up prefix, sized in events so every set-up does the same work.
  serve::Event event;
  uint64_t index = 0;
  std::vector<serve::ScoreResult> results;
  for (uint64_t i = 0; i < kWarmupEvents; ++i) {
    sys.generator->Next(&event, &index);
    Status status = sys.engine->Ingest(event);
    while (status.code() == StatusCode::kOverloaded) {
      sys.engine->ProcessPending(&results);
      status = sys.engine->Ingest(event);
    }
    if (sys.engine->pending_scores() >= sys.engine->options().max_batch) {
      sys.engine->ProcessPending(&results);
    }
  }
  sys.engine->Flush(&results);
  return sys;
}

struct Counters {
  serve::MetricsSnapshot serve;
  util::BufferPoolStats pool;
};

Counters ReadCounters(serve::InferenceEngine& engine) {
  return {engine.metrics().Snapshot(), util::GetBufferPoolStats()};
}

void CheckLoop(const System& sys, const LoopStats& stats, Tracer* tracer,
               RunResult* result) {
  if (!sys.loop->answered_all()) {
    result->Fail("exactly-once: a score request went unanswered, was "
                 "answered twice, or out of order");
  }
  if (stats.scores_ok == 0) {
    result->Fail("no score completed");
  }
  CheckParity("parity", *sys.generator, sys.engine->model(),
              sys.loop->samples(), tracer, result);
}

}  // namespace

RunResult RunEnginePaper(const RunArgs& args) {
  RunResult result;
  const core::TpGnnConfig config;  // SUM, TimeBasis::kAbsolute.
  result.Context("offered_rate", "closed_loop");
  result.Context("engine_shards", SoakEngineOptions().num_shards);
  result.Context("max_batch", static_cast<double>(SoakEngineOptions().max_batch));

  if (!args.trace) {
    const double t0 = NowSeconds();
    System sys = SetUp(args, config, args.checkpoint, &result);
    const double setup_seconds = NowSeconds() - t0;
    LoopStats stats;
    sys.loop->Run(args.seconds, nullptr, &stats);
    CheckLoop(sys, stats, nullptr, &result);

    result.attempted = stats.events;
    result.failed = stats.failed;
    result.Add("setup_s", setup_seconds, "s");
    AddWindowMetrics(stats.windows, stats.latency_us, &result);
    result.Add("rss_peak_mb",
               sys.loop->rss_mb() > 0.0 ? sys.loop->rss_mb() : PeakRssMb(),
               "MB");
    result.Context("rss_after_events", static_cast<double>(
                                           sys.loop->rss_mb() > 0.0
                                               ? kRssAfterEvents
                                               : stats.events));
    result.Context("input_events", static_cast<double>(stats.events));
    result.Context("input_sessions",
                   static_cast<double>(sys.generator->sessions_started()));
    result.Context("warmup_events", static_cast<double>(kWarmupEvents));
    return result;
  }

  // Traced run: untraced and traced windows alternate on one engine, so
  // host drift hits both alike; the per-layer metrics come from the traced
  // windows and trace.overhead_frac compares the two rates.
  System sys = SetUp(args, config, args.checkpoint, &result);
  Tracer tracer(kSpanCapacity);
  const Counters before = ReadCounters(*sys.engine);
  LoopStats plain;
  LoopStats traced;
  const double deadline = NowSeconds() + args.seconds * kEngineShare;
  for (int k = 0; NowSeconds() < deadline && !tracer.full(); ++k) {
    if (k % 2 == 0) {
      sys.loop->Run(kTraceWindowSeconds, nullptr, &plain);
      continue;
    }
    const uint32_t loop_span = tracer.Begin(SpanName::kLoop);
    sys.loop->Run(kTraceWindowSeconds, &tracer, &traced);
    tracer.End(loop_span);
  }
  const Counters after = ReadCounters(*sys.engine);
  CheckLoop(sys, traced, &tracer, &result);

  result.attempted = plain.events + traced.events;
  result.failed = plain.failed + traced.failed;
  const auto ingest_edge = tracer.Collect(SpanName::kServeIngestEdge);
  const auto ingest_begin = tracer.Collect(SpanName::kServeIngestBegin);
  const auto pump = tracer.Collect(SpanName::kServePump);
  double score_us_sum = 0.0;
  for (double us : traced.score_us) score_us_sum += us;
  const double scores =
      static_cast<double>(after.serve.scores_completed -
                          before.serve.scores_completed);
  result.Add("serve.ingest_edge_ns", ingest_edge.mean_ns(), "ns");
  result.Add("serve.ingest_begin_us", ingest_begin.mean_ns() * 1e-3, "us");
  result.Add("serve.pump_us", pump.mean_ns() * 1e-3, "us");
  result.Add("serve.pump_batch", Ratio(pump.total_count, pump.spans),
             "count");
  result.Add("util.pool_busy_frac",
             Ratio(score_us_sum,
                   pump.total_ns * 1e-3 *
                       ThreadPool::Global().num_threads()),
             "ratio");
  result.Add("serve.score_us_p50", Median(traced.score_us), "us");
  result.Add("serve.queue_us_p50", Median(traced.queue_us), "us");
  result.Add("serve.refolds_per_score",
             Ratio(after.serve.state_refolds - before.serve.state_refolds,
                   scores),
             "ratio");
  result.Add("serve.rescales_per_score",
             Ratio(after.serve.state_rescales - before.serve.state_rescales,
                   scores),
             "ratio");
  result.Add("serve.evicted_frac",
             Ratio(after.serve.sessions_evicted - before.serve.sessions_evicted,
                   after.serve.sessions_begun - before.serve.sessions_begun),
             "ratio");
  result.Add("serve.overload_frac", Ratio(traced.overloaded, traced.events),
             "ratio");
  Tracer wire_tracer(kWireSpanCapacity);
  AddWireLegMetrics(args, config,
                    std::max(1.0, args.seconds * (1.0 - kEngineShare)),
                    &wire_tracer, &result);
  AddSharedLayerMetrics(args, tracer, before.pool, after.pool, &result);
  const double plain_rate = plain.events / plain.busy_seconds;
  const double traced_rate = traced.events / traced.busy_seconds;
  result.Add("trace.overhead_frac", plain_rate / traced_rate - 1.0, "ratio");
  result.Context("traced_events", static_cast<double>(traced.events));
  return result;
}

}  // namespace perfbench
