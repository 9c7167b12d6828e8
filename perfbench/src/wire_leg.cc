// The wire leg of the traced engine_paper run: a slice of the same
// PaperMixProfile stream (same seed, fresh generator) sent at a fixed event
// rate through one net::Client connection to a cluster::Router in front of
// two in-process backends (each a net::Server over its own InferenceEngine
// with the soak's options, loading the run's checkpoint). Every client call
// is recorded as a span; the net.* and cluster.* per-layer metrics come
// from these spans and from the codec and hash ring run on the leg's own
// batches.
//
// The wire path has no end-to-end metric of its own: on shared hosts its
// latency and rate follow the host's load minute by minute (see NOTES.md),
// so it is timed only here, where its layers are still measured.

#include <algorithm>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cluster/ring.h"
#include "cluster/router.h"
#include "common.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "nn/checkpoint.h"
#include "trace.h"
#include "workload/profiles.h"

namespace perfbench {

namespace {

// About half of where the backlog starts to grow on a slow host: the router
// forwards same-owner runs sequentially, so a frame costs several
// router-backend round trips. With the host in its slow mode, 5k events/s
// kept the client blocked in IngestBatch/DrainResults for 42-78% of each
// period and p90 reached 1-4 ms; earlier probes fell 200-300 ms behind at
// 20k events/s and were unstable at 10k.
constexpr double kOfferedEventsPerSecond = 2500.0;
// Events per INGEST_BATCH frame: one frame every 2 ms. A frame's events
// span both backends, so the router's run forwarding is on the path.
constexpr uint64_t kEventsPerSend = 5;
constexpr int kBackends = 2;
constexpr uint64_t kWarmupEvents = 10000;
constexpr size_t kWarmupBatch = 64;
constexpr size_t kMaxSendBatch = 256;
// Every session begun during the leg is tracked (up to kMaxParitySamples):
// the leg is short and paper-mix sessions are long.
constexpr uint64_t kParityOneIn = 1;
constexpr size_t kMaxParitySamples = 256;

// One backend: engine (checkpoint loaded) + server + poll thread.
class Backend {
 public:
  Backend(const core::TpGnnConfig& config, const std::string& checkpoint,
          RunResult* result)
      : engine_(config, kModelSeed, SoakEngineOptions()) {
    if (Status s = engine_.LoadSnapshot(checkpoint); !s.ok()) {
      result->Fail("LoadSnapshot: " + s.ToString());
    }
    server_ = std::make_unique<net::Server>(&engine_, net::ServerOptions{});
    if (Status s = server_->Start(); !s.ok()) {
      result->Fail("backend start: " + s.ToString());
      return;
    }
    thread_ = std::thread([this] { server_->Run(); });
  }
  ~Backend() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  int port() const { return server_->port(); }

 private:
  serve::InferenceEngine engine_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

struct LoopStats {
  uint64_t events = 0;
  uint64_t scores_ok = 0;
  uint64_t failed = 0;
  double lag_ms_max = 0.0;
  std::vector<double> latency_us;
  std::vector<double> hop_us;
  std::vector<std::vector<serve::Event>> batches;
};

// Backends, router, one client connection, and the generator whose warm-up
// prefix has been served.
class Cluster {
 public:
  Cluster(const RunArgs& args, const core::TpGnnConfig& config,
          RunResult* result) {
    std::vector<cluster::BackendConfig> configs;
    for (int i = 0; i < kBackends; ++i) {
      backends_.push_back(
          std::make_unique<Backend>(config, args.checkpoint, result));
      configs.push_back(
          {"b" + std::to_string(i), "127.0.0.1", backends_.back()->port()});
    }
    router_ = std::make_unique<cluster::Router>(configs,
                                                cluster::RouterOptions{});
    if (Status s = router_->Start(); !s.ok()) {
      result->Fail("router start: " + s.ToString());
      return;
    }
    router_thread_ = std::thread([this] { router_->Run(); });
    const double give_up = NowSeconds() + 10.0;
    while (router_->connected_backends() < static_cast<size_t>(kBackends) &&
           NowSeconds() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    net::ClientOptions options;
    options.port = router_->port();
    client_ = std::make_unique<net::Client>(options);
    if (Status s = client_->Connect(); !s.ok()) {
      result->Fail("client connect: " + s.ToString());
      return;
    }
    generator_ = std::make_unique<workload::WorkloadGenerator>(
        workload::PaperMixProfile(args.seed));
    std::vector<serve::Event> batch;
    serve::Event event;
    for (uint64_t i = 0; i < kWarmupEvents; ++i) {
      generator_->Next(&event);
      batch.push_back(event);
      if (batch.size() == kWarmupBatch || i + 1 == kWarmupEvents) {
        if (Status s = client_->IngestAll(batch); !s.ok()) {
          result->Fail("warm-up ingest: " + s.ToString());
          return;
        }
        batch.clear();
      }
    }
    if (Status s = client_->DrainResults(); !s.ok()) {
      result->Fail("warm-up drain: " + s.ToString());
    }
    client_->TakeResults();
  }

  ~Cluster() {
    if (client_ != nullptr) {
      client_->Close();
    }
    if (router_thread_.joinable()) {
      router_->RequestShutdown();
      router_thread_.join();
    }
    backends_.clear();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  net::Client& client() { return *client_; }
  workload::WorkloadGenerator& generator() { return *generator_; }
  Status Metrics(serve::MetricsSnapshot* snap) {
    std::string json;
    if (Status s = client_->GetMetricsJson(&json); !s.ok()) {
      return s;
    }
    return serve::ParseMetricsJson(json, snap);
  }

 private:
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<cluster::Router> router_;
  std::thread router_thread_;
  std::unique_ptr<net::Client> client_;
  std::unique_ptr<workload::WorkloadGenerator> generator_;
};

// The open loop: frame j (events 5j..5j+4) is due at start + 2j ms and is
// sent at its due time (spinning: no sleep quantization, no sched_yield),
// merged with whatever else is due when the client is late. Latency counts
// from the due time, so a late send shows as latency.
class OpenLoop {
 public:
  explicit OpenLoop(Cluster* cluster) : cluster_(cluster) {}

  void Run(double seconds, Tracer* tracer, LoopStats* stats) {
    net::Client& client = cluster_->client();
    const int64_t period_ns =
        static_cast<int64_t>(1e9 * kEventsPerSend / kOfferedEventsPerSecond);
    const int64_t start_ns = Tracer::NowNs();
    auto due_of = [&](uint64_t k) {
      return start_ns + static_cast<int64_t>(k / kEventsPerSend) * period_ns;
    };
    const uint64_t total =
        std::max<uint64_t>(kEventsPerSend,
                           static_cast<uint64_t>(seconds *
                                                 kOfferedEventsPerSecond));
    uint64_t next = 0;
    std::vector<serve::Event> batch;
    std::vector<int64_t> due;
    while (next < total && !tracer->full()) {
      const int64_t due_ns = due_of(next);
      int64_t now = Tracer::NowNs();
      while (now < due_ns) {
        if (client.inflight_scores() > 0) {
          Drain(tracer, stats);
        }
        now = Tracer::NowNs();
      }
      stats->lag_ms_max =
          std::max(stats->lag_ms_max, static_cast<double>(now - due_ns) * 1e-6);
      batch.clear();
      due.clear();
      while (next < total && batch.size() < kMaxSendBatch &&
             due_of(next) <= now) {
        serve::Event event;
        uint64_t index = 0;
        cluster_->generator().Next(&event, &index);
        if (event.kind == serve::Event::Kind::kBegin &&
            samples_.size() < kMaxParitySamples &&
            SampledForParity(event.session_id, kParityOneIn)) {
          tracked_.emplace(event.session_id, index);
        }
        batch.push_back(std::move(event));
        due.push_back(due_of(next));
        ++next;
      }
      Send(batch, due, tracer, stats);
    }
    Drain(tracer, stats);
  }

  const std::vector<ParitySample>& samples() const { return samples_; }
  uint64_t call_errors() const { return call_errors_; }
  bool answered_all() const {
    if (unexpected_results_ > 0) {
      return false;
    }
    for (const auto& [id, dues] : outstanding_) {
      if (!dues.empty()) {
        return false;
      }
    }
    return true;
  }

 private:
  template <typename Fn>
  Status Call(Tracer* tracer, SpanName name, uint64_t count, LoopStats* stats,
              Fn&& fn) {
    const uint32_t span = tracer->Begin(name);
    Status status = fn();
    tracer->End(span, count);
    Collect(Tracer::NowNs(), stats);
    return status;
  }

  void Drain(Tracer* tracer, LoopStats* stats) {
    net::Client& client = cluster_->client();
    if (!Call(tracer, SpanName::kNetDrain, 0, stats,
              [&] { return client.DrainResults(); })
             .ok()) {
      ++call_errors_;
    }
  }

  // Sends one due batch; an overloaded tail is retried after a drain, an
  // event rejected with any other status is counted failed and skipped.
  void Send(const std::vector<serve::Event>& batch,
            const std::vector<int64_t>& due, Tracer* tracer,
            LoopStats* stats) {
    net::Client& client = cluster_->client();
    stats->batches.push_back(batch);
    size_t pos = 0;
    int stalls = 0;
    while (pos < batch.size()) {
      std::vector<serve::Event> slice(batch.begin() + pos, batch.end());
      // Register the due times first: a result may overtake its ack.
      for (size_t i = pos; i < batch.size(); ++i) {
        if (batch[i].kind == serve::Event::Kind::kScore) {
          outstanding_[batch[i].session_id].push_back(due[i]);
        }
      }
      uint64_t applied = 0;
      const Status status =
          Call(tracer, SpanName::kNetIngestBatch, slice.size(), stats,
               [&] { return client.IngestBatch(slice, &applied); });
      // Scores beyond the applied prefix are owed no result; they are the
      // newest entries of their sessions.
      for (size_t i = batch.size(); i-- > pos + applied;) {
        if (batch[i].kind != serve::Event::Kind::kScore) {
          continue;
        }
        auto it = outstanding_.find(batch[i].session_id);
        if (it != outstanding_.end() && !it->second.empty()) {
          it->second.pop_back();
        }
      }
      stats->events += applied;
      pos += applied;
      if (status.ok()) {
        break;
      }
      if (status.code() == StatusCode::kOverloaded && ++stalls < 1000) {
        Drain(tracer, stats);
        continue;
      }
      if (status.code() == StatusCode::kDeadlineExceeded ||
          status.code() == StatusCode::kDataLoss || !client.connected()) {
        ++call_errors_;  // The connection, not the event, failed.
      }
      ++stats->events;  // The rejected event.
      ++stats->failed;
      ++pos;
      stalls = 0;
    }
  }

  void Collect(int64_t now_ns, LoopStats* stats) {
    for (const serve::ScoreResult& r : cluster_->client().TakeResults()) {
      auto it = outstanding_.find(r.session_id);
      if (it == outstanding_.end() || it->second.empty()) {
        ++unexpected_results_;
        continue;
      }
      const double latency_us =
          static_cast<double>(now_ns - it->second.front()) * 1e-3;
      it->second.pop_front();
      if (it->second.empty()) {
        outstanding_.erase(it);
      }
      stats->latency_us.push_back(latency_us);
      if (!r.status.ok()) {
        ++stats->failed;
        continue;
      }
      ++stats->scores_ok;
      stats->hop_us.push_back(latency_us - r.queue_micros - r.score_micros);
      const auto tracked = tracked_.find(r.session_id);
      if (tracked != tracked_.end() && samples_.size() < kMaxParitySamples) {
        samples_.push_back({tracked->second, r.edges_scored, r.logit});
      }
    }
  }

  Cluster* cluster_;
  // Due times of score requests still owed a result, per session, in
  // request order.
  std::unordered_map<uint64_t, std::deque<int64_t>> outstanding_;
  uint64_t unexpected_results_ = 0;
  uint64_t call_errors_ = 0;
  std::unordered_map<uint64_t, uint64_t> tracked_;
  std::vector<ParitySample> samples_;
};

// Exactly-once, METRICS-reported wire and version health, and bitwise
// parity of the sampled served logits.
void CheckLeg(Cluster& cluster, const OpenLoop& loop, const LoopStats& stats,
              const RunArgs& args, const core::TpGnnConfig& config,
              RunResult* result) {
  if (!loop.answered_all()) {
    result->Fail("wire leg exactly-once: a score request went unanswered or "
                 "was answered twice");
  }
  if (loop.call_errors() > 0) {
    result->Fail("wire leg client calls failed: " +
                 std::to_string(loop.call_errors()));
  }
  if (stats.scores_ok == 0) {
    result->Fail("wire leg: no score completed");
  }
  serve::MetricsSnapshot snap;
  if (Status s = cluster.Metrics(&snap); !s.ok()) {
    result->Fail("METRICS RPC: " + s.ToString());
  } else {
    if (snap.protocol_errors != 0) {
      result->Fail("protocol_errors = " + std::to_string(snap.protocol_errors));
    }
    if (snap.mixed_version_scores != 0) {
      result->Fail("mixed_version_scores = " +
                   std::to_string(snap.mixed_version_scores));
    }
  }
  core::TpGnnModel model(config, kModelSeed);
  if (Status s = nn::LoadParameters(model, args.checkpoint); !s.ok()) {
    result->Fail("offline model load: " + s.ToString());
    return;
  }
  CheckParity("wire.parity", cluster.generator(), model, loop.samples(),
              nullptr, result);
}

}  // namespace

void AddWireLegMetrics(const RunArgs& args, const core::TpGnnConfig& config,
                       double seconds, Tracer* tracer, RunResult* result) {
  Cluster cluster(args, config, result);
  if (!result->failures.empty()) {
    return;
  }
  OpenLoop loop(&cluster);
  LoopStats stats;
  loop.Run(seconds, tracer, &stats);
  CheckLeg(cluster, loop, stats, args, config, result);
  result->attempted += stats.events;
  result->failed += stats.failed;
  result->Context("wire.offered_events_per_s", kOfferedEventsPerSecond);
  result->Context("wire.backends", kBackends);
  result->Context("wire.input_events", static_cast<double>(stats.events));
  result->Context("wire.score_samples",
                  static_cast<double>(stats.latency_us.size()));
  result->Context("load.lag_ms_max", stats.lag_ms_max);

  // The wire codec on the leg's own batches, and their owner runs on a ring
  // over the same backend names.
  cluster::HashRing ring(cluster::RouterOptions{}.vnodes_per_backend);
  for (int i = 0; i < kBackends; ++i) {
    ring.AddBackend("b" + std::to_string(i));
  }
  double runs = 0.0;
  for (const auto& batch : stats.batches) {
    const std::string* previous = nullptr;
    for (const serve::Event& event : batch) {
      const std::string* owner = ring.OwnerOf(event.session_id);
      runs += (previous == nullptr || *owner != *previous) ? 1.0 : 0.0;
      previous = owner;
    }
    net::Frame frame;
    frame.type = net::FrameType::kIngestBatch;
    frame.events = batch;
    std::vector<uint8_t> wire;
    uint32_t span = tracer->Begin(SpanName::kNetEncode);
    net::EncodeFrame(frame, &wire);
    tracer->End(span, wire.size());
    net::Frame decoded;
    size_t consumed = 0;
    span = tracer->Begin(SpanName::kNetDecode);
    const Status s = net::DecodeFrame(wire.data(), wire.size(),
                                      net::kDefaultMaxPayloadBytes, &decoded,
                                      &consumed);
    tracer->End(span, decoded.events.size());
    if (!s.ok() || consumed != wire.size() ||
        decoded.events.size() != batch.size()) {
      result->Fail("wire codec round trip failed on a workload batch");
    }
  }

  const auto rtt = tracer->Collect(SpanName::kNetIngestBatch);
  const auto encode = tracer->Collect(SpanName::kNetEncode);
  const auto decode = tracer->Collect(SpanName::kNetDecode);
  result->Add("net.ingest_rtt_us_p50", Median(rtt.durations_ns) * 1e-3, "us");
  result->Add("net.bytes_per_event",
              Ratio(encode.total_count, decode.total_count), "bytes");
  result->Add("net.encode_ns_per_event",
              Ratio(encode.total_ns, decode.total_count), "ns");
  result->Add("net.decode_ns_per_event",
              Ratio(decode.total_ns, decode.total_count), "ns");
  result->Add("cluster.hop_us_p50", Median(stats.hop_us), "us");
  result->Add("cluster.runs_per_batch",
              Ratio(runs, static_cast<double>(stats.batches.size())),
              "count");
  const std::string path =
      args.work_dir + "/spans_" + args.workload + "_wire.csv";
  if (!tracer->Write(path)) {
    result->Fail("cannot write " + path);
  }
  result->Context("wire.span_file", path);
}

}  // namespace perfbench
