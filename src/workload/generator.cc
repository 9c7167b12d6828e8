#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/logging.h"
#include "workload/distributions.h"

namespace tpgnn::workload {

namespace {

// Lane salts so identity, content, and scheduling never share a stream.
constexpr uint64_t kContentLane = 0x636f6e74656e7421ULL;   // "content!"
constexpr uint64_t kScheduleLane = 0x7363686564756c65ULL;  // "schedule"

}  // namespace

uint64_t SessionId(uint64_t seed, uint64_t index) {
  // SplitMix64 mixes its state plus one gamma bijectively, so this is
  // mix(seed + (index + 1) * gamma): unique per index within a seed.
  return SplitMix64(seed + index * kSplitMix64Gamma);
}

uint64_t SessionSeed(uint64_t seed, uint64_t index) {
  return SplitMix64((seed ^ kContentLane) + index * kSplitMix64Gamma);
}

// Header of one session: every draw before the first per-edge draw, in the
// exact order both the streaming path and MaterializeSession consume them.
struct WorkloadGenerator::SessionPlan {
  size_t tenant = 0;
  int64_t num_edges = 0;
  int64_t num_nodes = 0;
  int label = 0;
  bool abandoned = false;
  std::vector<std::vector<float>> features;
};

// One open session's residual streaming state; features live only in the
// Begin event, so steady-state cost is O(1) per open session.
struct WorkloadGenerator::OpenSession {
  uint64_t index = 0;
  uint64_t id = 0;
  Rng rng{0};
  int64_t num_edges = 0;
  int64_t edges_emitted = 0;
  int64_t num_nodes = 0;
  int64_t score_every = 0;
  double event_gap_mean = 0.0;
  double edge_time_gap_mean = 0.0;
  double session_time = 0.0;
  int label = 0;
  bool abandoned = false;
};

namespace {

struct EdgeDraw {
  int64_t src = 0;
  int64_t dst = 0;
  double dt = 0.0;   // Session-local time delta.
  double gap = 0.0;  // Stream-clock gap to the session's next event.
};

// The per-edge draw sequence — the single definition both paths share.
EdgeDraw DrawEdge(Rng& rng, int64_t num_nodes, double edge_time_gap_mean,
                  double event_gap_mean) {
  EdgeDraw d;
  d.src = rng.UniformInt(0, num_nodes - 1);
  d.dst = rng.UniformInt(0, num_nodes - 1);
  if (num_nodes > 1 && d.dst == d.src) {
    d.dst = (d.dst + 1) % num_nodes;
  }
  d.dt = rng.Uniform(0.0, 2.0 * edge_time_gap_mean);
  d.gap = ExponentialGap(rng, event_gap_mean);
  return d;
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadOptions& options)
    : options_(options),
      schedule_rng_(SplitMix64(options.seed ^ kScheduleLane)) {
  TPGNN_CHECK(!options_.tenants.empty()) << "workload needs >= 1 tenant";
  TPGNN_CHECK_GT(options_.session_arrival_rate, 0.0);
  TPGNN_CHECK_GE(options_.max_open_sessions, 1u);
  tenant_weights_.reserve(options_.tenants.size());
  for (const TenantProfile& t : options_.tenants) {
    TPGNN_CHECK_GE(t.min_edges, 1);
    TPGNN_CHECK_GE(t.min_nodes, 2) << "sessions need >= 2 nodes for edges";
    TPGNN_CHECK_GE(t.feature_dim, 1);
    tenant_weights_.push_back(t.weight);
  }
  next_arrival_time_ =
      ExponentialGap(schedule_rng_, 1.0 / options_.session_arrival_rate);
}

double WorkloadGenerator::WaveMultiplier(double t) const {
  const OverloadWave& w = options_.wave;
  if (w.period_seconds <= 0.0) {
    return 1.0;
  }
  const double phase = std::fmod(t, w.period_seconds);
  return phase < w.burst_fraction * w.period_seconds ? w.burst_multiplier
                                                     : 1.0;
}

WorkloadGenerator::~WorkloadGenerator() = default;

WorkloadGenerator::SessionPlan WorkloadGenerator::PlanSession(
    Rng* rng) const {
  SessionPlan plan;
  plan.tenant = rng->WeightedIndex(tenant_weights_);
  const TenantProfile& t = options_.tenants[plan.tenant];
  plan.num_edges = ClampedLogNormal(*rng, t.edges_log_mean, t.edges_log_sigma,
                                    t.min_edges, t.max_edges);
  plan.num_nodes = std::clamp(
      static_cast<int64_t>(std::llround(
          t.nodes_per_edge * static_cast<double>(plan.num_edges))),
      t.min_nodes, t.max_nodes);
  plan.label = rng->Bernoulli(0.5) ? 1 : 0;
  plan.abandoned = rng->Bernoulli(t.abandon_probability);
  plan.features.resize(static_cast<size_t>(plan.num_nodes));
  for (auto& f : plan.features) {
    f.resize(static_cast<size_t>(t.feature_dim));
    for (float& v : f) {
      v = rng->UniformFloat(-1.0f, 1.0f);
    }
  }
  return plan;
}

bool WorkloadGenerator::Next(serve::Event* event, uint64_t* session_index) {
  // Session-order events (scores, End) determined by an already-emitted
  // edge drain first; they share that edge's stream time.
  if (!pending_.empty()) {
    *event = pending_.front().first;
    if (session_index != nullptr) {
      *session_index = pending_.front().second;
    }
    pending_.pop_front();
  } else {
    const bool more_sessions =
        options_.num_sessions == 0 || next_index_ < options_.num_sessions;
    const size_t open = slots_.size() - free_slots_.size();
    const bool can_open = more_sessions && open < options_.max_open_sessions;
    if (heap_.empty() && !can_open) {
      // Bounded workload fully drained (unbounded always has more
      // sessions).
      return false;
    }
    if (can_open &&
        (heap_.empty() || next_arrival_time_ <= heap_.top().time)) {
      EmitBegin(event, session_index);
    } else {
      EmitFromOpen(event, session_index);
    }
  }
  // The merge rule keeps times nondecreasing except when the open-session
  // cap delays an arrival past its draw; clamp so the stream clock (which
  // drives TTL eviction) never runs backwards.
  stream_time_ = std::max(stream_time_, event->time);
  event->time = stream_time_;
  return true;
}

void WorkloadGenerator::EmitBegin(serve::Event* event,
                                  uint64_t* session_index) {
  const uint64_t index = next_index_++;
  Rng rng(SessionSeed(options_.seed, index));
  SessionPlan plan = PlanSession(&rng);
  const TenantProfile& t = options_.tenants[plan.tenant];

  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  OpenSession& s = slots_[slot];
  s.index = index;
  s.id = SessionId(options_.seed, index);
  s.rng = rng;
  s.num_edges = plan.num_edges;
  s.edges_emitted = 0;
  s.num_nodes = plan.num_nodes;
  s.score_every = t.score_every_edges;
  s.event_gap_mean = t.event_gap_mean;
  s.edge_time_gap_mean = t.edge_time_gap_mean;
  s.session_time = 0.0;
  s.label = plan.label;
  s.abandoned = plan.abandoned;

  *event = serve::Event();
  event->kind = serve::Event::Kind::kBegin;
  event->session_id = s.id;
  event->time = next_arrival_time_;
  event->num_nodes = plan.num_nodes;
  event->feature_dim = t.feature_dim;
  event->features.reserve(plan.features.size());
  for (size_t node = 0; node < plan.features.size(); ++node) {
    event->features.push_back(
        {static_cast<int64_t>(node), std::move(plan.features[node])});
  }
  if (session_index != nullptr) {
    *session_index = index;
  }

  // First session event follows its own gap draw; the next arrival follows
  // the (possibly burst-modulated) arrival process.
  const EdgeDraw first = DrawEdge(s.rng, s.num_nodes, s.edge_time_gap_mean,
                                  s.event_gap_mean);
  // Stash the draw: the edge itself is emitted when the heap pops it. Store
  // by replaying the draw is impossible (the Rng advanced), so carry it.
  s.session_time += first.dt;
  pending_draws_.resize(slots_.size());
  pending_draws_[slot] = {first.src, first.dst};
  heap_.push({next_arrival_time_ + first.gap, slot});
  const double rate =
      options_.session_arrival_rate * WaveMultiplier(next_arrival_time_);
  next_arrival_time_ += ExponentialGap(schedule_rng_, 1.0 / rate);
}

void WorkloadGenerator::EmitFromOpen(serve::Event* event,
                                     uint64_t* session_index) {
  const HeapEntry top = heap_.top();
  heap_.pop();
  OpenSession& s = slots_[top.slot];

  *event = serve::Event();
  event->kind = serve::Event::Kind::kEdge;
  event->session_id = s.id;
  event->time = top.time;
  event->src = pending_draws_[top.slot].src;
  event->dst = pending_draws_[top.slot].dst;
  event->edge_time = s.session_time;
  ++s.edges_emitted;
  if (session_index != nullptr) {
    *session_index = s.index;
  }

  const bool last = s.edges_emitted == s.num_edges;
  if (s.score_every > 0 && s.edges_emitted % s.score_every == 0 &&
      !(last && !s.abandoned)) {
    // Periodic score; when the final edge also closes the session the final
    // score below subsumes it.
    serve::Event score;
    score.kind = serve::Event::Kind::kScore;
    score.session_id = s.id;
    score.time = top.time;
    score.label = s.label;
    pending_.push_back({std::move(score), s.index});
  }
  if (last) {
    if (!s.abandoned) {
      serve::Event score;
      score.kind = serve::Event::Kind::kScore;
      score.session_id = s.id;
      score.time = top.time;
      score.label = s.label;
      pending_.push_back({std::move(score), s.index});
      serve::Event end;
      end.kind = serve::Event::Kind::kEnd;
      end.session_id = s.id;
      end.time = top.time;
      pending_.push_back({std::move(end), s.index});
    }
    free_slots_.push_back(top.slot);
    return;
  }
  const EdgeDraw next = DrawEdge(s.rng, s.num_nodes, s.edge_time_gap_mean,
                                  s.event_gap_mean);
  s.session_time += next.dt;
  pending_draws_[top.slot] = {next.src, next.dst};
  heap_.push({top.time + next.gap, top.slot});
}

Stream WorkloadGenerator::Draw(const WorkloadOptions& options) {
  TPGNN_CHECK_GT(options.num_sessions, 0u) << "an unbounded stream";
  WorkloadGenerator generator(options);
  Stream stream;
  serve::Event event;
  while (generator.Next(&event)) {
    stream.scores += event.kind == serve::Event::Kind::kScore ? 1 : 0;
    stream.events.push_back(std::move(event));
  }
  return stream;
}

MaterializedSession WorkloadGenerator::MaterializeSession(
    uint64_t index) const {
  Rng rng(SessionSeed(options_.seed, index));
  SessionPlan plan = PlanSession(&rng);
  const TenantProfile& t = options_.tenants[plan.tenant];

  MaterializedSession session;
  session.session_id = SessionId(options_.seed, index);
  session.tenant = plan.tenant;
  session.num_nodes = plan.num_nodes;
  session.feature_dim = t.feature_dim;
  session.features = std::move(plan.features);
  session.label = plan.label;
  session.abandoned = plan.abandoned;
  session.edges.reserve(static_cast<size_t>(plan.num_edges));
  double session_time = 0.0;
  for (int64_t k = 0; k < plan.num_edges; ++k) {
    const EdgeDraw d = DrawEdge(rng, plan.num_nodes, t.edge_time_gap_mean,
                                t.event_gap_mean);
    session_time += d.dt;  // d.gap is scheduling-only; consumed, unused.
    session.edges.push_back({d.src, d.dst, session_time});
  }
  return session;
}

}  // namespace tpgnn::workload
