#include "serve/session_shard.h"

#include <algorithm>
#include <cmath>

#include "core/temporal_propagation.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpgnn::serve {

using graph::TemporalEdge;
using tensor::Tensor;

namespace {

bool AllFinite(const float* values, size_t count) {
  return std::all_of(values, values + count,
                     [](float v) { return std::isfinite(v); });
}

// The kInvalidArgument admission returns for a NaN or ±inf feature or edge
// time, counted in nonfinite_rejections.
Status RejectNonFinite(Metrics* metrics, const std::string& message) {
  if (metrics != nullptr) {
    metrics->nonfinite_rejections.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::InvalidArgument(message);
}

}  // namespace

struct SessionShard::Session {
  Session(int64_t num_nodes, int64_t feature_dim)
      : graph(num_nodes, feature_dim) {}

  graph::TemporalGraph graph;  // Features + growing edge list.
  Tensor x0;  // Cached initial embedding (Eq. 1), never mutated.
  Tensor x;   // Raw folded node state (pre-readout).
  Tensor m;   // Raw folded SUM time accumulator, when the config has one.

  // Pinned model version: every kernel this session runs (X0, folds,
  // finalize, extractor, classifier) comes from exactly this version. The
  // shared_ptr keeps a retired version alive until the session ends.
  model::ModelVersionPtr version;
  // Seq of the version x0/x/m were produced under. The mixed-version guard
  // compares this against version->seq() at score time; a rebase re-stamps
  // it after recomputing the state.
  uint64_t state_seq = 0;
  // Registry assignment epoch the version was resolved under; a moved
  // epoch triggers re-resolution at the next touch.
  uint64_t assign_epoch = 0;

  // Fold bookkeeping: how many chronological-prefix edges are folded into
  // x / m, and under which normalization max-time.
  int64_t x_edges = 0;
  int64_t m_edges = 0;
  double x_max_time = 0.0;
  double m_max_time = 0.0;
  // True while edges have arrived in nondecreasing time order, in which
  // case insertion order IS the chronological order (stable sort identity).
  bool sorted = true;
  // True while the folded x/m prefixes are prefixes of the CURRENT
  // chronological order. Cleared when a late edge (below the running max)
  // reorders the chronology; restored by the next EnsureFolded, after which
  // in-order edges eager-fold again — so one late edge costs one refold,
  // not the session's remaining lifetime.
  bool fold_chrono = true;
  // Chronological order scratch for unsorted sessions.
  std::vector<TemporalEdge> chrono;

  // Rescale bookkeeping (TimeBasis::kInvariant): edge count and max-time at
  // the last finalize, so a later score under a moved max is counted as the
  // rescale that replaced an absolute-basis refold.
  int64_t finalized_edges = 0;
  double finalized_max = 0.0;

  // Last score's logit and the key it stays valid under: the same edges
  // (the graph only grows) and the same model state. Every kernel table
  // computes the same bits, so a SIMD mode switch keeps the logit valid.
  // edge count -1 = nothing cached.
  float cached_logit = 0.0f;
  int64_t cached_edges = -1;
  uint64_t cached_seq = 0;

  double last_touch = 0.0;  // Stream time of the last ingest event.
  int pinned = 0;           // In-flight score requests.
  bool ended = false;       // End received while pinned; removal deferred.
  std::list<uint64_t>::iterator lru_it;
};

SessionShard::SessionShard(const model::ModelRegistry& registry,
                           const ShardOptions& options, Metrics* metrics)
    : registry_(registry),
      options_(options),
      metrics_(metrics),
      scratch_(registry.config()) {}

SessionShard::~SessionShard() = default;

Status SessionShard::BeginSession(uint64_t session_id, int64_t num_nodes,
                                  int64_t feature_dim,
                                  const std::vector<NodeInit>& features,
                                  double now) {
  const core::TpGnnConfig& config = registry_.config();
  if (num_nodes <= 0) {
    return Status::InvalidArgument("session needs at least one node");
  }
  if (feature_dim != config.feature_dim) {
    return Status::InvalidArgument(
        "feature_dim mismatch: session has " + std::to_string(feature_dim) +
        ", model expects " + std::to_string(config.feature_dim));
  }
  for (const NodeInit& f : features) {
    if (f.node < 0 || f.node >= num_nodes) {
      return Status::InvalidArgument("feature for out-of-range node " +
                                     std::to_string(f.node));
    }
    if (static_cast<int64_t>(f.features.size()) != feature_dim) {
      return Status::InvalidArgument("feature width mismatch for node " +
                                     std::to_string(f.node));
    }
    if (!AllFinite(f.features.data(), f.features.size())) {
      return RejectNonFinite(metrics_, "non-finite feature for node " +
                                           std::to_string(f.node));
    }
  }

  // Injected admission failure: fires after validation so only well-formed
  // sessions are rejected, and surfaces as the same kOverloaded the resident
  // cap produces — callers cannot tell it from genuine pressure.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("shard.begin", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      if (metrics_ != nullptr) {
        metrics_->overload_rejections.fetch_add(1, std::memory_order_relaxed);
      }
      return failpoint::InjectedError(StatusCode::kOverloaded, "shard.begin");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(session_id) > 0) {
    return Status::InvalidArgument("duplicate session id " +
                                   std::to_string(session_id));
  }
  while (options_.max_resident_sessions > 0 &&
         sessions_.size() >= options_.max_resident_sessions) {
    if (!EvictOneLocked()) {
      if (metrics_ != nullptr) {
        metrics_->overload_rejections.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::Overloaded(
          "shard at resident-session cap with every session pinned");
    }
  }

  auto session = std::make_unique<Session>(num_nodes, feature_dim);
  for (const NodeInit& f : features) {
    session->graph.SetNodeFeature(f.node, f.features);
  }
  // Resolve and pin the model version: primary, or the A/B candidate per
  // the registry's deterministic per-session split.
  session->version = registry_.ResolveForSession(session_id,
                                                 &session->assign_epoch);
  session->state_seq = session->version->seq();
  {
    tensor::NoGradGuard no_grad;
    const core::TemporalPropagation& prop = session->version->model()
                                                .propagation();
    session->x0 = prop.EmbedInitial(session->graph);
    session->x = session->x0.Clone();
    if (prop.has_time_accumulator()) {
      session->m = Tensor::Zeros({num_nodes, prop.time_state_dim()});
    }
  }
  session->last_touch = now;
  lru_.push_front(session_id);
  session->lru_it = lru_.begin();
  sessions_.emplace(session_id, std::move(session));
  if (metrics_ != nullptr) {
    metrics_->sessions_begun.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void SessionShard::MaybeRebaseLocked(uint64_t session_id, Session& s) {
  const uint64_t epoch = registry_.assignment_epoch();
  if (epoch == s.assign_epoch) {
    return;
  }
  model::ModelVersionPtr resolved =
      registry_.ResolveForSession(session_id, &s.assign_epoch);
  if (resolved->seq() == s.version->seq()) {
    s.version = std::move(resolved);  // Same version; just re-stamp.
    return;
  }
  // The assignment moved the session onto different parameters: recompute
  // X0 and discard every folded component so the next EnsureFolded replays
  // the full edge list under the new version. Nothing derived from the old
  // parameters survives — that is the zero-mixed-versions invariant.
  s.version = std::move(resolved);
  s.state_seq = s.version->seq();
  {
    tensor::NoGradGuard no_grad;
    const core::TemporalPropagation& prop = s.version->model().propagation();
    s.x0 = prop.EmbedInitial(s.graph);
    s.x = s.x0.Clone();
    s.x_edges = 0;
    s.x_max_time = 0.0;
    if (prop.has_time_accumulator()) {
      s.m = Tensor::Zeros({s.graph.num_nodes(), prop.time_state_dim()});
      s.m_edges = 0;
      s.m_max_time = 0.0;
    }
  }
  // An empty folded prefix is trivially a chronological prefix.
  s.fold_chrono = true;
  s.finalized_edges = 0;
  s.finalized_max = 0.0;
  if (metrics_ != nullptr) {
    metrics_->version_rebases.fetch_add(1, std::memory_order_relaxed);
  }
}

Status SessionShard::AddEdge(uint64_t session_id, int64_t src, int64_t dst,
                             double edge_time, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  Session& s = *it->second;
  if (s.ended) {
    return Status::FailedPrecondition("session " + std::to_string(session_id) +
                                      " already ended");
  }
  const int64_t n = s.graph.num_nodes();
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!std::isfinite(edge_time)) {
    return RejectNonFinite(metrics_,
                           "edge time must be finite and non-negative");
  }
  if (edge_time < 0.0) {
    return Status::InvalidArgument("edge time must be finite and "
                                   "non-negative");
  }
  // Pick up an immediate-rebase swap before folding: the eager fold below
  // must run the same version as the state it extends.
  MaybeRebaseLocked(session_id, s);
  const double old_max = s.graph.MaxTime();
  const bool has_edges = s.graph.num_edges() > 0;
  if (has_edges && edge_time < s.graph.edges().back().time) {
    s.sorted = false;  // Late edge: chronological != arrival order now.
  }
  if (has_edges && edge_time < old_max) {
    s.fold_chrono = false;  // Folded prefixes are no longer chrono prefixes.
  }
  s.graph.AddEdge(src, dst, edge_time);

  // Eager fold: advance any component whose fold stays valid regardless of
  // future edges. Components invalidated by max-time changes (see header)
  // are left for EnsureFolded at score time instead of being folded and
  // thrown away per edge. The gate is fold_chrono, not sorted: an edge at
  // or above the running max is chronologically last even in a session that
  // saw earlier disorder, so eager folding resumes once a refold has
  // re-synced the prefixes.
  const core::TemporalPropagation& prop = s.version->model().propagation();
  const core::TpGnnConfig& config = registry_.config();
  if (s.fold_chrono && config.use_temporal_propagation()) {
    tensor::NoGradGuard no_grad;
    const double max_time = s.graph.MaxTime();
    const int64_t total = s.graph.num_edges();
    const TemporalEdge& e = s.graph.edges().back();
    // Chronological predecessor of the new edge (the invariant-basis GRU
    // consumes the inter-event gap): the previous running max — with ties
    // broken by insertion order, the new edge sorts after every equal-time
    // edge, whose timestamp is exactly old_max.
    const double prev_time = total >= 2 ? old_max : 0.0;
    if (!prop.StateDependsOnMaxTime() && s.x_edges == total - 1) {
      prop.PropagateEdgeState(s.x, e, max_time, prev_time, scratch_);
      s.x_edges = total;
      s.x_max_time = max_time;
    }
    if (prop.has_time_accumulator() && !prop.AccumulatorDependsOnMaxTime() &&
        s.m_edges == total - 1) {
      prop.AccumulateEdgeTime(s.m, e, max_time, scratch_);
      s.m_edges = total;
      s.m_max_time = max_time;
    }
  }

  TouchLocked(session_id, s, now);
  if (metrics_ != nullptr) {
    metrics_->edges_ingested.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

const std::vector<TemporalEdge>& SessionShard::EnsureFolded(
    Session& s, bool force_refold) {
  const core::TemporalPropagation& prop = s.version->model().propagation();
  const core::TpGnnConfig& config = registry_.config();
  const std::vector<TemporalEdge>* order = &s.graph.edges();
  if (!s.sorted) {
    s.chrono = s.graph.ChronologicalEdges();
    order = &s.chrono;
  }
  if (!config.use_temporal_propagation()) {
    return *order;  // State is X0 untouched; nothing folds.
  }

  const double max_time = s.graph.MaxTime();
  const int64_t total = s.graph.num_edges();

  // Node state x. For an unsorted session the previously folded prefix may
  // not be a prefix of the new chronological order, so any growth forces a
  // rebuild; for max-coupled state (GRU + Time2Vec under normalize_time in
  // the absolute basis) a max-time change re-times every folded step. The
  // invariant basis removes the max coupling, so only the unsorted case
  // (and the forced shard.rescale fallback) remains.
  const bool x_stale =
      s.x_edges > 0 &&
      (force_refold ||
       (prop.StateDependsOnMaxTime() && s.x_max_time != max_time) ||
       (!s.fold_chrono && s.x_edges != total));
  if (x_stale) {
    s.x = s.x0.Clone();
    s.x_edges = 0;
    if (metrics_ != nullptr) {
      metrics_->state_refolds.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (int64_t i = s.x_edges; i < total; ++i) {
    const double prev_time =
        i > 0 ? (*order)[static_cast<size_t>(i - 1)].time : 0.0;
    prop.PropagateEdgeState(s.x, (*order)[static_cast<size_t>(i)], max_time,
                            prev_time, scratch_);
  }
  s.x_edges = total;
  s.x_max_time = max_time;

  // SUM time accumulator m: in the absolute basis normalization couples
  // every folded f(t) to the current max time; in the invariant basis the
  // raw-time sums never go stale under a max move.
  if (prop.has_time_accumulator()) {
    const bool m_stale =
        s.m_edges > 0 &&
        (force_refold ||
         (prop.AccumulatorDependsOnMaxTime() && s.m_max_time != max_time) ||
         (!s.fold_chrono && s.m_edges != total));
    if (m_stale) {
      std::fill(s.m.MutableData().begin(), s.m.MutableData().end(), 0.0f);
      s.m_edges = 0;
      if (metrics_ != nullptr) {
        metrics_->state_refolds.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (int64_t i = s.m_edges; i < total; ++i) {
      prop.AccumulateEdgeTime(s.m, (*order)[static_cast<size_t>(i)], max_time,
                              scratch_);
    }
    s.m_edges = total;
    s.m_max_time = max_time;
  }
  // Everything folded matches the full chronological order now, so edges at
  // or above the max may eager-fold again.
  s.fold_chrono = true;
  return *order;
}

Status SessionShard::Score(uint64_t session_id, ScoreResult* result) {
  TPGNN_CHECK(result != nullptr);
  result->session_id = session_id;
  // Injected scoring failure/delay. The delay runs BEFORE taking mu_, so a
  // pinned session sits exposed while eviction sweeps race against it —
  // exactly the window the pin protocol must protect.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("shard.score", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      result->status =
          failpoint::InjectedError(StatusCode::kInternal, "shard.score");
      return result->status;
    }
  }
  Stopwatch watch;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    result->status =
        Status::NotFound("unknown session " + std::to_string(session_id));
    return result->status;
  }
  Session& s = *it->second;
  MaybeRebaseLocked(session_id, s);
  // Mixed-version tripwire (the hot-swap safety gate): the pinned version
  // and the stamp of the state it will finalize must agree. They can only
  // disagree if some path re-bound the version handle without rebasing the
  // state — counted, never silently scored away. bench_swap and the chaos
  // sweep assert this stays zero.
  if (s.version->seq() != s.state_seq && metrics_ != nullptr) {
    metrics_->mixed_version_scores.fetch_add(1, std::memory_order_relaxed);
  }
  // Injected rescale fallback: any non-delay fire forces EnsureFolded to
  // discard every folded component and replay it — the legacy refold path —
  // which must reproduce the eagerly folded state bit-for-bit. Evaluated
  // once per score of a live session, so fire counts map 1:1 to scores.
  bool force_refold = false;
  failpoint::Hit rescale_hit;
  if (TPGNN_FAILPOINT("shard.rescale", &rescale_hit)) {
    if (rescale_hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(rescale_hit);
    } else {
      force_refold = true;
    }
  }
  // A session scored again with no new edge under the same state would
  // fold nothing, rescale nothing and finalize the same values: reuse the
  // logit. A forced refold always recomputes.
  const int64_t edges = s.graph.num_edges();
  if (!force_refold && s.cached_edges == edges &&
      s.cached_seq == s.state_seq) {
    result->logit = s.cached_logit;
  } else {
    tensor::NoGradGuard no_grad;
    const core::TpGnnModel& model = s.version->model();
    const std::vector<TemporalEdge>& order = EnsureFolded(s, force_refold);
    const core::TpGnnConfig& config = model.config();
    const double max_time = s.graph.MaxTime();
    // A score whose finalize carries previously finalized folded state
    // across a max-time move is the invariant basis absorbing what the
    // absolute basis would have refolded.
    const bool invariant_coupled =
        config.time_basis == core::TimeBasis::kInvariant &&
        config.normalize_time && config.use_temporal_propagation() &&
        config.use_time_encoding();
    if (invariant_coupled && s.finalized_edges > 0 &&
        s.finalized_max != max_time && metrics_ != nullptr) {
      metrics_->state_rescales.fetch_add(1, std::memory_order_relaxed);
    }
    s.finalized_edges = edges;
    s.finalized_max = max_time;
    Tensor h =
        model.propagation().FinalizeState(s.x, s.m, max_time, scratch_);
    Tensor g = model.EmbedFromNodeStates(h, order);
    result->logit = model.ClassifyEmbedding(g).item();
    s.cached_logit = result->logit;
    s.cached_edges = edges;
    s.cached_seq = s.state_seq;
  }
  result->probability = ProbabilityOf(result->logit);
  result->edges_scored = edges;
  result->score_micros = watch.ElapsedMicros();
  result->status = Status::Ok();
  return result->status;
}

Status SessionShard::ShadowScore(uint64_t session_id, float primary_logit) {
  model::ModelVersionPtr shadow = registry_.shadow();
  if (shadow == nullptr) {
    return Status::Ok();
  }
  // Injected shadow failure: the shadow path must be able to die without
  // the primary result noticing — callers only account the failure.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("model.shadow_score", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      if (metrics_ != nullptr) {
        metrics_->shadow_failures.fetch_add(1, std::memory_order_relaxed);
      }
      return failpoint::InjectedError(StatusCode::kInternal,
                                      "model.shadow_score");
    }
  }
  Stopwatch watch;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    // The session ended between the primary score and the shadow pass.
    if (metrics_ != nullptr) {
      metrics_->shadow_failures.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  Session& s = *it->second;
  float shadow_logit = 0.0f;
  {
    // Full offline forward under the shadow version — nothing is shared
    // with the session's folded state (which belongs to its pinned
    // version), so the result is exactly the shadow model's ForwardLogit on
    // this graph.
    tensor::NoGradGuard no_grad;
    const core::TpGnnModel& model = shadow->model();
    const std::vector<TemporalEdge>* order = &s.graph.edges();
    std::vector<TemporalEdge> chrono;
    if (!s.sorted) {
      chrono = s.graph.ChronologicalEdges();
      order = &chrono;
    }
    Tensor h = model.propagation().Forward(s.graph, *order);
    Tensor g = model.EmbedFromNodeStates(h, *order);
    shadow_logit = model.ClassifyEmbedding(g).item();
  }
  if (metrics_ != nullptr) {
    metrics_->shadow_scores.fetch_add(1, std::memory_order_relaxed);
    metrics_->RecordShadowDelta(std::fabs(static_cast<double>(primary_logit) -
                                          static_cast<double>(shadow_logit)));
    metrics_->shadow_latency.Record(watch.ElapsedMicros());
  }
  return Status::Ok();
}

Status SessionShard::EndSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  Session& s = *it->second;
  if (metrics_ != nullptr) {
    metrics_->sessions_ended.fetch_add(1, std::memory_order_relaxed);
  }
  if (s.pinned > 0) {
    s.ended = true;  // In-flight scores keep the state alive until Unpin.
    return Status::Ok();
  }
  RemoveLocked(session_id, s);
  return Status::Ok();
}

Status SessionShard::ExportSession(uint64_t session_id,
                                   SessionState* state) const {
  TPGNN_CHECK(state != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  const Session& s = *it->second;
  if (s.ended) {
    return Status::FailedPrecondition("session " + std::to_string(session_id) +
                                      " already ended");
  }
  *state = SessionState();
  state->session_id = session_id;
  state->num_nodes = s.graph.num_nodes();
  state->feature_dim = s.graph.feature_dim();
  state->features.reserve(
      static_cast<size_t>(state->num_nodes * state->feature_dim));
  for (int64_t node = 0; node < state->num_nodes; ++node) {
    const std::vector<float>& row = s.graph.node_feature(node);
    state->features.insert(state->features.end(), row.begin(), row.end());
  }
  state->edges = s.graph.edges();
  state->sorted = s.sorted;
  state->fold_chrono = s.fold_chrono;
  state->x_edges = s.x_edges;
  state->m_edges = s.m_edges;
  state->x_max_time = s.x_max_time;
  state->m_max_time = s.m_max_time;
  state->finalized_edges = s.finalized_edges;
  state->finalized_max = s.finalized_max;
  state->last_touch = s.last_touch;
  state->model_version = s.version->name();
  state->x0 = s.x0.data();
  state->x = s.x.data();
  if (s.version->model().propagation().has_time_accumulator()) {
    state->m = s.m.data();
  }
  if (metrics_ != nullptr) {
    metrics_->sessions_exported.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status SessionShard::ImportSession(const SessionState& state, double now) {
  const core::TpGnnConfig& config = registry_.config();
  // The fold is parameter-dependent: the snapshot's tensors are only valid
  // under the exact version that produced them. An empty tag is a
  // version-1 snapshot and resolves to the primary; an unknown tag is a
  // typed precondition failure so the caller can fall back to journal
  // replay instead of silently rebinding the state to other parameters.
  model::ModelVersionPtr version = registry_.Find(state.model_version);
  if (version == nullptr) {
    return Status::FailedPrecondition("snapshot pinned to unknown model "
                                      "version " +
                                      state.model_version);
  }
  const core::TemporalPropagation& prop = version->model().propagation();
  if (state.num_nodes <= 0) {
    return Status::InvalidArgument("session needs at least one node");
  }
  if (state.feature_dim != config.feature_dim) {
    return Status::InvalidArgument(
        "feature_dim mismatch: snapshot has " +
        std::to_string(state.feature_dim) + ", model expects " +
        std::to_string(config.feature_dim));
  }
  const size_t n = static_cast<size_t>(state.num_nodes);
  if (state.features.size() !=
      n * static_cast<size_t>(state.feature_dim)) {
    return Status::InvalidArgument("feature matrix size mismatch");
  }
  if (!AllFinite(state.features.data(), state.features.size())) {
    return RejectNonFinite(metrics_, "non-finite feature in snapshot");
  }
  if (state.x.size() != n * static_cast<size_t>(config.embed_dim) ||
      state.x0.size() != state.x.size()) {
    return Status::InvalidArgument("node state width mismatch with model");
  }
  if (prop.has_time_accumulator()) {
    if (state.m.size() != n * static_cast<size_t>(prop.time_state_dim())) {
      return Status::InvalidArgument("accumulator width mismatch with model");
    }
  } else if (!state.m.empty()) {
    return Status::InvalidArgument("snapshot carries an accumulator the "
                                   "model config does not use");
  }
  for (const TemporalEdge& e : state.edges) {
    if (!std::isfinite(e.time)) {
      return RejectNonFinite(metrics_, "snapshot edge out of range");
    }
    if (e.src < 0 || e.src >= state.num_nodes || e.dst < 0 ||
        e.dst >= state.num_nodes || e.time < 0.0) {
      return Status::InvalidArgument("snapshot edge out of range");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(state.session_id) > 0) {
    return Status::InvalidArgument("duplicate session id " +
                                   std::to_string(state.session_id));
  }
  while (options_.max_resident_sessions > 0 &&
         sessions_.size() >= options_.max_resident_sessions) {
    if (!EvictOneLocked()) {
      if (metrics_ != nullptr) {
        metrics_->overload_rejections.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::Overloaded(
          "shard at resident-session cap with every session pinned");
    }
  }

  auto session = std::make_unique<Session>(state.num_nodes, state.feature_dim);
  std::vector<float> row(static_cast<size_t>(state.feature_dim));
  for (int64_t node = 0; node < state.num_nodes; ++node) {
    const float* src =
        state.features.data() +
        static_cast<size_t>(node) * static_cast<size_t>(state.feature_dim);
    row.assign(src, src + state.feature_dim);
    session->graph.SetNodeFeature(node, row);
  }
  for (const TemporalEdge& e : state.edges) {
    session->graph.AddEdge(e.src, e.dst, e.time);
  }
  // Adopt the exporter's tensors bit-for-bit — including x0, so any later
  // refold replays from the exporter's exact Eq.-1 embedding rather than a
  // recomputed one.
  session->x0 = Tensor::FromVector({state.num_nodes, config.embed_dim},
                                   state.x0);
  session->x = Tensor::FromVector({state.num_nodes, config.embed_dim},
                                  state.x);
  if (prop.has_time_accumulator()) {
    session->m = Tensor::FromVector({state.num_nodes, prop.time_state_dim()},
                                    state.m);
  }
  // Pin the snapshot's version and stamp the session current: the imported
  // pin survives a destination whose primary differs (that is the point of
  // shipping the tag); only a later epoch bump may rebase it.
  session->version = std::move(version);
  session->state_seq = session->version->seq();
  session->assign_epoch = registry_.assignment_epoch();
  session->sorted = state.sorted;
  session->fold_chrono = state.fold_chrono;
  session->x_edges = state.x_edges;
  session->m_edges = state.m_edges;
  session->x_max_time = state.x_max_time;
  session->m_max_time = state.m_max_time;
  session->finalized_edges = state.finalized_edges;
  session->finalized_max = state.finalized_max;
  session->last_touch = state.last_touch > 0.0 ? state.last_touch : now;
  lru_.push_front(state.session_id);
  session->lru_it = lru_.begin();
  sessions_.emplace(state.session_id, std::move(session));
  if (metrics_ != nullptr) {
    metrics_->sessions_imported.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status SessionShard::Pin(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  ++it->second->pinned;
  return Status::Ok();
}

void SessionShard::Unpin(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return;
  }
  Session& s = *it->second;
  TPGNN_CHECK_GT(s.pinned, 0);
  if (--s.pinned == 0 && s.ended) {
    RemoveLocked(session_id, s);
  }
}

void SessionShard::EvictIdle(double now) {
  if (options_.idle_ttl_seconds <= 0.0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // LRU order is most-recent-first, so expired sessions cluster at the
  // back; walk from the back and stop at the first live one.
  std::vector<uint64_t> expired;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Session& s = *sessions_.at(*it);
    if (now - s.last_touch <= options_.idle_ttl_seconds) {
      break;
    }
    if (s.pinned == 0) {
      expired.push_back(*it);
    }
  }
  for (uint64_t id : expired) {
    auto it = sessions_.find(id);
    RemoveLocked(id, *it->second);
    if (metrics_ != nullptr) {
      metrics_->sessions_evicted.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

size_t SessionShard::resident_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool SessionShard::EvictOneLocked() {
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    Session& s = *sessions_.at(*it);
    if (s.pinned == 0) {
      const uint64_t id = *it;
      RemoveLocked(id, s);
      if (metrics_ != nullptr) {
        metrics_->sessions_evicted.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
  }
  return false;
}

void SessionShard::RemoveLocked(uint64_t session_id, Session& s) {
  lru_.erase(s.lru_it);
  sessions_.erase(session_id);
}

void SessionShard::TouchLocked(uint64_t session_id, Session& s, double now) {
  s.last_touch = now;
  lru_.splice(lru_.begin(), lru_, s.lru_it);
  s.lru_it = lru_.begin();
  (void)session_id;
}

// --- SessionRouter ----------------------------------------------------------

SessionRouter::SessionRouter(const model::ModelRegistry& registry,
                             const Options& options, Metrics* metrics) {
  const int num_shards = options.num_shards < 1 ? 1 : options.num_shards;
  ShardOptions shard_options;
  shard_options.idle_ttl_seconds = options.idle_ttl_seconds;
  if (options.max_resident_sessions > 0) {
    shard_options.max_resident_sessions =
        (options.max_resident_sessions + static_cast<size_t>(num_shards) - 1) /
        static_cast<size_t>(num_shards);
  }
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(
        std::make_unique<SessionShard>(registry, shard_options, metrics));
  }
}

SessionShard& SessionRouter::ShardFor(uint64_t session_id) {
  return *shards_[model::SplitMix64(session_id) % shards_.size()];
}

size_t SessionRouter::resident_sessions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->resident_sessions();
  }
  return total;
}

void SessionRouter::EvictIdle(double now) {
  for (const auto& shard : shards_) {
    shard->EvictIdle(now);
  }
}

}  // namespace tpgnn::serve
