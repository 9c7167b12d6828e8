#ifndef TPGNN_SERVE_SESSION_SHARD_H_
#define TPGNN_SERVE_SESSION_SHARD_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/temporal_graph.h"
#include "model/registry.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/session_state.h"
#include "tensor/tensor.h"
#include "util/status.h"

// Hash-sharded per-session incremental inference state.
//
// A SessionShard owns the sessions whose id hashes to it: for each session
// the growing TemporalGraph, the cached initial embedding X0 (the one-off
// Eq.-1 GEMM), and the raw propagated node state folded edge-by-edge
// through core::TemporalPropagation's single-edge steps. Scoring finalizes
// a copy of the folded state and runs the extractor + classifier stages of
// the model — bit-identical to TpGnnModel::ForwardLogit on the fully built
// graph (see tests/serve/parity_test.cc).
//
// Model versions (DESIGN.md §4.8): there is no process-wide model. Every
// session resolves a refcounted model::ModelVersion handle at Begin (or
// Import) and *pins* it — X0 and the folded x/m are parameter-dependent,
// so every kernel the session ever runs must come from that one version,
// or the score silently blends two models. An atomic primary swap therefore
// never touches live sessions; under SwapPolicy::kImmediateRebase (or an
// A/B assignment change) the registry bumps its assignment epoch and the
// shard re-resolves each session at its next touch, recomputing X0 and
// discarding the folds under the new version (`version_rebases`). A score
// whose pinned version and state stamp ever disagree counts
// `mixed_version_scores` — asserted zero by bench_swap and the chaos sweep.
//
// Fold validity (DESIGN.md §4.3 "Time renormalization algebra"): the SUM
// updater's X-hat fold is time-independent, so it always advances in O(1)
// per edge. Components that consume the time encoding (the SUM M-hat
// accumulator; the whole GRU state) depend, in TimeBasis::kAbsolute under
// config.normalize_time, on the session's final max timestamp, so a
// max-time change since the last fold invalidates them; the shard then
// refolds that component from its cheap base (zeros / X0) at the next score
// and counts a `state_refolds` metric. In TimeBasis::kInvariant the fold is
// carried in a max-time-invariant basis and FinalizeState applies the
// bounded correction at score time instead: every component folds eagerly
// in O(1) per edge, a score under a moved max counts `state_rescales`, and
// refolds remain only for out-of-order edges (timestamp below the session's
// max, which reorders the chronological fold) or the `shard.rescale`
// failpoint (forces the legacy replay as a cross-check). With
// normalize_time off every component folds strictly incrementally in either
// basis.
//
// Concurrency: one mutex per shard; all public methods are thread-safe.
// Events of a single session must still be submitted in order by the
// caller — the shard applies them in arrival order, which is what makes
// per-session results deterministic regardless of shard/thread counts.
//
// Eviction: sessions are kept on an LRU list (most recently touched at the
// front). When the resident cap is hit, the least recently used unpinned
// session is dropped; Pin() marks a session as having an in-flight score
// request, and pinned sessions are never evicted (nor removed by End — the
// removal is deferred to the last Unpin).

namespace tpgnn::serve {

struct ShardOptions {
  // Max resident sessions on this shard; 0 = unlimited. When full and every
  // session is pinned, BeginSession reports kOverloaded.
  size_t max_resident_sessions = 0;
  // Sessions idle (no event) for longer than this many stream seconds are
  // dropped by EvictIdle; <= 0 disables TTL eviction.
  double idle_ttl_seconds = 0.0;
};

class SessionShard {
 public:
  // `registry` must outlive the shard and is shared read-only across shards
  // (inference does not mutate module state). `metrics` may be null.
  SessionShard(const model::ModelRegistry& registry,
               const ShardOptions& options, Metrics* metrics);
  ~SessionShard();

  SessionShard(const SessionShard&) = delete;
  SessionShard& operator=(const SessionShard&) = delete;

  // Opens a session with its node set and features (unlisted nodes keep
  // zero features). `now` is the stream time, used for LRU/TTL bookkeeping.
  // The session resolves and pins its model version here (primary, or the
  // A/B candidate per the registry's deterministic split). Fails with
  // kInvalidArgument on a duplicate id or a feature-dim mismatch with the
  // model config, kOverloaded when the shard is at its cap with every
  // resident session pinned.
  Status BeginSession(uint64_t session_id, int64_t num_nodes,
                      int64_t feature_dim,
                      const std::vector<NodeInit>& features, double now);

  // Appends one timestamped interaction. kNotFound for unknown sessions,
  // kInvalidArgument for endpoint/time violations.
  Status AddEdge(uint64_t session_id, int64_t src, int64_t dst,
                 double edge_time, double now);

  // Scores the session's current state under its pinned model version:
  // result.logit is bit-identical to that version's ForwardLogit(session
  // graph, /*training=*/false) at this edge count. Fills
  // logit/probability/edges_scored; status kNotFound for unknown sessions.
  // A repeat score with no new edge, under the same model state and SIMD
  // mode, returns the last logit without recomputing it.
  Status Score(uint64_t session_id, ScoreResult* result);

  // Re-scores the session's current graph under the registry's shadow
  // version — a full offline replay, so the result is bit-identical to the
  // shadow version's ForwardLogit on the session graph. The logit never
  // leaves the process: |primary − shadow| lands in the metrics shadow
  // block. No-op kOk when no shadow version is set; a missing session or an
  // injected `model.shadow_score` failure counts shadow_failures and never
  // affects the primary result.
  Status ShadowScore(uint64_t session_id, float primary_logit);

  // Closes a session. If score requests are in flight (pinned), removal is
  // deferred until the last Unpin; the session stops accepting edges either
  // way.
  Status EndSession(uint64_t session_id);

  // Marks one in-flight score request. Pinned sessions survive eviction and
  // deferred End. Fails with kNotFound for unknown sessions.
  Status Pin(uint64_t session_id);
  // Releases one Pin; completes a deferred End removal when the last pin
  // drops. Unknown ids are ignored (the session may have ended).
  void Unpin(uint64_t session_id);

  // Snapshots a live session for migration (SESSION_EXPORT). The snapshot
  // carries the session's pinned model-version name, so the destination
  // keeps scoring under the same parameters. Safe while scores are pinned —
  // the shard mutex serializes against Score, so the snapshot is always a
  // consistent fold state. kNotFound for unknown sessions,
  // kFailedPrecondition once End has been received (a deferred removal is
  // not a migratable session).
  Status ExportSession(uint64_t session_id, SessionState* state) const;

  // Installs a migrated session (SESSION_IMPORT): rebuilds the graph from
  // the snapshot and adopts the folded x/m tensors bit-for-bit, so the
  // destination scores exactly as the source would have. The snapshot's
  // model-version tag resolves against this registry: an empty tag means
  // the primary, an unknown tag fails with kFailedPrecondition (the caller
  // falls back to journal replay). Fails with kInvalidArgument on a
  // duplicate id or any shape mismatch with the model config, kOverloaded
  // at the resident cap — the same contract as BeginSession.
  Status ImportSession(const SessionState& state, double now);

  // Drops sessions idle since before `now - idle_ttl_seconds` (never pinned
  // ones). No-op when TTL is disabled.
  void EvictIdle(double now);

  size_t resident_sessions() const;

 private:
  struct Session;

  // Applies pending edges (and any required refold) so the folded state
  // matches the session's full edge list; returns the chronological edge
  // order to feed the extractor. `force_refold` (the shard.rescale
  // failpoint) discards every folded component with a nonempty prefix and
  // replays it, counting state_refolds exactly like an organic
  // invalidation.
  const std::vector<graph::TemporalEdge>& EnsureFolded(Session& s,
                                                       bool force_refold);
  // Re-resolves the session's model version when the registry's assignment
  // epoch moved past the session's stamp (immediate-rebase activation or an
  // A/B change). A changed version recomputes X0 and discards the folds so
  // the next EnsureFolded replays everything under the new parameters
  // (`version_rebases`).
  void MaybeRebaseLocked(uint64_t session_id, Session& s);
  // Evicts the least recently used unpinned session; false if none exists.
  bool EvictOneLocked();
  void RemoveLocked(uint64_t session_id, Session& s);
  void TouchLocked(uint64_t session_id, Session& s, double now);

  const model::ModelRegistry& registry_;
  const ShardOptions options_;
  Metrics* const metrics_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;
  // LRU order, most recent first; Session holds its iterator.
  std::list<uint64_t> lru_;
};

// Routes session ids onto a fixed set of shards with a splitmix64 hash.
// Every event of a session lands on the same shard, so per-session state
// updates serialize behind that shard's mutex in arrival order.
class SessionRouter {
 public:
  struct Options {
    int num_shards = 4;
    // Cap across the whole router, split evenly over shards (ceil); 0 =
    // unlimited.
    size_t max_resident_sessions = 0;
    double idle_ttl_seconds = 0.0;
  };

  SessionRouter(const model::ModelRegistry& registry, const Options& options,
                Metrics* metrics);

  SessionShard& ShardFor(uint64_t session_id);
  SessionShard& shard(size_t index) { return *shards_[index]; }
  size_t num_shards() const { return shards_.size(); }
  // Sum over shards (each read under that shard's lock).
  size_t resident_sessions() const;
  // TTL sweep over every shard.
  void EvictIdle(double now);

 private:
  std::vector<std::unique_ptr<SessionShard>> shards_;
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_SESSION_SHARD_H_
