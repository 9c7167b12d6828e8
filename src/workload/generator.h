#ifndef TPGNN_WORKLOAD_GENERATOR_H_
#define TPGNN_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "serve/event.h"
#include "util/rng.h"

// Seeded, constant-memory streaming workload generation (DESIGN.md §4.9).
//
// There is no materialized dataset: WorkloadGenerator::Next pulls one serve
// Event at a time from an on-the-fly merge of (a) a Poisson-like session
// arrival process, optionally modulated by a square-wave overload burst,
// and (b) the per-session event schedules of the currently open sessions.
// Memory is bounded by max_open_sessions regardless of how many sessions or
// events the stream produces, so a soak run can stream hundreds of
// thousands of sessions without holding any of them.
//
// Two determinism contracts, both seed-pure:
//   * Stream determinism: the full event sequence is a pure function of
//     WorkloadOptions. Same options => byte-identical streams, on any
//     machine, from any thread.
//   * Session determinism: a session's *content* (tenant, node set,
//     features, edges with session-local timestamps, score placements,
//     label) is a pure function of (options, session index) alone — global
//     scheduling only decides stream-clock interleaving, never content. So
//     MaterializeSession(i) reproduces exactly what the stream emitted for
//     session i, which is what lets the soak harness re-score a sampled
//     session offline and demand bitwise parity with the serving path.
//
// The split is enforced structurally: every content draw comes from the
// session's own Rng (seeded by SessionSeed), every scheduling draw from a
// separate schedule Rng, and the streaming path consumes the session Rng in
// exactly MaterializeSession's draw order.

namespace tpgnn::workload {

// One tenant class in a multi-tenant mix: how big its sessions are, how
// its nodes scale with edges, how chatty scoring is, and how likely a
// session is to be abandoned (dropped without an End event — the fuel of
// eviction churn, since only TTL/cap eviction can reclaim it).
struct TenantProfile {
  std::string name = "default";
  double weight = 1.0;  // Relative share of the session mix.

  // Session size: edges ~ ClampedLogNormal.
  double edges_log_mean = 3.2;
  double edges_log_sigma = 0.8;
  int64_t min_edges = 4;
  int64_t max_edges = 512;

  // Node count: clamp(round(nodes_per_edge * edges)).
  double nodes_per_edge = 0.4;
  int64_t min_nodes = 4;
  int64_t max_nodes = 128;
  int64_t feature_dim = 3;

  // A Score request every this many edges (0 = only the final score), plus
  // one final Score before End unless the session is abandoned.
  int64_t score_every_edges = 16;

  // Mean stream-seconds between consecutive events of one session
  // (exponential); controls how long a session stays open and therefore the
  // concurrency level a given arrival rate sustains.
  double event_gap_mean = 0.05;

  // Mean session-local time delta between consecutive edges (uniform in
  // (0, 2 * mean]); the model's t axis, independent of the stream clock.
  double edge_time_gap_mean = 1.0;

  // Probability the session is abandoned: it stops emitting after its last
  // edge, with no final Score and no End.
  double abandon_probability = 0.0;
};

// Square-wave arrival-rate modulation: for the first burst_fraction of
// every period the session arrival rate is multiplied by burst_multiplier.
// period_seconds <= 0 disables the wave.
struct OverloadWave {
  double period_seconds = 0.0;
  double burst_fraction = 0.25;
  double burst_multiplier = 8.0;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  // Total sessions to generate; 0 = unbounded (the caller decides when to
  // stop pulling).
  uint64_t num_sessions = 0;
  // Base session arrival rate, sessions per stream-second.
  double session_arrival_rate = 200.0;
  OverloadWave wave;
  // Cap on concurrently open generator sessions — the generator's entire
  // per-stream state. When the cap is hit, new arrivals wait for an open
  // session to finish.
  size_t max_open_sessions = 512;
  // The tenant mix; must be non-empty with at least one positive weight.
  std::vector<TenantProfile> tenants = {TenantProfile{}};
};

// A fully materialized session, as MaterializeSession returns it: exactly
// the content the stream emits for that index, in emission order.
struct MaterializedSession {
  uint64_t session_id = 0;
  size_t tenant = 0;
  int64_t num_nodes = 0;
  int64_t feature_dim = 0;
  std::vector<std::vector<float>> features;  // One vector per node.
  struct Edge {
    int64_t src = 0;
    int64_t dst = 0;
    double time = 0.0;  // Session-local timestamp (the model's t).
  };
  std::vector<Edge> edges;
  int label = 0;
  bool abandoned = false;
};

// Session identity: id = SplitMix64 output of seed advanced (index + 1)
// golden-gamma steps. The mix is a bijection of the advanced state, so ids
// are unique within one seed's stream and collide across two seeds only
// with ~n^2 / 2^64 probability.
uint64_t SessionId(uint64_t seed, uint64_t index);
// Per-session content seed, independent of SessionId (different derivation
// lane) and of the schedule Rng.
uint64_t SessionSeed(uint64_t seed, uint64_t index);

// A bounded stream drawn whole: the traffic every serving bench, the demo
// and the network tests ship (through workload::DriveEngine/DriveWire).
struct Stream {
  std::vector<serve::Event> events;
  uint64_t scores = 0;  // Score requests among `events`.
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadOptions& options);
  ~WorkloadGenerator();  // Out of line: OpenSession is incomplete here.

  // Pulls the next stream event. Returns false when a bounded workload
  // (num_sessions > 0) is exhausted; an unbounded one never returns false.
  // When session_index is non-null it receives the 0-based index of the
  // event's session (the MaterializeSession argument).
  bool Next(serve::Event* event, uint64_t* session_index = nullptr);

  // Reconstructs session `index`'s full content, independent of stream
  // state. Pure in (options, index): callable before, during, or after the
  // stream reaches that session, from any thread, on a fresh generator.
  MaterializedSession MaterializeSession(uint64_t index) const;

  // Every event of a bounded workload (options.num_sessions > 0), drawn
  // by a fresh generator.
  static Stream Draw(const WorkloadOptions& options);

  const WorkloadOptions& options() const { return options_; }
  // Sessions whose Begin has been emitted so far.
  uint64_t sessions_started() const { return next_index_; }
  // Current stream-clock read of the last emitted event.
  double stream_time() const { return stream_time_; }

 private:
  struct OpenSession;

  // Arrival-rate multiplier of the overload wave at stream time t.
  double WaveMultiplier(double t) const;
  // Draws a session header (tenant, sizes, label, ...) from its content
  // Rng, leaving `rng` positioned right before the first per-edge draw.
  struct SessionPlan;
  SessionPlan PlanSession(Rng* rng) const;

  void EmitBegin(serve::Event* event, uint64_t* session_index);
  void EmitFromOpen(serve::Event* event, uint64_t* session_index);

  const WorkloadOptions options_;
  std::vector<double> tenant_weights_;
  Rng schedule_rng_;
  double next_arrival_time_ = 0.0;
  uint64_t next_index_ = 0;
  double stream_time_ = 0.0;

  // Min-heap of open sessions keyed by the stream time of their next edge;
  // ties break on the slot for a total order.
  struct HeapEntry {
    double time;
    size_t slot;
    bool operator>(const HeapEntry& other) const {
      return time != other.time ? time > other.time : slot > other.slot;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap_;
  std::vector<OpenSession> slots_;
  std::vector<size_t> free_slots_;
  // The next edge's endpoints per slot, drawn when the edge was scheduled
  // (its Rng draws happen at schedule time, one event ahead of emission).
  struct PendingDraw {
    int64_t src = 0;
    int64_t dst = 0;
  };
  std::vector<PendingDraw> pending_draws_;
  // Session-order events (scores, End) that trail an emitted edge at the
  // same stream time; drained before the merge consults the heap again.
  std::deque<std::pair<serve::Event, uint64_t>> pending_;
};

}  // namespace tpgnn::workload

#endif  // TPGNN_WORKLOAD_GENERATOR_H_
