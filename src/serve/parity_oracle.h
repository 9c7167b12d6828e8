#ifndef TPGNN_SERVE_PARITY_ORACLE_H_
#define TPGNN_SERVE_PARITY_ORACLE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "graph/temporal_graph.h"
#include "serve/event.h"
#include "util/status.h"

// The serving contract's one reference (DESIGN.md §4.3): a served score is
// correct when its logit and probability bits equal the inference-mode
// offline forward over its session's first `edges_scored` arrived edges —
// whichever shard, process or backend served it, and however often the
// session moved.
//
//   * OfflineLogit is that forward over a fully built graph. The serving
//     tests that pin SessionShard to it (tests/serve/parity_test.cc,
//     rescale_test.cc) build their prefix graphs by hand and call it
//     directly; the soak calls it on sessions it re-materializes.
//   * ParityOracle applies it to a recorded event stream, for every bench
//     and test that checks scores coming back from a server, a router or
//     an engine: Record the events the system under test was sent, then
//     Check each ScoreResult it returned.
//
// The reference is computed on demand and memoized per (session, prefix),
// so only prefixes that were actually scored cost a forward. Check refuses
// to run while any failpoint is armed: the reference must be fault-free,
// and its forward evaluates failpoint sites (pool.acquire), which would
// otherwise draw fires that belong to the stack under test. Record and
// Check are thread-safe. Every SIMD mode computes the same bits, so one
// oracle serves scores from any mode.

namespace tpgnn::serve {

// The offline reference score: the model's zero-copy inference forward
// over the fully built graph.
float OfflineLogit(core::TpGnnModel& model, const graph::TemporalGraph& g);

class ParityOracle {
 public:
  // `config` and `seed` are the ones every engine under test serves.
  ParityOracle(const core::TpGnnConfig& config, uint64_t seed);

  // Records `events` in order. A Begin (re)opens its session with the
  // node set and features; an Edge appends to its session's arrival order.
  // Score and End events are ignored, so a score resolved after its
  // session's End still checks. An Edge of a session with no recorded
  // Begin is dropped: every score of that session then fails Check as
  // unknown.
  void Record(const std::vector<Event>& events);

  // OK iff `result` carries the reference logit and probability bits of
  // its session at prefix `edges_scored`. kDataLoss on a bit mismatch, an
  // unknown session or a prefix longer than what arrived, with a message
  // naming the session, the prefix and both values; kFailedPrecondition
  // while a failpoint is armed; kInvalidArgument for a result whose own
  // status is not OK (it carries no score).
  Status Check(const ScoreResult& result);

 private:
  struct Session {
    int64_t num_nodes = 0;
    int64_t feature_dim = 0;
    std::vector<NodeInit> features;
    std::vector<graph::TemporalEdge> edges;  // Arrival order.
    std::unordered_map<int64_t, float> logits;  // Prefix -> reference.
  };

  std::mutex mu_;  // Guards the forward through model_, and sessions_.
  core::TpGnnModel model_;
  std::unordered_map<uint64_t, Session> sessions_;
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_PARITY_ORACLE_H_
