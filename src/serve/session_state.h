#ifndef TPGNN_SERVE_SESSION_STATE_H_
#define TPGNN_SERVE_SESSION_STATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/status.h"

// Portable snapshot of one live serving session, the payload of the
// SESSION_EXPORT / SESSION_IMPORT migration frames (DESIGN.md §4.7). The
// snapshot carries everything SessionShard holds for the session — the
// feature matrix, the edge list in ARRIVAL order (arrival order is the
// fold's tie-break identity, so it must survive the move, not just the
// chronological sort), and the raw folded x/m/x0 tensors as exact float
// bits — so a session imported on another backend scores bit-identically
// to one that never moved. Under TimeBasis::kInvariant the folded state is
// max-time independent, which keeps the payload free of any
// renormalization coupling to the destination's clock.
//
// The binary encoding uses the wire protocol's byte codec
// (util/byte_codec.h: LEB128 varints, zigzag for signed, raw little-endian
// IEEE-754 bits, the same plausibility caps) but is a separate, versioned
// format: the wire layer treats it as an opaque blob.

namespace tpgnn::serve {

inline constexpr uint32_t kSessionStateMagic = 0x53535054u;  // "TPSS"
// Version 2 appends the model-version tag (the registry name the session's
// fold is pinned to) after last_touch. Version-1 blobs still parse, with an
// empty tag — the importer resolves that to its primary.
inline constexpr uint8_t kSessionStateVersion = 2;
// Plausibility cap for the model-version tag, matching the registry's
// admin-frame expectations: names are short handles, not payloads.
inline constexpr size_t kMaxModelVersionName = 256;

struct SessionState {
  uint64_t session_id = 0;
  int64_t num_nodes = 0;
  int64_t feature_dim = 0;
  // Dense [num_nodes, feature_dim] row-major feature matrix.
  std::vector<float> features;
  // Every edge in arrival order.
  std::vector<graph::TemporalEdge> edges;

  // Fold bookkeeping, mirroring SessionShard::Session.
  bool sorted = true;
  bool fold_chrono = true;
  int64_t x_edges = 0;
  int64_t m_edges = 0;
  double x_max_time = 0.0;
  double m_max_time = 0.0;
  int64_t finalized_edges = 0;
  double finalized_max = 0.0;
  double last_touch = 0.0;

  // Registry name of the model version the folded tensors were produced
  // under (empty = importer's primary, the version-1 behaviour). The folded
  // state is parameter-dependent, so a migrated session must keep scoring
  // under this exact version to stay bit-identical.
  std::string model_version;

  // Raw folded tensors as exact float bits. x0 is shipped rather than
  // recomputed so a refold on the destination replays from the exporter's
  // exact Eq.-1 embedding. m is empty unless the config has a SUM time
  // accumulator.
  std::vector<float> x0;
  std::vector<float> x;
  std::vector<float> m;
};

// Appends the versioned binary encoding of `state` to `*out`.
void SerializeSessionState(const SessionState& state,
                           std::vector<uint8_t>* out);

// Decodes a blob produced by SerializeSessionState. Strictly
// bounds-checked like the wire decoder: truncation, trailing bytes, a bad
// magic/version, or an implausible count yields kDataLoss and never reads
// out of bounds. Structural consistency (fold counts within the edge
// count, tensor sizes divisible by num_nodes) and finite features and edge
// times are validated here, also as kDataLoss; model compatibility
// (feature_dim, state widths) is the importer's job. The folded x/m may
// hold non-finite values: with stabilize_sum off they overflow
// legitimately.
Status ParseSessionState(const uint8_t* data, size_t size,
                         SessionState* state);

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_SESSION_STATE_H_
