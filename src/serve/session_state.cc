#include "serve/session_state.h"

#include <cmath>
#include <string>

#include "util/byte_codec.h"

namespace tpgnn::serve {

namespace {

void AppendFloats(const std::vector<float>& values,
                  std::vector<uint8_t>* out) {
  AppendVarint(values.size(), out);
  for (float f : values) {
    AppendF32(f, out);
  }
}

// Reads a varint-prefixed float array; the count must be covered by the
// bytes actually present (4 per float).
bool ReadFloats(ByteReader& reader, std::vector<float>* values) {
  uint64_t count;
  if (!reader.ReadVarint(&count)) return false;
  if (count > reader.remaining() / 4) return reader.Fail();
  values->resize(static_cast<size_t>(count));
  for (float& f : *values) {
    if (!reader.ReadF32(&f)) return false;
  }
  return true;
}

Status Corrupt(const std::string& detail) {
  return Status::DataLoss("corrupt session state: " + detail);
}

}  // namespace

void SerializeSessionState(const SessionState& state,
                           std::vector<uint8_t>* out) {
  AppendU32(kSessionStateMagic, out);
  out->push_back(kSessionStateVersion);
  AppendVarint(state.session_id, out);
  AppendVarint(static_cast<uint64_t>(state.num_nodes), out);
  AppendVarint(static_cast<uint64_t>(state.feature_dim), out);
  for (float f : state.features) {
    AppendF32(f, out);
  }
  AppendVarint(state.edges.size(), out);
  for (const graph::TemporalEdge& e : state.edges) {
    AppendZigzag(e.src, out);
    AppendZigzag(e.dst, out);
    AppendF64(e.time, out);
  }
  const uint8_t flags = (state.sorted ? 1u : 0u) |
                        (state.fold_chrono ? 2u : 0u) |
                        (state.m.empty() ? 0u : 4u);
  out->push_back(flags);
  AppendVarint(static_cast<uint64_t>(state.x_edges), out);
  AppendF64(state.x_max_time, out);
  AppendFloats(state.x0, out);
  AppendFloats(state.x, out);
  if (!state.m.empty()) {
    AppendVarint(static_cast<uint64_t>(state.m_edges), out);
    AppendF64(state.m_max_time, out);
    AppendFloats(state.m, out);
  }
  AppendVarint(static_cast<uint64_t>(state.finalized_edges), out);
  AppendF64(state.finalized_max, out);
  AppendF64(state.last_touch, out);
  AppendString(state.model_version, out);
}

Status ParseSessionState(const uint8_t* data, size_t size,
                         SessionState* state) {
  *state = SessionState();
  ByteReader reader(data, size);
  uint32_t magic = 0;
  uint8_t version = 0;
  if (!reader.ReadU32(&magic) || magic != kSessionStateMagic) {
    return Corrupt("bad magic");
  }
  if (!reader.ReadU8(&version) || version < 1 ||
      version > kSessionStateVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  uint64_t num_nodes = 0, feature_dim = 0;
  if (!reader.ReadVarint(&state->session_id) ||
      !reader.ReadVarint(&num_nodes) || num_nodes == 0 ||
      num_nodes > kMaxNodesPerSession || !reader.ReadVarint(&feature_dim) ||
      feature_dim > kMaxFeatureDim) {
    return Corrupt("bad header");
  }
  state->num_nodes = static_cast<int64_t>(num_nodes);
  state->feature_dim = static_cast<int64_t>(feature_dim);
  const uint64_t feature_count = num_nodes * feature_dim;
  if (feature_count > reader.remaining() / 4) {
    return Corrupt("feature matrix overruns payload");
  }
  state->features.resize(static_cast<size_t>(feature_count));
  for (float& f : state->features) {
    if (!reader.ReadF32(&f)) return Corrupt("truncated features");
    if (!std::isfinite(f)) return Corrupt("non-finite feature");
  }
  uint64_t num_edges = 0;
  if (!reader.ReadVarint(&num_edges) ||
      num_edges > reader.remaining() / 10) {  // >= 1+1+8 bytes per edge.
    return Corrupt("implausible edge count");
  }
  state->edges.resize(static_cast<size_t>(num_edges));
  for (graph::TemporalEdge& e : state->edges) {
    if (!reader.ReadZigzag(&e.src) || !reader.ReadZigzag(&e.dst) ||
        !reader.ReadF64(&e.time)) {
      return Corrupt("truncated edge list");
    }
    if (e.src < 0 || e.src >= state->num_nodes || e.dst < 0 ||
        e.dst >= state->num_nodes || e.time < 0.0 || !std::isfinite(e.time)) {
      return Corrupt("edge endpoint or time out of range");
    }
  }
  uint8_t flags = 0;
  uint64_t x_edges = 0;
  if (!reader.ReadU8(&flags) || (flags & ~7u) != 0 ||
      !reader.ReadVarint(&x_edges) || !reader.ReadF64(&state->x_max_time) ||
      !ReadFloats(reader, &state->x0) || !ReadFloats(reader, &state->x)) {
    return Corrupt("truncated fold state");
  }
  state->sorted = (flags & 1u) != 0;
  state->fold_chrono = (flags & 2u) != 0;
  state->x_edges = static_cast<int64_t>(x_edges);
  if ((flags & 4u) != 0) {
    uint64_t m_edges = 0;
    if (!reader.ReadVarint(&m_edges) || !reader.ReadF64(&state->m_max_time) ||
        !ReadFloats(reader, &state->m)) {
      return Corrupt("truncated accumulator state");
    }
    state->m_edges = static_cast<int64_t>(m_edges);
  }
  uint64_t finalized_edges = 0;
  if (!reader.ReadVarint(&finalized_edges) ||
      !reader.ReadF64(&state->finalized_max) ||
      !reader.ReadF64(&state->last_touch)) {
    return Corrupt("truncated trailer");
  }
  state->finalized_edges = static_cast<int64_t>(finalized_edges);
  if (version >= 2 &&
      (!reader.ReadString(&state->model_version) ||
       state->model_version.size() > kMaxModelVersionName)) {
    return Corrupt("truncated model version tag");
  }
  if (reader.remaining() != 0) {
    return Corrupt(std::to_string(reader.remaining()) + " trailing bytes");
  }
  // Structural consistency: fold counts must sit inside the edge list and
  // the tensors must be rectangular over num_nodes.
  const int64_t total = static_cast<int64_t>(state->edges.size());
  if (state->x_edges < 0 || state->x_edges > total || state->m_edges < 0 ||
      state->m_edges > total || state->finalized_edges < 0 ||
      state->finalized_edges > total) {
    return Corrupt("fold counts exceed edge count");
  }
  if (state->x0.size() != state->x.size() ||
      state->x.size() % static_cast<size_t>(state->num_nodes) != 0 ||
      (!state->m.empty() &&
       state->m.size() % static_cast<size_t>(state->num_nodes) != 0)) {
    return Corrupt("state tensor shape mismatch");
  }
  return Status::Ok();
}

}  // namespace tpgnn::serve
