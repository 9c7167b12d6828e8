#ifndef TPGNN_NET_PROTOCOL_H_
#define TPGNN_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/event.h"
#include "util/status.h"

// The TP-GNN wire protocol: compact length-prefixed binary frames carrying
// batched serving events over a byte stream (TCP). Per-event dispatch
// overhead dominates CPU-side dynamic-GNN serving, so the unit of transfer
// is a *batch* of events, and requests pipeline freely — a client may have
// any number of frames in flight; the server answers in arrival order.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic 0x4E475054 ("TPGN")
//   4       1     protocol version (kProtocolVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be zero
//   8       4     payload length in bytes
//   12      ...   payload (type-specific, see DESIGN.md §4.4)
//
// Payload integers are unsigned LEB128 varints (signed values zigzag);
// floats and doubles are raw IEEE-754 bits; strings are a varint length
// followed by bytes. Decoding is strictly bounds-checked: a malformed,
// truncated-inside-payload, bit-flipped, or trailing-garbage frame yields
// kDataLoss, an oversized length prefix yields kInvalidArgument, and no
// input — adversarial or not — reads out of bounds or aborts (see
// tests/net/protocol_fuzz_test.cc). After a decode error the stream cannot
// be resynchronised; the connection must be torn down.

namespace tpgnn::net {

inline constexpr uint32_t kFrameMagic = 0x4E475054u;  // "TPGN"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint32_t kDefaultMaxPayloadBytes = 16u << 20;

enum class FrameType : uint8_t {
  // Client -> server.
  kPing = 1,            // request_id: echo token.
  kIngestBatch = 3,     // request_id + a batch of serve::Events.
  kScore = 5,           // request_id + session_id + label: one score request.
  kMetricsRequest = 7,  // empty.
  kShutdown = 9,        // empty: drain everything, then stop the server.
  // Server -> client.
  kPong = 2,             // request_id echoed from the Ping.
  kIngestAck = 4,        // request_id, status_code, events_applied, text.
  kScoreResult = 6,      // a batch of ScoreResults, in enqueue order.
  kMetricsResponse = 8,  // text: serve::Metrics JSON.
  kGoodbye = 10,         // final frame before the server closes the stream.
  kOverloaded = 11,      // request_id, events_applied: shed load and retry.
  kError = 12,           // status_code + text; the connection closes after.
  // Session migration (router <-> backend, see src/cluster/).
  kSessionExport = 13,  // request_id + session_id: snapshot and hand over.
  kSessionState = 14,   // request_id, status_code, text, blob: the snapshot.
  kSessionImport = 15,  // request_id + blob: install a migrated session;
                        // acknowledged with kIngestAck.
  // Model lifecycle admin (DESIGN.md §4.8).
  kModelLoad = 16,      // request_id, name, text = checkpoint path: register
                        // an inactive version; acknowledged with kIngestAck.
  kModelActivate = 17,  // request_id, name, mode (ModelAdminMode), fraction:
                        // swap / A/B / shadow verbs; acknowledged with
                        // kIngestAck.
  kModelStatus = 18,    // request_id: registry snapshot request.
  kModelInfo = 19,      // request_id, status_code, text: the registry's
                        // StatusJson (or the error message).
};

// kModelActivate sub-verbs, carried in Frame::mode.
enum class ModelAdminMode : uint8_t {
  kActivateDrain = 0,   // Primary swap; live sessions drain on their version.
  kActivateRebase = 1,  // Primary swap; live sessions refold at next touch.
  kSetCandidate = 2,    // A/B: route `fraction` of sessions to `name`.
  kSetShadow = 3,       // Re-score every primary score under `name`.
  kClearCandidate = 4,  // `name` ignored.
  kClearShadow = 5,     // `name` ignored.
};
inline constexpr uint8_t kMaxModelAdminMode =
    static_cast<uint8_t>(ModelAdminMode::kClearShadow);
// Decoder cap for Frame::name, matching serve::kMaxModelVersionName:
// version names are short handles, not payloads.
inline constexpr size_t kMaxModelNameBytes = 256;

const char* FrameTypeName(FrameType type);

// One decoded frame: `type` plus the fields that type uses (unused fields
// keep their defaults). A deliberately plain tagged struct — the server and
// client switch on `type` and read the relevant fields.
struct Frame {
  FrameType type = FrameType::kPing;
  // Correlation id, echoed by the response (Ping token; IngestBatch /
  // Score id echoed by IngestAck / Overloaded).
  uint64_t request_id = 0;
  // kIngestBatch.
  std::vector<serve::Event> events;
  // kScore.
  uint64_t session_id = 0;
  int label = -1;
  // kScoreResult.
  std::vector<serve::ScoreResult> results;
  // kIngestAck / kOverloaded / kError.
  StatusCode status_code = StatusCode::kOk;
  uint64_t events_applied = 0;
  // kIngestAck / kError message; kMetricsResponse JSON.
  std::string text;
  // kSessionState / kSessionImport: opaque serialized serve::SessionState.
  // The wire layer does not interpret it beyond length-checking.
  std::vector<uint8_t> blob;
  // kModelLoad / kModelActivate: registry version name (the checkpoint path
  // rides in `text` for kModelLoad).
  std::string name;
  // kModelActivate sub-verb (ModelAdminMode) and A/B fraction.
  uint8_t mode = 0;
  double fraction = 0.0;
};

// Appends the complete wire encoding of `frame` to `*out`.
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

// Attempts to decode one frame from the front of [data, data + size).
// Outcomes:
//   * kOk, *consumed > 0  — `*frame` holds a complete frame.
//   * kOk, *consumed == 0 — the buffer holds only a frame prefix; read more
//     bytes and call again. Header fields are validated as soon as the
//     12-byte header is present, so corruption is detected without waiting
//     for the payload.
//   * kDataLoss           — corrupt stream (bad magic / version / reserved
//     bits / unknown type / payload that over- or under-runs its length).
//   * kInvalidArgument    — well-formed header whose payload length exceeds
//     `max_payload_bytes`.
Status DecodeFrame(const uint8_t* data, size_t size, uint32_t max_payload_bytes,
                   Frame* frame, size_t* consumed);

}  // namespace tpgnn::net

#endif  // TPGNN_NET_PROTOCOL_H_
