// Seed-corpus regression for the wire protocol: the most interesting frames
// from the fuzz sweep (every frame type, truncations, corrupt headers,
// hostile lengths) are checked into tests/net/corpus/ as .bin files and
// decoded byte-exactly on every CI run. This pins three contracts at once:
//
//   * encoder stability — EncodeFrame emits the same bytes as the frozen
//     corpus (a silent wire-format change breaks old peers);
//   * decoder stability — each corpus file decodes to the same typed
//     outcome (OK / need-more / kDataLoss / kInvalidArgument) forever;
//   * roundtrip identity — decode(encode(frame)) re-encodes to the same
//     bytes for every well-formed corpus entry.
//
// Regenerate after an INTENTIONAL format change with:
//   TPGNN_REGEN_CORPUS=1 ./net_corpus_test
// and commit the new .bin files together with the protocol change.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "serve/event.h"
#include "util/byte_codec.h"
#include "util/env.h"

#ifndef TPGNN_TEST_CORPUS_DIR
#error "TPGNN_TEST_CORPUS_DIR must point at the checked-in corpus directory"
#endif

namespace tpgnn::net {
namespace {

struct CorpusEntry {
  std::string name;            // File stem under tests/net/corpus/.
  std::vector<uint8_t> bytes;  // The frozen wire bytes.
  StatusCode expected_code = StatusCode::kOk;
  // For kOk: 0 means need-more (incomplete frame), else the full size.
  size_t expected_consumed = 0;
  bool roundtrip = false;  // Decode + re-encode must reproduce `bytes`.
};

// Deterministic PRNG, same as the fuzz sweep, so the garbage entry is
// reproducible from source alone.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  return wire;
}

void AddValid(std::vector<CorpusEntry>* corpus, const std::string& name,
              const Frame& frame) {
  CorpusEntry entry;
  entry.name = name;
  entry.bytes = Encode(frame);
  entry.expected_code = StatusCode::kOk;
  entry.expected_consumed = entry.bytes.size();
  entry.roundtrip = true;
  corpus->push_back(std::move(entry));
}

// The frozen corpus, reconstructed from source. Every entry is
// deterministic: no timestamps, no randomness beyond fixed-seed SplitMix.
std::vector<CorpusEntry> BuildCorpus() {
  std::vector<CorpusEntry> corpus;

  // --- Well-formed frames: one per type, plus the payload-heavy shapes ---
  Frame batch;
  batch.type = FrameType::kIngestBatch;
  batch.request_id = 11;
  serve::Event begin;
  begin.kind = serve::Event::Kind::kBegin;
  begin.session_id = 42;
  begin.num_nodes = 3;
  begin.feature_dim = 2;
  begin.features = {{0, {1.0f, 2.0f}}, {1, {3.0f, 4.0f}}, {2, {5.0f, 6.0f}}};
  batch.events.push_back(begin);
  serve::Event edge;
  edge.kind = serve::Event::Kind::kEdge;
  edge.session_id = 42;
  edge.src = 0;
  edge.dst = 2;
  edge.edge_time = 1.25;
  batch.events.push_back(edge);
  serve::Event score;
  score.kind = serve::Event::Kind::kScore;
  score.session_id = 42;
  score.label = 1;
  batch.events.push_back(score);
  serve::Event end;
  end.kind = serve::Event::Kind::kEnd;
  end.session_id = 42;
  batch.events.push_back(end);
  AddValid(&corpus, "ingest_batch_full", batch);

  Frame empty_batch;
  empty_batch.type = FrameType::kIngestBatch;
  empty_batch.request_id = 12;
  AddValid(&corpus, "ingest_batch_empty", empty_batch);

  Frame results;
  results.type = FrameType::kScoreResult;
  serve::ScoreResult ok;
  ok.session_id = 7;
  ok.logit = 0.5f;
  ok.probability = 0.622f;
  ok.edges_scored = 9;
  results.results.push_back(ok);
  serve::ScoreResult bad;
  bad.session_id = 8;
  bad.status = Status::NotFound("no such session");
  results.results.push_back(bad);
  AddValid(&corpus, "score_result_mixed", results);

  Frame metrics;
  metrics.type = FrameType::kMetricsResponse;
  metrics.text = "{\"counters\": {\"events_ingested\": 3}}";
  AddValid(&corpus, "metrics_response", metrics);

  Frame ack;
  ack.type = FrameType::kIngestAck;
  ack.request_id = 13;
  ack.status_code = StatusCode::kOverloaded;
  ack.events_applied = 2;
  ack.text = "queue full";
  AddValid(&corpus, "ingest_ack_overloaded", ack);

  // The migration handshake (cluster serving): EXPORT request, state blob
  // reply, IMPORT carrying the same opaque bytes. The blob includes 0x00,
  // 0xFF, and high-bit bytes so a framing change that mangles binary
  // payloads trips the byte-exact check.
  Frame session_export;
  session_export.type = FrameType::kSessionExport;
  session_export.request_id = 21;
  session_export.session_id = 0xFEEDFACE01ull;
  AddValid(&corpus, "session_export", session_export);

  Frame session_state;
  session_state.type = FrameType::kSessionState;
  session_state.request_id = 21;
  session_state.status_code = StatusCode::kOk;
  session_state.blob = {0x54, 0x50, 0x53, 0x53, 0x00, 0xFF, 0x80, 0x7F, 0x01};
  AddValid(&corpus, "session_state_snapshot", session_state);

  Frame session_state_miss;
  session_state_miss.type = FrameType::kSessionState;
  session_state_miss.request_id = 22;
  session_state_miss.status_code = StatusCode::kNotFound;
  session_state_miss.text = "unknown session 99";
  AddValid(&corpus, "session_state_not_found", session_state_miss);

  Frame session_import;
  session_import.type = FrameType::kSessionImport;
  session_import.request_id = 23;
  session_import.blob = session_state.blob;
  AddValid(&corpus, "session_import", session_import);

  // Model lifecycle admin (DESIGN.md §4.8): LOAD with a path, ACTIVATE
  // carrying the verb byte + A/B fraction, STATUS, and the MODEL_INFO JSON
  // reply.
  Frame model_load;
  model_load.type = FrameType::kModelLoad;
  model_load.request_id = 31;
  model_load.name = "v2";
  model_load.text = "/ckpt/model_v2.ckpt";
  AddValid(&corpus, "model_load", model_load);

  Frame model_activate;
  model_activate.type = FrameType::kModelActivate;
  model_activate.request_id = 32;
  model_activate.name = "v2";
  model_activate.mode = static_cast<uint8_t>(ModelAdminMode::kSetCandidate);
  model_activate.fraction = 0.125;  // Exact in binary: frozen byte-stable.
  AddValid(&corpus, "model_activate_candidate", model_activate);

  Frame model_status;
  model_status.type = FrameType::kModelStatus;
  model_status.request_id = 33;
  AddValid(&corpus, "model_status", model_status);

  Frame model_info;
  model_info.type = FrameType::kModelInfo;
  model_info.request_id = 33;
  model_info.status_code = StatusCode::kOk;
  model_info.text = "{\"primary\": \"v2\", \"versions\": []}";
  AddValid(&corpus, "model_info_ok", model_info);

  const struct {
    FrameType type;
    const char* name;
  } simple[] = {
      {FrameType::kPing, "ping"},
      {FrameType::kPong, "pong"},
      {FrameType::kScore, "score"},
      {FrameType::kMetricsRequest, "metrics_request"},
      {FrameType::kShutdown, "shutdown"},
      {FrameType::kGoodbye, "goodbye"},
      {FrameType::kOverloaded, "overloaded"},
      {FrameType::kError, "error"},
  };
  for (const auto& s : simple) {
    Frame frame;
    frame.type = s.type;
    frame.request_id = 99;
    frame.session_id = 1;
    AddValid(&corpus, std::string("simple_") + s.name, frame);
  }

  // --- Incomplete frames: decoder must ask for more, consuming nothing ---
  {
    CorpusEntry entry;
    entry.name = "truncated_header";
    entry.bytes = Encode(batch);
    entry.bytes.resize(kFrameHeaderBytes - 5);
    entry.expected_code = StatusCode::kOk;
    entry.expected_consumed = 0;  // Need-more.
    corpus.push_back(std::move(entry));
  }
  {
    CorpusEntry entry;
    entry.name = "truncated_payload";
    entry.bytes = Encode(batch);
    entry.bytes.resize(kFrameHeaderBytes + 3);
    entry.expected_code = StatusCode::kOk;
    entry.expected_consumed = 0;  // Need-more.
    corpus.push_back(std::move(entry));
  }

  // --- Corrupt headers: typed kDataLoss, stream unrecoverable ---
  {
    CorpusEntry entry;
    entry.name = "bad_magic";
    entry.bytes = Encode(batch);
    entry.bytes[1] ^= 0x40;
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }
  {
    CorpusEntry entry;
    entry.name = "wrong_version";
    entry.bytes = Encode(batch);
    entry.bytes[4] = kProtocolVersion + 1;
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }
  {
    CorpusEntry entry;
    entry.name = "reserved_bits_set";
    entry.bytes = Encode(batch);
    entry.bytes[6] = 0x01;
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }
  {
    CorpusEntry entry;
    entry.name = "unknown_frame_type";
    entry.bytes = Encode(empty_batch);
    entry.bytes[5] = 0xEE;
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }

  {
    // An out-of-range admin verb byte: typed kDataLoss at decode, so a
    // hostile peer can never push an unknown verb into dispatch.
    CorpusEntry entry;
    entry.name = "model_activate_bad_mode";
    entry.bytes = Encode(model_activate);
    // Payload: rid varint (1 byte), name length varint (1), "v2" (2), mode.
    entry.bytes[kFrameHeaderBytes + 4] = kMaxModelAdminMode + 1;
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }

  // --- Hostile lengths: rejected from the header, no allocation ---
  {
    CorpusEntry entry;
    entry.name = "hostile_length_max_u32";
    entry.bytes = Encode(batch);
    const uint32_t hostile = 0xFFFFFFFFu;
    std::memcpy(entry.bytes.data() + 8, &hostile, sizeof(hostile));
    entry.expected_code = StatusCode::kInvalidArgument;
    corpus.push_back(std::move(entry));
  }
  {
    // A batch claiming 2^60 events in a tiny payload: typed kDataLoss, the
    // allocation is never attempted.
    CorpusEntry entry;
    entry.name = "hostile_event_count";
    entry.bytes = Encode(empty_batch);
    std::vector<uint8_t> payload;
    AppendVarint(1, &payload);
    AppendVarint(1ull << 60, &payload);
    entry.bytes.resize(kFrameHeaderBytes);
    const uint32_t len32 = static_cast<uint32_t>(payload.size());
    std::memcpy(entry.bytes.data() + 8, &len32, sizeof(len32));
    entry.bytes.insert(entry.bytes.end(), payload.begin(), payload.end());
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }

  // --- Valid header, garbage payload: the hard fuzz case, frozen ---
  {
    CorpusEntry entry;
    entry.name = "garbage_payload_valid_header";
    uint64_t rng = 0xFEEDFACEull;
    const size_t payload_len = 96;
    entry.bytes.resize(kFrameHeaderBytes + payload_len);
    const uint32_t magic = kFrameMagic;
    std::memcpy(entry.bytes.data(), &magic, sizeof(magic));
    entry.bytes[4] = kProtocolVersion;
    entry.bytes[5] = 3;  // INGEST_BATCH: the payload-richest decoder.
    entry.bytes[6] = 0;
    entry.bytes[7] = 0;
    const uint32_t len32 = static_cast<uint32_t>(payload_len);
    std::memcpy(entry.bytes.data() + 8, &len32, sizeof(len32));
    for (size_t i = kFrameHeaderBytes; i < entry.bytes.size(); ++i) {
      entry.bytes[i] = static_cast<uint8_t>(SplitMix(&rng));
    }
    entry.expected_code = StatusCode::kDataLoss;
    corpus.push_back(std::move(entry));
  }

  return corpus;
}

std::string CorpusPath(const std::string& name) {
  return std::string(TPGNN_TEST_CORPUS_DIR) + "/" + name + ".bin";
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return false;
  }
  bytes->assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  return true;
}

// TPGNN_REGEN_CORPUS=1 rewrites the corpus from source (intentional format
// changes only); the verification below then runs against the fresh files.
void MaybeRegenerate(const std::vector<CorpusEntry>& corpus) {
  if (GetEnvInt("TPGNN_REGEN_CORPUS", 0) == 0) {
    return;
  }
  for (const CorpusEntry& entry : corpus) {
    std::ofstream os(CorpusPath(entry.name), std::ios::binary);
    ASSERT_TRUE(os.good()) << CorpusPath(entry.name);
    os.write(reinterpret_cast<const char*>(entry.bytes.data()),
             static_cast<std::streamsize>(entry.bytes.size()));
    ASSERT_TRUE(os.good()) << CorpusPath(entry.name);
  }
}

TEST(ProtocolCorpusTest, CheckedInBytesMatchTheEncoder) {
  const std::vector<CorpusEntry> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 20u);
  MaybeRegenerate(corpus);
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.name);
    std::vector<uint8_t> on_disk;
    ASSERT_TRUE(ReadFileBytes(CorpusPath(entry.name), &on_disk))
        << "missing corpus file " << CorpusPath(entry.name)
        << " — regenerate with TPGNN_REGEN_CORPUS=1 and commit it";
    // Byte-exact: the encoder (and the surgery that built the hostile
    // entries) emits today exactly what was frozen.
    EXPECT_EQ(on_disk, entry.bytes);
  }
}

TEST(ProtocolCorpusTest, EveryCorpusFileDecodesToItsFrozenOutcome) {
  for (const CorpusEntry& entry : BuildCorpus()) {
    SCOPED_TRACE(entry.name);
    std::vector<uint8_t> wire;
    ASSERT_TRUE(ReadFileBytes(CorpusPath(entry.name), &wire));
    Frame frame;
    size_t consumed = 0;
    Status status = DecodeFrame(wire.data(), wire.size(),
                                kDefaultMaxPayloadBytes, &frame, &consumed);
    EXPECT_EQ(status.code(), entry.expected_code) << status.ToString();
    if (entry.expected_code == StatusCode::kOk) {
      EXPECT_EQ(consumed, entry.expected_consumed);
    }
    if (entry.roundtrip) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      ASSERT_EQ(consumed, wire.size());
      // Decode-then-encode reproduces the frozen bytes exactly.
      std::vector<uint8_t> reencoded;
      EncodeFrame(frame, &reencoded);
      EXPECT_EQ(reencoded, wire);
    }
  }
}

// The corpus decoder contract also holds for every truncation of every
// corpus file — the cheap always-on slice of the fuzz sweep.
TEST(ProtocolCorpusTest, EveryTruncationOfEveryCorpusFileIsTypedOrBenign) {
  for (const CorpusEntry& entry : BuildCorpus()) {
    SCOPED_TRACE(entry.name);
    std::vector<uint8_t> wire;
    ASSERT_TRUE(ReadFileBytes(CorpusPath(entry.name), &wire));
    for (size_t len = 0; len <= wire.size(); ++len) {
      Frame frame;
      size_t consumed = 0;
      Status status = DecodeFrame(wire.data(), len, kDefaultMaxPayloadBytes,
                                  &frame, &consumed);
      const StatusCode code = status.code();
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << "len " << len << ": " << status.ToString();
    }
  }
}

}  // namespace
}  // namespace tpgnn::net
