// Adversarial-input sweep over DecodeFrame: truncations, single-bit flips,
// oversized length prefixes, wrong versions, and deterministic random
// garbage. The contract under attack: every outcome is kOk (complete frame
// or need-more), kDataLoss, or kInvalidArgument — never a crash, abort, or
// out-of-bounds access. CI runs this binary under ASan/UBSan, which turns
// any OOB read the assertions cannot see into a hard failure.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/protocol.h"
#include "serve/event.h"
#include "util/byte_codec.h"

namespace tpgnn::net {
namespace {

// Deterministic PRNG (splitmix64) so failures reproduce exactly.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Decodes and asserts the documented outcome set; returns the status code.
StatusCode DecodeExpectingNoCrash(const std::vector<uint8_t>& wire) {
  Frame frame;
  size_t consumed = 0;
  Status status = DecodeFrame(wire.data(), wire.size(),
                              kDefaultMaxPayloadBytes, &frame, &consumed);
  const StatusCode code = status.code();
  EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kDataLoss ||
              code == StatusCode::kInvalidArgument)
      << status.ToString();
  if (code == StatusCode::kOk && consumed > 0) {
    EXPECT_LE(consumed, wire.size());
  }
  return code;
}

// A corpus exercising every frame type and payload shape.
std::vector<std::vector<uint8_t>> Corpus() {
  std::vector<std::vector<uint8_t>> corpus;

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
  corpus.emplace_back();
  EncodeFrame(batch, &corpus.back());

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
  corpus.emplace_back();
  EncodeFrame(results, &corpus.back());

  Frame metrics;
  metrics.type = FrameType::kMetricsResponse;
  metrics.text = "{\"counters\": {\"events_ingested\": 3}}";
  corpus.emplace_back();
  EncodeFrame(metrics, &corpus.back());

  Frame ack;
  ack.type = FrameType::kIngestAck;
  ack.request_id = 13;
  ack.status_code = StatusCode::kOverloaded;
  ack.events_applied = 2;
  ack.text = "queue full";
  corpus.emplace_back();
  EncodeFrame(ack, &corpus.back());

  for (FrameType type :
       {FrameType::kPing, FrameType::kPong, FrameType::kScore,
        FrameType::kMetricsRequest, FrameType::kShutdown, FrameType::kGoodbye,
        FrameType::kOverloaded, FrameType::kError}) {
    Frame frame;
    frame.type = type;
    frame.request_id = 99;
    frame.session_id = 1;
    corpus.emplace_back();
    EncodeFrame(frame, &corpus.back());
  }

  // Model lifecycle admin frames: string name + path, verb byte + f64
  // fraction, and the JSON-bearing MODEL_INFO reply.
  Frame model_load;
  model_load.type = FrameType::kModelLoad;
  model_load.request_id = 41;
  model_load.name = "v2";
  model_load.text = "/ckpt/v2.ckpt";
  corpus.emplace_back();
  EncodeFrame(model_load, &corpus.back());

  Frame model_activate;
  model_activate.type = FrameType::kModelActivate;
  model_activate.request_id = 42;
  model_activate.name = "v2";
  model_activate.mode = static_cast<uint8_t>(ModelAdminMode::kSetCandidate);
  model_activate.fraction = 0.25;
  corpus.emplace_back();
  EncodeFrame(model_activate, &corpus.back());

  Frame model_status;
  model_status.type = FrameType::kModelStatus;
  model_status.request_id = 43;
  corpus.emplace_back();
  EncodeFrame(model_status, &corpus.back());

  Frame model_info;
  model_info.type = FrameType::kModelInfo;
  model_info.request_id = 43;
  model_info.status_code = StatusCode::kOk;
  model_info.text = "{\"primary\": \"v2\", \"versions\": []}";
  corpus.emplace_back();
  EncodeFrame(model_info, &corpus.back());
  return corpus;
}

TEST(ProtocolFuzzTest, TruncationAtEveryLengthNeverCrashes) {
  for (const std::vector<uint8_t>& wire : Corpus()) {
    for (size_t len = 0; len <= wire.size(); ++len) {
      std::vector<uint8_t> prefix(wire.begin(),
                                  wire.begin() + static_cast<ptrdiff_t>(len));
      const StatusCode code = DecodeExpectingNoCrash(prefix);
      // A clean prefix of a valid frame is either need-more or (at full
      // length) a complete frame — never an error.
      EXPECT_EQ(code, StatusCode::kOk) << "prefix length " << len;
    }
  }
}

TEST(ProtocolFuzzTest, EverySingleBitFlipIsTypedOrBenign) {
  for (const std::vector<uint8_t>& wire : Corpus()) {
    for (size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> mutated = wire;
        mutated[byte] = static_cast<uint8_t>(mutated[byte] ^ (1u << bit));
        DecodeExpectingNoCrash(mutated);
      }
    }
  }
}

TEST(ProtocolFuzzTest, BitFlipThenTruncateNeverCrashes) {
  uint64_t rng = 0x5EEDF00Dull;
  for (const std::vector<uint8_t>& wire : Corpus()) {
    for (int round = 0; round < 200; ++round) {
      std::vector<uint8_t> mutated = wire;
      const size_t byte = SplitMix(&rng) % mutated.size();
      mutated[byte] = static_cast<uint8_t>(SplitMix(&rng));
      mutated.resize(SplitMix(&rng) % (mutated.size() + 1));
      DecodeExpectingNoCrash(mutated);
    }
  }
}

TEST(ProtocolFuzzTest, RandomGarbageNeverCrashes) {
  uint64_t rng = 0xBADC0FFEEull;
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> garbage(SplitMix(&rng) % 256);
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(SplitMix(&rng));
    }
    DecodeExpectingNoCrash(garbage);
  }
}

TEST(ProtocolFuzzTest, GarbageWithValidHeaderNeverCrashes) {
  // The hard case: a well-formed header whose payload is noise — every
  // varint / string / count inside is attacker-controlled.
  uint64_t rng = 0xFEEDFACEull;
  for (int round = 0; round < 2000; ++round) {
    const uint8_t types[] = {1, 2,  3,  4,  5,  6,  7,  8,  9, 10,
                             11, 12, 13, 14, 15, 16, 17, 18, 19};
    const size_t payload_len = SplitMix(&rng) % 128;
    std::vector<uint8_t> wire(kFrameHeaderBytes + payload_len);
    const uint32_t magic = kFrameMagic;
    std::memcpy(wire.data(), &magic, sizeof(magic));
    wire[4] = kProtocolVersion;
    wire[5] = types[SplitMix(&rng) % (sizeof(types))];
    wire[6] = 0;
    wire[7] = 0;
    const uint32_t len32 = static_cast<uint32_t>(payload_len);
    std::memcpy(wire.data() + 8, &len32, sizeof(len32));
    for (size_t i = kFrameHeaderBytes; i < wire.size(); ++i) {
      wire[i] = static_cast<uint8_t>(SplitMix(&rng));
    }
    DecodeExpectingNoCrash(wire);
  }
}

TEST(ProtocolFuzzTest, HostileLengthPrefixes) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 1;
  std::vector<uint8_t> wire;
  EncodeFrame(ping, &wire);

  // Maximum u32 payload length: rejected from the header alone, before any
  // allocation in the payload decoder could be reached.
  for (uint32_t hostile : {0xFFFFFFFFu, kDefaultMaxPayloadBytes + 1, 1u << 30}) {
    std::vector<uint8_t> mutated = wire;
    std::memcpy(mutated.data() + 8, &hostile, sizeof(hostile));
    Frame frame;
    size_t consumed = 0;
    Status status = DecodeFrame(mutated.data(), mutated.size(),
                                kDefaultMaxPayloadBytes, &frame, &consumed);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << hostile;
  }

  // A batch claiming 2^60 events in a tiny payload must fail typed, not
  // attempt the allocation.
  std::vector<uint8_t> hostile_batch;
  Frame batch;
  batch.type = FrameType::kIngestBatch;
  batch.request_id = 1;
  EncodeFrame(batch, &hostile_batch);
  // Rewrite the payload: request_id varint then a huge event count.
  std::vector<uint8_t> payload;
  AppendVarint(1, &payload);
  AppendVarint(1ull << 60, &payload);
  hostile_batch.resize(kFrameHeaderBytes);
  const uint32_t len32 = static_cast<uint32_t>(payload.size());
  std::memcpy(hostile_batch.data() + 8, &len32, sizeof(len32));
  hostile_batch.insert(hostile_batch.end(), payload.begin(), payload.end());
  EXPECT_EQ(DecodeExpectingNoCrash(hostile_batch), StatusCode::kDataLoss);

  // Varint overflow in a PING's request id, its whole payload: the tenth
  // byte may carry only bit 63, and no varint runs past ten bytes.
  const auto ping_with_id_bytes = [&wire](const std::vector<uint8_t>& id) {
    std::vector<uint8_t> frame = wire;
    frame.resize(kFrameHeaderBytes);
    const uint32_t len = static_cast<uint32_t>(id.size());
    std::memcpy(frame.data() + 8, &len, sizeof(len));
    frame.insert(frame.end(), id.begin(), id.end());
    return frame;
  };
  std::vector<uint8_t> max_id(9, 0xff);
  max_id.push_back(0x01);
  Frame decoded;
  size_t consumed = 0;
  const std::vector<uint8_t> max_frame = ping_with_id_bytes(max_id);
  ASSERT_TRUE(DecodeFrame(max_frame.data(), max_frame.size(),
                          kDefaultMaxPayloadBytes, &decoded, &consumed)
                  .ok());
  EXPECT_EQ(decoded.request_id, ~uint64_t{0});
  std::vector<uint8_t> tenth_byte_two(9, 0xff);
  tenth_byte_two.push_back(0x02);
  EXPECT_EQ(DecodeExpectingNoCrash(ping_with_id_bytes(tenth_byte_two)),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeExpectingNoCrash(
                ping_with_id_bytes(std::vector<uint8_t>(11, 0x80))),
            StatusCode::kDataLoss);
}

TEST(ProtocolFuzzTest, WrongVersionRejectedBeforePayloadArrives) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 1;
  std::vector<uint8_t> wire;
  EncodeFrame(ping, &wire);
  wire.resize(kFrameHeaderBytes);  // Payload still in flight.
  for (uint8_t version : {0, 2, 3, 255}) {
    std::vector<uint8_t> mutated = wire;
    mutated[4] = version;
    Frame frame;
    size_t consumed = 0;
    Status status = DecodeFrame(mutated.data(), mutated.size(),
                                kDefaultMaxPayloadBytes, &frame, &consumed);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << int{version};
  }
}

}  // namespace
}  // namespace tpgnn::net
