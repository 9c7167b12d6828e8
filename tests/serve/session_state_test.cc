// The session-state codec that rides inside SESSION_EXPORT/SESSION_IMPORT
// frames: byte-exact roundtrips (floats are raw IEEE-754 bits — a migrated
// session must rebuild the exporter's fold state exactly), strict
// bounds-checking (every truncation fails typed, no hostile count drives
// an allocation), and stability under arbitrary single-bit corruption.

#include "serve/session_state.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tpgnn::serve {
namespace {

SessionState SampleState(bool with_accumulator) {
  SessionState state;
  state.session_id = 0xABCDEF0123ull;
  state.num_nodes = 3;
  state.feature_dim = 2;
  state.features = {0.5f, -1.0f, 2.25f, 0.0f, -3.5f, 7.0f};
  // Arrival order deliberately NOT chronological: the order itself is part
  // of the fold identity and must survive the roundtrip untouched.
  state.edges = {{0, 1, 5.0}, {2, 0, 1.25}, {1, 2, 9.75}};
  state.sorted = false;
  state.fold_chrono = false;
  state.x_edges = 2;
  state.x_max_time = 5.0;
  state.finalized_edges = 1;
  state.finalized_max = 1.25;
  state.last_touch = 123.5;
  // Nonempty so the truncation/bit-flip sweeps cover the v2 tag bytes.
  state.model_version = "ckpt-b";
  state.x0 = {0.1f, -0.2f, 0.3f, 1.5f, -2.5f, 3.5f};
  state.x = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  if (with_accumulator) {
    state.m_edges = 2;
    state.m_max_time = 5.0;
    state.m = {9.0f, 8.0f, 7.0f};
  }
  return state;
}

void ExpectStatesEqual(const SessionState& a, const SessionState& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.feature_dim, b.feature_dim);
  EXPECT_EQ(a.features, b.features);  // operator== on float: bitwise here.
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sorted, b.sorted);
  EXPECT_EQ(a.fold_chrono, b.fold_chrono);
  EXPECT_EQ(a.x_edges, b.x_edges);
  EXPECT_EQ(a.m_edges, b.m_edges);
  EXPECT_EQ(a.x_max_time, b.x_max_time);
  EXPECT_EQ(a.m_max_time, b.m_max_time);
  EXPECT_EQ(a.finalized_edges, b.finalized_edges);
  EXPECT_EQ(a.finalized_max, b.finalized_max);
  EXPECT_EQ(a.last_touch, b.last_touch);
  EXPECT_EQ(a.model_version, b.model_version);
  EXPECT_EQ(a.x0, b.x0);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.m, b.m);
}

TEST(SessionStateTest, RoundTripIsExactWithAndWithoutAccumulator) {
  for (bool with_m : {false, true}) {
    SCOPED_TRACE(with_m ? "with accumulator" : "gru-style, no accumulator");
    const SessionState original = SampleState(with_m);
    std::vector<uint8_t> blob;
    SerializeSessionState(original, &blob);

    SessionState decoded;
    ASSERT_TRUE(ParseSessionState(blob.data(), blob.size(), &decoded).ok());
    ExpectStatesEqual(original, decoded);

    // Canonical encoding: decode-then-encode reproduces the bytes.
    std::vector<uint8_t> reencoded;
    SerializeSessionState(decoded, &reencoded);
    EXPECT_EQ(reencoded, blob);
  }
}

TEST(SessionStateTest, EveryTruncationFailsTyped) {
  std::vector<uint8_t> blob;
  SerializeSessionState(SampleState(true), &blob);
  SessionState scratch;
  for (size_t len = 0; len < blob.size(); ++len) {
    Status status = ParseSessionState(blob.data(), len, &scratch);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "prefix of " << len << " bytes: " << status.ToString();
  }
}

TEST(SessionStateTest, TrailingBytesAreRejected) {
  std::vector<uint8_t> blob;
  SerializeSessionState(SampleState(false), &blob);
  blob.push_back(0x00);
  SessionState scratch;
  Status status = ParseSessionState(blob.data(), blob.size(), &scratch);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.ToString().find("trailing"), std::string::npos)
      << status.ToString();
}

TEST(SessionStateTest, ErrorsNameTheDamage) {
  std::vector<uint8_t> blob;
  SerializeSessionState(SampleState(false), &blob);
  SessionState scratch;

  {
    std::vector<uint8_t> bad = blob;
    bad[0] ^= 0xff;  // Magic.
    Status s = ParseSessionState(bad.data(), bad.size(), &scratch);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_NE(s.ToString().find("bad magic"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = blob;
    bad[4] = kSessionStateVersion + 1;
    Status s = ParseSessionState(bad.data(), bad.size(), &scratch);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_NE(s.ToString().find("version"), std::string::npos);
  }
  {
    // A state claiming zero nodes can never hold a session.
    SessionState zero = SampleState(false);
    zero.num_nodes = 0;
    zero.features.clear();
    zero.edges.clear();
    zero.x0.clear();
    zero.x.clear();
    std::vector<uint8_t> bad;
    SerializeSessionState(zero, &bad);
    Status s = ParseSessionState(bad.data(), bad.size(), &scratch);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_NE(s.ToString().find("bad header"), std::string::npos);
  }
  {
    // Varint overflow in the session id: the tenth byte may carry only
    // bit 63, and no varint runs past ten bytes. The id follows the 4-byte
    // magic and the version byte.
    size_t id_end = 5;
    while ((blob[id_end] & 0x80) != 0) ++id_end;
    const auto with_id_bytes = [&](const std::vector<uint8_t>& id) {
      std::vector<uint8_t> out = blob;
      out.erase(out.begin() + 5,
                out.begin() + static_cast<std::ptrdiff_t>(id_end + 1));
      out.insert(out.begin() + 5, id.begin(), id.end());
      return out;
    };
    std::vector<uint8_t> max_id(9, 0xff);
    max_id.push_back(0x01);
    const std::vector<uint8_t> good = with_id_bytes(max_id);
    ASSERT_TRUE(ParseSessionState(good.data(), good.size(), &scratch).ok());
    EXPECT_EQ(scratch.session_id, ~uint64_t{0});
    std::vector<uint8_t> tenth_byte_two(9, 0xff);
    tenth_byte_two.push_back(0x02);
    for (const std::vector<uint8_t>& id :
         {tenth_byte_two, std::vector<uint8_t>(11, 0x80)}) {
      const std::vector<uint8_t> bad = with_id_bytes(id);
      Status s = ParseSessionState(bad.data(), bad.size(), &scratch);
      EXPECT_EQ(s.code(), StatusCode::kDataLoss);
      EXPECT_NE(s.ToString().find("bad header"), std::string::npos);
    }
  }
}

TEST(SessionStateTest, StructuralLiesFailEvenWhenWellFramed) {
  SessionState lying = SampleState(false);
  lying.x_edges = 99;  // More folded edges than the edge list holds.
  std::vector<uint8_t> blob;
  SerializeSessionState(lying, &blob);
  SessionState scratch;
  Status s = ParseSessionState(blob.data(), blob.size(), &scratch);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("fold counts"), std::string::npos)
      << s.ToString();

  SessionState ragged = SampleState(false);
  ragged.x.pop_back();  // x no longer rectangular over num_nodes, != x0.
  blob.clear();
  SerializeSessionState(ragged, &blob);
  s = ParseSessionState(blob.data(), blob.size(), &scratch);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("shape mismatch"), std::string::npos)
      << s.ToString();

  SessionState bad_edge = SampleState(false);
  bad_edge.edges[1].dst = 57;  // Outside [0, num_nodes).
  blob.clear();
  SerializeSessionState(bad_edge, &blob);
  s = ParseSessionState(blob.data(), blob.size(), &scratch);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("out of range"), std::string::npos)
      << s.ToString();
}

TEST(SessionStateTest, NonFiniteFeaturesAndEdgeTimesFailTyped) {
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  SessionState scratch;
  for (double bad : kBad) {
    SessionState feature = SampleState(true);
    feature.features[2] = static_cast<float>(bad);
    std::vector<uint8_t> blob;
    SerializeSessionState(feature, &blob);
    Status s = ParseSessionState(blob.data(), blob.size(), &scratch);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << bad;
    EXPECT_NE(s.ToString().find("non-finite feature"), std::string::npos)
        << s.ToString();

    SessionState edge = SampleState(true);
    edge.edges[1].time = bad;
    blob.clear();
    SerializeSessionState(edge, &blob);
    s = ParseSessionState(blob.data(), blob.size(), &scratch);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << bad;
    EXPECT_NE(s.ToString().find("time out of range"), std::string::npos)
        << s.ToString();
  }
  // Folded state crosses as it is: with stabilize_sum off it can overflow.
  SessionState overflowed = SampleState(true);
  overflowed.x[0] = std::numeric_limits<float>::infinity();
  overflowed.m[1] = std::numeric_limits<float>::quiet_NaN();
  std::vector<uint8_t> blob;
  SerializeSessionState(overflowed, &blob);
  EXPECT_TRUE(ParseSessionState(blob.data(), blob.size(), &scratch).ok());
}

TEST(SessionStateTest, OversizedModelVersionTagRejected) {
  // A tag one byte past the cap must fail typed — the cap is what keeps a
  // corrupt length varint from driving an allocation.
  SessionState bloated = SampleState(false);
  bloated.model_version.assign(kMaxModelVersionName + 1, 'x');
  std::vector<uint8_t> blob;
  SerializeSessionState(bloated, &blob);
  SessionState scratch;
  Status s = ParseSessionState(blob.data(), blob.size(), &scratch);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("model version"), std::string::npos)
      << s.ToString();

  // At exactly the cap it round-trips.
  SessionState max_tag = SampleState(false);
  max_tag.model_version.assign(kMaxModelVersionName, 'y');
  blob.clear();
  SerializeSessionState(max_tag, &blob);
  ASSERT_TRUE(ParseSessionState(blob.data(), blob.size(), &scratch).ok());
  EXPECT_EQ(scratch.model_version, max_tag.model_version);
}

TEST(SessionStateTest, VersionOneBlobParsesWithEmptyTag) {
  // A v1 blob is a v2 blob with an empty tag, minus the trailing zero
  // length byte, stamped version 1 — pre-upgrade exporters keep migrating,
  // and the empty tag resolves to the importer's primary.
  SessionState legacy = SampleState(true);
  legacy.model_version.clear();
  std::vector<uint8_t> blob;
  SerializeSessionState(legacy, &blob);
  ASSERT_EQ(blob.back(), 0u);  // The empty tag's length varint.
  blob.pop_back();
  blob[4] = 1;  // Version byte follows the 4-byte magic.
  SessionState decoded;
  ASSERT_TRUE(ParseSessionState(blob.data(), blob.size(), &decoded).ok());
  EXPECT_TRUE(decoded.model_version.empty());
  ExpectStatesEqual(legacy, decoded);
}

TEST(SessionStateTest, EveryBitFlipParsesOrFailsTypedNeverCrashes) {
  std::vector<uint8_t> blob;
  SerializeSessionState(SampleState(true), &blob);
  SessionState scratch;
  size_t still_ok = 0;
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = blob;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      Status status =
          ParseSessionState(mutated.data(), mutated.size(), &scratch);
      // No checksum in this layer (the wire frame carries it): a flip in a
      // float payload legitimately parses. The contract is typed failure
      // or a structurally valid state — never a crash or wild allocation.
      if (status.ok()) {
        ++still_ok;
      } else {
        EXPECT_EQ(status.code(), StatusCode::kDataLoss)
            << "byte " << byte << " bit " << bit << ": "
            << status.ToString();
      }
    }
  }
  // Float-payload flips outnumber structural ones in this blob, so both
  // outcomes must actually occur — otherwise the sweep tests nothing.
  EXPECT_GT(still_ok, 0u);
  EXPECT_LT(still_ok, blob.size() * 8);
}

}  // namespace
}  // namespace tpgnn::serve
