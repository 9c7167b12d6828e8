// Torn and bit-flipped snapshots: Load must return a typed error naming the
// damaged field — never crash, and never hand back a silently-wrong model.
//
// Two sweeps per format flavor (v3 without metadata, v3 with metadata):
//   * truncation at every byte boundary — models a crash-torn write;
//   * a flipped bit in every byte — models media corruption.
// Plus the "checkpoint.read" / "checkpoint.write" failpoints, which inject
// the same damage through the production read/write path itself.
//
// Version 3 closed the old checksum gap: the crc32 trailer covers the
// whole value region, so damage to float characters or their separators —
// previously able to parse into a silently perturbed model — now fails
// typed before any value is read, and every truncation removes or damages
// the trailer. The one remaining lenient region is the metadata *payload*
// (key/value lines), which sits outside the checksum by design and is
// validated semantically by its consumers, not the loader.

#include "nn/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

using failpoint::Kind;
using failpoint::ScopedFailpoint;

class TinyModel : public Module {
 public:
  explicit TinyModel(uint64_t seed) : rng_(seed), fc1_(3, 4, rng_),
                                      fc2_(4, 2, rng_) {
    RegisterChild("fc1", &fc1_);
    RegisterChild("fc2", &fc2_);
  }

 private:
  Rng rng_;
  Linear fc1_;
  Linear fc2_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  ASSERT_TRUE(os.good()) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

std::string SnapshotBytes(bool with_metadata, const std::string& path) {
  TinyModel model(7);
  Status s = with_metadata
                 ? SaveParameters(model, path, {{"epoch", "3"}, {"lr", "0.1"}})
                 : SaveParameters(model, path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return ReadFile(path);
}

std::vector<float> Flatten(const Module& m) {
  std::vector<float> values;
  for (const auto& [name, p] : m.NamedParameters()) {
    const auto& data = p.data();
    values.insert(values.end(), data.begin(), data.end());
  }
  return values;
}

// Marks the bytes of a v3 snapshot whose damage must produce a typed load
// error: with the crc32 trailer that is *everything* — the header and
// meta framing are grammar-checked, and the value region plus trailer are
// checksummed. The only lenient bytes left are the metadata payload lines
// (key/value content and their newlines), which sit outside the checksum
// and are validated by their consumers, not the loader.
std::vector<bool> StructuralMask(const std::string& bytes, bool has_meta) {
  std::vector<bool> strict(bytes.size(), true);
  if (!has_meta) {
    return strict;  // `meta 0`: no payload lines, every byte is protected.
  }
  const size_t header_end = bytes.find('\n');
  const size_t meta_line_end = bytes.find('\n', header_end + 1);
  const size_t entries = std::stoul(bytes.substr(header_end + 6));
  size_t pos = meta_line_end + 1;
  for (size_t i = 0; i < entries; ++i) {
    const size_t eol = bytes.find('\n', pos);
    for (size_t j = pos; j <= eol; ++j) {
      strict[j] = false;
    }
    pos = eol + 1;
  }
  return strict;
}

// A scratch file path unique to the running test instance. ctest runs each
// instance as its own process, in parallel, so a shared name lets one
// instance overwrite or delete another's file mid-sweep. The gtest name
// ("Case/Param") carries the parameter.
std::string InstancePath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "/tpgnn_" + stem + "_" + name + ".txt";
}

class CheckpointCorruptionTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    failpoint::SetSeed(1);
    path_ = InstancePath("corrupt_ckpt");
    pristine_ = SnapshotBytes(GetParam(), path_);
    TinyModel reference(7);
    reference_values_ = Flatten(reference);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::remove(path_.c_str());
  }

  void ExpectTypedLoadError(const Status& s, const std::string& where) {
    ASSERT_FALSE(s.ok()) << "corruption " << where << " loaded successfully";
    EXPECT_FALSE(s.message().empty()) << where;
    EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument ||
                s.code() == StatusCode::kFailedPrecondition ||
                s.code() == StatusCode::kNotFound ||
                s.code() == StatusCode::kDataLoss)
        << s.ToString() << " " << where;
  }

  std::string path_;
  std::string pristine_;
  std::vector<float> reference_values_;
};

INSTANTIATE_TEST_SUITE_P(Formats, CheckpointCorruptionTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "V3Metadata" : "V3Plain";
                         });

TEST_P(CheckpointCorruptionTest, PristineSnapshotRoundtrips) {
  TinyModel victim(99);
  Status s = LoadParameters(victim, path_);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // precision(9) at save time makes the float round-trip exact.
  EXPECT_EQ(Flatten(victim), reference_values_);
}

TEST_P(CheckpointCorruptionTest, TruncationAtEveryByteFailsTyped) {
  // Every cut removes or damages the crc32 trailer (it is the last line),
  // so no torn prefix of a v3 file may ever load — including cuts inside
  // the final float that used to slip through the old checksum gap.
  for (size_t len = 0; len < pristine_.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    WriteFile(path_, pristine_.substr(0, len));
    TinyModel victim(99);
    Status s = LoadParameters(victim, path_);
    ExpectTypedLoadError(s, "at byte " + std::to_string(len));
    // A failed load leaves a usable (re-savable) module behind, not a
    // half-filled one that crashes downstream.
    EXPECT_TRUE(SaveParameters(victim, path_).ok());
  }
}

TEST_P(CheckpointCorruptionTest, BitFlipInEveryByteFailsTypedWhereStructural) {
  const std::vector<bool> strict = StructuralMask(pristine_, GetParam());
  for (size_t pos = 0; pos < pristine_.size(); ++pos) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(pos));
    std::string mutated = pristine_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    WriteFile(path_, mutated);
    TinyModel victim(99);
    Status s = LoadParameters(victim, path_);
    if (strict[pos]) {
      ExpectTypedLoadError(s, "at byte " + std::to_string(pos));
    } else if (!s.ok()) {
      EXPECT_FALSE(s.message().empty());
    } else {
      // Metadata-payload flip that survived parsing: the values were still
      // checksum-verified, so the model must match the reference exactly.
      EXPECT_EQ(Flatten(victim), reference_values_);
      EXPECT_TRUE(SaveParameters(victim, path_).ok());
    }
  }
}

TEST_P(CheckpointCorruptionTest, ErrorsNameTheDamagedField) {
  struct Case {
    const char* what;
    std::string bytes;
    const char* expect_in_message;
  };
  std::vector<Case> cases;
  cases.push_back({"bad magic", "tpgnn-parXms 1\n2\n", "not a tpgnn-params"});
  cases.push_back({"bad version", "tpgnn-params 9\n", "unsupported"});
  cases.push_back({"bad count", "tpgnn-params 1\nxyz\n",
                   "malformed parameter count"});
  cases.push_back({"bad header", "tpgnn-params 1\n1\nfc1.weight x\n",
                   "malformed parameter header"});
  cases.push_back({"bad values", "tpgnn-params 1\n1\nfc1.weight 2 0.5 oops\n",
                   "malformed parameter values: fc1.weight"});
  cases.push_back({"duplicate",
                   "tpgnn-params 1\n2\na 1 0.5\na 1 0.5\n", "duplicate"});
  cases.push_back({"wrong names",
                   "tpgnn-params 1\n4\na 1 0\nb 1 0\nc 1 0\nd 1 0\n",
                   "missing parameter"});
  cases.push_back({"missing crc trailer",
                   "tpgnn-params 3\nmeta 0\n1\na 1 0.5\n",
                   "missing crc32 trailer"});
  cases.push_back({"malformed crc trailer",
                   "tpgnn-params 3\nmeta 0\n1\na 1 0.5\ncrc32 xyz\n",
                   "malformed crc32 trailer"});
  cases.push_back({"crc mismatch",
                   "tpgnn-params 3\nmeta 0\n1\na 1 0.5\ncrc32 00000000\n",
                   "crc32 mismatch"});
  if (GetParam()) {
    cases.push_back({"bad meta header", "tpgnn-params 2\nmeXa 2\n",
                     "malformed metadata header"});
    cases.push_back({"torn meta block", "tpgnn-params 2\nmeta 2\nepoch 3\n",
                     "truncated metadata block"});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    WriteFile(path_, c.bytes);
    TinyModel victim(99);
    Status s = LoadParameters(victim, path_);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find(c.expect_in_message), std::string::npos)
        << s.ToString();
  }
}

TEST_P(CheckpointCorruptionTest, InjectedReadCorruptionFailsTypedOrLoadsClean) {
  // The corrupt_byte failpoint flips one seed-determined bit inside the
  // production read path — sweeping seeds covers many byte positions.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    failpoint::SetSeed(seed);
    TinyModel victim(99);
    Status s;
    {
      ScopedFailpoint corrupt("checkpoint.read", 1.0, Kind::kCorruptByte);
      s = LoadParameters(victim, path_);
      EXPECT_EQ(corrupt.fires(), 1u);
    }
    if (s.ok()) {
      // The flip landed outside the checksummed value region (metadata
      // payload, or a version-byte downgrade to a trailer-less format):
      // the values that loaded must still match the reference exactly.
      EXPECT_EQ(Flatten(victim), reference_values_);
      EXPECT_TRUE(SaveParameters(victim, path_).ok());
      pristine_ = SnapshotBytes(GetParam(), path_);  // Restore for next seed.
    } else {
      EXPECT_FALSE(s.message().empty()) << s.ToString();
    }
  }
}

TEST_P(CheckpointCorruptionTest, InjectedTornReadFailsTyped) {
  for (uint64_t budget : {0ull, 1ull, 10ull, 40ull}) {
    SCOPED_TRACE("torn read of " + std::to_string(budget) + " bytes");
    ScopedFailpoint torn("checkpoint.read", 1.0, Kind::kShortIo, budget);
    TinyModel victim(99);
    Status s = LoadParameters(victim, path_);
    ASSERT_FALSE(s.ok());
    EXPECT_FALSE(s.message().empty());
  }
}

TEST_P(CheckpointCorruptionTest, TornWriteReportsErrorAndNeverLoads) {
  const std::string torn_path = InstancePath("torn_ckpt");
  for (uint64_t budget : {0ull, 5ull, 25ull, 60ull}) {
    SCOPED_TRACE("torn write of " + std::to_string(budget) + " bytes");
    ScopedFailpoint torn("checkpoint.write", 1.0, Kind::kShortIo, budget);
    TinyModel model(7);
    // A crash-torn write must surface as an error to the saver...
    Status s = GetParam()
                   ? SaveParameters(model, torn_path, {{"epoch", "3"}})
                   : SaveParameters(model, torn_path);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("checkpoint.write"), std::string::npos)
        << s.ToString();
    // ...and the prefix it left on disk must never load as a full model.
    TinyModel victim(99);
    EXPECT_FALSE(LoadParameters(victim, torn_path).ok());
  }
  std::remove(torn_path.c_str());
}

TEST_P(CheckpointCorruptionTest, InjectedWriteErrorLeavesNoFileBehind) {
  const std::string fail_path = InstancePath("failed_ckpt");
  ScopedFailpoint fail("checkpoint.write", 1.0, Kind::kReturnError);
  TinyModel model(7);
  Status s = SaveParameters(model, fail_path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checkpoint.write"), std::string::npos);
  std::ifstream probe(fail_path);
  EXPECT_FALSE(probe.good()) << "failed save created " << fail_path;
}

}  // namespace
}  // namespace tpgnn::nn
