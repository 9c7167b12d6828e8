// The model lifecycle admin surface over real loopback sockets
// (DESIGN.md §4.8): MODEL_LOAD a checkpoint into a running server,
// walk the candidate/shadow roles, MODEL_ACTIVATE the new version, and
// verify the rolled checkpoint actually serves its parameters end to end.
// Server-side errors travel back as the typed status of the ack.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/harness.h"
#include "net/protocol.h"
#include "net_test_util.h"
#include "nn/checkpoint.h"

namespace tpgnn::net {
namespace {

constexpr uint64_t kSeed = 5;
constexpr uint64_t kCheckpointSeed = 7;

std::string WriteCheckpoint(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "model_admin_" + tag +
                           ".ckpt";
  const core::TpGnnConfig config = serve::TinyServeConfig();
  core::TpGnnModel model(config, kCheckpointSeed);
  Status s = nn::SaveParameters(model, path, core::ConfigMetadata(config));
  EXPECT_TRUE(s.ok()) << s.ToString();
  return path;
}

TEST(ModelAdminTest, LoadRolesActivateAndStatusRoundTrip) {
  ServerHarness harness(serve::TinyServeConfig(), kSeed);
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  const std::string path = WriteCheckpoint("roundtrip");
  ASSERT_TRUE(client.ModelLoad("v2", path).ok());

  std::string json;
  ASSERT_TRUE(client.ModelStatus(&json).ok());
  EXPECT_NE(json.find("\"primary\": \"v0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"v2\""), std::string::npos) << json;

  // Candidate on, then off; shadow on, then off — each observable in the
  // status JSON the same client reads back.
  ASSERT_TRUE(
      client.ModelActivate("v2", ModelAdminMode::kSetCandidate, 0.25).ok());
  ASSERT_TRUE(client.ModelStatus(&json).ok());
  EXPECT_NE(json.find("\"candidate\": \"v2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ab_fraction\": 0.25"), std::string::npos) << json;
  ASSERT_TRUE(
      client.ModelActivate("", ModelAdminMode::kClearCandidate).ok());

  ASSERT_TRUE(client.ModelActivate("v2", ModelAdminMode::kSetShadow).ok());
  ASSERT_TRUE(client.ModelStatus(&json).ok());
  EXPECT_NE(json.find("\"shadow\": \"v2\""), std::string::npos) << json;
  ASSERT_TRUE(client.ModelActivate("", ModelAdminMode::kClearShadow).ok());

  ASSERT_TRUE(
      client.ModelActivate("v2", ModelAdminMode::kActivateDrain).ok());
  ASSERT_TRUE(client.ModelStatus(&json).ok());
  EXPECT_NE(json.find("\"primary\": \"v2\""), std::string::npos) << json;

  // The rolled checkpoint serves its own parameters: a fresh session's
  // score is bit-identical to the checkpoint model's offline forward.
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  events.push_back(ScoreEvent(1));
  ASSERT_TRUE(client.IngestAll(events).ok());
  ASSERT_TRUE(client.DrainResults().ok());
  std::vector<serve::ScoreResult> results = client.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  core::TpGnnModel reference(serve::TinyServeConfig(), kCheckpointSeed);
  EXPECT_EQ(results[0].logit, serve::OfflineLogit(reference, g));

  std::remove(path.c_str());
}

TEST(ModelAdminTest, ServerErrorsSurfaceAsTypedAckStatus) {
  ServerHarness harness(serve::TinyServeConfig(), kSeed);
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  // Missing checkpoint file.
  EXPECT_EQ(client.ModelLoad("v2", "/no/such/file.ckpt").code(),
            StatusCode::kNotFound);
  // Unknown version.
  EXPECT_EQ(client.ModelActivate("ghost", ModelAdminMode::kActivateDrain)
                .code(),
            StatusCode::kNotFound);
  // Duplicate name.
  const std::string path = WriteCheckpoint("dup");
  ASSERT_TRUE(client.ModelLoad("v2", path).ok());
  EXPECT_EQ(client.ModelLoad("v2", path).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  // The connection survives typed admin failures — it is an application
  // status, not a protocol error.
  EXPECT_TRUE(client.Ping().ok());
  std::string json;
  EXPECT_TRUE(client.ModelStatus(&json).ok());
}

}  // namespace
}  // namespace tpgnn::net
