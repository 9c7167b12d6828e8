// Quickstart: build a continuous-time dynamic network by hand, train
// TP-GNN on a small synthetic dataset, and classify the hand-built graph.
//
//   $ ./build/examples/quickstart
//
// Checkpoint flags wire the quickstart into the online-serving demo:
//
//   $ ./build/examples/quickstart --save_checkpoint=/tmp/tpgnn.ckpt
//   $ ./build/examples/serve_demo --checkpoint=/tmp/tpgnn.ckpt
//
// --save_checkpoint writes the trained parameters plus a config metadata
// block (nn/checkpoint.h version 2); --load_checkpoint restores a snapshot
// and skips training.

#include <cmath>
#include <cstdio>
#include <string>

#include "core/model.h"
#include "data/datasets.h"
#include "eval/trainer.h"
#include "graph/temporal_graph.h"
#include "nn/checkpoint.h"
#include "tensor/ops.h"
#include "util/flags.h"

namespace core = tpgnn::core;
namespace data = tpgnn::data;
namespace eval = tpgnn::eval;
namespace graph = tpgnn::graph;
namespace nn = tpgnn::nn;
using tpgnn::FlagValue;

int main(int argc, char** argv) {
  const std::string save_path = FlagValue(argc, argv, "save_checkpoint");
  const std::string load_path = FlagValue(argc, argv, "load_checkpoint");

  // 1. A CTDN is a set of nodes with features plus timestamped directed
  //    edges (Definition 1). Here: a five-event log session.
  graph::TemporalGraph session(/*num_nodes=*/5, /*feature_dim=*/3);
  session.SetNodeFeature(0, {0.00f, 1.2f, 0.0f});  // request received
  session.SetNodeFeature(1, {0.25f, 0.8f, 0.0f});  // auth check
  session.SetNodeFeature(2, {0.50f, 2.1f, 0.0f});  // db query
  session.SetNodeFeature(3, {0.75f, 0.5f, 0.0f});  // render
  session.SetNodeFeature(4, {1.00f, 0.3f, 0.0f});  // response sent
  session.AddEdge(0, 1, 1.0);
  session.AddEdge(1, 2, 2.2);
  session.AddEdge(2, 3, 3.7);
  session.AddEdge(3, 4, 4.1);

  // 2. Generate a small labeled dataset (synthetic stand-in for the
  //    paper's HDFS log corpus) and split it 30/70 chronologically.
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/150, /*seed=*/42);
  data::TrainTestSplit split = data::SplitDataset(dataset, 0.3);
  std::printf("dataset: %zu train / %zu test graphs\n", split.train.size(),
              split.test.size());

  // 3. Configure TP-GNN (paper defaults: SUM updater, d=32, d_t=6) and
  //    train end-to-end with Adam + BCE — or restore a snapshot.
  core::TpGnnConfig config;
  config.updater = core::Updater::kSum;
  core::TpGnnModel model(config, /*seed=*/1);
  std::printf("model: %s with %lld parameters\n", model.name().c_str(),
              static_cast<long long>(model.ParameterCount()));

  if (!load_path.empty()) {
    nn::CheckpointMetadata metadata;
    tpgnn::Status status = nn::LoadParameters(model, load_path, &metadata);
    if (!status.ok()) {
      std::fprintf(stderr, "load_checkpoint failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    if (tpgnn::Status check = core::ValidateConfigMetadata(config, metadata);
        !check.ok()) {
      std::fprintf(stderr, "checkpoint config mismatch: %s\n",
                   check.ToString().c_str());
      return 1;
    }
    std::printf("loaded checkpoint: %s\n", load_path.c_str());
  } else {
    eval::TrainOptions train_options;
    train_options.epochs = 8;
    train_options.seed = 1;
    eval::TrainResult history =
        eval::TrainClassifier(model, split.train, train_options);
    std::printf("loss: first epoch %.4f -> last epoch %.4f\n",
                history.epoch_losses.front(), history.epoch_losses.back());
  }

  if (!save_path.empty()) {
    tpgnn::Status status =
        nn::SaveParameters(model, save_path, core::ConfigMetadata(config));
    if (!status.ok()) {
      std::fprintf(stderr, "save_checkpoint failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("saved checkpoint: %s\n", save_path.c_str());
  }

  // 4. Evaluate on the held-out split.
  eval::Metrics metrics = eval::EvaluateClassifier(model, split.test);
  std::printf("test: F1=%.2f%% precision=%.2f%% recall=%.2f%%\n",
              100.0 * metrics.f1, 100.0 * metrics.precision,
              100.0 * metrics.recall);

  // 5. Classify the hand-built session and inspect its graph embedding.
  tpgnn::Rng rng(0);
  float logit = model.ForwardLogit(session, /*training=*/false, rng).item();
  const float prob = 1.0f / (1.0f + std::exp(-logit));
  std::printf("hand-built session: P(normal) = %.3f -> %s\n", prob,
              prob > 0.5f ? "normal" : "anomalous");
  std::printf("graph embedding g: %s\n",
              model.Embed(session).ToString().c_str());
  return 0;
}
