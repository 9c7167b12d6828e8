#include "serve/parity_oracle.h"

#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "tensor/tensor.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tpgnn::serve {

namespace {

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

}  // namespace

float OfflineLogit(core::TpGnnModel& model, const graph::TemporalGraph& g) {
  tensor::NoGradGuard no_grad;
  Rng rng(0);
  return model.ForwardLogit(g, /*training=*/false, rng).item();
}

ParityOracle::ParityOracle(const core::TpGnnConfig& config, uint64_t seed)
    : model_(config, seed) {}

void ParityOracle::Record(const std::vector<Event>& events) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Event& event : events) {
    if (event.kind == Event::Kind::kBegin) {
      sessions_[event.session_id] = {event.num_nodes, event.feature_dim,
                                     event.features, {}, {}};
    } else if (event.kind == Event::Kind::kEdge) {
      const auto it = sessions_.find(event.session_id);
      if (it != sessions_.end()) {
        it->second.edges.push_back({event.src, event.dst, event.edge_time});
      }
    }
  }
}

Status ParityOracle::Check(const ScoreResult& result) {
  if (failpoint::Armed()) {
    return Status::FailedPrecondition(
        "parity: " + std::to_string(failpoint::ActiveCount()) +
        " failpoint(s) armed; the reference must be computed fault-free");
  }
  auto where = [&result] {
    return "parity: session " + std::to_string(result.session_id) +
           " prefix " + std::to_string(result.edges_scored);
  };
  if (!result.status.ok()) {
    return Status::InvalidArgument(where() + ": result carries no score: " +
                                   result.status.ToString());
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(result.session_id);
  if (it == sessions_.end()) {
    return Status::DataLoss(where() + ": unknown session");
  }
  Session& s = it->second;
  if (result.edges_scored < 0 ||
      result.edges_scored > static_cast<int64_t>(s.edges.size())) {
    return Status::DataLoss(where() + ": only " +
                            std::to_string(s.edges.size()) + " edges arrived");
  }
  const auto [memo, fresh] = s.logits.try_emplace(result.edges_scored, 0.0f);
  if (fresh) {
    graph::TemporalGraph prefix(s.num_nodes, s.feature_dim);
    for (const NodeInit& f : s.features) {
      prefix.SetNodeFeature(f.node, f.features);
    }
    for (int64_t k = 0; k < result.edges_scored; ++k) {
      const graph::TemporalEdge& e = s.edges[static_cast<size_t>(k)];
      prefix.AddEdge(e.src, e.dst, e.time);
    }
    memo->second = OfflineLogit(model_, prefix);
  }
  const float logit = memo->second;
  const float probability = ProbabilityOf(logit);
  if (SameBits(result.logit, logit) &&
      SameBits(result.probability, probability)) {
    return Status::Ok();
  }
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<float>::max_digits10) << where()
     << ": served logit " << result.logit << " probability "
     << result.probability << ", offline logit " << logit << " probability "
     << probability;
  return Status::DataLoss(os.str());
}

}  // namespace tpgnn::serve
