#include "model/registry.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "nn/checkpoint.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tpgnn::model {

bool AbPicksCandidate(uint64_t session_id, uint64_t salt, double fraction) {
  if (!(fraction > 0.0)) {
    return false;
  }
  if (fraction >= 1.0) {
    return true;
  }
  // Threshold in the hash's full 64-bit range; ldexp keeps the product
  // exact for the fractions people actually configure (powers of two) and
  // monotone for the rest.
  const double threshold = std::ldexp(fraction, 64);
  return static_cast<double>(SplitMix64(session_id ^ salt)) < threshold;
}

ModelVersion::ModelVersion(std::string name, uint64_t seq,
                           const core::TpGnnConfig& config, uint64_t seed,
                           std::string source_path)
    : name_(std::move(name)),
      seq_(seq),
      source_path_(std::move(source_path)),
      model_(std::make_unique<core::TpGnnModel>(config, seed)) {}

ModelRegistry::ModelRegistry(const core::TpGnnConfig& config, uint64_t seed,
                             const std::string& initial_name)
    : config_(config), seed_(seed) {
  initial_ = std::make_shared<ModelVersion>(initial_name, next_seq_++, config_,
                                            seed_, /*source_path=*/"");
  versions_.emplace(initial_name, initial_);
  primary_ = initial_;
}

Status ModelRegistry::Load(const std::string& name, const std::string& path) {
  // Injected load failure: fires before the file is opened, so a failed
  // load never leaves a half-registered version behind.
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("model.load", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      return failpoint::InjectedError(StatusCode::kDataLoss, "model.load");
    }
  }
  if (name.empty()) {
    return Status::InvalidArgument("model version name must be non-empty");
  }
  uint64_t seq = 0;
  {
    // Reserve the seq up front; a failed load leaves a harmless gap in the
    // (merely monotone) sequence rather than a half-registered version.
    std::lock_guard<std::mutex> lock(mu_);
    if (versions_.count(name) > 0) {
      return Status::InvalidArgument("duplicate model version " + name);
    }
    seq = next_seq_++;
  }
  // Pre-flight: reject a checkpoint from a different architecture before
  // any parameter is touched. Every version must share the registry config
  // so folded session state stays shape-compatible across a rebase.
  nn::CheckpointMetadata metadata;
  if (Status s = nn::ReadCheckpointMetadata(path, &metadata); !s.ok()) {
    return s;
  }
  if (Status s = core::ValidateConfigMetadata(config_, metadata); !s.ok()) {
    return s;
  }
  // Build and fill the version outside the lock — checkpoint parsing is the
  // slow part and must not stall resolution on the scoring path.
  auto version = std::make_shared<ModelVersion>(name, seq, config_, seed_,
                                                path);
  if (Status s = nn::LoadParameters(version->mutable_model(), path); !s.ok()) {
    return s;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (versions_.count(name) > 0) {
    return Status::InvalidArgument("duplicate model version " + name);
  }
  versions_.emplace(name, std::move(version));
  return Status::Ok();
}

Status ModelRegistry::Register(const std::string& name, uint64_t seed) {
  if (name.empty()) {
    return Status::InvalidArgument("model version name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (versions_.count(name) > 0) {
    return Status::InvalidArgument("duplicate model version " + name);
  }
  auto version = std::make_shared<ModelVersion>(name, next_seq_++, config_,
                                                seed, /*source_path=*/"");
  versions_.emplace(name, version);
  return Status::Ok();
}

Status ModelRegistry::Activate(const std::string& name, SwapPolicy policy) {
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("model.activate", &hit)) {
    if (hit.kind == failpoint::Kind::kDelay) {
      failpoint::ApplyDelay(hit);
    } else {
      return failpoint::InjectedError(StatusCode::kFailedPrecondition,
                                      "model.activate");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ModelVersionPtr version = FindLocked(name);
  if (version == nullptr) {
    return Status::NotFound("unknown model version " + name);
  }
  if (candidate_ != nullptr && candidate_->name() == name) {
    candidate_ = nullptr;
    ab_fraction_ = 0.0;
  }
  if (shadow_ != nullptr && shadow_->name() == name) {
    shadow_ = nullptr;
  }
  primary_ = version;
  if (policy == SwapPolicy::kImmediateRebase) {
    assignment_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::Ok();
}

Status ModelRegistry::SetCandidate(const std::string& name, double fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelVersionPtr version = FindLocked(name);
  if (version == nullptr) {
    return Status::NotFound("unknown model version " + name);
  }
  if (primary_ != nullptr && primary_->name() == name) {
    return Status::FailedPrecondition("model version " + name +
                                      " is the primary");
  }
  if (fraction < 0.0 || fraction > 1.0 || std::isnan(fraction)) {
    return Status::InvalidArgument("A/B fraction must be in [0, 1]");
  }
  candidate_ = version;
  ab_fraction_ = fraction;
  assignment_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

Status ModelRegistry::ClearCandidate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (candidate_ != nullptr) {
    candidate_ = nullptr;
    ab_fraction_ = 0.0;
    assignment_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::Ok();
}

Status ModelRegistry::SetShadow(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelVersionPtr version = FindLocked(name);
  if (version == nullptr) {
    return Status::NotFound("unknown model version " + name);
  }
  if (primary_ != nullptr && primary_->name() == name) {
    return Status::FailedPrecondition("model version " + name +
                                      " is the primary");
  }
  shadow_ = version;
  return Status::Ok();
}

Status ModelRegistry::ClearShadow() {
  std::lock_guard<std::mutex> lock(mu_);
  shadow_ = nullptr;
  return Status::Ok();
}

Status ModelRegistry::Retire(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find(name);
  if (it == versions_.end()) {
    return Status::NotFound("unknown model version " + name);
  }
  const auto is_role = [&](const ModelVersionPtr& role) {
    return role != nullptr && role->name() == name;
  };
  if (is_role(primary_) || is_role(candidate_) || is_role(shadow_)) {
    return Status::FailedPrecondition(
        "model version " + name + " is active (primary/candidate/shadow)");
  }
  versions_.erase(it);  // Sessions still holding handles keep it alive.
  return Status::Ok();
}

ModelVersionPtr ModelRegistry::ResolveForSession(uint64_t session_id,
                                                 uint64_t* epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The epoch is read under the same lock every epoch bump happens under,
  // so a stamped (version, epoch) pair is always consistent.
  if (epoch != nullptr) {
    *epoch = assignment_epoch_.load(std::memory_order_acquire);
  }
  if (candidate_ != nullptr &&
      AbPicksCandidate(session_id, ab_salt_, ab_fraction_)) {
    return candidate_;
  }
  return primary_;
}

ModelVersionPtr ModelRegistry::shadow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shadow_;
}

ModelVersionPtr ModelRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (name.empty()) {
    return primary_;
  }
  return FindLocked(name);
}

ModelVersionPtr ModelRegistry::FindLocked(const std::string& name) const {
  auto it = versions_.find(name);
  return it == versions_.end() ? nullptr : it->second;
}

std::vector<ModelVersionInfo> ModelRegistry::Versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelVersionInfo> infos;
  infos.reserve(versions_.size());
  const auto is_role = [](const ModelVersionPtr& role,
                          const std::shared_ptr<ModelVersion>& v) {
    return role != nullptr && role.get() == v.get();
  };
  for (const auto& [name, version] : versions_) {
    ModelVersionInfo info;
    info.name = name;
    info.seq = version->seq();
    info.source_path = version->source_path();
    info.is_primary = is_role(primary_, version);
    info.is_candidate = is_role(candidate_, version);
    info.is_shadow = is_role(shadow_, version);
    info.use_count = version.use_count();
    infos.push_back(std::move(info));
  }
  return infos;
}

std::string ModelRegistry::StatusJson() const {
  std::vector<ModelVersionInfo> infos = Versions();
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  const auto name_or_null = [&os](const ModelVersionPtr& v) {
    if (v == nullptr) {
      os << "null";
    } else {
      os << "\"" << v->name() << "\"";
    }
  };
  os << "{\"primary\": ";
  name_or_null(primary_);
  os << ", \"candidate\": ";
  name_or_null(candidate_);
  os << ", \"ab_fraction\": " << ab_fraction_;
  os << ", \"shadow\": ";
  name_or_null(shadow_);
  os << ", \"assignment_epoch\": "
     << assignment_epoch_.load(std::memory_order_acquire);
  os << ", \"versions\": [";
  bool first = true;
  for (const ModelVersionInfo& info : infos) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << info.name << "\", \"seq\": " << info.seq
       << ", \"primary\": " << (info.is_primary ? "true" : "false")
       << ", \"candidate\": " << (info.is_candidate ? "true" : "false")
       << ", \"shadow\": " << (info.is_shadow ? "true" : "false")
       << ", \"refs\": " << info.use_count;
    if (!info.source_path.empty()) {
      os << ", \"source\": \"" << info.source_path << "\"";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace tpgnn::model
