#include "cluster/ring.h"

#include "util/rng.h"

namespace tpgnn::cluster {

namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t RingPointOf(uint64_t session_id) { return SplitMix64(session_id); }

HashRing::HashRing(int vnodes_per_backend)
    : vnodes_(vnodes_per_backend < 1 ? 1 : vnodes_per_backend) {}

bool HashRing::AddBackend(const std::string& name) {
  if (!backends_.insert(name).second) {
    return false;
  }
  Rebuild();
  return true;
}

bool HashRing::RemoveBackend(const std::string& name) {
  if (backends_.erase(name) == 0) {
    return false;
  }
  Rebuild();
  return true;
}

const std::string* HashRing::OwnerOf(uint64_t session_id) const {
  if (points_.empty()) {
    return nullptr;
  }
  auto it = points_.lower_bound(RingPointOf(session_id));
  if (it == points_.end()) {
    it = points_.begin();  // Wrap past the highest point.
  }
  return &it->second;
}

void HashRing::Rebuild() {
  points_.clear();
  for (const std::string& name : backends_) {
    const uint64_t base = Fnv1a64(name);
    for (int replica = 0; replica < vnodes_; ++replica) {
      const uint64_t point =
          SplitMix64(base ^ SplitMix64(static_cast<uint64_t>(replica) + 1));
      auto [it, inserted] = points_.emplace(point, name);
      // Collision across backends: keep the smaller name. Iterating the
      // sorted backend set would make first-wins equivalent, but the
      // explicit rule keeps the invariant local and obvious.
      if (!inserted && name < it->second) {
        it->second = name;
      }
    }
  }
}

}  // namespace tpgnn::cluster
