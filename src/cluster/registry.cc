#include "cluster/registry.h"

namespace tpgnn::cluster {

BackendRegistry::BackendRegistry(const RegistryOptions& options)
    : options_(options) {}

void BackendRegistry::Add(const BackendConfig& config) {
  Entry entry;
  entry.config = config;
  entries_.emplace(config.name, std::move(entry));
}

BackendRegistry::Entry* BackendRegistry::Find(const std::string& name) {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(name);
  }
  return out;
}

size_t BackendRegistry::num_up() const {
  size_t up = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.health == BackendHealth::kUp) {
      ++up;
    }
  }
  return up;
}

bool BackendRegistry::ShouldConnect(const Entry& entry, double now) const {
  return entry.health == BackendHealth::kDown && !entry.draining &&
         now >= entry.next_connect_at;
}

void BackendRegistry::OnConnected(Entry& entry, double now) {
  entry.health = BackendHealth::kUp;
  entry.backoff = 0.0;
  entry.consecutive_probe_misses = 0;
  entry.last_probe_sent_at = -1.0;
  // First probe only after a full interval: the connect itself just
  // proved liveness.
  entry.next_connect_at = now;
  ++entry.connects;
}

void BackendRegistry::OnConnectFailed(Entry& entry, double now) {
  entry.backoff = entry.backoff <= 0.0
                      ? options_.reconnect_backoff_seconds
                      : entry.backoff * 2.0;
  if (entry.backoff > options_.reconnect_backoff_max_seconds) {
    entry.backoff = options_.reconnect_backoff_max_seconds;
  }
  entry.next_connect_at = now + entry.backoff;
}

void BackendRegistry::OnConnectionLost(Entry& entry, double now) {
  if (entry.health == BackendHealth::kUp) {
    ++entry.disconnects;
  }
  entry.health = BackendHealth::kDown;
  entry.last_probe_sent_at = -1.0;
  entry.consecutive_probe_misses = 0;
  // Lost connections retry after one base backoff, then double on
  // repeated failures like any other dial.
  entry.backoff = options_.reconnect_backoff_seconds;
  entry.next_connect_at = now + entry.backoff;
}

bool BackendRegistry::ProbeDue(const Entry& entry, double now) const {
  if (entry.health != BackendHealth::kUp || entry.last_probe_sent_at >= 0.0) {
    return false;
  }
  // next_connect_at doubles as "time of the last liveness proof" while up.
  return now - entry.next_connect_at >= options_.probe_interval_seconds;
}

uint64_t BackendRegistry::OnProbeSent(Entry& entry, double now) {
  entry.last_probe_sent_at = now;
  entry.probe_request_id = next_probe_id_++;
  ++entry.probes_sent;
  return entry.probe_request_id;
}

bool BackendRegistry::OnPong(Entry& entry, uint64_t request_id, double now) {
  if (entry.last_probe_sent_at < 0.0 ||
      request_id != entry.probe_request_id) {
    return false;
  }
  entry.last_probe_sent_at = -1.0;
  entry.consecutive_probe_misses = 0;
  // Liveness proven at `now`; the next probe is due a full interval later
  // (next_connect_at doubles as the last-proof stamp while up).
  entry.next_connect_at = now;
  return true;
}

bool BackendRegistry::ProbeExpired(Entry& entry, double now,
                                   bool* crossed_threshold) {
  *crossed_threshold = false;
  if (entry.health != BackendHealth::kUp || entry.last_probe_sent_at < 0.0 ||
      now - entry.last_probe_sent_at < options_.probe_timeout_seconds) {
    return false;
  }
  entry.last_probe_sent_at = -1.0;
  ++entry.probes_missed;
  ++entry.consecutive_probe_misses;
  *crossed_threshold =
      entry.consecutive_probe_misses >= options_.probe_failures_to_down;
  return true;
}

}  // namespace tpgnn::cluster
