#ifndef TPGNN_CLUSTER_REGISTRY_H_
#define TPGNN_CLUSTER_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

// Backend membership and health for the router tier: a socket-free state
// machine over (connect, probe, drain) transitions. The Router owns the
// actual sockets and feeds observations in ("connected", "connect
// failed", "pong arrived", "connection lost"); the registry answers the
// policy questions ("should I dial now?", "is a probe due?", "did that
// miss cross the failure threshold?"). Keeping the clock an explicit
// argument — seconds on any monotone scale — makes every transition unit
// testable with a fake clock (tests/cluster/registry_test.cc).
//
// Health model: a backend is kDown until a TCP connect succeeds, kUp
// while connected and answering PING probes, and back to kDown when the
// connection drops or `probe_failures_to_down` consecutive probes time
// out. Reconnects back off by `reconnect_backoff_seconds` (doubling,
// capped) so a flapping backend cannot spin the poll loop. Draining is an
// orthogonal administrative flag: a draining backend keeps its
// connection and health, but the router removes it from the ring and
// migrates its sessions away.

namespace tpgnn::cluster {

enum class BackendHealth : uint8_t {
  kDown = 0,  // Not connected; dial when the backoff allows.
  kUp = 1,    // Connected and probing clean.
};

struct BackendConfig {
  std::string name;  // Ring identity; must be unique and stable.
  std::string host = "127.0.0.1";
  int port = 0;
};

struct RegistryOptions {
  double probe_interval_seconds = 0.5;
  double probe_timeout_seconds = 1.0;
  // Consecutive probe timeouts before the backend is declared down.
  int probe_failures_to_down = 2;
  double reconnect_backoff_seconds = 0.25;
  double reconnect_backoff_max_seconds = 2.0;
};

class BackendRegistry {
 public:
  struct Entry {
    BackendConfig config;
    BackendHealth health = BackendHealth::kDown;
    bool draining = false;
    double next_connect_at = 0.0;  // Earliest allowed dial time.
    double backoff = 0.0;          // Current reconnect backoff.
    double last_probe_sent_at = -1.0;  // < 0: no probe outstanding.
    uint64_t probe_request_id = 0;
    int consecutive_probe_misses = 0;
    // Lifetime counters, surfaced in the router's cluster metrics.
    uint64_t connects = 0;
    uint64_t disconnects = 0;
    uint64_t probes_sent = 0;
    uint64_t probes_missed = 0;
  };

  explicit BackendRegistry(const RegistryOptions& options);

  // Registers a backend (idempotent by name; the config of a repeat Add
  // is ignored).
  void Add(const BackendConfig& config);

  Entry* Find(const std::string& name);
  // Names in deterministic (sorted) order.
  std::vector<std::string> names() const;
  size_t size() const { return entries_.size(); }
  size_t num_up() const;

  // --- Transitions, driven by the router's poll loop ---------------------

  // True when a down, non-draining backend may be dialed at `now`.
  bool ShouldConnect(const Entry& entry, double now) const;
  void OnConnected(Entry& entry, double now);
  void OnConnectFailed(Entry& entry, double now);
  void OnConnectionLost(Entry& entry, double now);

  // True when an up backend with no outstanding probe is due for one.
  bool ProbeDue(const Entry& entry, double now) const;
  // Records the probe send; returns the request id to put on the wire.
  uint64_t OnProbeSent(Entry& entry, double now);
  // Matches a PONG. False for a stale id (a probe already written off).
  bool OnPong(Entry& entry, uint64_t request_id, double now);
  // True when the outstanding probe has passed its deadline; records the
  // miss. `*crossed_threshold` reports whether this miss was the one that
  // exhausts probe_failures_to_down — the caller then tears the
  // connection down (OnConnectionLost), which is what actually moves the
  // backend to kDown.
  bool ProbeExpired(Entry& entry, double now, bool* crossed_threshold);

  void SetDraining(Entry& entry, bool draining) { entry.draining = draining; }

  const RegistryOptions& options() const { return options_; }

 private:
  const RegistryOptions options_;
  // std::map: deterministic iteration for the poll loop and tests.
  std::map<std::string, Entry> entries_;
  uint64_t next_probe_id_ = 1;
};

}  // namespace tpgnn::cluster

#endif  // TPGNN_CLUSTER_REGISTRY_H_
