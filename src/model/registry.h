#ifndef TPGNN_MODEL_REGISTRY_H_
#define TPGNN_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "util/status.h"

// Versioned model registry: the zero-downtime model lifecycle (DESIGN.md
// §4.8). A serving process holds one ModelRegistry; every scoring path
// resolves a refcounted immutable ModelVersion through it instead of
// touching a process-wide TpGnnModel, so a checkpoint swap under live
// traffic is an atomic pointer move — in-flight sessions keep the version
// they folded their state under (the fold is parameter-dependent; mixing
// versions inside one score would be silently wrong) and new sessions pick
// up the new primary immediately.
//
// Lifecycle verbs:
//   * Load(name, path): read a checkpoint into a new inactive version.
//     The metadata block is validated against the registry config before
//     any parameter is touched — every version shares one architecture, so
//     folded state is shape-compatible across a rebase.
//   * Activate(name, policy): atomically make `name` the primary.
//     kDrain leaves live sessions pinned to their version until they end;
//     kImmediateRebase bumps the assignment epoch, which tells shards to
//     re-resolve each session at its next touch and refold its state under
//     the new version (counted as `version_rebases`).
//   * SetCandidate(name, fraction): deterministic per-session A/B split —
//     splitmix64(session id ^ salt) routes `fraction` of sessions to the
//     candidate, the rest to the primary. Assignment is a pure function of
//     (session id, candidate seq, fraction, salt): the same session always
//     lands on the same side, on every backend.
//   * SetShadow(name): the shadow version re-scores every primary score
//     off the client path; logit deltas land in the metrics shadow block
//     and never reach a client.
//   * Retire(name): drop the registry's reference; live sessions pinned to
//     the version keep it alive through their shared_ptr until they end.
//
// Threading: all methods are thread-safe. Resolution (ResolveForSession /
// primary / shadow) is a mutex-guarded shared_ptr copy; the assignment
// epoch is a lock-free atomic so per-event staleness checks stay O(1).

namespace tpgnn::model {

// How Activate treats sessions already folded under the old primary.
enum class SwapPolicy {
  kDrain,            // Pinned sessions keep their version until they end.
  kImmediateRebase,  // Sessions re-resolve and refold at their next touch.
};

// One immutable published model version. The parameters are frozen once
// the version is registered (inference never mutates module state); the
// registry hands out shared_ptr<const ModelVersion> handles whose refcount
// keeps a retired version alive while sessions still score against it.
class ModelVersion {
 public:
  ModelVersion(std::string name, uint64_t seq, const core::TpGnnConfig& config,
               uint64_t seed, std::string source_path);

  const std::string& name() const { return name_; }
  // Monotone registration sequence number; the mixed-version guard compares
  // fold seqs against it.
  uint64_t seq() const { return seq_; }
  const std::string& source_path() const { return source_path_; }
  const core::TpGnnModel& model() const { return *model_; }
  // Parameter loading happens before the version is published; the engine's
  // legacy model() accessor also mutates the initial version in place
  // (trainer flows copy parameters in before serving starts).
  core::TpGnnModel& mutable_model() { return *model_; }

 private:
  const std::string name_;
  const uint64_t seq_;
  const std::string source_path_;
  std::unique_ptr<core::TpGnnModel> model_;
};

using ModelVersionPtr = std::shared_ptr<const ModelVersion>;

// Snapshot row of StatusJson / Versions().
struct ModelVersionInfo {
  std::string name;
  uint64_t seq = 0;
  std::string source_path;
  bool is_primary = false;
  bool is_candidate = false;
  bool is_shadow = false;
  long use_count = 0;  // Outstanding handles (sessions + roles + snapshot).
};

class ModelRegistry {
 public:
  // Creates and activates the initial version (named `initial_name`) with
  // freshly initialized parameters from (config, seed).
  ModelRegistry(const core::TpGnnConfig& config, uint64_t seed,
                const std::string& initial_name = "v0");

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Loads `path` into a new inactive version `name`. Fails with
  // kInvalidArgument on a duplicate or empty name, kFailedPrecondition when
  // the checkpoint metadata names a different architecture, and propagates
  // checkpoint I/O errors. The `model.load` failpoint injects load failures
  // before any file is touched.
  Status Load(const std::string& name, const std::string& path);

  // Registers a freshly initialized (no checkpoint) version — test and
  // bench seam for "a second model" without a file round-trip.
  Status Register(const std::string& name, uint64_t seed);

  // Atomically makes `name` the primary. Under kImmediateRebase the
  // assignment epoch bumps so shards re-resolve sessions at next touch;
  // under kDrain live sessions finish on their pinned version. Activating a
  // version that is the candidate or shadow clears that role first. The
  // `model.activate` failpoint injects activation failures.
  Status Activate(const std::string& name, SwapPolicy policy);

  // A/B: route `fraction` (clamped to [0, 1]) of sessions to `name`.
  // Bumps the assignment epoch so live sessions re-resolve deterministically.
  Status SetCandidate(const std::string& name, double fraction);
  Status ClearCandidate();

  // Shadow: re-score every primary score under `name`, off the client path.
  Status SetShadow(const std::string& name);
  Status ClearShadow();

  // Drops the registry reference to an inactive version. Fails with
  // kFailedPrecondition while `name` is the primary, candidate, or shadow.
  Status Retire(const std::string& name);

  // Deterministic per-session resolution: the candidate when one is set and
  // splitmix64(session_id ^ salt) falls inside the fraction, else the
  // primary. `*epoch` (optional) receives the assignment epoch the decision
  // was made under, read atomically with the decision.
  ModelVersionPtr ResolveForSession(uint64_t session_id,
                                    uint64_t* epoch = nullptr) const;

  ModelVersionPtr shadow() const;
  // Lookup by name; by the empty string resolves to the primary (the
  // version-1 session-state snapshots carry no version tag). Null when the
  // name is unknown.
  ModelVersionPtr Find(const std::string& name) const;

  // Bumped on every assignment-visible change (immediate-rebase activation,
  // candidate set/clear). Shards compare a session's stamped epoch against
  // this before touching its state.
  uint64_t assignment_epoch() const {
    return assignment_epoch_.load(std::memory_order_acquire);
  }

  const core::TpGnnConfig& config() const { return config_; }

  // The initial version's mutable model — the engine's legacy model()
  // accessor (trainer flows copy parameters in before serving starts).
  core::TpGnnModel& initial_model() { return initial_->mutable_model(); }

  uint64_t ab_salt() const { return ab_salt_; }
  void set_ab_salt(uint64_t salt) { ab_salt_ = salt; }

  std::vector<ModelVersionInfo> Versions() const;
  // {"primary": ..., "candidate": ..., "ab_fraction": ..., "shadow": ...,
  //  "assignment_epoch": ..., "versions": [...]} — the MODEL_STATUS payload.
  std::string StatusJson() const;

 private:
  ModelVersionPtr FindLocked(const std::string& name) const;

  const core::TpGnnConfig config_;
  const uint64_t seed_;
  uint64_t ab_salt_ = 0x7450474e4d4f444cULL;  // "TPGN MODL"

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ModelVersion>> versions_;
  std::shared_ptr<ModelVersion> initial_;
  ModelVersionPtr primary_;
  ModelVersionPtr candidate_;
  ModelVersionPtr shadow_;
  double ab_fraction_ = 0.0;
  uint64_t next_seq_ = 1;
  std::atomic<uint64_t> assignment_epoch_{0};
};

// The deterministic A/B hash, exposed so tests and remote tooling can
// predict assignments: a session routes to the candidate iff
// SplitMix64(session_id ^ salt) < fraction * 2^64 (util/rng.h).
bool AbPicksCandidate(uint64_t session_id, uint64_t salt, double fraction);

}  // namespace tpgnn::model

#endif  // TPGNN_MODEL_REGISTRY_H_
