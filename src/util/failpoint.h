#ifndef TPGNN_UTIL_FAILPOINT_H_
#define TPGNN_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

// Deterministic, seeded fault injection for the serving stack.
//
// A *failpoint* is a named site in production code where a fault can be
// provoked on demand: a socket read that pretends the peer reset, a send
// that delivers one byte, a pool acquire that falls back to plain
// allocation, a wire frame whose header gets a bit flipped. Sites are
// compiled in unconditionally; when no failpoint is active the per-site
// cost is one relaxed atomic load and a never-taken branch (verified
// against BENCH_net.json throughput — see DESIGN.md §4.5).
//
// Activation, two ways:
//   * Environment (whole-process chaos runs):
//       TPGNN_FAILPOINTS=net.recv=0.05:short_io,engine.score_enqueue=0.02:return_error
//       TPGNN_FAILPOINT_SEED=7
//     parsed once at startup. Grammar per entry: name=prob:kind[:arg[:max]]
//     where kind is one of return_error | short_io | delay | alloc_fail |
//     corrupt_byte, `arg` is the kind-specific parameter (delay micros,
//     short-io byte cap, ...) and `max` caps the number of fires (0 =
//     unlimited).
//   * Programmatic (tests): ScopedFailpoint installs on construction and
//     restores the previous state of that name on destruction.
//
// Determinism: whether the i-th *evaluation* of a site fires is a pure
// function of (global seed, site name, i). Counters are atomic, so under
// concurrency the fire schedule is deterministic per site-evaluation
// sequence even though thread interleaving decides which thread draws
// which index. Same seed + same per-site evaluation counts => same fires.
//
// A site never *invents* failure modes: each site maps the generic kinds
// onto outcomes its callers already handle (a typed Status, a partial
// read/write, a stall). Chaos tests (tests/net/chaos_test.cc) then assert
// the invariants that must survive any schedule: no crash, exact score
// accounting, bit-identical results, error counters equal to fire counts.

namespace tpgnn::failpoint {

enum class Kind {
  kReturnError,  // The site returns its documented injected-failure Status.
  kShortIo,      // I/O delivers at most `arg` bytes (0 = simulated EAGAIN).
  kDelay,        // The site stalls for `arg` microseconds (default 200).
  kAllocFail,    // Pooled acquisition fails; the site falls back gracefully.
  kCorruptByte,  // One bit of the site's buffer flips, deterministically.
};

// Parses "return_error" etc.; false on unknown names.
bool ParseKind(const std::string& text, Kind* kind);

// One fired injection, as seen by the site.
struct Hit {
  Kind kind = Kind::kReturnError;
  uint64_t arg = 0;         // Kind-specific parameter from the spec.
  uint64_t fire_index = 0;  // 0-based index among this site's fires.
  uint64_t site_seed = 0;   // Per-site seed (drives corrupt-byte choices).
};

namespace internal {
// Number of installed failpoints. Acquire/release so a site that observes
// a nonzero count also observes the registry write that installed it.
extern std::atomic<int> g_active_count;
bool Evaluate(const char* name, Hit* hit);
}  // namespace internal

// Fast gate, inlined at every site.
inline bool Armed() {
  return internal::g_active_count.load(std::memory_order_acquire) > 0;
}

// The site macro: false (with no registry access) unless some failpoint is
// installed; otherwise true iff `name` is active and fires this evaluation,
// filling `*hit`.
#define TPGNN_FAILPOINT(name, hit)                    \
  (__builtin_expect(::tpgnn::failpoint::Armed(), 0) && \
   ::tpgnn::failpoint::internal::Evaluate(name, hit))

// --- Standard interpretations of a Hit, shared by the sites ---------------

// Status for a kReturnError hit: Status(code, "injected fault at <site>").
Status InjectedError(StatusCode code, const char* site);

// Sleeps for hit.arg microseconds (200 µs when arg is 0). No-op for
// non-delay hits.
void ApplyDelay(const Hit& hit);

// Byte budget of a kShortIo hit: min(size, hit.arg). hit.arg == 0 means a
// simulated would-block (zero bytes); sites on *blocking* paths should pass
// `min_bytes` = 1 so they always make progress.
size_t ShortIoBudget(const Hit& hit, size_t size, size_t min_bytes = 0);

// Flips one bit at a deterministic position (derived from the hit) of
// [data, data + size). No-op when size is 0.
void CorruptByte(const Hit& hit, uint8_t* data, size_t size);

// Flips one bit in the always-validated region of a 12-byte TPGN frame
// header (magic / version / reserved — never the type or length bytes,
// whose corruption can alias to a different well-formed frame), so every
// fire is guaranteed to surface as a typed kDataLoss at the receiver.
// No-op when size < 12.
void CorruptFrameHeader(const Hit& hit, uint8_t* frame, size_t size);

// --- Registry management --------------------------------------------------

struct FailpointSpec {
  std::string name;
  double probability = 1.0;  // Per-evaluation fire probability in [0, 1].
  Kind kind = Kind::kReturnError;
  uint64_t arg = 0;
  uint64_t max_fires = 0;  // 0 = unlimited.
};

// Installs (or replaces) a failpoint. Counters of the name are kept.
void Install(const FailpointSpec& spec);
// Removes one failpoint; false if it was not installed.
bool Remove(const std::string& name);
// Removes every failpoint (fire counters survive; see ResetCounters).
void ClearAll();

// Parses the TPGNN_FAILPOINTS grammar and installs every entry; on a parse
// error nothing is installed and the error names the bad entry.
Status InstallFromSpecString(const std::string& spec);

// Reseeds the schedule and zeroes all evaluation/fire counters, so runs
// with equal seeds replay identical schedules. Installed specs survive.
void SetSeed(uint64_t seed);

// Fires of one site (survives Remove/ClearAll until ResetCounters).
uint64_t FireCount(const std::string& name);
// Fires across all sites.
uint64_t TotalFires();
// Zeroes every evaluation and fire counter.
void ResetCounters();

// Number of currently installed failpoints.
size_t ActiveCount();

// RAII activation for tests: installs on construction, restores the
// previous registration of `name` (or removes it) on destruction.
class ScopedFailpoint {
 public:
  ScopedFailpoint(const std::string& name, double probability, Kind kind,
                  uint64_t arg = 0, uint64_t max_fires = 0);
  ~ScopedFailpoint();

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  // Fires since THIS installation (earlier registrations of the same name
  // may have fired before; FireCount(name) holds the cumulative total).
  uint64_t fires() const { return FireCount(name_) - base_fires_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  uint64_t base_fires_ = 0;
  bool had_previous_ = false;
  FailpointSpec previous_;
};

}  // namespace tpgnn::failpoint

#endif  // TPGNN_UTIL_FAILPOINT_H_
