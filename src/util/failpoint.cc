#include "util/failpoint.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/env.h"

namespace tpgnn::failpoint {

namespace {

// Stateless splitmix64 round: the decision hash.
uint64_t Mix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the site name.
  for (char c : name) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  return h;
}

struct Active {
  FailpointSpec spec;
  uint64_t site_seed = 0;
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Active> active;
  // Fire counts survive Remove/ClearAll so a test can read them after its
  // ScopedFailpoint went out of scope.
  std::unordered_map<std::string, uint64_t> fire_counts;
  uint64_t seed = 1;
};

Registry& registry() {
  static Registry* r = new Registry();  // Leaked: sites may run at exit.
  return *r;
}

uint64_t SiteSeed(uint64_t global_seed, const std::string& name) {
  return Mix(global_seed ^ HashName(name));
}

void PublishCount(size_t count) {
  internal::g_active_count.store(static_cast<int>(count),
                                 std::memory_order_release);
}

// One-time env activation: TPGNN_FAILPOINTS + TPGNN_FAILPOINT_SEED. Runs
// lazily on the first armed-site evaluation *and* eagerly at static-init of
// any binary that links this file, whichever comes first.
void InstallFromEnvOnce() {
  static const bool installed = [] {
    const uint64_t seed =
        static_cast<uint64_t>(GetEnvInt("TPGNN_FAILPOINT_SEED", 1));
    {
      std::lock_guard<std::mutex> lock(registry().mu);
      registry().seed = seed;
    }
    const std::string spec = GetEnvString("TPGNN_FAILPOINTS", "");
    if (!spec.empty()) {
      Status s = InstallFromSpecString(spec);
      if (!s.ok()) {
        std::fprintf(stderr, "TPGNN_FAILPOINTS ignored: %s\n",
                     s.ToString().c_str());
      }
    }
    return true;
  }();
  (void)installed;
}

[[maybe_unused]] const bool g_env_installed_at_init = [] {
  InstallFromEnvOnce();
  return true;
}();

}  // namespace

namespace internal {

std::atomic<int> g_active_count{0};

bool Evaluate(const char* name, Hit* hit) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.active.find(name);
  if (it == r.active.end()) {
    return false;
  }
  Active& a = it->second;
  const uint64_t index = a.evaluations++;
  if (a.spec.max_fires > 0 && a.fires >= a.spec.max_fires) {
    return false;
  }
  if (a.spec.probability < 1.0) {
    // Deterministic per-evaluation draw in [0, 1); p <= 0 never fires.
    const double draw =
        static_cast<double>(Mix(a.site_seed ^ Mix(index)) >> 11) * 0x1.0p-53;
    if (draw >= a.spec.probability) {
      return false;
    }
  }
  hit->kind = a.spec.kind;
  hit->arg = a.spec.arg;
  hit->fire_index = a.fires++;
  hit->site_seed = a.site_seed;
  ++r.fire_counts[name];
  return true;
}

}  // namespace internal

bool ParseKind(const std::string& text, Kind* kind) {
  if (text == "return_error") {
    *kind = Kind::kReturnError;
  } else if (text == "short_io") {
    *kind = Kind::kShortIo;
  } else if (text == "delay") {
    *kind = Kind::kDelay;
  } else if (text == "alloc_fail") {
    *kind = Kind::kAllocFail;
  } else if (text == "corrupt_byte") {
    *kind = Kind::kCorruptByte;
  } else {
    return false;
  }
  return true;
}

Status InjectedError(StatusCode code, const char* site) {
  return Status(code, std::string("injected fault at ") + site);
}

void ApplyDelay(const Hit& hit) {
  if (hit.kind != Kind::kDelay) {
    return;
  }
  const uint64_t micros = hit.arg > 0 ? hit.arg : 200;
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

size_t ShortIoBudget(const Hit& hit, size_t size, size_t min_bytes) {
  size_t budget = hit.arg < size ? static_cast<size_t>(hit.arg) : size;
  if (budget < min_bytes) {
    budget = min_bytes < size ? min_bytes : size;
  }
  return budget;
}

void CorruptByte(const Hit& hit, uint8_t* data, size_t size) {
  if (size == 0) {
    return;
  }
  const uint64_t h = Mix(hit.site_seed ^ Mix(hit.fire_index + 1));
  data[h % size] ^= static_cast<uint8_t>(1u << ((h >> 32) % 8));
}

void CorruptFrameHeader(const Hit& hit, uint8_t* frame, size_t size) {
  if (size < 12) {
    return;
  }
  // Magic (0..3), version (4), reserved (6..7): corruption here is always
  // detected by the frame decoder. Byte 5 (type) and 8..11 (length) are
  // excluded — a flipped type can name another valid frame, and a flipped
  // length can stall as need-more instead of failing typed.
  static constexpr uint8_t kOffsets[] = {0, 1, 2, 3, 4, 6, 7};
  const uint64_t h = Mix(hit.site_seed ^ Mix(hit.fire_index + 1));
  frame[kOffsets[h % sizeof(kOffsets)]] ^=
      static_cast<uint8_t>(1u << ((h >> 32) % 8));
}

void Install(const FailpointSpec& spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Active& a = r.active[spec.name];
  a.spec = spec;
  a.site_seed = SiteSeed(r.seed, spec.name);
  a.evaluations = 0;
  a.fires = 0;
  PublishCount(r.active.size());
}

bool Remove(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const bool removed = r.active.erase(name) > 0;
  PublishCount(r.active.size());
  return removed;
}

void ClearAll() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.active.clear();
  PublishCount(0);
}

Status InstallFromSpecString(const std::string& spec) {
  std::vector<FailpointSpec> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim surrounding whitespace.
    const size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) {
      continue;
    }
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);

    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("failpoint entry needs name=prob:kind: '" +
                                     entry + "'");
    }
    FailpointSpec fp;
    fp.name = entry.substr(0, eq);
    std::vector<std::string> fields;
    for (size_t p = eq + 1; p <= entry.size();) {
      size_t colon = entry.find(':', p);
      if (colon == std::string::npos) {
        colon = entry.size();
      }
      fields.push_back(entry.substr(p, colon - p));
      p = colon + 1;
    }
    if (fields.size() < 2 || fields.size() > 4) {
      return Status::InvalidArgument(
          "failpoint entry needs prob:kind[:arg[:max]]: '" + entry + "'");
    }
    try {
      fp.probability = std::stod(fields[0]);
      if (fields.size() > 2) {
        fp.arg = std::stoull(fields[2]);
      }
      if (fields.size() > 3) {
        fp.max_fires = std::stoull(fields[3]);
      }
    } catch (...) {
      return Status::InvalidArgument("unparsable failpoint number in: '" +
                                     entry + "'");
    }
    if (fp.probability < 0.0 || fp.probability > 1.0) {
      return Status::InvalidArgument("failpoint probability outside [0,1]: '" +
                                     entry + "'");
    }
    if (!ParseKind(fields[1], &fp.kind)) {
      return Status::InvalidArgument("unknown failpoint kind '" + fields[1] +
                                     "' in: '" + entry + "'");
    }
    parsed.push_back(std::move(fp));
  }
  for (const FailpointSpec& fp : parsed) {
    Install(fp);
  }
  return Status::Ok();
}

void SetSeed(uint64_t seed) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.seed = seed;
  r.fire_counts.clear();
  for (auto& [name, a] : r.active) {
    a.site_seed = SiteSeed(seed, name);
    a.evaluations = 0;
    a.fires = 0;
  }
}

uint64_t FireCount(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.fire_counts.find(name);
  return it == r.fire_counts.end() ? 0 : it->second;
}

uint64_t TotalFires() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  uint64_t total = 0;
  for (const auto& [name, count] : r.fire_counts) {
    total += count;
  }
  return total;
}

void ResetCounters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.fire_counts.clear();
  for (auto& [name, a] : r.active) {
    a.evaluations = 0;
    a.fires = 0;
  }
}

size_t ActiveCount() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.active.size();
}

ScopedFailpoint::ScopedFailpoint(const std::string& name, double probability,
                                 Kind kind, uint64_t arg, uint64_t max_fires)
    : name_(name) {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.active.find(name);
    if (it != r.active.end()) {
      had_previous_ = true;
      previous_ = it->second.spec;
    }
    auto count_it = r.fire_counts.find(name);
    base_fires_ = count_it == r.fire_counts.end() ? 0 : count_it->second;
  }
  Install({name, probability, kind, arg, max_fires});
}

ScopedFailpoint::~ScopedFailpoint() {
  if (had_previous_) {
    Install(previous_);
  } else {
    Remove(name_);
  }
}

}  // namespace tpgnn::failpoint
