#include "serve/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "tensor/executor.h"
#include "util/buffer_pool.h"
#include "util/resource.h"

namespace tpgnn::serve {

namespace {

// Bucket index for a microsecond sample: floor(log2(micros)), clamped.
int BucketIndex(double micros) {
  if (!(micros >= 1.0)) {  // Also catches NaN.
    return 0;
  }
  const int idx = static_cast<int>(std::log2(micros));
  return idx >= LatencyHistogram::kNumBuckets
             ? LatencyHistogram::kNumBuckets - 1
             : idx;
}

// Shortest round-trip text of `v`. A value exact in 6 significant digits
// keeps printf's %g spelling, the payload's stable wire form.
std::string JsonDouble(double v) {
  char buf[32];
  auto end = std::to_chars(buf, std::end(buf), v, std::chars_format::general,
                           6).ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  if (back != v) {
    end = std::to_chars(buf, std::end(buf), v).ptr;
  }
  return std::string(buf, end);
}

// Targeted extraction over the emitter's JSON shape. Every lookup is bound
// to the object that holds it: `FindObject` locates `"key":` followed by an
// object that closes before `limit`, and `FindNumber` parses the value of a
// quoted key inside one such object. A key missing from its object is
// missing, even when a later object (the next histogram, the router's
// spliced "cluster" block) has one. Unknown keys are tolerated (skipped by
// not being asked for).
//
// ParseNumber reads one number at `*pos` (after optional spaces) that must
// run up to a ',', '}', ']' or space. An unsigned T takes only exact
// decimal integers, so nan, inf, -1, 1e30 or a value past 2^64 fails
// instead of being cast; a double must be finite and non-negative.
template <typename T>
bool ParseNumber(const std::string& json, size_t* pos, T* value) {
  const char* const end = json.data() + json.size();
  const size_t at =
      std::min(json.find_first_not_of(" \t\n\r", *pos), json.size());
  T parsed{};
  const auto [ptr, ec] = std::from_chars(json.data() + at, end, parsed);
  if (ec != std::errc() || ptr == end ||
      std::string_view(",}] \t\n\r").find(*ptr) == std::string_view::npos) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed) || parsed < 0.0) {
      return false;
    }
  }
  *value = parsed;
  *pos = static_cast<size_t>(ptr - json.data());
  return true;
}

// An object's extent in the payload: `open` is its '{', `close` the
// matching '}'.
struct ObjectSpan {
  size_t open = 0;
  size_t close = 0;
};

// The first `"key": {...}` at or after `from` whose object closes before
// `limit`.
bool FindObject(const std::string& json, const std::string& key, size_t from,
                size_t limit, ObjectSpan* span) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos || at + needle.size() >= limit) {
    return false;
  }
  const size_t open = json.find_first_not_of(" \t\n\r", at + needle.size());
  if (open >= limit || json[open] != '{') {
    return false;
  }
  int depth = 0;
  for (size_t i = open; i < limit; ++i) {
    if (json[i] == '{') {
      ++depth;
    } else if (json[i] == '}' && --depth == 0) {
      span->open = open;
      span->close = i;
      return true;
    }
  }
  return false;
}

template <typename T>
bool FindNumber(const std::string& json, const std::string& key,
                const ObjectSpan& object, T* value) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, object.open);
  size_t pos = at + needle.size();
  // The number ends at a delimiter, at the latest the object's '}'.
  return at != std::string::npos && pos < object.close &&
         ParseNumber(json, &pos, value);
}

bool ParseHistogram(const std::string& json, const std::string& name,
                    const ObjectSpan& latency,
                    LatencyHistogram::Snapshot* h) {
  ObjectSpan object;
  if (!FindObject(json, name, latency.open, latency.close, &object) ||
      !FindNumber(json, "count", object, &h->count) ||
      !FindNumber(json, "sum", object, &h->sum_micros)) {
    return false;
  }
  const size_t key = json.find("\"buckets\":", object.open);
  size_t pos = key < object.close ? json.find('[', key) : std::string::npos;
  for (uint64_t& bucket : h->buckets) {
    // Step over the '[' or ',' before each count.
    if (pos >= object.close || !ParseNumber(json, &++pos, &bucket)) {
      return false;
    }
  }
  return pos < object.close && json[pos] == ']';
}

}  // namespace

void LatencyHistogram::Record(double micros) {
  if (micros < 0.0 || std::isnan(micros)) {
    micros = 0.0;
  }
  buckets_[static_cast<size_t>(BucketIndex(micros))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(micros * 1e3),
                       std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-3;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  return snap;
}

double LatencyHistogram::Snapshot::PercentileMicros(double q) const {
  if (count == 0) {
    return 0.0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[static_cast<size_t>(i)];
    if (static_cast<double>(cumulative) >= target) {
      // Upper edge of bucket i: 2^(i+1) µs (bucket 0 covers [0, 2)).
      return std::ldexp(1.0, i + 1);
    }
  }
  return std::ldexp(1.0, kNumBuckets);
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::Since(
    const Snapshot& earlier) const {
  Snapshot window;
  window.count = count - earlier.count;
  window.sum_micros = sum_micros - earlier.sum_micros;
  for (size_t i = 0; i < buckets.size(); ++i) {
    window.buckets[i] = buckets[i] - earlier.buckets[i];
  }
  return window;
}

void Metrics::RecordShadowDelta(double abs_delta) {
  if (abs_delta < 0.0 || std::isnan(abs_delta)) {
    abs_delta = 0.0;
  }
  shadow_delta_sum_nanos.fetch_add(static_cast<uint64_t>(abs_delta * 1e9),
                                   std::memory_order_relaxed);
  // CAS max over raw double bits: for non-negative doubles the bit pattern
  // orders like the value.
  uint64_t bits;
  std::memcpy(&bits, &abs_delta, sizeof(bits));
  uint64_t seen = shadow_delta_max_bits.load(std::memory_order_relaxed);
  while (bits > seen && !shadow_delta_max_bits.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed)) {
  }
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream os;
  os << "events=" << events_ingested << " sessions=" << sessions_begun << "/"
     << sessions_ended << " evicted=" << sessions_evicted
     << " edges=" << edges_ingested << " scores=" << scores_completed << "/"
     << scores_failed << " overloads=" << overload_rejections
     << " refolds=" << state_refolds << " rescales=" << state_rescales
     << " rebases=" << version_rebases
     << " mixed_version=" << mixed_version_scores
     << " shadow=" << shadow_scores << "/" << shadow_failures
     << " score_us{p50=" <<
      score_latency.PercentileMicros(0.5)
     << " p95=" << score_latency.PercentileMicros(0.95)
     << " p99=" << score_latency.PercentileMicros(0.99) << "}";
  return os.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  for (const CounterField& f : kCounterFields) {
    os << (&f == kCounterFields ? "" : ", ") << '"' << f.key
       << "\": " << this->*f.value;
  }
  os << "}, \"shadow\": {\"sum_abs_delta\": " << JsonDouble(shadow_delta_sum)
     << ", \"max_abs_delta\": " << JsonDouble(shadow_delta_max)
     << "}, \"latency_us\": {";
  for (const HistogramField& f : kHistogramFields) {
    const LatencyHistogram::Snapshot& h = this->*f.value;
    os << (&f == kHistogramFields ? "" : ", ") << '"' << f.key
       << "\": {\"count\": " << h.count
       << ", \"mean\": " << JsonDouble(h.mean_micros())
       << ", \"sum\": " << JsonDouble(h.sum_micros)
       << ", \"p50\": " << JsonDouble(h.PercentileMicros(0.5))
       << ", \"p95\": " << JsonDouble(h.PercentileMicros(0.95))
       << ", \"p99\": " << JsonDouble(h.PercentileMicros(0.99))
       << ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      os << (i > 0 ? ", " : "") << h.buckets[i];
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const CounterField& f : kCounterFields) {
    uint64_t& into = this->*f.value;
    const uint64_t from = other.*f.value;
    into = f.merge == MergeKind::kMax ? std::max(into, from) : into + from;
  }
  shadow_delta_sum += other.shadow_delta_sum;
  shadow_delta_max = std::max(shadow_delta_max, other.shadow_delta_max);
  for (const HistogramField& f : kHistogramFields) {
    LatencyHistogram::Snapshot& into = this->*f.value;
    const LatencyHistogram::Snapshot& from = other.*f.value;
    into.count += from.count;
    into.sum_micros += from.sum_micros;
    for (size_t i = 0; i < into.buckets.size(); ++i) {
      into.buckets[i] += from.buckets[i];
    }
  }
}

Status ParseMetricsJson(const std::string& json, MetricsSnapshot* snap) {
  *snap = MetricsSnapshot();
  ObjectSpan counters;
  ObjectSpan latency;
  if (!FindObject(json, "counters", 0, json.size(), &counters) ||
      !FindObject(json, "latency_us", 0, json.size(), &latency)) {
    return Status::DataLoss("metrics JSON missing counters or latency_us");
  }
  for (const CounterField& f : kCounterFields) {
    if (!FindNumber(json, f.key, counters, &(snap->*f.value))) {
      return Status::DataLoss(std::string("metrics JSON bad counter ") + f.key);
    }
  }
  // The top-level "shadow" block precedes latency_us, which has a "shadow"
  // histogram of its own.
  ObjectSpan shadow;
  if (!FindObject(json, "shadow", 0, latency.open, &shadow) ||
      !FindNumber(json, "sum_abs_delta", shadow, &snap->shadow_delta_sum) ||
      !FindNumber(json, "max_abs_delta", shadow, &snap->shadow_delta_max)) {
    return Status::DataLoss("metrics JSON shadow block malformed");
  }
  for (const HistogramField& f : kHistogramFields) {
    if (!ParseHistogram(json, f.key, latency, &(snap->*f.value))) {
      return Status::DataLoss(std::string("metrics JSON bad histogram ") +
                              f.key);
    }
  }
  return Status::Ok();
}

void Metrics::UpdateResourcePeaks() {
  auto raise = [](std::atomic<uint64_t>& gauge, uint64_t reading) {
    uint64_t seen = gauge.load(std::memory_order_relaxed);
    while (reading > seen && !gauge.compare_exchange_weak(
                                 seen, reading, std::memory_order_relaxed)) {
    }
  };
  const util::BufferPoolStats pool = util::GetBufferPoolStats();
  raise(pool_bytes_peak, pool.bytes_peak);
  pool_bytes_cached.store(pool.bytes_cached, std::memory_order_relaxed);
  raise(arena_bytes_peak, tensor::plan::ArenaBytesPeak());
  raise(rss_peak_kb, util::PeakRssKb());
}

std::string Metrics::ToJson() const { return Snapshot().ToJson(); }

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snap;
  for (const CounterField& f : kCounterFields) {
    snap.*f.value = (this->*f.live).load(std::memory_order_relaxed);
  }
  snap.shadow_delta_sum = static_cast<double>(shadow_delta_sum_nanos.load(
                              std::memory_order_relaxed)) * 1e-9;
  const uint64_t bits = shadow_delta_max_bits.load(std::memory_order_relaxed);
  std::memcpy(&snap.shadow_delta_max, &bits, sizeof(bits));
  for (const HistogramField& f : kHistogramFields) {
    snap.*f.value = (this->*f.live).Snap();
  }
  return snap;
}

}  // namespace tpgnn::serve
