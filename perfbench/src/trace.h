#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (never
// inside the program), kept in a preallocated buffer, and written out when
// the run ends. Every per-layer metric is derived from these spans.

namespace perfbench {

enum class SpanName : uint16_t {
  kLoop,             // One traced measuring loop (the coverage base).
  kServeIngestBegin,
  kServeIngestEdge,
  kServeIngestScore,
  kServeIngestEnd,
  kServePump,        // InferenceEngine::ProcessPending; count = results.
  kCorePropagate,    // count = edges.
  kCoreExtract,      // count = edges.
  kCoreClassify,
  kNetIngestBatch,   // Client::IngestBatch send -> ack; count = events.
  kNetDrain,         // Client::DrainResults.
  kNetEncode,        // net::EncodeFrame; count = encoded bytes.
  kNetDecode,        // net::DecodeFrame; count = events.
  kTrainForward,
  kTrainBackward,
  kTrainStep,        // count = tape nodes acquired for the graph.
  kDataMakeDataset,
  kNumNames,
};

const char* SpanNameText(SpanName name);

struct Span {
  SpanName name = SpanName::kLoop;
  uint32_t parent = 0;  // Index + 1 of the parent span; 0 = none.
  uint64_t session = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool full() const { return spans_.size() >= spans_.capacity(); }

  // Opens a span and returns its handle (index + 1); 0 when the buffer is
  // full, in which case End ignores it.
  uint32_t Begin(SpanName name, uint64_t session = 0, uint32_t parent = 0) {
    if (full()) {
      return 0;
    }
    spans_.push_back({name, parent, session, NowNs(), 0, 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t handle, uint64_t count = 0) {
    if (handle == 0) {
      return;
    }
    Span& span = spans_[handle - 1];
    span.end_ns = NowNs();
    span.count = count;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Aggregates over spans of one name.
  struct Stats {
    uint64_t spans = 0;
    double total_ns = 0.0;
    double total_count = 0.0;
    std::vector<double> durations_ns;
    double mean_ns() const { return spans > 0 ? total_ns / spans : 0.0; }
  };
  Stats Collect(SpanName name) const;
  // Time covered by top-level spans (no parent) that lie inside a kLoop
  // span, divided by the total duration of kLoop spans.
  double Coverage() const;

  // Writes one CSV line per span: name,start_ns,end_ns,parent,session,count.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
