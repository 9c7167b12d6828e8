#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  static const char* const kNames[] = {
      "loop",
      "serve.ingest.begin",
      "serve.ingest.edge",
      "serve.ingest.score",
      "serve.ingest.end",
      "serve.pump",
      "core.propagate",
      "core.extract",
      "core.classify",
      "net.ingest_batch",
      "net.drain",
      "net.encode",
      "net.decode",
      "train.forward",
      "train.backward",
      "train.step",
      "data.make_dataset",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kNumNames));
  return kNames[static_cast<size_t>(name)];
}

Tracer::Stats Tracer::Collect(SpanName name) const {
  Stats stats;
  for (const Span& span : spans_) {
    if (span.name != name || span.end_ns == 0) {
      continue;
    }
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    ++stats.spans;
    stats.total_ns += ns;
    stats.total_count += static_cast<double>(span.count);
    stats.durations_ns.push_back(ns);
  }
  return stats;
}

double Tracer::Coverage() const {
  std::vector<const Span*> loops;
  double loop_ns = 0.0;
  for (const Span& span : spans_) {
    if (span.name == SpanName::kLoop && span.end_ns != 0) {
      loops.push_back(&span);
      loop_ns += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  double covered_ns = 0.0;
  for (const Span& span : spans_) {
    if (span.name == SpanName::kLoop || span.parent != 0 || span.end_ns == 0) {
      continue;
    }
    for (const Span* loop : loops) {
      if (span.start_ns >= loop->start_ns && span.end_ns <= loop->end_ns) {
        covered_ns += static_cast<double>(span.end_ns - span.start_ns);
        break;
      }
    }
  }
  return loop_ns > 0.0 ? covered_ns / loop_ns : 0.0;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "name,start_ns,end_ns,parent,session,count\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%s,%lld,%lld,%u,%llu,%llu\n", SpanNameText(span.name),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.session),
                 static_cast<unsigned long long>(span.count));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
