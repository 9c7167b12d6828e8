// Determinism and shape contracts of the streaming workload generator:
// same seed => byte-identical streams (across runs and across threads),
// different seeds => disjoint session ids, and MaterializeSession
// reproduces exactly the per-session content the stream emitted.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/event.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace tpgnn::workload {
namespace {

// Canonical byte serialization of one event, appended to *out. The
// determinism tests compare streams through this, so any field the
// generator controls participates.
void AppendEventBytes(const serve::Event& event, std::string* out) {
  auto put_u64 = [out](uint64_t v) {
    char bytes[8];
    std::memcpy(bytes, &v, sizeof(bytes));
    out->append(bytes, sizeof(bytes));
  };
  auto put_f64 = [&put_u64](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  };
  put_u64(static_cast<uint64_t>(event.kind));
  put_u64(event.session_id);
  put_f64(event.time);
  put_u64(static_cast<uint64_t>(event.num_nodes));
  put_u64(static_cast<uint64_t>(event.feature_dim));
  for (const serve::NodeInit& f : event.features) {
    put_u64(static_cast<uint64_t>(f.node));
    for (float v : f.features) {
      uint32_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      put_u64(bits);
    }
  }
  put_u64(static_cast<uint64_t>(event.src));
  put_u64(static_cast<uint64_t>(event.dst));
  put_f64(event.edge_time);
  put_u64(static_cast<uint64_t>(static_cast<int64_t>(event.label)));
}

// Pulls `count` events (or the whole stream if it is shorter) and returns
// the canonical byte serialization.
std::string StreamBytes(const WorkloadOptions& options, size_t count) {
  WorkloadGenerator gen(options);
  std::string bytes;
  serve::Event event;
  for (size_t i = 0; i < count && gen.Next(&event); ++i) {
    AppendEventBytes(event, &bytes);
  }
  return bytes;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

// The benchmark's input, pinned from one version to the next: the FNV-1a
// hash of the first 100,000 PaperMixProfile events' canonical bytes, for
// the seeds the engine_paper workload runs. The determinism tests below
// compare two runs of one build; this one fails when any change to the
// generator, a profile or Event moves a bit of the stream.
TEST(WorkloadGeneratorTest, PaperMixStreamMatchesGolden) {
  EXPECT_EQ(Fnv1a64(StreamBytes(PaperMixProfile(/*seed=*/1), 100000)),
            0x30584807f16e66e0ULL);
  EXPECT_EQ(Fnv1a64(StreamBytes(PaperMixProfile(/*seed=*/3), 100000)),
            0xbf8130e2d777ab45ULL);
}

TEST(WorkloadGeneratorTest, SameSeedSameStreamAcrossRuns) {
  const WorkloadOptions options = PaperMixProfile(/*seed=*/42);
  const std::string first = StreamBytes(options, 20000);
  const std::string second = StreamBytes(options, 20000);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(WorkloadGeneratorTest, SameSeedSameStreamAcrossThreads) {
  const WorkloadOptions options = OverloadWaveProfile(/*seed=*/7);
  const std::string reference = StreamBytes(options, 10000);
  constexpr int kThreads = 4;
  std::vector<std::string> streams(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { streams[static_cast<size_t>(t)] =
                                      StreamBytes(options, 10000); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(streams[static_cast<size_t>(t)], reference) << "thread " << t;
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsProduceDisjointSessionIds) {
  constexpr uint64_t kSessions = 5000;
  std::set<uint64_t> ids_a, ids_b;
  for (uint64_t i = 0; i < kSessions; ++i) {
    ids_a.insert(SessionId(/*seed=*/1, i));
    ids_b.insert(SessionId(/*seed=*/2, i));
  }
  // Unique within each stream (the id map is bijective per seed)...
  EXPECT_EQ(ids_a.size(), kSessions);
  EXPECT_EQ(ids_b.size(), kSessions);
  // ...and disjoint across seeds.
  for (uint64_t id : ids_a) {
    ASSERT_EQ(ids_b.count(id), 0u) << "id collision across seeds: " << id;
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsProduceDifferentStreams) {
  WorkloadOptions a = MiniSoakProfile(/*seed=*/3);
  WorkloadOptions b = MiniSoakProfile(/*seed=*/4);
  EXPECT_NE(StreamBytes(a, 2000), StreamBytes(b, 2000));
}

TEST(WorkloadGeneratorTest, MaterializeMatchesStreamedSessionContent) {
  WorkloadOptions options = MiniSoakProfile(/*seed=*/11);
  options.num_sessions = 200;
  WorkloadGenerator gen(options);

  // Collect every session's streamed content from the interleaved stream.
  struct Observed {
    uint64_t id = 0;
    int64_t num_nodes = 0;
    int64_t feature_dim = 0;
    std::vector<std::vector<float>> features;
    std::vector<MaterializedSession::Edge> edges;
    bool ended = false;
    int label = -1;
  };
  std::map<uint64_t, Observed> observed;  // index -> content.
  serve::Event event;
  uint64_t index = 0;
  while (gen.Next(&event, &index)) {
    Observed& o = observed[index];
    switch (event.kind) {
      case serve::Event::Kind::kBegin:
        o.id = event.session_id;
        o.num_nodes = event.num_nodes;
        o.feature_dim = event.feature_dim;
        for (const serve::NodeInit& f : event.features) {
          o.features.push_back(f.features);
        }
        break;
      case serve::Event::Kind::kEdge:
        o.edges.push_back({event.src, event.dst, event.edge_time});
        break;
      case serve::Event::Kind::kScore:
        o.label = event.label;
        break;
      case serve::Event::Kind::kEnd:
        o.ended = true;
        break;
    }
  }
  ASSERT_EQ(observed.size(), options.num_sessions);

  // A fresh generator (no stream state) must materialize the same content.
  WorkloadGenerator fresh(options);
  size_t abandoned = 0;
  for (const auto& [idx, o] : observed) {
    const MaterializedSession m = fresh.MaterializeSession(idx);
    EXPECT_EQ(m.session_id, o.id) << "session " << idx;
    EXPECT_EQ(m.num_nodes, o.num_nodes);
    EXPECT_EQ(m.feature_dim, o.feature_dim);
    ASSERT_EQ(m.features.size(), o.features.size());
    for (size_t n = 0; n < m.features.size(); ++n) {
      EXPECT_EQ(m.features[n], o.features[n]) << "node " << n;
    }
    ASSERT_EQ(m.edges.size(), o.edges.size()) << "session " << idx;
    for (size_t k = 0; k < m.edges.size(); ++k) {
      EXPECT_EQ(m.edges[k].src, o.edges[k].src);
      EXPECT_EQ(m.edges[k].dst, o.edges[k].dst);
      EXPECT_EQ(m.edges[k].time, o.edges[k].time);
    }
    EXPECT_EQ(m.abandoned, !o.ended) << "session " << idx;
    if (o.label >= 0) {
      EXPECT_EQ(m.label, o.label);
    }
    abandoned += m.abandoned ? 1u : 0u;
  }
  // The mini profile abandons ~10%; make sure both branches were exercised.
  EXPECT_GT(abandoned, 0u);
  EXPECT_LT(abandoned, observed.size());
}

TEST(WorkloadGeneratorTest, StreamClockIsMonotoneAndSessionsOrdered) {
  WorkloadOptions options = EvictionChurnProfile(/*seed=*/5);
  options.num_sessions = 500;
  options.max_open_sessions = 16;  // Force arrival delays past the cap.
  WorkloadGenerator gen(options);
  serve::Event event;
  double last_time = 0.0;
  std::map<uint64_t, serve::Event::Kind> last_kind;
  std::map<uint64_t, double> last_edge_time;
  // Per session: stream position of its Begin and its own events so far. A
  // session whose Begin..End window is longer than its own events had a
  // foreign event land inside it: sessions actually interleave.
  std::map<uint64_t, std::pair<size_t, size_t>> window;
  size_t position = 0;
  bool interleaved = false;
  while (gen.Next(&event)) {
    EXPECT_GE(event.time, last_time);
    last_time = event.time;
    auto& [begin_position, own_events] = window[event.session_id];
    if (event.kind == serve::Event::Kind::kBegin) {
      begin_position = position;
    }
    ++own_events;
    if (event.kind == serve::Event::Kind::kEnd) {
      interleaved = interleaved || position - begin_position + 1 > own_events;
    }
    ++position;
    const auto it = last_kind.find(event.session_id);
    if (event.kind == serve::Event::Kind::kBegin) {
      EXPECT_EQ(it, last_kind.end()) << "double Begin";
    } else {
      ASSERT_NE(it, last_kind.end()) << "event before Begin";
      EXPECT_NE(it->second, serve::Event::Kind::kEnd) << "event after End";
    }
    if (event.kind == serve::Event::Kind::kEdge) {
      EXPECT_GE(event.edge_time, last_edge_time[event.session_id]);
      last_edge_time[event.session_id] = event.edge_time;
    }
    last_kind[event.session_id] = event.kind;
  }
  EXPECT_TRUE(interleaved);
}

TEST(WorkloadGeneratorTest, BoundedMemoryUnderUnboundedStream) {
  // An unbounded stream must not accumulate state beyond the open-session
  // cap: sessions_started grows but the generator's footprint is the slots
  // vector, which we can only observe indirectly — pull a long prefix and
  // check the stream keeps producing from a fixed set of open sessions.
  WorkloadOptions options = PaperMixProfile(/*seed=*/9);
  options.max_open_sessions = 32;
  WorkloadGenerator gen(options);
  serve::Event event;
  std::set<uint64_t> open;
  size_t max_open = 0;
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(gen.Next(&event));
    if (event.kind == serve::Event::Kind::kBegin) {
      open.insert(event.session_id);
    } else if (event.kind == serve::Event::Kind::kEnd) {
      open.erase(event.session_id);
    }
    max_open = std::max(max_open, open.size());
  }
  // Abandoned sessions close generator slots without an End, so the set of
  // Begin-but-not-End ids can exceed the cap only by the abandoned ones
  // whose slots were reused; the cap itself binds concurrently *open*
  // generator slots. The coarse check: far more sessions started than the
  // cap, i.e. slots are being reused, not accumulated.
  EXPECT_GT(gen.sessions_started(), 1000u);
}

}  // namespace
}  // namespace tpgnn::workload
