// LatencyHistogram bucketing and percentile estimation, and the Metrics
// snapshot plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/metrics.h"

namespace tpgnn::serve {
namespace {

TEST(LatencyHistogramTest, BucketAssignment) {
  LatencyHistogram histogram;
  histogram.Record(0.0);    // [0, 2) -> bucket 0.
  histogram.Record(1.5);    // [0, 2) -> bucket 0.
  histogram.Record(2.0);    // [2, 4) -> bucket 1.
  histogram.Record(3.9);    // [2, 4) -> bucket 1.
  histogram.Record(1000);   // [512, 1024) -> bucket 9.
  histogram.Record(1e12);   // Overflow -> last bucket.

  LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(LatencyHistogramTest, MeanAndPercentiles) {
  LatencyHistogram histogram;
  // 90 fast samples at ~100us (bucket 6: [64, 128)), 10 slow at ~5000us
  // (bucket 12: [4096, 8192)).
  for (int i = 0; i < 90; ++i) histogram.Record(100.0);
  for (int i = 0; i < 10; ++i) histogram.Record(5000.0);

  LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean_micros(), (90 * 100.0 + 10 * 5000.0) / 100.0, 1.0);
  // Percentile = upper edge of the crossing bucket.
  EXPECT_EQ(snap.PercentileMicros(0.5), 128.0);
  EXPECT_EQ(snap.PercentileMicros(0.9), 128.0);
  EXPECT_EQ(snap.PercentileMicros(0.95), 8192.0);
  EXPECT_EQ(snap.PercentileMicros(0.99), 8192.0);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram histogram;
  LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.mean_micros(), 0.0);
  EXPECT_EQ(snap.PercentileMicros(0.99), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(i % 512));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.Snap().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, SnapshotCarriesCountersAndSummarizes) {
  Metrics metrics;
  metrics.events_ingested.fetch_add(10);
  metrics.sessions_begun.fetch_add(2);
  metrics.scores_completed.fetch_add(3);
  metrics.state_refolds.fetch_add(1);
  metrics.state_rescales.fetch_add(5);
  metrics.score_latency.Record(100.0);

  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.events_ingested, 10u);
  EXPECT_EQ(snap.sessions_begun, 2u);
  EXPECT_EQ(snap.scores_completed, 3u);
  EXPECT_EQ(snap.state_refolds, 1u);
  EXPECT_EQ(snap.state_rescales, 5u);
  EXPECT_EQ(snap.score_latency.count, 1u);

  const std::string text = snap.ToString();
  EXPECT_NE(text.find("events=10"), std::string::npos) << text;
  EXPECT_NE(text.find("scores=3"), std::string::npos) << text;
  EXPECT_NE(text.find("rescales=5"), std::string::npos) << text;
}

// The JSON the METRICS RPC ships: every live counter reaches the snapshot
// and lands under "counters" with its exact value, histogram quantiles
// match the snapshot's own estimates, and the structure is balanced.
TEST(MetricsTest, ToJsonCarriesCountersAndQuantiles) {
  Metrics metrics;
  uint64_t value = 1000;
  for (const CounterField& f : kCounterFields) {
    (metrics.*f.live).fetch_add(value++);
  }
  for (int i = 0; i < 90; ++i) metrics.score_latency.Record(100.0);
  for (int i = 0; i < 10; ++i) metrics.score_latency.Record(5000.0);

  const MetricsSnapshot snap = metrics.Snapshot();
  const std::string json = metrics.ToJson();
  // Metrics::ToJson is exactly the snapshot's serialization.
  EXPECT_EQ(json, snap.ToJson());

  value = 1000;
  for (const CounterField& f : kCounterFields) {
    EXPECT_EQ(snap.*f.value, value) << f.key;
    const std::string expected =
        "\"" + std::string(f.key) + "\": " + std::to_string(value++);
    EXPECT_NE(json.find(expected), std::string::npos) << expected << "\n"
                                                      << json;
  }
  for (const char* expected : {"\"counters\"", "\"latency_us\"",
                               "\"score\"", "\"count\": 100"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected << "\n"
                                                      << json;
  }
  // The emitted quantiles are the snapshot's own estimates (128 and 8192
  // print the same through a stream as through ToJson).
  std::ostringstream quantiles;
  quantiles << "\"p50\": " << snap.score_latency.PercentileMicros(0.5);
  EXPECT_NE(json.find(quantiles.str()), std::string::npos)
      << quantiles.str() << "\n" << json;
  quantiles.str("");
  quantiles << "\"p99\": " << snap.score_latency.PercentileMicros(0.99);
  EXPECT_NE(json.find(quantiles.str()), std::string::npos)
      << quantiles.str() << "\n" << json;

  // Structurally sound: balanced braces, no trailing text.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// A snapshot with every counter, shadow double and histogram field
// distinct, so a roundtrip or merge that drops/swaps a field cannot pass by
// accident. It walks the metric tables, so a new row is covered without an
// edit here. The doubles need more than 6 significant digits, so they only
// survive a roundtrip printed in shortest round-trip form.
MetricsSnapshot DistinctSnapshot(uint64_t seed) {
  MetricsSnapshot snap;
  uint64_t v = seed;
  for (const CounterField& f : kCounterFields) {
    snap.*f.value = v++;
  }
  snap.shadow_delta_sum = static_cast<double>(v++) + 0.123456789;
  snap.shadow_delta_max = static_cast<double>(v++) * 1.2345678e-9;
  size_t bucket = seed % LatencyHistogram::kNumBuckets;
  for (const HistogramField& f : kHistogramFields) {
    LatencyHistogram::Snapshot& h = snap.*f.value;
    h.count = v;
    h.sum_micros = static_cast<double>(v) * 1234.5 + 0.25;
    h.buckets[bucket] = v;
    ++v;
    bucket = (bucket + 7) % LatencyHistogram::kNumBuckets;
  }
  return snap;
}

void ExpectSnapshotsEqual(const MetricsSnapshot& want,
                          const MetricsSnapshot& got) {
  for (const CounterField& f : kCounterFields) {
    EXPECT_EQ(want.*f.value, got.*f.value) << f.key;
  }
  EXPECT_EQ(want.shadow_delta_sum, got.shadow_delta_sum);
  EXPECT_EQ(want.shadow_delta_max, got.shadow_delta_max);
  for (const HistogramField& f : kHistogramFields) {
    EXPECT_EQ((want.*f.value).count, (got.*f.value).count) << f.key;
    EXPECT_EQ((want.*f.value).sum_micros, (got.*f.value).sum_micros) << f.key;
    EXPECT_EQ((want.*f.value).buckets, (got.*f.value).buckets) << f.key;
  }
}

TEST(MetricsJsonTest, ParseRecoversEveryFieldOfToJson) {
  const MetricsSnapshot original = DistinctSnapshot(17);
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(original.ToJson(), &parsed).ok());
  ExpectSnapshotsEqual(original, parsed);
}

TEST(MetricsJsonTest, ParseSkipsUnknownTrailingSections) {
  // The router splices a "cluster" object after "latency_us" before
  // re-emitting the merged payload; the parser must shrug it off.
  const MetricsSnapshot original = DistinctSnapshot(3);
  std::string json = original.ToJson();
  ASSERT_EQ(json.back(), '}');
  json.insert(json.size() - 1,
              ", \"cluster\": {\"backends_up\": 2, \"sessions_migrated\": 5}");
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(json, &parsed).ok());
  ExpectSnapshotsEqual(original, parsed);
}

TEST(MetricsJsonTest, ParseFailsTypedOnStructuralDamage) {
  const std::string good = DistinctSnapshot(5).ToJson();
  MetricsSnapshot scratch;

  EXPECT_EQ(ParseMetricsJson("{}", &scratch).code(), StatusCode::kDataLoss);
  EXPECT_EQ(ParseMetricsJson("not json at all", &scratch).code(),
            StatusCode::kDataLoss);

  // A renamed counter is a missing counter.
  std::string renamed = good;
  const size_t at = renamed.find("\"protocol_errors\"");
  ASSERT_NE(at, std::string::npos);
  renamed.replace(at, 17, "\"protocol_mishaps\"");
  EXPECT_EQ(ParseMetricsJson(renamed, &scratch).code(),
            StatusCode::kDataLoss);

  // Chopping off the histograms loses the latency section.
  const std::string truncated = good.substr(0, good.find("\"latency_us\""));
  EXPECT_EQ(ParseMetricsJson(truncated, &scratch).code(),
            StatusCode::kDataLoss);
}

// Every key is read from its own object. A histogram without "sum" must not
// borrow the next histogram's, and a counter missing from "counters" must
// not be read from a later block that has the same key, such as the
// router's spliced "cluster" block.
TEST(MetricsJsonTest, KeyMissingFromItsObjectIsNotReadFromALaterOne) {
  const std::string good = DistinctSnapshot(9).ToJson();
  MetricsSnapshot scratch;
  ASSERT_TRUE(ParseMetricsJson(good, &scratch).ok());

  std::string no_sum = good;
  const size_t ingest = no_sum.find("\"ingest\": {");
  ASSERT_NE(ingest, std::string::npos);
  const size_t sum = no_sum.find("\"sum\": ", ingest);
  ASSERT_LT(sum, no_sum.find("\"score\": {"));
  no_sum.erase(sum, no_sum.find(", ", sum) + 2 - sum);
  EXPECT_EQ(ParseMetricsJson(no_sum, &scratch).code(), StatusCode::kDataLoss);

  std::string no_counter = good;
  const size_t failed = no_counter.find("\"scores_failed\": ");
  ASSERT_NE(failed, std::string::npos);
  no_counter.erase(failed, no_counter.find(", ", failed) + 2 - failed);
  ASSERT_EQ(no_counter.back(), '}');
  no_counter.insert(
      no_counter.size() - 1,
      ", \"cluster\": {\"backends_up\": 2, \"scores_failed\": 7}");
  EXPECT_EQ(ParseMetricsJson(no_counter, &scratch).code(),
            StatusCode::kDataLoss);
}

TEST(MetricsJsonTest, MergeFromSumsCountersAndHistograms) {
  const MetricsSnapshot a = DistinctSnapshot(100);
  const MetricsSnapshot b = DistinctSnapshot(1000);
  // Both orders, so a kMax row that merely took one side cannot pass.
  for (const auto& [first, second] : {std::pair(a, b), std::pair(b, a)}) {
    MetricsSnapshot merged = first;
    merged.MergeFrom(second);
    for (const CounterField& f : kCounterFields) {
      const uint64_t want = f.merge == MergeKind::kMax
                                ? std::max(a.*f.value, b.*f.value)
                                : a.*f.value + b.*f.value;
      EXPECT_EQ(merged.*f.value, want) << f.key;
    }
    EXPECT_EQ(merged.shadow_delta_sum, first.shadow_delta_sum +
                                           second.shadow_delta_sum);
    EXPECT_EQ(merged.shadow_delta_max,
              std::max(a.shadow_delta_max, b.shadow_delta_max));
    for (const HistogramField& f : kHistogramFields) {
      const LatencyHistogram::Snapshot& x = first.*f.value;
      const LatencyHistogram::Snapshot& y = second.*f.value;
      const LatencyHistogram::Snapshot& m = merged.*f.value;
      EXPECT_EQ(m.count, x.count + y.count) << f.key;
      EXPECT_EQ(m.sum_micros, x.sum_micros + y.sum_micros) << f.key;
      for (size_t i = 0; i < m.buckets.size(); ++i) {
        EXPECT_EQ(m.buckets[i], x.buckets[i] + y.buckets[i])
            << f.key << " bucket " << i;
      }
    }
  }

  // Default snapshot is the identity element.
  MetricsSnapshot identity;
  identity.MergeFrom(a);
  ExpectSnapshotsEqual(a, identity);
}

TEST(MetricsJsonTest, MergeTakesMaxOfMemoryPeaksAndSumsCachedBytes) {
  // The router folds N backends: a cluster's peak is its worst single
  // process (max), while cached pool bytes are parked per process (sum).
  MetricsSnapshot a, b;
  a.pool_bytes_peak = 700;
  a.pool_bytes_cached = 40;
  a.arena_bytes_peak = 60;
  a.rss_peak_kb = 9000;
  b.pool_bytes_peak = 300;
  b.pool_bytes_cached = 25;
  b.arena_bytes_peak = 180;
  b.rss_peak_kb = 12000;

  MetricsSnapshot merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.pool_bytes_peak, 700u);
  EXPECT_EQ(merged.pool_bytes_cached, 65u);
  EXPECT_EQ(merged.arena_bytes_peak, 180u);
  EXPECT_EQ(merged.rss_peak_kb, 12000u);

  // Merge order must not matter for the maxes.
  MetricsSnapshot reversed = b;
  reversed.MergeFrom(a);
  EXPECT_EQ(reversed.pool_bytes_peak, merged.pool_bytes_peak);
  EXPECT_EQ(reversed.arena_bytes_peak, merged.arena_bytes_peak);
  EXPECT_EQ(reversed.rss_peak_kb, merged.rss_peak_kb);
  EXPECT_EQ(reversed.pool_bytes_cached, merged.pool_bytes_cached);
}

TEST(MetricsTest, UpdateResourcePeaksIsMonotoneAndSurvivesRoundtrip) {
  Metrics metrics;
  metrics.UpdateResourcePeaks();
  const MetricsSnapshot first = metrics.Snapshot();
  // On Linux the process certainly has a nonzero RSS high-water mark.
  EXPECT_GT(first.rss_peak_kb, 0u);

  metrics.UpdateResourcePeaks();
  const MetricsSnapshot second = metrics.Snapshot();
  EXPECT_GE(second.rss_peak_kb, first.rss_peak_kb);
  EXPECT_GE(second.pool_bytes_peak, first.pool_bytes_peak);
  EXPECT_GE(second.arena_bytes_peak, first.arena_bytes_peak);

  // The gauges ride the METRICS RPC like any counter.
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(second.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.rss_peak_kb, second.rss_peak_kb);
  EXPECT_EQ(parsed.pool_bytes_peak, second.pool_bytes_peak);
  EXPECT_EQ(parsed.pool_bytes_cached, second.pool_bytes_cached);
  EXPECT_EQ(parsed.arena_bytes_peak, second.arena_bytes_peak);
}

TEST(MetricsJsonTest, MergedPercentilesSpanTheUnionDistribution) {
  // 90 fast samples on one backend, 10 slow on another: the merged p50
  // must come from the fast bucket and the merged p95 from the slow one —
  // i.e. merging keeps raw buckets instead of averaging quantiles.
  MetricsSnapshot fast, slow;
  fast.score_latency.count = 90;
  fast.score_latency.sum_micros = 9000.0;
  fast.score_latency.buckets[6] = 90;  // [64, 128) us.
  slow.score_latency.count = 10;
  slow.score_latency.sum_micros = 50000.0;
  slow.score_latency.buckets[12] = 10;  // [4096, 8192) us.

  fast.MergeFrom(slow);
  EXPECT_EQ(fast.score_latency.count, 100u);
  EXPECT_EQ(fast.score_latency.PercentileMicros(0.5), 128.0);
  EXPECT_EQ(fast.score_latency.PercentileMicros(0.95), 8192.0);
}

// `json` with the value that follows the first `prefix` at or after `from`
// replaced by `token` (the value runs up to the next ',', '}' or ']').
std::string WithValue(std::string json, const std::string& prefix,
                      const std::string& token, size_t from = 0) {
  const size_t at = json.find(prefix, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << prefix << " in " << json;
    return json;
  }
  const size_t begin = at + prefix.size();
  return json.replace(begin, json.find_first_of(",}]", begin) - begin, token);
}

TEST(MetricsJsonTest, ParseRejectsMalformedNumbers) {
  const std::string good = DistinctSnapshot(9).ToJson();
  const size_t score_at = good.find("\"score\": {");
  ASSERT_NE(score_at, std::string::npos);
  MetricsSnapshot scratch;
  ASSERT_TRUE(ParseMetricsJson(good, &scratch).ok());

  // Counters and bucket counts are exact unsigned 64-bit integers: no
  // NaN, infinity, exponent, fraction, sign or value past 2^64 - 1.
  for (const char* token : {"nan", "inf", "1e30", "-1", "1.5", "0x10", "",
                            "18446744073709551616"}) {
    for (const auto& [prefix, from] :
         {std::pair<std::string, size_t>("\"protocol_errors\": ", 0),
          std::pair<std::string, size_t>("\"count\": ", score_at),
          std::pair<std::string, size_t>("\"buckets\": [", score_at)}) {
      const std::string bad = WithValue(good, prefix, token, from);
      EXPECT_EQ(ParseMetricsJson(bad, &scratch).code(), StatusCode::kDataLoss)
          << prefix << token;
    }
  }
  // Sums and the shadow doubles must be finite and non-negative.
  for (const char* token : {"nan", "inf", "-inf", "-1", "1e400", ""}) {
    for (const auto& [prefix, from] :
         {std::pair<std::string, size_t>("\"sum_abs_delta\": ", 0),
          std::pair<std::string, size_t>("\"max_abs_delta\": ", 0),
          std::pair<std::string, size_t>("\"sum\": ", score_at)}) {
      const std::string bad = WithValue(good, prefix, token, from);
      EXPECT_EQ(ParseMetricsJson(bad, &scratch).code(), StatusCode::kDataLoss)
          << prefix << token;
    }
  }
}

TEST(MetricsJsonTest, IntegersRoundTripExactlyPast2To53) {
  constexpr uint64_t kPast2To53 = (uint64_t{1} << 53) + 1;
  MetricsSnapshot original;
  original.events_ingested = kPast2To53;
  original.bytes_sent = std::numeric_limits<uint64_t>::max();
  original.e2e_latency.count = kPast2To53;
  original.e2e_latency.buckets[3] = kPast2To53;
  const std::string json = original.ToJson();
  EXPECT_NE(json.find("\"events_ingested\": 9007199254740993"),
            std::string::npos)
      << json;
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(json, &parsed).ok());
  ExpectSnapshotsEqual(original, parsed);
}

TEST(MetricsJsonTest, DoublesRoundTripExactly) {
  MetricsSnapshot original;
  original.score_latency.count = 3;
  original.score_latency.sum_micros = 1234567.25;
  original.shadow_delta_max = 1.2345678e-7;
  original.shadow_delta_sum = 0.1 + 0.2;  // 0.30000000000000004.
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(original.ToJson(), &parsed).ok());
  ExpectSnapshotsEqual(original, parsed);

  // A value exact in 6 significant digits keeps printf's %g spelling,
  // even where a shorter form exists ("1e+05").
  MetricsSnapshot short_values;
  short_values.ingest_latency.count = 4;
  short_values.ingest_latency.sum_micros = 100000.0;
  short_values.shadow_delta_max = 1e-7;
  const std::string json = short_values.ToJson();
  for (const char* expected : {"\"mean\": 25000", "\"sum\": 100000",
                               "\"max_abs_delta\": 1e-07"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected << "\n"
                                                      << json;
  }
}

// A backend payload damaged in transit (cut short, or any single byte
// changed) either still parses or fails typed, never anything else; under
// the sanitizers this also checks that the parser reads only inside the
// buffer.
TEST(MetricsJsonTest, DamagedPayloadParsesOrFailsTyped) {
  Metrics metrics;
  for (const CounterField& f : kCounterFields) {
    (metrics.*f.live).fetch_add(12345);
  }
  metrics.RecordShadowDelta(0.001953125);
  for (const HistogramField& f : kHistogramFields) {
    for (double micros : {0.5, 3.0, 700.0, 1e5}) {
      (metrics.*f.live).Record(micros);
    }
  }
  metrics.UpdateResourcePeaks();
  const std::string payload = metrics.ToJson();
  MetricsSnapshot scratch;
  ASSERT_TRUE(ParseMetricsJson(payload, &scratch).ok());

  auto expect_typed = [&](const std::string& damaged, const char* what,
                          size_t at) {
    const Status st = ParseMetricsJson(damaged, &scratch);
    EXPECT_TRUE(st.ok() || st.code() == StatusCode::kDataLoss)
        << what << " at byte " << at << ": " << st;
  };
  for (size_t len = 0; len < payload.size(); ++len) {
    expect_typed(payload.substr(0, len), "truncated", len);
  }
  for (size_t i = 0; i < payload.size(); ++i) {
    for (unsigned char flip : {0x01, 0x20, 0xFF}) {
      std::string damaged = payload;
      damaged[i] = static_cast<char>(damaged[i] ^ flip);
      expect_typed(damaged, "flipped", i);
    }
  }
}

}  // namespace
}  // namespace tpgnn::serve
