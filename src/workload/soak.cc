#include "workload/soak.h"

#include <cstring>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "graph/temporal_graph.h"
#include "serve/parity_oracle.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace tpgnn::workload {

namespace {

// Deterministic parity sampling: a pure function of the session id, so the
// sampled set is identical across runs and independent of scheduling.
bool SampledForParity(uint64_t session_id, double rate) {
  if (rate <= 0.0) {
    return false;
  }
  if (rate >= 1.0) {
    return true;
  }
  const uint64_t salt = 0x7061726974792121ULL;  // "parity!!"
  const uint64_t u = SplitMix64(session_id ^ salt);
  return static_cast<double>(u >> 11) * 0x1.0p-53 < rate;
}

struct ParityPending {
  uint64_t session_index = 0;
  int64_t edges_scored = 0;
  float logit = 0.0f;
};

}  // namespace

SoakReport RunSoak(const SoakOptions& options) {
  TPGNN_CHECK_GE(options.checkpoint_every_events, 1u);
  SoakReport report;

  const uint64_t fires_before = failpoint::TotalFires();
  if (!options.failpoint_spec.empty()) {
    const Status fp_status =
        failpoint::InstallFromSpecString(options.failpoint_spec);
    TPGNN_CHECK(fp_status.ok()) << fp_status.ToString();
    failpoint::SetSeed(options.failpoint_seed);
  }

  serve::InferenceEngine engine(options.config, options.model_seed,
                                options.engine);
  WorkloadGenerator generator(options.workload);
  Stopwatch wall;

  // Parity machinery: sampled live sessions (id -> index), completed scores
  // awaiting offline verification, and ended ids whose tracking is dropped
  // at the next checkpoint (after their queued scores have drained).
  std::unordered_map<uint64_t, uint64_t> tracked;
  std::vector<ParityPending> parity_queue;
  std::deque<uint64_t> ended_tracked;

  std::vector<serve::ScoreResult> results;
  auto handle_results = [&] {
    for (const serve::ScoreResult& r : results) {
      if (!r.status.ok()) {
        continue;
      }
      const auto it = tracked.find(r.session_id);
      if (it == tracked.end()) {
        continue;
      }
      if (parity_queue.size() < options.max_parity_checks_per_checkpoint) {
        parity_queue.push_back({it->second, r.edges_scored, r.logit});
      } else {
        ++report.parity_skipped;
      }
    }
    results.clear();
  };

  // Memory baselines, captured at the first checkpoint past warmup.
  bool baselines_set = false;
  uint64_t pool_baseline = 0, arena_baseline = 0, rss_baseline = 0;
  // One violation line per SLO, at first breach, instead of one per
  // checkpoint thereafter.
  bool slo_breached[3] = {false, false, false};

  auto violation = [&](const std::string& text) {
    report.violations.push_back(text);
  };

  auto checkpoint = [&] {
    engine.Flush(&results);
    handle_results();
    serve::Metrics& metrics = engine.mutable_metrics();
    metrics.UpdateResourcePeaks();
    const serve::MetricsSnapshot snap = metrics.Snapshot();
    const uint64_t resident = engine.resident_sessions();

    // Exact accounting: every begun session is ended, evicted, or resident.
    // Flush drained all pins, so no deferred End is outstanding.
    if (snap.sessions_begun !=
        snap.sessions_ended + snap.sessions_evicted + resident) {
      std::ostringstream os;
      os << "accounting: begun=" << snap.sessions_begun
         << " != ended=" << snap.sessions_ended
         << " + evicted=" << snap.sessions_evicted
         << " + resident=" << resident << " at event " << report.events;
      violation(os.str());
    }

    // Bounded memory after warmup: no monotone growth of any high-water
    // mark beyond its declared slack.
    if (!baselines_set && report.events >= options.warmup_events) {
      baselines_set = true;
      pool_baseline = snap.pool_bytes_peak;
      arena_baseline = snap.arena_bytes_peak;
      rss_baseline = snap.rss_peak_kb;
    } else if (baselines_set) {
      const struct {
        const char* name;
        uint64_t peak;
        uint64_t baseline;
        double slack;
        uint64_t headroom;
      } bounds[] = {
          {"pool_bytes_peak", snap.pool_bytes_peak, pool_baseline,
           options.pool_slack, options.pool_headroom_bytes},
          {"arena_bytes_peak", snap.arena_bytes_peak, arena_baseline,
           options.arena_slack, options.arena_headroom_bytes},
          {"rss_peak_kb", snap.rss_peak_kb, rss_baseline, options.rss_slack,
           options.rss_headroom_kb},
      };
      for (const auto& b : bounds) {
        const double limit = static_cast<double>(b.baseline) *
                                 (1.0 + b.slack) +
                             static_cast<double>(b.headroom);
        if (static_cast<double>(b.peak) > limit) {
          std::ostringstream os;
          os << "memory: " << b.name << "=" << b.peak
             << " exceeds warmup baseline " << b.baseline << " + "
             << static_cast<int>(b.slack * 100) << "% slack + " << b.headroom
             << " headroom at event " << report.events;
          violation(os.str());
        }
      }
    }

    // Latency SLOs over the cumulative histograms.
    const struct {
      int idx;
      const char* name;
      double p99;
      double slo;
    } slos[] = {
        {0, "ingest", snap.ingest_latency.PercentileMicros(0.99),
         options.slos.ingest_p99_us},
        {1, "score", snap.score_latency.PercentileMicros(0.99),
         options.slos.score_p99_us},
        {2, "e2e", snap.e2e_latency.PercentileMicros(0.99),
         options.slos.e2e_p99_us},
    };
    for (const auto& s : slos) {
      if (s.slo > 0.0 && s.p99 > s.slo && !slo_breached[s.idx]) {
        slo_breached[s.idx] = true;
        std::ostringstream os;
        os << "slo: " << s.name << " p99=" << s.p99 << "us exceeds "
           << s.slo << "us at event " << report.events;
        violation(os.str());
      }
    }

    // Offline parity over the sampled completed scores.
    for (const ParityPending& p : parity_queue) {
      const MaterializedSession session =
          generator.MaterializeSession(p.session_index);
      if (p.edges_scored < 0 ||
          static_cast<size_t>(p.edges_scored) > session.edges.size()) {
        std::ostringstream os;
        os << "parity: session " << p.session_index << " scored "
           << p.edges_scored << " edges but materializes only "
           << session.edges.size();
        violation(os.str());
        ++report.parity_mismatches;
        ++report.parity_checks;
        continue;
      }
      graph::TemporalGraph prefix(session.num_nodes, session.feature_dim);
      for (int64_t node = 0; node < session.num_nodes; ++node) {
        prefix.SetNodeFeature(node,
                              session.features[static_cast<size_t>(node)]);
      }
      for (int64_t k = 0; k < p.edges_scored; ++k) {
        const MaterializedSession::Edge& e =
            session.edges[static_cast<size_t>(k)];
        prefix.AddEdge(e.src, e.dst, e.time);
      }
      const float offline = serve::OfflineLogit(engine.model(), prefix);
      ++report.parity_checks;
      if (std::memcmp(&offline, &p.logit, sizeof(float)) != 0) {
        ++report.parity_mismatches;
        std::ostringstream os;
        os << "parity: session " << p.session_index << " at "
           << p.edges_scored << " edges served " << p.logit << " offline "
           << offline;
        violation(os.str());
      }
    }
    parity_queue.clear();
    // Ended sampled sessions have no more scores in flight post-Flush.
    while (!ended_tracked.empty()) {
      tracked.erase(ended_tracked.front());
      ended_tracked.pop_front();
    }

    SoakCheckpoint cp;
    cp.events = report.events;
    cp.sessions_begun = snap.sessions_begun;
    cp.scores_completed = snap.scores_completed;
    cp.resident_sessions = resident;
    cp.pool_bytes_peak = snap.pool_bytes_peak;
    cp.arena_bytes_peak = snap.arena_bytes_peak;
    cp.rss_peak_kb = snap.rss_peak_kb;
    cp.wall_seconds = wall.ElapsedSeconds();
    cp.parity_checks = report.parity_checks;
    cp.parity_mismatches = report.parity_mismatches;
    cp.violations = report.violations.size();
    report.checkpoints.push_back(cp);
    if (options.on_checkpoint) {
      options.on_checkpoint(cp);
    }
  };

  const bool unbounded = options.workload.num_sessions == 0;
  serve::Event event;
  uint64_t session_index = 0;
  while (true) {
    if (unbounded &&
        generator.sessions_started() >= options.min_sessions &&
        wall.ElapsedSeconds() >= options.min_wall_seconds) {
      break;
    }
    if (!generator.Next(&event, &session_index)) {
      break;
    }
    const bool is_begin = event.kind == serve::Event::Kind::kBegin;
    if (is_begin &&
        SampledForParity(event.session_id, options.parity_sample_rate)) {
      if (tracked.size() < options.max_tracked_parity_sessions) {
        tracked.emplace(event.session_id, session_index);
      } else {
        ++report.parity_skipped;
      }
    }
    if (event.kind == serve::Event::Kind::kEnd &&
        tracked.count(event.session_id) > 0) {
      ended_tracked.push_back(event.session_id);
    }

    Status status = engine.Ingest(event);
    for (int retry = 0;
         status.code() == StatusCode::kOverloaded &&
         retry < options.max_overload_retries;
         ++retry) {
      engine.ProcessPending(&results);
      handle_results();
      status = engine.Ingest(event);
    }
    if (status.code() == StatusCode::kOverloaded) {
      ++report.events_shed;
      if (is_begin) {
        tracked.erase(event.session_id);
      }
    } else if (!status.ok()) {
      // Injected faults and the kNotFound fallout of a shed Begin.
      ++report.events_rejected;
      if (is_begin) {
        tracked.erase(event.session_id);
      }
    }
    ++report.events;

    if (engine.pending_scores() >= engine.options().max_batch) {
      engine.ProcessPending(&results);
      handle_results();
    }
    if (report.events % options.checkpoint_every_events == 0) {
      checkpoint();
    }
  }

  checkpoint();  // Final: flush, verify, and record the end state.
  report.sessions_started = generator.sessions_started();
  report.wall_seconds = wall.ElapsedSeconds();
  report.final_metrics = engine.mutable_metrics().Snapshot();
  report.scores_completed = report.final_metrics.scores_completed;
  report.scores_failed = report.final_metrics.scores_failed;
  report.failpoint_fires = failpoint::TotalFires() - fires_before;
  if (!options.failpoint_spec.empty()) {
    failpoint::ClearAll();
  }
  return report;
}

}  // namespace tpgnn::workload
