#include "workload/driver.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <thread>
#include <utility>

#include "util/stopwatch.h"

namespace tpgnn::workload {

namespace {

void RecordError(const Status& status, LoadReport* report) {
  if (report->errors++ == 0) {
    report->first_error = status.ToString();
  }
}

// One connection's share of a DriveWire run. Results of one connection
// arrive in request order, so the send time of each acked score is matched
// FIFO to the next result collected.
void DriveConnection(const net::ClientOptions& endpoint,
                     std::span<const serve::Event> events,
                     const Stopwatch& clock,
                     serve::LatencyHistogram* ingest_latency,
                     serve::LatencyHistogram* score_latency,
                     LoadReport* report) {
  net::Client client(endpoint);
  Status status = client.Connect();
  std::deque<double> sent_micros;
  auto collect = [&] {
    const double now = clock.ElapsedMicros();
    for (serve::ScoreResult& result : client.TakeResults()) {
      if (!sent_micros.empty()) {
        score_latency->Record(now - sent_micros.front());
        sent_micros.pop_front();
      }
      report->results.push_back(std::move(result));
    }
  };
  const size_t batch = std::max<size_t>(1, endpoint.max_events_per_batch);
  for (size_t pos = 0; status.ok() && pos < events.size(); pos += batch) {
    net::IngestCounts acked;
    const double sent = clock.ElapsedMicros();
    status = client.IngestAll(
        events.subspan(pos, std::min(batch, events.size() - pos)), &acked);
    ingest_latency->Record(clock.ElapsedMicros() - sent);
    report->events_applied += acked.events_applied;
    report->scores_acked += acked.scores_applied;
    report->overloads += acked.overloads;
    sent_micros.insert(sent_micros.end(), acked.scores_applied, sent);
    collect();
  }
  if (status.ok()) {
    status = client.DrainResults();
  }
  collect();
  if (!status.ok()) {
    RecordError(status, report);
  }
}

}  // namespace

size_t LoadReport::scores_ok() const {
  return static_cast<size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const serve::ScoreResult& r) { return r.status.ok(); }));
}

double LoadReport::events_per_second() const {
  return wall_seconds > 0.0 ? events_applied / wall_seconds : 0.0;
}

LoadReport DriveEngine(serve::InferenceEngine& engine,
                       std::span<const serve::Event> events) {
  const serve::MetricsSnapshot before = engine.metrics().Snapshot();
  LoadReport report;
  Stopwatch wall;
  for (const serve::Event& event : events) {
    Status status = engine.Ingest(event);
    while (status.code() == StatusCode::kOverloaded) {
      ++report.overloads;
      engine.ProcessPending(&report.results);
      status = engine.Ingest(event);
    }
    if (!status.ok()) {
      RecordError(status, &report);
      continue;
    }
    ++report.events_applied;
    if (event.kind == serve::Event::Kind::kScore) {
      ++report.scores_acked;
    }
    if (engine.pending_scores() >= engine.options().max_batch) {
      engine.ProcessPending(&report.results);
    }
  }
  engine.Flush(&report.results);
  report.wall_seconds = wall.ElapsedSeconds();
  const serve::MetricsSnapshot after = engine.metrics().Snapshot();
  report.ingest_latency = after.ingest_latency.Since(before.ingest_latency);
  report.score_latency = after.e2e_latency.Since(before.e2e_latency);
  return report;
}

LoadReport DriveWire(const net::ClientOptions& endpoint,
                     std::span<const serve::Event> events,
                     size_t connections) {
  connections = std::max<size_t>(1, connections);
  std::vector<std::vector<serve::Event>> shares(connections);
  for (const serve::Event& event : events) {
    shares[event.session_id % connections].push_back(event);
  }
  std::vector<LoadReport> partial(connections);
  serve::LatencyHistogram ingest_latency;
  serve::LatencyHistogram score_latency;
  Stopwatch clock;
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(DriveConnection, std::cref(endpoint),
                         std::span<const serve::Event>(shares[c]),
                         std::cref(clock), &ingest_latency, &score_latency,
                         &partial[c]);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  LoadReport report;
  report.wall_seconds = clock.ElapsedSeconds();
  for (LoadReport& part : partial) {
    report.events_applied += part.events_applied;
    report.scores_acked += part.scores_acked;
    report.overloads += part.overloads;
    if (part.errors > 0 && report.errors == 0) {
      report.first_error = std::move(part.first_error);
    }
    report.errors += part.errors;
    std::move(part.results.begin(), part.results.end(),
              std::back_inserter(report.results));
  }
  report.ingest_latency = ingest_latency.Snap();
  report.score_latency = score_latency.Snap();
  return report;
}

}  // namespace tpgnn::workload
