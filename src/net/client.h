#ifndef TPGNN_NET_CLIENT_H_
#define TPGNN_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "serve/event.h"
#include "util/net.h"
#include "util/status.h"

// Blocking client for the TP-GNN wire protocol. One Client drives one TCP
// connection; it is not thread-safe (use one Client per thread — sessions
// are connection-affine anyway).
//
// Deadlines: every blocking call observes options.io_timeout_ms and fails
// with kDeadlineExceeded when the server does not answer in time. Connect()
// retries up to connect_retries times with a backoff and a per-attempt
// connect_timeout_ms deadline.
//
// Pipelining: IngestBatch carries Score events alongside Begin/Edge/End.
// Their SCORE_RESULT frames arrive asynchronously and are collected into an
// internal queue whenever the client reads the wire (TakeResults() hands
// them out; inflight_scores() counts requests still unanswered). Results of
// one connection arrive in request order.
//
// Backpressure: a kOverloaded return from IngestBatch means the server
// applied `*events_applied` events and shed the rest; IngestAll() wraps the
// retry loop (drain results -> resend the tail) and is the only copy of it:
// workload::DriveWire ships every wire stream through it. Reconnect: when a
// send hits a broken pipe and reconnect_on_broken_pipe is set, the client
// reconnects and retries that send once. Server-side session state survives
// (it lives in the engine, not the connection), but score results that were
// in flight on the dead connection are lost; inflight_scores() resets.

namespace tpgnn::net {

// What one IngestAll call got acked.
struct IngestCounts {
  uint64_t events_applied = 0;
  uint64_t scores_applied = 0;  // Score requests in acked prefixes.
  uint64_t overloads = 0;       // OVERLOADED replies absorbed.
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connect_timeout_ms = 2000;
  int connect_retries = 3;  // Total attempts per Connect() call.
  int retry_backoff_ms = 50;
  int io_timeout_ms = 5000;
  bool reconnect_on_broken_pipe = true;
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  // IngestAll slices streams into frames of at most this many events.
  size_t max_events_per_batch = 256;
};

class Client {
 public:
  explicit Client(const ClientOptions& options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect();
  void Close();
  bool connected() const { return fd_.valid(); }

  // Round-trips a PING.
  Status Ping();

  // Sends `events` as one INGEST_BATCH and waits for the response.
  // kOverloaded: the server applied *events_applied events and shed the
  // rest. Any other non-OK code: the batch aborted at *events_applied with
  // that event's error.
  Status IngestBatch(const std::vector<serve::Event>& events,
                     uint64_t* events_applied = nullptr);

  // Ships a whole event stream, slicing it into batches and absorbing
  // kOverloaded backpressure: on overload the client collects a score
  // result (draining the server) or backs off, and resends the unapplied
  // tail. Fails with kOverloaded only when no event has been applied for
  // io_timeout_ms. `*counts` (optional) receives what was acked, also on
  // failure.
  Status IngestAll(std::span<const serve::Event> events,
                   IngestCounts* counts = nullptr);

  // Synchronous score: sends a SCORE frame and blocks until its result
  // (all earlier pipelined results are collected first — the result of
  // this call is the last one in).
  Status Score(uint64_t session_id, int label, serve::ScoreResult* result);

  // Pipelined score request; the result arrives via TakeResults later.
  Status SendScore(uint64_t session_id, int label);

  // Blocks until every outstanding pipelined score has a result.
  Status DrainResults();

  // Moves all collected score results out, in arrival (= request) order.
  std::vector<serve::ScoreResult> TakeResults();
  size_t inflight_scores() const {
    return inflight_scores_ > 0 ? static_cast<size_t>(inflight_scores_) : 0;
  }

  // Fetches the server's metrics snapshot as JSON (the METRICS RPC).
  Status GetMetricsJson(std::string* json);

  // Model lifecycle admin (DESIGN.md §4.8). ModelLoad registers checkpoint
  // `path` on the server as inactive version `name`; ModelActivate runs one
  // MODEL_ACTIVATE verb (`fraction` is only read by kSetCandidate);
  // ModelStatus fetches the registry's StatusJson. All three block for the
  // correlated ack and surface the server's typed status.
  Status ModelLoad(const std::string& name, const std::string& path);
  Status ModelActivate(const std::string& name, ModelAdminMode mode,
                       double fraction = 0.0);
  Status ModelStatus(std::string* json);

  // Asks the server to drain and stop, waiting for its GOODBYE. Outstanding
  // score results are collected (graceful shutdown delivers them first).
  Status Shutdown();

  // Test hook: wrecks the underlying socket so the next call exercises the
  // broken-pipe reconnect path.
  void InjectBrokenPipeForTest();

 private:
  // Sends one frame; on a broken pipe, optionally reconnects and retries
  // the send once.
  Status SendFrame(const Frame& frame);
  // Reads one frame within the io deadline.
  Status ReadFrame(Frame* frame);
  // Reads frames until one of `type` arrives, collecting score results
  // along the way. ERROR frames surface as their typed status; an
  // unexpected GOODBYE fails with kFailedPrecondition. When waiting for an
  // INGEST_ACK, an OVERLOADED frame correlated to `ack_request_id` also
  // terminates the wait (the caller switches on frame->type).
  Status ReadUntil(FrameType type, Frame* frame, uint64_t ack_request_id = 0);
  void ResetStreamState();

  const ClientOptions options_;
  UniqueFd fd_;
  std::vector<uint8_t> in_;  // Unparsed received bytes.
  uint64_t next_request_id_ = 1;
  // Outstanding pipelined scores. Signed, and transiently negative on
  // purpose: the server may pump the engine mid-batch, so SCORE_RESULTs for
  // a batch's scores can arrive *before* the ack that tells the client how
  // many of them were accepted. The balance settles once the ack lands;
  // clamping the dip at zero instead would leak phantom in-flight scores
  // and wedge DrainResults (found by tests/net/chaos_test.cc).
  int64_t inflight_scores_ = 0;
  std::vector<serve::ScoreResult> results_;
};

}  // namespace tpgnn::net

#endif  // TPGNN_NET_CLIENT_H_
