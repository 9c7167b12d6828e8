#include "net/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace tpgnn::net {

namespace {

size_t CountScores(std::span<const serve::Event> events, size_t limit) {
  size_t scores = 0;
  for (size_t i = 0; i < limit && i < events.size(); ++i) {
    if (events[i].kind == serve::Event::Kind::kScore) {
      ++scores;
    }
  }
  return scores;
}

}  // namespace

Client::Client(const ClientOptions& options) : options_(options) {}

Client::~Client() { Close(); }

Status Client::Connect() {
  Status last = Status::Internal("no connect attempt made");
  const int attempts = std::max(1, options_.connect_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry_backoff_ms));
    }
    // Injected connect failure: this attempt fails before touching the
    // network, and the surrounding retry loop carries on — with max_fires
    // below connect_retries, Connect still succeeds after injected flaps.
    failpoint::Hit hit;
    if (TPGNN_FAILPOINT("client.connect", &hit)) {
      if (hit.kind == failpoint::Kind::kDelay) {
        failpoint::ApplyDelay(hit);
      } else {
        last = failpoint::InjectedError(StatusCode::kInternal,
                                        "client.connect");
        continue;
      }
    }
    UniqueFd fd;
    last = ConnectTcp(options_.host, options_.port,
                      options_.connect_timeout_ms, &fd);
    if (last.ok()) {
      fd_ = std::move(fd);
      ResetStreamState();
      return Status::Ok();
    }
  }
  return last;
}

void Client::Close() {
  fd_.reset();
  ResetStreamState();
}

void Client::ResetStreamState() {
  in_.clear();
  // Results already collected stay; requests in flight on the old
  // connection will never be answered.
  inflight_scores_ = 0;
}

void Client::InjectBrokenPipeForTest() {
  if (fd_.valid()) {
    shutdown(fd_.get(), SHUT_RDWR);
  }
}

Status Client::SendFrame(const Frame& frame) {
  if (!connected()) {
    if (Status s = Connect(); !s.ok()) {
      return s;
    }
  }
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  // Injected wire corruption toward the server (header bytes only, so the
  // server always answers with a typed ERROR frame — protocol_errors then
  // counts injected fires exactly).
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("client.corrupt_frame", &hit)) {
    failpoint::CorruptFrameHeader(hit, wire.data(), wire.size());
  }
  Status s = SendAll(fd_.get(), wire.data(), wire.size(),
                     options_.io_timeout_ms);
  if (s.code() == StatusCode::kDataLoss && options_.reconnect_on_broken_pipe) {
    // Reconnect-once: the engine's session state lives server-side, so a
    // fresh connection can continue the stream (in-flight results of the
    // old connection are lost).
    Close();
    if (Status c = Connect(); !c.ok()) {
      return c;
    }
    s = SendAll(fd_.get(), wire.data(), wire.size(), options_.io_timeout_ms);
  }
  if (!s.ok()) {
    Close();
  }
  return s;
}

Status Client::ReadFrame(Frame* frame) {
  if (!connected()) {
    return Status::FailedPrecondition("not connected");
  }
  Stopwatch watch;
  uint8_t buf[64 * 1024];
  for (;;) {
    size_t consumed = 0;
    Status s = DecodeFrame(in_.data(), in_.size(), options_.max_payload_bytes,
                           frame, &consumed);
    if (!s.ok()) {
      Close();
      return s;
    }
    if (consumed > 0) {
      in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(consumed));
      return Status::Ok();
    }
    const double elapsed_ms = watch.ElapsedSeconds() * 1e3;
    const int left_ms =
        options_.io_timeout_ms - static_cast<int>(elapsed_ms);
    if (left_ms <= 0) {
      return Status::DeadlineExceeded(
          "no frame within " + std::to_string(options_.io_timeout_ms) +
          " ms");
    }
    size_t received = 0;
    s = RecvSome(fd_.get(), buf, sizeof(buf), left_ms, &received);
    if (!s.ok()) {
      if (s.code() != StatusCode::kDeadlineExceeded) {
        Close();
      }
      return s;
    }
    in_.insert(in_.end(), buf, buf + received);
  }
}

Status Client::ReadUntil(FrameType type, Frame* frame,
                         uint64_t ack_request_id) {
  for (;;) {
    if (Status s = ReadFrame(frame); !s.ok()) {
      return s;
    }
    if (frame->type == FrameType::kScoreResult) {
      // May dip below zero when results outrun their batch's ack; the ack's
      // events_applied credit restores the balance (see the field comment).
      inflight_scores_ -= static_cast<int64_t>(frame->results.size());
      results_.insert(results_.end(), frame->results.begin(),
                      frame->results.end());
      if (type == FrameType::kScoreResult) {
        return Status::Ok();
      }
      continue;
    }
    if (frame->type == type) {
      return Status::Ok();
    }
    // OVERLOADED correlated to the awaited INGEST_BATCH is a valid answer;
    // the caller inspects frame->type to tell the two apart. Uncorrelated
    // overloads (shed pipelined SendScores) fall through to the switch.
    if (type == FrameType::kIngestAck &&
        frame->type == FrameType::kOverloaded &&
        frame->request_id == ack_request_id) {
      return Status::Ok();
    }
    switch (frame->type) {
      case FrameType::kError: {
        Status failure(frame->status_code, frame->text);
        Close();
        return failure;
      }
      case FrameType::kGoodbye:
        Close();
        return Status::FailedPrecondition("server shut down mid-call");
      case FrameType::kOverloaded: {
        // An unsolicited overload can only answer a pipelined SendScore:
        // record the shed request as a failed result so accounting and
        // DrainResults still converge.
        if (inflight_scores_ > 0) {
          --inflight_scores_;
          serve::ScoreResult shed;
          shed.status = Status::Overloaded(frame->text);
          results_.push_back(std::move(shed));
        }
        continue;
      }
      default:
        Close();
        return Status::Internal(std::string("unexpected frame: ") +
                                FrameTypeName(frame->type));
    }
  }
}

Status Client::Ping() {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = next_request_id_++;
  if (Status s = SendFrame(ping); !s.ok()) {
    return s;
  }
  Frame pong;
  if (Status s = ReadUntil(FrameType::kPong, &pong); !s.ok()) {
    return s;
  }
  if (pong.request_id != ping.request_id) {
    Close();
    return Status::Internal("pong token mismatch");
  }
  return Status::Ok();
}

Status Client::IngestBatch(const std::vector<serve::Event>& events,
                           uint64_t* events_applied) {
  Frame batch;
  batch.type = FrameType::kIngestBatch;
  batch.request_id = next_request_id_++;
  batch.events = events;
  if (Status s = SendFrame(batch); !s.ok()) {
    return s;
  }
  // The response is either an INGEST_ACK or an OVERLOADED shed notice;
  // score results of earlier batches may interleave and are collected by
  // ReadUntil.
  Frame response;
  if (Status s =
          ReadUntil(FrameType::kIngestAck, &response, batch.request_id);
      !s.ok()) {
    return s;
  }
  if (response.request_id != batch.request_id) {
    Close();
    return Status::Internal("ingest ack correlation mismatch");
  }
  const uint64_t applied = response.events_applied;
  if (events_applied != nullptr) {
    *events_applied = applied;
  }
  inflight_scores_ +=
      static_cast<int64_t>(CountScores(events, static_cast<size_t>(applied)));
  if (response.type == FrameType::kOverloaded) {
    return Status::Overloaded(response.text.empty() ? "server overloaded"
                                                    : response.text);
  }
  if (response.status_code != StatusCode::kOk) {
    return Status(response.status_code, response.text);
  }
  return Status::Ok();
}

Status Client::IngestAll(std::span<const serve::Event> events,
                         IngestCounts* counts) {
  IngestCounts local;
  IngestCounts& acked = counts != nullptr ? *counts : local;
  acked = IngestCounts{};
  size_t pos = 0;
  Stopwatch since_progress;
  while (pos < events.size()) {
    const std::span<const serve::Event> slice = events.subspan(
        pos, std::min(options_.max_events_per_batch, events.size() - pos));
    uint64_t applied = 0;
    Status st = IngestBatch({slice.begin(), slice.end()}, &applied);
    pos += static_cast<size_t>(applied);
    acked.events_applied += applied;
    acked.scores_applied += CountScores(slice, static_cast<size_t>(applied));
    if (applied > 0) {
      since_progress.Restart();
    }
    if (st.ok()) {
      continue;
    }
    if (st.code() != StatusCode::kOverloaded) {
      return st;
    }
    ++acked.overloads;
    if (since_progress.ElapsedSeconds() * 1e3 > options_.io_timeout_ms) {
      return st;
    }
    // Shed load: give the server room by collecting a result if any are
    // outstanding, otherwise briefly back off.
    if (inflight_scores_ > 0) {
      Frame frame;
      if (Status s = ReadUntil(FrameType::kScoreResult, &frame); !s.ok()) {
        return s;
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return Status::Ok();
}

Status Client::SendScore(uint64_t session_id, int label) {
  Frame score;
  score.type = FrameType::kScore;
  score.request_id = next_request_id_++;
  score.session_id = session_id;
  score.label = label;
  if (Status s = SendFrame(score); !s.ok()) {
    return s;
  }
  ++inflight_scores_;
  return Status::Ok();
}

Status Client::DrainResults() {
  while (inflight_scores_ > 0) {
    Frame frame;
    if (Status s = ReadUntil(FrameType::kScoreResult, &frame); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status Client::Score(uint64_t session_id, int label,
                     serve::ScoreResult* result) {
  if (Status s = SendScore(session_id, label); !s.ok()) {
    return s;
  }
  if (Status s = DrainResults(); !s.ok()) {
    return s;
  }
  if (results_.empty()) {
    return Status::Internal("score produced no result");
  }
  // FIFO per connection: the request just sent is answered last.
  *result = std::move(results_.back());
  results_.pop_back();
  return result->status;
}

std::vector<serve::ScoreResult> Client::TakeResults() {
  std::vector<serve::ScoreResult> out;
  out.swap(results_);
  return out;
}

Status Client::GetMetricsJson(std::string* json) {
  Frame request;
  request.type = FrameType::kMetricsRequest;
  if (Status s = SendFrame(request); !s.ok()) {
    return s;
  }
  Frame response;
  if (Status s = ReadUntil(FrameType::kMetricsResponse, &response); !s.ok()) {
    return s;
  }
  *json = std::move(response.text);
  return Status::Ok();
}

Status Client::ModelLoad(const std::string& name, const std::string& path) {
  Frame request;
  request.type = FrameType::kModelLoad;
  request.request_id = next_request_id_++;
  request.name = name;
  request.text = path;
  if (Status s = SendFrame(request); !s.ok()) {
    return s;
  }
  Frame ack;
  if (Status s = ReadUntil(FrameType::kIngestAck, &ack, request.request_id);
      !s.ok()) {
    return s;
  }
  if (ack.request_id != request.request_id) {
    Close();
    return Status::Internal("model load ack correlation mismatch");
  }
  return Status(ack.status_code, ack.text);
}

Status Client::ModelActivate(const std::string& name, ModelAdminMode mode,
                             double fraction) {
  Frame request;
  request.type = FrameType::kModelActivate;
  request.request_id = next_request_id_++;
  request.name = name;
  request.mode = static_cast<uint8_t>(mode);
  request.fraction = fraction;
  if (Status s = SendFrame(request); !s.ok()) {
    return s;
  }
  Frame ack;
  if (Status s = ReadUntil(FrameType::kIngestAck, &ack, request.request_id);
      !s.ok()) {
    return s;
  }
  if (ack.request_id != request.request_id) {
    Close();
    return Status::Internal("model activate ack correlation mismatch");
  }
  return Status(ack.status_code, ack.text);
}

Status Client::ModelStatus(std::string* json) {
  Frame request;
  request.type = FrameType::kModelStatus;
  request.request_id = next_request_id_++;
  if (Status s = SendFrame(request); !s.ok()) {
    return s;
  }
  Frame info;
  if (Status s = ReadUntil(FrameType::kModelInfo, &info); !s.ok()) {
    return s;
  }
  if (info.request_id != request.request_id) {
    Close();
    return Status::Internal("model status correlation mismatch");
  }
  if (info.status_code != StatusCode::kOk) {
    return Status(info.status_code, info.text);
  }
  *json = std::move(info.text);
  return Status::Ok();
}

Status Client::Shutdown() {
  Frame request;
  request.type = FrameType::kShutdown;
  if (Status s = SendFrame(request); !s.ok()) {
    return s;
  }
  Frame goodbye;
  if (Status s = ReadUntil(FrameType::kGoodbye, &goodbye); !s.ok()) {
    return s;
  }
  Close();
  return Status::Ok();
}

}  // namespace tpgnn::net
