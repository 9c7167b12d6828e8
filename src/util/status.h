#ifndef TPGNN_UTIL_STATUS_H_
#define TPGNN_UTIL_STATUS_H_

#include <string>
#include <utility>

// Minimal Status/StatusOr for recoverable errors (configuration, I/O).
// Programming errors (shape mismatches, invariant violations) use the CHECK
// macros in util/logging.h instead and abort.

namespace tpgnn {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 3,
  kInternal = 4,
  // Backpressure: a bounded queue or resource cap is full and the caller
  // should retry after draining (see serve::InferenceEngine).
  kOverloaded = 5,
  // A deadline elapsed before the operation completed (client-side network
  // timeouts; see net::Client).
  kDeadlineExceeded = 6,
  // Unrecoverable data corruption or loss: a malformed, truncated, or
  // bit-flipped wire frame (see net/protocol.h). The stream that produced
  // it cannot be resynchronised and must be torn down.
  kDataLoss = 7,
};

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status Overloaded(std::string message) {
    return Status(StatusCode::kOverloaded, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace tpgnn

#endif  // TPGNN_UTIL_STATUS_H_
