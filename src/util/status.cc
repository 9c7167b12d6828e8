#include "util/status.h"

namespace tpgnn {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  return std::string(CodeName(code_)) + ": " + message_;
}

}  // namespace tpgnn
