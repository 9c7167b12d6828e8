#ifndef TPGNN_UTIL_LOGGING_H_
#define TPGNN_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

// Invariant-checking macros.
//
// CHECK-style macros are active in all build types (they do not depend on
// NDEBUG): a failed check indicates API misuse or a broken internal invariant
// and aborts after printing the failing condition and its source location.

namespace tpgnn {

namespace internal_logging {

// Accumulates the failure message and, on destruction, writes it to stderr
// as one line and aborts the process.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Swallows a fully-built ostream chain so CHECK can be used in expression
// position; operator& binds more loosely than operator<<.
class Voidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging

}  // namespace tpgnn

#define TPGNN_CHECK(condition)                                           \
  (condition) ? (void)0                                                  \
              : ::tpgnn::internal_logging::Voidify() &                   \
                    ::tpgnn::internal_logging::FatalLogMessage(          \
                        __FILE__, __LINE__, #condition)                  \
                        .stream()

#define TPGNN_CHECK_OP(op, a, b)                                         \
  TPGNN_CHECK((a)op(b)) << " (" << (a) << " vs " << (b) << ") "

#define TPGNN_CHECK_EQ(a, b) TPGNN_CHECK_OP(==, a, b)
#define TPGNN_CHECK_NE(a, b) TPGNN_CHECK_OP(!=, a, b)
#define TPGNN_CHECK_LT(a, b) TPGNN_CHECK_OP(<, a, b)
#define TPGNN_CHECK_LE(a, b) TPGNN_CHECK_OP(<=, a, b)
#define TPGNN_CHECK_GT(a, b) TPGNN_CHECK_OP(>, a, b)
#define TPGNN_CHECK_GE(a, b) TPGNN_CHECK_OP(>=, a, b)

#endif  // TPGNN_UTIL_LOGGING_H_
