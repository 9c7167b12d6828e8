#include "util/logging.h"

#include <cstring>

namespace tpgnn {
namespace internal_logging {

namespace {

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << Basename(file) << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace internal_logging
}  // namespace tpgnn
