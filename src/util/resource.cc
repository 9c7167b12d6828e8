#include "util/resource.h"

#include <cstdio>
#include <cstring>

namespace tpgnn::util {

namespace {

// Reads one "Vm...: <n> kB" line out of /proc/self/status. Returns 0 when
// the file or the field is missing (non-Linux, restricted /proc).
uint64_t ReadStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  const size_t field_len = std::strlen(field);
  char line[256];
  uint64_t value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      unsigned long long kb = 0;
      if (std::sscanf(line + field_len + 1, "%llu", &kb) == 1) {
        value = static_cast<uint64_t>(kb);
      }
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

uint64_t PeakRssKb() { return ReadStatusKb("VmHWM"); }

}  // namespace tpgnn::util
