#include "tensor/executor.h"

#include <atomic>

namespace tpgnn::tensor::plan {

namespace {

std::atomic<uint64_t> g_arena_bytes_live{0};
std::atomic<uint64_t> g_arena_bytes_peak{0};

}  // namespace

void AddArenaBytes(uint64_t bytes) {
  const uint64_t live =
      g_arena_bytes_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = g_arena_bytes_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_arena_bytes_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void ReleaseArenaBytes(uint64_t bytes) {
  g_arena_bytes_live.fetch_sub(bytes, std::memory_order_relaxed);
}

uint64_t ArenaBytesPeak() {
  return g_arena_bytes_peak.load(std::memory_order_relaxed);
}

}  // namespace tpgnn::tensor::plan
