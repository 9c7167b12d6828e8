// Full-range parity sweep of the transcendental kernel maps: all 2^32 float
// bit patterns through the four maps, the scalar table against each
// supported ISA table (tensor/kernels.h, testing/map_sweep.h). It takes about
// ten minutes of one core, so it is its own program rather than a ctest
// (tier-1 runs every 1021st pattern), and it splits the range across the
// machine's hardware threads. Prints one line per table; exits nonzero on
// any mismatch.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "testing/map_sweep.h"

int main() {
  using tpgnn::tensor::Kernels;
  using tpgnn::tensor::SweepResult;
  std::vector<const Kernels*> tables;
  if (tpgnn::tensor::internal::Avx2Supported()) {
    tables.push_back(&tpgnn::tensor::internal::Avx2Kernels());
  }
  if (tpgnn::tensor::internal::NeonSupported()) {
    tables.push_back(&tpgnn::tensor::internal::NeonKernels());
  }
  if (tables.empty()) {
    std::printf("no ISA table on this build and CPU: nothing to compare\n");
    return 0;
  }
  const uint64_t kRange = uint64_t{1} << 32;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  bool ok = true;
  for (const Kernels* table : tables) {
    std::vector<SweepResult> parts(threads);
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        parts[i] = tpgnn::tensor::SweepMaps(
            tpgnn::tensor::ScalarKernels(), *table, kRange * i / threads,
            kRange * (i + 1) / threads, 1);
      });
    }
    for (std::thread& worker : workers) worker.join();
    SweepResult total;
    for (const SweepResult& part : parts) {
      if (part.mismatches > 0 && total.mismatches == 0) {
        total.first_mismatch = part.first_mismatch;
      }
      total.inputs += part.inputs;
      total.mismatches += part.mismatches;
    }
    std::printf("%s vs scalar: %llu inputs x %d maps, %llu mismatches",
                table->name, static_cast<unsigned long long>(total.inputs),
                tpgnn::tensor::kNumMaps,
                static_cast<unsigned long long>(total.mismatches));
    if (total.mismatches > 0) {
      std::printf(", first at input bits 0x%08x", total.first_mismatch);
      ok = false;
    }
    std::printf("\n");
  }
  return ok ? 0 : 1;
}
