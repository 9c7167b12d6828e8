#ifndef TPGNN_BENCH_BENCH_HOST_H_
#define TPGNN_BENCH_BENCH_HOST_H_

#include <sstream>
#include <string>
#include <thread>

#include "tensor/kernels.h"

// The host fields every serving-bench row carries (cores, the active SIMD
// kernel table, the build type and the compiler), so a re-recorded
// baseline can tell host drift from code drift. bench/CMakeLists.txt
// defines TPGNN_BENCH_BUILD_TYPE and TPGNN_BENCH_COMPILER for the serving
// benches.

namespace tpgnn::bench {

// The fields as a JSON object fragment, to splice into a row:
// "cores": 4, "simd": "avx2", "build_type": "Release", "compiler": "...".
inline std::string HostJsonFields() {
  std::ostringstream fields;
  fields << "\"cores\": " << std::thread::hardware_concurrency()
         << ", \"simd\": \""
         << tensor::SimdModeName(tensor::ActiveSimdMode())
         << "\", \"build_type\": \"" << TPGNN_BENCH_BUILD_TYPE
         << "\", \"compiler\": \"" << TPGNN_BENCH_COMPILER << "\"";
  return fields.str();
}

}  // namespace tpgnn::bench

#endif  // TPGNN_BENCH_BENCH_HOST_H_
