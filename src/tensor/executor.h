#ifndef TPGNN_TENSOR_EXECUTOR_H_
#define TPGNN_TENSOR_EXECUTOR_H_

#include <cstdint>

// Process-wide byte accounting for the per-fold scratch buffers
// (core::PropagationScratch): the high-water mark of the summed bytes of
// every live scratch, in relaxed atomics. The serving metric
// `arena_bytes_peak`, the soak harness's memory bound and the repo
// benchmark's `tensor.arena_kb_peak` read the peak (DESIGN.md §4.9).
//
// The header, the namespace and the "arena" names are those of the per-edge
// plan executor this accounting used to serve; they stay because the repo
// benchmark (perfbench/) includes this header and calls ArenaBytesPeak().

namespace tpgnn::tensor::plan {

// A scratch registers its bytes at construction and releases them at
// destruction.
void AddArenaBytes(uint64_t bytes);
void ReleaseArenaBytes(uint64_t bytes);

uint64_t ArenaBytesPeak();

}  // namespace tpgnn::tensor::plan

#endif  // TPGNN_TENSOR_EXECUTOR_H_
