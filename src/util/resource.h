#ifndef TPGNN_UTIL_RESOURCE_H_
#define TPGNN_UTIL_RESOURCE_H_

#include <cstdint>

// Process resource probe for the soak harness and serving metrics
// (DESIGN.md §4.9): the resident-set high-water mark from the kernel, used
// to assert that memory stays bounded over sustained runs. The call is
// cheap (one /proc read) but not hot-path cheap — it is meant for
// checkpoint-rate sampling, not per-event accounting.

namespace tpgnn::util {

// Peak resident set size in KiB (Linux: VmHWM from /proc/self/status — the
// kernel's own high-water mark, monotone over the process lifetime). 0 when
// the platform offers no probe — callers must treat 0 as "unknown", never
// as "no memory".
uint64_t PeakRssKb();

}  // namespace tpgnn::util

#endif  // TPGNN_UTIL_RESOURCE_H_
