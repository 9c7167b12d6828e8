#ifndef TPGNN_NN_CHECKPOINT_H_
#define TPGNN_NN_CHECKPOINT_H_

#include <map>
#include <string>

#include "nn/module.h"
#include "util/status.h"

// Plain-text model checkpoints: parameters are stored by their registered
// names, so loading verifies the architecture (name and shape) matches.
//
// Format (version 3; version-1 files — no `meta` block — and version-2
// files — no `crc32` trailer — still load):
//   tpgnn-params 3
//   meta <entry_count>                          (entry_count may be 0)
//   <key> <value ...>                           (one line per entry)
//   <parameter_count>
//   <name> <numel> <v_0> ... <v_{numel-1}>      (one line per parameter)
//   crc32 <8 lowercase hex digits>
//
// The metadata block carries free-form key/value strings (keys are single
// tokens, values run to the end of the line). It lets a consumer such as
// serve::InferenceEngine verify the producing configuration (hidden dim,
// extractor kind, ...) before parameters are loaded, failing with a clear
// Status instead of a shape mismatch mid-load. core/config.h provides the
// TpGnnConfig <-> metadata mapping.
//
// The crc32 trailer (IEEE polynomial) covers the *value region* — every
// byte from the parameter count line through the final parameter line.
// Loading a version-3 file verifies it before any value is parsed, so a
// flipped bit or torn tail anywhere in the region fails with kDataLoss
// instead of silently loading a perturbed model. Metadata stays outside
// the checksum: it is validated semantically by its consumers.
// ReadCheckpointMetadata deliberately skips the check — it is a cheap
// header-only pre-flight that never touches the payload.

namespace tpgnn::nn {

using CheckpointMetadata = std::map<std::string, std::string>;

// Saves parameters plus the given metadata block (`meta 0` when empty).
// Keys must be non-empty single tokens (no whitespace); values may contain
// spaces but no newlines. Always writes version 3 so every new checkpoint
// carries the integrity trailer.
Status SaveParameters(const Module& module, const std::string& path,
                      const CheckpointMetadata& metadata = {});

// Loads values into `module`'s existing parameters; fails if any stored
// name is missing or has a different element count (and vice versa).
Status LoadParameters(Module& module, const std::string& path);

// As above; additionally returns the metadata block in `*metadata` (empty
// for version-1 files). `metadata` may be null.
Status LoadParameters(Module& module, const std::string& path,
                      CheckpointMetadata* metadata);

// Reads only the header and metadata block — cheap pre-flight validation
// without touching the parameter payload. Version-1 files yield an empty
// map.
Status ReadCheckpointMetadata(const std::string& path,
                              CheckpointMetadata* metadata);

}  // namespace tpgnn::nn

#endif  // TPGNN_NN_CHECKPOINT_H_
