#ifndef TPGNN_UTIL_FLAGS_H_
#define TPGNN_UTIL_FLAGS_H_

#include <cstdint>
#include <string>

// `--name=value` command-line flags for the example and bench binaries.
// There is no registry: each lookup scans argv, the first match wins, and
// anything else on the command line is ignored.

namespace tpgnn {

// Value of a `--name=value` flag, or `default_value` if absent.
inline std::string FlagValue(int argc, char** argv, const std::string& name,
                             const std::string& default_value = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return default_value;
}

// Integer value of a `--name=N` flag, or `default_value` if absent or
// empty; a non-numeric value throws (std::stoll).
inline int64_t FlagInt(int argc, char** argv, const std::string& name,
                       int64_t default_value) {
  const std::string value = FlagValue(argc, argv, name);
  return value.empty() ? default_value : std::stoll(value);
}

}  // namespace tpgnn

#endif  // TPGNN_UTIL_FLAGS_H_
