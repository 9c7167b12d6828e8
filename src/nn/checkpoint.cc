#include "nn/checkpoint.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/failpoint.h"

namespace tpgnn::nn {

namespace {

constexpr char kMagic[] = "tpgnn-params";
constexpr int kVersionNoMeta = 1;
constexpr int kVersionMeta = 2;
constexpr int kVersionCrc = 3;

// CRC32 (IEEE 802.3 reflected polynomial) over the checkpoint's value
// region. Table-based; the table is built once on first use.
uint32_t Crc32(const char* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

// Reads the "<magic> <version>" header and, for versioned files that carry
// one (v2, v3), the metadata block, leaving the stream positioned at the
// parameter count. Reports the parsed version via `*version_out`.
Status ReadHeader(std::istream& is, const std::string& path,
                  CheckpointMetadata* metadata, int* version_out) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic) {
    return Status::InvalidArgument("not a tpgnn-params file: " + path);
  }
  if (version != kVersionNoMeta && version != kVersionMeta &&
      version != kVersionCrc) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version) + ": " + path);
  }
  *version_out = version;
  if (version == kVersionNoMeta) {
    return Status::Ok();
  }
  std::string tag;
  size_t entries = 0;
  if (!(is >> tag >> entries) || tag != "meta") {
    return Status::InvalidArgument("malformed metadata header: " + path);
  }
  is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  for (size_t i = 0; i < entries; ++i) {
    std::string line;
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("truncated metadata block: " + path);
    }
    const size_t space = line.find(' ');
    std::string key = line.substr(0, space);
    if (key.empty()) {
      return Status::InvalidArgument("empty metadata key: " + path);
    }
    std::string value =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (metadata != nullptr &&
        !metadata->emplace(std::move(key), std::move(value)).second) {
      return Status::InvalidArgument("duplicate metadata key: " + path);
    }
  }
  return Status::Ok();
}

// Verifies the version-3 trailer: the last line must read "crc32 <8 hex>"
// and the checksum must match the value region — every byte from the
// parameter count through the final parameter line, including its newline.
// `is` is positioned at the parameter count (just past the header), which
// is where the protected region starts inside `bytes`.
Status VerifyCrcTrailer(const std::string& bytes, std::istream& is,
                        const std::string& path) {
  const std::streampos pos = is.tellg();
  const size_t body_start =
      pos < std::streampos(0) ? bytes.size() : static_cast<size_t>(pos);
  const size_t tail = bytes.rfind("\ncrc32 ");
  if (tail == std::string::npos || tail + 1 < body_start) {
    return Status::DataLoss("missing crc32 trailer: " + path);
  }
  const size_t hex_start = tail + 7;
  const size_t hex_end = bytes.find('\n', hex_start);
  const std::string hex =
      hex_end == std::string::npos
          ? std::string()
          : bytes.substr(hex_start, hex_end - hex_start);
  if (hex.size() != 8 ||
      hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::DataLoss("malformed crc32 trailer: " + path);
  }
  const uint32_t stored =
      static_cast<uint32_t>(std::stoul(hex, nullptr, 16));
  const uint32_t actual =
      Crc32(bytes.data() + body_start, tail + 1 - body_start);
  if (stored != actual) {
    char computed[16];
    std::snprintf(computed, sizeof(computed), "%08x", actual);
    return Status::DataLoss("crc32 mismatch (stored " + hex + ", computed " +
                            computed + "): " + path);
  }
  return Status::Ok();
}

// Slurps the snapshot into memory so the "checkpoint.read" failpoint can
// model media-level faults (torn tails, flipped bits) on the exact bytes
// the parser will see, independent of stream buffering.
Status ReadSnapshotBytes(const std::string& path, std::string* bytes) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::NotFound("cannot open: " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (!is) {
    return Status::DataLoss("read failed: " + path);
  }
  *bytes = buffer.str();
  failpoint::Hit hit;
  if (TPGNN_FAILPOINT("checkpoint.read", &hit)) {
    switch (hit.kind) {
      case failpoint::Kind::kReturnError:
        return failpoint::InjectedError(StatusCode::kDataLoss,
                                        "checkpoint.read");
      case failpoint::Kind::kShortIo:  // Torn read: only a prefix arrives.
        bytes->resize(failpoint::ShortIoBudget(hit, bytes->size()));
        break;
      case failpoint::Kind::kCorruptByte:  // One bit of the media flips.
        failpoint::CorruptByte(hit,
                               reinterpret_cast<uint8_t*>(bytes->data()),
                               bytes->size());
        break;
      default:
        failpoint::ApplyDelay(hit);
        break;
    }
  }
  return Status::Ok();
}

}  // namespace

Status SaveParameters(const Module& module, const std::string& path,
                      const CheckpointMetadata& metadata) {
  for (const auto& [key, value] : metadata) {
    if (key.empty() || key.find_first_of(" \t\n") != std::string::npos ||
        value.find('\n') != std::string::npos) {
      return Status::InvalidArgument("invalid metadata entry: '" + key + "'");
    }
  }
  // Serialize fully in memory, then write in one pass: the intermediate
  // buffer is what lets the "checkpoint.write" failpoint model a torn write
  // (a crash mid-flush leaves a well-formed prefix on disk). The value
  // region is built separately so its crc32 can be computed over the exact
  // bytes that land in the file.
  std::ostringstream body;
  auto named = module.NamedParameters();
  body << named.size() << "\n";
  body.precision(9);
  for (const auto& [name, p] : named) {
    body << name << " " << p.numel();
    for (float v : p.data()) {
      body << " " << v;
    }
    body << "\n";
  }
  const std::string value_region = body.str();

  std::ostringstream os;
  os << kMagic << " " << kVersionCrc << "\n";
  os << "meta " << metadata.size() << "\n";
  for (const auto& [key, value] : metadata) {
    os << key << " " << value << "\n";
  }
  os << value_region;
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                Crc32(value_region.data(), value_region.size()));
  os << "crc32 " << crc_hex << "\n";
  std::string bytes = os.str();

  failpoint::Hit hit;
  bool torn = false;
  if (TPGNN_FAILPOINT("checkpoint.write", &hit)) {
    switch (hit.kind) {
      case failpoint::Kind::kReturnError:  // Disk gone before any byte lands.
        return failpoint::InjectedError(StatusCode::kInternal,
                                        "checkpoint.write");
      case failpoint::Kind::kShortIo:  // Crash mid-flush: prefix lands, then
                                       // the writer dies with an error.
        bytes.resize(failpoint::ShortIoBudget(hit, bytes.size()));
        torn = true;
        break;
      default:
        failpoint::ApplyDelay(hit);
        break;
    }
  }

  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) {
    return Status::Internal("write failed: " + path);
  }
  if (torn) {
    return failpoint::InjectedError(StatusCode::kInternal, "checkpoint.write");
  }
  return Status::Ok();
}

Status LoadParameters(Module& module, const std::string& path) {
  return LoadParameters(module, path, nullptr);
}

Status LoadParameters(Module& module, const std::string& path,
                      CheckpointMetadata* metadata) {
  if (metadata != nullptr) {
    metadata->clear();
  }
  std::string bytes;
  if (Status s = ReadSnapshotBytes(path, &bytes); !s.ok()) {
    return s;
  }
  std::istringstream is(bytes);
  int version = 0;
  if (Status header = ReadHeader(is, path, metadata, &version);
      !header.ok()) {
    return header;
  }
  if (version == kVersionCrc) {
    if (Status crc = VerifyCrcTrailer(bytes, is, path); !crc.ok()) {
      return crc;
    }
  }
  size_t count = 0;
  if (!(is >> count)) {
    return Status::InvalidArgument("malformed parameter count: " + path);
  }

  std::map<std::string, std::vector<float>> stored;
  for (size_t i = 0; i < count; ++i) {
    std::string name;
    int64_t numel = 0;
    if (!(is >> name >> numel) || numel < 0) {
      return Status::InvalidArgument("malformed parameter header");
    }
    std::vector<float> values(static_cast<size_t>(numel));
    for (float& v : values) {
      if (!(is >> v)) {
        return Status::InvalidArgument("malformed parameter values: " + name);
      }
    }
    if (!stored.emplace(name, std::move(values)).second) {
      return Status::InvalidArgument("duplicate parameter: " + name);
    }
  }

  auto named = module.NamedParameters();
  if (named.size() != stored.size()) {
    return Status::FailedPrecondition(
        "parameter count mismatch: module has " +
        std::to_string(named.size()) + ", checkpoint has " +
        std::to_string(stored.size()));
  }
  for (auto& [name, p] : named) {
    auto it = stored.find(name);
    if (it == stored.end()) {
      return Status::FailedPrecondition("missing parameter: " + name);
    }
    if (static_cast<int64_t>(it->second.size()) != p.numel()) {
      return Status::FailedPrecondition("shape mismatch for: " + name);
    }
    p.MutableData() = it->second;
  }
  return Status::Ok();
}

Status ReadCheckpointMetadata(const std::string& path,
                              CheckpointMetadata* metadata) {
  if (metadata != nullptr) {
    metadata->clear();
  }
  std::string bytes;
  if (Status s = ReadSnapshotBytes(path, &bytes); !s.ok()) {
    return s;
  }
  std::istringstream is(bytes);
  int version = 0;
  return ReadHeader(is, path, metadata, &version);
}

}  // namespace tpgnn::nn
