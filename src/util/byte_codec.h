#ifndef TPGNN_UTIL_BYTE_CODEC_H_
#define TPGNN_UTIL_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

// The byte codec of the wire protocol (net/protocol.h) and of the
// session-state snapshot (serve/session_state.h): little-endian fixed-width
// integers, raw IEEE-754 bits for floats and doubles, unsigned LEB128
// varints (signed values zigzag), and strings and byte arrays as a varint
// length followed by the bytes. Header-only, so both decoders inline it.

namespace tpgnn {

// Decoder plausibility caps. Anything above these in a node-count or
// feature-width field is treated as corruption: the caps are far beyond what
// the serving path produces, and refusing early keeps a flipped bit in a
// count field from turning into a giant allocation.
inline constexpr uint64_t kMaxNodesPerSession = 1ull << 31;
inline constexpr uint64_t kMaxFeatureDim = 1ull << 24;

inline void AppendVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

inline void AppendZigzag(int64_t value, std::vector<uint8_t>* out) {
  AppendVarint((static_cast<uint64_t>(value) << 1) ^
                   static_cast<uint64_t>(value >> 63),
               out);
}

inline void AppendU32(uint32_t value, std::vector<uint8_t>* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<uint8_t>((value >> shift) & 0xff));
  }
}

inline void AppendF32(float value, std::vector<uint8_t>* out) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU32(bits, out);
}

inline void AppendF64(double value, std::vector<uint8_t>* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<uint8_t>((bits >> shift) & 0xff));
  }
}

inline void AppendString(const std::string& value, std::vector<uint8_t>* out) {
  AppendVarint(value.size(), out);
  out->insert(out->end(), value.begin(), value.end());
}

inline void AppendBytes(const std::vector<uint8_t>& value,
                        std::vector<uint8_t>* out) {
  AppendVarint(value.size(), out);
  out->insert(out->end(), value.begin(), value.end());
}

// Bounds-checked sequential reader over one encoded buffer. Every Read*
// validates the remaining byte count before touching memory; the first
// failure latches and all later reads fail too, so decode code can chain
// reads and check once.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool failed() const { return failed_; }

  // Latches the failure; returns false so a decoder can `return Fail();`.
  bool Fail() {
    failed_ = true;
    return false;
  }

  bool ReadU8(uint8_t* value) {
    if (!Require(1)) return false;
    *value = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* value) {
    if (!Require(4)) return false;
    uint32_t bits = 0;
    for (int i = 0; i < 4; ++i) {
      bits |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
              << (8 * i);
    }
    pos_ += 4;
    *value = bits;
    return true;
  }

  bool ReadF32(float* value) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(value, &bits, sizeof(*value));
    return true;
  }

  bool ReadF64(double* value) {
    if (!Require(8)) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
              << (8 * i);
    }
    pos_ += 8;
    std::memcpy(value, &bits, sizeof(*value));
    return true;
  }

  bool ReadVarint(uint64_t* value) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Require(1)) return false;
      const uint8_t byte = data_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The tenth byte may only contribute the single remaining bit.
        if (shift == 63 && byte > 1) {
          return Fail();
        }
        *value = result;
        return true;
      }
    }
    return Fail();  // More than 10 continuation bytes.
  }

  bool ReadZigzag(int64_t* value) {
    uint64_t raw;
    if (!ReadVarint(&raw)) return false;
    *value = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  bool ReadString(std::string* value) {
    uint64_t length;
    if (!ReadVarint(&length)) return false;
    if (length > remaining()) return Fail();
    value->assign(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return true;
  }

  bool ReadBytes(std::vector<uint8_t>* value) {
    uint64_t length;
    if (!ReadVarint(&length)) return false;
    if (length > remaining()) return Fail();
    value->assign(data_ + pos_, data_ + pos_ + static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return true;
  }

 private:
  bool Require(size_t bytes) {
    if (failed_ || remaining() < bytes) {
      return Fail();
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace tpgnn

#endif  // TPGNN_UTIL_BYTE_CODEC_H_
