// Byte-buffer helpers shared by the crypto, TPM, and storage layers.
#ifndef NEXUS_UTIL_BYTES_H_
#define NEXUS_UTIL_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace nexus {

using Bytes = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;

// Converts a string's characters to bytes (no encoding transformation).
Bytes ToBytes(std::string_view text);

// Converts bytes to a std::string (bytes are used verbatim).
std::string ToString(ByteView bytes);

// Lower-case hex encoding, two characters per byte.
std::string HexEncode(ByteView bytes);

// Parses a hex string (even length, [0-9a-fA-F]).
Result<Bytes> HexDecode(std::string_view hex);

// Appends `suffix` to `dst`.
void Append(Bytes& dst, ByteView suffix);

// Constant-time equality over byte buffers (length leaks; contents do not).
bool ConstantTimeEquals(ByteView a, ByteView b);

// Serialization helpers used for canonical message encodings: a 32-bit
// big-endian length prefix followed by the raw bytes.
void AppendU32(Bytes& dst, uint32_t value);
void AppendU64(Bytes& dst, uint64_t value);
void AppendLengthPrefixed(Bytes& dst, ByteView chunk);

// Cursor-style reader for the encodings above. Methods fail (return an
// error) rather than read out of bounds.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<Bytes> ReadLengthPrefixed();
  // The same chunk as a view of the reader's buffer: no copy, valid while
  // that buffer is.
  Result<ByteView> ReadLengthPrefixedView();
  // A u32 count, then that many length-prefixed chunks. A count the
  // remaining bytes cannot carry (each chunk costs at least its 4-byte
  // prefix) fails before anything is sized from it.
  Result<std::vector<Bytes>> ReadLengthPrefixedList();
  bool AtEnd() const { return offset_ == data_.size(); }
  size_t remaining() const { return data_.size() - offset_; }

 private:
  ByteView data_;
  size_t offset_ = 0;
};

}  // namespace nexus

#endif  // NEXUS_UTIL_BYTES_H_
