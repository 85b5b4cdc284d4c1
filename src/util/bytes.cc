#include "util/bytes.h"

#include <cstring>

namespace nexus {

Bytes ToBytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string ToString(ByteView bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::string HexEncode(ByteView bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

namespace {

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgument("hex string has non-hex character");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void Append(Bytes& dst, ByteView suffix) {
  dst.insert(dst.end(), suffix.begin(), suffix.end());
}

bool ConstantTimeEquals(ByteView a, ByteView b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

void AppendU32(Bytes& dst, uint32_t value) {
  dst.push_back(static_cast<uint8_t>(value >> 24));
  dst.push_back(static_cast<uint8_t>(value >> 16));
  dst.push_back(static_cast<uint8_t>(value >> 8));
  dst.push_back(static_cast<uint8_t>(value));
}

void AppendU64(Bytes& dst, uint64_t value) {
  AppendU32(dst, static_cast<uint32_t>(value >> 32));
  AppendU32(dst, static_cast<uint32_t>(value));
}

void AppendLengthPrefixed(Bytes& dst, ByteView chunk) {
  AppendU32(dst, static_cast<uint32_t>(chunk.size()));
  Append(dst, chunk);
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) {
    return OutOfRange("truncated u8");
  }
  return data_[offset_++];
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) {
    return OutOfRange("truncated u32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | data_[offset_ + i];
  }
  offset_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  Result<uint32_t> hi = ReadU32();
  if (!hi.ok()) {
    return hi.status();
  }
  Result<uint32_t> lo = ReadU32();
  if (!lo.ok()) {
    return lo.status();
  }
  return (static_cast<uint64_t>(*hi) << 32) | *lo;
}

Result<Bytes> ByteReader::ReadLengthPrefixed() {
  Result<ByteView> chunk = ReadLengthPrefixedView();
  if (!chunk.ok()) {
    return chunk.status();
  }
  return Bytes(chunk->begin(), chunk->end());
}

Result<ByteView> ByteReader::ReadLengthPrefixedView() {
  Result<uint32_t> len = ReadU32();
  if (!len.ok()) {
    return len.status();
  }
  if (remaining() < *len) {
    return OutOfRange("truncated length-prefixed chunk");
  }
  ByteView out = data_.subspan(offset_, *len);
  offset_ += *len;
  return out;
}

Result<std::vector<Bytes>> ByteReader::ReadLengthPrefixedList() {
  Result<uint32_t> count = ReadU32();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > remaining() / sizeof(uint32_t)) {
    return OutOfRange("chunk count exceeds the remaining bytes");
  }
  std::vector<Bytes> chunks;
  chunks.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    Result<Bytes> chunk = ReadLengthPrefixed();
    if (!chunk.ok()) {
      return chunk.status();
    }
    chunks.push_back(std::move(*chunk));
  }
  return chunks;
}

}  // namespace nexus
