#include "crypto/hmac.h"

#include <cstring>

namespace nexus::crypto {

HmacSha256Key::HmacSha256Key(ByteView key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    Sha256Digest key_digest = Sha256::Hash(key);
    std::memcpy(key_block, key_digest.data(), key_digest.size());
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t pad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = key_block[i] ^ 0x36;
  }
  inner_.Update(ByteView(pad, kBlockSize));
  for (size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = key_block[i] ^ 0x5c;
  }
  outer_.Update(ByteView(pad, kBlockSize));
}

Sha256Digest HmacSha256Key::Finish(Sha256 inner) const {
  Sha256Digest inner_digest = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

Sha256Digest HmacSha256Key::Mac(ByteView message) const {
  Sha256 inner = Begin();
  inner.Update(message);
  return Finish(inner);
}

Sha256Digest HmacSha256(ByteView key, ByteView message) {
  return HmacSha256Key(key).Mac(message);
}

Bytes HmacSha256Bytes(ByteView key, ByteView message) {
  Sha256Digest d = HmacSha256(key, message);
  return Bytes(d.begin(), d.end());
}

}  // namespace nexus::crypto
