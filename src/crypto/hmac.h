// HMAC-SHA256 (RFC 2104). Keyed integrity tags on storage metadata, sealed
// TPM blobs and attested-channel frames.
#ifndef NEXUS_CRYPTO_HMAC_H_
#define NEXUS_CRYPTO_HMAC_H_

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace nexus::crypto {

// One HMAC key, with its ipad and opad blocks absorbed once (the
// precomputation of RFC 2104 §4). Each MAC resumes from the two saved
// SHA-256 midstates, so it costs the message's own compressions plus one
// outer block, and allocates nothing. Immutable after construction, so
// concurrent MACs under one key are safe.
class HmacSha256Key {
 public:
  // A key longer than the 64-byte block is hashed first, as RFC 2104 says.
  explicit HmacSha256Key(ByteView key);

  // Streaming form: Begin() returns the keyed inner hash; Update it with
  // the message, in as many pieces as convenient, then Finish it here.
  Sha256 Begin() const { return inner_; }
  Sha256Digest Finish(Sha256 inner) const;

  Sha256Digest Mac(ByteView message) const;

 private:
  Sha256 inner_;  // After absorbing key ^ ipad.
  Sha256 outer_;  // After absorbing key ^ opad.
};

Sha256Digest HmacSha256(ByteView key, ByteView message);

// Convenience wrapper returning Bytes.
Bytes HmacSha256Bytes(ByteView key, ByteView message);

}  // namespace nexus::crypto

#endif  // NEXUS_CRYPTO_HMAC_H_
