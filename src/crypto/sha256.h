// SHA-256 (FIPS 180-4). The default hash for labels, certificates, Merkle
// trees, and SSR integrity in the simulation.
//
// The block compression has two implementations. The portable one is the
// reference: it is the only path off x86-64 and on a CPU without SHA-NI,
// and the test compares the other against it. The SHA-NI one (sha256rnds2,
// sha256msg1/2) runs when CPUID reports SHA and SSE4.1; the choice is made
// once per process, the first time a block is compressed. Both produce the
// same digest bit for bit.
#ifndef NEXUS_CRYPTO_SHA256_H_
#define NEXUS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace nexus::crypto {

inline constexpr size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  void Update(ByteView data);
  Sha256Digest Finish();

  static Sha256Digest Hash(ByteView data);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
  uint64_t total_bits_ = 0;
};

// Convenience: digest as a Bytes value / hex string.
Bytes Sha256Bytes(ByteView data);
std::string Sha256Hex(ByteView data);

// The two compressions behind Sha256, named here for the crypto test only.
// Each folds one 64-byte block into the eight-word chaining state.
namespace internal {

using Sha256Compress = void (*)(uint32_t state[8], const uint8_t block[64]);

void PortableSha256Compress(uint32_t state[8], const uint8_t block[64]);

// The SHA-NI compression, or null when this CPU or ISA lacks it.
Sha256Compress HardwareSha256Compress();

}  // namespace internal

}  // namespace nexus::crypto

#endif  // NEXUS_CRYPTO_SHA256_H_
