// AES-128 block cipher and CTR mode.
//
// SSRs (§3.3 of the paper) use counter-mode AES so that file regions can be
// encrypted independently: a ciphertext block does not depend on its
// predecessor, enabling partial reads/writes and demand paging.
//
// The block encryption has two implementations over one FIPS-197 key
// schedule. The portable one is the reference: it is the only path off
// x86-64 and on a CPU without AES-NI, and the test compares the other
// against it. The AES-NI one (aesenc, aesenclast) runs when CPUID reports
// AES; the choice is made once per process, the first time a block is
// encrypted. Both produce the same ciphertext bit for bit.
#ifndef NEXUS_CRYPTO_AES_H_
#define NEXUS_CRYPTO_AES_H_

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace nexus::crypto {

inline constexpr size_t kAesBlockSize = 16;
inline constexpr size_t kAesKeySize = 16;

using AesKey = std::array<uint8_t, kAesKeySize>;
using AesBlock = std::array<uint8_t, kAesBlockSize>;

// The key schedule and the two block encryptions behind Aes128, named here
// for the crypto test only. Each encryption runs one 16-byte block in place.
namespace internal {

// The expanded key: 11 round keys of 16 bytes, in the byte order both
// implementations read (the one aesenc loads).
using AesRoundKeys = std::array<uint8_t, 11 * kAesBlockSize>;

AesRoundKeys ExpandAesKey(const AesKey& key);

using AesEncrypt = void (*)(const AesRoundKeys& round_keys, uint8_t block[kAesBlockSize]);

void PortableAesEncrypt(const AesRoundKeys& round_keys, uint8_t block[kAesBlockSize]);

// The AES-NI encryption, or null when this CPU or ISA lacks it.
AesEncrypt HardwareAesEncrypt();

}  // namespace internal

// AES-128 with a precomputed key schedule.
class Aes128 {
 public:
  explicit Aes128(const AesKey& key);

  // Encrypts one 16-byte block in place.
  void EncryptBlock(uint8_t block[kAesBlockSize]) const;

 private:
  internal::AesRoundKeys round_keys_;
};

// CTR-mode keystream cipher. Encryption and decryption are the same
// operation. `nonce` selects the stream; `offset` is the byte offset within
// the stream, so callers can en/decrypt any region independently.
class AesCtr {
 public:
  // From an already expanded key: a caller that runs many streams under one
  // key (a channel, one stream per frame) expands it once.
  AesCtr(const Aes128& cipher, uint64_t nonce);
  AesCtr(const AesKey& key, uint64_t nonce);

  // XORs `data` with the keystream starting at byte `offset`, in place.
  void CryptInPlace(uint64_t offset, std::span<uint8_t> data) const;
  Bytes Crypt(uint64_t offset, ByteView data) const;

 private:
  Aes128 cipher_;
  uint64_t nonce_;
};

}  // namespace nexus::crypto

#endif  // NEXUS_CRYPTO_AES_H_
