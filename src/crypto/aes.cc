#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace nexus::crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

#if defined(__x86_64__)
// One block through AES-NI: round key 0 whitens, aesenc runs rounds 1-9
// and aesenclast the tenth, which skips MixColumns as FIPS-197 does.
__attribute__((target("aes"))) void AesNiEncrypt(const internal::AesRoundKeys& round_keys,
                                                 uint8_t block[kAesBlockSize]) {
  const uint8_t* keys = round_keys.data();
  __m128i state = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
  state = _mm_xor_si128(state, _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys)));
  for (int round = 1; round < 10; ++round) {
    state = _mm_aesenc_si128(
        state, _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + 16 * round)));
  }
  state = _mm_aesenclast_si128(
      state, _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + 16 * 10)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), state);
}
#endif

}  // namespace

internal::AesRoundKeys internal::ExpandAesKey(const AesKey& key) {
  AesRoundKeys round_keys = {};
  std::memcpy(round_keys.data(), key.data(), 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, round_keys.data() + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      uint8_t t = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys[4 * i + j] = round_keys[4 * (i - 4) + j] ^ temp[j];
    }
  }
  return round_keys;
}

void internal::PortableAesEncrypt(const AesRoundKeys& round_keys,
                                  uint8_t block[kAesBlockSize]) {
  uint8_t state[16];
  std::memcpy(state, block, 16);

  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      state[i] ^= round_keys[16 * round + i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : state) {
      b = kSbox[b];
    }
  };
  auto shift_rows = [&] {
    uint8_t t;
    // Row 1: rotate left by 1.
    t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: rotate left by 2.
    std::swap(state[2], state[10]);
    std::swap(state[6], state[14]);
    // Row 3: rotate left by 3.
    t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = state + 4 * c;
      uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<uint8_t>(a0 ^ all ^ XTime(a0 ^ a1));
      col[1] = static_cast<uint8_t>(a1 ^ all ^ XTime(a1 ^ a2));
      col[2] = static_cast<uint8_t>(a2 ^ all ^ XTime(a2 ^ a3));
      col[3] = static_cast<uint8_t>(a3 ^ all ^ XTime(a3 ^ a0));
    }
  };

  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);

  std::memcpy(block, state, 16);
}

internal::AesEncrypt internal::HardwareAesEncrypt() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_AES) != 0) {
    return AesNiEncrypt;
  }
#endif
  return nullptr;
}

Aes128::Aes128(const AesKey& key) : round_keys_(internal::ExpandAesKey(key)) {}

void Aes128::EncryptBlock(uint8_t block[kAesBlockSize]) const {
  // Chosen on first use rather than at static initialization, so a cipher
  // run in another file's static initializer cannot see it unset.
  static const internal::AesEncrypt encrypt = [] {
    internal::AesEncrypt hardware = internal::HardwareAesEncrypt();
    return hardware != nullptr ? hardware : internal::PortableAesEncrypt;
  }();
  encrypt(round_keys_, block);
}

AesCtr::AesCtr(const Aes128& cipher, uint64_t nonce) : cipher_(cipher), nonce_(nonce) {}

AesCtr::AesCtr(const AesKey& key, uint64_t nonce) : AesCtr(Aes128(key), nonce) {}

void AesCtr::CryptInPlace(uint64_t offset, std::span<uint8_t> data) const {
  size_t i = 0;
  while (i < data.size()) {
    uint64_t block_index = (offset + i) / kAesBlockSize;
    size_t in_block = static_cast<size_t>((offset + i) % kAesBlockSize);

    uint8_t keystream[kAesBlockSize];
    for (int j = 0; j < 8; ++j) {
      keystream[j] = static_cast<uint8_t>(nonce_ >> (8 * (7 - j)));
      keystream[8 + j] = static_cast<uint8_t>(block_index >> (8 * (7 - j)));
    }
    cipher_.EncryptBlock(keystream);

    while (in_block < kAesBlockSize && i < data.size()) {
      data[i] ^= keystream[in_block];
      ++i;
      ++in_block;
    }
  }
}

Bytes AesCtr::Crypt(uint64_t offset, ByteView data) const {
  Bytes out(data.begin(), data.end());
  CryptInPlace(offset, out);
  return out;
}

}  // namespace nexus::crypto
