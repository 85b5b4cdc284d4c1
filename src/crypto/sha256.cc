#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace nexus::crypto {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

uint32_t Rotr(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

#if defined(__x86_64__)
// One block through the SHA extensions. sha256rnds2 runs two rounds on the
// state split as ABEF and CDGH, taking W[t] + K[t] for both from the low
// half of its message operand; sha256msg1/2 extend the schedule four words
// at a time.
__attribute__((target("sha,sse4.1"))) void ShaNiCompress(uint32_t state[8],
                                                          const uint8_t block[64]) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[j % 4] holds W[4j .. 4j+3] from the time it is computed until rounds
  // 4j .. 4j+3 have consumed it.
  __m128i w[4] = {};
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    w[j] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * j)), kByteSwap);
  }
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    __m128i wk = _mm_add_epi32(
        w[j % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * j)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    if (j < 12) {
      // W[t] for t = 4j+16 .. 4j+19 is W[t-16] + sigma0(W[t-15]) (msg1),
      // + W[t-7] (the alignr), + sigma1(W[t-2]) (msg2).
      __m128i next = _mm_sha256msg1_epu32(w[j % 4], w[(j + 1) % 4]);
      next = _mm_add_epi32(next, _mm_alignr_epi8(w[(j + 3) % 4], w[(j + 2) % 4], 4));
      w[j % 4] = _mm_sha256msg2_epu32(next, w[(j + 3) % 4]);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace

Sha256::Sha256() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
}

void internal::PortableSha256Compress(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ ((~e) & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

internal::Sha256Compress internal::HardwareSha256Compress() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_SSE4_1) != 0 &&
      __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) && (ebx & bit_SHA) != 0) {
    return ShaNiCompress;
  }
#endif
  return nullptr;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  // Chosen on first use rather than at static initialization, so a hash
  // taken in another file's static initializer cannot see it unset.
  static const internal::Sha256Compress compress = [] {
    internal::Sha256Compress hardware = internal::HardwareSha256Compress();
    return hardware != nullptr ? hardware : internal::PortableSha256Compress;
  }();
  compress(h_, block);
}

void Sha256::Update(ByteView data) {
  total_bits_ += static_cast<uint64_t>(data.size()) * 8;
  if (data.empty()) {
    return;  // An empty view may carry a null data(); memcpy forbids it.
  }
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    ProcessBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::Finish() {
  uint8_t pad[72] = {0x80};
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  uint64_t bits = total_bits_;
  Update(ByteView(pad, pad_len));
  uint8_t len_bytes[8];
  for (int i = 7; i >= 0; --i) {
    len_bytes[i] = static_cast<uint8_t>(bits & 0xff);
    bits >>= 8;
  }
  Update(ByteView(len_bytes, 8));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(ByteView data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Bytes Sha256Bytes(ByteView data) {
  Sha256Digest d = Sha256::Hash(data);
  return Bytes(d.begin(), d.end());
}

std::string Sha256Hex(ByteView data) {
  Sha256Digest d = Sha256::Hash(data);
  return HexEncode(ByteView(d.data(), d.size()));
}

}  // namespace nexus::crypto
