#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "util/rng.h"

namespace nexus::crypto {
namespace {

std::string HexOf(ByteView v) { return HexEncode(v); }

template <size_t N>
std::string HexOf(const std::array<uint8_t, N>& a) {
  return HexEncode(ByteView(a.data(), a.size()));
}

// ---------------------------------------------------------------- SHA-1

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(HexOf(Sha1::Hash(ToBytes(""))), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(HexOf(Sha1::Hash(ToBytes("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, LongerVector) {
  EXPECT_EQ(HexOf(Sha1::Hash(ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 hasher;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(HexOf(hasher.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Bytes data = ToBytes("the quick brown fox jumps over the lazy dog");
  Sha1 hasher;
  for (size_t i = 0; i < data.size(); ++i) {
    hasher.Update(ByteView(&data[i], 1));
  }
  EXPECT_EQ(HexOf(hasher.Finish()), HexOf(Sha1::Hash(data)));
}

// -------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexOf(Sha256::Hash(ToBytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexOf(Sha256::Hash(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HexOf(Sha256::Hash(ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(HexOf(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(5);
  Bytes data = rng.RandomBytes(1000);
  Sha256 hasher;
  size_t offset = 0;
  size_t sizes[] = {1, 63, 64, 65, 100, 707};
  for (size_t sz : sizes) {
    size_t take = std::min(sz, data.size() - offset);
    hasher.Update(ByteView(data.data() + offset, take));
    offset += take;
  }
  EXPECT_EQ(HexOf(hasher.Finish()), HexOf(Sha256::Hash(data)));
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths straddling the 55/56/63/64 padding boundaries must all differ.
  std::set<std::string> digests;
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u}) {
    digests.insert(HexOf(Sha256::Hash(Bytes(len, 'x'))));
  }
  EXPECT_EQ(digests.size(), 7u);
}

// Differential check of the SHA-NI compression against the portable
// reference. Random chaining states stand in for mid-stream ones such as
// HMAC's saved ipad/opad midstates.
TEST(Sha256CompressTest, ShaNiMatchesPortable) {
  internal::Sha256Compress sha_ni = internal::HardwareSha256Compress();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "CPU lacks the SHA-NI (sha_ni) or SSE4.1 instructions";
  }
  Rng rng(73);
  for (int i = 0; i < 10000; ++i) {
    std::array<uint32_t, 8> reference = {};
    for (uint32_t& word : reference) {
      word = static_cast<uint32_t>(rng.NextU64());
    }
    std::array<uint32_t, 8> accelerated = reference;
    Bytes block = rng.RandomBytes(64);
    internal::PortableSha256Compress(reference.data(), block.data());
    sha_ni(accelerated.data(), block.data());
    ASSERT_EQ(accelerated, reference) << "pair " << i;
  }
}

// ----------------------------------------------------------------- HMAC

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexOf(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexOf(HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(HexOf(HmacSha256(key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key "
                                          "First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDiffer) {
  EXPECT_NE(HexOf(HmacSha256(ToBytes("k1"), ToBytes("m"))),
            HexOf(HmacSha256(ToBytes("k2"), ToBytes("m"))));
}

TEST(HmacTest, KeyObjectIsReusableAcrossMessages) {
  // RFC 4231 cases 1, 2, 6 and 7. Cases 6 and 7 share one 131-byte key,
  // hashed before use, so one key object answers both; every case runs
  // twice to show a MAC leaves the saved midstates untouched.
  struct Case {
    const HmacSha256Key* key;
    std::string message;
    std::string tag;
  };
  HmacSha256Key case1(Bytes(20, 0x0b));
  HmacSha256Key case2(ToBytes("Jefe"));
  HmacSha256Key long_key(Bytes(131, 0xaa));
  const Case cases[] = {
      {&case1, "Hi There", "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {&case2, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {&long_key, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {&long_key,
       "This is a test using a larger than block-size key and a larger than block-size "
       "data. The key needs to be hashed before being used by the HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      EXPECT_EQ(HexOf(c.key->Mac(ToBytes(c.message))), c.tag) << c.message;
    }
  }
}

TEST(HmacTest, StreamedMacEqualsOneShot) {
  // Pieces that start, end and straddle SHA-256's 64-byte blocks.
  Rng rng(21);
  Bytes key = rng.RandomBytes(32);
  Bytes message = rng.RandomBytes(300);
  HmacSha256Key mac(key);
  const size_t pieces[] = {0, 1, 7, 55, 1, 64, 65, 107};
  Sha256 inner = mac.Begin();
  size_t offset = 0;
  for (size_t piece : pieces) {
    inner.Update(ByteView(message.data() + offset, piece));
    offset += piece;
  }
  ASSERT_EQ(offset, message.size());
  EXPECT_EQ(HexOf(mac.Finish(inner)), HexOf(HmacSha256(key, message)));
  EXPECT_EQ(HexOf(mac.Mac(message)), HexOf(HmacSha256(key, message)));
}

TEST(HmacTest, EmptyKey) {
  Bytes message = ToBytes("attested channel frame");
  EXPECT_EQ(HexOf(HmacSha256Key(ByteView{}).Mac(message)), HexOf(HmacSha256({}, message)));
  EXPECT_EQ(HexOf(HmacSha256({}, message)),
            "b189249ecce6f0e67b6129d3e5059e828742d2ed4791dad62fc608fe7264819f");
}

// ------------------------------------------------------------------ AES

TEST(AesTest, Fips197Vector) {
  // FIPS-197 appendix B.
  AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                       0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  Aes128 aes(key);
  aes.EncryptBlock(block);
  EXPECT_EQ(HexOf(ByteView(block, 16)), "3925841d02dc09fbdc118597196a0b32");
}

TEST(AesTest, Sp800_38aCtrKeystreamBlock) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block, realized through
  // a raw block encryption of the initial counter.
  AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  uint8_t counter[16] = {0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7,
                         0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff};
  Aes128 aes(key);
  aes.EncryptBlock(counter);
  EXPECT_EQ(HexOf(ByteView(counter, 16)), "ec8cdf7398607cb0f2d21675ea9ea1e4");
}

// FIPS-197 appendix C.1 (AES-128) through one block implementation.
std::string EncryptAppendixC1(internal::AesEncrypt encrypt) {
  AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  uint8_t block[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                       0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  encrypt(internal::ExpandAesKey(key), block);
  return HexOf(ByteView(block, 16));
}

constexpr char kAppendixC1Ciphertext[] = "69c4e0d86a7b0430d8cdb78070b4c55a";

TEST(AesBlockTest, PortableMatchesFips197AppendixC1) {
  EXPECT_EQ(EncryptAppendixC1(internal::PortableAesEncrypt), kAppendixC1Ciphertext);
}

// Differential check of the AES-NI encryption against the portable
// reference, over the one key schedule both read.
TEST(AesBlockTest, AesNiMatchesPortable) {
  internal::AesEncrypt aes_ni = internal::HardwareAesEncrypt();
  if (aes_ni == nullptr) {
    GTEST_SKIP() << "CPU lacks the AES-NI (aes) instructions";
  }
  EXPECT_EQ(EncryptAppendixC1(aes_ni), kAppendixC1Ciphertext);
  Rng rng(79);
  for (int i = 0; i < 10000; ++i) {
    AesKey key = {};
    Bytes key_bytes = rng.RandomBytes(kAesKeySize);
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    internal::AesRoundKeys round_keys = internal::ExpandAesKey(key);
    Bytes reference = rng.RandomBytes(kAesBlockSize);
    Bytes accelerated = reference;
    internal::PortableAesEncrypt(round_keys, reference.data());
    aes_ni(round_keys, accelerated.data());
    ASSERT_EQ(accelerated, reference) << "pair " << i;
  }
}

TEST(AesCtrTest, RoundTrip) {
  AesKey key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  AesCtr ctr(key, /*nonce=*/99);
  Bytes plain = ToBytes("counter mode allows independent region encryption");
  Bytes cipher = ctr.Crypt(0, plain);
  EXPECT_NE(cipher, plain);
  Bytes restored = ctr.Crypt(0, cipher);
  EXPECT_EQ(restored, plain);
}

TEST(AesCtrTest, RegionIndependence) {
  // Decrypting a middle region alone must match the same bytes from a
  // whole-buffer decryption: the paper relies on this for demand paging.
  AesKey key = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  AesCtr ctr(key, 7);
  Rng rng(13);
  Bytes plain = rng.RandomBytes(256);
  Bytes cipher = ctr.Crypt(0, plain);

  Bytes middle(cipher.begin() + 100, cipher.begin() + 150);
  Bytes restored_middle = ctr.Crypt(100, middle);
  Bytes expected(plain.begin() + 100, plain.begin() + 150);
  EXPECT_EQ(restored_middle, expected);
}

TEST(AesCtrTest, DifferentNoncesDiffer) {
  AesKey key = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  Bytes plain(64, 0);
  EXPECT_NE(AesCtr(key, 1).Crypt(0, plain), AesCtr(key, 2).Crypt(0, plain));
}

TEST(AesCtrTest, ExpandedKeyServesManyStreams) {
  // One expanded schedule, many nonces: the same keystreams as expanding
  // the key for each stream, and in-place over a span of a larger buffer.
  AesKey key = {2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5};
  Aes128 cipher(key);
  Rng rng(19);
  Bytes plain = rng.RandomBytes(77);
  for (uint64_t nonce : {0ull, 1ull, (1ull << 63) | 5}) {
    Bytes framed(3, 0xee);
    Append(framed, plain);
    AesCtr(cipher, nonce).CryptInPlace(0, std::span<uint8_t>(framed).subspan(3));
    EXPECT_EQ(Bytes(framed.begin() + 3, framed.end()), AesCtr(key, nonce).Crypt(0, plain));
    EXPECT_EQ(framed[0], 0xee);
  }
}

TEST(AesCtrTest, UnalignedOffsets) {
  AesKey key = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
  AesCtr ctr(key, 42);
  Rng rng(17);
  Bytes plain = rng.RandomBytes(100);
  Bytes cipher = ctr.Crypt(33, plain);  // Starts mid-block.
  EXPECT_EQ(ctr.Crypt(33, cipher), plain);
}

// --------------------------------------------------------------- BigNum

TEST(BigNumTest, ZeroProperties) {
  BigNum zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.BitLength(), 0);
  EXPECT_FALSE(zero.IsOdd());
}

TEST(BigNumTest, FromU64) {
  BigNum n(0x123456789abcdef0ULL);
  EXPECT_EQ(n.ToHex(), "123456789abcdef0");
  EXPECT_EQ(n.BitLength(), 61);
}

TEST(BigNumTest, BytesRoundTrip) {
  Bytes raw = {0x01, 0x00, 0xff, 0xee, 0xdd};
  BigNum n = BigNum::FromBytes(raw);
  EXPECT_EQ(n.ToBytes(), raw);
}

TEST(BigNumTest, AddCarriesAcrossLimbs) {
  BigNum a(0xffffffffffffffffULL);
  BigNum sum = BigNum::Add(a, BigNum(1));
  EXPECT_EQ(sum.ToHex(), "010000000000000000");
}

TEST(BigNumTest, SubBorrowsAcrossLimbs) {
  BigNum a = BigNum::Add(BigNum(0xffffffffffffffffULL), BigNum(1));
  BigNum diff = BigNum::Sub(a, BigNum(1));
  EXPECT_EQ(diff.ToHex(), "ffffffffffffffff");
}

TEST(BigNumTest, MulMatchesKnownProduct) {
  BigNum a(0xfedcba98ULL);
  BigNum b(0x12345678ULL);
  EXPECT_EQ(BigNum::Mul(a, b).ToHex(), "121fa00a35068740");
}

TEST(BigNumTest, DivModSmallDivisor) {
  BigNum q, r;
  BigNum::DivMod(BigNum(1000000007ULL), BigNum(97), q, r);
  EXPECT_EQ(q.ToHex(), BigNum(10309278ULL).ToHex());
  EXPECT_EQ(r.ToHex(), BigNum(41).ToHex());
}

TEST(BigNumTest, DivModPropertyRandom) {
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    BigNum a = BigNum::RandomWithBits(rng, 1 + static_cast<int>(rng.NextBelow(200)));
    BigNum b = BigNum::RandomWithBits(rng, 1 + static_cast<int>(rng.NextBelow(120)));
    BigNum q, r;
    BigNum::DivMod(a, b, q, r);
    EXPECT_LT(BigNum::Compare(r, b), 0);
    BigNum recombined = BigNum::Add(BigNum::Mul(q, b), r);
    EXPECT_EQ(BigNum::Compare(recombined, a), 0) << "iteration " << i;
  }
}

TEST(BigNumTest, ShiftRoundTrip) {
  Rng rng(31);
  BigNum a = BigNum::RandomWithBits(rng, 100);
  EXPECT_EQ(BigNum::Compare(a.ShiftLeft(37).ShiftRight(37), a), 0);
}

TEST(BigNumTest, ModExpSmallNumbers) {
  // 5^3 mod 13 = 125 mod 13 = 8.
  EXPECT_EQ(BigNum::Compare(BigNum::ModExp(BigNum(5), BigNum(3), BigNum(13)), BigNum(8)), 0);
}

TEST(BigNumTest, ModExpFermat) {
  // Fermat's little theorem: a^(p-1) ≡ 1 (mod p) for prime p.
  BigNum p(1000000007ULL);
  for (uint64_t a : {2ULL, 3ULL, 65537ULL, 999999999ULL}) {
    EXPECT_EQ(
        BigNum::Compare(BigNum::ModExp(BigNum(a), BigNum(1000000006ULL), p), BigNum(1)), 0);
  }
}

TEST(BigNumTest, ModInverseProperty) {
  Rng rng(41);
  BigNum modulus(1000000007ULL);
  for (int i = 0; i < 50; ++i) {
    BigNum a(1 + rng.NextBelow(1000000006ULL));
    BigNum inv = BigNum::ModInverse(a, modulus);
    ASSERT_FALSE(inv.IsZero());
    EXPECT_EQ(BigNum::Compare(BigNum::ModMul(a, inv, modulus), BigNum(1)), 0);
  }
}

TEST(BigNumTest, ModInverseOfNonCoprimeIsZero) {
  EXPECT_TRUE(BigNum::ModInverse(BigNum(6), BigNum(9)).IsZero());
}

TEST(BigNumTest, GcdKnownValues) {
  EXPECT_EQ(BigNum::Compare(BigNum::Gcd(BigNum(48), BigNum(36)), BigNum(12)), 0);
  EXPECT_EQ(BigNum::Compare(BigNum::Gcd(BigNum(17), BigNum(5)), BigNum(1)), 0);
}

TEST(BigNumTest, ModU32MatchesDivMod) {
  Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    BigNum a = BigNum::RandomWithBits(rng, 128);
    uint32_t d = static_cast<uint32_t>(1 + rng.NextBelow(1000000));
    BigNum q, r;
    BigNum::DivMod(a, BigNum(d), q, r);
    BigNum expected = r;
    EXPECT_EQ(BigNum::Compare(BigNum(a.ModU32(d)), expected), 0);
  }
}

TEST(PrimalityTest, KnownPrimes) {
  Rng rng(47);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 1000000007ULL, 2147483647ULL}) {
    EXPECT_TRUE(IsProbablePrime(BigNum(p), rng)) << p;
  }
}

TEST(PrimalityTest, KnownComposites) {
  Rng rng(53);
  // Includes Carmichael numbers 561 and 41041.
  for (uint64_t c : {1ULL, 4ULL, 561ULL, 41041ULL, 1000000008ULL, 65539ULL * 65543ULL}) {
    EXPECT_FALSE(IsProbablePrime(BigNum(c), rng)) << c;
  }
}

TEST(PrimalityTest, GeneratedPrimeHasExactBits) {
  Rng rng(59);
  BigNum p = GeneratePrime(rng, 96);
  EXPECT_EQ(p.BitLength(), 96);
  EXPECT_TRUE(IsProbablePrime(p, rng));
}

// ------------------------------------------------------------------ RSA

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Key generation is the slow part; share one pair across tests.
    Rng rng(61);
    key_pair_ = new RsaKeyPair(GenerateRsaKeyPair(rng, 512));
  }
  static void TearDownTestSuite() {
    delete key_pair_;
    key_pair_ = nullptr;
  }

  static RsaKeyPair* key_pair_;
};

RsaKeyPair* RsaTest::key_pair_ = nullptr;

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Bytes message = ToBytes("TPM says kernel says labelstore says process says S");
  Bytes sig = RsaSign(key_pair_->private_key, message);
  EXPECT_TRUE(RsaVerify(key_pair_->public_key, message, sig));
}

TEST_F(RsaTest, TamperedMessageFails) {
  Bytes message = ToBytes("authentic statement");
  Bytes sig = RsaSign(key_pair_->private_key, message);
  EXPECT_FALSE(RsaVerify(key_pair_->public_key, ToBytes("authentic statemenT"), sig));
}

TEST_F(RsaTest, TamperedSignatureFails) {
  Bytes message = ToBytes("authentic statement");
  Bytes sig = RsaSign(key_pair_->private_key, message);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(RsaVerify(key_pair_->public_key, message, sig));
}

TEST_F(RsaTest, WrongLengthSignatureFails) {
  Bytes message = ToBytes("m");
  Bytes sig = RsaSign(key_pair_->private_key, message);
  sig.pop_back();
  EXPECT_FALSE(RsaVerify(key_pair_->public_key, message, sig));
}

TEST_F(RsaTest, WrongKeyFails) {
  Rng rng(67);
  RsaKeyPair other = GenerateRsaKeyPair(rng, 512);
  Bytes message = ToBytes("m");
  Bytes sig = RsaSign(key_pair_->private_key, message);
  EXPECT_FALSE(RsaVerify(other.public_key, message, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(62);
  Bytes share = rng.RandomBytes(32);
  Result<Bytes> ciphertext = RsaEncrypt(key_pair_->public_key, share, rng);
  ASSERT_TRUE(ciphertext.ok()) << ciphertext.status().ToString();
  // Randomized padding: the ciphertext hides the plaintext even across
  // identical messages.
  Result<Bytes> again = RsaEncrypt(key_pair_->public_key, share, rng);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*ciphertext == *again);
  Result<Bytes> decrypted = RsaDecrypt(key_pair_->private_key, *ciphertext);
  ASSERT_TRUE(decrypted.ok()) << decrypted.status().ToString();
  EXPECT_EQ(*decrypted, share);
}

TEST_F(RsaTest, EncryptRejectsOversizedPlaintext) {
  Rng rng(63);
  Bytes too_long = rng.RandomBytes(64);  // 512-bit modulus: max is 64 - 11.
  EXPECT_FALSE(RsaEncrypt(key_pair_->public_key, too_long, rng).ok());
}

TEST_F(RsaTest, DecryptRejectsTamperedCiphertext) {
  Rng rng(64);
  Bytes share = rng.RandomBytes(32);
  Bytes ciphertext = *RsaEncrypt(key_pair_->public_key, share, rng);
  ciphertext[0] ^= 1;
  Result<Bytes> decrypted = RsaDecrypt(key_pair_->private_key, ciphertext);
  // Either padding rejects it or the plaintext is garbage; it must never
  // round-trip to the original share.
  if (decrypted.ok()) {
    EXPECT_FALSE(*decrypted == share);
  }
  EXPECT_FALSE(RsaDecrypt(key_pair_->private_key, ToBytes("short")).ok());
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  Bytes serialized = key_pair_->public_key.Serialize();
  Result<RsaPublicKey> restored = RsaPublicKey::Deserialize(serialized);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == key_pair_->public_key);
  EXPECT_EQ(restored->Fingerprint(), key_pair_->public_key.Fingerprint());
}

TEST_F(RsaTest, DeserializeAcceptsOnlyTheCanonicalEncoding) {
  const RsaPublicKey& key = key_pair_->public_key;
  Bytes canonical = key.Serialize();
  ASSERT_TRUE(RsaPublicKey::Deserialize(canonical).ok());

  // Each variant still names the same key, so a signature by it verifies.
  Bytes appended = canonical;
  appended.push_back(0);
  Bytes padded_n;
  Bytes n = key.n.ToBytes();
  n.insert(n.begin(), 0);
  AppendLengthPrefixed(padded_n, n);
  AppendLengthPrefixed(padded_n, key.e.ToBytes());
  Bytes padded_e;
  Bytes e = key.e.ToBytes();
  e.insert(e.begin(), 0);
  AppendLengthPrefixed(padded_e, key.n.ToBytes());
  AppendLengthPrefixed(padded_e, e);
  for (const Bytes& variant : {appended, padded_n, padded_e}) {
    EXPECT_FALSE(RsaPublicKey::Deserialize(variant).ok()) << HexOf(variant);
  }
}

TEST_F(RsaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::Deserialize(ToBytes("not a key")).ok());
}

TEST_F(RsaTest, FingerprintIsStableAndUnique) {
  Rng rng(71);
  RsaKeyPair other = GenerateRsaKeyPair(rng, 512);
  EXPECT_EQ(key_pair_->public_key.Fingerprint(), key_pair_->public_key.Fingerprint());
  EXPECT_NE(key_pair_->public_key.Fingerprint(), other.public_key.Fingerprint());
}

}  // namespace
}  // namespace nexus::crypto
