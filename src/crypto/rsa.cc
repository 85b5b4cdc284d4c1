#include "crypto/rsa.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace nexus::crypto {

namespace {

constexpr uint8_t kDigestPrefix[] = {'N', 'X', 'S', '2', '5', '6'};

// EMSA-PKCS1-v1_5-shaped encoding: 0x00 0x01 FF..FF 0x00 prefix digest.
Bytes EncodeDigest(ByteView message, size_t em_len) {
  Sha256Digest digest = Sha256::Hash(message);
  size_t t_len = sizeof(kDigestPrefix) + digest.size();
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  size_t pad = em_len - t_len - 3;
  em.insert(em.end(), pad, 0xff);
  em.push_back(0x00);
  em.insert(em.end(), kDigestPrefix, kDigestPrefix + sizeof(kDigestPrefix));
  em.insert(em.end(), digest.begin(), digest.end());
  return em;
}

}  // namespace

Bytes RsaPublicKey::Serialize() const {
  Bytes out;
  AppendLengthPrefixed(out, n.ToBytes());
  AppendLengthPrefixed(out, e.ToBytes());
  return out;
}

Result<RsaPublicKey> RsaPublicKey::Deserialize(ByteView data) {
  ByteReader reader(data);
  Result<Bytes> n_bytes = reader.ReadLengthPrefixed();
  if (!n_bytes.ok()) {
    return n_bytes.status();
  }
  Result<Bytes> e_bytes = reader.ReadLengthPrefixed();
  if (!e_bytes.ok()) {
    return e_bytes.status();
  }
  RsaPublicKey key;
  key.n = BigNum::FromBytes(*n_bytes);
  key.e = BigNum::FromBytes(*e_bytes);
  if (key.n.IsZero() || key.e.IsZero()) {
    return InvalidArgument("degenerate RSA public key");
  }
  // Signatures and fingerprints cover the key, not its encoding, so any
  // other encoding of it (trailing bytes, leading zeros) would verify as a
  // distinct blob. Only the one Serialize() writes decodes.
  if (!std::ranges::equal(key.Serialize(), data)) {
    return InvalidArgument("RSA public key: non-canonical encoding");
  }
  return key;
}

std::string RsaPublicKey::Fingerprint() const {
  return Sha256Hex(Serialize());
}

RsaKeyPair GenerateRsaKeyPair(Rng& rng, int modulus_bits) {
  int prime_bits = modulus_bits / 2;
  BigNum e(65537);
  for (;;) {
    BigNum p = GeneratePrime(rng, prime_bits);
    BigNum q = GeneratePrime(rng, prime_bits);
    if (p == q) {
      continue;
    }
    BigNum n = BigNum::Mul(p, q);
    BigNum phi = BigNum::Mul(BigNum::Sub(p, BigNum(1)), BigNum::Sub(q, BigNum(1)));
    if (BigNum::Compare(BigNum::Gcd(e, phi), BigNum(1)) != 0) {
      continue;
    }
    BigNum d = BigNum::ModInverse(e, phi);
    if (d.IsZero()) {
      continue;
    }
    RsaKeyPair pair;
    pair.public_key = RsaPublicKey{n, e};
    pair.private_key = RsaPrivateKey{n, e, d};
    return pair;
  }
}

Bytes RsaSign(const RsaPrivateKey& key, ByteView message) {
  size_t em_len = static_cast<size_t>((key.n.BitLength() + 7) / 8);
  Bytes em = EncodeDigest(message, em_len);
  BigNum m = BigNum::FromBytes(em);
  BigNum s = BigNum::ModExp(m, key.d, key.n);
  Bytes sig = s.ToBytes();
  // Left-pad to the modulus length for a fixed-width signature.
  if (sig.size() < em_len) {
    Bytes padded(em_len - sig.size(), 0);
    Append(padded, sig);
    return padded;
  }
  return sig;
}

bool RsaVerify(const RsaPublicKey& key, ByteView message, ByteView signature) {
  size_t em_len = static_cast<size_t>((key.n.BitLength() + 7) / 8);
  if (signature.size() != em_len) {
    return false;
  }
  BigNum s = BigNum::FromBytes(signature);
  if (BigNum::Compare(s, key.n) >= 0) {
    return false;
  }
  BigNum m = BigNum::ModExp(s, key.e, key.n);
  Bytes recovered = m.ToBytes();
  // Restore stripped leading zeros.
  Bytes em(em_len, 0);
  if (recovered.size() > em_len) {
    return false;
  }
  std::copy(recovered.begin(), recovered.end(), em.end() - static_cast<ptrdiff_t>(recovered.size()));
  Bytes expected = EncodeDigest(message, em_len);
  return ConstantTimeEquals(em, expected);
}

Result<Bytes> RsaEncrypt(const RsaPublicKey& key, ByteView message, Rng& rng) {
  size_t em_len = static_cast<size_t>((key.n.BitLength() + 7) / 8);
  if (message.size() + 11 > em_len) {
    return InvalidArgument("RSA plaintext too long for the modulus");
  }
  // 0x00 0x02 <nonzero random padding> 0x00 <message>.
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x02);
  for (size_t i = 0; i < em_len - message.size() - 3; ++i) {
    uint8_t pad = 0;
    while (pad == 0) {
      pad = static_cast<uint8_t>(rng.NextBelow(256));
    }
    em.push_back(pad);
  }
  em.push_back(0x00);
  Append(em, message);
  BigNum m = BigNum::FromBytes(em);
  BigNum c = BigNum::ModExp(m, key.e, key.n);
  Bytes out = c.ToBytes();
  if (out.size() < em_len) {
    Bytes padded(em_len - out.size(), 0);
    Append(padded, out);
    return padded;
  }
  return out;
}

Result<Bytes> RsaDecrypt(const RsaPrivateKey& key, ByteView ciphertext) {
  size_t em_len = static_cast<size_t>((key.n.BitLength() + 7) / 8);
  if (ciphertext.size() != em_len) {
    return InvalidArgument("RSA ciphertext has the wrong length");
  }
  BigNum c = BigNum::FromBytes(ciphertext);
  if (BigNum::Compare(c, key.n) >= 0) {
    return InvalidArgument("RSA ciphertext out of range");
  }
  BigNum m = BigNum::ModExp(c, key.d, key.n);
  Bytes stripped = m.ToBytes();  // Leading 0x00 of the padding is stripped.
  if (stripped.size() + 1 > em_len) {
    return InvalidArgument("malformed RSA plaintext");
  }
  Bytes em(em_len - stripped.size(), 0);
  Append(em, stripped);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    return InvalidArgument("bad RSA encryption padding");
  }
  size_t separator = 2;
  while (separator < em.size() && em[separator] != 0x00) {
    ++separator;
  }
  if (separator < 10 || separator == em.size()) {
    return InvalidArgument("bad RSA encryption padding");
  }
  return Bytes(em.begin() + static_cast<ptrdiff_t>(separator) + 1, em.end());
}

}  // namespace nexus::crypto
