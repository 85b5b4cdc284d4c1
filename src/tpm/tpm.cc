#include "tpm/tpm.h"

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace nexus::tpm {

namespace {

constexpr std::string_view kQuoteTag = "TPM_QUOTE";
constexpr std::string_view kSealTag = "TPM_SEAL";

}  // namespace

Bytes ComputePcrComposite(const std::vector<PcrValue>& values) {
  crypto::Sha1 hasher;
  for (const PcrValue& v : values) {
    hasher.Update(ByteView(v.data(), v.size()));
  }
  crypto::Sha1Digest d = hasher.Finish();
  return Bytes(d.begin(), d.end());
}

Tpm::Tpm(Rng& rng, int key_bits) : ek_(crypto::GenerateRsaKeyPair(rng, key_bits)) {}

void Tpm::PowerCycle() {
  pcrs_.fill(PcrValue{});
  ++boot_counter_;
}

Status Tpm::ExtendPcr(int index, const crypto::Sha1Digest& measurement) {
  if (index < 0 || index >= kNumPcrs) {
    return OutOfRange("PCR index out of range");
  }
  crypto::Sha1 hasher;
  hasher.Update(ByteView(pcrs_[index].data(), pcrs_[index].size()));
  hasher.Update(ByteView(measurement.data(), measurement.size()));
  pcrs_[index] = hasher.Finish();
  return OkStatus();
}

Status Tpm::MeasureAndExtend(int index, ByteView data) {
  return ExtendPcr(index, crypto::Sha1::Hash(data));
}

Result<PcrValue> Tpm::ReadPcr(int index) const {
  if (index < 0 || index >= kNumPcrs) {
    return OutOfRange("PCR index out of range");
  }
  return pcrs_[index];
}

Result<Bytes> Tpm::ReadComposite(const std::vector<int>& indices) const {
  std::vector<int> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<PcrValue> values;
  for (int i : sorted) {
    Result<PcrValue> v = ReadPcr(i);
    if (!v.ok()) {
      return v.status();
    }
    values.push_back(*v);
  }
  return ComputePcrComposite(values);
}

Status Tpm::TakeOwnership(Rng& rng, const std::vector<int>& policy_pcrs) {
  if (owned_) {
    return AlreadyExists("TPM already owned");
  }
  Result<Bytes> composite = ReadComposite(policy_pcrs);
  if (!composite.ok()) {
    return composite.status();
  }
  owned_ = true;
  srk_secret_ = rng.RandomBytes(32);
  policy_pcrs_ = policy_pcrs;
  policy_composite_ = *composite;
  dirs_.fill(crypto::Sha1Digest{});
  return OkStatus();
}

bool Tpm::PolicySatisfied() const {
  if (!owned_) {
    return false;
  }
  Result<Bytes> composite = ReadComposite(policy_pcrs_);
  return composite.ok() && *composite == policy_composite_;
}

Status Tpm::WriteDir(int index, const crypto::Sha1Digest& value) {
  if (index < 0 || index >= kNumDirs) {
    return OutOfRange("DIR index out of range");
  }
  if (!PolicySatisfied()) {
    return PermissionDenied("PCR state does not satisfy the DIR access policy");
  }
  dirs_[index] = value;
  return OkStatus();
}

Result<crypto::Sha1Digest> Tpm::ReadDir(int index) const {
  if (index < 0 || index >= kNumDirs) {
    return OutOfRange("DIR index out of range");
  }
  if (!PolicySatisfied()) {
    return PermissionDenied("PCR state does not satisfy the DIR access policy");
  }
  return dirs_[index];
}

crypto::AesKey Tpm::SealKey() const {
  Bytes material = srk_secret_;
  Append(material, ToBytes(kSealTag));
  crypto::Sha256Digest digest = crypto::Sha256::Hash(material);
  crypto::AesKey key;
  std::copy_n(digest.begin(), key.size(), key.begin());
  return key;
}

Result<Bytes> Tpm::Seal(ByteView data, const std::vector<int>& pcrs) const {
  if (!owned_) {
    return FailedPrecondition("TPM not owned");
  }
  Result<Bytes> composite = ReadComposite(pcrs);
  if (!composite.ok()) {
    return composite.status();
  }
  // Payload: [pcr index list][composite][data], CTR-encrypted under the SRK
  // with an HMAC over the ciphertext.
  Bytes payload;
  AppendU32(payload, static_cast<uint32_t>(pcrs.size()));
  for (int i : pcrs) {
    AppendU32(payload, static_cast<uint32_t>(i));
  }
  AppendLengthPrefixed(payload, *composite);
  AppendLengthPrefixed(payload, data);

  crypto::AesCtr cipher(SealKey(), /*nonce=*/0x5ea1);
  Bytes encrypted = cipher.Crypt(0, payload);
  Bytes mac = crypto::HmacSha256Bytes(srk_secret_, encrypted);

  Bytes blob;
  AppendLengthPrefixed(blob, mac);
  AppendLengthPrefixed(blob, encrypted);
  return blob;
}

Result<Bytes> Tpm::Unseal(ByteView blob) const {
  if (!owned_) {
    return FailedPrecondition("TPM not owned");
  }
  ByteReader reader(blob);
  Result<Bytes> mac = reader.ReadLengthPrefixed();
  if (!mac.ok()) {
    return mac.status();
  }
  Result<Bytes> encrypted = reader.ReadLengthPrefixed();
  if (!encrypted.ok()) {
    return encrypted.status();
  }
  Bytes expected_mac = crypto::HmacSha256Bytes(srk_secret_, *encrypted);
  if (!ConstantTimeEquals(*mac, expected_mac)) {
    return Corruption("seal blob integrity check failed");
  }

  crypto::AesCtr cipher(SealKey(), /*nonce=*/0x5ea1);
  Bytes payload = cipher.Crypt(0, *encrypted);
  ByteReader payload_reader(payload);
  Result<uint32_t> count = payload_reader.ReadU32();
  if (!count.ok()) {
    return count.status();
  }
  std::vector<int> pcrs;
  for (uint32_t i = 0; i < *count; ++i) {
    Result<uint32_t> idx = payload_reader.ReadU32();
    if (!idx.ok()) {
      return idx.status();
    }
    pcrs.push_back(static_cast<int>(*idx));
  }
  Result<Bytes> sealed_composite = payload_reader.ReadLengthPrefixed();
  if (!sealed_composite.ok()) {
    return sealed_composite.status();
  }
  Result<Bytes> data = payload_reader.ReadLengthPrefixed();
  if (!data.ok()) {
    return data.status();
  }

  Result<Bytes> current = ReadComposite(pcrs);
  if (!current.ok()) {
    return current.status();
  }
  if (*current != *sealed_composite) {
    return PermissionDenied("PCR state does not match the sealed composite");
  }
  return data;
}

Result<Bytes> Tpm::Quote(ByteView nonce, const std::vector<int>& pcrs) const {
  Result<Bytes> composite = ReadComposite(pcrs);
  if (!composite.ok()) {
    return composite.status();
  }
  Bytes message = ToBytes(kQuoteTag);
  AppendLengthPrefixed(message, nonce);
  AppendLengthPrefixed(message, *composite);
  return crypto::RsaSign(ek_.private_key, message);
}

bool Tpm::VerifyQuote(const crypto::RsaPublicKey& ek, ByteView nonce,
                      ByteView expected_composite, ByteView signature) {
  Bytes message = ToBytes(kQuoteTag);
  AppendLengthPrefixed(message, nonce);
  AppendLengthPrefixed(message, expected_composite);
  return crypto::RsaVerify(ek, message, signature);
}

Result<Bytes> Tpm::SignWithEk(ByteView data) const {
  if (!owned_) {
    return FailedPrecondition("TPM not owned");
  }
  return crypto::RsaSign(ek_.private_key, data);
}

Status Tpm::NvDefine(uint32_t index, size_t size, bool pcr_bound) {
  if (nvram_.contains(index)) {
    return AlreadyExists("NVRAM region already defined");
  }
  nvram_[index] = NvRegion{Bytes(size, 0), pcr_bound};
  return OkStatus();
}

Status Tpm::NvWrite(uint32_t index, ByteView data) {
  auto it = nvram_.find(index);
  if (it == nvram_.end()) {
    return NotFound("NVRAM region not defined");
  }
  if (it->second.pcr_bound && !PolicySatisfied()) {
    return PermissionDenied("PCR state does not satisfy the NVRAM access policy");
  }
  if (data.size() > it->second.data.size()) {
    return OutOfRange("write exceeds NVRAM region size");
  }
  std::copy(data.begin(), data.end(), it->second.data.begin());
  return OkStatus();
}

Result<Bytes> Tpm::NvRead(uint32_t index) const {
  auto it = nvram_.find(index);
  if (it == nvram_.end()) {
    return NotFound("NVRAM region not defined");
  }
  if (it->second.pcr_bound && !PolicySatisfied()) {
    return PermissionDenied("PCR state does not satisfy the NVRAM access policy");
  }
  return it->second.data;
}

}  // namespace nexus::tpm
