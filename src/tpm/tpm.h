// Software model of a TPM v1.1/1.2 secure coprocessor.
//
// The paper's architecture uses the TPM through a narrow logical interface:
//   - PCRs, extended with measurements during boot (§3.4),
//   - two Data Integrity Registers (DIRcur/DIRnew) whose access is gated on
//     PCR state — the anchor of the crash-consistent VDIR protocol (§3.3),
//   - seal/unseal of secrets bound to a PCR composite (SRK-rooted),
//   - quotes: signed attestations of the current PCR composite, and
//   - a small amount of NVRAM (v1.2).
//
// This model implements that state machine with real hashing (SHA-1 for the
// PCR/DIR registers, matching the 160-bit TPM registers) and real RSA for
// the endorsement key and quotes. Hardware tamper resistance is out of
// scope: the model enforces the same access rules the chip would.
#ifndef NEXUS_TPM_TPM_H_
#define NEXUS_TPM_TPM_H_

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "crypto/aes.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/status.h"

namespace nexus::tpm {

inline constexpr int kNumPcrs = 16;
inline constexpr int kNumDirs = 2;  // TPM v1.1: DIRcur and DIRnew.

using PcrValue = crypto::Sha1Digest;

// A PCR composite: the hash of the selected PCR values, used by DIR
// policies, seal blobs, and quotes.
Bytes ComputePcrComposite(const std::vector<PcrValue>& values);

class Tpm {
 public:
  // "Manufactures" a TPM: generates the endorsement key (EK). `key_bits`
  // trades RSA strength for test speed.
  explicit Tpm(Rng& rng, int key_bits = 512);

  // ------------------------------------------------------------- Power
  // Power cycle: PCRs reset to zero; persistent state (EK, owner secret,
  // DIRs, NVRAM, seal blobs remain valid) survives. Increments the boot
  // counter used by the Nexus boot key (NBK).
  void PowerCycle();
  uint64_t boot_counter() const { return boot_counter_; }

  // -------------------------------------------------------------- PCRs
  // Extend: PCR <- SHA1(PCR || measurement_digest).
  Status ExtendPcr(int index, const crypto::Sha1Digest& measurement);
  // Convenience: measure (SHA-1) arbitrary data and extend.
  Status MeasureAndExtend(int index, ByteView data);
  Result<PcrValue> ReadPcr(int index) const;
  // Composite over a selection of PCR indices (sorted, deduplicated).
  Result<Bytes> ReadComposite(const std::vector<int>& indices) const;

  // --------------------------------------------------------- Ownership
  // Takes ownership: generates the storage root key (SRK) and records the
  // current composite over `policy_pcrs` as the access policy for DIRs and
  // sealed data. Fails if already owned.
  Status TakeOwnership(Rng& rng, const std::vector<int>& policy_pcrs);
  bool IsOwned() const { return owned_; }

  // --------------------------------------------------------------- DIRs
  // DIR access requires ownership AND the current PCR composite to match
  // the ownership-time policy (a modified kernel cannot reach the DIRs).
  Status WriteDir(int index, const crypto::Sha1Digest& value);
  Result<crypto::Sha1Digest> ReadDir(int index) const;

  // -------------------------------------------------------- Seal/Unseal
  // Seals `data` so it can only be unsealed when the composite over `pcrs`
  // matches its value at seal time. The blob is encrypted and integrity
  // protected under the SRK.
  Result<Bytes> Seal(ByteView data, const std::vector<int>& pcrs) const;
  Result<Bytes> Unseal(ByteView blob) const;

  // -------------------------------------------------------------- Quote
  // Signs (nonce || composite over `pcrs`) with the EK. (Real deployments
  // use an AIK via a privacy CA — §3.4 notes Nexus privacy authorities; the
  // model signs with the EK directly.)
  Result<Bytes> Quote(ByteView nonce, const std::vector<int>& pcrs) const;
  const crypto::RsaPublicKey& endorsement_public_key() const { return ek_.public_key; }
  // Verifies a quote produced by `Quote` against an expected composite.
  static bool VerifyQuote(const crypto::RsaPublicKey& ek, ByteView nonce,
                          ByteView expected_composite, ByteView signature);

  // Signs arbitrary data under the EK (used to certify the Nexus kernel key
  // at first boot). Requires ownership.
  Result<Bytes> SignWithEk(ByteView data) const;

  // -------------------------------------------------------------- NVRAM
  // TPM v1.2-style NVRAM: define once, then read/write. If `pcr_bound`,
  // access is gated on the ownership policy composite like DIRs.
  Status NvDefine(uint32_t index, size_t size, bool pcr_bound);
  Status NvWrite(uint32_t index, ByteView data);
  Result<Bytes> NvRead(uint32_t index) const;

 private:
  struct NvRegion {
    Bytes data;
    bool pcr_bound = false;
  };

  bool PolicySatisfied() const;
  crypto::AesKey SealKey() const;

  crypto::RsaKeyPair ek_;
  std::array<PcrValue, kNumPcrs> pcrs_{};
  std::array<crypto::Sha1Digest, kNumDirs> dirs_{};
  bool owned_ = false;
  Bytes srk_secret_;             // Symmetric stand-in for the RSA SRK.
  std::vector<int> policy_pcrs_;
  Bytes policy_composite_;
  std::map<uint32_t, NvRegion> nvram_;
  uint64_t boot_counter_ = 0;
};

}  // namespace nexus::tpm

#endif  // NEXUS_TPM_TPM_H_
