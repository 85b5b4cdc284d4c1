#include "core/certificate.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "nal/parser.h"

namespace nexus::core {

namespace {

constexpr std::string_view kNkBindingTag = "NEXUS_NK_BINDING";
constexpr std::string_view kStatementTag = "NEXUS_LABEL";

Bytes StatementMessage(const nal::Formula& statement) {
  Bytes message = ToBytes(kStatementTag);
  AppendLengthPrefixed(message, ToBytes(statement->ToString()));
  return message;
}

}  // namespace

std::string ShortKeyId(const crypto::RsaPublicKey& key) {
  return crypto::Sha256Hex(key.Serialize()).substr(0, 8);
}

nal::Principal ExternalPrincipalFor(const crypto::RsaPublicKey& ek,
                                    const crypto::RsaPublicKey& nk,
                                    const std::string& nbk_id) {
  return nal::Principal("tpm." + ShortKeyId(ek))
      .Sub("nexus." + ShortKeyId(nk))
      .Sub("boot." + nbk_id);
}

Bytes NkBindingMessage(const crypto::RsaPublicKey& nk, ByteView pcr_composite) {
  Bytes message = ToBytes(kNkBindingTag);
  AppendLengthPrefixed(message, nk.Serialize());
  AppendLengthPrefixed(message, pcr_composite);
  return message;
}

Bytes Certificate::Serialize() const {
  Bytes out;
  AppendLengthPrefixed(out, ToBytes(statement->ToString()));
  AppendLengthPrefixed(out, nk_signature);
  AppendLengthPrefixed(out, nk_public.Serialize());
  AppendLengthPrefixed(out, ek_attestation);
  AppendLengthPrefixed(out, pcr_composite);
  AppendLengthPrefixed(out, ek_public.Serialize());
  return out;
}

Result<Certificate> Certificate::Deserialize(ByteView data) {
  ByteReader reader(data);
  Certificate cert;

  Result<Bytes> statement_text = reader.ReadLengthPrefixed();
  if (!statement_text.ok()) {
    return statement_text.status();
  }
  Result<nal::Formula> statement = nal::ParseFormula(ToString(*statement_text));
  if (!statement.ok()) {
    return statement.status();
  }
  cert.statement = *statement;

  Result<Bytes> nk_sig = reader.ReadLengthPrefixed();
  if (!nk_sig.ok()) {
    return nk_sig.status();
  }
  cert.nk_signature = std::move(*nk_sig);

  Result<Bytes> nk_pub = reader.ReadLengthPrefixed();
  if (!nk_pub.ok()) {
    return nk_pub.status();
  }
  Result<crypto::RsaPublicKey> nk = crypto::RsaPublicKey::Deserialize(*nk_pub);
  if (!nk.ok()) {
    return nk.status();
  }
  cert.nk_public = *nk;

  Result<Bytes> ek_att = reader.ReadLengthPrefixed();
  if (!ek_att.ok()) {
    return ek_att.status();
  }
  cert.ek_attestation = std::move(*ek_att);

  Result<Bytes> composite = reader.ReadLengthPrefixed();
  if (!composite.ok()) {
    return composite.status();
  }
  cert.pcr_composite = std::move(*composite);

  Result<Bytes> ek_pub = reader.ReadLengthPrefixed();
  if (!ek_pub.ok()) {
    return ek_pub.status();
  }
  Result<crypto::RsaPublicKey> ek = crypto::RsaPublicKey::Deserialize(*ek_pub);
  if (!ek.ok()) {
    return ek.status();
  }
  cert.ek_public = *ek;
  // The signatures cover the parsed statement and keys, not these bytes,
  // so any other encoding (trailing bytes, respaced statement text) would
  // verify too and spread as a distinct certificate. Only the one
  // Serialize() writes decodes.
  if (!std::ranges::equal(cert.Serialize(), data)) {
    return InvalidArgument("certificate: non-canonical encoding");
  }
  return cert;
}

Result<nal::Formula> VerifyCertificate(const Certificate& cert,
                                       const crypto::RsaPublicKey& trusted_ek,
                                       ByteView expected_composite) {
  if (!(cert.ek_public == trusted_ek)) {
    return Unauthenticated("certificate EK does not match the trusted EK");
  }
  if (!expected_composite.empty() &&
      !ConstantTimeEquals(cert.pcr_composite, expected_composite)) {
    return Unauthenticated("certificate PCR composite does not match the expected software "
                           "configuration");
  }
  Bytes binding = NkBindingMessage(cert.nk_public, cert.pcr_composite);
  if (!crypto::RsaVerify(cert.ek_public, binding, cert.ek_attestation)) {
    return Unauthenticated("EK attestation of the kernel key failed to verify");
  }
  if (!crypto::RsaVerify(cert.nk_public, StatementMessage(cert.statement), cert.nk_signature)) {
    return Unauthenticated("kernel-key signature over the statement failed to verify");
  }
  return cert.statement;
}

// Exposed for the issuing path in nexus.cc.
Bytes CertificateStatementMessage(const nal::Formula& statement) {
  return StatementMessage(statement);
}

}  // namespace nexus::core
