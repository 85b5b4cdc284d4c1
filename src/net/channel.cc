#include "net/channel.h"

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace nexus::net {

namespace {

constexpr std::string_view kAuthTag = "NEXUS_CHANNEL_AUTH";
constexpr std::string_view kKeyTag = "NEXUS_CHANNEL_KEY";
constexpr std::string_view kMsgTag = "NEXUS_CHANNEL_MSG";
constexpr uint8_t kRoleInitiator = 0;
constexpr uint8_t kRoleResponder = 1;

// Feeds the low `width` bytes of `value` to `hash` big-endian, the bytes
// AppendU32 (width 4) and AppendU64 (width 8) would write.
void HashBigEndian(crypto::Sha256& hash, uint64_t value, int width) {
  uint8_t be[8];
  for (int i = 0; i < width; ++i) {
    be[i] = static_cast<uint8_t>(value >> (8 * (width - 1 - i)));
  }
  hash.Update(ByteView(be, width));
}

ByteView AsBytes(std::string_view text) {
  return ByteView(reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

}  // namespace

AttestedChannel::AttestedChannel(core::Nexus* local, Transport* transport,
                                 ChannelServices* services, NodeId self, NodeId peer,
                                 uint64_t channel_id, bool initiator)
    : local_(local),
      transport_(transport),
      services_(services),
      self_(std::move(self)),
      peer_(std::move(peer)),
      channel_id_(channel_id),
      initiator_(initiator) {}

// ------------------------------------------------------------- handshake

Bytes AttestedChannel::Hello::Serialize() const {
  Bytes out;
  AppendLengthPrefixed(out, nonce);
  AppendLengthPrefixed(out, nk.Serialize());
  AppendLengthPrefixed(out, ek.Serialize());
  AppendLengthPrefixed(out, ek_attestation);
  AppendLengthPrefixed(out, pcr_composite);
  AppendLengthPrefixed(out, ToBytes(nbk_id));
  return out;
}

Result<AttestedChannel::Hello> AttestedChannel::Hello::Deserialize(ByteView data) {
  ByteReader reader(data);
  Hello hello;
  Result<Bytes> nonce = reader.ReadLengthPrefixed();
  if (!nonce.ok()) {
    return nonce.status();
  }
  hello.nonce = std::move(*nonce);
  Result<Bytes> nk = reader.ReadLengthPrefixed();
  if (!nk.ok()) {
    return nk.status();
  }
  Result<crypto::RsaPublicKey> nk_key = crypto::RsaPublicKey::Deserialize(*nk);
  if (!nk_key.ok()) {
    return nk_key.status();
  }
  hello.nk = *nk_key;
  Result<Bytes> ek = reader.ReadLengthPrefixed();
  if (!ek.ok()) {
    return ek.status();
  }
  Result<crypto::RsaPublicKey> ek_key = crypto::RsaPublicKey::Deserialize(*ek);
  if (!ek_key.ok()) {
    return ek_key.status();
  }
  hello.ek = *ek_key;
  Result<Bytes> att = reader.ReadLengthPrefixed();
  if (!att.ok()) {
    return att.status();
  }
  hello.ek_attestation = std::move(*att);
  Result<Bytes> composite = reader.ReadLengthPrefixed();
  if (!composite.ok()) {
    return composite.status();
  }
  hello.pcr_composite = std::move(*composite);
  Result<Bytes> nbk = reader.ReadLengthPrefixed();
  if (!nbk.ok()) {
    return nbk.status();
  }
  hello.nbk_id = ToString(*nbk);
  return hello;
}

AttestedChannel::Hello AttestedChannel::MakeLocalHello() {
  Hello hello;
  if (local_nonce_.empty()) {
    local_nonce_ = local_->rng().RandomBytes(32);
  }
  hello.nonce = local_nonce_;
  hello.nk = local_->nexus_public_key();
  hello.ek = local_->tpm().endorsement_public_key();
  hello.ek_attestation = local_->nk_ek_attestation();
  hello.pcr_composite = local_->boot_composite();
  // The boot tag of our external principal chain (last path element of
  // tpm.<ek8>.nexus.<nk8>.boot.<nbk8>).
  nal::Principal external = local_->ExternalKernelPrincipal();
  std::string boot_tag = external.path().empty() ? "" : external.path().back();
  hello.nbk_id = boot_tag.size() > 5 ? boot_tag.substr(5) : boot_tag;  // strip "boot."
  return hello;
}

Status AttestedChannel::VerifyPeerHello(const Hello& hello) {
  // (1) The peer's TPM must be a registered trust anchor: this is where a
  // wrong-EK peer (unknown TPM, or an impostor presenting a self-made EK)
  // is rejected.
  if (!local_->IsTrustedPeerEk(hello.ek)) {
    return Unauthenticated("peer EK is not a registered trust anchor");
  }
  // (2) The EK must endorse the presented NK for the presented boot-time
  // PCR composite — the TPM-rooted step of the principal chain
  // tpm.<ek8> says nexus.<nk8> speaksfor it.
  Bytes binding = core::NkBindingMessage(hello.nk, hello.pcr_composite);
  if (!crypto::RsaVerify(hello.ek, binding, hello.ek_attestation)) {
    return Unauthenticated("EK endorsement of the peer kernel key failed to verify");
  }
  return OkStatus();
}

Bytes AttestedChannel::AuthTranscript(uint8_t role) const {
  // Signed by the NK named inside the hellos; covers both nonces (fresh per
  // channel, so a recorded handshake cannot be replayed), both key chains,
  // the channel id, the encrypted key shares seen so far, and the signer's
  // role (so a reflected signature cannot stand in for the other side).
  const Bytes& initiator_hello = initiator_ ? local_hello_bytes_ : peer_hello_bytes_;
  const Bytes& responder_hello = initiator_ ? peer_hello_bytes_ : local_hello_bytes_;
  Bytes transcript = ToBytes(kAuthTag);
  AppendU64(transcript, channel_id_);
  transcript.push_back(role);
  AppendLengthPrefixed(transcript, initiator_hello);
  AppendLengthPrefixed(transcript, responder_hello);
  AppendLengthPrefixed(transcript, enc_share_responder_);
  if (role == kRoleInitiator) {
    // The responder signs before the initiator's share exists.
    AppendLengthPrefixed(transcript, enc_share_initiator_);
  }
  return transcript;
}

void AttestedChannel::DeriveSessionKeys() {
  Bytes base = ToBytes(kKeyTag);
  AppendU64(base, channel_id_);
  const Bytes& initiator_hello = initiator_ ? local_hello_bytes_ : peer_hello_bytes_;
  const Bytes& responder_hello = initiator_ ? peer_hello_bytes_ : local_hello_bytes_;
  AppendLengthPrefixed(base, initiator_hello);
  AppendLengthPrefixed(base, responder_hello);
  // The secret inputs: both RSA-transported shares, in role order. Without
  // these, everything above is public and the keys would be computable by
  // any fabric observer.
  const Bytes& initiator_share = initiator_ ? local_share_ : peer_share_;
  const Bytes& responder_share = initiator_ ? peer_share_ : local_share_;
  AppendLengthPrefixed(base, initiator_share);
  AppendLengthPrefixed(base, responder_share);

  Bytes enc_material = base;
  enc_material.push_back(0x01);
  crypto::Sha256Digest enc = crypto::Sha256::Hash(enc_material);
  crypto::AesKey enc_key;
  std::copy(enc.begin(), enc.begin() + crypto::kAesKeySize, enc_key.begin());
  cipher_ = crypto::Aes128(enc_key);

  Bytes mac_material = base;
  mac_material.push_back(0x02);
  crypto::Sha256Digest mac = crypto::Sha256::Hash(mac_material);
  mac_key_ = crypto::HmacSha256Key(ByteView(mac.data(), mac.size()));
}

void AttestedChannel::Fail(const std::string& reason) {
  state_ = ChannelState::kFailed;
  failure_ = reason;
}

Status AttestedChannel::Connect() {
  if (!initiator_) {
    return FailedPrecondition("only the initiating side calls Connect");
  }
  // One connector at a time; a racer that finds the channel established on
  // entry (the first call finished the handshake) returns immediately.
  std::lock_guard<std::mutex> lock(connect_mu_);
  if (established()) {
    return OkStatus();
  }
  state_ = ChannelState::kConnecting;
  // Generate the hello exactly once per channel. A retry after message
  // loss must resend the SAME bytes: the responder pins the first hello it
  // sees on a channel id and answers duplicates with its cached hello_ack,
  // so a regenerated (fresh-nonce) hello would be ignored forever and wedge
  // the handshake. Freshness is per-handshake, not per-transmission — the
  // transcript signatures pin this nonce either way.
  if (local_hello_bytes_.empty()) {
    local_hello_bytes_ = MakeLocalHello().Serialize();
  }
  Status sent = transport_->Send(
      Message{self_, peer_, channel_id_, "hello", local_hello_bytes_});
  if (!sent.ok()) {
    return sent;
  }
  transport_->DeliverAll();
  if (state_ == ChannelState::kFailed) {
    return Unauthenticated("handshake rejected: " + failure_);
  }
  if (!established()) {
    return Unavailable("handshake did not complete (message loss?); retry Connect");
  }
  return OkStatus();
}

void AttestedChannel::OnTransportMessage(const Message& message) {
  if (message.kind == "hello") {
    HandleHello(message);
  } else if (message.kind == "hello_ack") {
    HandleHelloAck(message);
  } else if (message.kind == "auth") {
    HandleAuth(message);
  } else if (message.kind == "data") {
    HandleData(message);
  }
}

void AttestedChannel::HandleHello(const Message& message) {
  if (initiator_) {
    return;  // Role confusion; ignore.
  }
  if (!peer_hello_bytes_.empty() && !(peer_hello_bytes_ == message.payload)) {
    return;  // A different hello on an in-use channel id: ignore.
  }
  bool duplicate = !peer_hello_bytes_.empty();
  if (!duplicate) {
    Result<Hello> hello = Hello::Deserialize(message.payload);
    if (!hello.ok()) {
      Fail("malformed hello: " + hello.status().ToString());
      return;
    }
    Status verified = VerifyPeerHello(*hello);
    if (!verified.ok()) {
      Fail(verified.ToString());
      return;
    }
    state_ = ChannelState::kConnecting;
    peer_hello_bytes_ = message.payload;
    peer_ek_ = hello->ek;
    peer_nk_ = hello->nk;
    peer_nbk_id_ = hello->nbk_id;
    local_hello_bytes_ = MakeLocalHello().Serialize();
  }
  // hello_ack = our hello, our key share encrypted to the initiator's NK,
  // and our transcript signature. The encrypted share is generated once and
  // resent verbatim on duplicate hellos (RSA padding is randomized; the
  // transcript signature pins the exact ciphertext).
  if (local_share_.empty()) {
    local_share_ = local_->rng().RandomBytes(32);
    Result<Bytes> enc = crypto::RsaEncrypt(peer_nk_, local_share_, local_->rng());
    if (!enc.ok()) {
      Fail("failed to encrypt session key share: " + enc.status().ToString());
      return;
    }
    enc_share_responder_ = *enc;
  }
  SendHelloAck();
}

void AttestedChannel::SendHelloAck() {
  Bytes ack;
  AppendLengthPrefixed(ack, local_hello_bytes_);
  AppendLengthPrefixed(ack, enc_share_responder_);
  AppendLengthPrefixed(ack, local_->NkSign(AuthTranscript(kRoleResponder)));
  transport_->Send(Message{self_, peer_, channel_id_, "hello_ack", std::move(ack)});
}

void AttestedChannel::HandleHelloAck(const Message& message) {
  if (!initiator_ || state_ == ChannelState::kFailed) {
    return;
  }
  if (established()) {
    // Duplicate ack after a lost auth: resend the cached auth verbatim.
    transport_->Send(Message{self_, peer_, channel_id_, "auth", auth_payload_});
    return;
  }
  ByteReader reader(message.payload);
  Result<Bytes> hello_bytes = reader.ReadLengthPrefixed();
  Result<Bytes> enc_share = hello_bytes.ok() ? reader.ReadLengthPrefixed() : hello_bytes;
  Result<Bytes> signature = enc_share.ok() ? reader.ReadLengthPrefixed() : enc_share;
  if (!signature.ok()) {
    Fail("malformed hello_ack");
    return;
  }
  if (peer_hello_bytes_.empty()) {
    Result<Hello> hello = Hello::Deserialize(*hello_bytes);
    if (!hello.ok()) {
      Fail("malformed responder hello: " + hello.status().ToString());
      return;
    }
    Status verified = VerifyPeerHello(*hello);
    if (!verified.ok()) {
      Fail(verified.ToString());
      return;
    }
    peer_hello_bytes_ = *hello_bytes;
    peer_ek_ = hello->ek;
    peer_nk_ = hello->nk;
    peer_nbk_id_ = hello->nbk_id;
  } else if (!(peer_hello_bytes_ == *hello_bytes)) {
    return;  // Conflicting ack: ignore.
  }
  enc_share_responder_ = *enc_share;
  // (3) Proof of NK possession + freshness: the transcript includes our
  // nonce and the responder's encrypted share, so this signature cannot
  // come from a recorded session nor survive share substitution.
  if (!crypto::RsaVerify(peer_nk_, AuthTranscript(kRoleResponder), *signature)) {
    Fail("responder transcript signature failed to verify");
    return;
  }
  Result<Bytes> responder_share = local_->NkDecrypt(enc_share_responder_);
  if (!responder_share.ok()) {
    Fail("could not decrypt responder key share");
    return;
  }
  peer_share_ = *responder_share;
  local_share_ = local_->rng().RandomBytes(32);
  Result<Bytes> enc = crypto::RsaEncrypt(peer_nk_, local_share_, local_->rng());
  if (!enc.ok()) {
    Fail("failed to encrypt session key share: " + enc.status().ToString());
    return;
  }
  enc_share_initiator_ = *enc;
  DeriveSessionKeys();
  state_ = ChannelState::kEstablished;

  Bytes auth;
  AppendLengthPrefixed(auth, enc_share_initiator_);
  AppendLengthPrefixed(auth, local_->NkSign(AuthTranscript(kRoleInitiator)));
  auth_payload_ = auth;
  transport_->Send(Message{self_, peer_, channel_id_, "auth", std::move(auth)});
}

void AttestedChannel::HandleAuth(const Message& message) {
  if (initiator_ || state_ == ChannelState::kFailed || peer_hello_bytes_.empty()) {
    return;
  }
  if (established()) {
    return;  // Duplicate auth after an initiator retry.
  }
  ByteReader reader(message.payload);
  Result<Bytes> enc_share = reader.ReadLengthPrefixed();
  Result<Bytes> signature = enc_share.ok() ? reader.ReadLengthPrefixed() : enc_share;
  if (!signature.ok()) {
    Fail("malformed auth");
    return;
  }
  enc_share_initiator_ = *enc_share;
  if (!crypto::RsaVerify(peer_nk_, AuthTranscript(kRoleInitiator), *signature)) {
    Fail("initiator transcript signature failed to verify");
    return;
  }
  Result<Bytes> initiator_share = local_->NkDecrypt(enc_share_initiator_);
  if (!initiator_share.ok()) {
    Fail("could not decrypt initiator key share");
    return;
  }
  peer_share_ = *initiator_share;
  DeriveSessionKeys();
  state_ = ChannelState::kEstablished;
}

// ----------------------------------------------------------- secure data

crypto::Sha256Digest AttestedChannel::FrameTag(uint64_t seq, uint8_t direction,
                                               ByteView service, uint64_t request_id,
                                               uint8_t is_response, ByteView ciphertext) const {
  crypto::Sha256 inner = mac_key_.Begin();
  inner.Update(AsBytes(kMsgTag));
  HashBigEndian(inner, channel_id_, 8);
  HashBigEndian(inner, seq, 8);
  inner.Update(ByteView(&direction, 1));
  HashBigEndian(inner, service.size(), 4);
  inner.Update(service);
  HashBigEndian(inner, request_id, 8);
  inner.Update(ByteView(&is_response, 1));
  HashBigEndian(inner, ciphertext.size(), 4);
  inner.Update(ciphertext);
  return mac_key_.Finish(inner);
}

Status AttestedChannel::SendData(const std::string& service, uint64_t request_id,
                                 bool is_response, ByteView payload) {
  if (!established()) {
    return FailedPrecondition("channel to " + peer_ + " is not established");
  }
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    seq = send_seq_++;
  }
  stats_.data_sent->Increment();
  uint8_t direction = initiator_ ? kRoleInitiator : kRoleResponder;
  uint8_t response_flag = is_response ? 1 : 0;

  // wire = seq | direction | service | request_id | response flag |
  //        ciphertext | tag, the three byte strings length-prefixed. The
  //        payload is copied in and encrypted in place.
  Bytes wire;
  wire.reserve(8 + 1 + 4 + service.size() + 8 + 1 + 4 + payload.size() + 4 +
               crypto::kSha256DigestSize);
  AppendU64(wire, seq);
  wire.push_back(direction);
  AppendLengthPrefixed(wire, AsBytes(service));
  AppendU64(wire, request_id);
  wire.push_back(response_flag);
  AppendLengthPrefixed(wire, payload);
  std::span<uint8_t> ciphertext(wire.data() + wire.size() - payload.size(), payload.size());
  // Per-message CTR stream: direction in the top bit keeps the two
  // directions' keystreams disjoint under the shared key.
  uint64_t nonce = (static_cast<uint64_t>(direction) << 63) | seq;
  crypto::AesCtr(cipher_, nonce).CryptInPlace(0, ciphertext);
  crypto::Sha256Digest tag =
      FrameTag(seq, direction, AsBytes(service), request_id, response_flag, ciphertext);
  AppendLengthPrefixed(wire, ByteView(tag.data(), tag.size()));
  return transport_->Send(Message{self_, peer_, channel_id_, "data", std::move(wire)});
}

void AttestedChannel::HandleData(const Message& message) {
  if (!established()) {
    // Data while we are still mid-handshake means the peer established and
    // our last handshake message was lost. A responder re-acks: the
    // established initiator answers a duplicate ack by resending its cached
    // auth, which completes us. (The data message itself is lost — callers
    // retry at their own layer.)
    if (!initiator_ && state_ == ChannelState::kConnecting &&
        !peer_hello_bytes_.empty() && !enc_share_responder_.empty()) {
      SendHelloAck();
    }
    return;
  }
  ByteReader reader(message.payload);
  Result<uint64_t> seq = reader.ReadU64();
  Result<uint8_t> direction = seq.ok() ? reader.ReadU8() : seq.status();
  Result<Bytes> service = direction.ok() ? reader.ReadLengthPrefixed() : direction.status();
  Result<uint64_t> request_id = service.ok() ? reader.ReadU64() : service.status();
  Result<uint8_t> is_response = request_id.ok() ? reader.ReadU8() : request_id.status();
  Result<Bytes> ciphertext = is_response.ok() ? reader.ReadLengthPrefixed() : is_response.status();
  Result<Bytes> tag = ciphertext.ok() ? reader.ReadLengthPrefixed() : ciphertext.status();
  if (!tag.ok() || !reader.AtEnd()) {
    return;  // Malformed frame, or bytes the tag does not cover: drop.
  }
  uint8_t own_direction = initiator_ ? kRoleInitiator : kRoleResponder;
  if (*direction == own_direction) {
    return;  // Reflected message: drop.
  }

  crypto::Sha256Digest expected =
      FrameTag(*seq, *direction, *service, *request_id, *is_response, *ciphertext);
  if (!ConstantTimeEquals(ByteView(expected.data(), expected.size()), *tag)) {
    stats_.bad_tags_rejected->Increment();
    return;  // Tampered or corrupted frame: drop.
  }
  {
    // Replay check AFTER authentication: any unseen sequence number inside
    // the sliding window is accepted regardless of arrival order, but each
    // is consumed exactly once.
    std::lock_guard<std::mutex> lock(data_mu_);
    if (!replay_window_.Accept(*seq)) {
      stats_.replays_rejected->Increment();
      return;
    }
  }
  stats_.data_received->Increment();

  uint64_t nonce = (static_cast<uint64_t>(*direction) << 63) | *seq;
  Bytes plaintext = std::move(*ciphertext);
  crypto::AesCtr(cipher_, nonce).CryptInPlace(0, plaintext);
  std::string service_name = ToString(*service);

  if (*is_response != 0) {
    uint64_t received_at = transport_->now_us();
    std::lock_guard<std::mutex> lock(data_mu_);
    // Bound unclaimed responses (a caller that timed out never collects
    // its entry): drop the stalest once past a small cap.
    if (responses_.size() >= 256) {
      auto stalest = responses_.begin();
      for (auto it = responses_.begin(); it != responses_.end(); ++it) {
        if (it->second.received_at < stalest->second.received_at) {
          stalest = it;
        }
      }
      responses_.erase(stalest);
    }
    responses_[*request_id] = PendingResponse{std::move(plaintext), received_at};
    return;
  }
  if (services_ == nullptr) {
    return;
  }
  Result<Bytes> reply = services_->HandleRequest(*this, service_name, plaintext);
  if (*request_id != 0) {
    // Errors travel back in-band as an empty-marker frame so the caller
    // times out distinguishably less often; encode status in the payload.
    Bytes response;
    if (reply.ok()) {
      response.push_back(1);
      Append(response, *reply);
    } else {
      response.push_back(0);
      Append(response, ToBytes(reply.status().ToString()));
    }
    SendData(service_name, *request_id, /*is_response=*/true, response);
  }
}

Status AttestedChannel::SendSecure(const std::string& service, ByteView payload) {
  return SendData(service, /*request_id=*/0, /*is_response=*/false, payload);
}

Result<uint64_t> AttestedChannel::CallStart(const std::string& service, ByteView payload,
                                            uint64_t timeout_us) {
  // The deadline is recorded BEFORE the request goes out: once SendData
  // runs, any concurrent pumper may deliver the reply.
  uint64_t now = transport_->now_us();
  uint64_t request_id;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    request_id = next_request_id_++;
    call_deadlines_[request_id] = now + timeout_us;
  }
  Status sent = SendData(service, request_id, /*is_response=*/false, payload);
  if (!sent.ok()) {
    std::lock_guard<std::mutex> lock(data_mu_);
    call_deadlines_.erase(request_id);
    return sent;
  }
  return request_id;
}

Result<Bytes> AttestedChannel::CallFinish(uint64_t request_id) {
  uint64_t deadline;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    auto deadline_it = call_deadlines_.find(request_id);
    if (deadline_it == call_deadlines_.end()) {
      return InvalidArgument("no outstanding call with this request id");
    }
    deadline = deadline_it->second;
    call_deadlines_.erase(deadline_it);
  }
  // Claim the response if a concurrent caller's pump already delivered it;
  // pump the fabric to quiescence otherwise (the pump serializes, so after
  // DeliverAll returns either our reply was delivered — by us or by the
  // pumper we waited behind — or it was lost/dropped).
  auto take_response = [&](PendingResponse* out) {
    std::lock_guard<std::mutex> lock(data_mu_);
    auto it = responses_.find(request_id);
    if (it == responses_.end()) {
      return false;
    }
    *out = std::move(it->second);
    responses_.erase(it);
    return true;
  };
  PendingResponse response;
  if (!take_response(&response)) {
    transport_->DeliverAll();
    if (!take_response(&response)) {
      return Unavailable("no response from " + peer_ + " (message loss)");
    }
  }
  if (response.received_at > deadline) {
    return Unavailable("response from " + peer_ + " missed the deadline");
  }
  if (response.payload.empty()) {
    return Internal("malformed response frame");
  }
  if (response.payload[0] == 0) {
    return Unavailable("peer service error: " +
                       ToString(ByteView(response.payload.data() + 1,
                                         response.payload.size() - 1)));
  }
  return Bytes(response.payload.begin() + 1, response.payload.end());
}

Result<Bytes> AttestedChannel::Call(const std::string& service, ByteView payload,
                                    uint64_t timeout_us) {
  Result<uint64_t> request_id = CallStart(service, payload, timeout_us);
  if (!request_id.ok()) {
    return request_id.status();
  }
  return CallFinish(*request_id);
}

nal::Principal AttestedChannel::peer_principal() const {
  return core::ExternalPrincipalFor(peer_ek_, peer_nk_, peer_nbk_id_);
}

}  // namespace nexus::net
