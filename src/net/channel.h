// Attested channels between Nexus instances (§2.4 externalized).
//
// A channel is keyed by a three-message handshake in which each side
// presents its TPM-rooted principal chain and proves live possession of its
// Nexus kernel key NK:
//
//   hello      (initiator -> responder): nonce, NK, EK, the EK's
//              endorsement of NK bound to the boot-time PCR composite, and
//              the boot key id NBK.
//   hello_ack  (responder -> initiator): the responder's hello fields, a
//              session key share RSA-encrypted to the initiator's NK, and
//              an NK signature over the transcript so far (freshness via
//              both nonces).
//   auth       (initiator -> responder): the initiator's key share
//              encrypted to the responder's NK, plus its NK signature over
//              the full transcript.
//
// Each side accepts the peer only if (1) the peer EK is a registered trust
// anchor of the local Nexus instance, (2) the EK endorsement of NK
// verifies, and (3) the transcript signature verifies under that NK — i.e.
// the peer is exactly the principal tpm.<ek8>.nexus.<nk8>.boot.<nbk8>.
// Session keys are derived from both key shares, which only the two NK
// holders can decrypt — a fabric eavesdropper sees every handshake byte
// and still cannot compute them. Data messages are AES-CTR encrypted and
// HMAC-SHA256 authenticated, carry explicit sequence numbers, and are
// accepted in any order but never twice within the replay window
// (order-insensitive, replay-safe — the properties the related work on
// network-system correctness demands of credential transfer).
// Threading: an ESTABLISHED channel is safe for concurrent callers —
// Call/CallStart/CallFinish/SendSecure may run from several worker threads
// at once (independent authorization misses overlap their round trips on
// one shared channel). Sequence numbers, the replay window, and pending
// responses live under one data-plane mutex; session keys and
// the peer identity are immutable once the handshake completes. The
// HANDSHAKE itself is not concurrent: establish the channel (Connect, or a
// warm-up query) before handing it to worker threads — Connect serializes
// against itself, but handshaking consumes the instance Rng, which is not
// a concurrent-safe surface.
#ifndef NEXUS_NET_CHANNEL_H_
#define NEXUS_NET_CHANNEL_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "core/nexus.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "net/transport.h"
#include "util/metrics.h"
#include "util/replay_window.h"

namespace nexus::net {

class AttestedChannel;

// Dispatch interface for service requests arriving on a channel (implemented
// by NetNode, which owns the service registry).
class ChannelServices {
 public:
  virtual ~ChannelServices() = default;
  virtual Result<Bytes> HandleRequest(AttestedChannel& channel, const std::string& service,
                                      ByteView request) = 0;
};

enum class ChannelState : uint8_t { kIdle, kConnecting, kEstablished, kFailed };

class AttestedChannel {
 public:
  AttestedChannel(core::Nexus* local, Transport* transport, ChannelServices* services,
                  NodeId self, NodeId peer, uint64_t channel_id, bool initiator);

  // Initiator side: runs the handshake, pumping the transport until it
  // settles. Safe to call again after a lossy attempt (handshake messages
  // are resent idempotently).
  Status Connect();

  // Routed in by the owning NetNode for this channel id.
  void OnTransportMessage(const Message& message);

  ChannelState state() const { return state_.load(); }
  bool established() const { return state_.load() == ChannelState::kEstablished; }
  const std::string& failure() const { return failure_; }

  // Attested peer identity; valid once established.
  const crypto::RsaPublicKey& peer_ek() const { return peer_ek_; }
  const crypto::RsaPublicKey& peer_nk() const { return peer_nk_; }
  // The peer's fully-qualified kernel principal
  // tpm.<ek8>.nexus.<nk8>.boot.<nbk8>, reconstructed from verified keys.
  nal::Principal peer_principal() const;

  // One-way authenticated+encrypted message to a named peer service.
  Status SendSecure(const std::string& service, ByteView payload);
  // Request/response with a simulated-clock deadline. A dropped message or
  // an answer arriving after the deadline is Unavailable — the caller (e.g.
  // a guard consulting a remote authority) treats that as a denial.
  // Equivalent to CallStart + CallFinish back to back.
  Result<Bytes> Call(const std::string& service, ByteView payload, uint64_t timeout_us);

  // The async halves of Call, for overlapping round trips with local work
  // (futures on the simulated clock). CallStart puts the request in flight
  // and returns its id WITHOUT pumping the fabric; the deadline clock
  // starts now. CallFinish pumps the fabric to quiescence and returns the
  // response — Unavailable on loss or a reply past the deadline. Multiple
  // CallStarts may be outstanding; finish each exactly once, in any order.
  Result<uint64_t> CallStart(const std::string& service, ByteView payload,
                             uint64_t timeout_us);
  Result<Bytes> CallFinish(uint64_t request_id);

  uint64_t channel_id() const { return channel_id_; }
  bool is_initiator() const { return initiator_; }
  const NodeId& self_node() const { return self_; }
  const NodeId& peer_node() const { return peer_; }
  // "channel.*" counters; a fresh channel reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  struct Hello {
    Bytes nonce;
    crypto::RsaPublicKey nk;
    crypto::RsaPublicKey ek;
    Bytes ek_attestation;
    Bytes pcr_composite;
    std::string nbk_id;

    Bytes Serialize() const;
    static Result<Hello> Deserialize(ByteView data);
  };

  Hello MakeLocalHello();
  // Chain verification steps (1) and (2) above.
  Status VerifyPeerHello(const Hello& hello);
  // The transcript both NK signatures cover.
  Bytes AuthTranscript(uint8_t role) const;
  void DeriveSessionKeys();
  void Fail(const std::string& reason);

  void HandleHello(const Message& message);
  void SendHelloAck();
  void HandleHelloAck(const Message& message);
  void HandleAuth(const Message& message);
  void HandleData(const Message& message);

  Status SendData(const std::string& service, uint64_t request_id, bool is_response,
                  ByteView payload);
  // The HMAC over one data frame's fields: kMsgTag, channel id, seq,
  // direction, length-prefixed service, request id, response flag and
  // length-prefixed ciphertext, streamed through the session MAC key.
  crypto::Sha256Digest FrameTag(uint64_t seq, uint8_t direction, ByteView service,
                                uint64_t request_id, uint8_t is_response,
                                ByteView ciphertext) const;

  core::Nexus* local_;
  Transport* transport_;
  ChannelServices* services_;
  NodeId self_;
  NodeId peer_;
  uint64_t channel_id_;
  bool initiator_;

  // Established-ness is read lock-free on the hot path; the store in the
  // handshake handlers publishes the session keys derived just before it.
  std::atomic<ChannelState> state_{ChannelState::kIdle};
  std::string failure_;
  // Serializes concurrent Connect() calls (handshake state is not under
  // data_mu_; handlers are already serialized by the transport pump lock).
  std::mutex connect_mu_;

  Bytes local_hello_bytes_;
  Bytes peer_hello_bytes_;
  Bytes local_nonce_;
  crypto::RsaPublicKey peer_ek_;
  crypto::RsaPublicKey peer_nk_;
  std::string peer_nbk_id_;

  // Session key shares: ours in the clear, both ciphertexts as they went
  // over the wire (the transcript signatures cover the ciphertexts, and
  // RSA padding is randomized, so resends must reuse the exact bytes).
  Bytes local_share_;
  Bytes peer_share_;
  Bytes enc_share_initiator_;
  Bytes enc_share_responder_;
  Bytes auth_payload_;  // Cached for idempotent resends after retries.

  // Session state, derived once per handshake by DeriveSessionKeys: the
  // expanded AES-128 schedule and the HMAC key's inner and outer
  // midstates. A frame pays only its keystream blocks and its own MAC
  // compressions. The placeholders here are never used: the data plane
  // runs only once the channel is established.
  crypto::Aes128 cipher_{crypto::AesKey{}};
  crypto::HmacSha256Key mac_key_{ByteView{}};

  // Data-plane mutex: sequence allocation, the replay window, and pending
  // responses/deadlines. Never held across a transport pump or
  // a service handler (both may re-enter SendData).
  mutable std::mutex data_mu_;

  uint64_t send_seq_ = 1;
  // Replay filter over the peer's sequence numbers: exactly once within
  // the last ReplayWindow::kSpan (4096) numbers, a 512-byte bitmap. An
  // older number is rejected outright, which bounds the state on
  // long-lived channels without readmitting duplicates.
  ReplayWindow replay_window_;
  uint64_t next_request_id_ = 1;
  struct PendingResponse {
    Bytes payload;
    uint64_t received_at = 0;
  };
  std::map<uint64_t, PendingResponse> responses_;
  // Deadlines of CallStart requests not yet finished (request id -> the
  // simulated-clock instant after which the reply no longer counts).
  std::map<uint64_t, uint64_t> call_deadlines_;

  // Registry instruments ("channel.*"): relaxed atomics, so tallying
  // takes no lock.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "channel"};
  struct {
    metrics::Counter* data_sent;
    metrics::Counter* data_received;
    metrics::Counter* replays_rejected;
    metrics::Counter* bad_tags_rejected;
  } stats_{metrics_.NewCounter("data_sent"), metrics_.NewCounter("data_received"),
           metrics_.NewCounter("replays_rejected"), metrics_.NewCounter("bad_tags_rejected")};
};

}  // namespace nexus::net

#endif  // NEXUS_NET_CHANNEL_H_
