#include <gtest/gtest.h>

#include "apps/federation.h"
#include "kernel/ipc.h"
#include "nal/parser.h"
#include "net/cert_exchange.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "tpm/tpm.h"

namespace nexus::net {
namespace {

nal::Formula F(std::string_view text) {
  Result<nal::Formula> f = nal::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << " -> " << f.status().ToString();
  return f.ok() ? *f : nullptr;
}

// ------------------------------------------------------------- Transport

class RecordingEndpoint : public Endpoint {
 public:
  void OnMessage(const Message& message) override { received.push_back(message); }
  std::vector<Message> received;
};

TEST(TransportTest, DeliversInTimestampOrder) {
  Transport transport(1);
  RecordingEndpoint a, b;
  ASSERT_TRUE(transport.Attach("a", &a).ok());
  ASSERT_TRUE(transport.Attach("b", &b).ok());
  transport.SetLink("a", "b", LinkConfig{.latency_us = 100, .drop_rate = 0.0});

  ASSERT_TRUE(transport.Send(Message{"a", "b", 1, "first", ToBytes("1")}).ok());
  ASSERT_TRUE(transport.Send(Message{"a", "b", 1, "second", ToBytes("2")}).ok());
  EXPECT_EQ(transport.DeliverAll(), 2u);
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].kind, "first");
  EXPECT_EQ(b.received[1].kind, "second");
  // The simulated clock advanced by the link latency.
  EXPECT_EQ(transport.now_us(), 100u);
}

TEST(TransportTest, DropsAreCountedAndInvisibleToSender) {
  Transport transport(2);
  RecordingEndpoint b;
  ASSERT_TRUE(transport.Attach("b", &b).ok());
  transport.SetLink("a", "b", LinkConfig{.latency_us = 10, .drop_rate = 1.0});
  ASSERT_TRUE(transport.Send(Message{"a", "b", 1, "doomed", ToBytes("x")}).ok());
  EXPECT_EQ(transport.DeliverAll(), 0u);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(*transport.metrics().Value("dropped"), 1u);
}

TEST(TransportTest, UnknownDestinationIsAnError) {
  Transport transport(3);
  EXPECT_FALSE(transport.Send(Message{"a", "nowhere", 1, "x", {}}).ok());
}

// ------------------------------------------------------------- Handshake

struct TwoInstances {
  TwoInstances()
      : rng_a(101),
        rng_b(202),
        tpm_a(rng_a),
        tpm_b(rng_b),
        nexus_a(&tpm_a, core::NexusOptions{.seed = 1}),
        nexus_b(&tpm_b, core::NexusOptions{.seed = 2}),
        transport(7) {
    // Mutual out-of-band EK registration (the default trusted setup).
    nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());
    nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());
    node_a = std::make_unique<NetNode>(&nexus_a, &transport, "a");
    node_b = std::make_unique<NetNode>(&nexus_b, &transport, "b");
  }

  Rng rng_a, rng_b;
  tpm::Tpm tpm_a, tpm_b;
  core::Nexus nexus_a, nexus_b;
  Transport transport;
  std::unique_ptr<NetNode> node_a, node_b;
};

TEST(AttestedChannelTest, HandshakeEstablishesBothSides) {
  TwoInstances w;
  Result<AttestedChannel*> channel = w.node_a->Connect("b");
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  EXPECT_TRUE((*channel)->established());

  AttestedChannel* responder = w.node_b->ChannelTo("a");
  ASSERT_NE(responder, nullptr);
  EXPECT_TRUE(responder->established());

  // Each side attests the peer's full TPM-rooted principal chain.
  EXPECT_EQ((*channel)->peer_principal().ToString(),
            w.nexus_b.ExternalKernelPrincipal().ToString());
  EXPECT_EQ(responder->peer_principal().ToString(),
            w.nexus_a.ExternalKernelPrincipal().ToString());
}

TEST(AttestedChannelTest, WrongEkPeerIsRejected) {
  Rng rng_a(11), rng_b(22), rng_evil(33);
  tpm::Tpm tpm_a(rng_a), tpm_b(rng_b);
  core::Nexus nexus_a(&tpm_a, core::NexusOptions{.seed = 1});
  core::Nexus nexus_b(&tpm_b, core::NexusOptions{.seed = 2});
  // A pins the WRONG key for b (an impostor EK), b trusts a correctly.
  crypto::RsaKeyPair impostor = crypto::GenerateRsaKeyPair(rng_evil, 512);
  nexus_a.RegisterPeer("b", impostor.public_key);
  nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());

  Transport transport(7);
  NetNode node_a(&nexus_a, &transport, "a");
  NetNode node_b(&nexus_b, &transport, "b");
  Result<AttestedChannel*> channel = node_a.Connect("b");
  EXPECT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), ErrorCode::kUnauthenticated);
}

TEST(AttestedChannelTest, UnregisteredPeerIsRejectedByResponder) {
  Rng rng_a(11), rng_b(22);
  tpm::Tpm tpm_a(rng_a), tpm_b(rng_b);
  core::Nexus nexus_a(&tpm_a, core::NexusOptions{.seed = 1});
  core::Nexus nexus_b(&tpm_b, core::NexusOptions{.seed = 2});
  // A trusts b, but b has never heard of a: the responder rejects the
  // hello, so the initiator never completes.
  nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());

  Transport transport(7);
  NetNode node_a(&nexus_a, &transport, "a");
  NetNode node_b(&nexus_b, &transport, "b");
  Result<AttestedChannel*> channel = node_a.Connect("b");
  EXPECT_FALSE(channel.ok());
  AttestedChannel* responder = node_b.ChannelTo("a");
  ASSERT_NE(responder, nullptr);
  EXPECT_EQ(responder->state(), ChannelState::kFailed);
}

TEST(AttestedChannelTest, JunkHelloCannotPoisonPeerRouting) {
  TwoInstances w;
  // An attacker injects a garbage hello claiming to be node "b" before any
  // legitimate contact. The resulting dead responder channel must not
  // block a real handshake.
  w.transport.Send(
      Message{"b", "a", w.transport.AllocateChannelId(), "hello", ToBytes("garbage")});
  w.transport.DeliverAll();
  Result<AttestedChannel*> channel = w.node_a->Connect("b");
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  EXPECT_TRUE((*channel)->established());

  // Nor may a junk hello shadow the now-established channel.
  w.transport.Send(
      Message{"b", "a", w.transport.AllocateChannelId(), "hello", ToBytes("more garbage")});
  w.transport.DeliverAll();
  Result<AttestedChannel*> again = w.node_a->Connect("b");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *channel);
}

TEST(AttestedChannelTest, HandshakeSurvivesMessageLossViaRetry) {
  TwoInstances w;
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = 50, .drop_rate = 0.5});
  bool established = false;
  for (int attempt = 0; attempt < 32 && !established; ++attempt) {
    Result<AttestedChannel*> channel = w.node_a->Connect("b");
    established = channel.ok() && (*channel)->established();
  }
  EXPECT_TRUE(established);
  EXPECT_GT(*w.transport.metrics().Value("dropped"), 0u);
}

// ----------------------------------------------------------- Secure data

// An echo service for exercising the request/response path.
class EchoService : public Service {
 public:
  Result<Bytes> Handle(AttestedChannel& channel, ByteView request) override {
    (void)channel;
    Bytes reply = ToBytes("echo:");
    Append(reply, request);
    return reply;
  }
};

TEST(AttestedChannelTest, CallRoundTripsThroughService) {
  TwoInstances w;
  EchoService echo;
  w.node_b->RegisterService("echo", &echo);
  AttestedChannel* channel = *w.node_a->Connect("b");
  Result<Bytes> reply = channel->Call("echo", ToBytes("hi"), /*timeout_us=*/100000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(ToString(*reply), "echo:hi");
}

// A lossy fabric must never wedge a handshake permanently. Two heals make
// that true: (1) Connect() retries resend the SAME hello bytes — the
// responder pins the first hello on a channel id and answers duplicates
// with its cached hello_ack, so a regenerated hello would be ignored
// forever; (2) a responder that missed the final auth re-acks when data
// arrives mid-handshake, and the established initiator answers a duplicate
// ack by resending its cached auth. Each transport seed is a deterministic
// loss schedule; before heal (1) several of these seeds wedged forever.
TEST(AttestedChannelTest, HandshakeAndDataHealAfterHeavyLoss) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng_a(101), rng_b(202);
    tpm::Tpm tpm_a(rng_a), tpm_b(rng_b);
    core::Nexus nexus_a(&tpm_a, core::NexusOptions{.seed = 1});
    core::Nexus nexus_b(&tpm_b, core::NexusOptions{.seed = 2});
    nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());
    nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());
    Transport transport(seed);
    transport.SetLink("a", "b", LinkConfig{50, /*drop_rate=*/0.45});
    NetNode node_a(&nexus_a, &transport, "a");
    NetNode node_b(&nexus_b, &transport, "b");
    EchoService echo;
    node_b.RegisterService("echo", &echo);

    AttestedChannel* channel = nullptr;
    for (int attempt = 0; attempt < 200 && channel == nullptr; ++attempt) {
      Result<AttestedChannel*> result = node_a.Connect("b");
      if (result.ok()) {
        channel = *result;
      }
    }
    ASSERT_NE(channel, nullptr) << "handshake wedged, transport seed " << seed;

    // Heal the link. A retried Call must flow even when the responder
    // missed the final auth: the first data message triggers the re-ack
    // that completes the responder's side of the handshake.
    transport.SetLink("a", "b", LinkConfig{50, /*drop_rate=*/0.0});
    bool flowed = false;
    for (int attempt = 0; attempt < 4 && !flowed; ++attempt) {
      Result<Bytes> reply = channel->Call("echo", ToBytes("heal"), /*timeout_us=*/100000);
      if (reply.ok()) {
        EXPECT_EQ(ToString(*reply), "echo:heal");
        flowed = true;
      }
    }
    EXPECT_TRUE(flowed) << "data never flowed after heal, transport seed " << seed;
    AttestedChannel* responder = node_b.ChannelTo("a");
    ASSERT_NE(responder, nullptr);
    EXPECT_TRUE(responder->established());
  }
}

// A tee that records raw fabric frames destined to one node, then forwards
// them — the attacker model for tamper/replay tests (the fabric is
// untrusted; only the channel crypto defends).
class TeeEndpoint : public Endpoint {
 public:
  explicit TeeEndpoint(Endpoint* inner) : inner_(inner) {}
  void OnMessage(const Message& message) override {
    recorded.push_back(message);
    inner_->OnMessage(message);
  }
  Endpoint* inner_;
  std::vector<Message> recorded;
};

TEST(AttestedChannelTest, ReplayedDataFrameIsRejectedOnce) {
  TwoInstances w;
  EchoService echo;
  w.node_b->RegisterService("echo", &echo);
  AttestedChannel* channel = *w.node_a->Connect("b");

  // Interpose on b's fabric endpoint AFTER the handshake.
  w.transport.Detach("b");
  TeeEndpoint tee(w.node_b.get());
  ASSERT_TRUE(w.transport.Attach("b", &tee).ok());

  ASSERT_TRUE(channel->SendSecure("echo", ToBytes("once")).ok());
  w.transport.DeliverAll();
  AttestedChannel* responder = w.node_b->ChannelTo("a");
  ASSERT_EQ(*responder->metrics().Value("data_received"), 1u);

  // Replay the recorded data frame: authenticated but already-seen
  // sequence number -> rejected, exactly-once delivery preserved.
  ASSERT_FALSE(tee.recorded.empty());
  Message replay = tee.recorded.back();
  ASSERT_EQ(replay.kind, "data");
  w.node_b->OnMessage(replay);
  EXPECT_EQ(*responder->metrics().Value("data_received"), 1u);
  EXPECT_EQ(*responder->metrics().Value("replays_rejected"), 1u);
}

TEST(AttestedChannelTest, TamperedDataFrameIsRejected) {
  TwoInstances w;
  EchoService echo;
  w.node_b->RegisterService("echo", &echo);
  AttestedChannel* channel = *w.node_a->Connect("b");

  w.transport.Detach("b");
  TeeEndpoint tee(w.node_b.get());
  ASSERT_TRUE(w.transport.Attach("b", &tee).ok());
  ASSERT_TRUE(channel->SendSecure("echo", ToBytes("payload")).ok());
  w.transport.DeliverAll();

  AttestedChannel* responder = w.node_b->ChannelTo("a");
  uint64_t received_before = *responder->metrics().Value("data_received");
  Message tampered = tee.recorded.back();
  ASSERT_EQ(tampered.kind, "data");
  tampered.payload[tampered.payload.size() / 2] ^= 0x40;  // Flip ciphertext bits.
  w.node_b->OnMessage(tampered);
  EXPECT_EQ(*responder->metrics().Value("data_received"), received_before);
  EXPECT_GE(*responder->metrics().Value("bad_tags_rejected"), 1u);
}

// Counts the requests that reach it.
class CountingService : public Service {
 public:
  Result<Bytes> Handle(AttestedChannel& channel, ByteView request) override {
    (void)channel;
    (void)request;
    ++calls;
    return Bytes{};
  }
  int calls = 0;
};

TEST(AttestedChannelTest, TrailingBytesAfterTheTagAreMalformed) {
  TwoInstances w;
  CountingService sink;
  w.node_b->RegisterService("sink", &sink);
  AttestedChannel* channel = *w.node_a->Connect("b");

  // Capture the frame on the wire instead of delivering it.
  w.transport.Detach("b");
  RecordingEndpoint wire;
  ASSERT_TRUE(w.transport.Attach("b", &wire).ok());
  ASSERT_TRUE(channel->SendSecure("sink", ToBytes("once")).ok());
  w.transport.DeliverAll();
  ASSERT_EQ(wire.received.size(), 1u);
  Message frame = wire.received.back();
  ASSERT_EQ(frame.kind, "data");

  // The tag covers every field but not bytes appended after it: such a
  // frame is malformed and dropped before the MAC check, without
  // consuming its sequence number.
  Message padded = frame;
  padded.payload.push_back(0x00);
  padded.payload.push_back(0x01);
  w.node_b->OnMessage(padded);
  AttestedChannel* responder = w.node_b->ChannelTo("a");
  EXPECT_EQ(sink.calls, 0);
  EXPECT_EQ(*responder->metrics().Value("data_received"), 0u);
  EXPECT_EQ(*responder->metrics().Value("bad_tags_rejected"), 0u);

  // The frame as sent is still accepted, exactly once.
  w.node_b->OnMessage(frame);
  EXPECT_EQ(sink.calls, 1);
  EXPECT_EQ(*responder->metrics().Value("data_received"), 1u);
  EXPECT_EQ(*responder->metrics().Value("replays_rejected"), 0u);
}

// Pins the data-frame encoding byte for byte: seq, direction, service,
// request id, response flag, AES-CTR ciphertext and HMAC-SHA256 tag, for
// requests and replies whose MAC input crosses SHA-256 block boundaries at
// different fields. Every input is seeded, so the session keys, and with
// them the frames, are the same on every run.
TEST(AttestedChannelTest, DataFrameWireFormatIsPinned) {
  TwoInstances w;
  EchoService echo;
  w.node_b->RegisterService("echo", &echo);
  AttestedChannel* channel = *w.node_a->Connect("b");

  w.transport.Detach("a");
  w.transport.Detach("b");
  TeeEndpoint to_a(w.node_a.get());
  TeeEndpoint to_b(w.node_b.get());
  ASSERT_TRUE(w.transport.Attach("a", &to_a).ok());
  ASSERT_TRUE(w.transport.Attach("b", &to_b).ok());

  for (size_t size : {5u, 45u, 85u}) {
    Bytes payload(size);
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 37 + size);
    }
    Result<Bytes> reply = channel->Call("echo", payload, /*timeout_us=*/100000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    Bytes expected = ToBytes("echo:");
    Append(expected, payload);
    EXPECT_EQ(*reply, expected);
  }

  auto hex_of = [](const std::vector<Message>& frames) {
    std::vector<std::string> out;
    for (const Message& frame : frames) {
      EXPECT_EQ(frame.kind, "data");
      out.push_back(HexEncode(frame.payload));
    }
    return out;
  };
  // Per frame: seq, direction, len + "echo", request id, response flag,
  // len + ciphertext, len + tag. A reply carries a status byte and "echo:".
  const std::vector<std::string> requests = {
      "0000000000000001" "00" "00000004" "6563686f" "0000000000000001" "00" "00000005"
      "992925dfec"
      "00000020" "d68e5fea734f9f1cd90516d34a9744570e5b47060c0a9f5c196d6bf515cc07eb",
      "0000000000000002" "00" "00000004" "6563686f" "0000000000000002" "00" "0000002d"
      "cca985f02001d88c920cdb4ba0a32ae6938785bd383ec4551f9196c794e13fe1"
      "b0e03018803d6c97cbe8d2835f"
      "00000020" "2c4035adaeac8cc807326031ffa42e4db174411bccd2564684401ce749e3e52c",
      "0000000000000003" "00" "00000004" "6563686f" "0000000000000003" "00" "00000055"
      "275b3631f9976ab35720bf4ad67e7ac3a61da47746d6d3047067b774fb89e83d"
      "91734b6b63d3285136cc603d6902bfc3c3036dd075e47caf642a0b2285fb89a6"
      "94a9c2bdf81afcada5a02e47080b86d6a176641d8b"
      "00000020" "e8b7c7f2c8aaf7aa726b9335125373875f92ac74459942454f62b09b5b962e4f",
  };
  const std::vector<std::string> replies = {
      "0000000000000001" "01" "00000004" "6563686f" "0000000000000001" "01" "0000000b"
      "2bb15bd1198b46e80a79e3"
      "00000020" "650a47ce521df59726e1afbd07de030f16dc607d6811d0b0994a13b1118c618b",
      "0000000000000002" "01" "00000004" "6563686f" "0000000000000002" "01" "00000033"
      "b3e0cedf6a71d4b28fce78f3aee2c968e0baf7c14df643b5fbcbd7e357fddb9d"
      "65221d2b0fd2c51752311addeb6010cbbeb73a"
      "00000020" "c9cab6ad5f7a4a785c362266a0460d071159f4be70887d01795b59a0f8408bb5",
      "0000000000000003" "01" "00000004" "6563686f" "0000000000000003" "01" "0000005b"
      "1f9a1b1fec5d2ce1d0a0625cf97fc4b58753d45b5583320907c1f6baa5ce1903"
      "63893f39a46f5cca602e742ac197e3a8ce2814ac3fc763795db47448cb2ddb45"
      "4d7c347a28a519a0fc0d41dff366015c507732ec135019ecd0e14b"
      "00000020" "7b7a70eca2e9607beb8726e21f77c82885003f5d909e40245ca7373163b17ead",
  };
  EXPECT_EQ(hex_of(to_b.recorded), requests);
  EXPECT_EQ(hex_of(to_a.recorded), replies);
}

// ---------------------------------------------------- Certificate exchange

TEST(CertificateExchangeTest, ShipsLabelAcrossInstances) {
  TwoInstances w;
  kernel::ProcessId gateway = *w.nexus_a.CreateProcess("gateway", ToBytes("g"));
  CertificateExchange importer(w.node_a.get(), gateway);
  CertificateExchange pusher(w.node_b.get(), 0);

  kernel::ProcessId prover = *w.nexus_b.CreateProcess("prover", ToBytes("p"));
  core::LabelHandle label = *w.nexus_b.engine().Say(prover, "isTypeSafe(PGM)");
  Result<core::LabelHandle> shipped = pusher.PushLabel("a", prover, label);
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();

  // The imported label is a usable credential on instance a with the
  // TPM-rooted external speaker.
  Result<nal::Formula> imported = w.nexus_a.engine().StoreFor(gateway).Get(*shipped);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ((*imported)->speaker().ToString().substr(0, 4), "tpm.");
  EXPECT_TRUE(nal::Equals((*imported)->child1(), F("isTypeSafe(PGM)")));
  EXPECT_EQ(*importer.metrics().Value("imported"), 1u);
}

TEST(CertificateExchangeTest, DuplicatePushIsIdempotent) {
  TwoInstances w;
  kernel::ProcessId gateway = *w.nexus_a.CreateProcess("gateway", ToBytes("g"));
  CertificateExchange importer(w.node_a.get(), gateway);
  CertificateExchange pusher(w.node_b.get(), 0);

  kernel::ProcessId prover = *w.nexus_b.CreateProcess("prover", ToBytes("p"));
  core::Certificate cert =
      *w.nexus_b.ExternalizeLabel(prover, *w.nexus_b.engine().Say(prover, "ok()"));
  Result<core::LabelHandle> first = pusher.PushCertificate("a", cert);
  Result<core::LabelHandle> second = pusher.PushCertificate("a", cert);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // Replay converges, no duplicate label.
  EXPECT_EQ(w.nexus_a.engine().StoreFor(gateway).size(), 1u);
}

TEST(CertificateExchangeTest, TamperedCertificateIsRejected) {
  TwoInstances w;
  kernel::ProcessId gateway = *w.nexus_a.CreateProcess("gateway", ToBytes("g"));
  CertificateExchange importer(w.node_a.get(), gateway);
  CertificateExchange pusher(w.node_b.get(), 0);

  kernel::ProcessId prover = *w.nexus_b.CreateProcess("prover", ToBytes("p"));
  core::Certificate cert =
      *w.nexus_b.ExternalizeLabel(prover, *w.nexus_b.engine().Say(prover, "harmless()"));
  cert.statement = F(cert.statement->speaker().ToString() + " says evil()");
  Result<core::LabelHandle> shipped = pusher.PushCertificate("a", cert);
  EXPECT_FALSE(shipped.ok());
  EXPECT_EQ(w.nexus_a.engine().StoreFor(gateway).size(), 0u);
  EXPECT_EQ(*importer.metrics().Value("rejected"), 1u);
}

TEST(CertificateExchangeTest, CertificateFromUnregisteredInstanceIsRejected) {
  TwoInstances w;
  kernel::ProcessId gateway = *w.nexus_a.CreateProcess("gateway", ToBytes("g"));
  CertificateExchange importer(w.node_a.get(), gateway);
  CertificateExchange pusher(w.node_b.get(), 0);

  // A third instance (TPM unknown to a) mints a perfectly valid
  // certificate; b relays it. Instance a must refuse: the EK is not a
  // registered trust anchor.
  Rng rng_c(303);
  tpm::Tpm tpm_c(rng_c);
  core::Nexus nexus_c(&tpm_c, core::NexusOptions{.seed = 3});
  kernel::ProcessId pid_c = *nexus_c.CreateProcess("stranger", ToBytes("s"));
  core::Certificate cert =
      *nexus_c.ExternalizeLabel(pid_c, *nexus_c.engine().Say(pid_c, "trustMe()"));

  Result<core::LabelHandle> shipped = pusher.PushCertificate("a", cert);
  EXPECT_FALSE(shipped.ok());
  EXPECT_EQ(w.nexus_a.engine().StoreFor(gateway).size(), 0u);
  (void)importer;
}

// ------------------------------------------------------ Remote authority

struct RemoteAuthorityWorld : TwoInstances {
  RemoteAuthorityWorld() : service(node_b.get()) {
    liveness = std::make_unique<core::LambdaAuthority>(
        [](const nal::Formula& f) {
          return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
        },
        [this](const nal::Formula& f) { return vouch; });
    service.AddAuthority(liveness.get());
  }

  AuthorityService service;
  std::unique_ptr<core::LambdaAuthority> liveness;
  bool vouch = true;
};

TEST(RemoteAuthorityTest, QueryCrossesTheChannel) {
  RemoteAuthorityWorld w;
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  nal::Formula statement = F("Session says sessionActive(alice)");
  EXPECT_TRUE(remote.VouchOne(statement, /*timeout_us=*/100000));
  w.vouch = false;  // Dynamic state changed on the remote instance...
  // ...and the next answer is fresh.
  EXPECT_FALSE(remote.VouchOne(statement, /*timeout_us=*/100000));
  EXPECT_EQ(*w.service.metrics().Value("queries_served"), 2u);
  EXPECT_EQ(*remote.metrics().Value("vouched"), 1u);
  EXPECT_EQ(*remote.metrics().Value("denied"), 1u);
}

TEST(RemoteAuthorityTest, LateAnswerIsADenial) {
  RemoteAuthorityWorld w;
  // Establish while the link is fast...
  ASSERT_TRUE(w.node_a->Connect("b").ok());
  // ...then degrade it beyond the query deadline.
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = 60000, .drop_rate = 0.0});
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  EXPECT_FALSE(remote.VouchOne(F("Session says sessionActive(alice)"), /*timeout_us=*/10000));
  // The request was in flight on an established channel: a timeout-deny,
  // not an unreachable-deny (the metrics split distinguishes the causes).
  EXPECT_EQ(*remote.metrics().Value("denied_timeout"), 1u);
  EXPECT_EQ(*remote.metrics().Value("denied_unreachable"), 0u);
}

TEST(RemoteAuthorityTest, LostAnswerIsADenial) {
  RemoteAuthorityWorld w;
  ASSERT_TRUE(w.node_a->Connect("b").ok());
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = 10, .drop_rate = 1.0});
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  EXPECT_FALSE(remote.VouchOne(F("Session says sessionActive(alice)"), /*timeout_us=*/10000));
  EXPECT_EQ(*remote.metrics().Value("denied_timeout"), 1u);
  EXPECT_EQ(*remote.metrics().Value("denied_unreachable"), 0u);
}

TEST(RemoteAuthorityTest, VouchAnswersAllStatementsInOneRoundTrip) {
  RemoteAuthorityWorld w;
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  std::vector<nal::Formula> statements = {
      F("Session says sessionActive(alice)"),
      F("Session says sessionActive(bob)"),
      F("Session says sessionActive(carol)"),
  };
  std::vector<bool> answers = remote.Vouch(statements, 100000).Wait().answers;
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0] && answers[1] && answers[2]);
  EXPECT_EQ(*remote.metrics().Value("batch_round_trips"), 1u);
  EXPECT_EQ(*w.service.metrics().Value("batches_served"), 1u);
  EXPECT_EQ(*w.service.metrics().Value("queries_served"), 3u);  // Statements, not round trips.

  // Lost replies deny the whole batch (fail closed).
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = 10, .drop_rate = 1.0});
  answers = remote.Vouch(statements, 10000).Wait().answers;
  EXPECT_FALSE(answers[0] || answers[1] || answers[2]);
  EXPECT_EQ(*remote.metrics().Value("denied_timeout"), 3u);
}

TEST(RemoteAuthorityTest, MalformedBatchCountIsRejectedWithoutAllocation) {
  // A batch request declaring 2^32-1 statements with no payload must not
  // size the reply from the attacker-declared count (OOM) — it answers
  // empty, which the client reads as deny-all.
  RemoteAuthorityWorld w;
  Result<AttestedChannel*> channel = w.node_a->Connect("b");
  ASSERT_TRUE(channel.ok());
  Bytes malformed;
  AppendU32(malformed, 0xFFFFFFFFu);
  Result<Bytes> reply = (*channel)->Call(std::string(AuthorityService::kServiceName),
                                         malformed, /*timeout_us=*/100000);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->empty());
  EXPECT_EQ(*w.service.metrics().Value("queries_served"), 0u);
}

TEST(RemoteAuthorityTest, TrailingBytesAfterTheLastStatementFailTheBatchClosed) {
  // A batch is its declared statements and nothing after them: bytes past
  // the last statement make the whole request malformed, so the reply is
  // empty (deny-all) and no statement is evaluated.
  RemoteAuthorityWorld w;
  Result<AttestedChannel*> channel = w.node_a->Connect("b");
  ASSERT_TRUE(channel.ok());
  Bytes batch;
  AppendU32(batch, 1);
  AppendLengthPrefixed(batch, ToBytes(std::string("Session says sessionActive(alice)")));
  batch.push_back(0);
  Result<Bytes> reply = (*channel)->Call(std::string(AuthorityService::kServiceName), batch,
                                         /*timeout_us=*/100000);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->empty());
  EXPECT_EQ(*w.service.metrics().Value("queries_served"), 0u);
}

TEST(RemoteAuthorityTest, OversizedStatementsAreDeniedNotParsed) {
  // The authority wire handler shares the IPC ABI's per-payload bound: a
  // hostile peer cannot feed the NAL parser an arbitrarily large formula.
  // Oversized statements are denied; well-formed neighbors still answer.
  RemoteAuthorityWorld w;
  Result<AttestedChannel*> channel = w.node_a->Connect("b");
  ASSERT_TRUE(channel.ok());

  // [oversized, valid] answers [deny, vouch]. The reply is a marshaled
  // typed IpcReply (count slot + verdict bytes), so it must survive the
  // strict reply codec round trip — the oversized entry denies WITHOUT
  // poisoning its batch neighbor.
  Bytes huge(kernel::kMaxArgPayload + 1, 'x');
  Bytes batch;
  AppendU32(batch, 2);
  AppendLengthPrefixed(batch, huge);
  AppendLengthPrefixed(batch, ToBytes(std::string("Session says sessionActive(alice)")));
  Result<Bytes> reply = (*channel)->Call(std::string(AuthorityService::kServiceName), batch,
                                         /*timeout_us=*/100000);
  ASSERT_TRUE(reply.ok());
  Result<kernel::IpcReply> typed = kernel::UnmarshalReply(*reply);
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  EXPECT_TRUE(typed->status.ok());
  Result<uint64_t> declared = typed->ArgU64(0);
  Result<ByteView> verdicts = typed->ArgBytes(1);
  ASSERT_TRUE(declared.ok() && verdicts.ok());
  EXPECT_EQ(*declared, 2u);
  ASSERT_EQ(verdicts->size(), 2u);
  EXPECT_EQ((*verdicts)[0], 0);
  EXPECT_EQ((*verdicts)[1], 1);
  // Round-trip parity: re-marshaling the unmarshaled reply reproduces the
  // wire bytes the service sent.
  Result<Bytes> remarshal = kernel::MarshalReply(*typed);
  ASSERT_TRUE(remarshal.ok());
  EXPECT_EQ(*remarshal, *reply);
}

TEST(RemoteAuthorityTest, BatchedGuardIssuesOneRoundTripForIdenticalLeaves) {
  // The acceptance bar for the batched API: K requests whose proofs all
  // lean on the SAME remote-authority statement cost ONE attested round
  // trip, observable as exactly one remote query in the guard's stats.
  RemoteAuthorityWorld w;
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  w.nexus_a.guard().AddRemoteAuthority(&remote);

  kernel::ProcessId owner = *w.nexus_a.CreateProcess("owner", ToBytes("o"));
  nal::Formula statement = F("Session says sessionActive(alice)");
  constexpr int kRequests = 5;
  std::vector<kernel::AuthzRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    kernel::ProcessId subject =
        *w.nexus_a.CreateProcess("s" + std::to_string(i), ToBytes("s"));
    std::string object = "door" + std::to_string(i);
    w.nexus_a.engine().RegisterObject(object, owner, kernel::kKernelProcessId);
    ASSERT_TRUE(w.nexus_a.engine().SetGoal(owner, "open", object, statement).ok());
    ASSERT_TRUE(w.nexus_a.engine()
                    .SetProof(subject, "open", object, nal::proof::Authority(statement))
                    .ok());
    requests.push_back(kernel::AuthzRequest::Of(subject, "open", object));
  }

  uint64_t remote_before = *w.nexus_a.guard().metrics().Value("remote_queries");
  std::vector<Status> decisions = w.nexus_a.kernel().AuthorizeBatch(requests);
  for (const Status& status : decisions) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(*w.nexus_a.guard().metrics().Value("remote_queries"), remote_before + 1);
  EXPECT_EQ(*remote.metrics().Value("batch_round_trips"), 1u);
  EXPECT_EQ(*w.service.metrics().Value("batches_served"), 1u);

  // The answers were batch-scoped, not stored: re-running after the remote
  // state flips is freshly denied.
  w.vouch = false;
  decisions = w.nexus_a.kernel().AuthorizeBatch(requests);
  for (const Status& status : decisions) {
    EXPECT_FALSE(status.ok());
  }
  EXPECT_EQ(*w.nexus_a.guard().metrics().Value("remote_queries"), remote_before + 2);
}

TEST(RemoteAuthorityTest, RemoteLeavesPastThePrefetchCapCostARoundTripOfOne) {
  // A proof with 65 remote leaves: the guard prefetches the first 64 in one
  // round trip and asks for the 65th, past its per-proof cap, in a round
  // trip of one when the checker reaches it. A single miss and a batch of
  // one are the same routine, so they cost the same.
  RemoteAuthorityWorld w;
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  w.nexus_a.guard().AddRemoteAuthority(&remote);

  kernel::ProcessId subject = *w.nexus_a.CreateProcess("subject", ToBytes("s"));
  w.nexus_a.engine().RegisterObject("vault", subject, kernel::kKernelProcessId);
  constexpr int kLeaves = 65;
  nal::Formula goal = F("Session says sessionActive(u" + std::to_string(kLeaves) + ")");
  nal::Proof proof = nal::proof::Authority(goal);
  for (int i = kLeaves - 1; i >= 1; --i) {
    nal::Formula leaf = F("Session says sessionActive(u" + std::to_string(i) + ")");
    goal = nal::FormulaNode::And(leaf, goal);
    proof = nal::proof::AndIntro(nal::proof::Authority(leaf), proof);
  }
  ASSERT_TRUE(w.nexus_a.engine().SetGoal(subject, "open", "vault", goal).ok());
  ASSERT_TRUE(w.nexus_a.engine().SetProof(subject, "open", "vault", proof).ok());
  const kernel::AuthzRequest request = kernel::AuthzRequest::Of(subject, "open", "vault");

  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch of one" : "single miss");
    uint64_t trips = *remote.metrics().Value("batch_round_trips");
    uint64_t served = *w.service.metrics().Value("queries_served");
    kernel::AuthzDecision decision =
        batch ? w.nexus_a.engine().AuthorizeBatch(std::span(&request, 1))[0]
              : w.nexus_a.engine().Authorize(request);
    EXPECT_TRUE(decision.allowed()) << decision.ToStatus().ToString();
    EXPECT_EQ(*remote.metrics().Value("batch_round_trips") - trips, 2u);
    EXPECT_EQ(*w.service.metrics().Value("queries_served") - served,
              static_cast<uint64_t>(kLeaves));
  }
}

TEST(RemoteAuthorityTest, AsyncBatchOverlapsRoundTripsToDistinctPeers) {
  // The async pipeline's latency win, measured on the simulated clock: a
  // batch whose proofs consult TWO different peers must pay ONE round-trip
  // time (both Vouch messages in flight together), not two back to
  // back as the old prefetch-then-wait loop did.
  TwoInstances w;
  Rng rng_c(303);
  tpm::Tpm tpm_c(rng_c);
  core::Nexus nexus_c(&tpm_c, core::NexusOptions{.seed = 3});
  w.nexus_a.RegisterPeer("c", tpm_c.endorsement_public_key());
  nexus_c.RegisterPeer("a", w.tpm_a.endorsement_public_key());
  NetNode node_c(&nexus_c, &w.transport, "c");

  AuthorityService service_b(w.node_b.get());
  AuthorityService service_c(&node_c);
  core::LambdaAuthority session_b(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "SessionB";
      },
      [](const nal::Formula&) { return true; });
  core::LambdaAuthority session_c(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "SessionC";
      },
      [](const nal::Formula&) { return true; });
  service_b.AddAuthority(&session_b);
  service_c.AddAuthority(&session_c);

  RemoteAuthority remote_b(
      w.node_a.get(), "b",
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "SessionB";
      });
  RemoteAuthority remote_c(
      w.node_a.get(), "c",
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "SessionC";
      });
  w.nexus_a.guard().AddRemoteAuthority(&remote_b);
  w.nexus_a.guard().AddRemoteAuthority(&remote_c);
  w.nexus_a.guard().set_remote_query_timeout_us(1000000);

  constexpr uint64_t kLatencyUs = 100;
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = kLatencyUs, .drop_rate = 0.0});
  w.transport.SetLink("a", "c", LinkConfig{.latency_us = kLatencyUs, .drop_rate = 0.0});
  // Pre-establish both channels so the measurement isolates the data round
  // trips from handshake pumping.
  ASSERT_TRUE(w.node_a->Connect("b").ok());
  ASSERT_TRUE(w.node_a->Connect("c").ok());

  kernel::ProcessId owner = *w.nexus_a.CreateProcess("owner", ToBytes("o"));
  kernel::ProcessId subject = *w.nexus_a.CreateProcess("subject", ToBytes("s"));
  nal::Formula statement_b = F("SessionB says active(alice)");
  nal::Formula statement_c = F("SessionC says active(bob)");
  std::vector<kernel::AuthzRequest> requests;
  for (const auto& [object, statement] :
       {std::pair<std::string, nal::Formula>{"door_b", statement_b},
        std::pair<std::string, nal::Formula>{"door_c", statement_c}}) {
    w.nexus_a.engine().RegisterObject(object, owner, kernel::kKernelProcessId);
    ASSERT_TRUE(w.nexus_a.engine().SetGoal(owner, "open", object, statement).ok());
    ASSERT_TRUE(w.nexus_a.engine()
                    .SetProof(subject, "open", object, nal::proof::Authority(statement))
                    .ok());
    requests.push_back(kernel::AuthzRequest::Of(subject, "open", object));
  }

  uint64_t start_us = w.transport.now_us();
  std::vector<Status> decisions = w.nexus_a.kernel().AuthorizeBatch(requests);
  uint64_t elapsed_us = w.transport.now_us() - start_us;
  for (const Status& status : decisions) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(*remote_b.metrics().Value("batch_round_trips"), 1u);
  EXPECT_EQ(*remote_c.metrics().Value("batch_round_trips"), 1u);
  // Serial consultation costs 2 round trips = 4 * latency; overlapped
  // round trips finish together after one round trip = 2 * latency.
  EXPECT_EQ(elapsed_us, 2 * kLatencyUs)
      << "round trips to distinct peers did not overlap";
}

TEST(RemoteAuthorityTest, GuardConsultsRemoteAuthorityThroughProofLeaf) {
  RemoteAuthorityWorld w;
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  w.nexus_a.guard().AddRemoteAuthority(&remote);

  kernel::ProcessId subject = *w.nexus_a.CreateProcess("subject", ToBytes("s"));
  w.nexus_a.engine().RegisterObject("door", subject, kernel::kKernelProcessId);
  nal::Formula goal = F("Session says sessionActive(alice)");
  ASSERT_TRUE(w.nexus_a.engine().SetGoal(subject, "open", "door", goal).ok());
  ASSERT_TRUE(w.nexus_a.engine()
                  .SetProof(subject, "open", "door", nal::proof::Authority(goal))
                  .ok());
  EXPECT_TRUE(w.nexus_a.kernel().Authorize(kernel::AuthzRequest::Of(subject, "open", "door")).ok());
  EXPECT_GE(*w.nexus_a.guard().metrics().Value("remote_queries"), 1u);

  w.vouch = false;
  EXPECT_FALSE(w.nexus_a.kernel().Authorize(
      kernel::AuthzRequest::Of(subject, "open", "door")).ok());
}

TEST(RemoteAuthorityTest, UnreachablePeerFailsClosed) {
  RemoteAuthorityWorld w;
  const std::vector<nal::Formula> statements = {F("Session says sessionActive(alice)"),
                                                F("Session says sessionActive(bob)")};
  auto expect_unreachable = [&statements](RemoteAuthority& remote) {
    core::VouchOutcome outcome = remote.Vouch(statements, /*timeout_us=*/100000).Wait();
    EXPECT_EQ(outcome.answers, std::vector<bool>(statements.size(), false));
    EXPECT_FALSE(outcome.responsive);
    EXPECT_EQ(*remote.metrics().Value("denied_unreachable"), statements.size());
    EXPECT_EQ(*remote.metrics().Value("vouched"), 0u);
  };

  // No endpoint is attached under this name: no channel ever opens.
  RemoteAuthority nowhere(w.node_a.get(), "nowhere", nullptr);
  expect_unreachable(nowhere);

  // A peer that leaves the fabric after the handshake: the channel is
  // established but the request cannot be sent.
  ASSERT_TRUE(w.node_a->Connect("b").ok());
  w.transport.Detach("b");
  RemoteAuthority departed(w.node_a.get(), "b", nullptr);
  expect_unreachable(departed);
  EXPECT_EQ(*w.service.metrics().Value("queries_served"), 0u);

  // A guard check whose proof rests on the unreachable authority denies.
  w.nexus_a.guard().AddRemoteAuthority(&nowhere);
  kernel::ProcessId subject = *w.nexus_a.CreateProcess("subject", ToBytes("s"));
  w.nexus_a.engine().RegisterObject("door", subject, kernel::kKernelProcessId);
  ASSERT_TRUE(w.nexus_a.engine().SetGoal(subject, "open", "door", statements[0]).ok());
  ASSERT_TRUE(w.nexus_a.engine()
                  .SetProof(subject, "open", "door", nal::proof::Authority(statements[0]))
                  .ok());
  EXPECT_FALSE(
      w.nexus_a.kernel().Authorize(kernel::AuthzRequest::Of(subject, "open", "door")).ok());
  EXPECT_EQ(*nowhere.metrics().Value("denied_unreachable"), statements.size() + 1);
}

TEST(RemoteAuthorityTest, GoalTheProofCannotDischargeIsDeniedWithoutAsking) {
  // A goal flip installs a goal the holder's proof cannot discharge. No
  // authority answer could change that deny, so none is asked, and the
  // deny is cached like a static proof's.
  RemoteAuthorityWorld w;
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  w.nexus_a.guard().AddRemoteAuthority(&remote);
  kernel::ProcessId subject = *w.nexus_a.CreateProcess("subject", ToBytes("s"));
  w.nexus_a.engine().RegisterObject("door", subject, kernel::kKernelProcessId);
  nal::Formula allow_goal = F("Session says sessionActive(alice)");
  ASSERT_TRUE(w.nexus_a.engine().SetGoal(subject, "open", "door", allow_goal).ok());
  ASSERT_TRUE(w.nexus_a.engine()
                  .SetProof(subject, "open", "door", nal::proof::Authority(allow_goal))
                  .ok());
  const kernel::AuthzRequest request = kernel::AuthzRequest::Of(subject, "open", "door");
  ASSERT_TRUE(w.nexus_a.kernel().Authorize(request).ok());
  const uint64_t queries = *remote.metrics().Value("queries");
  ASSERT_EQ(queries, 1u);

  ASSERT_TRUE(
      w.nexus_a.engine().SetGoal(subject, "open", "door", F("HomeCA says absent(alice)")).ok());
  const metrics::MetricGroup& cache = w.nexus_a.kernel().decision_cache().metrics();
  EXPECT_FALSE(w.nexus_a.kernel().Authorize(request).ok());
  EXPECT_EQ(*remote.metrics().Value("queries"), queries);
  const uint64_t hits = *cache.Value("hits");
  EXPECT_FALSE(w.nexus_a.kernel().Authorize(request).ok());
  EXPECT_EQ(*cache.Value("hits"), hits + 1);
  EXPECT_EQ(*remote.metrics().Value("queries"), queries);

  // A goal the proof discharges again: the allow rests on a fresh answer.
  ASSERT_TRUE(w.nexus_a.engine().SetGoal(subject, "open", "door", allow_goal).ok());
  EXPECT_TRUE(w.nexus_a.kernel().Authorize(request).ok());
  EXPECT_EQ(*remote.metrics().Value("queries"), queries + 1);
}

TEST(RemoteAuthorityTest, MixedBatchMatchesSerialAndAsksOnlyDischargingProofs) {
  RemoteAuthorityWorld w;
  core::LambdaAuthority revoked(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Revoked";
      },
      [](const nal::Formula&) { return false; });
  w.service.AddAuthority(&revoked);
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  w.nexus_a.guard().AddRemoteAuthority(&remote);
  w.nexus_a.kernel().set_decision_cache_enabled(false);

  kernel::ProcessId owner = *w.nexus_a.CreateProcess("owner", ToBytes("o"));
  nal::Formula shared = F("Session says sessionActive(alice)");
  nal::Formula declined = F("Revoked says sessionActive(mallory)");
  nal::Formula certified = F("Certifier says safe()");
  w.nexus_a.engine().SayAs(nal::Principal("Certifier"), F("safe()"));
  struct Item {
    nal::Formula goal;
    nal::Proof proof;  // Null: the subject holds no proof.
    bool allowed;
  };
  const std::vector<Item> items = {
      {shared, nal::proof::Authority(shared), true},
      {shared, nal::proof::Authority(shared), true},
      // A goal no answer lets this proof discharge: its leaf stays unasked.
      {F("HomeCA says absent(alice)"),
       nal::proof::Authority(F("Session says sessionActive(bob)")), false},
      {declined, nal::proof::Authority(declined), false},
      {shared, nullptr, false},
      {certified, nal::proof::Premise(certified), true},
  };
  std::vector<kernel::AuthzRequest> requests;
  for (size_t i = 0; i < items.size(); ++i) {
    kernel::ProcessId subject =
        *w.nexus_a.CreateProcess("s" + std::to_string(i), ToBytes("s"));
    std::string object = "door" + std::to_string(i);
    w.nexus_a.engine().RegisterObject(object, owner, kernel::kKernelProcessId);
    ASSERT_TRUE(w.nexus_a.engine().SetGoal(owner, "open", object, items[i].goal).ok());
    if (items[i].proof != nullptr) {
      ASSERT_TRUE(w.nexus_a.engine().SetProof(subject, "open", object, items[i].proof).ok());
    }
    requests.push_back(kernel::AuthzRequest::Of(subject, "open", object));
  }

  std::vector<Status> serial;
  for (const kernel::AuthzRequest& request : requests) {
    serial.push_back(w.nexus_a.kernel().Authorize(request));
  }
  const uint64_t queries = *remote.metrics().Value("queries");
  const uint64_t trips = *remote.metrics().Value("batch_round_trips");
  std::vector<Status> batched = w.nexus_a.kernel().AuthorizeBatch(requests);
  ASSERT_EQ(batched.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(serial[i].ok(), items[i].allowed) << "request " << i;
    EXPECT_EQ(batched[i].ok(), serial[i].ok()) << "request " << i;
  }
  // One round trip carries the shared leaf once and the declined one; the
  // leaf of the proof that cannot discharge its goal never goes out.
  EXPECT_EQ(*remote.metrics().Value("batch_round_trips") - trips, 1u);
  EXPECT_EQ(*remote.metrics().Value("queries") - queries, 2u);
}

// ---------------------------------------------------- Federated scenario

TEST(PresenceFederationTest, EndToEndSignupAndPost) {
  Rng rng_a(1), rng_b(2);
  tpm::Tpm tpm_provider(rng_a), tpm_home(rng_b);
  core::Nexus provider(&tpm_provider, core::NexusOptions{.seed = 10});
  core::Nexus home(&tpm_home, core::NexusOptions{.seed = 20});
  Transport transport(9);
  apps::PresenceFederation fed(&provider, &home, &transport);

  ASSERT_TRUE(fed.Connect().ok());
  fed.Type("alice", 150);
  ASSERT_TRUE(fed.ShipPresence("alice").ok());

  Status signup = fed.SignUp("alice");
  EXPECT_TRUE(signup.ok()) << signup.ToString();
  EXPECT_TRUE(fed.Post("alice", "hello from another machine").ok());
  EXPECT_GE(*fed.session_authority().metrics().Value("vouched"), 1u);
}

TEST(PresenceFederationTest, TooFewKeypressesIsDenied) {
  Rng rng_a(1), rng_b(2);
  tpm::Tpm tpm_provider(rng_a), tpm_home(rng_b);
  core::Nexus provider(&tpm_provider, core::NexusOptions{.seed = 10});
  core::Nexus home(&tpm_home, core::NexusOptions{.seed = 20});
  Transport transport(9);
  apps::PresenceFederation fed(&provider, &home, &transport);

  ASSERT_TRUE(fed.Connect().ok());
  fed.Type("bot", 3);
  ASSERT_TRUE(fed.ShipPresence("bot").ok());
  EXPECT_FALSE(fed.SignUp("bot").ok());
  EXPECT_FALSE(fed.Post("bot", "spam").ok());
}

TEST(PresenceFederationTest, EndedSessionIsDeniedFreshly) {
  Rng rng_a(1), rng_b(2);
  tpm::Tpm tpm_provider(rng_a), tpm_home(rng_b);
  core::Nexus provider(&tpm_provider, core::NexusOptions{.seed = 10});
  core::Nexus home(&tpm_home, core::NexusOptions{.seed = 20});
  Transport transport(9);
  apps::PresenceFederation fed(&provider, &home, &transport);

  ASSERT_TRUE(fed.Connect().ok());
  fed.Type("mallory", 500);
  ASSERT_TRUE(fed.ShipPresence("mallory").ok());
  // The certificate is still perfectly valid — but the authority answer is
  // fresh, untransferable, and now negative.
  fed.EndSession("mallory");
  EXPECT_FALSE(fed.SignUp("mallory").ok());
}

}  // namespace
}  // namespace nexus::net
