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
  EXPECT_EQ(transport.stats().dropped, 1u);
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
  EXPECT_GT(w.transport.stats().dropped, 0u);
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
  ASSERT_EQ(responder->stats().data_received, 1u);

  // Replay the recorded data frame: authenticated but already-seen
  // sequence number -> rejected, exactly-once delivery preserved.
  ASSERT_FALSE(tee.recorded.empty());
  Message replay = tee.recorded.back();
  ASSERT_EQ(replay.kind, "data");
  w.node_b->OnMessage(replay);
  EXPECT_EQ(responder->stats().data_received, 1u);
  EXPECT_EQ(responder->stats().replays_rejected, 1u);
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
  uint64_t received_before = responder->stats().data_received;
  Message tampered = tee.recorded.back();
  ASSERT_EQ(tampered.kind, "data");
  tampered.payload[tampered.payload.size() / 2] ^= 0x40;  // Flip ciphertext bits.
  w.node_b->OnMessage(tampered);
  EXPECT_EQ(responder->stats().data_received, received_before);
  EXPECT_GE(responder->stats().bad_tags_rejected, 1u);
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
  EXPECT_EQ(importer.stats().imported, 1u);
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
  EXPECT_EQ(importer.stats().rejected, 1u);
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
  EXPECT_EQ(w.service.queries_served(), 2u);
  EXPECT_EQ(remote.stats().vouched, 1u);
  EXPECT_EQ(remote.stats().denied, 1u);
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
  EXPECT_EQ(remote.stats().denied_timeout, 1u);
  EXPECT_EQ(remote.stats().denied_unreachable, 0u);
}

TEST(RemoteAuthorityTest, LostAnswerIsADenial) {
  RemoteAuthorityWorld w;
  ASSERT_TRUE(w.node_a->Connect("b").ok());
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = 10, .drop_rate = 1.0});
  RemoteAuthority remote(w.node_a.get(), "b", nullptr);
  EXPECT_FALSE(remote.VouchOne(F("Session says sessionActive(alice)"), /*timeout_us=*/10000));
  EXPECT_EQ(remote.stats().denied_timeout, 1u);
  EXPECT_EQ(remote.stats().denied_unreachable, 0u);
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
  EXPECT_EQ(remote.stats().batch_round_trips, 1u);
  EXPECT_EQ(w.service.batches_served(), 1u);
  EXPECT_EQ(w.service.queries_served(), 3u);  // Statements, not round trips.

  // Lost replies deny the whole batch (fail closed).
  w.transport.SetLink("a", "b", LinkConfig{.latency_us = 10, .drop_rate = 1.0});
  answers = remote.Vouch(statements, 10000).Wait().answers;
  EXPECT_FALSE(answers[0] || answers[1] || answers[2]);
  EXPECT_EQ(remote.stats().denied_timeout, 3u);
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
  EXPECT_EQ(w.service.queries_served(), 0u);
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

  uint64_t remote_before = w.nexus_a.guard().stats().remote_queries;
  std::vector<Status> decisions = w.nexus_a.kernel().AuthorizeBatch(requests);
  for (const Status& status : decisions) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(w.nexus_a.guard().stats().remote_queries, remote_before + 1);
  EXPECT_EQ(remote.stats().batch_round_trips, 1u);
  EXPECT_EQ(w.service.batches_served(), 1u);

  // The answers were batch-scoped, not stored: re-running after the remote
  // state flips is freshly denied.
  w.vouch = false;
  decisions = w.nexus_a.kernel().AuthorizeBatch(requests);
  for (const Status& status : decisions) {
    EXPECT_FALSE(status.ok());
  }
  EXPECT_EQ(w.nexus_a.guard().stats().remote_queries, remote_before + 2);
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
    uint64_t trips = remote.stats().batch_round_trips;
    uint64_t served = w.service.queries_served();
    kernel::AuthzDecision decision =
        batch ? w.nexus_a.engine().AuthorizeBatch(std::span(&request, 1))[0]
              : w.nexus_a.engine().Authorize(request);
    EXPECT_TRUE(decision.allowed()) << decision.ToStatus().ToString();
    EXPECT_EQ(remote.stats().batch_round_trips - trips, 2u);
    EXPECT_EQ(w.service.queries_served() - served, static_cast<uint64_t>(kLeaves));
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
  EXPECT_EQ(remote_b.stats().batch_round_trips, 1u);
  EXPECT_EQ(remote_c.stats().batch_round_trips, 1u);
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
  EXPECT_GE(w.nexus_a.guard().stats().remote_queries, 1u);

  w.vouch = false;
  EXPECT_FALSE(w.nexus_a.kernel().Authorize(
      kernel::AuthzRequest::Of(subject, "open", "door")).ok());
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
  EXPECT_GE(fed.session_authority().stats().vouched, 1u);
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
