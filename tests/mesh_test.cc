#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/authority.h"
#include "core/nexus.h"
#include "crypto/sha256.h"
#include "harness/workload.h"
#include "kernel/decision_cache.h"
#include "nal/parser.h"
#include "net/channel.h"
#include "net/mesh/mesh.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "tpm/tpm.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nexus::net::mesh {
namespace {

nal::Formula F(std::string_view text) {
  Result<nal::Formula> f = nal::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << " -> " << f.status().ToString();
  return f.ok() ? *f : nullptr;
}

// Swallows raw transport messages; used to advance the simulated clock.
class NullEndpoint : public Endpoint {
 public:
  void OnMessage(const Message&) override {}
};

// Delivers one dummy message over a link of the requested latency, which
// moves the simulated clock forward by exactly that much.
void AdvanceClock(Transport& transport, NullEndpoint& sink, uint64_t us) {
  ASSERT_TRUE(transport.Attach("clockhand", &sink).ok());
  transport.SetLink("ticker", "clockhand", LinkConfig{.latency_us = us, .drop_rate = 0.0});
  ASSERT_TRUE(
      transport.Send(Message{"ticker", "clockhand", transport.AllocateChannelId(), "tick", {}})
          .ok());
  transport.DeliverAll();
}

// N full instances on one simulated fabric. Out-of-band EK pinning is
// deliberately SPARSE — a chain (i <-> i+1) or a star (0 <-> i) — so the
// tests prove that gossip carries trust transitively to node pairs that
// never exchanged keys out of band.
struct MeshWorld {
  enum Topology { kChain, kStar };

  explicit MeshWorld(size_t n, Topology topology, uint64_t transport_seed = 7)
      : transport(transport_seed) {
    for (size_t i = 0; i < n; ++i) {
      Rng rng(1000 + 13 * i);  // Tpm consumes entropy at construction only.
      tpms.push_back(std::make_unique<tpm::Tpm>(rng));
      nexuses.push_back(std::make_unique<core::Nexus>(
          tpms.back().get(), core::NexusOptions{.seed = i + 1}));
    }
    if (topology == kChain) {
      for (size_t i = 0; i + 1 < n; ++i) {
        Pin(i, i + 1);
      }
    } else {
      for (size_t i = 1; i < n; ++i) {
        Pin(0, i);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<NetNode>(nexuses[i].get(), &transport, Name(i)));
      meshes.push_back(std::make_unique<MeshNode>(nodes.back().get()));
    }
  }

  static NodeId Name(size_t i) { return "n" + std::to_string(i); }

  void Pin(size_t i, size_t j) {
    EXPECT_TRUE(nexuses[i]->RegisterPeer(Name(j), tpms[j]->endorsement_public_key()).ok());
    EXPECT_TRUE(nexuses[j]->RegisterPeer(Name(i), tpms[i]->endorsement_public_key()).ok());
  }

  void JoinChain() {
    for (size_t i = 1; i < meshes.size(); ++i) {
      ASSERT_TRUE(meshes[i]->Join(Name(i - 1)).ok());
      transport.DeliverAll();
    }
  }

  // Anti-entropy everywhere until every digest agrees (or rounds run out).
  bool Converge(size_t max_rounds) {
    for (size_t round = 0; round < max_rounds; ++round) {
      for (auto& mesh : meshes) {
        mesh->AntiEntropy();
      }
      transport.DeliverAll();
      bool converged = true;
      for (auto& mesh : meshes) {
        converged = converged && mesh->Digest() == meshes[0]->Digest();
      }
      if (converged) {
        return true;
      }
    }
    return false;
  }

  // Mints "<process principal> says reading(i)" on node `i` and returns the
  // externalized (TPM-chained) certificate bytes.
  Bytes MintCertificate(size_t i) {
    Result<kernel::ProcessId> pid =
        nexuses[i]->CreateProcess("sensor", ToBytes("sensor-code"));
    EXPECT_TRUE(pid.ok());
    Result<core::LabelHandle> handle =
        nexuses[i]->engine().Say(*pid, "reading(" + std::to_string(i) + ")");
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    Result<core::Certificate> cert = nexuses[i]->ExternalizeLabel(*pid, *handle);
    EXPECT_TRUE(cert.ok()) << cert.status().ToString();
    return cert->Serialize();
  }

  Transport transport;
  std::vector<std::unique_ptr<tpm::Tpm>> tpms;
  std::vector<std::unique_ptr<core::Nexus>> nexuses;
  std::vector<std::unique_ptr<NetNode>> nodes;
  std::vector<std::unique_ptr<MeshNode>> meshes;
};

// ------------------------------------------------------------ convergence

TEST(MeshGossipTest, ChainConvergesToByteIdenticalRegistries) {
  MeshWorld w(4, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(8));

  // Strong eventual consistency, asserted at the byte level: canonical
  // serializations are EQUAL, not merely equivalent.
  Bytes reference = w.meshes[0]->registry().CanonicalSnapshot();
  for (size_t i = 1; i < w.meshes.size(); ++i) {
    EXPECT_EQ(w.meshes[i]->registry().CanonicalSnapshot(), reference) << "node " << i;
  }
  for (auto& mesh : w.meshes) {
    EXPECT_EQ(mesh->registry().peer_count(), 4u);
  }

  // Transitive trust: n0 and n3 never exchanged EKs out of band (the chain
  // pins adjacent pairs only), yet the gossiped record lets them attest a
  // direct channel.
  Result<AttestedChannel*> channel = w.nodes[0]->Connect("n3");
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  EXPECT_TRUE((*channel)->established());
}

TEST(MeshGossipTest, ConvergenceSurvivesReorderingAndDuplication) {
  MeshWorld w(3, MeshWorld::kChain);
  // Every node mints a certificate BEFORE any gossip moves.
  std::vector<Bytes> certs;
  for (size_t i = 0; i < 3; ++i) {
    certs.push_back(w.MintCertificate(i));
  }
  // Asymmetric link latencies: messages entering the mesh at the same
  // instant arrive in different orders on different links.
  w.transport.SetLink("n0", "n1", LinkConfig{.latency_us = 500, .drop_rate = 0.0});
  w.transport.SetLink("n1", "n2", LinkConfig{.latency_us = 35, .drop_rate = 0.0});
  w.JoinChain();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.meshes[i]->gossip().PublishCertificate(certs[i]).ok());
  }
  w.transport.DeliverAll();
  ASSERT_TRUE(w.Converge(8));

  Bytes reference = w.meshes[0]->registry().CanonicalSnapshot();
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(w.meshes[i]->registry().CanonicalSnapshot(), reference) << "node " << i;
  }
  for (auto& mesh : w.meshes) {
    EXPECT_EQ(mesh->registry().cert_count(), 3u);
    for (const Bytes& cert : certs) {
      EXPECT_TRUE(mesh->registry().HasCertificate(crypto::Sha256Hex(cert)));
    }
  }

  // Duplicated delivery: full-state re-pushes are idempotent no-ops — the
  // converged snapshot does not move by a byte.
  ASSERT_TRUE(w.meshes[1]->gossip().PushState("n0").ok());
  ASSERT_TRUE(w.meshes[1]->gossip().PushState("n0").ok());
  w.transport.DeliverAll();
  EXPECT_EQ(w.meshes[0]->registry().CanonicalSnapshot(), reference);
  EXPECT_GT(*w.meshes[0]->gossip().metrics().Value("duplicates"), 0u);
}

TEST(MeshGossipTest, CertificateArrivingBeforeItsAnchorParksThenImports) {
  MeshWorld w(3, MeshWorld::kStar);  // Pins: n0<->n1, n0<->n2.
  // n2 enters the mesh and publishes its certificate while n1 is still out.
  ASSERT_TRUE(w.meshes[2]->Join("n0").ok());
  w.transport.DeliverAll();
  // Joining pushes one way; push back so n2's registry knows n0 and the
  // certificate publish below has a peer to flood to.
  ASSERT_TRUE(w.meshes[0]->gossip().PushState("n2").ok());
  w.transport.DeliverAll();
  Bytes cert = w.MintCertificate(2);
  std::string digest = crypto::Sha256Hex(cert);
  ASSERT_TRUE(w.meshes[2]->gossip().PublishCertificate(cert).ok());
  w.transport.DeliverAll();
  ASSERT_TRUE(w.meshes[0]->registry().HasCertificate(digest));

  // Reordered delivery: n1 receives the CERTIFICATE before the peer record
  // that anchors its chain. It must park, not import and not reject.
  ASSERT_TRUE(w.nodes[0]->Connect("n1").ok());
  Bytes cert_only;
  AppendU32(cert_only, 0);  // No peer records...
  AppendU32(cert_only, 1);  // ...one certificate.
  AppendLengthPrefixed(cert_only, cert);
  AttestedChannel* channel = w.nodes[0]->ChannelTo("n1");
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->SendSecure(std::string(GossipService::kServiceName), cert_only).ok());
  w.transport.DeliverAll();
  EXPECT_EQ(w.meshes[1]->registry().cert_count(), 0u);
  EXPECT_EQ(w.meshes[1]->gossip().pending_certs(), 1u);
  EXPECT_GE(*w.meshes[1]->gossip().metrics().Value("pending_parked"), 1u);

  // The anchor lands (full state push) and the parked certificate imports:
  // same final registry as any other delivery order.
  ASSERT_TRUE(w.meshes[0]->gossip().PushState("n1").ok());
  w.transport.DeliverAll();
  EXPECT_EQ(w.meshes[1]->gossip().pending_certs(), 0u);
  EXPECT_TRUE(w.meshes[1]->registry().HasCertificate(digest));
}

// ---------------------------------------------------------- negative paths

TEST(MeshGossipTest, TamperedCertificateIsRejectedWithoutPoisoningNeighbors) {
  MeshWorld w(3, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(8));

  Bytes good = w.MintCertificate(0);
  Bytes tampered = good;
  tampered[tampered.size() / 2] ^= 0xFF;

  Bytes payload;
  AppendU32(payload, 0);
  AppendU32(payload, 1);
  AppendLengthPrefixed(payload, tampered);
  AttestedChannel* channel = w.nodes[0]->ChannelTo("n1");
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->SendSecure(std::string(GossipService::kServiceName), payload).ok());
  w.transport.DeliverAll();

  // The forgery is rejected outright: the channel authenticated the
  // MESSENGER (n0), but the STATEMENT fails chain verification.
  EXPECT_GE(*w.meshes[1]->gossip().metrics().Value("rejected"), 1u);
  EXPECT_EQ(w.meshes[1]->registry().cert_count(), 0u);
  EXPECT_EQ(w.meshes[1]->gossip().pending_certs(), 0u);

  // No poisoning: it never entered n1's registry, so anti-entropy rounds
  // never re-gossip it — n2 stays clean.
  ASSERT_TRUE(w.Converge(8));
  EXPECT_EQ(w.meshes[2]->registry().cert_count(), 0u);

  // The honest original still propagates through the same path afterwards.
  ASSERT_TRUE(w.meshes[0]->gossip().PublishCertificate(good).ok());
  w.transport.DeliverAll();
  ASSERT_TRUE(w.Converge(8));
  for (auto& mesh : w.meshes) {
    EXPECT_EQ(mesh->registry().cert_count(), 1u);
    EXPECT_TRUE(mesh->registry().HasCertificate(crypto::Sha256Hex(good)));
  }
}

TEST(MeshGossipTest, ByteVariantOfAConvergedCertificateIsRejected) {
  MeshWorld w(3, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(8));
  Bytes good = w.MintCertificate(0);
  ASSERT_TRUE(w.meshes[0]->gossip().PublishCertificate(good).ok());
  w.transport.DeliverAll();
  ASSERT_TRUE(w.Converge(8));

  // The same certificate with a byte appended: its signatures cover only
  // what it decodes to, so without a canonical-encoding check it would
  // verify and enter every registry under a digest of its own.
  Bytes variant = good;
  variant.push_back(0);
  Bytes payload;
  AppendU32(payload, 0);
  AppendU32(payload, 1);
  AppendLengthPrefixed(payload, variant);
  uint64_t rejected_before = *w.meshes[1]->gossip().metrics().Value("rejected");
  AttestedChannel* channel = w.nodes[0]->ChannelTo("n1");
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->SendSecure(std::string(GossipService::kServiceName), payload).ok());
  w.transport.DeliverAll();
  EXPECT_GT(*w.meshes[1]->gossip().metrics().Value("rejected"), rejected_before);

  ASSERT_TRUE(w.Converge(8));
  for (auto& mesh : w.meshes) {
    EXPECT_EQ(mesh->registry().cert_count(), 1u);
    EXPECT_TRUE(mesh->registry().HasCertificate(crypto::Sha256Hex(good)));
  }
}

TEST(MeshGossipTest, PayloadWithTrailingBytesIsRejectedWhole) {
  MeshWorld w(3, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(8));
  Bytes good = w.MintCertificate(0);
  Bytes payload;
  AppendU32(payload, 0);
  AppendU32(payload, 1);
  AppendLengthPrefixed(payload, good);
  Bytes trailing = payload;
  trailing.push_back(0);
  AttestedChannel* channel = w.nodes[0]->ChannelTo("n1");
  ASSERT_NE(channel, nullptr);

  // The certificate decodes and verifies, but the payload carrying it does
  // not end where its sections do: nothing of it applies.
  uint64_t rejected_before = *w.meshes[1]->gossip().metrics().Value("rejected");
  ASSERT_TRUE(channel->SendSecure(std::string(GossipService::kServiceName), trailing).ok());
  w.transport.DeliverAll();
  EXPECT_EQ(*w.meshes[1]->gossip().metrics().Value("rejected"), rejected_before + 1);
  EXPECT_EQ(w.meshes[1]->registry().cert_count(), 0u);

  ASSERT_TRUE(channel->SendSecure(std::string(GossipService::kServiceName), payload).ok());
  w.transport.DeliverAll();
  EXPECT_TRUE(w.meshes[1]->registry().HasCertificate(crypto::Sha256Hex(good)));
}

// ------------------------------------------------- cross-node invalidation

TEST(MeshInvalidationTest, CrossNodeSetGoalRetiresRemoteCachedVerdicts) {
  MeshWorld w(2, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(4));
  core::Nexus& a = *w.nexuses[0];
  core::Nexus& b = *w.nexuses[1];

  Result<kernel::ProcessId> owner = a.CreateProcess("owner", ToBytes("o"));
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(
      a.engine().RegisterObject("mesh:doc", *owner, kernel::kKernelProcessId).ok());

  // b holds a cached verdict for the pair a is about to re-goal.
  kernel::AuthzRequest request = kernel::AuthzRequest::Of(4242, "mesh_read", "mesh:doc");
  b.kernel().decision_cache().Insert(request, true);
  ASSERT_TRUE(b.kernel().decision_cache().Lookup(request).has_value());
  uint64_t gen_before = b.kernel().decision_cache().Generation(request);

  // setgoal on a: the kernel invalidation sink broadcasts to the mesh.
  ASSERT_TRUE(
      a.engine().SetGoal(*owner, "mesh_read", "mesh:doc", F("Owner says ok(0)")).ok());
  w.transport.DeliverAll();

  // b's verdict is RETIRED: generation bumped, lookup misses.
  EXPECT_GT(b.kernel().decision_cache().Generation(request), gen_before);
  EXPECT_FALSE(b.kernel().decision_cache().Lookup(request).has_value());
  EXPECT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n0"), 1u);
  EXPECT_EQ(*w.meshes[1]->invalidation().metrics().Value("applied"), 1u);
}

TEST(MeshInvalidationTest, DuplicatedAndReorderedInvalidationsApplyExactlyOnce) {
  MeshWorld w(2, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(4));
  core::Nexus& a = *w.nexuses[0];
  core::Nexus& b = *w.nexuses[1];
  Result<kernel::ProcessId> owner = a.CreateProcess("owner", ToBytes("o"));
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(
      a.engine().RegisterObject("mesh:doc", *owner, kernel::kKernelProcessId).ok());

  ASSERT_TRUE(
      a.engine().SetGoal(*owner, "mesh_read", "mesh:doc", F("Owner says ok(1)")).ok());
  w.transport.DeliverAll();
  ASSERT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n0"), 1u);

  // Reordered delivery: epoch 2 rides a slow link, epoch 3 a fast one, so
  // epoch 3 lands first. Both must apply — a bump is a bump.
  w.transport.SetLink("n0", "n1", LinkConfig{.latency_us = 1000, .drop_rate = 0.0});
  ASSERT_TRUE(
      a.engine().SetGoal(*owner, "mesh_read", "mesh:doc", F("Owner says ok(2)")).ok());
  w.transport.SetLink("n0", "n1", LinkConfig{.latency_us = 10, .drop_rate = 0.0});
  ASSERT_TRUE(
      a.engine().SetGoal(*owner, "mesh_read", "mesh:doc", F("Owner says ok(3)")).ok());
  w.transport.DeliverAll();
  const metrics::MetricGroup& counters = w.meshes[1]->invalidation().metrics();
  EXPECT_EQ(*counters.Value("applied"), 3u);
  EXPECT_EQ(*counters.Value("duplicates"), 0u);
  EXPECT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n0"), 3u);

  // Duplicated delivery: resend the whole outbound log. The re-applies are
  // exact no-ops — a verdict cached AFTER the originals survives, and the
  // generation does not move.
  kernel::AuthzRequest request = kernel::AuthzRequest::Of(4242, "mesh_read", "mesh:doc");
  b.kernel().decision_cache().Insert(request, true);
  uint64_t gen = b.kernel().decision_cache().Generation(request);
  EXPECT_GE(w.meshes[0]->invalidation().ResendRecent(), 3u);
  w.transport.DeliverAll();
  EXPECT_EQ(b.kernel().decision_cache().Generation(request), gen);
  EXPECT_TRUE(b.kernel().decision_cache().Lookup(request).has_value());
  EXPECT_EQ(*counters.Value("applied"), 3u);
  EXPECT_GE(*counters.Value("duplicates"), 3u);
  EXPECT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n0"), 3u);
}

TEST(MeshInvalidationTest, ForgedOriginInvalidationIsRejected) {
  MeshWorld w(3, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(8));

  // n0 ships an invalidation CLAIMING n2 originated it. Invalidations are
  // first-hand only: the origin must be the delivering channel's attested
  // peer, so the forgery is rejected and nobody's cache moves.
  Bytes payload;
  AppendLengthPrefixed(payload, ToBytes(std::string("n2")));
  AppendU64(payload, 7);
  AppendLengthPrefixed(payload, ToBytes(std::string("mesh_read")));
  AppendLengthPrefixed(payload, ToBytes(std::string("mesh:doc")));
  AttestedChannel* channel = w.nodes[0]->ChannelTo("n1");
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(
      channel->SendSecure(std::string(InvalidationPropagator::kServiceName), payload).ok());
  w.transport.DeliverAll();

  EXPECT_GE(*w.meshes[1]->invalidation().metrics().Value("rejected"), 1u);
  EXPECT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n2"), 0u);
  EXPECT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n0"), 0u);
  EXPECT_EQ(*w.meshes[1]->invalidation().metrics().Value("applied"), 0u);
}

TEST(MeshInvalidationTest, UnknownPairIsNotInternedButConsumesItsEpoch) {
  MeshWorld w(2, MeshWorld::kChain);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(4));

  // A first-hand invalidation naming a pair no node ever interned: the
  // receiver has no verdict to retire, and peer-supplied names must not
  // grow its process-wide name tables.
  Bytes payload;
  AppendLengthPrefixed(payload, ToBytes(std::string("n0")));
  AppendU64(payload, 5);
  AppendLengthPrefixed(payload, ToBytes(std::string("mesh-never-seen-op")));
  AppendLengthPrefixed(payload, ToBytes(std::string("mesh:never-seen-object")));
  AttestedChannel* channel = w.nodes[0]->ChannelTo("n1");
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(
      channel->SendSecure(std::string(InvalidationPropagator::kServiceName), payload).ok());
  w.transport.DeliverAll();

  EXPECT_FALSE(kernel::FindOp("mesh-never-seen-op").has_value());
  EXPECT_FALSE(kernel::FindObject("mesh:never-seen-object").has_value());
  EXPECT_EQ(w.meshes[1]->invalidation().AppliedEpoch("n0"), 5u);
  EXPECT_EQ(*w.meshes[1]->invalidation().metrics().Value("applied"), 1u);
}

// ------------------------------------------------------------- quorum

// One client plus N authority members, star-pinned, equal link latencies.
struct QuorumWorld {
  static constexpr uint64_t kLatencyUs = 500;

  explicit QuorumWorld(size_t members, uint64_t transport_seed = 9)
      : transport(transport_seed) {
    for (size_t i = 0; i <= members; ++i) {
      Rng rng(7000 + 11 * i);
      tpms.push_back(std::make_unique<tpm::Tpm>(rng));
      nexuses.push_back(std::make_unique<core::Nexus>(
          tpms.back().get(), core::NexusOptions{.seed = 100 + i}));
    }
    for (size_t i = 1; i <= members; ++i) {
      (void)nexuses[0]->RegisterPeer(Name(i), tpms[i]->endorsement_public_key());
      (void)nexuses[i]->RegisterPeer(Name(0), tpms[0]->endorsement_public_key());
    }
    for (size_t i = 0; i <= members; ++i) {
      nodes.push_back(std::make_unique<NetNode>(nexuses[i].get(), &transport, Name(i)));
    }
    for (size_t i = 1; i <= members; ++i) {
      transport.SetLink(Name(0), Name(i),
                        LinkConfig{.latency_us = kLatencyUs, .drop_rate = 0.0});
      services.push_back(std::make_unique<AuthorityService>(nodes[i].get()));
      authorities.push_back(std::make_unique<core::LambdaAuthority>(
          [](const nal::Formula& f) {
            return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
          },
          [this](const nal::Formula&) { return vouch; }));
      services.back()->AddAuthority(authorities.back().get());
      remotes.push_back(std::make_unique<RemoteAuthority>(
          nodes[0].get(), Name(i), nullptr));
    }
  }

  static NodeId Name(size_t i) { return i == 0 ? "client" : "m" + std::to_string(i); }

  // Handshake every member channel up front so latency measurements see
  // only the consultation round trips.
  void ConnectAll() {
    for (size_t i = 1; i < nodes.size(); ++i) {
      ASSERT_TRUE(nodes[0]->Connect(Name(i)).ok());
    }
  }

  Transport transport;
  std::vector<std::unique_ptr<tpm::Tpm>> tpms;
  std::vector<std::unique_ptr<core::Nexus>> nexuses;
  std::vector<std::unique_ptr<NetNode>> nodes;
  std::vector<std::unique_ptr<AuthorityService>> services;
  std::vector<std::unique_ptr<core::LambdaAuthority>> authorities;
  std::vector<std::unique_ptr<RemoteAuthority>> remotes;
  bool vouch = true;
};

TEST(QuorumAuthorityTest, QuorumConsultationCostsMaxOfKNotSumOfK) {
  QuorumWorld w(3);
  w.ConnectAll();
  QuorumPolicy policy;
  policy.quorum = 3;
  QuorumAuthority quorum(&w.transport, policy);
  for (auto& remote : w.remotes) {
    quorum.AddMember(remote.get());
  }

  nal::Formula statement = F("Session says sessionActive(alice)");
  uint64_t t0 = w.transport.now_us();
  EXPECT_TRUE(quorum.VouchOne(statement, /*timeout_us=*/100000));
  uint64_t elapsed = w.transport.now_us() - t0;

  // All three member round trips were in flight before any wait, so on the
  // simulated clock the consultation costs ONE round trip (max-of-K), not
  // three back to back (sum-of-K would be >= 3000us here).
  EXPECT_EQ(elapsed, 2 * QuorumWorld::kLatencyUs);
  EXPECT_EQ(*quorum.metrics().Value("vouched"), 1u);
  EXPECT_EQ(*quorum.metrics().Value("member_rounds"), 3u);
}

TEST(QuorumAuthorityTest, ResponsiveNoVotesAreNoQuorumNotTimeout) {
  QuorumWorld w(3);
  w.ConnectAll();
  QuorumPolicy policy;
  policy.quorum = 2;
  QuorumAuthority quorum(&w.transport, policy);
  for (auto& remote : w.remotes) {
    quorum.AddMember(remote.get());
  }

  w.vouch = false;  // Everyone answers, nobody vouches.
  EXPECT_FALSE(quorum.VouchOne(F("Session says sessionActive(alice)"), 100000));
  EXPECT_EQ(*quorum.metrics().Value("denied_no_quorum"), 1u);
  EXPECT_EQ(*quorum.metrics().Value("denied_timeout"), 0u);
}

TEST(QuorumAuthorityTest, PartitionedMinorityDeniesThenHealedQuorumRecovers) {
  QuorumWorld w(3);
  w.ConnectAll();
  QuorumPolicy policy;
  policy.quorum = 2;
  policy.failures_before_backoff = 1;
  policy.backoff_us = 200000;
  QuorumAuthority quorum(&w.transport, policy);
  for (auto& remote : w.remotes) {
    quorum.AddMember(remote.get());
  }
  nal::Formula statement = F("Session says sessionActive(alice)");

  // Partition two of three members away: the client side is a minority of
  // the quorum's voters and MUST deny — as a timeout-deny, because the
  // missing answers (not no-votes) made K arithmetically impossible.
  w.transport.SetLink("client", "m2",
                      LinkConfig{.latency_us = QuorumWorld::kLatencyUs, .drop_rate = 1.0});
  w.transport.SetLink("client", "m3",
                      LinkConfig{.latency_us = QuorumWorld::kLatencyUs, .drop_rate = 1.0});
  EXPECT_FALSE(quorum.VouchOne(statement, /*timeout_us=*/10000));
  EXPECT_EQ(*quorum.metrics().Value("denied_timeout"), 1u);
  EXPECT_EQ(*quorum.metrics().Value("vouched"), 0u);

  // The failed members are sidelined: the next query skips them entirely
  // instead of stalling on their timeout again.
  EXPECT_FALSE(quorum.VouchOne(statement, /*timeout_us=*/10000));
  EXPECT_GE(*quorum.metrics().Value("members_skipped"), 2u);

  // Heal the links and let the backoff window lapse on the simulated
  // clock: the quorum recovers without any reconfiguration.
  w.transport.SetLink("client", "m2",
                      LinkConfig{.latency_us = QuorumWorld::kLatencyUs, .drop_rate = 0.0});
  w.transport.SetLink("client", "m3",
                      LinkConfig{.latency_us = QuorumWorld::kLatencyUs, .drop_rate = 0.0});
  NullEndpoint sink;
  AdvanceClock(w.transport, sink, policy.backoff_us + 50000);
  EXPECT_TRUE(quorum.VouchOne(statement, /*timeout_us=*/10000));
  EXPECT_EQ(*quorum.metrics().Value("vouched"), 1u);
}

TEST(QuorumAuthorityTest, NestedQuorumTimeoutIsADeadMemberNotANoVote) {
  // An inner 2-of-3 quorum is the only member of an outer 1-of-1 quorum,
  // and every inner link drops. The inner quorum times out, so the outer
  // must see an unresponsive member: a timeout-deny that sidelines it, not
  // a responsive no-vote.
  QuorumWorld w(3);
  w.ConnectAll();
  QuorumPolicy inner_policy;
  inner_policy.quorum = 2;
  QuorumAuthority inner(&w.transport, inner_policy);
  for (auto& remote : w.remotes) {
    inner.AddMember(remote.get());
  }
  QuorumPolicy outer_policy;
  outer_policy.quorum = 1;
  outer_policy.failures_before_backoff = 1;
  QuorumAuthority outer(&w.transport, outer_policy);
  outer.AddMember(&inner);
  for (size_t i = 1; i <= 3; ++i) {
    w.transport.SetLink("client", QuorumWorld::Name(i),
                        LinkConfig{.latency_us = QuorumWorld::kLatencyUs, .drop_rate = 1.0});
  }
  nal::Formula statement = F("Session says sessionActive(alice)");

  EXPECT_FALSE(outer.VouchOne(statement, /*timeout_us=*/10000));
  EXPECT_EQ(*inner.metrics().Value("denied_timeout"), 1u);
  EXPECT_EQ(*outer.metrics().Value("denied_timeout"), 1u);
  EXPECT_EQ(*outer.metrics().Value("denied_no_quorum"), 0u);

  // The second round skips the sidelined inner quorum instead of stalling
  // on its members' timeouts again.
  EXPECT_FALSE(outer.VouchOne(statement, /*timeout_us=*/10000));
  EXPECT_GE(*outer.metrics().Value("members_skipped"), 1u);
}

// --------------------------------------------- auditor + workload coupling

TEST(MeshAuditTest, StaleRemoteVerdictInjectionIsFlaggedByTheAuditor) {
  // End-to-end negative path for the cross-node coherence rule: a remote
  // invalidation lands (real cache bump + kRemoteInvalidate stamps), then a
  // verdict BELOW the remote-raised high-water is forged. The auditor must
  // attribute it to the REMOTE rule, not the plain stale-generation rule.
  harness::WorkloadConfig config;
  config.scenario = "fauxbook";
  config.threads = 2;
  config.logical_calls = 3000;
  config.subjects = 10000;
  config.objects = 64;
  config.audited_objects = 2;
  config.proof_holders = 4;
  config.seed = 91;
  config.audit = true;
  config.inject_stale_remote_verdict = true;
  Result<harness::WorkloadReport> report = harness::WorkloadDriver(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->audited);
  EXPECT_GE(report->audit.remote_invalidation_violations, 1u);
  EXPECT_EQ(report->audit.stale_generation_violations, 0u);
  EXPECT_FALSE(report->audit.clean());
}

TEST(MeshAuditTest, FederationScenarioDrivesTheMeshCleanly) {
  // The fifth workload scenario: allow goals conjoin a session-liveness
  // leaf discharged by a K-of-N quorum over three mesh homes, so every
  // audited engine miss crosses the simulated fabric. The run must stay
  // serializable and violation-free under the full auditor.
  harness::WorkloadConfig config;
  config.scenario = "federation";
  config.threads = 2;
  config.logical_calls = 1200;
  config.subjects = 5000;
  config.objects = 32;
  config.audited_objects = 2;
  config.proof_holders = 4;
  config.seed = 7;
  config.audit = true;
  Result<harness::WorkloadReport> report = harness::WorkloadDriver(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->audited);
  EXPECT_TRUE(report->audit.clean()) << report->audit.Summary();
  EXPECT_GT(report->allows, 0u);
  EXPECT_GT(report->authorize_ops, 0u);
  EXPECT_GT(report->setgoal_ops, 0u);  // Goal flips broadcast mesh invalidations.
}

// ------------------------------------------------------------------ soak

// Partition/heal churn under concurrent vouching, goal flips, and
// anti-entropy — the CI TSan target. A voucher thread hammers a 2-of-3
// quorum through node 0 while a churn thread repeatedly severs and heals
// node 0's links to nodes 2 and 3 (SetLink is mutex-guarded) and the main
// thread flips goals on node 0, broadcasting epoch-stamped invalidations
// into the churn. After the final heal the mesh must converge to
// byte-identical registries, every node must have applied the complete
// invalidation stream, and the quorum must answer again.
TEST(MeshSoakTest, PartitionHealChurnStaysConsistent) {
  MeshWorld w(4, MeshWorld::kChain, /*transport_seed=*/31);
  w.JoinChain();
  ASSERT_TRUE(w.Converge(8));

  core::LambdaAuthority always_yes(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
      },
      [](const nal::Formula&) { return true; });
  std::vector<std::unique_ptr<AuthorityService>> services;
  std::vector<std::unique_ptr<RemoteAuthority>> remotes;
  for (size_t i = 1; i < 4; ++i) {
    services.push_back(std::make_unique<AuthorityService>(w.nodes[i].get()));
    services.back()->AddAuthority(&always_yes);
    remotes.push_back(std::make_unique<RemoteAuthority>(
        w.nodes[0].get(), MeshWorld::Name(i), nullptr));
  }
  QuorumPolicy policy;
  policy.quorum = 2;
  policy.failures_before_backoff = 2;
  policy.backoff_us = 50000;
  QuorumAuthority quorum(&w.transport, policy);
  for (auto& remote : remotes) {
    quorum.AddMember(remote.get());
  }

  Result<kernel::ProcessId> owner =
      w.nexuses[0]->CreateProcess("owner", ToBytes("owner-code"));
  ASSERT_TRUE(owner.ok());
  w.nexuses[0]->engine().RegisterObject("soak:doc", *owner, kernel::kKernelProcessId);

  size_t flips = 40;
  if (const char* env = std::getenv("NEXUS_MESH_SOAK_ITERS")) {
    flips = static_cast<size_t>(std::atoi(env));
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> vouches{0};
  nal::Formula statement = F("Session says sessionActive(soak)");
  std::thread voucher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (quorum.VouchOne(statement, /*timeout_us=*/20000)) {
        vouches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread churner([&] {
    bool cut = false;
    while (!stop.load(std::memory_order_relaxed)) {
      LinkConfig config{.latency_us = 50, .drop_rate = cut ? 1.0 : 0.0};
      w.transport.SetLink(MeshWorld::Name(0), MeshWorld::Name(2), config);
      w.transport.SetLink(MeshWorld::Name(0), MeshWorld::Name(3), config);
      cut = !cut;
      for (auto& mesh : w.meshes) {
        mesh->AntiEntropy();
      }
      w.transport.DeliverAll();
    }
  });
  for (size_t i = 0; i < flips; ++i) {
    Status installed = w.nexuses[0]->engine().SetGoal(
        *owner, "soak_read", "soak:doc",
        F(i % 2 == 0 ? "Owner says ok(0)" : "Owner says ok(1)"));
    ASSERT_TRUE(installed.ok()) << installed.ToString();
    w.transport.DeliverAll();
  }
  stop.store(true, std::memory_order_relaxed);
  voucher.join();
  churner.join();

  // Final heal: convergence, a drained invalidation stream, a live quorum.
  for (size_t i = 1; i < 4; ++i) {
    w.transport.SetLink(MeshWorld::Name(0), MeshWorld::Name(i),
                        LinkConfig{.latency_us = 50, .drop_rate = 0.0});
  }
  ASSERT_TRUE(w.Converge(32));
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(w.meshes[i]->registry().CanonicalSnapshot(),
              w.meshes[0]->registry().CanonicalSnapshot());
  }
  bool drained = false;
  for (int round = 0; round < 64 && !drained; ++round) {
    w.meshes[0]->AntiEntropy();  // ResendRecent retries the broadcast window.
    w.transport.DeliverAll();
    drained = true;
    for (size_t i = 1; i < 4; ++i) {
      drained = drained && w.meshes[i]->invalidation().AppliedEpoch(MeshWorld::Name(0)) ==
                               static_cast<uint64_t>(flips);
    }
  }
  EXPECT_TRUE(drained) << "invalidation stream did not drain after heal";
  NullEndpoint sink;
  AdvanceClock(w.transport, sink, policy.backoff_us + 10000);
  EXPECT_TRUE(quorum.VouchOne(statement, /*timeout_us=*/100000));
}

}  // namespace
}  // namespace nexus::net::mesh
