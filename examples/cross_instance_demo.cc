// Cross-instance attestation walkthrough.
//
// Boots two Nexus instances on separate simulated TPMs, establishes an
// attested channel, ships a NotABot human-presence certificate from the
// user's home machine to a Fauxbook provider, and authorizes a federated
// signup whose proof combines the imported credential with a live
// remote-authority query back to the home instance. Then demonstrates the
// rejection paths: tampered certificates, unknown TPMs, and dead sessions.
//
// Exits 0 iff every step behaves as required.
#include <cstdio>

#include "apps/federation.h"
#include "net/transport.h"
#include "tpm/tpm.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) {
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace nexus;

  std::printf("== Booting two Nexus instances on separate TPMs\n");
  Rng rng_provider(1), rng_home(2);
  tpm::Tpm tpm_provider(rng_provider), tpm_home(rng_home);
  core::Nexus provider(&tpm_provider, core::NexusOptions{.seed = 10});
  core::Nexus home(&tpm_home, core::NexusOptions{.seed = 20});
  std::printf("  provider: %s\n", provider.ExternalKernelPrincipal().ToString().c_str());
  std::printf("  home:     %s\n", home.ExternalKernelPrincipal().ToString().c_str());

  net::Transport transport(9);
  transport.SetLink("provider", "home", net::LinkConfig{.latency_us = 500, .drop_rate = 0.0});
  apps::PresenceFederation fed(&provider, &home, &transport);

  std::printf("== Attested handshake (EK-endorsed NK, transcript signatures)\n");
  uint64_t t0 = transport.now_us();
  Check(fed.Connect().ok(), "channel established");
  std::printf("  simulated handshake time: %llu us\n",
              static_cast<unsigned long long>(transport.now_us() - t0));
  net::AttestedChannel* channel = fed.provider_net().ChannelTo("home");
  std::printf("  provider attests peer as: %s\n",
              channel->peer_principal().ToString().c_str());

  std::printf("== Human presence minted on home, shipped to provider\n");
  fed.Type("alice", 250);
  Check(fed.ShipPresence("alice").ok(), "presence certificate imported by provider");

  std::printf("== Federated signup: imported credential + live remote authority\n");
  Status signup = fed.SignUp("alice");
  Check(signup.ok(), "guard grants signup (remote-authority query crossed the channel)");
  Check(fed.Post("alice", "hello from another machine").ok(), "alice posts to Fauxbook");
  Check(*fed.session_authority().metrics().Value("vouched") >= 1,
        "home instance vouched for the session");

  std::printf("== Attacks that must not work\n");
  fed.Type("bot", 2);
  fed.ShipPresence("bot");
  Check(!fed.SignUp("bot").ok(), "too few keypresses: signup denied");

  fed.Type("mallory", 999);
  fed.ShipPresence("mallory");
  fed.EndSession("mallory");
  Check(!fed.SignUp("mallory").ok(), "valid certificate, dead session: signup denied");

  // A third machine the provider never registered.
  Rng rng_stranger(3);
  tpm::Tpm tpm_stranger(rng_stranger);
  core::Nexus stranger(&tpm_stranger, core::NexusOptions{.seed = 30});
  stranger.RegisterPeer("provider", tpm_provider.endorsement_public_key());
  net::NetNode stranger_node(&stranger, &transport, "stranger");
  Check(!stranger_node.Connect("provider").ok(), "unknown TPM: handshake rejected");

  std::printf("== %s\n", failures == 0 ? "ALL STEPS PASSED" : "FAILURES PRESENT");
  return failures == 0 ? 0 : 1;
}
