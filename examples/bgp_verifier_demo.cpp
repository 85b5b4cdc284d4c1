// The BGP protocol verifier (§4): synthetic trust around a legacy speaker.
#include <cstdio>

#include "apps/bgp_verifier.h"

using namespace nexus;
using apps::BgpMessage;

int main() {
  apps::BgpVerifier verifier(/*self_as=*/65001, /*owned=*/{"10.10.0.0/16"});

  // Peers advertise routes to the monitored speaker.
  verifier.OnInbound({BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65002, 65010, 65020}});
  verifier.OnInbound({BgpMessage::Type::kAdvertise, "172.16.0.0/12", {65003, 65030}});

  auto show = [&](const char* what, const BgpMessage& m) {
    Status verdict = verifier.CheckOutbound(m);
    std::printf("%-46s -> %s\n", what, verdict.ToString().c_str());
  };

  std::printf("speaker AS65001, owns 10.10.0.0/16\n");
  show("originate owned 10.10.0.0/16",
       {BgpMessage::Type::kAdvertise, "10.10.0.0/16", {65001}});
  show("originate UNOWNED 8.8.0.0/16",
       {BgpMessage::Type::kAdvertise, "8.8.0.0/16", {65001}});
  show("forward 192.168/16 with honest 4-hop path",
       {BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65001, 65002, 65010, 65020}});
  show("forward 192.168/16 SHORTENED to 2 hops",
       {BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65001, 65020}});
  show("advertise never-received 1.2.0.0/16",
       {BgpMessage::Type::kAdvertise, "1.2.0.0/16", {65001, 65999}});
  show("withdraw previously advertised 10.10.0.0/16",
       {BgpMessage::Type::kWithdraw, "10.10.0.0/16", {}});
  show("withdraw route never advertised",
       {BgpMessage::Type::kWithdraw, "3.3.0.0/16", {}});

  std::printf("verifier: %llu passed, %llu blocked\n",
              static_cast<unsigned long long>(*verifier.metrics().Value("passed")),
              static_cast<unsigned long long>(*verifier.metrics().Value("blocked")));
  return 0;
}
