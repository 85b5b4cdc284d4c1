// Federated human-presence (§4 Not-A-Bot, stretched across machines).
//
// The scenario the net/ subsystem exists for: Fauxbook runs on a provider
// instance, the user's keyboard lives on their home instance. The home
// keyboard driver mints a TPM-rooted keypress certificate (NotABot), the
// federation mesh gossips it to the provider, and the provider's guard
// admits the signup only if
//   (a) the imported credential — speaker
//       tpm.<ek>.nexus.<nk>.boot.<nbk>.ipd.<driver> — shows enough
//       keypresses, and
//   (b) a K-of-N quorum of home instances confirms the session is still
//       live (fresh dynamic state, never cached).
// Labels travel as indefinitely-valid certificates; liveness travels as
// untransferable authority answers — the paper's split, now distributed.
//
// Topology: trust bootstraps as a STAR (the provider pins each home's EK
// out of band and vice versa); the mesh gossip then converges the full
// membership so homes learn each other transitively and anti-entropy can
// run all-to-all. With one home this degrades exactly to the original
// pairwise federation (quorum K = 1).
#ifndef NEXUS_APPS_FEDERATION_H_
#define NEXUS_APPS_FEDERATION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/fauxbook.h"
#include "apps/notabot.h"
#include "core/nexus.h"
#include "net/mesh/mesh.h"
#include "net/mesh/quorum.h"
#include "net/remote_authority.h"

namespace nexus::apps {

class PresenceFederation {
 public:
  struct Config {
    net::NodeId provider_node = "provider";
    // First home's node id; additional homes append "2", "3", ...
    net::NodeId home_node = "home";
    uint64_t min_keypresses = 100;
    uint64_t remote_timeout_us = 10000;
    // K yes-votes required for session liveness; 0 = majority of homes.
    size_t quorum = 0;
  };

  // Original two-instance federation (one home, quorum of one).
  PresenceFederation(core::Nexus* provider, core::Nexus* home, net::Transport* transport);
  PresenceFederation(core::Nexus* provider, core::Nexus* home, net::Transport* transport,
                     const Config& config);
  // N-home federation: every home runs a keyboard driver and a session-
  // liveness authority; signups need a K-of-N quorum.
  PresenceFederation(core::Nexus* provider, const std::vector<core::Nexus*>& homes,
                     net::Transport* transport, const Config& config);
  ~PresenceFederation();

  // Establishes the star of attested channels, joins every node to the
  // mesh, and runs anti-entropy until the replicated registries converge.
  Status Connect();

  // ------------------------------------------------------------ home side
  // Physical keypresses in a session, observed at home `home_index`'s
  // driver. Session liveness replicates to every home (the quorum's
  // members answer from their own copy).
  void Type(const std::string& session, int presses) { Type(session, presses, 0); }
  void Type(const std::string& session, int presses, size_t home_index);
  // Mints <driver> says keypresses(session, n) at the session's home,
  // externalizes it, and publishes the certificate through the mesh; the
  // provider's gossip import lands it in the web server's labelstore.
  Status ShipPresence(const std::string& session) { return ShipPresence(session, 0); }
  Status ShipPresence(const std::string& session, size_t home_index);
  // Ends the session everywhere: the quorum stops vouching immediately.
  void EndSession(const std::string& session);

  // -------------------------------------------------------- provider side
  // The guarded signup: finds the imported presence credential, checks the
  // threshold, and runs the guard with a proof combining the credential
  // premise and the quorum-vouched session-liveness authority leaf.
  Status SignUp(const std::string& session);
  // Posting requires a completed signup.
  Status Post(const std::string& session, const std::string& text);

  // OK iff construction wired everything (peer pinning, driver processes).
  Status init_status() const { return init_status_; }

  Fauxbook& fauxbook() { return *fauxbook_; }
  net::NetNode& provider_net() { return *provider_net_; }
  net::NetNode& home_net() { return home_net(0); }
  net::NetNode& home_net(size_t home_index) { return *homes_[home_index]->net; }
  net::mesh::MeshNode& provider_mesh() { return *provider_mesh_; }
  net::mesh::MeshNode& home_mesh(size_t home_index) { return *homes_[home_index]->mesh; }
  // The provider-side leg to home 0 (kept for the two-instance tests).
  net::RemoteAuthority& session_authority() { return *homes_[0]->remote; }
  net::mesh::QuorumAuthority& session_quorum() { return *session_quorum_; }
  kernel::ProcessId home_driver_pid() const { return homes_[0]->driver_pid; }
  size_t home_count() const { return homes_.size(); }
  const net::NodeId& home_node_id(size_t home_index) const {
    return homes_[home_index]->node_id;
  }

 private:
  static constexpr const char* kSignupObject = "fauxbook:federation";

  // One home instance's full complement: network presence, mesh
  // membership, keyboard driver, and the liveness authority (home side)
  // plus the provider's remote leg to it.
  struct Home {
    core::Nexus* nexus = nullptr;
    net::NodeId node_id;
    std::unique_ptr<net::NetNode> net;
    std::unique_ptr<net::mesh::MeshNode> mesh;
    kernel::ProcessId driver_pid = 0;
    std::unique_ptr<KeyboardDriver> driver;
    std::unique_ptr<core::LambdaAuthority> liveness;
    std::unique_ptr<net::AuthorityService> authority_service;
    std::unique_ptr<net::RemoteAuthority> remote;
  };

  core::Nexus* provider_;
  Config config_;
  net::Transport* transport_;
  Status init_status_;

  std::unique_ptr<net::NetNode> provider_net_;
  std::unique_ptr<net::mesh::MeshNode> provider_mesh_;
  std::unique_ptr<Fauxbook> fauxbook_;
  std::vector<std::unique_ptr<Home>> homes_;
  std::unique_ptr<net::mesh::QuorumAuthority> session_quorum_;

  std::set<std::string> live_sessions_;  // Replicated to every home's authority.
  std::set<std::string> signed_up_;
};

}  // namespace nexus::apps

#endif  // NEXUS_APPS_FEDERATION_H_
