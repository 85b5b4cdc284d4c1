// One node's membership in the federation mesh.
//
// MeshNode bundles the three mesh planes for a NetNode — the convergent
// registry (replicated state), the gossip service (propagation), and the
// invalidation propagator (cross-node cache coherence) — and wires the
// node's kernel invalidation sink so local setgoal/setproof mutations fan
// out automatically. Construction order gives each node a usable mesh
// after: MeshNode m(&node, opts); m.Join(seed); transport.DeliverAll();
// ...AntiEntropy() until converged.
#ifndef NEXUS_NET_MESH_MESH_H_
#define NEXUS_NET_MESH_MESH_H_

#include <string>

#include "net/mesh/gossip.h"
#include "net/mesh/invalidation.h"
#include "net/mesh/quorum.h"
#include "net/mesh/registry.h"
#include "net/node.h"

namespace nexus::net::mesh {

class MeshNode {
 public:
  struct Options {
    // Labelstore destination for gossiped certificates (0 = the kernel
    // process, always present).
    kernel::ProcessId import_pid = 0;
    // See InvalidationPropagator::Options — enable only on audited nodes.
    bool stamp_observability = true;
  };

  MeshNode(NetNode* node, Options options);
  explicit MeshNode(NetNode* node) : MeshNode(node, Options{}) {}
  ~MeshNode();

  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  NetNode& node() { return *node_; }
  MeshRegistry& registry() { return registry_; }
  GossipService& gossip() { return gossip_; }
  InvalidationPropagator& invalidation() { return invalidation_; }

  // Handshake to `seed` and push our state at it. The caller pumps the
  // transport (DeliverAll) to let the push land and flood onward.
  Status Join(const NodeId& seed);

  // One full anti-entropy round: gossip state + retained invalidations to
  // every reachable peer. Returns messages sent; a mesh is converged when
  // repeated rounds change nobody's Digest().
  size_t AntiEntropy();

  std::string Digest() const { return registry_.Digest(); }

 private:
  NetNode* node_;
  MeshRegistry registry_;
  GossipService gossip_;
  InvalidationPropagator invalidation_;
};

}  // namespace nexus::net::mesh

#endif  // NEXUS_NET_MESH_MESH_H_
