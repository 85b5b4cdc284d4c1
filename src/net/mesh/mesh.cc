#include "net/mesh/mesh.h"

namespace nexus::net::mesh {

MeshNode::MeshNode(NetNode* node, Options options)
    : node_(node),
      gossip_(node, &registry_, options.import_pid),
      invalidation_(node, &registry_,
                    InvalidationPropagator::Options{
                        .stamp_observability = options.stamp_observability}) {
  invalidation_.AttachKernel(&node_->nexus().kernel());
}

MeshNode::~MeshNode() {
  // The sink captures `this`; clear it before the propagator dies.
  invalidation_.DetachKernel(&node_->nexus().kernel());
}

Status MeshNode::Join(const NodeId& seed) {
  // Pin the seed before the (lossy, one-way) push: anti-entropy keeps
  // re-targeting it until the registries merge, so a dropped join push
  // cannot permanently sever the configured topology.
  gossip_.AddSeed(seed);
  Result<AttestedChannel*> channel = node_->Connect(seed);
  if (!channel.ok()) {
    return channel.status();
  }
  return gossip_.PushState(seed);
}

size_t MeshNode::AntiEntropy() {
  return gossip_.AntiEntropyRound() + invalidation_.ResendRecent();
}

}  // namespace nexus::net::mesh
