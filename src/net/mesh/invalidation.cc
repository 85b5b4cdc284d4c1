#include "net/mesh/invalidation.h"

#include <algorithm>
#include <optional>

#include "kernel/trace.h"

namespace nexus::net::mesh {

InvalidationPropagator::InvalidationPropagator(NetNode* node, MeshRegistry* registry,
                                              Options options)
    : node_(node), registry_(registry), options_(options) {
  node_->RegisterService(std::string(kServiceName), this);
}

void InvalidationPropagator::AttachKernel(kernel::Kernel* kernel) {
  kernel->set_invalidation_sink(
      [this](kernel::OpId op, kernel::ObjectId obj) { Broadcast(op, obj); });
}

void InvalidationPropagator::DetachKernel(kernel::Kernel* kernel) {
  kernel->set_invalidation_sink(nullptr);
}

Bytes InvalidationPropagator::SerializeRecord(const OutboundRecord& record) const {
  Bytes out;
  AppendLengthPrefixed(out, ToBytes(node_->id()));
  AppendU64(out, record.epoch);
  AppendLengthPrefixed(out, ToBytes(record.op_name));
  AppendLengthPrefixed(out, ToBytes(record.obj_name));
  return out;
}

size_t InvalidationPropagator::SendToPeers(const Bytes& payload) {
  size_t sent = 0;
  for (const PeerRecord& record : registry_->Peers()) {
    if (record.name == node_->id()) {
      continue;
    }
    AttestedChannel* channel = node_->ChannelTo(record.name);
    if (channel == nullptr || !channel->established()) {
      continue;  // A partitioned/unknown peer catches up via ResendRecent.
    }
    if (channel->SendSecure(std::string(kServiceName), payload).ok()) {
      ++sent;
    }
  }
  return sent;
}

void InvalidationPropagator::Broadcast(kernel::OpId op, kernel::ObjectId obj) {
  OutboundRecord record;
  record.epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.op_name = std::string(kernel::OpName(op));
  record.obj_name = std::string(kernel::ObjectName(obj));
  Bytes payload = SerializeRecord(record);
  {
    std::lock_guard<std::mutex> lock(mu_);
    outbound_.push_back(record);
    while (outbound_.size() > kResendLog) {
      outbound_.pop_front();
    }
  }
  stats_.broadcasts->Increment();
  stats_.sends->Increment(SendToPeers(payload));
}

size_t InvalidationPropagator::ResendRecent() {
  std::vector<OutboundRecord> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records.assign(outbound_.begin(), outbound_.end());
  }
  size_t sent = 0;
  for (const OutboundRecord& record : records) {
    sent += SendToPeers(SerializeRecord(record));
  }
  stats_.sends->Increment(sent);
  return sent;
}

Result<Bytes> InvalidationPropagator::Handle(AttestedChannel& channel, ByteView request) {
  ByteReader reader(request);
  Result<Bytes> origin = reader.ReadLengthPrefixed();
  Result<uint64_t> epoch = reader.ReadU64();
  Result<Bytes> op_name = reader.ReadLengthPrefixed();
  Result<Bytes> obj_name = reader.ReadLengthPrefixed();
  if (!origin.ok() || !epoch.ok() || !op_name.ok() || !obj_name.ok() ||
      !reader.AtEnd() || *epoch == 0) {
    stats_.rejected->Increment();
    return Bytes{};
  }
  // First-hand only: the claimed origin must BE the attested peer on the
  // delivering channel. Invalidations are never relayed, so an accepted
  // epoch is authenticated end to end by the channel itself.
  if (ToString(*origin) != channel.peer_node()) {
    stats_.rejected->Increment();
    return Bytes{};
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!origins_[channel.peer_node()].Accept(*epoch)) {
      stats_.duplicates->Increment();  // Exact-once: the re-apply is a no-op.
      return Bytes{};
    }
  }
  stats_.applied->Increment();
  // Fresh epoch: retire our cached verdicts for the pair. Reordering is
  // harmless — a bump is a bump, whichever epoch lands first. The names
  // come from a peer, so they are looked up, never interned: a pair this
  // node never interned has no cached verdict, and its epoch is consumed
  // with nothing to retire.
  std::optional<kernel::OpId> op = kernel::FindOp(ToString(*op_name));
  std::optional<kernel::ObjectId> obj = kernel::FindObject(ToString(*obj_name));
  if (!op.has_value() || !obj.has_value()) {
    return Bytes{};
  }
  std::vector<uint64_t> post_gens;
  node_->nexus().kernel().decision_cache().InvalidateSubregion(*op, *obj, &post_gens);
  if (options_.stamp_observability) {
    // Mutation record FIRST, then the trace event: the auditor drains
    // mutations before events each harvest, so an event it sees can join
    // the record that stamped its generations.
    kernel::MutationLog& log = kernel::MutationLog::Global();
    if (log.enabled()) {
      kernel::MutationRecord record;
      record.kind = kernel::MutationKind::kRemoteInvalidate;
      record.op = *op;
      record.obj = *obj;
      record.detail = *epoch;
      record.generations = post_gens;
      log.Append(record);
    }
    kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
    if (recorder.enabled()) {
      kernel::TraceScope scope;  // Fresh id if the thread is untraced.
      kernel::TraceEvent event;
      event.trace_id = scope.id();
      event.op = *op;
      event.obj = *obj;
      event.aux = *epoch;
      event.flags = kernel::kTraceFlagRemote;
      event.stage = kernel::TraceStage::kRemoteInvalidate;
      event.generation =
          post_gens.empty() ? 0 : *std::max_element(post_gens.begin(), post_gens.end());
      recorder.Emit(event);
    }
  }
  return Bytes{};  // One-way deliveries never send a reply.
}

uint64_t InvalidationPropagator::AppliedEpoch(const NodeId& origin) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = origins_.find(origin);
  return it == origins_.end() ? 0 : it->second.max_seen();
}

}  // namespace nexus::net::mesh
