#include "kernel/decision_cache.h"

namespace nexus::kernel {

namespace {

// Tuple hash over interned keys (the whole point of interning is that this
// replaces byte-wise string hashing on every syscall). Mix64 lives in
// kernel/types.h so sharding and hashing agree on the mixer.
uint64_t HashTuple(const AuthzRequest& r) {
  uint64_t packed = (static_cast<uint64_t>(r.op) << 32) | r.obj;
  return Mix64(packed ^ Mix64(r.subject + 0x9e3779b97f4a7c15ULL));
}

}  // namespace

DecisionCache::DecisionCache() : DecisionCache(Config{}) {}

DecisionCache::DecisionCache(const Config& config) { Resize(config); }

void DecisionCache::Resize(const Config& config) {
  config_ = config;
  if (config_.num_shards == 0) {
    config_.num_shards = 1;
  }
  shards_.clear();
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->entries.assign(config_.num_subregions * config_.entries_per_subregion, Entry{});
    shard->generations.assign(config_.num_subregions, 1);
    // Fresh instruments per reconfiguration; the superseded counters stay
    // in the group, so metrics().Value and the registry's totals keep
    // counting across a Resize.
    shard->hits = metrics_.NewCounter("hits");
    shard->misses = metrics_.NewCounter("misses");
    shard->insertions = metrics_.NewCounter("insertions");
    shard->invalidated_entries = metrics_.NewCounter("invalidated_entries");
    shard->subregion_invalidations = metrics_.NewCounter("subregion_invalidations");
    shards_.push_back(std::move(shard));
  }
}

void DecisionCache::Clear() {
  // Epoch invalidation: entries stamp the subregion generation they were
  // inserted under, so bumping every generation retires all of them in
  // O(subregions) — no entry walk. (In-flight verdicts snapshotted before
  // the clear drop for the same reason.)
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (uint64_t& gen : shard->generations) {
      ++gen;
    }
  }
}

size_t DecisionCache::ShardOf(ProcessId subject) const {
  return static_cast<size_t>(Mix64(subject) % config_.num_shards);
}

size_t DecisionCache::SubregionIndexOf(OpId op, ObjectId obj, size_t num_subregions) {
  // Subject deliberately excluded: all entries for one (operation, object)
  // land in the same subregion index of every shard, so setgoal
  // invalidation is one generation bump per shard.
  uint64_t packed = (static_cast<uint64_t>(op) << 32) | obj;
  return static_cast<size_t>(Mix64(packed) % num_subregions);
}

size_t DecisionCache::SubregionIndex(OpId op, ObjectId obj) const {
  return SubregionIndexOf(op, obj, config_.num_subregions);
}

std::vector<uint64_t> DecisionCache::SubregionGenerations(OpId op, ObjectId obj) const {
  size_t sub = SubregionIndex(op, obj);
  std::vector<uint64_t> gens;
  gens.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    gens.push_back(shard->generations[sub]);
  }
  return gens;
}

DecisionCache::Entry* DecisionCache::FindLocked(Shard& shard, const AuthzRequest& request) {
  size_t sub = SubregionIndex(request.op, request.obj);
  uint64_t generation = shard.generations[sub];
  uint64_t key = HashTuple(request);
  size_t base = sub * config_.entries_per_subregion;
  size_t start = static_cast<size_t>(key % config_.entries_per_subregion);
  // Linear probe within the subregion. An entry stamped with an older
  // generation was invalidated (or the slot was never filled: stamp 0);
  // either way it terminates the probe chain exactly as an empty slot did.
  for (size_t i = 0; i < config_.entries_per_subregion; ++i) {
    Entry& e = shard.entries[base + (start + i) % config_.entries_per_subregion];
    if (e.generation != generation) {
      return nullptr;
    }
    if (e.subject == request.subject && e.op == request.op && e.obj == request.obj) {
      return &e;
    }
  }
  return nullptr;
}

std::optional<bool> DecisionCache::Lookup(const AuthzRequest& request) {
  Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* e = FindLocked(shard, request);
  if (e == nullptr) {
    shard.misses->Increment();
    return std::nullopt;
  }
  shard.hits->Increment();
  return e->allow;
}

void DecisionCache::InsertLocked(Shard& shard, const AuthzRequest& request, bool allow) {
  size_t sub = SubregionIndex(request.op, request.obj);
  uint64_t generation = shard.generations[sub];
  uint64_t key = HashTuple(request);
  size_t base = sub * config_.entries_per_subregion;
  size_t start = static_cast<size_t>(key % config_.entries_per_subregion);
  Entry* victim = nullptr;
  for (size_t i = 0; i < config_.entries_per_subregion; ++i) {
    Entry& e = shard.entries[base + (start + i) % config_.entries_per_subregion];
    if (e.generation != generation) {
      victim = &e;  // Empty or invalidated slot.
      break;
    }
    if (e.subject == request.subject && e.op == request.op && e.obj == request.obj) {
      victim = &e;  // Update in place.
      break;
    }
  }
  if (victim == nullptr) {
    // Subregion full: evict the natural slot (cache is soft state).
    victim = &shard.entries[base + start];
  }
  victim->generation = generation;
  victim->allow = allow;
  victim->subject = request.subject;
  victim->op = request.op;
  victim->obj = request.obj;
  shard.insertions->Increment();
}

void DecisionCache::Insert(const AuthzRequest& request, bool allow) {
  Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertLocked(shard, request, allow);
}

uint64_t DecisionCache::Generation(const AuthzRequest& request) const {
  const Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.generations[SubregionIndex(request.op, request.obj)];
}

bool DecisionCache::InsertIfUnchanged(const AuthzRequest& request, bool allow,
                                      uint64_t generation) {
  Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.generations[SubregionIndex(request.op, request.obj)] != generation) {
    return false;  // An invalidation raced the verdict: drop, don't cache.
  }
  InsertLocked(shard, request, allow);
  return true;
}

void DecisionCache::InvalidateEntry(const AuthzRequest& request, uint64_t* post_gen) {
  // A tombstone-free open-addressed table cannot clear one slot without
  // breaking probe chains, so invalidate the whole subregion holding the
  // key's probe chain. Only the subject's shard can hold the entry.
  Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (FindLocked(shard, request) != nullptr) {
    shard.invalidated_entries->Increment();
  }
  // The generation bump retires the subregion's entries wholesale, and it
  // bumps whether or not an entry existed: an in-flight verdict for this
  // tuple predates the proof update and must not be cached.
  uint64_t bumped = ++shard.generations[SubregionIndex(request.op, request.obj)];
  if (post_gen != nullptr) {
    *post_gen = bumped;
  }
}

void DecisionCache::InvalidateSubregion(OpId op, ObjectId obj,
                                        std::vector<uint64_t>* post_gens) {
  // Broadcast: entries for one (operation, object) are spread across shards
  // by subject, but land in the same subregion index everywhere. One
  // generation bump per shard retires the whole subregion — cheaper than
  // the memset it replaces.
  size_t sub = SubregionIndex(op, obj);
  if (post_gens != nullptr) {
    post_gens->assign(shards_.size(), 0);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    uint64_t bumped = ++shard.generations[sub];
    shard.subregion_invalidations->Increment();
    if (post_gens != nullptr) {
      (*post_gens)[i] = bumped;
    }
  }
}

}  // namespace nexus::kernel
