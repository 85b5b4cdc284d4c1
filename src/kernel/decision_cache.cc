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

// Lock-free probes a lookup tries before it waits on the shard mutex: a
// writer still inside after this many is likely preempted mid-insert.
constexpr int kOptimisticProbes = 4;

}  // namespace

DecisionCache::Shard::Shard(size_t num_entries, size_t num_subregions)
    : entries(num_entries), generations(num_subregions) {
  for (std::atomic<uint64_t>& gen : generations) {
    gen.store(1, std::memory_order_relaxed);
  }
}

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
    auto shard = std::make_unique<Shard>(
        config_.num_subregions * config_.entries_per_subregion, config_.num_subregions);
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
    for (std::atomic<uint64_t>& gen : shard->generations) {
      gen.store(gen.load(std::memory_order_relaxed) + 1, std::memory_order_release);
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
    gens.push_back(shard->generations[sub].load(std::memory_order_acquire));
  }
  return gens;
}

const DecisionCache::Entry* DecisionCache::Find(const Shard& shard, size_t sub,
                                                uint64_t generation,
                                                const AuthzRequest& request) const {
  uint64_t key = HashTuple(request);
  size_t base = sub * config_.entries_per_subregion;
  size_t start = static_cast<size_t>(key % config_.entries_per_subregion);
  // Linear probe within the subregion. An entry stamped with another
  // generation was invalidated (or the slot was never filled: stamp 0);
  // either way it terminates the probe chain exactly as an empty slot did.
  for (size_t i = 0; i < config_.entries_per_subregion; ++i) {
    const Entry& e = shard.entries[base + (start + i) % config_.entries_per_subregion];
    if (e.generation.load(std::memory_order_acquire) != generation) {
      return nullptr;
    }
    if (e.subject.load(std::memory_order_acquire) == request.subject &&
        e.op.load(std::memory_order_acquire) == request.op &&
        e.obj.load(std::memory_order_acquire) == request.obj) {
      return &e;
    }
  }
  return nullptr;
}

// Seqlock ordering without standalone fences (ThreadSanitizer does not
// model them): an insert makes the sequence word odd, then stores each
// entry field with release; a reader loads the word and each field with
// acquire. A reader that loads any field an insert stored therefore also
// sees that insert's odd word on its second read, and discards the probe.
std::optional<bool> DecisionCache::Lookup(const AuthzRequest& request, uint64_t* generation) {
  Shard& shard = *shards_[ShardOf(request.subject)];
  const size_t sub = SubregionIndex(request.op, request.obj);
  uint64_t gen = 0;
  std::optional<bool> cached;
  // The generation and the verdict are read together: under the mutex, or
  // between two equal even reads of the sequence word.
  auto probe = [&] {
    gen = shard.generations[sub].load(std::memory_order_acquire);
    const Entry* e = Find(shard, sub, gen, request);
    cached = e == nullptr ? std::nullopt
                          : std::optional<bool>(e->allow.load(std::memory_order_acquire));
  };
  bool consistent = false;
  for (int attempt = 0; attempt < kOptimisticProbes && !consistent; ++attempt) {
    const uint64_t seq = shard.seq.load(std::memory_order_acquire);
    if ((seq & 1) != 0) {
      continue;  // An insert is storing an entry.
    }
    probe();
    consistent = shard.seq.load(std::memory_order_acquire) == seq;
  }
  if (!consistent) {
    std::lock_guard<std::mutex> lock(shard.mu);
    probe();
  }
  if (generation != nullptr) {
    *generation = gen;
  }
  (cached.has_value() ? shard.hits : shard.misses)->Increment();
  return cached;
}

void DecisionCache::InsertLocked(Shard& shard, const AuthzRequest& request, bool allow) {
  size_t sub = SubregionIndex(request.op, request.obj);
  uint64_t generation = shard.generations[sub].load(std::memory_order_relaxed);
  uint64_t key = HashTuple(request);
  size_t base = sub * config_.entries_per_subregion;
  size_t start = static_cast<size_t>(key % config_.entries_per_subregion);
  Entry* victim = nullptr;
  for (size_t i = 0; i < config_.entries_per_subregion; ++i) {
    Entry& e = shard.entries[base + (start + i) % config_.entries_per_subregion];
    if (e.generation.load(std::memory_order_relaxed) != generation) {
      victim = &e;  // Empty or invalidated slot.
      break;
    }
    if (e.subject.load(std::memory_order_relaxed) == request.subject &&
        e.op.load(std::memory_order_relaxed) == request.op &&
        e.obj.load(std::memory_order_relaxed) == request.obj) {
      victim = &e;  // Update in place.
      break;
    }
  }
  if (victim == nullptr) {
    // Subregion full: evict the natural slot (cache is soft state).
    victim = &shard.entries[base + start];
  }
  // Only mutex holders write the word, so a load and store suffice.
  const uint64_t seq = shard.seq.load(std::memory_order_relaxed);
  shard.seq.store(seq + 1, std::memory_order_relaxed);
  victim->generation.store(generation, std::memory_order_release);
  victim->allow.store(allow, std::memory_order_release);
  victim->subject.store(request.subject, std::memory_order_release);
  victim->op.store(request.op, std::memory_order_release);
  victim->obj.store(request.obj, std::memory_order_release);
  shard.seq.store(seq + 2, std::memory_order_release);
  shard.insertions->Increment();
}

void DecisionCache::Insert(const AuthzRequest& request, bool allow) {
  Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertLocked(shard, request, allow);
}

uint64_t DecisionCache::Generation(const AuthzRequest& request) const {
  const Shard& shard = *shards_[ShardOf(request.subject)];
  return shard.generations[SubregionIndex(request.op, request.obj)].load(
      std::memory_order_acquire);
}

bool DecisionCache::InsertIfUnchanged(const AuthzRequest& request, bool allow,
                                      uint64_t generation) {
  Shard& shard = *shards_[ShardOf(request.subject)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.generations[SubregionIndex(request.op, request.obj)].load(
          std::memory_order_relaxed) != generation) {
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
  const size_t sub = SubregionIndex(request.op, request.obj);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::atomic<uint64_t>& gen = shard.generations[sub];
  const uint64_t current = gen.load(std::memory_order_relaxed);
  if (Find(shard, sub, current, request) != nullptr) {
    shard.invalidated_entries->Increment();
  }
  // The generation bump retires the subregion's entries wholesale, and it
  // bumps whether or not an entry existed: an in-flight verdict for this
  // tuple predates the proof update and must not be cached.
  const uint64_t bumped = current + 1;
  gen.store(bumped, std::memory_order_release);
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
    const uint64_t bumped = shard.generations[sub].load(std::memory_order_relaxed) + 1;
    shard.generations[sub].store(bumped, std::memory_order_release);
    shard.subregion_invalidations->Increment();
    if (post_gens != nullptr) {
      (*post_gens)[i] = bumped;
    }
  }
}

}  // namespace nexus::kernel
