#include "kernel/payload.h"

#include <algorithm>
#include <atomic>

namespace nexus::kernel {

namespace {

// Process-wide audit counter for the zero-copy data-plane assertion.
std::atomic<uint64_t> payload_copies{0};

void CountCopy() { payload_copies.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

uint64_t IpcPayloadCopyCount() { return payload_copies.load(); }

Payload::Payload(Bytes&& bytes) {
  if (!bytes.empty()) {
    length_ = bytes.size();
    arena_ = std::make_shared<Bytes>(std::move(bytes));
  }
}

Payload::Payload(std::initializer_list<uint8_t> init) {
  if (init.size() != 0) {
    CountCopy();
    length_ = init.size();
    arena_ = std::make_shared<Bytes>(init);
  }
}

Payload& Payload::operator=(Bytes&& bytes) {
  *this = Payload(std::move(bytes));
  return *this;
}

Payload Payload::Slice(const std::shared_ptr<Bytes>& arena, size_t offset, size_t length) {
  Payload out;
  if (arena == nullptr) {
    return out;
  }
  offset = std::min(offset, arena->size());
  length = std::min(length, arena->size() - offset);
  if (length == 0) {
    return out;
  }
  out.arena_ = arena;
  out.offset_ = offset;
  out.length_ = length;
  return out;
}

bool Payload::ViewEquals(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

void Payload::Detach(size_t n) {
  auto fresh = std::make_shared<Bytes>(n, uint8_t{0});
  size_t keep = std::min(length_, n);
  if (keep > 0) {
    CountCopy();
    std::copy_n(arena_->data() + offset_, keep, fresh->data());
  }
  arena_ = std::move(fresh);
  offset_ = 0;
  length_ = n;
}

uint8_t* Payload::MutableData() {
  if (length_ == 0) {
    return nullptr;
  }
  // A uniquely-owned arena mutates in place; a shared one (someone else
  // still reads these bytes) pays exactly one counted copy first.
  if (arena_.use_count() > 1) {
    Detach(length_);
  }
  return arena_->data() + offset_;
}

void Payload::resize(size_t n) {
  if (n <= length_) {
    length_ = n;  // Narrow the slice: zero-copy, shared or not.
    if (n == 0) {
      arena_.reset();
      offset_ = 0;
    }
    return;
  }
  Detach(n);  // Nothing kept (an empty payload) counts no copy.
}

void Payload::Append(ByteView bytes) {
  if (bytes.empty()) {
    return;
  }
  CountCopy();
  size_t at = length_;
  // In place when this payload is the arena's only owner and its view
  // ends where the arena ends.
  if (arena_ != nullptr && arena_.use_count() == 1 && offset_ + length_ == arena_->size()) {
    // Inserting at the end stays correct when `bytes` views this arena.
    arena_->insert(arena_->end(), bytes.begin(), bytes.end());
    length_ += bytes.size();
    return;
  }
  // `bytes` may view the arena the detach lets go of: hold it until the
  // copy-in is done.
  std::shared_ptr<Bytes> previous = arena_;
  Detach(at + bytes.size());
  std::copy(bytes.begin(), bytes.end(), arena_->data() + at);
}

Bytes Payload::ToOwned() const {
  if (length_ == 0) {
    return Bytes{};
  }
  CountCopy();
  return Bytes(begin(), end());
}

}  // namespace nexus::kernel
