// Ref-counted, offset-sliced IPC bytes.
//
// The v2 typed ABI removed per-argument heap strings; this removes the
// per-PAYLOAD memcpys. A Payload is a (shared arena, offset, length)
// triple: copying one bumps a refcount, slicing a server's backing store
// into a reply costs nothing, and a reply can outlive the store entry it
// was sliced from (the arena lives until the last reference drops). The
// LRPC idiom from the paper's lineage — share the bytes across the
// protection-domain boundary, copy only on divergence. It is the one
// buffer behind both the data block and the slot arena of an IPC record
// (kernel/ipc.h), so one class decides when IPC bytes are shared and when
// they are copied.
//
// Mutation is copy-on-write and EXPLICIT: the read surface is const
// (data/begin/end/view), and writers go through MutableData()/resize()/
// Append(), which detach from a shared arena before touching bytes — a
// monitor rewriting a reply that aliases the request (or the fileserver's
// store) can never corrupt what it borrowed from. Shrinking resize() is
// zero-copy (the slice just narrows); growing it detaches into an owned
// buffer. Append() extends the arena in place when this payload is its
// only owner and ends where it ends; otherwise it detaches once.
//
// Every byte copy into or out of an IPC buffer (copy-ins, copy-on-write
// detaches, copy-outs) bumps IpcPayloadCopyCount(). Refcount aliasing
// never bumps it, so "this 64KiB read was not memcpy'd end to end" is a
// checkable assertion, not a hope.
#ifndef NEXUS_KERNEL_PAYLOAD_H_
#define NEXUS_KERNEL_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>

#include "util/bytes.h"

namespace nexus::kernel {

// Process-wide count of byte copies performed by Payload (copy-ins,
// copy-on-write detaches, copy-outs). The zero-copy audits snapshot it
// around an operation and assert it did not move.
uint64_t IpcPayloadCopyCount();

class Payload {
 public:
  Payload() = default;

  // Adopts the buffer — no byte copy (the move-in path for producers that
  // already own a Bytes).
  Payload(Bytes&& bytes);
  Payload(std::initializer_list<uint8_t> init);

  Payload(const Payload&) = default;             // refcount bump, no copy
  Payload& operator=(const Payload&) = default;  // refcount bump, no copy
  // Moves leave the source empty, so a moved-from record can be refilled.
  Payload(Payload&& other) noexcept
      : arena_(std::move(other.arena_)),
        offset_(std::exchange(other.offset_, 0)),
        length_(std::exchange(other.length_, 0)) {}
  Payload& operator=(Payload&& other) noexcept {
    arena_ = std::move(other.arena_);
    offset_ = std::exchange(other.offset_, 0);
    length_ = std::exchange(other.length_, 0);
    return *this;
  }
  Payload& operator=(Bytes&& bytes);             // adopt, no copy
  Payload& operator=(std::initializer_list<uint8_t> init) {
    *this = Payload(init);
    return *this;
  }

  // Zero-copy alias of [offset, offset+length) of a shared arena — the
  // fileserver hands back a slice of its backing store with this. The
  // range is clamped to the arena's size. An empty range yields an empty
  // payload without touching the arena's refcount, which many threads
  // replying from one arena would otherwise all store to.
  static Payload Slice(const std::shared_ptr<Bytes>& arena, size_t offset, size_t length);

  // ---- Read surface (const; never copies, never detaches).
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  const uint8_t* data() const { return length_ == 0 ? nullptr : arena_->data() + offset_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + length_; }
  ByteView view() const { return ByteView(data(), length_); }
  operator ByteView() const { return view(); }

  // True when the arena is shared with another Payload or a producer's
  // store — the aliasing the zero-copy tests assert on.
  bool aliased() const { return arena_ != nullptr && arena_.use_count() > 1; }

  // ---- Write surface (copy-on-write; the ONLY ways to touch bytes).
  // A writable pointer to this payload's bytes. Detaches (one counted
  // copy of the current view) iff the arena is shared; a uniquely-owned
  // payload mutates in place.
  uint8_t* MutableData();
  // Shrinking narrows the slice in place — zero-copy, the redaction
  // clamp's hot path; resize(0) drops the arena. Growth detaches into an
  // owned buffer (old bytes copied, new bytes zero).
  void resize(size_t n);
  // Counted copy-in of `bytes` at the end, in place or through one
  // detach (see the header comment).
  void Append(ByteView bytes);
  // Counted copy-out for the boundaries that genuinely need an owned
  // buffer.
  Bytes ToOwned() const;

  friend bool operator==(const Payload& a, const Payload& b) {
    return ViewEquals(a.view(), b.view());
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return ViewEquals(a.view(), ByteView(b.data(), b.size()));
  }
  friend bool operator==(const Bytes& a, const Payload& b) { return b == a; }

 private:
  static bool ViewEquals(ByteView a, ByteView b);
  // Replaces the arena with a uniquely-owned copy of the current view,
  // sized `n` (extra bytes zero). Counts one copy when bytes move.
  void Detach(size_t n);

  std::shared_ptr<Bytes> arena_;
  size_t offset_ = 0;
  size_t length_ = 0;
};

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_PAYLOAD_H_
