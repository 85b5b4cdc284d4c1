// Simulated secondary storage with failure injection.
//
// A named-region byte store standing in for the disk. Two adversarial
// behaviours the paper's §3.3 protocol must survive are modeled:
//   - power failure: after N more writes, every subsequent write fails
//     (optionally tearing the Nth write in half), and
//   - offline tampering/replay: tests mutate regions directly between
//     "boots" to simulate re-imaging a disk.
#ifndef NEXUS_STORAGE_BLOCKDEV_H_
#define NEXUS_STORAGE_BLOCKDEV_H_

#include <map>
#include <string>

#include "util/bytes.h"
#include "util/status.h"

namespace nexus::storage {

class BlockDevice {
 public:
  Status Write(const std::string& name, ByteView data);
  Result<Bytes> Read(const std::string& name) const;
  bool Exists(const std::string& name) const { return regions_.contains(name); }
  Status Delete(const std::string& name);

  // Power-failure injection: the next `n` writes succeed, after which all
  // writes fail. If `tear_last`, the n-th write persists only its first
  // half (a torn sector).
  void FailAfterWrites(int n, bool tear_last = false);
  // Restores normal operation (power back on).
  void ClearFailure();
  bool failed() const { return armed_ && remaining_writes_ < 0; }

  // Direct mutation for offline-attack tests.
  Bytes* MutableRaw(const std::string& name);

 private:
  std::map<std::string, Bytes> regions_;
  bool armed_ = false;
  bool tear_last_ = false;
  int remaining_writes_ = 0;
};

}  // namespace nexus::storage

#endif  // NEXUS_STORAGE_BLOCKDEV_H_
