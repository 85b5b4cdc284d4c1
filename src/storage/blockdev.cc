#include "storage/blockdev.h"

namespace nexus::storage {

Status BlockDevice::Write(const std::string& name, ByteView data) {
  if (armed_) {
    if (remaining_writes_ <= 0) {
      remaining_writes_ = -1;
      return Unavailable("power failure: write lost");
    }
    --remaining_writes_;
    if (remaining_writes_ == 0 && tear_last_) {
      // Torn write: only the first half reaches the medium.
      regions_[name] = Bytes(data.begin(), data.begin() + static_cast<ptrdiff_t>(data.size() / 2));
      remaining_writes_ = -1;
      return Unavailable("power failure: torn write");
    }
  }
  regions_[name] = Bytes(data.begin(), data.end());
  return OkStatus();
}

Result<Bytes> BlockDevice::Read(const std::string& name) const {
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return NotFound("no such region: " + name);
  }
  return it->second;
}

Status BlockDevice::Delete(const std::string& name) {
  if (regions_.erase(name) == 0) {
    return NotFound("no such region: " + name);
  }
  return OkStatus();
}

void BlockDevice::FailAfterWrites(int n, bool tear_last) {
  armed_ = true;
  tear_last_ = tear_last;
  remaining_writes_ = n;
}

void BlockDevice::ClearFailure() {
  armed_ = false;
  tear_last_ = false;
  remaining_writes_ = 0;
}

Bytes* BlockDevice::MutableRaw(const std::string& name) {
  auto it = regions_.find(name);
  return it == regions_.end() ? nullptr : &it->second;
}

}  // namespace nexus::storage
