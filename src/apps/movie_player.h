// The movie player scenario (§4, "Other Applications").
//
// A content owner will stream only to players that cannot leak the stream.
// Two modes are implemented:
//   - hash whitelist (axiomatic baseline): only pre-certified binaries play
//     — platform lock-down: a user-built player is rejected even if it is
//     provably incapable of copying the stream;
//   - logical attestation: the player presents analyzer labels showing it
//     lacks IPC paths to disk and network; its binary hash is never
//     divulged, and any player satisfying the policy is accepted.
#ifndef NEXUS_APPS_MOVIE_PLAYER_H_
#define NEXUS_APPS_MOVIE_PLAYER_H_

#include <string>

#include "core/nexus.h"
#include "kernel/hash_attestation.h"
#include "services/ipc_analyzer.h"
#include "services/safety_certifier.h"

namespace nexus::apps {

class ContentServer {
 public:
  enum class Mode { kHashWhitelist, kLogicalAttestation };

  ContentServer(core::Nexus* nexus, Mode mode, Bytes content);

  // Whitelist management (axiomatic mode).
  void WhitelistPlayer(ByteView binary) { whitelist_.AllowBinary(binary); }

  // The player requests the stream; the server decides per its mode.
  Result<Bytes> RequestStream(kernel::ProcessId player);

  Mode mode() const { return mode_; }

 private:
  core::Nexus* nexus_;
  Mode mode_;
  Bytes content_;
  kernel::HashWhitelist whitelist_;
  // Forbidden reach for analytic mode.
  std::vector<std::string> forbidden_targets_ = {"filesystem", "netdriver"};
  kernel::ProcessId analyzer_pid_ = 0;
  kernel::ProcessId certifier_pid_ = 0;
};

}  // namespace nexus::apps

#endif  // NEXUS_APPS_MOVIE_PLAYER_H_
