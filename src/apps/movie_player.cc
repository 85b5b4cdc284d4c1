#include "apps/movie_player.h"

#include "nal/prover.h"

namespace nexus::apps {

ContentServer::ContentServer(core::Nexus* nexus, Mode mode, Bytes content)
    : nexus_(nexus), mode_(mode), content_(std::move(content)) {
  analyzer_pid_ = *nexus_->CreateProcess("ipcanalyzer", ToBytes("nexus-ipc-analyzer"));
  certifier_pid_ = *nexus_->CreateProcess("safetycertifier", ToBytes("nexus-safety-certifier"));
}

Result<Bytes> ContentServer::RequestStream(kernel::ProcessId player) {
  if (mode_ == Mode::kHashWhitelist) {
    Result<bool> listed = whitelist_.Check(nexus_->kernel(), player);
    if (!listed.ok()) {
      return listed.status();
    }
    if (!*listed) {
      return PermissionDenied("player binary is not on the content owner's whitelist "
                              "(platform lock-down)");
    }
    return content_;
  }

  // Logical attestation: run the analyzer, have the certifier derive
  // safe(player), then check the goal with a proof.
  services::IpcAnalyzer analyzer(&nexus_->kernel(), &nexus_->engine(), analyzer_pid_);
  for (const std::string& target : forbidden_targets_) {
    Result<core::LabelHandle> attested = analyzer.AttestNoPath(player, target);
    if (!attested.ok()) {
      return PermissionDenied("player has a channel to " + target + ": " +
                              attested.status().message());
    }
  }
  services::SafetyCertifier certifier(&nexus_->kernel(), &nexus_->engine(), certifier_pid_,
                                      analyzer_pid_, forbidden_targets_);
  Result<core::LabelHandle> safe = certifier.Certify(player);
  if (!safe.ok()) {
    return safe.status();
  }

  // Goal: SafetyCertifier says safe(player). Note: no mention of the
  // player's hash anywhere.
  nal::Formula goal = nal::FormulaNode::Says(
      nexus_->kernel().ProcessPrincipal(certifier_pid_),
      nal::FormulaNode::Pred("safe",
                             {nal::Term::Symbol(kernel::Kernel::ProcPath(player))}));
  std::vector<nal::Formula> credentials = nexus_->engine().StoreFor(certifier_pid_).All();
  Result<nal::Proof> proof = nal::AutoProve(goal, credentials);
  if (!proof.ok()) {
    return proof.status();
  }
  nal::CheckResult verdict = nal::CheckProof(*proof, goal, credentials);
  if (!verdict.status.ok()) {
    return verdict.status;
  }
  return content_;
}

}  // namespace nexus::apps
