// Quickstart: the paper's time-sensitive file scenario (§2) end to end.
//
// A file must be readable only before a deadline, and only by a process
// that provably cannot leak its contents to disk or network. The example
// walks every element of logical attestation: labels, labelstores, goal
// formulas, proofs, guards, authorities, and the decision cache.
#include <cstdio>

#include "core/nexus.h"
#include "nal/parser.h"
#include "nal/prover.h"
#include "services/ipc_analyzer.h"
#include "services/safety_certifier.h"
#include "services/time_authority.h"
#include "tpm/tpm.h"

using namespace nexus;  // Example code; the library itself never does this.

int main() {
  // --- Boot a Nexus instance on a (software) TPM. PCRs measure the
  //     firmware, boot loader, and kernel; the Nexus key NK is sealed to
  //     that state (§3.4).
  Rng tpm_rng(2026);
  tpm::Tpm hardware_tpm(tpm_rng);
  core::Nexus nexus(&hardware_tpm);
  std::printf("booted Nexus; external identity: %s\n",
              nexus.ExternalKernelPrincipal().ToString().c_str());

  // --- Processes: a file owner, a reader, and the analysis services.
  auto owner = *nexus.CreateProcess("owner", ToBytes("owner-app"));
  auto reader = *nexus.CreateProcess("reader", ToBytes("reader-app"));
  auto analyzer_pid = *nexus.CreateProcess("ipcanalyzer", ToBytes("analyzer"));
  auto certifier_pid = *nexus.CreateProcess("safetycertifier", ToBytes("certifier"));

  nexus.fs().CreateFile("/secret/report", ToBytes("the sensitive contents"));
  nexus.engine().RegisterObject("file:/secret/report", owner, kernel::kKernelProcessId);

  // --- The owner's goal formula (§2.5): time bound + safety certification.
  std::string reader_name = nexus.kernel().ProcessPrincipal(reader).ToString();
  auto goal = *nal::ParseFormula("Clock says TimeNow < 20260319 and " +
                                 nexus.kernel().ProcessPrincipal(certifier_pid).ToString() +
                                 " says safe(/proc/ipd/" + std::to_string(reader) + ")");
  nexus.engine().SetGoal(owner, "open", "file:/secret/report", goal);
  nexus.engine().SetGoal(owner, "read", "file:/secret/report", goal);
  std::printf("goal: %s\n", goal->ToString().c_str());

  // --- A time authority (§2.7): answers freshly, never signs.
  int64_t simulated_today = 20260213;
  services::TimeAuthority clock(nal::Principal("Clock"), [&] { return simulated_today; });
  nexus.guard().AddEmbeddedAuthority(&clock);

  // --- Analytic trust (§2.2): the IPC analyzer attests the reader has no
  //     channel to disk or network; the certifier derives safe(reader).
  services::IpcAnalyzer analyzer(&nexus.kernel(), &nexus.engine(), analyzer_pid);
  for (const char* target : {"filesystem", "netdriver"}) {
    auto attested = analyzer.AttestNoPath(reader, target);
    std::printf("analyzer: not hasPath(reader, %s)  -> %s\n", target,
                attested.ok() ? "attested" : attested.status().ToString().c_str());
  }
  services::SafetyCertifier certifier(&nexus.kernel(), &nexus.engine(), certifier_pid,
                                      analyzer_pid, {"filesystem", "netdriver"});
  auto safe_label = certifier.Certify(reader);
  std::printf("certifier: %s\n",
              safe_label.ok() ? "safe(reader) issued" : safe_label.status().ToString().c_str());

  // Make the certifier's label visible to the reader's guard evaluation.
  auto credentials = nexus.engine().StoreFor(certifier_pid).All();
  for (const auto& label : credentials) {
    nexus.engine().AddObjectLabel("file:/secret/report", label);
  }

  // --- The reader constructs its proof from those labels (the guard only
  //     checks, §2.6).
  nal::ProverOptions options;
  options.may_query_authority = [](const nal::Formula& f) {
    return nal::ScopeMatches(f, "TimeNow");
  };
  auto proof = nal::AutoProve(goal, credentials, options);
  if (!proof.ok()) {
    std::printf("proof construction failed: %s\n", proof.status().ToString().c_str());
    return 1;
  }
  std::printf("proof (%d rules): %s\n", (*proof)->Size(),
              nal::SerializeProof(*proof).c_str());
  nexus.engine().SetProof(reader, "open", "file:/secret/report", *proof);
  nexus.engine().SetProof(reader, "read", "file:/secret/report", *proof);

  // --- Access before the deadline: granted.
  kernel::IpcMessage open_msg;
  open_msg.AddString("/secret/report");
  auto open = nexus.kernel().Call(reader, kernel::SyscallIpcPort(kernel::Syscall::kOpen), open_msg);
  std::printf("open before deadline: %s\n", open.status.ToString().c_str());
  Result<uint64_t> fd = open.ArgU64(0);
  if (!fd.ok()) {
    return 1;
  }
  kernel::IpcMessage read_msg;
  read_msg.AddU64(*fd);
  auto read = nexus.kernel().Call(reader, kernel::SyscallIpcPort(kernel::Syscall::kRead), read_msg);
  std::printf("read: \"%s\"\n", ToString(read.data).c_str());

  // --- The deadline passes. No revocation machinery: the authority simply
  //     stops vouching, and the (non-cacheable) decision flips.
  simulated_today = 20260401;
  auto late = nexus.kernel().Call(reader, kernel::SyscallIpcPort(kernel::Syscall::kOpen), open_msg);
  std::printf("open after deadline: %s\n", late.status.ToString().c_str());

  // --- A process with a network channel never gets a safety certificate.
  auto leaky = *nexus.CreateProcess("leaky", ToBytes("leaky-app"));
  auto netdrv = *nexus.CreateProcess("netdriver", ToBytes("nic"));
  auto net_port = *nexus.CreatePort(netdrv);
  nexus.kernel().ConnectPort(leaky, net_port);
  auto refused = analyzer.AttestNoPath(leaky, "netdriver");
  std::printf("analyzer on leaky process: %s\n", refused.status().ToString().c_str());

  const metrics::MetricGroup& cache = nexus.kernel().decision_cache().metrics();
  std::printf("decision cache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(*cache.Value("hits")),
              static_cast<unsigned long long>(*cache.Value("misses")));
  return 0;
}
