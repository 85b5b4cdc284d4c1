#!/usr/bin/env python3
"""Pass/fail gates over benchmark output, one subcommand per gate.

  ci_gates.py mesh BENCH_mesh.json
      Every mesh configuration converges and vouches through its quorum,
      and the 8-node one converges within the simulated-time budget.
  ci_gates.py counters RESULTS_DIR
      The hot-path counters in RESULTS_DIR/<bench>.metrics.json are live
      (nonzero), and the net bench's reject counters are zero.
  ci_gates.py fig7 FIG7_RUN.json BENCH_fig7.json
      The interposed-vs-bare ratio (kref-min over kern-drv medians) stays
      within 1.35x of the committed baseline's fig7_gap.
  ci_gates.py callmany BENCH_callmany.json
      Batch-256 interposed submission is >= 3.0x the batch-1 rate.

Each gate prints one line per check and exits 1 if any check fails.
"""

import argparse
import json
import sys

MESH_BUDGET_8_NODE_US = 200_000  # simulated; ~10 lossy anti-entropy rounds
FIG7_SLACK = 1.35
CALLMANY_MIN_SPEEDUP = 3.0

# Bench binary -> counters that MUST be nonzero after a smoke run. All-zero
# means the bench quietly stopped exercising the path it claims to measure
# (or the metrics plane rotted).
LIVE_COUNTERS = {
    # ddrm.allowed: the kref/uref rows, whose kref-min medians are the
    # fig7 gate's numerator, ran the monitor and it admitted their packets.
    "bench_fig7_interposition": ["kernel.calls", "ddrm.allowed"],
    "bench_table1_syscalls": ["kernel.syscalls", "kernel.calls"],
    "bench_fig4_authorization": ["kernel.authorize_requests", "cache.hits"],
    "bench_net_attestation": ["channel.data_sent", "channel.data_received",
                              "cert_exchange.imported",
                              "remote_authority.queries"],
}
# Bench binary -> counters that MUST be present and zero. Nothing in the
# net bench tampers with or replays a frame, so a nonzero reject count
# means the receiver disagrees with its own sender (a frame tag or replay
# window gone wrong on some frames only).
ZERO_COUNTERS = {
    "bench_net_attestation": ["channel.bad_tags_rejected",
                              "channel.replays_rejected"],
}


def load(path):
    with open(path) as f:
        return json.load(f)


def gate_mesh(args):
    d = load(args.results)
    failed = not d["all_converged"]
    for r in d["results"]:
        note = ""
        if not r["converged"] or r["vouch_ok"] != r["vouch_attempts"]:
            failed = True
            note = " FAIL"
        if r["nodes"] == 8 and r["converge_sim_us"] > MESH_BUDGET_8_NODE_US:
            failed = True
            note = f" FAIL converge budget {MESH_BUDGET_8_NODE_US}us"
        print(f"n={r['nodes']} drop={r['drop']:.2f} "
              f"converge={r['converge_sim_us']}us "
              f"vouch={r['vouch_ok']}/{r['vouch_attempts']}{note}")
    return failed


def gate_counters(args):
    failed = False
    for bench in sorted(set(LIVE_COUNTERS) | set(ZERO_COUNTERS)):
        path = f"{args.results_dir}/{bench}.metrics.json"
        try:
            metrics = load(path)
        except (OSError, ValueError) as e:
            print(f"FAIL {bench}: cannot read {path}: {e}")
            failed = True
            continue
        for counter in LIVE_COUNTERS.get(bench, []):
            value = metrics.get(counter)
            if isinstance(value, dict):  # histogram: look at count
                value = value.get("count", 0)
            if not value:
                print(f"FAIL {bench}: {counter} is zero or missing")
                failed = True
            else:
                print(f"ok   {bench}: {counter} = {value}")
        for counter in ZERO_COUNTERS.get(bench, []):
            value = metrics.get(counter)
            if value != 0:
                print(f"FAIL {bench}: {counter} = {value}, expected 0")
                failed = True
            else:
                print(f"ok   {bench}: {counter} = 0")
    return failed


def gate_fig7(args):
    med = {b["name"]: b["real_time"] for b in load(args.run)["benchmarks"]
           if b.get("aggregate_name") == "median"}
    baseline = load(args.baseline)["fig7_gap"]
    failed = False
    for size in ("100", "1500"):
        bare = med[f"BM_kern_drv/{size}_median"]
        interposed = med[f"BM_kref_min/{size}_median"]
        gap = interposed / bare
        base = baseline[f"kref_min_over_kern_drv_{size}"]
        limit = base * FIG7_SLACK
        verdict = "FAIL" if gap > limit else "ok  "
        print(f"{verdict} {size}B: interposed/bare = {gap:.3f} "
              f"(baseline {base:.3f}, limit {limit:.3f})")
        failed |= gap > limit
    return failed


def gate_callmany(args):
    d = load(args.results)
    speedup = d["speedup_256_vs_1_interposed"]
    base = batched = None
    for r in d["results"]:
        if (r["threads"] == d["contended_threads"] and r["payload"] == 0
                and r["interposed"]):
            if r["batch"] == 1:
                base = r["msgs_per_sec"]
            if r["batch"] == 256:
                batched = r["msgs_per_sec"]
    print(f"batch-1 {base:.0f} msgs/s, batch-256 {batched:.0f} msgs/s, "
          f"paired-median speedup {speedup:.2f}x (gate: >= {CALLMANY_MIN_SPEEDUP})")
    return speedup < CALLMANY_MIN_SPEEDUP


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    gates = parser.add_subparsers(dest="gate", required=True)
    mesh = gates.add_parser("mesh")
    mesh.add_argument("results")
    mesh.set_defaults(check=gate_mesh)
    counters = gates.add_parser("counters")
    counters.add_argument("results_dir")
    counters.set_defaults(check=gate_counters)
    fig7 = gates.add_parser("fig7")
    fig7.add_argument("run")
    fig7.add_argument("baseline")
    fig7.set_defaults(check=gate_fig7)
    callmany = gates.add_parser("callmany")
    callmany.add_argument("results")
    callmany.set_defaults(check=gate_callmany)
    args = parser.parse_args()
    sys.exit(1 if args.check(args) else 0)


if __name__ == "__main__":
    main()
