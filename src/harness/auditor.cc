#include "harness/auditor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace nexus::harness {

using kernel::TraceEvent;
using kernel::TraceStage;

namespace {

std::string DescribeTuple(const TraceEvent& e) {
  std::string out = "subj=" + std::to_string(e.subject);
  std::string_view op = kernel::OpName(e.op);
  out += " op=" + (op.empty() ? std::to_string(e.op) : std::string(op));
  std::string_view obj = kernel::ObjectName(e.obj);
  out += " obj=" + (obj.empty() ? std::to_string(e.obj) : std::string(obj));
  return out;
}

}  // namespace

std::string TraceAuditor::Report::Summary() const {
  std::string out = "events=" + std::to_string(events_ingested);
  out += " dropped=" + std::to_string(events_dropped);
  out += " mutations=" + std::to_string(mutations_ingested);
  out += " chains=" + std::to_string(chains_finalized);
  out += " complete=" + std::to_string(complete_chains);
  out += " verdicts_checked=" + std::to_string(verdicts_checked);
  out += " violations=" + std::to_string(total_violations());
  if (total_violations() != 0) {
    out += " (serializability=" + std::to_string(serializability_violations);
    out += " stale_generation=" + std::to_string(stale_generation_violations);
    out += " guard_bypass=" + std::to_string(guard_bypass_violations);
    out += " interposition=" + std::to_string(interposition_violations);
    out += " stale_remote=" + std::to_string(remote_invalidation_violations) + ")";
  }
  return out;
}


TraceAuditor::TraceAuditor(Config config) : config_(config) {
  if (config_.cache_shards == 0) {
    config_.cache_shards = 1;
  }
  if (config_.cache_subregions == 0) {
    config_.cache_subregions = 1;
  }
}

void TraceAuditor::AuditPair(kernel::OpId op, kernel::ObjectId obj,
                             nal::FormulaId allow_goal_id, nal::FormulaId initial_goal_id,
                             std::span<const kernel::ProcessId> proof_holders) {
  AuditedPair pair;
  pair.allow_goal_id = allow_goal_id;
  pair.initial_goal_id = initial_goal_id;
  pair.holders.insert(proof_holders.begin(), proof_holders.end());
  pair.subregion = SubregionOf(op, obj);
  audited_[PairKey(op, obj)] = std::move(pair);
}

void TraceAuditor::RequireInterposed(kernel::PortId port) {
  interposed_ports_.insert(port);
}

void TraceAuditor::NoteDropped(uint64_t dropped) { report_.events_dropped += dropped; }

void TraceAuditor::AddViolation(uint64_t* counter, std::string_view kind,
                                std::string detail) {
  ++*counter;
  if (report_.samples.size() < kMaxViolationSamples) {
    report_.samples.push_back(Violation{std::string(kind), std::move(detail)});
  }
}

void TraceAuditor::IngestSegment(size_t ring, uint64_t begin_seq,
                                 std::span<const TraceEvent> events,
                                 bool lossless_start) {
  RingState& state = ring_states_[ring];
  if (state.expected_next != 0 && begin_seq != state.expected_next) {
    // Events were overwritten between harvests: the buffered run may be
    // missing its tail, and the first run of this segment its head.
    FinalizeRun(ring, &state, /*complete_tail=*/false);
    state.truncated = true;
  }
  if (state.expected_next == 0 && !lossless_start) {
    // First contact with a ring whose writer already wrapped: the oldest
    // retained run may be headless, and with no previous cursor position
    // the begin_seq check above cannot see it. Without this, a fast
    // worker that outruns the first harvest yields a chain whose
    // kReplyInterpose (or guard stage) was overwritten while its kCall
    // survived — flagged as a bypass that never happened.
    state.truncated = true;
  }
  for (const TraceEvent& e : events) {
    ++report_.events_ingested;
    CheckRingMonotonicity(ring, e);
    if (state.expected_next != 0 && e.timestamp != state.expected_next) {
      // A slot inside the drained window failed its seqlock validation
      // (writer lapped the reader mid-scan): same truncation story.
      FinalizeRun(ring, &state, /*complete_tail=*/false);
      state.truncated = true;
    }
    if (!state.run.empty() && e.trace_id != state.run.front().trace_id) {
      // The previous trace ended naturally — a different trace follows it
      // with no gap, so its run is complete through the tail.
      FinalizeRun(ring, &state, /*complete_tail=*/true);
    }
    state.run.push_back(e);
    state.expected_next = e.timestamp + 1;
  }
}

void TraceAuditor::FinalizeRun(size_t ring, RingState* state, bool complete_tail) {
  if (state->run.empty()) {
    state->truncated = false;
    return;
  }
  bool complete = !state->truncated && complete_tail;
  ++report_.chains_finalized;
  if (complete) {
    ++report_.complete_chains;
  }
  CheckChain(ring, state->run, complete);
  state->run.clear();
  state->truncated = false;
}

void TraceAuditor::CheckRingMonotonicity(size_t ring, const TraceEvent& event) {
  if (event.stage == TraceStage::kRemoteInvalidate) {
    // A peer's invalidation was applied here: raise this ring's high-water
    // marks for EVERY shard of the pair's subregion, tagged remote. The
    // event's generation word only holds the max over shards; the exact
    // per-shard stamps live in the mutation record, joined by
    // (pair, epoch) — IngestMutations runs before IngestSegment within a
    // harvest and the propagator appends the record before emitting the
    // event, so the join entry is always present. A missing entry (hand-
    // fed trace) soundly raises nothing.
    auto join = remote_inval_gens_.find(
        std::make_pair(PairKey(event.op, event.obj), event.aux));
    if (join == remote_inval_gens_.end()) {
      return;
    }
    size_t subregion = SubregionOf(event.op, event.obj);
    auto& marks = ring_gen_seen_[ring];
    for (size_t shard = 0; shard < join->second.size() && shard < config_.cache_shards;
         ++shard) {
      uint64_t key = static_cast<uint64_t>(subregion) * config_.cache_shards + shard;
      GenMark& mark = marks[key];
      if (join->second[shard] > mark.gen) {
        mark.gen = join->second[shard];
        mark.remote = true;
      }
    }
    return;
  }
  // Only decision-plane generation stamps participate (kGuardCheck reuses
  // the generation word for the observed goal id — a different axis).
  if (event.generation == 0 ||
      (event.stage != TraceStage::kCacheProbe && event.stage != TraceStage::kVerdict)) {
    return;
  }
  uint64_t key = static_cast<uint64_t>(SubregionOf(event.op, event.obj)) *
                     config_.cache_shards +
                 ShardOf(event.subject);
  GenMark& mark = ring_gen_seen_[ring][key];
  if (event.generation < mark.gen) {
    if (mark.remote) {
      // The mark was raised by a peer's invalidation: this verdict (or
      // probe) served a cached answer the mesh already retired — the
      // cross-node coherence failure the propagator exists to prevent.
      AddViolation(&report_.remote_invalidation_violations, "stale_remote_verdict",
                   "ring " + std::to_string(ring) + " " + DescribeTuple(event) +
                       " stage=" + std::string(kernel::TraceStageName(event.stage)) +
                       " gen=" + std::to_string(event.generation) +
                       " below remote-invalidation high-water " +
                       std::to_string(mark.gen));
    } else {
      AddViolation(&report_.stale_generation_violations, "stale_generation",
                   "ring " + std::to_string(ring) + " " + DescribeTuple(event) +
                       " stage=" + std::string(kernel::TraceStageName(event.stage)) +
                       " gen=" + std::to_string(event.generation) +
                       " below ring high-water " + std::to_string(mark.gen));
    }
    return;  // Keep the high-water mark; one bad stamp flags once.
  }
  mark.gen = event.generation;
  mark.remote = false;  // A locally-served stamp at/above the mark clears it.
}

void TraceAuditor::CheckChain(size_t ring, const std::vector<TraceEvent>& chain,
                              bool complete) {
  // Value checks: every audited-pair verdict, complete chain or not (a
  // verdict event is self-sufficient: its generation stamp defines its
  // validity window). One chain can hold SEVERAL evaluations of the same
  // pair (a guarded server re-enters Authorize inside the traced call),
  // so guard-observed goals are tracked in stream order and CONSUMED by
  // the verdict that closes their evaluation — pairing verdict N with
  // evaluation M's guard check would compare disjoint windows.
  std::map<uint64_t, nal::FormulaId> observed_goals;
  for (size_t i = 0; i < chain.size(); ++i) {
    const TraceEvent& e = chain[i];
    if (e.stage == TraceStage::kGuardCheck && e.generation != 0) {
      // The kGuardCheck generation word carries the goal id the guard saw.
      observed_goals[PairKey(e.op, e.obj)] = e.generation;
      continue;
    }
    if (e.stage != TraceStage::kVerdict || !audited_.contains(PairKey(e.op, e.obj))) {
      continue;
    }
    uint64_t probe_gen = 0;
    for (size_t j = i; j-- > 0;) {  // Nearest preceding probe of this tuple.
      const TraceEvent& p = chain[j];
      if (p.stage == TraceStage::kCacheProbe && p.subject == e.subject && p.op == e.op &&
          p.obj == e.obj) {
        probe_gen = p.generation;
        break;
      }
    }
    nal::FormulaId observed = 0;
    auto goal_it = observed_goals.find(PairKey(e.op, e.obj));
    if (goal_it != observed_goals.end()) {
      observed = goal_it->second;
      observed_goals.erase(goal_it);
    }
    CheckVerdict(e, probe_gen, observed, /*defer_allowed=*/true);
  }
  if (!complete) {
    return;  // Structural checks need the whole chain.
  }
  // Guard-present: an audited pair always carries a goal, so an engine
  // miss on it must have reached a guard (inline check or designated
  // upcall) before its verdict.
  for (const TraceEvent& e : chain) {
    if (e.stage != TraceStage::kEngineMiss || !audited_.contains(PairKey(e.op, e.obj))) {
      continue;
    }
    bool guarded = std::any_of(chain.begin(), chain.end(), [&](const TraceEvent& g) {
      return (g.stage == TraceStage::kGuardCheck || g.stage == TraceStage::kGuardUpcall) &&
             g.op == e.op && g.obj == e.obj;
    });
    if (!guarded) {
      AddViolation(&report_.guard_bypass_violations, "guard_bypass",
                   "ring " + std::to_string(ring) + " trace " +
                       std::to_string(e.trace_id) + " " + DescribeTuple(e) +
                       ": engine miss with no guard-check stage in chain");
    }
  }
  // Interceptor traversal: a call through a port registered as interposed
  // must carry the interposed flag (set only when the kernel actually ran
  // the interceptor stack), and — unless the CALL direction already denied
  // it, in which case no reply ever existed — the chain must contain the
  // matching kReplyInterpose stage: the kernel emits it only after the
  // reply-direction chain ran, so a completed interposed call without one
  // returned a reply the monitors never saw.
  for (const TraceEvent& e : chain) {
    if (e.stage != TraceStage::kCall || !interposed_ports_.contains(e.aux)) {
      continue;
    }
    if ((e.flags & kernel::kTraceFlagInterposed) == 0) {
      AddViolation(&report_.interposition_violations, "interposition",
                   "ring " + std::to_string(ring) + " trace " + std::to_string(e.trace_id) +
                       " call to interposed port " + std::to_string(e.aux) +
                       " did not traverse its interceptor");
      continue;
    }
    if ((e.flags & kernel::kTraceFlagDenied) != 0) {
      continue;  // Blocked on the call direction: no reply to interpose.
    }
    bool reply_interposed =
        std::any_of(chain.begin(), chain.end(), [&](const TraceEvent& r) {
          return r.stage == TraceStage::kReplyInterpose && r.aux == e.aux;
        });
    if (!reply_interposed) {
      AddViolation(&report_.interposition_violations, "interposition",
                   "ring " + std::to_string(ring) + " trace " + std::to_string(e.trace_id) +
                       " reply from interposed port " + std::to_string(e.aux) +
                       " bypassed the reply-direction interceptor chain");
    }
  }
}

void TraceAuditor::CheckVerdict(const TraceEvent& verdict, uint64_t probe_gen,
                                nal::FormulaId observed_goal, bool defer_allowed) {
  const AuditedPair& pair = audited_.at(PairKey(verdict.op, verdict.obj));
  const Timeline& timeline = timelines_[pair.subregion];
  size_t shard = ShardOf(verdict.subject);
  uint64_t max_logged = shard < timeline.max_gens.size() ? timeline.max_gens[shard] : 0;
  uint64_t verdict_gen = verdict.generation != 0 ? verdict.generation : probe_gen;
  // The pair's first change stamped past the window (the ONE state an
  // in-flight install may expose early) is conclusive only once a LATER
  // pair change is ingested — or at Finish, when the log is complete and
  // absence means no install was in flight.
  bool successor_known =
      !pair.changes.empty() &&
      (shard < pair.changes.back().gens.size() ? pair.changes.back().gens[shard] : 0) >
          verdict_gen;
  if (defer_allowed && (verdict_gen > max_logged || !successor_known)) {
    // The mutation carrying this generation — or the successor install
    // the evaluation may have glimpsed — may simply not be drained yet;
    // retry once everything is ingested.
    pending_.push_back(PendingVerdict{verdict, probe_gen, observed_goal});
    return;
  }
  ++report_.verdicts_checked;
  // Every mutation that can bump an audited subregion's generations goes
  // through the (enabled) MutationLog, so a verdict generation above the
  // final logged stamp is itself a violation.
  if (verdict_gen > max_logged) {
    AddViolation(&report_.stale_generation_violations, "stale_generation",
                 DescribeTuple(verdict) + " verdict gen=" + std::to_string(verdict_gen) +
                     " exceeds every logged mutation (max " +
                     std::to_string(max_logged) + "): generation from the future");
    return;
  }
  bool holder = pair.holders.contains(verdict.subject);
  bool allowed = verdict.verdict == kernel::kTraceVerdictAllow;
  std::vector<nal::FormulaId> admissible;
  if (verdict_gen == 0) {
    // No generation info (cache disabled / untraced probe): the weakest
    // sound window is every state the pair ever held.
    admissible.push_back(pair.initial_goal_id);
    for (const PairChange& change : pair.changes) {
      admissible.push_back(change.goal_id);
    }
  } else {
    // A missing probe event (truncated chain) passes probe_gen = 0: the
    // window floor degrades to the initial state, admitting every state
    // up to the successor — weaker, but sound. Substituting verdict_gen
    // would NOT be: the guard read precedes the verdict's generation
    // re-read, so it may legitimately have seen a state older than the
    // last change to land before the re-read.
    admissible = AdmissibleGoals(pair, shard, probe_gen, verdict_gen);
  }
  bool verdict_admissible = false;
  for (nal::FormulaId goal : admissible) {
    bool expected = holder && goal == pair.allow_goal_id;
    if (expected == allowed) {
      verdict_admissible = true;
      break;
    }
  }
  if (!verdict_admissible) {
    AddViolation(&report_.serializability_violations, "serializability",
                 DescribeTuple(verdict) + " verdict=" + (allowed ? "allow" : "deny") +
                     " gens=[" + std::to_string(probe_gen) + "," +
                     std::to_string(verdict_gen) + "] holder=" +
                     (holder ? "yes" : "no") + ": no serial replay of the logged " +
                     "mutations produces this verdict in its window");
  }
  if (std::getenv("NEXUS_AUDITOR_DEBUG") != nullptr) {
    bool bad_verdict = !verdict_admissible;
    bool bad_goal = observed_goal != 0 &&
                    std::find(admissible.begin(), admissible.end(), observed_goal) ==
                        admissible.end();
    if (bad_verdict || bad_goal) {
      fprintf(stderr, "DEBUG %s shard=%zu window=[%llu,%llu] observed=%llu changes:",
              DescribeTuple(verdict).c_str(), shard,
              static_cast<unsigned long long>(probe_gen),
              static_cast<unsigned long long>(verdict_gen),
              static_cast<unsigned long long>(observed_goal));
      for (const PairChange& c : pair.changes) {
        fprintf(stderr, " %llu:%llu",
                static_cast<unsigned long long>(shard < c.gens.size() ? c.gens[shard] : 0),
                static_cast<unsigned long long>(c.goal_id));
      }
      fprintf(stderr, "\n");
    }
  }
  if (observed_goal != 0 &&
      std::find(admissible.begin(), admissible.end(), observed_goal) ==
          admissible.end()) {
    AddViolation(&report_.serializability_violations, "serializability",
                 DescribeTuple(verdict) + " guard observed goal id " +
                     std::to_string(observed_goal) +
                     " outside the admissible window [" + std::to_string(probe_gen) +
                     "," + std::to_string(verdict_gen) + "]");
  }
}

std::vector<nal::FormulaId> TraceAuditor::AdmissibleGoals(const AuditedPair& pair,
                                                          size_t shard, uint64_t probe_gen,
                                                          uint64_t verdict_gen) const {
  if (probe_gen > verdict_gen) {
    probe_gen = verdict_gen;  // Defensive; flagged separately as stale.
  }
  auto stamp = [&](const PairChange& c) -> uint64_t {
    return shard < c.gens.size() ? c.gens[shard] : 0;
  };
  // First change bumped AFTER the probe's generation read. Stamps are
  // exact post-bump counter values read under the shard lock, so stamp <=
  // probe_gen means the bump — and the goal install that precedes it in
  // the mutator's program order — happened-before the probe: the engine's
  // later goal read cannot see an older state. The floor of the window is
  // therefore exactly the last change with stamp <= probe_gen.
  auto begin = std::upper_bound(
      pair.changes.begin(), pair.changes.end(), probe_gen,
      [&](uint64_t g, const PairChange& c) { return g < stamp(c); });
  std::vector<nal::FormulaId> out;
  out.push_back(begin == pair.changes.begin() ? pair.initial_goal_id
                                              : std::prev(begin)->goal_id);
  // Every change stamped inside (probe_gen, verdict_gen], plus exactly ONE
  // successor past the window: a goal installs BEFORE its bump lands, and
  // per-pair installs are serialized, so at most one not-yet-stamped state
  // can have been observable when the verdict re-read its generation.
  for (auto it = begin; it != pair.changes.end(); ++it) {
    out.push_back(it->goal_id);
    if (stamp(*it) > verdict_gen) {
      break;
    }
  }
  // Dedup (tiny vectors).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void TraceAuditor::IngestMutations(std::span<const kernel::MutationRecord> records) {
  for (const kernel::MutationRecord& r : records) {
    ++report_.mutations_ingested;
    if (r.generations.empty()) {
      continue;  // kSay: append-only label, no invalidation axis.
    }
    Timeline& timeline = timelines_[SubregionOf(r.op, r.obj)];
    if (timeline.max_gens.size() < r.generations.size()) {
      timeline.max_gens.resize(r.generations.size(), 0);
    }
    for (size_t i = 0; i < r.generations.size(); ++i) {
      timeline.max_gens[i] = std::max(timeline.max_gens[i], r.generations[i]);
    }
    if (r.kind == kernel::MutationKind::kRemoteInvalidate) {
      // Not a goal change here — the goal changed on the ORIGIN node.
      // Retain the exact per-shard stamps so the matching flight-recorder
      // event (joined by pair + epoch in r.detail) can raise per-shard
      // ring high-waters in CheckRingMonotonicity.
      if (remote_inval_gens_.size() >= kMaxRemoteInvalJoin) {
        remote_inval_gens_.erase(remote_inval_gens_.begin());
      }
      remote_inval_gens_[std::make_pair(PairKey(r.op, r.obj), r.detail)] =
          r.generations;
      continue;
    }
    bool goal_change = r.kind == kernel::MutationKind::kSetGoal ||
                       r.kind == kernel::MutationKind::kClearGoal;
    if (!goal_change) {
      continue;  // Proof mutations only raise the high-water mark.
    }
    auto it = audited_.find(PairKey(r.op, r.obj));
    if (it == audited_.end()) {
      continue;
    }
    PairChange change;
    change.goal_id = r.kind == kernel::MutationKind::kSetGoal ? r.detail : 0;
    change.gens = r.generations;
    it->second.changes.push_back(std::move(change));
  }
}

void TraceAuditor::Harvest() {
  std::vector<kernel::FlightRecorder::DrainedSegment> segments;
  kernel::FlightRecorder::DrainStats stats =
      kernel::FlightRecorder::Global().Drain(&event_cursor_, &segments);
  NoteDropped(stats.dropped);
  // Mutations first: a verdict drained in this batch may reference a
  // generation whose mutation was appended just before the event drain.
  std::vector<kernel::MutationRecord> mutations;
  kernel::MutationLog::Global().DrainFrom(&mutation_cursor_, &mutations);
  IngestMutations(mutations);
  for (const auto& segment : segments) {
    IngestSegment(segment.ring, segment.begin_seq, segment.events,
                  segment.lossless_start);
  }
}

TraceAuditor::Report TraceAuditor::Finish() {
  if (finished_) {
    return report_;
  }
  finished_ = true;
  for (auto& [ring, state] : ring_states_) {
    // The buffered tail might continue past the last harvest: value-check
    // it but never structurally.
    FinalizeRun(ring, &state, /*complete_tail=*/false);
  }
  std::vector<PendingVerdict> pending = std::move(pending_);
  pending_.clear();
  for (const PendingVerdict& p : pending) {
    CheckVerdict(p.verdict, p.probe_gen, p.observed_goal, /*defer_allowed=*/false);
  }
  return report_;
}

}  // namespace nexus::harness
