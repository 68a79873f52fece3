// Mutation: the timeline-verb vocabulary — churn, elasticity, certifier
// faults and load changes as values.
//
// The paper's Figure 6 shows MALB re-grouping after a LOAD change; the churn
// verbs open the other axis of dynamic reconfiguration — the CLUSTER changing
// under the load. A Mutation names one verb and its arguments; the Cluster
// applies it now (Cluster::Apply) or schedules it as a simulator event that
// fires `delay` later (Cluster::ApplyAfter), so a campaign can script
// `fail@t=120s, recover@t=300s` timelines that fire inside a measure window.
// Every applied mutation is logged (Cluster::mutations()), so reports can
// line mutations up against the throughput timeline. ScenarioBuilder phases
// wrap exactly these two calls.
//
// Ten verbs (docs/OPERATIONS.md is the operator-facing cookbook; the `verb:`
// tags below are machine-read by scripts/ci.sh to keep that handbook
// complete). Scheduled verbs are events of the cluster's own simulator: they
// live exactly as long as the cluster and fire whenever it is advanced past
// their instant.
#ifndef SRC_CLUSTER_MUTATOR_H_
#define SRC_CLUSTER_MUTATOR_H_

#include <cstddef>
#include <string>

#include "src/common/units.h"

namespace tashkent {

enum class Verb {
  // Fail-stop replica `target`: it rejects new work.
  kKillReplica,  // verb: KillReplica
  // Begin recovery of replica `target`: cold cache, replay the certifier's
  // committed-writeset log (through the update-filtering subscription, which
  // decides how much must actually be applied), rejoin when caught up. The
  // replay time is the recovery lag.
  kRecoverReplica,  // verb: RecoverReplica
  // Elastic scale-out with `memory` (0 = the configured default): a new
  // replica joins in recovering state, installs a checkpoint image, and
  // replays only the suffix (legacy mode, with checkpoint_join off, replays
  // the whole log). The record's `target` is the index it received.
  kAddReplica,  // verb: AddReplica
  // Elastic resize of replica `target` to `memory`: shrink evicts cache; the
  // balancer re-packs against the new capacities.
  kResizeMemory,  // verb: ResizeMemory
  // Fail-stop the certifier primary: requests go unanswered, proxy timeouts
  // drive retries, writes queue behind the gatekeeper bound.
  kCrashCertifier,  // verb: CrashCertifier
  // Promote the warm standby; stale-epoch requests are fenced and resent
  // against the new primary. Like CrashCertifier and PartitionProxy, it
  // requires proxy.retry.enabled (Cluster throws).
  kFailoverCertifier,  // verb: FailoverCertifier
  // Drop every message from replica `target`'s proxy for `duration` (a
  // one-way link partition).
  kPartitionProxy,  // verb: PartitionProxy
  // Switch every client to mix `mix` (each client's next transaction).
  kSwitchMix,  // verb: SwitchMix
  // Retarget the client population to `target` clients.
  kSetPopulation,  // verb: SetPopulation
  // Pin MALB's current allocation (the paper's static-configuration
  // baseline); a no-op for non-MALB policies.
  kFreezeAllocation,  // verb: FreezeAllocation
};

// One verb with its arguments; fields a verb does not read stay at their
// defaults.
struct Mutation {
  Verb verb = Verb::kKillReplica;
  size_t target = 0;         // replica index, or SetPopulation's population
  Bytes memory = 0;          // AddReplica / ResizeMemory (0 = default)
  SimDuration duration = 0;  // PartitionProxy window length
  std::string mix = {};      // SwitchMix mix name
};

// One applied mutation, recorded when the verb executed (not when it was
// scheduled), in execution order.
struct MutationRecord {
  SimTime at = 0;  // simulated time the verb fired
  Mutation m;
};

// "KillReplica", "RecoverReplica", ... (the `verb:` tag spelling).
inline const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kKillReplica:
      return "KillReplica";
    case Verb::kRecoverReplica:
      return "RecoverReplica";
    case Verb::kAddReplica:
      return "AddReplica";
    case Verb::kResizeMemory:
      return "ResizeMemory";
    case Verb::kCrashCertifier:
      return "CrashCertifier";
    case Verb::kFailoverCertifier:
      return "FailoverCertifier";
    case Verb::kPartitionProxy:
      return "PartitionProxy";
    case Verb::kSwitchMix:
      return "SwitchMix";
    case Verb::kSetPopulation:
      return "SetPopulation";
    case Verb::kFreezeAllocation:
      return "FreezeAllocation";
  }
  return "?";
}

}  // namespace tashkent

#endif  // SRC_CLUSTER_MUTATOR_H_
