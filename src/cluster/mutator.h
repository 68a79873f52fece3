// ClusterMutator: churn and elasticity verbs as simulator events.
//
// The paper's Figure 6 shows MALB re-grouping after a LOAD change; the
// mutator opens the other axis of dynamic reconfiguration — the CLUSTER
// changing under the load. It wraps the Cluster's lifecycle hooks with
// (a) scheduling, so a campaign can script `fail@t=120s, recover@t=300s`
// timelines as ordinary simulator events that fire inside a measure window,
// and (b) a mutation log, so reports can line mutations up against the
// throughput timeline.
//
// Seven verbs (docs/OPERATIONS.md is the operator-facing cookbook; the
// `verb:` tags below are machine-read by scripts/ci.sh to keep that handbook
// complete):
//   * KillReplica(i)      — fail-stop: the replica rejects new work.
//   * RecoverReplica(i)   — begin recovery: cold cache, replay the
//                           certifier's committed-writeset log (through the
//                           update-filtering subscription, which decides how
//                           much must actually be applied), rejoin when
//                           caught up. The replay time is the recovery lag.
//   * AddReplica(mem)     — elastic scale-out: a new replica joins in
//                           recovering state, installs a checkpoint image,
//                           and replays only the suffix (legacy mode, with
//                           checkpoint_join off, replays the whole log).
//   * ResizeMemory(i, mem)— elastic resize: shrink evicts cache; the
//                           balancer re-packs against the new capacities.
//   * CrashCertifier()    — fail-stop the certifier primary: requests go
//                           unanswered, proxy timeouts drive retries, writes
//                           queue behind the gatekeeper bound.
//   * FailoverCertifier() — promote the warm standby; stale-epoch requests
//                           are fenced and resent against the new primary.
//                           Like CrashCertifier and PartitionProxy, it
//                           requires proxy.retry.enabled (Cluster throws).
//   * PartitionProxy(i,d) — drop every message from replica i's proxy for
//                           duration d (a one-way link partition).
//
// Immediate forms apply now; *At forms schedule the verb `delay` after the
// current simulated instant and return immediately — interleave them with
// Cluster::Advance/Measure (or ScenarioBuilder phases, which wrap exactly
// this) to drop mutations into the middle of a window. The certifier forms
// are named CrashCertifierAt/FailoverAt/PartitionAt.
#ifndef SRC_CLUSTER_MUTATOR_H_
#define SRC_CLUSTER_MUTATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/inline_callback.h"

namespace tashkent {

// One applied mutation, recorded when the verb executes (not when it was
// scheduled), in execution order.
struct MutationRecord {
  SimTime at = 0;        // simulated time the verb fired
  std::string verb;      // "KillReplica", "RecoverReplica", ...
  size_t replica = 0;    // target (for AddReplica: the index it received)
  Bytes memory = 0;      // AddReplica / ResizeMemory argument (0 = default)
  SimDuration duration = 0;  // PartitionProxy window length
};

class ClusterMutator {
 public:
  explicit ClusterMutator(Cluster* cluster) : cluster_(cluster) {}

  ClusterMutator(const ClusterMutator&) = delete;
  ClusterMutator& operator=(const ClusterMutator&) = delete;

  // --- Immediate verbs ------------------------------------------------------
  void KillReplica(size_t index);                      // verb: KillReplica
  void RecoverReplica(size_t index);                   // verb: RecoverReplica
  size_t AddReplica(Bytes memory = 0);                 // verb: AddReplica
  void ResizeMemory(size_t index, Bytes memory);       // verb: ResizeMemory
  void CrashCertifier();                               // verb: CrashCertifier
  void FailoverCertifier();                            // verb: FailoverCertifier
  void PartitionProxy(size_t index, SimDuration duration);  // verb: PartitionProxy

  // --- Scheduled verbs (fire `delay` from now as simulator events) ----------
  // Scheduled events are tied to this mutator's lifetime: destroying the
  // mutator cancels any not-yet-fired verbs (the event fires but finds the
  // liveness token expired and does nothing), so a scheduled kill can never
  // outlive the scenario that scripted it.
  void KillReplicaAt(SimDuration delay, size_t index);
  void RecoverReplicaAt(SimDuration delay, size_t index);
  void AddReplicaAt(SimDuration delay, Bytes memory = 0);
  void ResizeMemoryAt(SimDuration delay, size_t index, Bytes memory);
  void CrashCertifierAt(SimDuration delay);
  void FailoverAt(SimDuration delay);
  void PartitionAt(SimDuration delay, size_t index, SimDuration duration);

  // Applied mutations in execution order. Scheduled verbs appear only once
  // they have fired.
  const std::vector<MutationRecord>& log() const { return log_; }

  Cluster& cluster() { return *cluster_; }

 private:
  // Scheduled-verb closure: {this + up to two word-sized arguments}. An
  // InlineCallback, not std::function — scheduling a verb must not allocate
  // (the alloc-guard case in tests/churn_test.cc pins it). Together with the
  // weak liveness token the guarded wrapper is the simulator's largest event
  // capture (see Simulator::Callback).
  using GuardedVerb = InlineCallback<void(), 48>;

  void Record(const std::string& verb, size_t replica, Bytes memory,
              SimDuration duration = 0);
  // Schedules `fn` after `delay`, guarded by the liveness token.
  void ScheduleGuarded(SimDuration delay, GuardedVerb fn);

  Cluster* cluster_;
  std::vector<MutationRecord> log_;
  // Liveness token for scheduled verbs; reset on destruction, so in-flight
  // events observe expiry instead of dereferencing a dead mutator.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_MUTATOR_H_
