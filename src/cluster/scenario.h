// ScenarioBuilder: phase-scripted experiment runs.
//
// The paper's results come in exactly two shapes: a single warmup+measure
// window per policy (Figures 3-5, 7-10, all tables), and a timeline of
// phases with mix switches, crashes, and allocation freezes (Figure 6).
// ScenarioBuilder scripts both as an ordered phase list executed by one
// driver:
//
//   const ScenarioResult r = ScenarioBuilder()
//                                .Warmup(Seconds(240.0))
//                                .Measure(Seconds(240.0), "steady")
//                                .SwitchMix("browsing")
//                                .Advance(Seconds(300.0))
//                                .Measure(Seconds(240.0), "after-switch")
//                                .Run(workload, "ordering", "MALB-SC", config);
//   r.ByLabel("after-switch").tps;
//
// Phase semantics (executed strictly in list order):
//   * Warmup(d) / Advance(d) — advance simulated time by d; anything measured
//     during the window is discarded. The two are aliases; Warmup names
//     intent at the start of a script, Advance mid-script (e.g. letting MALB
//     re-converge after a mix switch).
//   * Measure(d, label)      — reset the metric counters, advance by d, and
//     record one ExperimentResult under `label`. Labels are the lookup key
//     for ScenarioResult::ByLabel and should be unique per script; duplicate
//     labels are not rejected, ByLabel returns the first.
//   * SwitchMix(name)        — switch every client to the named mix at the
//     current instant (takes effect for each client's next transaction).
//     Zero duration. SwitchMixAt(d, name) schedules the switch `d` after the
//     instant this phase executes (a mix spike INSIDE a measure window).
//   * SetPopulation(n)       — retarget the client population at the current
//     instant (flash crowds, diurnal curves); growing staggers new clients
//     in over one think time, shrinking drains surplus in-flight work.
//     SetPopulationAt(d, n) schedules it like the other *At forms. Zero
//     duration.
//   * KillReplica(i) / RecoverReplica(i) / AddReplica(mem) /
//     ResizeMemory(i, mem) / CrashCertifier() / FailoverCertifier() /
//     PartitionProxy(i, d) — the churn and certifier-fault verbs
//     (src/cluster/mutator.h), applied at the current instant. Zero
//     duration.
//   * KillReplicaAt(d, i) and the other <Verb>At forms — schedule the verb
//     as a simulator event `d` after the instant this phase executes, then
//     move on immediately: `.KillReplicaAt(Seconds(120), 3).Measure(
//     Seconds(600), "churn")` fails replica 3 two minutes INTO the measure
//     window. Zero duration. A verb scheduled past the end of the script is
//     not in the result's mutation log; it fires if the caller keeps
//     advancing the cluster.
//   * FreezeAllocation()     — pin MALB's current allocation (the paper's
//     static-configuration baseline); no-op for non-MALB policies. Zero
//     duration.
//
// Every verb phase is one Mutation: applied with Cluster::Apply, or
// scheduled with Cluster::ApplyAfter when its delay is positive.
//
// Each Measure phase resets the metric counters, runs for its duration, and
// records one labeled ExperimentResult. The merged throughput timeline spans
// the whole scenario (warmups included), bucketed per
// ClusterConfig::timeline_bucket — the Figure 6 plot falls straight out.
// MeasureRecord::start is scenario-relative simulated time (the sum of the
// durations executed before the window), so PhaseMeanTps windows line up
// with the script.
//
// A ScenarioBuilder holds no cluster state: the same script can Run against
// any (workload, mix, policy, config), or RunOn an existing Cluster to
// continue its life — campaign cells rely on this to stay independent.
#ifndef SRC_CLUSTER_SCENARIO_H_
#define SRC_CLUSTER_SCENARIO_H_

#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/mutator.h"

namespace tashkent {

struct ScenarioPhase {
  enum class Kind {
    kAdvance,  // advance, metrics discarded (Warmup and Advance)
    kMeasure,  // reset counters, advance, record a labeled result
    kMutate,   // apply `mutation` now (delay 0) or schedule it `delay` later
  };
  Kind kind;
  SimDuration duration = Seconds(0.0);  // kAdvance / kMeasure
  std::string label = {};               // kMeasure label
  SimDuration delay = Seconds(0.0);     // kMutate schedule offset (0 = now)
  Mutation mutation = {};               // kMutate
};

struct MeasureRecord {
  std::string label;
  // Simulated time at which this measure window started (scenario-relative).
  SimDuration start = Seconds(0.0);
  ExperimentResult result;
};

struct ScenarioResult {
  std::vector<MeasureRecord> measures;
  // Whole-scenario committed-transactions timeline (warmups included).
  std::vector<double> timeline;
  SimDuration timeline_bucket = Seconds(30.0);
  SimDuration total = Seconds(0.0);  // total simulated scenario time
  // Verbs applied during the run, in execution order (scheduled verbs
  // stamped when they fired) — lines up against the timeline. The slice of
  // Cluster::mutations() appended while the script ran.
  std::vector<MutationRecord> mutations;
  // Simulator events executed over the cluster's whole life (perf accounting
  // for the campaign manifest).
  uint64_t executed_events = 0;

  // The result of the measure phase with the given label; throws
  // std::invalid_argument when no such phase exists.
  const ExperimentResult& ByLabel(const std::string& label) const;

  // Mean tps over timeline buckets fully inside [from_s, to_s), skipping the
  // first `skip_s` seconds (reconfiguration transients). The Figure 6
  // phase-mean helper.
  double PhaseMeanTps(double from_s, double to_s, double skip_s = 0.0) const;
};

class ScenarioBuilder {
 public:
  ScenarioBuilder& Warmup(SimDuration d) { return Advance(d); }
  ScenarioBuilder& Advance(SimDuration d);
  ScenarioBuilder& Measure(SimDuration d, std::string label);

  // --- timeline verbs (see the phase semantics above) ----------------------
  ScenarioBuilder& SwitchMix(std::string mix) { return SwitchMixAt(0, std::move(mix)); }
  ScenarioBuilder& SwitchMixAt(SimDuration delay, std::string mix) {
    return MutateAt(delay, {Verb::kSwitchMix, 0, 0, 0, std::move(mix)});
  }
  ScenarioBuilder& SetPopulation(size_t n) { return SetPopulationAt(0, n); }
  ScenarioBuilder& SetPopulationAt(SimDuration delay, size_t n) {
    return MutateAt(delay, {Verb::kSetPopulation, n});
  }
  ScenarioBuilder& FreezeAllocation() { return MutateAt(0, {Verb::kFreezeAllocation}); }
  ScenarioBuilder& KillReplica(size_t i) { return KillReplicaAt(0, i); }
  ScenarioBuilder& KillReplicaAt(SimDuration delay, size_t i) {
    return MutateAt(delay, {Verb::kKillReplica, i});
  }
  ScenarioBuilder& RecoverReplica(size_t i) { return RecoverReplicaAt(0, i); }
  ScenarioBuilder& RecoverReplicaAt(SimDuration delay, size_t i) {
    return MutateAt(delay, {Verb::kRecoverReplica, i});
  }
  ScenarioBuilder& AddReplica(Bytes memory = 0) { return AddReplicaAt(0, memory); }
  ScenarioBuilder& AddReplicaAt(SimDuration delay, Bytes memory = 0) {
    return MutateAt(delay, {Verb::kAddReplica, 0, memory});
  }
  ScenarioBuilder& ResizeMemory(size_t i, Bytes memory) { return ResizeMemoryAt(0, i, memory); }
  ScenarioBuilder& ResizeMemoryAt(SimDuration delay, size_t i, Bytes memory) {
    return MutateAt(delay, {Verb::kResizeMemory, i, memory});
  }
  ScenarioBuilder& CrashCertifier() { return CrashCertifierAt(0); }
  ScenarioBuilder& CrashCertifierAt(SimDuration delay) {
    return MutateAt(delay, {Verb::kCrashCertifier});
  }
  ScenarioBuilder& FailoverCertifier() { return FailoverCertifierAt(0); }
  ScenarioBuilder& FailoverCertifierAt(SimDuration delay) {
    return MutateAt(delay, {Verb::kFailoverCertifier});
  }
  ScenarioBuilder& PartitionProxy(size_t i, SimDuration d) { return PartitionProxyAt(0, i, d); }
  ScenarioBuilder& PartitionProxyAt(SimDuration delay, size_t i, SimDuration d) {
    return MutateAt(delay, {Verb::kPartitionProxy, i, 0, d});
  }

  // Executes the scripted phases on an existing cluster (which may already
  // have run other phases; the merged timeline still covers its whole life).
  ScenarioResult RunOn(Cluster& cluster) const;

  // Builds a cluster for (workload, mix, policy, config) and executes the
  // phases on it. config.clients_per_replica must be concrete (calibrate
  // first; see experiment.h).
  ScenarioResult Run(const Workload& workload, const std::string& mix_name,
                     const std::string& policy, const ClusterConfig& config) const;

 private:
  // Appends a kMutate phase (delay 0 = apply when the phase executes).
  ScenarioBuilder& MutateAt(SimDuration delay, Mutation m);

  std::vector<ScenarioPhase> phases_;
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_SCENARIO_H_
