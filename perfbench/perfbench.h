// Host-performance benchmark of the Tashkent+ simulator: shared declarations.
//
// The benchmark drives a Cluster through its public API only. RATIONALE.md
// (beside this file) explains the workloads, the metrics and the bounds.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"

namespace perfbench {

using tashkent::Bytes;
using tashkent::SimDuration;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One named workload: a TPC-W database, a mix, a policy and a cluster shape.
// All are closed loops: a fixed client population with a 500 ms mean think.
struct WorkloadSpec {
  std::string name;
  int ebs = 0;
  std::string mix;
  std::string policy;
  Bytes ram = 0;
  int clients_per_replica = 0;
  // Simulated length of one timed slice, sized so that a slice costs about
  // 1/slices_per_host_second of host time on a shared 4-core x86 host. A run
  // makes as many replays as fill --seconds at that rate, so shorter slices
  // give shorter and more numerous replays.
  SimDuration slice = 0;
  size_t slices_per_host_second = 120;
  bool update_filtering = false;
  // Light message faults with the retry protocol armed, plus the churn
  // schedule of ChurnVerbs.
  bool churn = false;
};

inline constexpr size_t kReplicas = 16;
// At least 100 slices, so at least ten lie beyond the p90.
inline constexpr size_t kSlicesPerPhase = 120;
inline constexpr size_t kMinReplays = 3;
// The paper's warm-up before any measurement window.
inline constexpr double kWarmupSimSeconds = 240.0;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);
tashkent::ClusterConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed);

enum class Verb { kKill, kRecover, kCrashCertifier, kFailoverCertifier };
const char* VerbName(Verb verb);

struct ChurnStep {
  Verb verb;
  size_t replica = 0;  // for kKill / kRecover
  // Simulated delay from the start of the slice; a delayed verb runs from a
  // simulator event inside the slice.
  SimDuration delay = 0;
};

// The fixed churn schedule: the verbs of timed slice `slice` (empty for
// workloads without churn).
std::vector<ChurnStep> ChurnVerbs(const WorkloadSpec& spec, size_t slice);
void ApplyVerb(tashkent::Cluster& cluster, const ChurnStep& step);

// Observations from the untraced timed phase that the standalone layer
// drives replay: call rates per committed transaction and shapes.
struct Observed {
  uint64_t committed = 0;
  uint64_t attempts = 0;  // client-visible commits + aborts
  double sim_seconds = 0.0;
  uint64_t txns_executed = 0;      // summed over replicas
  uint64_t writesets_applied = 0;  // replica-side applies, summed
  uint64_t certify_calls = 0;      // certified + aborted + dedup hits
  uint64_t pulls = 0;
  uint64_t events = 0;
  double mean_lag = 0.0;      // log head minus applied version, per up proxy
  double mean_pending = 0.0;  // simulator pending events at slice ends
};

// Per-call costs measured by driving each layer standalone on the
// workload's own inputs, and the self-time estimates built from them.
struct LayerCosts {
  double touch_scan_ns = 0.0;
  double touch_random_ns = 0.0;
  double dirty_random_ns = 0.0;
  double take_dirty_ns = 0.0;
  double drop_relation_us = 0.0;
  double ctor_us = 0.0;
  double certify_ns = 0.0;
  double pull_ns = 0.0;
  double event_ns = 0.0;
  double route_ns = 0.0;
  // Estimated self time per committed transaction (calls/txn x ns/call).
  double storage_ns_per_txn = 0.0;
  double certifier_ns_per_txn = 0.0;
  double sim_ns_per_txn = 0.0;
  double balancer_ns_per_txn = 0.0;
};

// Drives BufferPool, Certifier and Simulator standalone, and a cluster's
// own balancer Route, in rounds. The run times one round after each untraced
// replay, so each per-call cost, like each slice, is the best of samples
// spread over the whole run and sees the same host periods.
class LayerDrives {
 public:
  // Builds and warms the drives from the untraced phase's observations;
  // `cluster` gives the MALB groups.
  LayerDrives(const WorkloadSpec& spec, tashkent::Cluster& cluster, const Observed& observed,
              uint64_t seed, size_t rounds);
  ~LayerDrives();
  LayerDrives(const LayerDrives&) = delete;
  LayerDrives& operator=(const LayerDrives&) = delete;

  // Times one round. `cluster` has finished its timed phase: Route mutates
  // balancer state.
  void Round(tashkent::Cluster& cluster);
  // The best per-call costs over the rounds, and the self-time estimates.
  LayerCosts Costs() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
