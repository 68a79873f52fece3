// The benchmark's three workloads and write-churn's churn schedule.
// RATIONALE.md records why each was chosen.
#include "perfbench/perfbench.h"
#include "src/cluster/experiment.h"
#include "src/workload/tpcw.h"

namespace perfbench {

using tashkent::kMiB;
using tashkent::Millis;
using tashkent::Seconds;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    // Every scan is several times the 186 MB pool: the eviction path.
    w[0].name = "scan-evict";
    w[0].ebs = tashkent::kTpcwMediumEbs;
    w[0].mix = tashkent::kTpcwBrowsing;
    w[0].policy = "LeastConnections";
    w[0].ram = 256 * kMiB;
    w[0].clients_per_replica = 4;
    w[0].slice = Seconds(32.0);
    // The database fits the 954 MB pool: no evictions, the hit path. Its
    // slices are half as long as the others' and its replays twice as many:
    // it is the workload most sensitive to other tenants' cache pressure, and
    // a per-slice best over twice the samples more often catches a quiet
    // moment.
    w[1].name = "cache-fit";
    w[1].ebs = tashkent::kTpcwSmallEbs;
    w[1].mix = tashkent::kTpcwShopping;
    w[1].policy = "MALB-SC";
    w[1].ram = 1024 * kMiB;
    w[1].clients_per_replica = 12;
    w[1].slice = Seconds(4.0);
    w[1].slices_per_host_second = 240;
    // Half the transactions write: dirty pages, flushes, certification,
    // filtering, recovery replay and failover.
    w[2].name = "write-churn";
    w[2].ebs = tashkent::kTpcwMediumEbs;
    w[2].mix = tashkent::kTpcwOrdering;
    w[2].policy = "MALB-SC";
    w[2].ram = 512 * kMiB;
    w[2].clients_per_replica = 8;
    w[2].slice = Seconds(8.0);
    w[2].update_filtering = true;
    w[2].churn = true;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

tashkent::ClusterConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed) {
  tashkent::ClusterConfig config = tashkent::MakeClusterConfig(spec.ram, kReplicas, seed);
  config.clients_per_replica = spec.clients_per_replica;
  config.mean_think = Millis(500);
  if (spec.update_filtering) {
    config.malb.update_filtering = true;
  }
  if (spec.churn) {
    config.faults.drop = 0.02;
    config.faults.duplicate = 0.05;
    config.faults.delay_probability = 0.10;
    config.faults.delay_mean = Millis(1);
    tashkent::RetryPolicy& retry = config.proxy.retry;
    retry.enabled = true;
    retry.timeout = Millis(2);
    retry.backoff_base = tashkent::Micros(500);
    retry.backoff_factor = 2.0;
    retry.backoff_max = Millis(50);
    retry.jitter = 0.25;
    retry.max_attempts = 0;  // retry forever: no transaction is given up
  }
  return config;
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kKill:
      return "kill";
    case Verb::kRecover:
      return "recover";
    case Verb::kCrashCertifier:
      return "crash";
    case Verb::kFailoverCertifier:
      return "failover";
  }
  return "?";
}

// One churn cycle spans kCycle slices: a replica is killed at its start and
// recovers three slices later; the certifier crashes at the start of slice
// six and the standby takes over kCertifierOutage later, inside that slice.
// The victim rotates over the replicas, so the MALB allocation is disturbed
// in a different group each cycle.
std::vector<ChurnStep> ChurnVerbs(const WorkloadSpec& spec, size_t slice) {
  constexpr size_t kCycle = 10;
  constexpr SimDuration kCertifierOutage = Seconds(5.0);
  std::vector<ChurnStep> steps;
  if (!spec.churn) {
    return steps;
  }
  const size_t victim = (slice / kCycle) % kReplicas;
  switch (slice % kCycle) {
    case 0:
      steps.push_back({Verb::kKill, victim, 0});
      break;
    case 3:
      steps.push_back({Verb::kRecover, victim, 0});
      break;
    case 6:
      steps.push_back({Verb::kCrashCertifier, 0, 0});
      steps.push_back({Verb::kFailoverCertifier, 0, kCertifierOutage});
      break;
    default:
      break;
  }
  return steps;
}

void ApplyVerb(tashkent::Cluster& cluster, const ChurnStep& step) {
  switch (step.verb) {
    case Verb::kKill:
      cluster.KillReplica(step.replica);
      break;
    case Verb::kRecover:
      cluster.RecoverReplica(step.replica);
      break;
    case Verb::kCrashCertifier:
      cluster.CrashCertifier();
      break;
    case Verb::kFailoverCertifier:
      cluster.FailoverCertifier();
      break;
  }
}

}  // namespace perfbench
