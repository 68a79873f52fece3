// High-level experiment driver shared by the benches and examples.
//
// The surface is string-named policies (PolicyRegistry) plus ScenarioBuilder
// phases; a one-window experiment is the `Warmup + Measure` scenario.
// RunComparison-style bar charts are a loop over policy names ("RoundRobin",
// "LeastConnections", "LARD", "MALB-S", "MALB-SC", "MALB-SCAP").
#ifndef SRC_CLUSTER_EXPERIMENT_H_
#define SRC_CLUSTER_EXPERIMENT_H_

#include <string>

#include "src/balancer/registry.h"
#include "src/cluster/calibration.h"
#include "src/cluster/cluster.h"
#include "src/cluster/scenario.h"

namespace tashkent {

// Shared calibration (the paper's 85%-of-standalone-peak methodology):
// returns clients/replica for the configuration (cached per process by
// workload name + mix + RAM + DB size). Thread-safe:
// concurrent campaign cells share one cache entry per key (the first caller
// computes, the rest wait on it). The sweep runs against a canonical config
// rebuilt from the key fields only — config tweaks the key does not capture
// (seed, proxy limits, MALB knobs, replica count) are ignored — so the
// cached value is independent of which cell calibrates first and `--jobs N`
// stays bit-identical to `--jobs 1`.
int CalibratedClients(const Workload& workload, const std::string& mix,
                      const ClusterConfig& config);

// Builds the standard replica config for a given RAM size.
ClusterConfig MakeClusterConfig(Bytes ram, size_t replicas = 16, uint64_t seed = 42);

}  // namespace tashkent

#endif  // SRC_CLUSTER_EXPERIMENT_H_
