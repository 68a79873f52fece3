// Churn subsystem: kill/recover replay, heterogeneous capacities, elastic
// AddReplica/ResizeMemory, scenario wiring, and campaign determinism.
//
// The tier-1 properties the ISSUE pins down:
//   * a kill -> recover round trip restores pre-fault throughput within
//     tolerance, and the recovery (log replay) is observable in the metrics;
//   * heterogeneous packing never assigns a (non-overflow) group to a replica
//     whose capacity it exceeds;
//   * churn campaigns stay bit-identical under --jobs 4 vs --jobs 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/campaign.h"
#include "src/common/alloc_guard.h"
#include "src/cluster/cluster.h"
#include "src/cluster/mutator.h"
#include "src/cluster/scenario.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

ClusterConfig Config(size_t replicas = 8, uint64_t seed = 42) {
  ClusterConfig c;
  c.replicas = replicas;
  c.clients_per_replica = 4;
  c.seed = seed;
  return c;
}

// --- kill -> recover round trip ---------------------------------------------

class ChurnRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnRoundTrip, RestoresThroughputAndRecordsRecovery) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, GetParam(), Config());
  cluster.Advance(Seconds(120.0));
  const ExperimentResult before = cluster.Measure(Seconds(120.0));
  ASSERT_GT(before.tps, 1.0);

  cluster.KillReplica(3);
  cluster.Advance(Seconds(60.0));  // commits accumulate while it is down
  cluster.RecoverReplica(3);
  // The replay completes inside this window, so its metrics land here.
  const ExperimentResult during = cluster.Measure(Seconds(120.0));
  EXPECT_EQ(during.recoveries, 1u);
  EXPECT_GT(during.recovery_lag_s, 0.0);
  EXPECT_GT(during.replay_applied, 0u);
  EXPECT_TRUE(cluster.proxies()[3]->available());

  const ExperimentResult after = cluster.Measure(Seconds(120.0));
  // Back at full strength: throughput within tolerance of the pre-fault
  // level (the cache re-warms during the recovery window).
  EXPECT_GT(after.tps, 0.7 * before.tps);
}

INSTANTIATE_TEST_SUITE_P(Policies, ChurnRoundTrip,
                         ::testing::Values("LeastConnections", "MALB-SC"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ChurnLifecycle, RecoveringReplicaRejectsWorkUntilCaughtUp) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config());
  cluster.Advance(Seconds(60.0));
  cluster.KillReplica(2);
  EXPECT_EQ(cluster.proxies()[2]->lifecycle(), ReplicaLifecycle::kDown);
  cluster.Advance(Seconds(60.0));
  cluster.RecoverReplica(2);
  // Recovery replays the log before rejoining: not yet available.
  EXPECT_EQ(cluster.proxies()[2]->lifecycle(), ReplicaLifecycle::kRecovering);
  EXPECT_FALSE(cluster.proxies()[2]->available());
  cluster.Advance(Seconds(60.0));
  EXPECT_EQ(cluster.proxies()[2]->lifecycle(), ReplicaLifecycle::kUp);
  EXPECT_GT(cluster.proxies()[2]->stats().recoveries, 0u);
  // Caught up with the certifier log head (modulo commits still in flight).
  EXPECT_GE(cluster.proxies()[2]->applied_version() + 50,
            cluster.proxies()[0]->applied_version());
}

// --- heterogeneous capacities ------------------------------------------------

TEST(Heterogeneous, PackingNeverExceedsAReplicasCapacity) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  ClusterConfig config = Config();
  config.replica_memory = {1024 * kMiB, 768 * kMiB, 512 * kMiB, 512 * kMiB,
                           512 * kMiB,  384 * kMiB, 256 * kMiB, 128 * kMiB};
  Cluster cluster(w, kTpcwOrdering, "MALB-SC", config);
  cluster.Advance(Seconds(60.0));
  MalbBalancer* malb = cluster.malb();
  ASSERT_NE(malb, nullptr);
  for (int tick = 0; tick < 5; ++tick) {
    malb->TickForTest();
    const auto& capacities = malb->capacity_pages();
    const Pages max_capacity = *std::max_element(capacities.begin(), capacities.end());
    const auto& groups = malb->runtime_groups();
    ASSERT_FALSE(groups.empty());
    for (const auto& group : groups) {
      Pages need = 0;
      for (size_t p : group.packed) {
        need = std::max(need, malb->packing().groups[p].estimate_pages);
      }
      if (need > max_capacity) {
        continue;  // a true overflow group: no replica can host it anyway
      }
      for (size_t r : group.replicas) {
        EXPECT_LE(need, capacities[r])
            << "group needing " << need << " pages assigned to replica " << r
            << " with only " << capacities[r];
      }
    }
  }
  // The config really is heterogeneous and the cluster still commits work.
  EXPECT_NE(malb->capacity_pages().front(), malb->capacity_pages().back());
  EXPECT_GT(cluster.Measure(Seconds(60.0)).committed, 0u);
}

TEST(Heterogeneous, MemoryBelowReservationThrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(2);
  config.replica_memory = {512 * kMiB, 64 * kMiB};  // 64 MB < the 70 MB reservation
  EXPECT_THROW(Cluster(w, kTpcwOrdering, "MALB-SC", config), std::invalid_argument);
}

TEST(Heterogeneous, ReplicaMemorySizeMismatchThrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(4);
  config.replica_memory = {512 * kMiB, 512 * kMiB};  // 2 entries, 4 replicas
  EXPECT_THROW(Cluster(w, kTpcwOrdering, "LeastConnections", config),
               std::invalid_argument);
}

// --- elastic verbs -----------------------------------------------------------

TEST(Elastic, AddedReplicaReplaysLogThenServes) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, "MALB-SC", Config(4));
  cluster.Advance(Seconds(120.0));
  const size_t index = cluster.AddReplica();
  EXPECT_EQ(index, 4u);
  ASSERT_EQ(cluster.replicas().size(), 5u);
  // Joins via recovery: installs a checkpoint image (or replays the log when
  // the image would not help) before serving.
  EXPECT_EQ(cluster.proxies()[index]->lifecycle(), ReplicaLifecycle::kRecovering);
  cluster.Advance(Seconds(120.0));
  EXPECT_TRUE(cluster.proxies()[index]->available());
  // MALB adopted it into a group (all five replicas allocated).
  MalbBalancer* malb = cluster.malb();
  ASSERT_NE(malb, nullptr);
  int allocated = 0;
  for (int count : malb->GroupReplicaCounts()) {
    allocated += count;
  }
  EXPECT_EQ(allocated, 5);
  // It actually serves traffic.
  cluster.Measure(Seconds(120.0));
  EXPECT_GT(cluster.proxies()[index]->stats().committed +
                cluster.proxies()[index]->stats().read_only,
            0u);
}

TEST(Elastic, ResizeMemoryShrinksAndGrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config(2));
  cluster.Advance(Seconds(120.0));
  const Pages warm = cluster.replicas()[0]->pool().used_pages();
  ASSERT_GT(warm, 0);

  cluster.ResizeMemory(0, 128 * kMiB);
  const Pages shrunk_capacity = cluster.replicas()[0]->pool().capacity_pages();
  EXPECT_EQ(shrunk_capacity, BytesToPages(128 * kMiB - 70 * kMiB));
  EXPECT_LE(cluster.replicas()[0]->pool().used_pages(), shrunk_capacity);
  EXPECT_EQ(cluster.replicas()[0]->config().memory, 128 * kMiB);

  cluster.ResizeMemory(0, 1024 * kMiB);
  EXPECT_EQ(cluster.replicas()[0]->pool().capacity_pages(),
            BytesToPages(1024 * kMiB - 70 * kMiB));

  EXPECT_THROW(cluster.ResizeMemory(0, 32 * kMiB), std::invalid_argument);
}

// --- scenario wiring ---------------------------------------------------------

TEST(ChurnScenario, ScheduledVerbsFireInsideWindowsAndAreLogged) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(3);
  const ScenarioResult r = ScenarioBuilder()
                               .Warmup(Seconds(60.0))
                               .KillReplicaAt(Seconds(30.0), 1)
                               .RecoverReplicaAt(Seconds(90.0), 1)
                               .Measure(Seconds(180.0), "churn")
                               .AddReplica()
                               .ResizeMemory(0, 1024 * kMiB)
                               .Measure(Seconds(60.0), "after")
                               .Run(w, kTpcwOrdering, "LeastConnections", config);

  ASSERT_EQ(r.mutations.size(), 4u);
  EXPECT_EQ(r.mutations[0].m.verb, Verb::kKillReplica);
  EXPECT_EQ(r.mutations[1].m.verb, Verb::kRecoverReplica);
  EXPECT_EQ(r.mutations[2].m.verb, Verb::kAddReplica);
  EXPECT_EQ(r.mutations[2].m.target, 3u);  // the index the new replica received
  EXPECT_EQ(r.mutations[3].m.verb, Verb::kResizeMemory);
  EXPECT_EQ(r.mutations[3].m.memory, 1024 * kMiB);
  // The scheduled verbs fired inside the measure window: 60s warmup + 30s /
  // 90s offsets.
  EXPECT_EQ(r.mutations[0].at, Seconds(90.0));
  EXPECT_EQ(r.mutations[1].at, Seconds(150.0));

  const ExperimentResult& churn = r.ByLabel("churn");
  EXPECT_EQ(churn.recoveries, 1u);
  EXPECT_LE(churn.availability, 1.0);
  EXPECT_GT(churn.availability, 0.5);
}

// The load verbs share the churn verbs' path: a mix switch, a population
// change and an allocation freeze are logged with the kill, in firing order,
// each stamped with the instant it fired.
TEST(ChurnScenario, LoadVerbsAreLoggedInFiringOrder) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ScenarioResult r = ScenarioBuilder()
                               .Warmup(Seconds(30.0))
                               .SwitchMixAt(Seconds(20.0), kTpcwBrowsing)
                               .SetPopulationAt(Seconds(10.0), 6)
                               .KillReplicaAt(Seconds(40.0), 2)
                               .FreezeAllocation()
                               .Measure(Seconds(60.0), "window")
                               .Run(w, kTpcwOrdering, "MALB-SC", Config(3));

  ASSERT_EQ(r.mutations.size(), 4u);
  EXPECT_EQ(r.mutations[0].m.verb, Verb::kFreezeAllocation);
  EXPECT_EQ(r.mutations[0].at, Seconds(30.0));
  EXPECT_EQ(r.mutations[1].m.verb, Verb::kSetPopulation);
  EXPECT_EQ(r.mutations[1].m.target, 6u);
  EXPECT_EQ(r.mutations[1].at, Seconds(40.0));
  EXPECT_EQ(r.mutations[2].m.verb, Verb::kSwitchMix);
  EXPECT_EQ(r.mutations[2].m.mix, kTpcwBrowsing);
  EXPECT_EQ(r.mutations[2].at, Seconds(50.0));
  EXPECT_EQ(r.mutations[3].m.verb, Verb::kKillReplica);
  EXPECT_EQ(r.mutations[3].m.target, 2u);
  EXPECT_EQ(r.mutations[3].at, Seconds(70.0));
  EXPECT_EQ(r.ByLabel("window").clients_modeled, 6u);
}

// A scheduled verb is an event of the cluster's simulator, not of the
// script: one scheduled past the script's end is missing from the script's
// result, fires once the cluster is advanced past its instant, and is logged
// by the cluster then.
TEST(ChurnScenario, VerbScheduledPastTheScriptFiresOnLaterAdvance) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config(3));
  const ScenarioResult r = ScenarioBuilder()
                               .KillReplicaAt(Seconds(10.0), 0)
                               .KillReplicaAt(Seconds(50.0), 1)
                               .Measure(Seconds(30.0), "short")
                               .RunOn(cluster);
  ASSERT_EQ(r.mutations.size(), 1u);
  EXPECT_EQ(r.mutations[0].m.target, 0u);
  EXPECT_EQ(cluster.proxies()[1]->lifecycle(), ReplicaLifecycle::kUp);

  cluster.Advance(Seconds(30.0));
  EXPECT_EQ(cluster.proxies()[1]->lifecycle(), ReplicaLifecycle::kDown);
  ASSERT_EQ(cluster.mutations().size(), 2u);
  EXPECT_EQ(cluster.mutations()[1].m.verb, Verb::kKillReplica);
  EXPECT_EQ(cluster.mutations()[1].m.target, 1u);
  EXPECT_EQ(cluster.mutations()[1].at, Seconds(50.0));
}

// --- scheduling verbs is allocation-free -------------------------------------

// Cluster::ApplyAfter moves the Mutation into the simulator event's inline
// capture (an InlineCallback, not a std::function): scheduling any of the
// seven cluster verbs performs zero heap allocations. A campaign can script
// hundreds of timeline mutations without perturbing the hot path it is about
// to measure.
TEST(ChurnScheduling, ScheduledVerbsDoNotAllocate) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(3);
  config.proxy.retry.enabled = true;  // CrashCertifier needs guarded proxies
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
  cluster.Advance(Seconds(30.0));

  const Mutation verbs[] = {
      {Verb::kKillReplica, 1},
      {Verb::kRecoverReplica, 1},
      {Verb::kResizeMemory, 0, 512 * kMiB},
      {Verb::kCrashCertifier},
      {Verb::kFailoverCertifier},
      {Verb::kPartitionProxy, 0, 0, Seconds(2.0)},
      {Verb::kAddReplica},
  };
  // Warm round: grow the simulator's event storage past what the guarded
  // round will need, with events that fire long after the checks below.
  for (int i = 0; i < 4; ++i) {
    for (const Mutation& m : verbs) {
      cluster.ApplyAfter(Seconds(1000.0), m);
    }
  }

  // Copy the arguments before the guard: the guard covers ApplyAfter alone.
  std::vector<Mutation> scheduled(std::begin(verbs), std::end(verbs));
  {
    AllocGuard::Forbid forbid;
    for (size_t i = 0; i < scheduled.size(); ++i) {
      cluster.ApplyAfter(Seconds(10.0 * static_cast<double>(i + 1)), std::move(scheduled[i]));
    }
    EXPECT_EQ(forbid.seen(), 0u) << "scheduling a churn verb allocated";
  }

  // The scheduled verbs really fire (allocating freely at execution time —
  // the guard covers scheduling only) and land in the log in timeline order.
  cluster.Advance(Seconds(90.0));
  ASSERT_EQ(cluster.mutations().size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(cluster.mutations()[i].m.verb, verbs[i].verb) << VerbName(verbs[i].verb);
    EXPECT_EQ(cluster.mutations()[i].at, Seconds(40.0 + 10.0 * static_cast<double>(i)))
        << VerbName(verbs[i].verb);
  }
  EXPECT_EQ(cluster.mutations()[5].m.duration, Seconds(2.0));
  EXPECT_EQ(cluster.mutations()[6].m.target, 3u);  // AddReplica's new index
}

// --- campaign determinism ----------------------------------------------------

Campaign ChurnFixture() {
  Campaign campaign;
  campaign.name = "test-churn";
  campaign.title = "churn_test determinism fixture";
  campaign.cells = [] {
    bench::CellOptions opts;
    opts.ram = 256 * kMiB;
    opts.replicas = 3;
    opts.clients = 3;
    const ScenarioBuilder script = ScenarioBuilder()
                                       .Warmup(Seconds(30.0))
                                       .KillReplicaAt(Seconds(20.0), 1)
                                       .RecoverReplicaAt(Seconds(60.0), 1)
                                       .AddReplicaAt(Seconds(90.0))
                                       .Measure(Seconds(150.0), "measure")
                                       .ResizeMemory(0, 512 * kMiB)
                                       .Measure(Seconds(30.0), "resized");
    auto small = [] { return BuildTpcw(kTpcwSmallEbs); };
    return std::vector<CampaignCell>{
        bench::ScenarioCell("lc", small, kTpcwOrdering, "LeastConnections", script, opts),
        bench::ScenarioCell("malb", small, kTpcwOrdering, "MALB-SC", script, opts),
        bench::ScenarioCell("rr", small, kTpcwOrdering, "RoundRobin", script, opts),
    };
  };
  return campaign;
}

TEST(ChurnCampaign, BitIdenticalAcrossJobCounts) {
  CampaignRunOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  CampaignRunOptions parallel = serial;
  parallel.jobs = 4;

  const Campaign campaign = ChurnFixture();
  const CampaignRunRecord a = RunCampaign(campaign, serial);
  const CampaignRunRecord b = RunCampaign(campaign, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE(a.cells[i].id);
    ASSERT_TRUE(a.cells[i].ok) << a.cells[i].error;
    ASSERT_TRUE(b.cells[i].ok) << b.cells[i].error;
    for (const char* label : {"measure", "resized"}) {
      const ExperimentResult& ra = a.cells[i].output.Result(label);
      const ExperimentResult& rb = b.cells[i].output.Result(label);
      EXPECT_EQ(ra.committed, rb.committed);
      EXPECT_EQ(ra.aborted, rb.aborted);
      EXPECT_EQ(ra.rejected, rb.rejected);
      EXPECT_EQ(ra.replay_applied, rb.replay_applied);
      EXPECT_EQ(ra.replay_filtered, rb.replay_filtered);
      EXPECT_EQ(ra.tps, rb.tps);                    // bit-identical doubles
      EXPECT_EQ(ra.availability, rb.availability);
      EXPECT_EQ(ra.recovery_lag_s, rb.recovery_lag_s);
    }
  }
}

}  // namespace
}  // namespace tashkent
