// ScenarioBuilder: scripted phases are equivalent to the raw Cluster hooks,
// JsonSink output round-trips its values, and the metric table drives both
// the run record and FirstDifference.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cluster/scenario.h"
#include "src/cluster/sink.h"
#include "src/common/json.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

ClusterConfig TestConfig(uint64_t seed = 42) {
  ClusterConfig c;
  c.replicas = 4;
  c.replica.memory = 512 * kMiB;
  c.clients_per_replica = 3;
  c.seed = seed;
  return c;
}

TEST(Scenario, ScriptedCrashRestartMatchesRawHooks) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);

  // Scripted: warmup, crash replica 1, ride the transient, restart it,
  // measure.
  const ScenarioResult scripted = ScenarioBuilder()
                                      .Warmup(Seconds(30.0))
                                      .KillReplica(1)
                                      .Advance(Seconds(30.0))
                                      .RecoverReplica(1)
                                      .Advance(Seconds(15.0))
                                      .Measure(Seconds(30.0), "after-restart")
                                      .Run(w, kTpcwShopping, "LeastConnections", TestConfig());

  // The same sequence issued through raw Cluster hooks with the same seed.
  Cluster raw(w, kTpcwShopping, "LeastConnections", TestConfig());
  raw.Advance(Seconds(30.0));
  raw.KillReplica(1);
  raw.Advance(Seconds(30.0));
  raw.RecoverReplica(1);
  raw.Advance(Seconds(15.0));
  const ExperimentResult raw_result = raw.Measure(Seconds(30.0));

  const ExperimentResult& scripted_result = scripted.ByLabel("after-restart");
  EXPECT_EQ(scripted_result.committed, raw_result.committed);
  EXPECT_EQ(scripted_result.aborted, raw_result.aborted);
  EXPECT_DOUBLE_EQ(scripted_result.tps, raw_result.tps);
  EXPECT_DOUBLE_EQ(scripted_result.mean_response_s, raw_result.mean_response_s);
}

TEST(Scenario, MeasurePhasesAreLabeledAndTimelineSpansRun) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ScenarioResult r = ScenarioBuilder()
                               .Warmup(Seconds(30.0))
                               .Measure(Seconds(60.0), "first")
                               .SwitchMix(kTpcwBrowsing)
                               .Advance(Seconds(30.0))
                               .Measure(Seconds(60.0), "second")
                               .Run(w, kTpcwShopping, "LeastConnections", TestConfig());
  ASSERT_EQ(r.measures.size(), 2u);
  EXPECT_EQ(r.measures[0].label, "first");
  EXPECT_EQ(r.measures[1].label, "second");
  EXPECT_DOUBLE_EQ(ToSeconds(r.measures[0].start), 30.0);
  EXPECT_DOUBLE_EQ(ToSeconds(r.measures[1].start), 120.0);
  EXPECT_DOUBLE_EQ(ToSeconds(r.total), 180.0);
  EXPECT_GT(r.ByLabel("first").committed, 0u);
  EXPECT_GT(r.ByLabel("second").committed, 0u);
  EXPECT_THROW(r.ByLabel("nonexistent"), std::invalid_argument);
  // 180 s of run at 30 s buckets: roughly 6 buckets recorded.
  EXPECT_GE(r.timeline.size(), 5u);
  EXPECT_LE(r.timeline.size(), 7u);
  // PhaseMeanTps over the whole run is positive and bounded by the busiest
  // bucket.
  EXPECT_GT(r.PhaseMeanTps(0.0, 180.0), 0.0);
}

TEST(Scenario, JsonSinkRoundTripsNumericFields) {
  RunRecord rec;
  rec.label = "row \"quoted\"\n\x01";  // exercises escaping
  rec.policy = "MALB-SC";
  rec.workload = "TPC-W";
  rec.mix = "ordering";
  rec.paper_tps = 76.0;
  rec.result.tps = 73.4567891234567;
  rec.result.mean_response_s = 0.8123456789012345;
  rec.result.p95_response_s = 2.345678901234567;
  rec.result.committed = 17654;
  rec.result.aborted = 321;
  rec.result.read_kb_per_txn = 19.87654321098765;
  rec.result.write_kb_per_txn = 12.34567890123456;
  rec.result.arena_bytes_hwm = (uint64_t{1} << 53) - 1;  // largest exact integer
  rec.result.fluid = true;
  GroupReport g;
  g.types = {"BestSeller"};
  g.replicas = 2;
  rec.result.groups.push_back(g);

  const std::string path = "scenario_test_sink.json";
  JsonSink sink(path);
  sink.Begin("unit", "round-trip check");
  sink.AddRun(rec);
  sink.AddRatio("uf/malb", 1.4868421052631579, 1.476543210987654);
  sink.AddScalar("speedup", 25.123456789012345);
  sink.Finish();

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::remove(path.c_str());
  const json::Value doc = json::Value::Parse(buffer.str());

  // Every value parses back to exactly what was stored (==, not near).
  const json::Value& run = doc.At("runs").Items().at(0);
  EXPECT_EQ(run.At("label").AsString(), rec.label);
  EXPECT_EQ(run.At("policy").AsString(), rec.policy);
  EXPECT_EQ(run.At("paper_tps").AsNumber(), 76.0);
  EXPECT_EQ(run.At("tps").AsNumber(), rec.result.tps);
  EXPECT_EQ(run.At("mean_response_s").AsNumber(), rec.result.mean_response_s);
  EXPECT_EQ(run.At("p95_response_s").AsNumber(), rec.result.p95_response_s);
  EXPECT_EQ(run.At("read_kb_per_txn").AsNumber(), rec.result.read_kb_per_txn);
  EXPECT_EQ(run.At("write_kb_per_txn").AsNumber(), rec.result.write_kb_per_txn);
  EXPECT_EQ(run.At("committed").AsNumber(), 17654.0);
  EXPECT_EQ(run.At("aborted").AsNumber(), 321.0);
  EXPECT_EQ(run.At("arena_bytes_hwm").AsNumber(),
            static_cast<double>(rec.result.arena_bytes_hwm));
  EXPECT_EQ(run.At("availability").AsNumber(), 1.0);
  EXPECT_TRUE(run.At("fluid").AsBool());
  const json::Value& group = run.At("groups").Items().at(0);
  EXPECT_EQ(group.At("replicas").AsNumber(), 2.0);
  EXPECT_EQ(group.At("types").Items().at(0).AsString(), "BestSeller");
  const json::Value& ratio = doc.At("ratios").Items().at(0);
  EXPECT_EQ(ratio.At("paper").AsNumber(), 1.4868421052631579);
  EXPECT_EQ(ratio.At("measured").AsNumber(), 1.476543210987654);
  EXPECT_EQ(doc.At("scalars").At("speedup").AsNumber(), 25.123456789012345);
}

// --- the metric table (ForEachMetric in src/cluster/cluster.h) ---------------

// Perturbing any one table metric on a copy is reported under that metric's
// name: every row compares its own member.
TEST(Metrics, FirstDifferenceNamesEveryTableField) {
  const ExperimentResult base;
  EXPECT_EQ(FirstDifference(base, base), "");
  size_t rows = 0;
  ForEachMetric([&](const char* name, unsigned /*report*/, auto member) {
    ExperimentResult copy = base;
    auto& field = copy.*member;
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
      field = !field;
    } else {
      field += 1;
    }
    EXPECT_EQ(FirstDifference(base, copy), name);
    EXPECT_EQ(FirstDifference(copy, base), name);
    ++rows;
  });
  EXPECT_GT(rows, 0u);
}

TEST(Metrics, FirstDifferenceNamesGroups) {
  ExperimentResult a;
  a.groups.push_back({{"BestSeller", "Search"}, 2});
  ExperimentResult b = a;
  EXPECT_EQ(FirstDifference(a, b), "");
  b.groups[0].replicas = 3;
  EXPECT_EQ(FirstDifference(a, b), "groups");
  b = a;
  b.groups[0].types.pop_back();
  EXPECT_EQ(FirstDifference(a, b), "groups");
  b = a;
  b.groups.push_back(a.groups[0]);
  EXPECT_EQ(FirstDifference(a, b), "groups");
}

// A run record carries the identity keys, then exactly the table's
// run-record metrics in table order, then "groups".
TEST(Metrics, RunRecordKeysFollowTheTable) {
  std::vector<std::string> expected = {"label",     "policy",         "workload",     "mix",
                                       "paper_tps", "paper_write_kb", "paper_read_kb"};
  ForEachMetric([&](const char* name, unsigned report, auto /*member*/) {
    if ((report & kReportRunRecord) != 0) {
      expected.push_back(name);
    }
  });
  expected.push_back("groups");

  JsonSink sink("scenario_test_keys.json");
  sink.AddRun(RunRecord{});
  const json::Value doc = json::Value::Parse(sink.Render());
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.At("runs").Items().at(0).Members()) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, expected);
  sink.Finish();
  std::remove("scenario_test_keys.json");
}

}  // namespace
}  // namespace tashkent
