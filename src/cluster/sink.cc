#include "src/cluster/sink.h"

#include <cstdio>
#include <fstream>

#include "src/cluster/report.h"

namespace tashkent {

// --- ConsoleSink -------------------------------------------------------------

void ConsoleSink::Begin(const std::string& bench, const std::string& setup) {
  PrintHeader(bench, setup);
}

void ConsoleSink::AddRun(const RunRecord& record) {
  PrintTpsRow(record.label, record.paper_tps, record.result.tps,
              record.result.mean_response_s);
  if (record.paper_write_kb > 0.0 || record.paper_read_kb > 0.0) {
    PrintIoRow(record.label, record.paper_write_kb, record.paper_read_kb,
               record.result.write_kb_per_txn, record.result.read_kb_per_txn);
  }
  if (record.result.rejected > 0 || record.result.recoveries > 0) {
    PrintAvailabilityRow(record.label, record.result.availability,
                         record.result.recovery_lag_s, record.result.replay_applied,
                         record.result.replay_filtered);
  }
}

void ConsoleSink::AddRatio(const std::string& label, double paper, double measured) {
  PrintRatio(label, paper, measured);
}

void ConsoleSink::AddScalar(const std::string& key, double value) {
  std::printf("   %-40s %10.2f\n", key.c_str(), value);
}

void ConsoleSink::AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
  std::printf("\n%s:\n", label.c_str());
  PrintGroups(groups);
}

void ConsoleSink::AddTimeline(const std::string& label, const std::vector<double>& buckets,
                              SimDuration bucket_width) {
  const double width_s = ToSeconds(bucket_width);
  std::printf("\n%s (%.0f s buckets, tps):\n", label.c_str(), width_s);
  for (size_t i = 0; i < buckets.size(); i += 4) {
    std::printf("  t=%5.0fs  %6.1f tps\n", static_cast<double>(i) * width_s,
                buckets[i] / width_s);
  }
}

void ConsoleSink::Note(const std::string& text) { std::printf("%s\n", text.c_str()); }

// --- JsonSink ----------------------------------------------------------------

namespace {

json::Value GroupsJson(const std::vector<GroupReport>& groups) {
  json::Value out = json::Value::Array();
  for (const GroupReport& group : groups) {
    json::Value types = json::Value::Array();
    for (const std::string& type : group.types) {
      types.Append(type);
    }
    json::Value g = json::Value::Object();
    g.Set("replicas", group.replicas);
    g.Set("types", std::move(types));
    out.Append(std::move(g));
  }
  return out;
}

template <typename T>
json::Value MetricJson(T value) {
  return static_cast<double>(value);
}
json::Value MetricJson(bool value) { return value; }

json::Value RunJson(const RunRecord& record) {
  json::Value run = json::Value::Object();
  run.Set("label", record.label);
  run.Set("policy", record.policy);
  run.Set("workload", record.workload);
  run.Set("mix", record.mix);
  run.Set("paper_tps", record.paper_tps);
  run.Set("paper_write_kb", record.paper_write_kb);
  run.Set("paper_read_kb", record.paper_read_kb);
  ForEachMetric([&](const char* name, unsigned report, auto member) {
    if ((report & kReportRunRecord) != 0) {
      run.Set(name, MetricJson(record.result.*member));
    }
  });
  run.Set("groups", GroupsJson(record.result.groups));
  return run;
}

}  // namespace

void JsonSink::Begin(const std::string& bench, const std::string& setup) {
  bench_ = bench;
  setup_ = setup;
}

void JsonSink::AddRun(const RunRecord& record) { runs_.Append(RunJson(record)); }

void JsonSink::AddRatio(const std::string& label, double paper, double measured) {
  json::Value ratio = json::Value::Object();
  ratio.Set("label", label);
  ratio.Set("paper", paper);
  ratio.Set("measured", measured);
  ratios_.Append(std::move(ratio));
}

void JsonSink::AddScalar(const std::string& key, double value) { scalars_.Set(key, value); }

void JsonSink::AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
  json::Value grouping = json::Value::Object();
  grouping.Set("label", label);
  grouping.Set("groups", GroupsJson(groups));
  groupings_.Append(std::move(grouping));
}

void JsonSink::AddTimeline(const std::string& label, const std::vector<double>& buckets,
                           SimDuration bucket_width) {
  json::Value timeline = json::Value::Object();
  timeline.Set("label", label);
  timeline.Set("bucket_s", ToSeconds(bucket_width));
  json::Value values = json::Value::Array();
  for (double bucket : buckets) {
    values.Append(bucket);
  }
  timeline.Set("buckets", std::move(values));
  timelines_.Append(std::move(timeline));
}

void JsonSink::Note(const std::string& text) { notes_.Append(text); }

std::string JsonSink::Render() const {
  json::Value doc = json::Value::Object();
  doc.Set("bench", bench_);
  doc.Set("setup", setup_);
  doc.Set("runs", runs_);
  doc.Set("ratios", ratios_);
  doc.Set("scalars", scalars_);
  doc.Set("groupings", groupings_);
  doc.Set("timelines", timelines_);
  doc.Set("notes", notes_);
  if (cells_.is_array()) {
    // Host-side timing block, last so every deterministic key precedes it
    // (see the schema note in sink.h).
    doc.Set("cells", cells_);
  }
  return doc.Dump(2);
}

void JsonSink::Finish() {
  if (written_) {
    return;
  }
  written_ = true;
  std::ofstream file(path_);
  file << Render();
  file.flush();
  write_ok_ = static_cast<bool>(file);
  if (!write_ok_) {
    std::fprintf(stderr, "JsonSink: failed to write %s\n", path_.c_str());
  }
}

// --- SinkList ----------------------------------------------------------------

void SinkList::Begin(const std::string& bench, const std::string& setup) {
  for (auto& s : sinks_) {
    s->Begin(bench, setup);
  }
}

void SinkList::AddRun(const RunRecord& record) {
  for (auto& s : sinks_) {
    s->AddRun(record);
  }
}

void SinkList::AddRatio(const std::string& label, double paper, double measured) {
  for (auto& s : sinks_) {
    s->AddRatio(label, paper, measured);
  }
}

void SinkList::AddScalar(const std::string& key, double value) {
  for (auto& s : sinks_) {
    s->AddScalar(key, value);
  }
}

void SinkList::AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
  for (auto& s : sinks_) {
    s->AddGroups(label, groups);
  }
}

void SinkList::AddTimeline(const std::string& label, const std::vector<double>& buckets,
                           SimDuration bucket_width) {
  for (auto& s : sinks_) {
    s->AddTimeline(label, buckets, bucket_width);
  }
}

void SinkList::Note(const std::string& text) {
  for (auto& s : sinks_) {
    s->Note(text);
  }
}

void SinkList::Finish() {
  for (auto& s : sinks_) {
    s->Finish();
  }
}

}  // namespace tashkent
