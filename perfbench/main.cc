// Host-performance benchmark of the Tashkent+ simulator.
//
//   perfbench --workload <scan-evict|cache-fit|write-churn> --seed N
//             --seconds S --trace 0|1 [--trace-file PATH]
//
// A run replays one deterministic timed phase several times. Each replay
// builds the workload, constructs a Cluster and warms it up (set-up), then
// runs the timed phase: equal simulated slices through Cluster::Measure, each
// checked by the correctness gate. Every replay does the same simulated work
// (the digest must repeat), so each slice's host time is taken as the best
// of its replays: shared hosts alternate between fast and contended phases
// lasting seconds or longer, and the best of many short replays spread over
// the run filters out the phases shorter than the run. --trace 0 prints the
// end-to-end metrics. --trace 1 also drives each layer standalone, one round
// after each replay, then adds one replay with spans recorded around every
// call, and prints the per-layer metrics. The last line of stdout is one
// JSON object. The exit code is non-zero when a slice fails the gate, two
// replays disagree or the standalone drives over-attribute.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/workload/tpcw.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value, &end, 10);
    const bool numeric = end != value && *end == '\0';
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--trace-file") {
      opt->trace_file = value;
    } else if (!numeric) {
      return false;
    } else if (key == "--seed") {
      opt->seed = n;
    } else if (key == "--seconds" && n >= 1 && n <= 600) {
      opt->seconds = static_cast<int>(n);
    } else if (key == "--trace" && n <= 1) {
      opt->trace = n == 1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(opt->workload) != nullptr;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// --- Spans -----------------------------------------------------------------

// In-memory spans of the traced run, written out when the benchmark ends.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int Begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes span `id` and returns its duration in seconds.
  double End(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_s = Now();
    return s.end_s - s.start_s;
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_s\": %.9f, "
                      "\"end_s\": %.9f}%s\n",
                   i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  double Now() const { return SecondsSince(epoch_); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Times one call: through the tracer when tracing, by clock otherwise.
template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, int parent, Fn&& fn) {
  if (tracer != nullptr) {
    const int id = tracer->Begin(name, parent);
    fn();
    return tracer->End(id);
  }
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

// --- Set-up ----------------------------------------------------------------

struct Instance {
  std::unique_ptr<tashkent::Workload> workload;
  std::unique_ptr<tashkent::Cluster> cluster;  // destroyed before workload
  double build_s = 0.0;
  double ctor_s = 0.0;
  double warmup_s = 0.0;
};

void SetUp(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer, Instance* in) {
  in->cluster.reset();
  in->workload.reset();
  const int parent = tracer != nullptr ? tracer->Begin("setup", -1) : -1;
  in->build_s = Timed(tracer, "workload.build", parent, [&] {
    in->workload = std::make_unique<tashkent::Workload>(tashkent::BuildTpcw(spec.ebs));
  });
  in->ctor_s = Timed(tracer, "cluster.ctor", parent, [&] {
    in->cluster = std::make_unique<tashkent::Cluster>(*in->workload, spec.mix, spec.policy,
                                                      MakeConfig(spec, seed));
  });
  in->warmup_s = Timed(tracer, "cluster.warmup", parent, [&] {
    in->cluster->Advance(tashkent::Seconds(kWarmupSimSeconds));
  });
  if (tracer != nullptr) {
    tracer->End(parent);
  }
}

// --- Correctness gate ------------------------------------------------------

// Empty when every invariant holds after a slice.
std::string CheckSlice(const tashkent::Cluster& cluster, const tashkent::ExperimentResult& r) {
  uint64_t acked = 0;
  uint64_t in_flight = 0;
  for (const auto& proxy : cluster.proxies()) {
    acked += proxy->lifetime_update_commits();
    in_flight += static_cast<uint64_t>(proxy->max_in_flight());
  }
  const uint64_t certified = cluster.certifier().certified_count();
  if (acked > certified) {
    return std::to_string(acked) + " update commits acknowledged but " +
           std::to_string(certified) + " certified";
  }
  if (certified > acked + in_flight) {
    return std::to_string(certified - acked) + " certified commits never acknowledged (bound " +
           std::to_string(in_flight) + ")";
  }
  const tashkent::Version head = cluster.certifier().head_version();
  for (const auto& proxy : cluster.proxies()) {
    if (proxy->applied_version() > head) {
      return "replica " + std::to_string(proxy->replica_id()) + " applied version " +
             std::to_string(proxy->applied_version()) + " beyond log head " +
             std::to_string(head);
    }
  }
  for (const auto& replica : cluster.replicas()) {
    if (replica->pool().used_pages() > replica->pool().capacity_pages()) {
      return "replica " + std::to_string(replica->id()) + " pool holds " +
             std::to_string(replica->pool().used_pages()) + " pages over capacity " +
             std::to_string(replica->pool().capacity_pages());
    }
  }
  if (r.committed == 0) {
    return "the slice committed no transaction";
  }
  return "";
}

// --- Timed phase -----------------------------------------------------------

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct PoolTotals {
  uint64_t hits = 0, misses = 0, evicted = 0, dirtied = 0, flushed = 0;
};

PoolTotals SumPools(const tashkent::Cluster& cluster) {
  PoolTotals t;
  for (const auto& replica : cluster.replicas()) {
    const tashkent::BufferPoolStats& s = replica->pool().stats();
    t.hits += s.hits;
    t.misses += s.misses;
    t.evicted += s.evicted_pages;
    t.dirtied += s.dirtied_pages;
    t.flushed += s.flushed_pages;
  }
  return t;
}

struct Phase {
  std::vector<double> slice_s;  // host seconds per slice
  std::vector<uint64_t> slice_committed;
  double wall_s = 0.0;
  size_t failed = 0;
  std::string first_failure;
  uint64_t digest = 0;
  Observed obs;
  // Model outputs.
  uint64_t aborted = 0;
  uint64_t rejected = 0;
  double read_kb = 0.0;   // summed over slices, weighted by commits
  double write_kb = 0.0;
  std::vector<double> slice_p95;
  // Layer counts over the phase.
  PoolTotals pool;
  uint64_t applied = 0, filtered = 0, mask_skipped = 0, cert_retries = 0;
  uint64_t replay_applied = 0, recoveries = 0, dedup_hits = 0, realloc_moves = 0;
  uint64_t log_chunks_hwm = 0, arena_bytes_hwm = 0, max_slice_samples = 0;
  std::vector<std::pair<Verb, double>> verb_s;
};

Phase RunPhase(tashkent::Cluster& cluster, const WorkloadSpec& spec, size_t slices,
               Tracer* tracer) {
  Phase p;
  const tashkent::Certifier& cert = cluster.certifier();
  const PoolTotals pool0 = SumPools(cluster);
  const uint64_t events0 = cluster.sim().executed_events();
  const uint64_t calls0 = cert.certified_count() + cert.aborted_count() + cert.dedup_hits();
  const uint64_t dedup0 = cert.dedup_hits();
  Digest digest;
  double lag_sum = 0.0;
  double pending_sum = 0.0;
  size_t lag_n = 0;

  const int phase_span = tracer != nullptr ? tracer->Begin("timed-phase", -1) : -1;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < slices; ++i) {
    for (const ChurnStep& step : ChurnVerbs(spec, i)) {
      auto apply = [&cluster, &p, tracer, phase_span, step] {
        const double s = Timed(tracer, std::string("verb.") + VerbName(step.verb), phase_span,
                               [&] { ApplyVerb(cluster, step); });
        p.verb_s.emplace_back(step.verb, s);
      };
      if (step.delay > 0) {
        cluster.sim().ScheduleAfter(step.delay, apply);
      } else {
        apply();
      }
    }
    tashkent::ExperimentResult r;
    p.slice_s.push_back(
        Timed(tracer, "slice", phase_span, [&] { r = cluster.Measure(spec.slice); }));
    p.slice_committed.push_back(r.committed);

    const std::string failure = CheckSlice(cluster, r);
    if (!failure.empty() && p.failed++ == 0) {
      p.first_failure = "slice " + std::to_string(i) + ": " + failure;
    }

    p.obs.committed += r.committed;
    p.obs.attempts += r.committed + r.aborted;
    p.aborted += r.aborted;
    p.rejected += r.rejected;
    p.read_kb += r.read_kb_per_txn * static_cast<double>(r.committed);
    p.write_kb += r.write_kb_per_txn * static_cast<double>(r.committed);
    p.slice_p95.push_back(r.p95_response_s);
    p.realloc_moves += r.realloc_moves;
    p.recoveries += r.recoveries;
    p.replay_applied += r.replay_applied;
    p.log_chunks_hwm = std::max(p.log_chunks_hwm, r.log_chunks_hwm);
    p.arena_bytes_hwm = std::max(p.arena_bytes_hwm, r.arena_bytes_hwm);
    p.max_slice_samples = std::max(p.max_slice_samples, r.committed);
    // Proxy and replica stats are window-scoped: read them before the next
    // Measure resets them.
    for (const auto& proxy : cluster.proxies()) {
      const tashkent::ProxyStats& s = proxy->stats();
      p.applied += s.writesets_applied;
      p.filtered += s.writesets_filtered;
      p.mask_skipped += s.mask_skipped;
      p.cert_retries += s.cert_retries;
      p.obs.pulls += s.pulls;
      if (proxy->available()) {
        lag_sum += static_cast<double>(cert.head_version() - proxy->applied_version());
        ++lag_n;
      }
    }
    for (const auto& replica : cluster.replicas()) {
      p.obs.txns_executed += replica->stats().txns_executed;
      p.obs.writesets_applied += replica->stats().writesets_applied;
    }
    pending_sum += static_cast<double>(cluster.sim().pending_events());

    for (uint64_t v : {r.committed, r.aborted, r.rejected, r.recoveries, r.replay_applied,
                       r.realloc_moves, r.executed_events, cert.head_version()}) {
      digest.Add(v);
    }
    for (double v : {r.p95_response_s, r.read_kb_per_txn, r.write_kb_per_txn}) {
      digest.Add(v);
    }
  }
  p.wall_s = SecondsSince(start);
  if (tracer != nullptr) {
    tracer->End(phase_span);
  }

  const PoolTotals pool1 = SumPools(cluster);
  p.pool = {pool1.hits - pool0.hits, pool1.misses - pool0.misses, pool1.evicted - pool0.evicted,
            pool1.dirtied - pool0.dirtied, pool1.flushed - pool0.flushed};
  p.dedup_hits = cert.dedup_hits() - dedup0;
  p.obs.certify_calls = cert.certified_count() + cert.aborted_count() + cert.dedup_hits() - calls0;
  p.obs.events = cluster.sim().executed_events() - events0;
  p.obs.sim_seconds = tashkent::ToSeconds(spec.slice) * static_cast<double>(slices);
  p.obs.mean_lag = lag_n > 0 ? lag_sum / static_cast<double>(lag_n) : 0.0;
  p.obs.mean_pending = pending_sum / static_cast<double>(slices);
  p.digest = digest.value();
  return p;
}

// Each slice's best host time over the replays, and its cost per committed
// transaction. Replays do identical simulated work, slice by slice.
struct BestOf {
  std::vector<double> slice_s;
  std::vector<double> us_per_txn;
  double total_s = 0.0;

  explicit BestOf(const std::vector<Phase>& replays) : slice_s(replays.front().slice_s) {
    for (const Phase& r : replays) {
      for (size_t i = 0; i < slice_s.size(); ++i) {
        slice_s[i] = std::min(slice_s[i], r.slice_s[i]);
      }
    }
    for (size_t i = 0; i < slice_s.size(); ++i) {
      total_s += slice_s[i];
      us_per_txn.push_back(slice_s[i] * 1e6 /
                           static_cast<double>(replays.front().slice_committed[i]));
    }
  }
};

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PerTxn(uint64_t count, const Phase& p) {
  return static_cast<double>(count) / static_cast<double>(std::max<uint64_t>(p.obs.committed, 1));
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEnd(const Phase& p, const BestOf& best,
                             const std::vector<double>& setup_s, double peak_rss_mb) {
  return {
      {"sim_txn_per_host_s", static_cast<double>(p.obs.committed) / best.total_s, "txn/s"},
      {"slice_us_per_txn_p50", Quantile(best.us_per_txn, 0.5), "us"},
      {"slice_us_per_txn_p90", Quantile(best.us_per_txn, 0.9), "us"},
      {"setup_s", Min(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

// The median wall time of the untraced replays' timed phases.
double UntracedWall(const std::vector<Phase>& replays) {
  std::vector<double> wall;
  for (const Phase& r : replays) {
    wall.push_back(r.wall_s);
  }
  return Quantile(wall, 0.5);
}

struct SetupSamples {
  std::vector<double> total_s, build_s, ctor_s, warmup_s;
  void Add(const Instance& in) {
    total_s.push_back(in.build_s + in.ctor_s + in.warmup_s);
    build_s.push_back(in.build_s);
    ctor_s.push_back(in.ctor_s);
    warmup_s.push_back(in.warmup_s);
  }
};

std::vector<Metric> PerLayer(const std::vector<Phase>& replays, const BestOf& best,
                             const Phase& traced, const SetupSamples& setup,
                             const LayerCosts& c) {
  const Phase& p = replays.front();  // counts come from an untraced replay
  const double ns_per_txn = best.total_s * 1e9 / static_cast<double>(p.obs.committed);
  const double storage = c.storage_ns_per_txn / ns_per_txn;
  const double certifier = c.certifier_ns_per_txn / ns_per_txn;
  const double sim = c.sim_ns_per_txn / ns_per_txn;
  const double balancer = c.balancer_ns_per_txn / ns_per_txn;
  double verb_s = 0.0;
  for (const auto& v : traced.verb_s) {
    verb_s += v.second;
  }
  const double sim_s = p.obs.sim_seconds;
  return {
      {"sim.events_per_txn", PerTxn(p.obs.events, p), "count"},
      {"sim.event_ns", c.event_ns, "ns"},
      {"sim.share", sim, "frac"},
      {"storage.evicted_pages_per_txn", PerTxn(p.pool.evicted, p), "pages"},
      {"storage.touch_scan_ns", c.touch_scan_ns, "ns"},
      {"storage.hit_ratio", Ratio(p.pool.hits, p.pool.hits + p.pool.misses), "frac"},
      {"storage.touch_random_ns", c.touch_random_ns, "ns"},
      {"storage.dirtied_pages_per_txn", PerTxn(p.pool.dirtied, p), "pages"},
      {"storage.flushed_pages_per_txn", PerTxn(p.pool.flushed, p), "pages"},
      {"storage.dirty_random_ns", c.dirty_random_ns, "ns"},
      {"storage.take_dirty_ns", c.take_dirty_ns, "ns"},
      {"storage.drop_relation_us", c.drop_relation_us, "us"},
      {"storage.ctor_us", c.ctor_us, "us"},
      {"storage.share", storage, "frac"},
      {"proxy.applied_per_txn", PerTxn(p.applied, p), "count"},
      {"proxy.filtered_ratio", Ratio(p.filtered, p.applied + p.filtered), "frac"},
      {"proxy.mask_skipped_per_txn", PerTxn(p.mask_skipped, p), "count"},
      {"proxy.cert_retries_per_txn", PerTxn(p.cert_retries, p), "count"},
      {"proxy.replay_applied_per_recovery", Ratio(p.replay_applied, p.recoveries), "count"},
      {"certifier.certify_ns", c.certify_ns, "ns"},
      {"certifier.pull_ns", c.pull_ns, "ns"},
      {"certifier.dedup_hits_per_txn", PerTxn(p.dedup_hits, p), "count"},
      {"certifier.log_chunks_hwm", static_cast<double>(p.log_chunks_hwm), "count"},
      {"certifier.arena_kb_hwm", static_cast<double>(p.arena_bytes_hwm) / 1024.0, "KiB"},
      {"certifier.share", certifier, "frac"},
      {"balancer.route_ns", c.route_ns, "ns"},
      {"balancer.realloc_moves", static_cast<double>(p.realloc_moves), "count"},
      {"balancer.share", balancer, "frac"},
      {"workload.build_ms", Min(setup.build_s) * 1e3, "ms"},
      {"cluster.ctor_ms", Min(setup.ctor_s) * 1e3, "ms"},
      {"cluster.warmup_s", Min(setup.warmup_s), "s"},
      {"cluster.response_samples", static_cast<double>(p.max_slice_samples), "count"},
      {"cluster.verb_ms",
       traced.verb_s.empty() ? 0.0 : verb_s * 1e3 / static_cast<double>(traced.verb_s.size()),
       "ms"},
      {"cluster.sim_tps", static_cast<double>(p.obs.committed) / sim_s, "txn/s"},
      {"cluster.p95_response_s", Quantile(p.slice_p95, 0.5), "s"},
      {"cluster.read_kb_per_txn", p.read_kb / static_cast<double>(p.obs.committed), "KiB"},
      {"cluster.write_kb_per_txn", p.write_kb / static_cast<double>(p.obs.committed), "KiB"},
      {"cluster.abort_ratio", Ratio(p.aborted, p.obs.attempts), "frac"},
      {"cluster.availability", 1.0 - Ratio(p.rejected, p.obs.attempts), "frac"},
      {"trace.overhead_frac", traced.wall_s / UntracedWall(replays) - 1.0, "frac"},
      {"trace.unattributed_frac", 1.0 - storage - certifier - sim - balancer, "frac"},
  };
}

void PrintResult(bool correct, size_t attempted, size_t failed, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *FindWorkload(opt.workload);
  const size_t slices = kSlicesPerPhase;
  const size_t replays =
      std::max(kMinReplays, static_cast<size_t>(opt.seconds) * spec.slices_per_host_second / slices);

  // Set-up is deterministic too: every replay's set-up is one sample.
  SetupSamples setup;
  std::vector<Phase> runs;
  Instance inst;
  double peak_rss_mb = 0.0;
  std::unique_ptr<LayerDrives> drives;
  for (size_t rep = 0; rep < replays; ++rep) {
    SetUp(spec, opt.seed, nullptr, &inst);
    setup.Add(inst);
    runs.push_back(RunPhase(*inst.cluster, spec, slices, nullptr));
    if (rep == 0) {
      // One cluster's life; later replays would add allocator fragmentation.
      peak_rss_mb = PeakRssMb();
      if (opt.trace) {
        drives = std::make_unique<LayerDrives>(spec, *inst.cluster, runs.front().obs, opt.seed,
                                               replays);
      }
    }
    if (drives != nullptr) {
      drives->Round(*inst.cluster);
    }
  }
  const Phase& base = runs.front();
  size_t failed = 0;
  bool agree = true;
  for (const Phase& r : runs) {
    failed = std::max(failed, r.failed);
    agree = agree && r.digest == base.digest && r.slice_committed == base.slice_committed;
  }
  const BestOf best(runs);

  std::printf("workload %s seed %" PRIu64 ": %zu replays of %zu slices of %.1f simulated s, %" PRIu64
              " committed per replay\n",
              spec.name.c_str(), opt.seed, replays, slices, tashkent::ToSeconds(spec.slice),
              base.obs.committed);
  std::printf("replay timed-phase wall s:");
  for (const Phase& r : runs) {
    std::printf(" %.3f", r.wall_s);
  }
  std::printf("\nops %zu ops_failed %zu\n", slices, failed);
  if (base.failed > 0) {
    std::printf("gate failure: %s\n", base.first_failure.c_str());
  }
  std::printf("cluster.sim_digest %016" PRIx64 "%s\n", base.digest,
              agree ? "" : " (replays disagree)");

  bool correct = failed == 0 && agree;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = EndToEnd(base, best, setup.total_s, peak_rss_mb);
  } else {
    Tracer tracer;
    SetUp(spec, opt.seed, &tracer, &inst);
    const Phase traced = RunPhase(*inst.cluster, spec, slices, &tracer);
    failed = std::max(failed, traced.failed);
    std::printf("traced cluster.sim_digest %016" PRIx64 "%s\n", traced.digest,
                traced.digest == base.digest ? "" : " (differs from the untraced run)");
    correct = correct && traced.failed == 0 && traced.digest == base.digest;
    const LayerCosts costs = drives->Costs();
    metrics = PerLayer(runs, best, traced, setup, costs);
    // The standalone drives must not attribute more than the measured time:
    // a share outside [0, 1] or a negative residual fails the run.
    for (const Metric& m : metrics) {
      const bool share = m.name.size() > 6 && m.name.compare(m.name.size() - 6, 6, ".share") == 0;
      if ((share && !(m.value >= 0.0 && m.value <= 1.0)) ||
          (m.name == "trace.unattributed_frac" && !(m.value >= 0.0))) {
        std::printf("over-attribution: %s %.4f\n", m.name.c_str(), m.value);
        correct = false;
      }
    }
    std::printf("layer self time per txn (ns): storage %.0f certifier %.0f sim %.0f "
                "balancer %.0f of %.0f measured; storage.drop_relation calls: not observed\n",
                costs.storage_ns_per_txn, costs.certifier_ns_per_txn, costs.sim_ns_per_txn,
                costs.balancer_ns_per_txn,
                best.total_s * 1e9 / static_cast<double>(base.obs.committed));
    for (Verb verb : {Verb::kKill, Verb::kRecover, Verb::kCrashCertifier, Verb::kFailoverCertifier}) {
      std::vector<double> ms;
      for (const auto& v : traced.verb_s) {
        if (v.first == verb) {
          ms.push_back(v.second * 1e3);
        }
      }
      if (!ms.empty()) {
        std::printf("verb %-8s x%zu median %.4f ms\n", VerbName(verb), ms.size(), Quantile(ms, 0.5));
      }
    }
    if (!opt.trace_file.empty() && !tracer.Write(opt.trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_file.c_str());
      correct = false;
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      correct = false;
    }
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, slices, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <scan-evict|cache-fit|write-churn> --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n");
    return 2;
  }
  return perfbench::Run(opt);
}
