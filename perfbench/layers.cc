// Standalone layer drives of the traced run.
//
// Each layer is driven through its public functions on the workload's own
// inputs (schema, mix plans, skews, pool capacity, writeset shapes, observed
// lag and event-queue depth), and timed from outside. A layer's self time per
// committed transaction is then estimated as calls per transaction x ns per
// call, with the calls taken from the untraced run's counters or from the
// mix's plans. Like the timed slices, each per-call cost is the cheapest of
// timed blocks spread over the run: one round of every drive follows each
// untraced replay. DropRelation is timed but left out of the estimate: no
// counter gives its call count.
#include <algorithm>
#include <cmath>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/certifier/certifier.h"
#include "src/sim/simulator.h"
#include "src/storage/buffer_pool.h"
#include "src/workload/tpcw.h"

namespace perfbench {
namespace {

using tashkent::AccessKind;
using tashkent::BufferPool;
using tashkent::RelationMeta;
using tashkent::Rng;
using tashkent::TxnType;
using tashkent::TxnTypeId;
using tashkent::Workload;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ns(Clock::duration d) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Mean cost of an empty span: subtracted from every individually timed call.
double EmptySpanNs() {
  constexpr int kSamples = 20000;
  double total = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    total += Ns(Clock::now() - t0);
  }
  return total / kSamples;
}

struct CallCost {
  double ns = 0.0;
  uint64_t calls = 0;

  void Add(Clock::time_point t0) {
    ns += Ns(Clock::now() - t0);
    ++calls;
  }
  double PerCall(double empty_ns) const {
    return calls == 0 ? 0.0 : std::max(ns / static_cast<double>(calls) - empty_ns, 0.0);
  }
};

// Samples a type id from `types` weighted by `weights` (same length).
TxnTypeId SampleType(Rng& rng, const std::vector<TxnTypeId>& types,
                     const std::vector<double>& weights, double total) {
  double u = rng.NextDouble() * total;
  for (size_t i = 0; i < types.size(); ++i) {
    if (u < weights[i]) {
      return types[i];
    }
    u -= weights[i];
  }
  return types.back();
}

// A set of transaction types with their mix weights: the traffic one
// replica's pool sees. MALB routes each type group to its own replicas;
// other policies send the whole mix everywhere.
struct Traffic {
  std::vector<TxnTypeId> types;
  std::vector<double> weights;
  double total = 0.0;

  void Add(TxnTypeId t, double w) {
    if (w > 0.0) {
      types.push_back(t);
      weights.push_back(w);
      total += w;
    }
  }
  TxnTypeId Sample(Rng& rng) const { return SampleType(rng, types, weights, total); }
};

// The mix's types, or only its update types.
Traffic MixTraffic(const Workload& w, const std::vector<double>& mix, bool updates_only) {
  Traffic t;
  for (TxnTypeId id = 0; id < w.registry.size(); ++id) {
    if (!updates_only || w.registry.Get(id).is_update()) {
      t.Add(id, mix[id]);
    }
  }
  return t;
}

std::vector<Traffic> PoolTraffic(const Workload& w, const std::vector<double>& mix,
                                 tashkent::Cluster& cluster) {
  std::vector<Traffic> out;
  if (tashkent::MalbBalancer* malb = cluster.malb()) {
    for (const auto& group : malb->GroupTypeIds()) {
      Traffic t;
      for (TxnTypeId id : group) {
        t.Add(id, mix[id]);
      }
      if (t.total > 0.0) {
        out.push_back(std::move(t));
      }
    }
  } else {
    out.push_back(MixTraffic(w, mix, false));
  }
  return out;
}

// Expected pool calls per executed transaction, from the mix's plans.
struct PlanCalls {
  double scans = 0.0;
  double randoms = 0.0;
  double dirties = 0.0;
  double writes_per_writeset = 0.0;  // DirtyRandom calls per applied writeset
};

PlanCalls CallsFromPlans(const Workload& w, const std::vector<double>& mix) {
  PlanCalls out;
  double total = 0.0;
  double update_total = 0.0;
  double update_writes = 0.0;
  for (TxnTypeId id = 0; id < w.registry.size(); ++id) {
    const TxnType& type = w.registry.Get(id);
    double writes = 0.0;
    for (const auto& step : type.plan.steps) {
      (step.access == AccessKind::kSequentialScan ? out.scans : out.randoms) += mix[id];
      if (step.write_pages > 0) {
        writes += 1.0;
      }
    }
    out.dirties += mix[id] * writes;
    total += mix[id];
    if (type.is_update()) {
      update_total += mix[id];
      update_writes += mix[id] * writes;
    }
  }
  out.scans /= total;
  out.randoms /= total;
  out.dirties /= total;
  out.writes_per_writeset = update_total > 0.0 ? update_writes / update_total : 0.0;
  return out;
}

struct StorageCosts {
  CallCost scan, random, dirty, take;
};

// One call kind's cost across pools: each pool contributes its call count
// at the per-call cost of its cheapest chunk (the host's uncontended speed,
// as the best-of-replays slices measure it).
struct KindCost {
  double ns = 0.0;
  uint64_t calls = 0;

  void Add(const std::vector<StorageCosts>& chunks, CallCost StorageCosts::*kind,
           double empty_ns) {
    double best = 0.0;
    uint64_t n = 0;
    for (const StorageCosts& chunk : chunks) {
      const CallCost& c = chunk.*kind;
      if (c.calls > 0) {
        best = n == 0 ? c.PerCall(empty_ns) : std::min(best, c.PerCall(empty_ns));
        n += c.calls;
      }
    }
    ns += best * static_cast<double>(n);
    calls += n;
  }
  double PerCall() const { return calls == 0 ? 0.0 : ns / static_cast<double>(calls); }
};

// Replays one replica's traffic against a standalone pool exactly the way
// Replica::Execute, StageApply and FlushRound call it, at the observed
// per-replica apply and flush rates.
class PoolReplay {
 public:
  PoolReplay(const Workload& w, const tashkent::ReplicaConfig& rc, Traffic traffic,
             Traffic updates, double applies_per_exec, double flushes_per_exec, uint64_t seed)
      : w_(w),
        rc_(rc),
        skew_(w.skew.value_or(rc.skew)),
        traffic_(std::move(traffic)),
        updates_(std::move(updates)),
        applies_per_exec_(applies_per_exec),
        flushes_per_exec_(flushes_per_exec),
        pool_(rc.memory - rc.reserved, rc.chunk_pages),
        rng_(seed) {}

  BufferPool& pool() { return pool_; }

  void Run(size_t txns, StorageCosts* costs) {
    for (size_t i = 0; i < txns; ++i) {
      Execute(w_.registry.Get(traffic_.Sample(rng_)), costs);
      apply_credit_ += applies_per_exec_;
      for (; apply_credit_ >= 1.0; apply_credit_ -= 1.0) {
        if (updates_.total > 0.0) {
          Apply(w_.registry.Get(updates_.Sample(rng_)), costs);
        }
      }
      flush_credit_ += flushes_per_exec_;
      for (; flush_credit_ >= 1.0; flush_credit_ -= 1.0) {
        const Clock::time_point t0 = Clock::now();
        pool_.TakeDirtyForFlush(rc_.flush_batch_pages);
        if (costs != nullptr) {
          costs->take.Add(t0);
        }
      }
    }
  }

 private:
  void Execute(const TxnType& type, StorageCosts* costs) {
    for (const auto& step : type.plan.steps) {
      const RelationMeta& rel = w_.schema.Get(step.relation);
      Clock::time_point t0 = Clock::now();
      if (step.access == AccessKind::kSequentialScan) {
        const tashkent::Pages window =
            step.window_pages > 0 ? std::min(step.window_pages, rel.pages) : rel.pages;
        pool_.TouchScanWindow(rel, window, rng_, skew_);
        if (costs != nullptr) {
          costs->scan.Add(t0);
        }
      } else {
        pool_.TouchRandom(rel, step.pages_per_exec, rng_, skew_);
        if (costs != nullptr) {
          costs->random.Add(t0);
        }
      }
      if (step.write_pages > 0) {
        t0 = Clock::now();
        pool_.DirtyRandom(rel, step.write_pages, rng_, rc_.write_skew);
        if (costs != nullptr) {
          costs->dirty.Add(t0);
        }
      }
    }
  }

  void Apply(const TxnType& type, StorageCosts* costs) {
    for (const auto& step : type.plan.steps) {
      if (step.write_pages <= 0) {
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      pool_.DirtyRandom(w_.schema.Get(step.relation), step.write_pages, rng_, rc_.write_skew);
      if (costs != nullptr) {
        costs->dirty.Add(t0);
      }
    }
  }

  const Workload& w_;
  tashkent::ReplicaConfig rc_;
  tashkent::AccessSkew skew_;
  Traffic traffic_;
  Traffic updates_;
  double applies_per_exec_;
  double flushes_per_exec_;
  BufferPool pool_;
  Rng rng_;
  double apply_credit_ = 0.0;
  double flush_credit_ = 0.0;
};

// Kernel cost per event: schedule + pop + dispatch of a trivial callback,
// holding the observed number of pending events at the observed event rate.
class Ticker {
 public:
  Ticker(tashkent::Simulator* sim, Rng* rng, double mean_gap_us)
      : sim_(sim), rng_(rng), mean_gap_us_(mean_gap_us) {}
  void operator()() const {
    const double u = std::max(rng_->NextDouble(), 1e-12);
    sim_->ScheduleAfter(static_cast<tashkent::SimDuration>(-std::log(u) * mean_gap_us_), *this);
  }

 private:
  tashkent::Simulator* sim_;
  Rng* rng_;
  double mean_gap_us_;
};

// Timed work over all rounds. Pool transactions are split across traffic
// groups by their mix share; every other drive times fixed-size blocks.
constexpr size_t kReplayTxns = 20000;
constexpr size_t kMinGroupTxns = 200;
constexpr size_t kDropSamples = 6;  // per traffic group, one relation each
constexpr size_t kCertifyBlock = 256;
constexpr size_t kCertifyBlocks = 120;  // and as many Pull blocks
constexpr size_t kCertifyWarmBlocks = 20;
constexpr size_t kSimSteps = 60;  // each covers about 20k events
constexpr size_t kSimWarmSteps = 10;
constexpr size_t kRouteBlock = 4096;
constexpr size_t kRouteBlocks = 50;
constexpr size_t kPoolCtors = 2000;

// A round's share of `total`, at least `at_least`.
size_t PerRound(size_t total, size_t rounds, size_t at_least) {
  return std::max(at_least, (total + rounds - 1) / rounds);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

}  // namespace

struct LayerDrives::State {
  State(const WorkloadSpec& spec, tashkent::Cluster& cluster, const Observed& obs, uint64_t seed,
        size_t rounds)
      : w(tashkent::BuildTpcw(spec.ebs)),
        mix(w.MixByName(spec.mix).weights()),
        obs(obs),
        rounds(rounds),
        rc(MakeConfig(spec, seed).replica),
        plan(CallsFromPlans(w, mix)),
        empty_ns(EmptySpanNs()),
        cert(MakeConfig(spec, seed).certifier),
        cert_sequenced(MakeConfig(spec, seed).proxy.retry.enabled),
        cert_updates(MixTraffic(w, mix, true)),
        cert_rng(seed ^ 0x5eed),
        cert_seq(kReplicas, 1),
        lag(static_cast<tashkent::Version>(std::llround(obs.mean_lag))),
        sim_rng(seed ^ 0x51a) {
    SetUpPools(cluster, seed);
    SetUpCertifier();
    SetUpSimulator();
    const Traffic all = MixTraffic(w, mix, false);
    Rng rng(seed ^ 0xba1);
    for (size_t i = 0; i < kRouteBlock; ++i) {
      route_types.push_back(all.Sample(rng));
    }
  }

  // --- BufferPool: one pool per traffic group, warmed for the paper's 240 s.
  struct Group {
    std::unique_ptr<PoolReplay> replay;
    std::vector<tashkent::RelationId> rels;  // relations of the group's plans
    size_t chunk_txns = 0;
    std::vector<StorageCosts> chunks;  // one per round
  };

  void SetUpPools(tashkent::Cluster& cluster, uint64_t seed) {
    const Traffic updates = MixTraffic(w, mix, true);
    execs = static_cast<double>(std::max<uint64_t>(obs.txns_executed, 1));
    flush_calls =
        static_cast<double>(kReplicas) * obs.sim_seconds / tashkent::ToSeconds(rc.flush_period);
    const double applies_per_exec = static_cast<double>(obs.writesets_applied) / execs;
    const double flushes_per_exec = flush_calls / execs;
    const double execs_per_replica_s =
        execs / (static_cast<double>(kReplicas) * std::max(obs.sim_seconds, 1.0));
    const size_t warm_txns =
        static_cast<size_t>(std::ceil(execs_per_replica_s * kWarmupSimSeconds)) + 1000;

    const std::vector<Traffic> traffic = PoolTraffic(w, mix, cluster);
    double mix_total = 0.0;
    for (const Traffic& t : traffic) {
      mix_total += t.total;
    }
    for (size_t gi = 0; gi < traffic.size(); ++gi) {
      Group g;
      for (TxnTypeId id : traffic[gi].types) {
        for (const auto& step : w.registry.Get(id).plan.steps) {
          if (std::find(g.rels.begin(), g.rels.end(), step.relation) == g.rels.end()) {
            g.rels.push_back(step.relation);
          }
        }
      }
      const size_t timed = std::max<size_t>(
          kMinGroupTxns,
          static_cast<size_t>(static_cast<double>(kReplayTxns) * traffic[gi].total / mix_total));
      g.chunk_txns = PerRound(timed, rounds, 1);
      g.replay = std::make_unique<PoolReplay>(w, rc, traffic[gi], updates, applies_per_exec,
                                              flushes_per_exec, seed * 1000003 + gi);
      g.replay->Run(warm_txns, nullptr);
      groups.push_back(std::move(g));
    }
  }

  void PoolRound() {
    for (Group& g : groups) {
      g.chunks.emplace_back();
      g.replay->Run(g.chunk_txns, &g.chunks.back());
      if (round + 1 < rounds) {
        continue;
      }
      // DropRelation walks the whole LRU: in the last round, time it on the
      // warm pool, one relation of the group's plans per sample, re-warming
      // in between.
      for (size_t i = 0; i < g.rels.size() && i < kDropSamples; ++i) {
        g.replay->Run(200, nullptr);
        const Clock::time_point t0 = Clock::now();
        g.replay->pool().DropRelation(g.rels[i]);
        drop_us.push_back((Ns(Clock::now() - t0) - empty_ns) / 1000.0);
      }
    }
    // Construction of one replica's pool (set-up cost); destruction untimed.
    const size_t n = PerRound(kPoolCtors, rounds, 1);
    std::vector<std::unique_ptr<BufferPool>> pools(n);
    const Clock::time_point t0 = Clock::now();
    for (auto& pool : pools) {
      pool = std::make_unique<BufferPool>(rc.memory - rc.reserved, rc.chunk_pages);
    }
    ctor_us.push_back(Ns(Clock::now() - t0) / static_cast<double>(n) / 1000.0);
  }

  // --- Certifier: writesets shaped like the mix's update types, from every
  // replica at the observed lag behind the log head, pruning the log the way
  // the cluster's auto-pruner does; Pull at the same lag.
  tashkent::Version Applied() const {
    const tashkent::Version head = cert.head_version();
    return head > lag ? head - lag : 0;
  }

  tashkent::Writeset MakeWriteset(tashkent::ReplicaId origin) {
    tashkent::Writeset ws;
    const TxnType& type = w.registry.Get(cert_updates.Sample(cert_rng));
    ws.origin = origin;
    ws.type = type.id;
    ws.bytes = type.writeset_bytes;
    for (const auto& step : type.plan.steps) {
      if (step.write_pages <= 0) {
        continue;
      }
      ws.table_pages.push_back({step.relation, step.write_pages});
      const uint64_t keyspace =
          std::max<uint64_t>(static_cast<uint64_t>(w.schema.Get(step.relation).pages) * 16, 1);
      for (int i = 0; i < step.write_pages; ++i) {
        ws.items.push_back({step.relation, cert_rng.NextBelow(keyspace)});
      }
    }
    return ws;
  }

  // Certifies one block; returns its ns per call.
  double CertifyBlock() {
    std::vector<tashkent::Writeset> block(kCertifyBlock);
    for (size_t i = 0; i < kCertifyBlock; ++i) {
      block[i] = MakeWriteset(static_cast<tashkent::ReplicaId>((certified + i) % kReplicas));
      block[i].snapshot_version = Applied();
    }
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kCertifyBlock; ++i, ++certified) {
      const auto r = static_cast<tashkent::ReplicaId>(certified % kReplicas);
      cert.Certify(std::move(block[i]), r, Applied(),
                   cert_sequenced ? cert_seq[r]++ : tashkent::kNoTxnSeq);
    }
    const double ns = Ns(Clock::now() - t0) / kCertifyBlock;
    const tashkent::Version floor = Applied();
    if (floor > cert.log_pruned_below()) {
      cert.PruneLogBelow(floor);
    }
    return ns;
  }

  void SetUpCertifier() {
    // The cluster installs a prod callback, which arms the laggard scan that
    // every Certify runs.
    cert.SetProdCallback([](tashkent::ReplicaId) {});
    for (size_t b = 0; b < kCertifyWarmBlocks; ++b) {
      CertifyBlock();
    }
  }

  void CertifierRound() {
    const size_t blocks = PerRound(kCertifyBlocks, rounds, 2);
    for (size_t b = 0; b < blocks; ++b) {
      certify_ns.push_back(CertifyBlock());
    }
    for (size_t b = 0; b < blocks; ++b) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < kCertifyBlock; ++i) {
        cert.Pull(static_cast<tashkent::ReplicaId>(i % kReplicas), Applied());
      }
      pull_ns.push_back(Ns(Clock::now() - t0) / kCertifyBlock);
    }
  }

  // --- Simulator: trivial self-rescheduling callbacks.
  void SetUpSimulator() {
    const size_t pending =
        std::max<size_t>(16, static_cast<size_t>(std::llround(obs.mean_pending)));
    const double events_per_s =
        static_cast<double>(std::max<uint64_t>(obs.events, 1)) / std::max(obs.sim_seconds, 1.0);
    const double gap_us = static_cast<double>(pending) / events_per_s * 1e6;
    for (size_t i = 0; i < pending; ++i) {
      Ticker(&sim, &sim_rng, gap_us)();
    }
    sim_step = static_cast<tashkent::SimDuration>(20000.0 / events_per_s * 1e6) + 1;
    for (size_t b = 0; b < kSimWarmSteps; ++b) {
      sim.RunUntil(sim.Now() + sim_step);
    }
  }

  void SimulatorRound() {
    const size_t steps = PerRound(kSimSteps, rounds, 2);
    for (size_t b = 0; b < steps; ++b) {
      const uint64_t before = sim.executed_events();
      const Clock::time_point t0 = Clock::now();
      sim.RunUntil(sim.Now() + sim_step);
      const double ns = Ns(Clock::now() - t0);
      if (sim.executed_events() > before) {
        event_ns.push_back(ns / static_cast<double>(sim.executed_events() - before));
      }
    }
  }

  // --- Balancer: the cluster's own, routing the mix's types.
  void BalancerRound(tashkent::Cluster& cluster) {
    std::vector<const TxnType*> types;
    for (TxnTypeId id : route_types) {
      types.push_back(&cluster.workload().registry.Get(id));
    }
    const size_t blocks = PerRound(kRouteBlocks, rounds, 2);
    for (size_t b = 0; b <= blocks; ++b) {  // the first block warms up
      const Clock::time_point t0 = Clock::now();
      for (const TxnType* t : types) {
        cluster.balancer().Route(*t);
      }
      if (b > 0) {
        route_ns.push_back(Ns(Clock::now() - t0) / kRouteBlock);
      }
    }
  }

  const Workload w;
  const std::vector<double> mix;
  const Observed obs;
  const size_t rounds;
  const tashkent::ReplicaConfig rc;
  const PlanCalls plan;
  const double empty_ns;
  size_t round = 0;

  std::vector<Group> groups;
  double execs = 0.0;
  double flush_calls = 0.0;
  std::vector<double> drop_us, ctor_us;

  tashkent::Certifier cert;
  const bool cert_sequenced;
  const Traffic cert_updates;
  Rng cert_rng;
  std::vector<uint64_t> cert_seq;
  const tashkent::Version lag;
  size_t certified = 0;
  std::vector<double> certify_ns, pull_ns;

  tashkent::Simulator sim;
  Rng sim_rng;
  tashkent::SimDuration sim_step = 0;
  std::vector<double> event_ns;

  std::vector<TxnTypeId> route_types;
  std::vector<double> route_ns;
};

LayerDrives::LayerDrives(const WorkloadSpec& spec, tashkent::Cluster& cluster,
                         const Observed& observed, uint64_t seed, size_t rounds)
    : s_(std::make_unique<State>(spec, cluster, observed, seed, std::max<size_t>(rounds, 1))) {}

LayerDrives::~LayerDrives() = default;

void LayerDrives::Round(tashkent::Cluster& cluster) {
  s_->PoolRound();
  s_->CertifierRound();
  s_->SimulatorRound();
  s_->BalancerRound(cluster);
  ++s_->round;
}

LayerCosts LayerDrives::Costs() const {
  const State& s = *s_;
  LayerCosts out;
  KindCost scan, random, dirty, take;
  for (const State::Group& g : s.groups) {
    scan.Add(g.chunks, &StorageCosts::scan, s.empty_ns);
    random.Add(g.chunks, &StorageCosts::random, s.empty_ns);
    dirty.Add(g.chunks, &StorageCosts::dirty, s.empty_ns);
    take.Add(g.chunks, &StorageCosts::take, s.empty_ns);
  }
  out.touch_scan_ns = scan.PerCall();
  out.touch_random_ns = random.PerCall();
  out.dirty_random_ns = dirty.PerCall();
  out.take_dirty_ns = take.PerCall();
  out.drop_relation_us = Median(s.drop_us);
  out.ctor_us = Min(s.ctor_us);
  out.certify_ns = Min(s.certify_ns);
  out.pull_ns = Min(s.pull_ns);
  out.event_ns = Min(s.event_ns);
  out.route_ns = Min(s.route_ns);

  const Observed& obs = s.obs;
  const double committed = static_cast<double>(std::max<uint64_t>(obs.committed, 1));
  out.storage_ns_per_txn =
      s.execs / committed *
          (s.plan.scans * out.touch_scan_ns + s.plan.randoms * out.touch_random_ns +
           s.plan.dirties * out.dirty_random_ns) +
      static_cast<double>(obs.writesets_applied) / committed * s.plan.writes_per_writeset *
          out.dirty_random_ns +
      s.flush_calls / committed * out.take_dirty_ns;
  out.certifier_ns_per_txn = (static_cast<double>(obs.certify_calls) * out.certify_ns +
                              static_cast<double>(obs.pulls) * out.pull_ns) /
                             committed;
  out.sim_ns_per_txn = static_cast<double>(obs.events) / committed * out.event_ns;
  out.balancer_ns_per_txn = static_cast<double>(obs.attempts) / committed * out.route_ns;
  return out;
}

}  // namespace perfbench
