// Cluster wiring: replicas + proxies + certifier + balancer + clients.
//
// One Cluster is one experiment instance: it owns the simulator and every
// component, runs warmup + measurement windows, and produces the metrics the
// paper reports — throughput (tps), response time, and per-replica disk
// read/write KB per transaction (Tables 1/3/5), plus MALB groupings
// (Tables 2/4) and a throughput timeline (Figure 6).
//
// The balancer is resolved by name through the PolicyRegistry
// (src/balancer/registry.h): adding a policy never touches this header.
// Multi-phase runs are scripted with ScenarioBuilder (src/cluster/scenario.h)
// on top of Apply/ApplyAfter and the raw hooks below.
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/balancer/balancer.h"
#include "src/balancer/lard.h"
#include "src/balancer/malb.h"
#include "src/certifier/certifier.h"
#include "src/certifier/channel.h"
#include "src/cluster/mutator.h"
#include "src/common/stats.h"
#include "src/proxy/proxy.h"
#include "src/replica/replica.h"
#include "src/workload/client.h"
#include "src/workload/workload.h"

namespace tashkent {

// Checkpoint/state-transfer joins and the bounded certifier log
// (docs/OPERATIONS.md, "Checkpoints and log pruning").
struct CheckpointPolicy {
  // Joining (AddReplica) and backfilling (RecoverReplica past the prune line)
  // replicas install a checkpoint image at version V and replay only
  // (V, head], instead of the legacy full-log replay. Off = legacy joins,
  // which throw once the log is pruned.
  bool checkpoint_join = true;
  // Periodically prune the certifier log below the cluster-wide safe floor
  // (min over every replica of its durable applied version, with an in-flight
  // checkpoint install counting as its image version). The floor is
  // conservative — entries below it are provably dead — so pruning never
  // changes results, only bounds log memory.
  bool auto_prune = true;
  SimDuration prune_period = Seconds(30.0);
};

struct ClusterConfig {
  size_t replicas = 16;
  ReplicaConfig replica;
  // Per-replica RAM overrides for heterogeneous clusters: when non-empty it
  // must have exactly `replicas` entries and replica i gets replica_memory[i]
  // instead of replica.memory (everything else in `replica` still applies).
  // The constructor throws std::invalid_argument on a size mismatch.
  std::vector<Bytes> replica_memory;
  CertifierConfig certifier;
  ProxyConfig proxy;
  CheckpointPolicy checkpoint;
  LardConfig lard;
  MalbConfig malb;  // method is overridden by the MALB-S/SC/SCAP factories
  // Clients per replica; 0 means the caller must calibrate (see
  // calibration.h) — the Cluster constructor requires a concrete value.
  int clients_per_replica = 6;
  SimDuration mean_think = Millis(500);
  // Generate load with the O(1)-state fluid aggregate model
  // (src/workload/fluid_pool.h) instead of one event chain per client.
  // Law-identical but not bit-identical to the per-client model; required
  // for O(100k-1M) populations.
  bool fluid_clients = false;
  // Message faults on the proxy<->certifier channel (drop/delay/duplicate/
  // partition; src/certifier/channel.h). An unarmed plan is byte-inert. An
  // armed plan implies proxy.retry.enabled — a lossy channel without retries
  // would silently lose transactions.
  FaultPlan faults;
  uint64_t seed = 42;
  // Width of the throughput timeline buckets (Figure 6 uses 30 s).
  SimDuration timeline_bucket = Seconds(30.0);
};

struct GroupReport {
  std::vector<std::string> types;
  int replicas = 0;
};

struct ExperimentResult {
  double tps = 0.0;
  double mean_response_s = 0.0;
  double p95_response_s = 0.0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  // Per-replica average disk traffic per committed transaction (KB).
  double read_kb_per_txn = 0.0;
  double write_kb_per_txn = 0.0;
  // MALB groupings at the end of the run (empty for other policies).
  std::vector<GroupReport> groups;
  // Committed transactions per timeline bucket over the whole run (including
  // warmup), for Figure 6.
  std::vector<double> timeline;
  SimDuration timeline_bucket = Seconds(30.0);

  // --- churn metrics (docs/OPERATIONS.md has the glossary) -----------------
  // Submissions refused by down/recovering replicas during the window.
  uint64_t rejected = 0;
  // Fraction of client attempts not lost to unavailability:
  // 1 - rejected / (committed + client-visible aborts). 1.0 when idle.
  double availability = 1.0;
  // Recoveries completed inside the window and their mean replay time.
  uint64_t recoveries = 0;
  double recovery_lag_s = 0.0;
  // Writesets applied vs filtered during recovery replay (update filtering is
  // what shrinks replay volume — the Section 3 claim under churn).
  uint64_t replay_applied = 0;
  uint64_t replay_filtered = 0;

  // --- checkpoint / bounded-log metrics ------------------------------------
  // High-water marks of certifier-log memory over the window (sampled at
  // each prune tick, before pruning, and at collection): live log chunks and
  // live arena bytes. Bounded under churn when auto-pruning is on; grow
  // monotonically when it is off.
  uint64_t log_chunks_hwm = 0;
  uint64_t arena_bytes_hwm = 0;
  // JoinAsNew lifecycles completed in the window and their mean latency
  // (state transfer + delta replay, end to end). With checkpoint joins the
  // latency is independent of cluster age; legacy joins replay the whole log.
  uint64_t joins = 0;
  double join_latency_s = 0.0;

  // --- skew-campaign metrics (load shape under fluid/Zipfian workloads) ----
  // Coefficient of variation (stddev/mean) of per-replica transactions
  // executed over the window: 0 = perfectly even load, grows with skew.
  double unevenness = 0.0;
  // Buffer-pool miss fraction over the window, summed across replicas
  // (misses / (hits + misses) of read-path and apply-path touches).
  double miss_rate = 0.0;
  // Balancer-initiated replica moves during the window (MALB reallocation
  // cost: group moves, pool pushes, splits, merges; 0 for other policies).
  uint64_t realloc_moves = 0;
  // Client population target at collection time (fluid or per-client).
  uint64_t clients_modeled = 0;
  // True when the fluid aggregate client model generated the load.
  bool fluid = false;

  // --- fault-injection / failover metrics (not rendered into run records;
  // the faults campaign reports these as campaign scalars, see
  // ForEachMetric) ----------------------------------------------------------
  // Messages lost on the channel (drop probability + partition windows) and
  // duplicated/delayed deliveries, over the window.
  uint64_t msgs_dropped = 0;
  uint64_t msgs_duplicated = 0;
  uint64_t msgs_delayed = 0;
  // Proxy retry-protocol activity over the window.
  uint64_t cert_timeouts = 0;
  uint64_t cert_retries = 0;
  uint64_t pull_retries = 0;
  uint64_t fenced = 0;
  uint64_t stale_responses = 0;
  uint64_t dedup_hits = 0;
  // Peak certifications parked (in flight or backing off) on any one proxy —
  // the degraded-mode write queue, bounded by the gatekeeper admission limit.
  uint64_t write_queue_hwm = 0;
  // Certifier failover accounting: crashes/failovers in the window, total
  // time the certifier was unserving, and the time from failover until the
  // first client commit (the client-visible takeover latency).
  uint64_t cert_crashes = 0;
  uint64_t cert_failovers = 0;
  double cert_downtime_s = 0.0;
  double failover_recovery_s = 0.0;

  // --- host-side accounting (not rendered into run records) ----------------
  // Simulator events executed over the cluster's whole life up to the moment
  // this result was collected. Kernel-throughput bookkeeping for the campaign
  // manifest; deliberately excluded from the per-run JSON schema so result
  // documents stay comparable across kernel refactors.
  uint64_t executed_events = 0;
};

// Where a metric of ExperimentResult is reported (bit flags).
enum MetricReport : unsigned {
  kReportNone = 0,         // read only by tests and benches
  kReportRunRecord = 1u,   // a key of every JSON run record (src/cluster/sink.h)
  kReportFaultScalar = 2u  // a per-cell scalar of the faults campaign
};

// The one list of ExperimentResult's scalar metrics, in run-record order:
// calls visit(name, report, member) once per metric, where `name` is the
// run-record JSON key (a fault scalar spells it with spaces for underscores),
// `report` a MetricReport mask and `member` a pointer to the member (double,
// uint64_t or bool). The run-record renderer, FirstDifference and
// the faults campaign's scalars all iterate it; a new metric is one member,
// its Collect line and one row here. Not listed: `groups` (structured; the
// renderer and FirstDifference handle it next to the table), the timeline
// (Figure 6 series) and `executed_events` (host accounting).
template <typename Visit>
void ForEachMetric(Visit&& visit) {
  using R = ExperimentResult;
  constexpr unsigned kRun = kReportRunRecord;
  constexpr unsigned kFault = kReportFaultScalar;
  visit("tps", kRun, &R::tps);
  visit("mean_response_s", kRun, &R::mean_response_s);
  visit("p95_response_s", kRun, &R::p95_response_s);
  visit("committed", kRun, &R::committed);
  visit("aborted", kRun, &R::aborted);
  visit("read_kb_per_txn", kRun, &R::read_kb_per_txn);
  visit("write_kb_per_txn", kRun, &R::write_kb_per_txn);
  visit("rejected", kRun, &R::rejected);
  visit("availability", kRun | kFault, &R::availability);
  visit("recoveries", kRun, &R::recoveries);
  visit("recovery_lag_s", kRun, &R::recovery_lag_s);
  visit("replay_applied", kRun, &R::replay_applied);
  visit("replay_filtered", kRun, &R::replay_filtered);
  visit("log_chunks_hwm", kRun, &R::log_chunks_hwm);
  visit("arena_bytes_hwm", kRun, &R::arena_bytes_hwm);
  visit("join_latency_s", kRun, &R::join_latency_s);
  visit("unevenness", kRun, &R::unevenness);
  visit("miss_rate", kRun, &R::miss_rate);
  visit("realloc_moves", kRun, &R::realloc_moves);
  visit("clients_modeled", kRun, &R::clients_modeled);
  visit("fluid", kRun, &R::fluid);
  visit("joins", kReportNone, &R::joins);
  visit("msgs_dropped", kFault, &R::msgs_dropped);
  visit("msgs_duplicated", kFault, &R::msgs_duplicated);
  visit("msgs_delayed", kFault, &R::msgs_delayed);
  visit("cert_timeouts", kFault, &R::cert_timeouts);
  visit("cert_retries", kFault, &R::cert_retries);
  visit("pull_retries", kFault, &R::pull_retries);
  visit("fenced", kFault, &R::fenced);
  visit("stale_responses", kFault, &R::stale_responses);
  visit("dedup_hits", kFault, &R::dedup_hits);
  visit("write_queue_hwm", kFault, &R::write_queue_hwm);
  visit("cert_crashes", kFault, &R::cert_crashes);
  visit("cert_failovers", kFault, &R::cert_failovers);
  visit("cert_downtime_s", kFault, &R::cert_downtime_s);
  visit("failover_recovery_s", kFault, &R::failover_recovery_s);
}

// The name of the first metric (table order, then "groups") on which `a` and
// `b` differ, or "" when they match. Exact (==) comparison, doubles included:
// the inert-pair contracts are identity of the reported values, not closeness.
std::string FirstDifference(const ExperimentResult& a, const ExperimentResult& b);

class Cluster {
 public:
  // `policy` names a PolicyRegistry entry; throws std::invalid_argument
  // (listing the registered names) when unknown. The workload must outlive
  // the Cluster — binding a temporary is rejected at compile time.
  Cluster(const Workload& workload, std::string mix_name, std::string policy,
          ClusterConfig config);
  Cluster(const Workload&& workload, std::string mix_name, std::string policy,
          ClusterConfig config) = delete;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs warmup (metrics discarded) then measurement; returns the result.
  ExperimentResult Run(SimDuration warmup, SimDuration measure);

  // --- Timeline verbs (src/cluster/mutator.h) -----------------------------
  // Applies `m` now by calling the verb's method below, then appends a
  // MutationRecord stamped with the current instant to mutations() (for
  // AddReplica the record's target is the new index). A verb that throws
  // records nothing.
  void Apply(const Mutation& m);
  // Schedules Apply(m) as a simulator event `delay` from now. Scheduling does
  // not allocate: `m` moves into the event's inline capture. The event
  // belongs to this cluster's simulator, so it fires whenever the cluster is
  // advanced past its instant, even after the script that scheduled it has
  // returned.
  void ApplyAfter(SimDuration delay, Mutation m);
  // Mutations applied through Apply, in execution order. Direct calls of the
  // methods below are not logged.
  const std::vector<MutationRecord>& mutations() const { return mutations_; }

  // --- Hooks used by multi-phase experiments (Figure 6) -------------------
  // Advances simulated time without collecting metrics.
  void Advance(SimDuration d);
  // Switches the client mix immediately.
  void SwitchMix(const std::string& mix_name);
  // Retargets the client population immediately (flash crowds, diurnal
  // curves). Works for both client models; see ClientSource::SetPopulation.
  void SetPopulation(size_t population);
  // Freezes MALB allocation in its current state (static-configuration
  // baseline). No-op for non-MALB policies.
  void FreezeAllocation();

  // --- Churn verbs -------------------------------------------------------
  // Fail-stop replica `index`: it rejects new work until recovered.
  void KillReplica(size_t index);
  // Begins recovery of a killed replica: cold cache, replays the certifier's
  // committed-writeset log (through its update-filtering subscription) and
  // rejoins once caught up with the log head. If the log has been pruned past
  // the replica's durable prefix, a checkpoint image is installed first
  // (CheckpointPolicy::checkpoint_join).
  void RecoverReplica(size_t index);
  // Grows the cluster by one replica (`memory` = 0 uses the configured
  // default). The new replica installs a checkpoint image and replays only
  // the suffix (or, with checkpoint_join off, replays the whole log); the
  // balancer is told via OnReplicaAdded. Returns the new index.
  size_t AddReplica(Bytes memory = 0);
  // Changes replica `index`'s RAM at runtime; shrinking evicts cache, and the
  // balancer re-packs via OnTopologyChange. Throws std::invalid_argument
  // when memory <= the configured reservation.
  void ResizeMemory(size_t index, Bytes memory);

  // --- Certifier failover / partition verbs -------------------------------
  // Fail-stop the certifier primary: requests go unanswered (sender timeouts
  // drive retries), reads keep serving locally, writes queue behind the
  // gatekeeper bound until FailoverCertifier promotes the warm standby.
  // CrashCertifier, FailoverCertifier and PartitionProxy throw
  // std::logic_error unless config.proxy.retry.enabled: only armed proxies
  // time out and resend.
  void CrashCertifier();
  // Promote the warm standby (works as a planned handover while the primary
  // still serves): bumps the epoch so stale requests are fenced, and starts
  // the failover-recovery clock (stopped by the first client commit). The
  // standby is kept in sync only with sequenced, i.e. retry-armed, requests,
  // which is why this verb requires retry too.
  void FailoverCertifier();
  // Drop every message from replica `index`'s proxy for `duration` from now
  // (a one-way link partition; responses to earlier requests still arrive).
  void PartitionProxy(size_t index, SimDuration duration);

  // Resets measurement counters and measures one window.
  ExperimentResult Measure(SimDuration measure);

  Simulator& sim() { return sim_; }
  Certifier& certifier() { return certifier_; }
  const Certifier& certifier() const { return certifier_; }
  // Prune ticks that actually advanced the log's prune line.
  uint64_t prunes() const { return prunes_; }
  MalbBalancer* malb() { return malb_; }
  LoadBalancer& balancer() { return *balancer_; }
  const std::vector<std::unique_ptr<Replica>>& replicas() const { return replicas_; }
  const std::vector<std::unique_ptr<Proxy>>& proxies() const { return proxies_; }
  ClientSource& clients() { return *clients_; }

  const Workload& workload() const { return *workload_; }
  const std::string& policy_name() const { return policy_name_; }
  // The currently active mix (tracks SwitchMix).
  const std::string& mix_name() const { return mix_name_; }

  // Whole-run throughput timeline (never reset by Measure), for scenario
  // drivers that stitch phases together.
  const std::vector<double>& timeline_buckets() const { return timeline_.buckets(); }
  SimDuration timeline_bucket_width() const { return timeline_.bucket_width(); }

 private:
  void ResetMetrics();
  ExperimentResult Collect(SimDuration measure_window) const;
  // The image a joining/backfilling replica installs: full database pages at
  // the freshest version the cluster can donate (never below the prune line).
  ClusterCheckpoint BuildCheckpointImage() const;
  // One prune tick: sample log-memory HWMs, then prune below the safe floor.
  void AutoPrune();
  void SampleLogHwm();
  // Throws std::logic_error naming `verb` unless the retry protocol is armed.
  void RequireRetry(const char* verb) const;

  const Workload* workload_;
  std::string mix_name_;
  std::string policy_name_;
  ClusterConfig config_;
  Simulator sim_;
  Certifier certifier_;
  // Shared proxy->certifier channel: same-tick certification/pull arrivals
  // from ANY replica share one simulator event (group-commit batching).
  CertifierChannel certifier_channel_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  std::unique_ptr<LoadBalancer> balancer_;
  MalbBalancer* malb_ = nullptr;  // non-owning view when the balancer is MALB
  std::unique_ptr<ClientSource> clients_;
  // Seed stream for replicas added at runtime; forked from the root LAST so
  // pre-churn seed streams (replicas, clients) are unchanged.
  Rng topology_rng_{0};
  // Fault/retry seed stream, forked from the root AFTER topology_rng_ and
  // ONLY when faults or retries are armed, so fault-capable builds with the
  // knobs off replay the pre-fault seed streams bit for bit.
  Rng faults_rng_{0};

  // --- Certifier failover bookkeeping --------------------------------------
  SimTime cert_down_mark_ = 0;        // crash instant (or window start while down)
  double cert_downtime_accum_s_ = 0.0;
  bool awaiting_failover_commit_ = false;
  SimTime failover_at_ = 0;
  double failover_recovery_accum_s_ = 0.0;
  uint64_t cert_crashes_win_ = 0;
  uint64_t cert_failovers_win_ = 0;
  // Window snapshots of cumulative channel/certifier fault counters.
  ChannelFaultStats channel_snap_;
  uint64_t dedup_hits_snap_ = 0;

  // Measurement state.
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  // Window-scoped log-memory high-water marks (see ExperimentResult) and the
  // lifetime count of effective prunes.
  uint64_t log_chunks_hwm_ = 0;
  uint64_t arena_bytes_hwm_ = 0;
  uint64_t prunes_ = 0;
  // Buffer-pool and MALB-move counters are cumulative (never reset — the
  // Section 5.3 bench reads them across windows), so window metrics are
  // deltas against these ResetMetrics-time snapshots.
  uint64_t pool_hits_snap_ = 0;
  uint64_t pool_misses_snap_ = 0;
  uint64_t malb_moves_snap_ = 0;
  PercentileTracker response_s_;
  TimeSeries timeline_;
  bool started_ = false;
  std::vector<MutationRecord> mutations_;
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_CLUSTER_H_
