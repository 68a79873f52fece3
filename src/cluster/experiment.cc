#include "src/cluster/experiment.h"

#include <future>
#include <map>
#include <mutex>
#include <sstream>

namespace tashkent {

ClusterConfig MakeClusterConfig(Bytes ram, size_t replicas, uint64_t seed) {
  ClusterConfig c;
  c.replicas = replicas;
  c.replica.memory = ram;
  c.seed = seed;
  return c;
}

int CalibratedClients(const Workload& workload, const std::string& mix,
                      const ClusterConfig& config) {
  // The cached value must be a pure function of the cache key, or the entry
  // would depend on which caller seeded it first and parallel campaign runs
  // would stop being bit-identical to serial ones. The key is
  // workload/mix/DB-size/RAM, so the sweep runs against a CANONICAL config
  // rebuilt from exactly those fields — caller tweaks that the key does not
  // capture (seed, gatekeeper limits, MALB knobs, replica count) are
  // deliberately ignored, which also matches the paper's methodology: the
  // client population is a property of the workload on a standalone replica,
  // not of the cluster configuration under test.
  const ClusterConfig canonical = MakeClusterConfig(config.replica.memory);

  // Concurrent callers (campaign worker threads) dedupe through a
  // shared_future per key: the first caller computes, the rest wait on the
  // same result instead of re-running the multi-minute sweep.
  static std::mutex mu;
  static std::map<std::string, std::shared_future<int>> cache;

  std::ostringstream key;
  key << workload.name << '/' << mix << '/' << workload.schema.TotalBytes() << '/'
      << config.replica.memory;

  std::packaged_task<int()> task;
  std::shared_future<int> fut;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key.str());
    if (it != cache.end()) {
      fut = it->second;
    } else {
      task = std::packaged_task<int()>([&workload, &mix, &canonical]() {
        // The fan-out parallelizes the sweep's independent standalone
        // clusters; the result is fan-out-independent (see calibration.h),
        // so the cache stays a pure function of its key.
        return CalibrateClientsPerReplica(workload, mix, canonical, Seconds(40.0),
                                          Seconds(80.0), CalibrationFanout())
            .clients_per_replica;
      });
      fut = task.get_future().share();
      cache.emplace(key.str(), fut);
    }
  }
  if (task.valid()) {
    task();  // run the sweep outside the lock; waiters unblock via the future
  }
  return fut.get();
}

}  // namespace tashkent
