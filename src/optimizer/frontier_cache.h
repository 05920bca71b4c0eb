#ifndef FGRO_OPTIMIZER_FRONTIER_CACHE_H_
#define FGRO_OPTIMIZER_FRONTIER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "moo/config_space.h"

namespace fgro {

/// Exact cache key of one frontier template: the canonical cluster
/// representative's Channel-2 identity, the machine bucket (discretized
/// state + hardware), the incumbent theta0, the content hash of the theta
/// grid, and the scoring model's params_tag. Everything a template's values
/// depend on is in the key, so a hit returns exactly what a fresh build
/// would compute — never an approximation — and the cache survives the
/// shard/reconfig views that renumber instance indices (the key carries the
/// instance's *content*, not its index; `instance_count` is included
/// because Channel 2's third feature is fraction * instance_count, which a
/// reduced stage view changes).
///
/// Like PredictionKey, the full tuple (not its hash) is the map key, and
/// Lookup additionally verifies the stored grid bit-for-bit: a 64-bit
/// grid-hash collision degrades to a miss instead of corrupting a replay.
struct FrontierKey {
  int32_t job_id = 0;
  int32_t stage_id = 0;
  int32_t template_id = 0;
  int32_t instance_count = 0;
  int32_t hardware_type = 0;
  uint64_t rows_bits = 0;      // canonical representative's input_rows
  uint64_t bytes_bits = 0;     // ... input_bytes
  uint64_t fraction_bits = 0;  // ... input_fraction
  uint64_t cpu_bits = 0;       // DiscretizeState() of the machine bucket
  uint64_t mem_bits = 0;
  uint64_t io_bits = 0;
  uint64_t theta0_cores_bits = 0;
  uint64_t theta0_memory_bits = 0;
  uint64_t grid_hash = 0;
  /// LatencyModel::params_tag() of the scoring model: a hot-swapped or
  /// fine-tuned model queries under a new tag and can never be served a
  /// prior model's template, whatever the eviction state.
  uint64_t model_tag = 0;

  bool operator==(const FrontierKey& other) const {
    return job_id == other.job_id && stage_id == other.stage_id &&
           template_id == other.template_id &&
           instance_count == other.instance_count &&
           hardware_type == other.hardware_type &&
           rows_bits == other.rows_bits && bytes_bits == other.bytes_bits &&
           fraction_bits == other.fraction_bits &&
           cpu_bits == other.cpu_bits && mem_bits == other.mem_bits &&
           io_bits == other.io_bits &&
           theta0_cores_bits == other.theta0_cores_bits &&
           theta0_memory_bits == other.theta0_memory_bits &&
           grid_hash == other.grid_hash && model_tag == other.model_tag;
  }

  uint64_t Hash() const;
};

struct FrontierKeyHash {
  size_t operator()(const FrontierKey& k) const {
    return static_cast<size_t>(k.Hash());
  }
};

/// Content hash of a theta grid (order-sensitive, over the raw double bit
/// patterns). Collisions are tolerated: Lookup verifies the stored grid.
uint64_t FrontierGridHash(const std::vector<ResourceConfig>& grid);

/// One memoized frontier template: the grid it was computed over, the
/// canonical representative's predicted latency per grid point, the Pareto
/// frontier of those points (descending latency), and the predicted latency
/// of keeping theta0. Immutable once inserted; readers hold shared_ptrs so
/// eviction never invalidates an in-flight solve.
struct FrontierEntry {
  std::vector<ResourceConfig> grid;
  std::vector<double> latencies;  // latencies[i] = predict(grid[i])
  std::vector<InstanceParetoPoint> frontier;
  double lat0 = 0.0;  // predicted latency of keeping theta0
};

/// Bounded, thread-safe cache of frontier templates for RAA's compressed
/// solve path (DESIGN.md §16). Modeled on PredictionMemo: sharded 16 ways
/// by key hash, FIFO eviction per shard, idempotent insert (two workers
/// racing on the same template both computed the same pure function of the
/// key, so either value is correct).
class FrontierCache {
 public:
  explicit FrontierCache(size_t capacity = 1 << 12);

  FrontierCache(const FrontierCache&) = delete;
  FrontierCache& operator=(const FrontierCache&) = delete;

  /// True and fills *entry on a hit. `grid` is verified bit-for-bit against
  /// the stored entry's grid, so a grid-hash collision is a miss, never a
  /// wrong answer. Bumps the hit/miss telemetry either way.
  bool Lookup(const FrontierKey& key, const std::vector<ResourceConfig>& grid,
              std::shared_ptr<const FrontierEntry>* entry);

  /// Inserts (idempotent: re-inserting an existing key is a no-op).
  void Insert(const FrontierKey& key,
              std::shared_ptr<const FrontierEntry> entry);

  /// Wholesale invalidation on model hot-swap: when `tag` differs from the
  /// last tag seen, drops every entry whose key carries a different
  /// model_tag. Entries under the current tag survive, so concurrent solves
  /// on the same model never lose warm templates. Safety does not depend on
  /// this being called — keys carry the tag — this bounds memory and makes
  /// the swap-invalidation observable.
  void EnsureModelTag(uint64_t tag);

  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t inserts() const { return inserts_.load(std::memory_order_relaxed); }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<FrontierKey, std::shared_ptr<const FrontierEntry>,
                       FrontierKeyHash>
        map;
    std::deque<FrontierKey> order;  // FIFO eviction
  };

  Shard& ShardOf(const FrontierKey& key) {
    return shards_[key.Hash() % kShards];
  }

  size_t capacity_;
  Shard shards_[kShards];
  std::mutex tag_mutex_;
  std::atomic<uint64_t> last_tag_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace fgro

#endif  // FGRO_OPTIMIZER_FRONTIER_CACHE_H_
