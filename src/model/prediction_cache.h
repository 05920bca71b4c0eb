#ifndef FGRO_MODEL_PREDICTION_CACHE_H_
#define FGRO_MODEL_PREDICTION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "obs/obs.h"

namespace fgro {

/// Exact cache key of one prediction query. The model's inputs depend on
/// the machine state only through DiscretizeState (Channel 4), so keying on
/// the *discretized* state bit patterns — plus the raw theta bits, the
/// hardware type, and the (job, stage, instance) identity of the embedding
/// — makes a hit return exactly the value the model would have computed,
/// never an approximation. A hit compares the full tuple, not just its
/// hash: a 64-bit hash collision could otherwise silently corrupt a replay.
struct PredictionKey {
  int32_t job_id = 0;
  int32_t stage_id = 0;
  int32_t instance_idx = 0;
  int32_t hardware_type = 0;
  uint64_t theta_cores_bits = 0;
  uint64_t theta_memory_bits = 0;
  uint64_t cpu_bits = 0;
  uint64_t mem_bits = 0;
  uint64_t io_bits = 0;
  /// LatencyModel::params_tag() of the scoring model. Keys identify inputs
  /// *and* weights: a hot-swapped or fine-tuned model queries under a new
  /// tag and can never be served a prior model's cached value.
  uint64_t model_tag = 0;

  bool operator==(const PredictionKey& other) const {
    return job_id == other.job_id && stage_id == other.stage_id &&
           instance_idx == other.instance_idx &&
           hardware_type == other.hardware_type &&
           theta_cores_bits == other.theta_cores_bits &&
           theta_memory_bits == other.theta_memory_bits &&
           cpu_bits == other.cpu_bits && mem_bits == other.mem_bits &&
           io_bits == other.io_bits && model_tag == other.model_tag;
  }

  uint64_t Hash() const;
};

/// Bounded, thread-safe memo of prediction queries for the optimizer hot
/// path. The clustered IPA/RAA variants and the evolutionary baselines
/// re-issue identical (representative, machine bucket, theta) queries many
/// times per stage; a hit skips the whole forward pass.
///
/// A flat set-associative table allocated once at construction: capacity /
/// 8 buckets of 8 ways. A bucket's 64-bit fingerprints (the key hash with
/// the low bit forced to 1, so 0 marks an empty way) fill one 64-byte
/// line; the full keys and the values sit in parallel arrays. A miss reads
/// that one line. A hit also compares the full key field by field, so it
/// is exact and a fingerprint collision is a miss. Insert writes in place
/// (an empty way, else a round-robin victim of the full bucket) and never
/// allocates. Buckets are guarded by 16 striped mutexes.
///
/// Values for a key are immutable while it is stored, so a replay is
/// byte-identical whether any given query hits or misses — which is what
/// keeps batched/parallel replays identical to the scalar run even though
/// hit/miss *counters* may differ across thread interleavings.
///
/// Keys carry the scoring model's params_tag, so the memo stays valid
/// across Train/FineTune/hot-swap: entries written under old weights are
/// simply unreachable (and get overwritten) once the model re-tags.
class PredictionMemo {
 public:
  /// `capacity` is rounded down to whole 8-way buckets, at least one;
  /// capacity() reports the result, which bounds size().
  explicit PredictionMemo(size_t capacity = 1 << 16);

  PredictionMemo(const PredictionMemo&) = delete;
  PredictionMemo& operator=(const PredictionMemo&) = delete;

  /// True and fills *value on a hit. Bumps the hit/miss telemetry either
  /// way.
  bool Lookup(const PredictionKey& key, double* value);

  /// Inserts (idempotent: re-inserting a stored key is a no-op, so two
  /// workers racing on the same miss both record the same value).
  void Insert(const PredictionKey& key, double value);

  /// Lookup over every key: fills values[i] on a hit and appends i to
  /// *misses (in ascending order) otherwise. Bucket lines are prefetched a
  /// block of keys ahead, and the telemetry is bumped once per call.
  void LookupBatch(std::span<const PredictionKey> keys, double* values,
                   std::vector<int>* misses);

  /// Insert(keys[i], values[i]) for every i in `rows`, in order.
  void InsertBatch(std::span<const PredictionKey> keys, const double* values,
                   std::span<const int> rows);

  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Occupied ways; scans the table.
  size_t size() const;
  size_t capacity() const { return buckets_.size() * kWays; }

  /// Wires (or with a default Obs, unwires) the hit/miss counters
  /// ("model.memo.hits"/"model.memo.misses") and the running hit-ratio
  /// gauge ("model.memo.hit_ratio", hits/(hits+misses), refreshed after
  /// every Lookup and LookupBatch). Resolve-once like
  /// LatencyModel::set_obs; not thread-safe against concurrent Lookup.
  void set_obs(const obs::Obs& obs);

 private:
  static constexpr size_t kWays = 8;
  static constexpr size_t kStripes = 16;
  static constexpr size_t kBlock = 16;  // batch keys located per prefetch
  struct alignas(64) Bucket {
    uint64_t fingerprint[kWays] = {};  // 0 = empty way
  };
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
  };

  /// The key's fingerprint into *fingerprint; returns its bucket, whose
  /// line it prefetches.
  size_t Locate(const PredictionKey& key, uint64_t* fingerprint) const;
  Stripe& StripeOf(size_t bucket) { return stripes_[bucket % kStripes]; }
  /// Both require the bucket's stripe mutex.
  bool FindLocked(size_t bucket, uint64_t fingerprint,
                  const PredictionKey& key, double* value) const;
  void InsertLocked(size_t bucket, uint64_t fingerprint,
                    const PredictionKey& key, double value);
  void Count(uint64_t hits, uint64_t misses);

  std::vector<Bucket> buckets_;
  std::vector<PredictionKey> keys_;  // way w of bucket b at b * kWays + w
  std::vector<double> values_;
  std::vector<uint8_t> next_victim_;  // per bucket: round-robin eviction
  Stripe stripes_[kStripes];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Gauge* obs_hit_ratio_ = nullptr;
};

}  // namespace fgro

#endif  // FGRO_MODEL_PREDICTION_CACHE_H_
