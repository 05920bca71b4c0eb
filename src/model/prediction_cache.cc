#include "model/prediction_cache.h"

#include <algorithm>

namespace fgro {
namespace {

// splitmix64: cheap, well-mixed 64-bit finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fingerprint(const PredictionKey& key) { return key.Hash() | 1; }

}  // namespace

uint64_t PredictionKey::Hash() const {
  uint64_t h = Mix(static_cast<uint64_t>(static_cast<uint32_t>(job_id)) |
                   (static_cast<uint64_t>(static_cast<uint32_t>(stage_id))
                    << 32));
  h = Mix(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(instance_idx)) |
               (static_cast<uint64_t>(static_cast<uint32_t>(hardware_type))
                << 32)));
  h = Mix(h ^ theta_cores_bits);
  h = Mix(h ^ theta_memory_bits);
  h = Mix(h ^ cpu_bits);
  h = Mix(h ^ mem_bits);
  h = Mix(h ^ io_bits);
  h = Mix(h ^ model_tag);
  return h;
}

PredictionMemo::PredictionMemo(size_t capacity)
    : buckets_(std::max<size_t>(1, capacity / kWays)),
      keys_(buckets_.size() * kWays),
      values_(buckets_.size() * kWays),
      next_victim_(buckets_.size(), 0) {}

bool PredictionMemo::FindLocked(size_t bucket, uint64_t fingerprint,
                                const PredictionKey& key,
                                double* value) const {
  const uint64_t* fingerprints = buckets_[bucket].fingerprint;
  for (size_t w = 0; w < kWays; ++w) {
    if (fingerprints[w] == fingerprint && keys_[bucket * kWays + w] == key) {
      *value = values_[bucket * kWays + w];
      return true;
    }
  }
  return false;
}

void PredictionMemo::InsertLocked(size_t bucket, uint64_t fingerprint,
                                  const PredictionKey& key, double value) {
  uint64_t* fingerprints = buckets_[bucket].fingerprint;
  size_t way = kWays;
  for (size_t w = 0; w < kWays; ++w) {
    if (fingerprints[w] == fingerprint && keys_[bucket * kWays + w] == key) {
      return;
    }
    if (fingerprints[w] == 0 && way == kWays) way = w;
  }
  if (way == kWays) {
    way = next_victim_[bucket];
    next_victim_[bucket] = static_cast<uint8_t>((way + 1) % kWays);
  }
  fingerprints[way] = fingerprint;
  keys_[bucket * kWays + way] = key;
  values_[bucket * kWays + way] = value;
}

void PredictionMemo::Count(uint64_t hits, uint64_t misses) {
  hits_.fetch_add(hits, std::memory_order_relaxed);
  misses_.fetch_add(misses, std::memory_order_relaxed);
  if (obs_hits_ != nullptr) {
    obs_hits_->Increment(hits);
    obs_misses_->Increment(misses);
  }
  if (obs_hit_ratio_ != nullptr) {
    const double h = static_cast<double>(this->hits());
    const double total = h + static_cast<double>(this->misses());
    obs_hit_ratio_->Set(total > 0.0 ? h / total : 0.0);
  }
}

bool PredictionMemo::Lookup(const PredictionKey& key, double* value) {
  uint64_t fingerprint = 0;
  const size_t bucket = Locate(key, &fingerprint);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(StripeOf(bucket).mutex);
    hit = FindLocked(bucket, fingerprint, key, value);
  }
  Count(hit ? 1 : 0, hit ? 0 : 1);
  return hit;
}

void PredictionMemo::Insert(const PredictionKey& key, double value) {
  uint64_t fingerprint = 0;
  const size_t bucket = Locate(key, &fingerprint);
  std::lock_guard<std::mutex> lock(StripeOf(bucket).mutex);
  InsertLocked(bucket, fingerprint, key, value);
}

size_t PredictionMemo::Locate(const PredictionKey& key,
                              uint64_t* fingerprint) const {
  *fingerprint = Fingerprint(key);
  // Multiply-shift range reduction on the high bits: any bucket count, and
  // independent of the low bit the fingerprint forces to 1.
  const size_t bucket = static_cast<size_t>(
      (static_cast<unsigned __int128>(*fingerprint) * buckets_.size()) >> 64);
  __builtin_prefetch(&buckets_[bucket]);
  return bucket;
}

void PredictionMemo::LookupBatch(std::span<const PredictionKey> keys,
                                 double* values, std::vector<int>* misses) {
  const size_t n = keys.size();
  uint64_t hits = 0;
  uint64_t fingerprints[kBlock];
  size_t buckets[kBlock];
  for (size_t start = 0; start < n; start += kBlock) {
    const size_t count = std::min(kBlock, n - start);
    for (size_t k = 0; k < count; ++k) {
      buckets[k] = Locate(keys[start + k], &fingerprints[k]);
    }
    for (size_t k = 0; k < count; ++k) {
      const size_t i = start + k;
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(StripeOf(buckets[k]).mutex);
        hit = FindLocked(buckets[k], fingerprints[k], keys[i], &values[i]);
      }
      if (hit) {
        ++hits;
      } else {
        misses->push_back(static_cast<int>(i));
      }
    }
  }
  Count(hits, n - hits);
}

void PredictionMemo::InsertBatch(std::span<const PredictionKey> keys,
                                 const double* values,
                                 std::span<const int> rows) {
  uint64_t fingerprints[kBlock];
  size_t buckets[kBlock];
  for (size_t start = 0; start < rows.size(); start += kBlock) {
    const size_t count = std::min(kBlock, rows.size() - start);
    for (size_t k = 0; k < count; ++k) {
      buckets[k] = Locate(keys[static_cast<size_t>(rows[start + k])],
                          &fingerprints[k]);
    }
    for (size_t k = 0; k < count; ++k) {
      const size_t i = static_cast<size_t>(rows[start + k]);
      std::lock_guard<std::mutex> lock(StripeOf(buckets[k]).mutex);
      InsertLocked(buckets[k], fingerprints[k], keys[i], values[i]);
    }
  }
}

void PredictionMemo::Clear() {
  for (size_t s = 0; s < kStripes; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mutex);
    for (size_t b = s; b < buckets_.size(); b += kStripes) {
      buckets_[b] = Bucket{};
      next_victim_[b] = 0;
    }
  }
}

size_t PredictionMemo::size() const {
  size_t total = 0;
  for (size_t s = 0; s < kStripes; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mutex);
    for (size_t b = s; b < buckets_.size(); b += kStripes) {
      for (uint64_t fingerprint : buckets_[b].fingerprint) {
        total += fingerprint != 0 ? 1 : 0;
      }
    }
  }
  return total;
}

void PredictionMemo::set_obs(const obs::Obs& obs) {
  if (obs.metrics == nullptr) {
    obs_hits_ = nullptr;
    obs_misses_ = nullptr;
    obs_hit_ratio_ = nullptr;
    return;
  }
  obs_hits_ = obs.metrics->GetCounter("model.memo.hits");
  obs_misses_ = obs.metrics->GetCounter("model.memo.misses");
  obs_hit_ratio_ = obs.metrics->GetGauge("model.memo.hit_ratio");
}

}  // namespace fgro
