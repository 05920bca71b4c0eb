#include "optimizer/frontier_cache.h"

#include <cstring>

namespace fgro {
namespace {

// splitmix64: cheap, well-mixed 64-bit finalizer (same as PredictionKey's).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool SameGrid(const std::vector<ResourceConfig>& a,
              const std::vector<ResourceConfig>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (DoubleBits(a[i].cores) != DoubleBits(b[i].cores) ||
        DoubleBits(a[i].memory_gb) != DoubleBits(b[i].memory_gb)) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t FrontierKey::Hash() const {
  uint64_t h = Mix(static_cast<uint64_t>(static_cast<uint32_t>(job_id)) |
                   (static_cast<uint64_t>(static_cast<uint32_t>(stage_id))
                    << 32));
  h = Mix(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(template_id)) |
               (static_cast<uint64_t>(static_cast<uint32_t>(instance_count))
                << 32)));
  h = Mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(hardware_type)));
  h = Mix(h ^ rows_bits);
  h = Mix(h ^ bytes_bits);
  h = Mix(h ^ fraction_bits);
  h = Mix(h ^ cpu_bits);
  h = Mix(h ^ mem_bits);
  h = Mix(h ^ io_bits);
  h = Mix(h ^ theta0_cores_bits);
  h = Mix(h ^ theta0_memory_bits);
  h = Mix(h ^ grid_hash);
  h = Mix(h ^ model_tag);
  return h;
}

uint64_t FrontierGridHash(const std::vector<ResourceConfig>& grid) {
  uint64_t h = Mix(static_cast<uint64_t>(grid.size()));
  for (const ResourceConfig& theta : grid) {
    h = Mix(h ^ DoubleBits(theta.cores));
    h = Mix(h ^ DoubleBits(theta.memory_gb));
  }
  return h;
}

FrontierCache::FrontierCache(size_t capacity)
    : capacity_(capacity < kShards ? kShards : capacity) {}

bool FrontierCache::Lookup(const FrontierKey& key,
                           const std::vector<ResourceConfig>& grid,
                           std::shared_ptr<const FrontierEntry>* entry) {
  Shard& shard = ShardOf(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && SameGrid(it->second->grid, grid)) {
      *entry = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void FrontierCache::Insert(const FrontierKey& key,
                           std::shared_ptr<const FrontierEntry> entry) {
  const size_t shard_capacity = capacity_ / kShards;
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, inserted] = shard.map.emplace(key, std::move(entry));
  if (!inserted) return;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  shard.order.push_back(key);
  while (shard.order.size() > shard_capacity) {
    shard.map.erase(shard.order.front());
    shard.order.pop_front();
  }
}

void FrontierCache::EnsureModelTag(uint64_t tag) {
  if (last_tag_.load(std::memory_order_acquire) == tag) return;
  std::lock_guard<std::mutex> tag_lock(tag_mutex_);
  if (last_tag_.load(std::memory_order_acquire) == tag) return;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.model_tag != tag) {
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
    std::deque<FrontierKey> kept;
    for (const FrontierKey& k : shard.order) {
      if (k.model_tag == tag) kept.push_back(k);
    }
    shard.order = std::move(kept);
  }
  last_tag_.store(tag, std::memory_order_release);
}

void FrontierCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
    shard.order.clear();
  }
}

size_t FrontierCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

}  // namespace fgro
