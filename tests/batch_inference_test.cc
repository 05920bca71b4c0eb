// Batched-inference engine tests: PredictBatch must be bit-identical to the
// scalar path for every model kind, the prediction memo must be an exact
// (never approximate) cache, and the parallel helpers must stay
// deterministic. Untrained models are used throughout — Xavier-initialized
// weights and unfitted standardizers exercise the full forward pass without
// paying for training.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "model/latency_model.h"
#include "model/prediction_cache.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "optimizer/ipa.h"
#include "trace/workload_gen.h"

namespace fgro {
namespace {

Result<Workload> SmallWorkload() {
  WorkloadGenerator gen(GetWorkloadProfile(WorkloadId::kA, 0.03));
  return gen.Generate();
}

std::vector<LatencyModel::PredictionCandidate> RandomCandidates(int count,
                                                                Rng* rng) {
  std::vector<LatencyModel::PredictionCandidate> candidates;
  candidates.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    LatencyModel::PredictionCandidate c;
    c.theta.cores = 0.5 * static_cast<double>(rng->UniformInt(1, 16));
    c.theta.memory_gb = static_cast<double>(rng->UniformInt(1, 64));
    c.state.cpu_util = rng->Uniform();
    c.state.mem_util = rng->Uniform();
    c.state.io_util = rng->Uniform();
    c.hardware_type = static_cast<int>(rng->UniformInt(0, 4));
    candidates.push_back(c);
  }
  return candidates;
}

/// Bit-exact comparison: EXPECT_DOUBLE_EQ allows 4 ULPs, the batched
/// engine's contract is 0.
void ExpectBitIdentical(double a, double b, const char* what) {
  EXPECT_EQ(a, b) << what << ": " << a << " vs " << b;
}

TEST(PredictBatchTest, MatchesScalarBitIdenticallyAcrossModelKinds) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  const ModelKind kinds[] = {ModelKind::kMciGtn, ModelKind::kMciTlstm,
                             ModelKind::kMciQppnet, ModelKind::kTlstmOriginal,
                             ModelKind::kQppnetOriginal};
  for (ModelKind kind : kinds) {
    LatencyModel::Options options;
    options.kind = kind;
    LatencyModel model(options);
    Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
    ASSERT_TRUE(embedded.ok());

    Rng rng(41 + static_cast<uint64_t>(kind));
    // 43 candidates: not a multiple of the GEMM's 16-row panel, so the
    // padded last panel runs too.
    std::vector<LatencyModel::PredictionCandidate> candidates =
        RandomCandidates(43, &rng);
    std::vector<double> batched(candidates.size());
    LatencyModel::BatchScratch scratch;
    model.PredictBatch(embedded.value(), candidates, batched.data(),
                       &scratch);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double scalar = model.PredictFromEmbedding(
          embedded.value(), candidates[i].theta, candidates[i].state,
          candidates[i].hardware_type);
      ExpectBitIdentical(batched[i], scalar, ModelKindName(kind));
    }
  }
}

TEST(PredictBatchTest, MixedEmbeddingQueriesMatchScalar) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  ASSERT_GE(stage.instance_count(), 2);
  LatencyModel model(LatencyModel::Options{});
  Result<LatencyModel::EmbeddedInstance> e0 = model.Embed(stage, 0);
  Result<LatencyModel::EmbeddedInstance> e1 = model.Embed(stage, 1);
  ASSERT_TRUE(e0.ok() && e1.ok());

  Rng rng(77);
  std::vector<LatencyModel::PredictionCandidate> candidates =
      RandomCandidates(30, &rng);
  std::vector<LatencyModel::PredictionQuery> queries;
  for (size_t i = 0; i < candidates.size(); ++i) {
    queries.push_back({i % 2 == 0 ? &e0.value() : &e1.value(),
                       candidates[i]});
  }
  std::vector<double> batched(queries.size());
  LatencyModel::BatchScratch scratch;
  model.PredictBatch(queries, batched.data(), &scratch);
  for (size_t i = 0; i < queries.size(); ++i) {
    const double scalar = model.PredictFromEmbedding(
        *queries[i].embedded, candidates[i].theta, candidates[i].state,
        candidates[i].hardware_type);
    ExpectBitIdentical(batched[i], scalar, "mixed queries");
  }
}

TEST(PredictBatchTest, LargeBatchCrossesChunkBoundaryBitIdentically) {
  // 600 rows forces at least three internal 256-row chunks.
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  LatencyModel model(LatencyModel::Options{});
  Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
  ASSERT_TRUE(embedded.ok());

  Rng rng(5);
  std::vector<LatencyModel::PredictionCandidate> candidates =
      RandomCandidates(600, &rng);
  std::vector<double> batched(candidates.size());
  LatencyModel::BatchScratch scratch;
  model.PredictBatch(embedded.value(), candidates, batched.data(), &scratch);
  for (size_t i = 0; i < candidates.size(); i += 37) {
    const double scalar = model.PredictFromEmbedding(
        embedded.value(), candidates[i].theta, candidates[i].state,
        candidates[i].hardware_type);
    ExpectBitIdentical(batched[i], scalar, "chunked batch");
  }
}

TEST(PredictBatchTest, MemoHitsReturnIdenticalValues) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  LatencyModel model(LatencyModel::Options{});
  Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
  ASSERT_TRUE(embedded.ok());

  Rng rng(11);
  std::vector<LatencyModel::PredictionCandidate> candidates =
      RandomCandidates(25, &rng);
  PredictionMemo memo;
  LatencyModel::BatchScratch scratch;
  std::vector<double> first(candidates.size());
  model.PredictBatch(embedded.value(), candidates, first.data(), &scratch,
                     &memo);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), candidates.size());

  std::vector<double> second(candidates.size());
  model.PredictBatch(embedded.value(), candidates, second.data(), &scratch,
                     &memo);
  EXPECT_EQ(memo.hits(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ExpectBitIdentical(first[i], second[i], "memo hit");
  }
}

TEST(PredictionMemoTest, KeyDiscriminatesEveryField) {
  PredictionMemo memo;
  PredictionKey base;
  base.job_id = 3;
  base.stage_id = 4;
  base.instance_idx = 5;
  base.hardware_type = 1;
  base.theta_cores_bits = 100;
  base.theta_memory_bits = 200;
  base.cpu_bits = 300;
  base.mem_bits = 400;
  base.io_bits = 500;
  memo.Insert(base, 42.0);

  double value = 0.0;
  ASSERT_TRUE(memo.Lookup(base, &value));
  EXPECT_EQ(value, 42.0);

  // Each single-field perturbation must miss.
  auto expect_miss = [&](PredictionKey key) {
    double v = 0.0;
    EXPECT_FALSE(memo.Lookup(key, &v));
  };
  PredictionKey k = base;
  k.job_id++;
  expect_miss(k);
  k = base;
  k.stage_id++;
  expect_miss(k);
  k = base;
  k.instance_idx++;
  expect_miss(k);
  k = base;
  k.hardware_type++;
  expect_miss(k);
  k = base;
  k.theta_cores_bits++;
  expect_miss(k);
  k = base;
  k.theta_memory_bits++;
  expect_miss(k);
  k = base;
  k.cpu_bits++;
  expect_miss(k);
  k = base;
  k.mem_bits++;
  expect_miss(k);
  k = base;
  k.io_bits++;
  expect_miss(k);
}

TEST(PredictionMemoTest, BoundedEvictionAndClear) {
  // Tiny capacity: 32 total = 2 per shard. Inserting far more than capacity
  // keeps size() bounded and never corrupts surviving entries.
  PredictionMemo memo(32);
  for (int i = 0; i < 1000; ++i) {
    PredictionKey key;
    key.job_id = i;
    memo.Insert(key, static_cast<double>(i));
  }
  EXPECT_LE(memo.size(), 32u);
  EXPECT_GT(memo.size(), 0u);
  // Any surviving key must return the value it was inserted with.
  int survivors = 0;
  for (int i = 0; i < 1000; ++i) {
    PredictionKey key;
    key.job_id = i;
    double v = 0.0;
    if (memo.Lookup(key, &v)) {
      EXPECT_EQ(v, static_cast<double>(i));
      ++survivors;
    }
  }
  EXPECT_EQ(static_cast<size_t>(survivors), memo.size());
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
}

TEST(PredictionMemoTest, InsertIsIdempotent) {
  PredictionMemo memo;
  PredictionKey key;
  key.job_id = 7;
  memo.Insert(key, 1.5);
  memo.Insert(key, 99.0);  // racing re-insert of the same key is a no-op
  double v = 0.0;
  ASSERT_TRUE(memo.Lookup(key, &v));
  EXPECT_EQ(v, 1.5);
}

TEST(PredictionMemoTest, ConcurrentStressKeepsValuesConsistent) {
  // 8 threads hammer one memo with overlapping key ranges; every hit must
  // return the canonical value of its key. Run under TSan in CI.
  PredictionMemo memo(1 << 12);
  std::atomic<int> inconsistencies{0};
  auto worker = [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 1);
    for (int iter = 0; iter < 4000; ++iter) {
      PredictionKey key;
      key.job_id = static_cast<int32_t>(rng.UniformInt(0, 255));
      key.stage_id = static_cast<int32_t>(rng.UniformInt(0, 7));
      const double canonical =
          static_cast<double>(key.job_id * 8 + key.stage_id);
      double v = 0.0;
      if (memo.Lookup(key, &v)) {
        if (v != canonical) inconsistencies.fetch_add(1);
      } else {
        memo.Insert(key, canonical);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(memo.hits(), 0u);
}

PredictionKey JobKey(int job) {
  PredictionKey key;
  key.job_id = job;
  return key;
}

TEST(PredictionMemoTest, FullBucketEvictsRoundRobin) {
  // Capacity 8 is one 8-way bucket, so every key shares it. Twelve inserts
  // fill it, then overwrite ways 0..3 in turn: keys 0..3 go, 4..11 stay.
  PredictionMemo memo(8);
  ASSERT_EQ(memo.capacity(), 8u);
  for (int i = 0; i < 12; ++i) {
    memo.Insert(JobKey(i), 100.0 + i);
    EXPECT_EQ(memo.size(), static_cast<size_t>(std::min(i + 1, 8)));
  }
  for (int i = 0; i < 12; ++i) {
    double v = 0.0;
    const bool hit = memo.Lookup(JobKey(i), &v);
    EXPECT_EQ(hit, i >= 4) << "key " << i;
    if (hit) {
      EXPECT_EQ(v, 100.0 + i) << "key " << i;
    }
  }
  // The victim cursor keeps turning: the next insert evicts key 4.
  memo.Insert(JobKey(12), 112.0);
  double v = 0.0;
  EXPECT_FALSE(memo.Lookup(JobKey(4), &v));
  EXPECT_TRUE(memo.Lookup(JobKey(5), &v));
  EXPECT_TRUE(memo.Lookup(JobKey(12), &v));
  EXPECT_EQ(v, 112.0);
  // Re-inserting a stored key neither moves the cursor nor changes it.
  memo.Insert(JobKey(12), -1.0);
  EXPECT_TRUE(memo.Lookup(JobKey(12), &v));
  EXPECT_EQ(v, 112.0);
  EXPECT_TRUE(memo.Lookup(JobKey(5), &v));
}

TEST(PredictionMemoTest, SizeNeverExceedsCapacityAtAnyCapacity) {
  // Including capacities below 16 stripes x 8 ways.
  for (size_t requested : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                           size_t{9}, size_t{31}, size_t{100}, size_t{127},
                           size_t{128}, size_t{1000}}) {
    PredictionMemo memo(requested);
    EXPECT_GE(memo.capacity(), 8u) << requested;
    EXPECT_LE(memo.capacity(), std::max<size_t>(requested, 8)) << requested;
    for (int i = 0; i < 3000; ++i) memo.Insert(JobKey(i), i);
    EXPECT_LE(memo.size(), memo.capacity()) << requested;
    size_t survivors = 0;
    for (int i = 0; i < 3000; ++i) {
      double v = 0.0;
      if (memo.Lookup(JobKey(i), &v)) {
        EXPECT_EQ(v, static_cast<double>(i));
        ++survivors;
      }
    }
    EXPECT_EQ(survivors, memo.size()) << requested;
  }
}

TEST(PredictionMemoTest, BatchCallsAgreeWithSingleCalls) {
  // The same traffic through Lookup/Insert and through LookupBatch/
  // InsertBatch: identical hits, values, misses and counters. 40 keys per
  // round cross the 16-key prefetch blocks; a small memo makes rounds evict.
  PredictionMemo single(64);
  PredictionMemo batched(64);
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    std::vector<PredictionKey> keys;
    for (int k = 0; k < 40; ++k) {
      PredictionKey key;
      key.job_id = static_cast<int32_t>(rng.UniformInt(0, 99));
      key.theta_cores_bits = static_cast<uint64_t>(rng.UniformInt(0, 3));
      keys.push_back(key);
    }
    std::vector<double> single_values(keys.size(), -1.0);
    std::vector<int> single_misses;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!single.Lookup(keys[i], &single_values[i])) {
        single_misses.push_back(static_cast<int>(i));
      }
    }
    std::vector<double> batched_values(keys.size(), -1.0);
    std::vector<int> batched_misses;
    batched.LookupBatch(keys, batched_values.data(), &batched_misses);
    ASSERT_EQ(single_misses, batched_misses) << "round " << round;
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(single_values[i], batched_values[i]);
    }
    for (int i : single_misses) {
      const double value = keys[static_cast<size_t>(i)].job_id * 10.0 +
                           keys[static_cast<size_t>(i)].theta_cores_bits;
      single_values[static_cast<size_t>(i)] = value;
      batched_values[static_cast<size_t>(i)] = value;
      single.Insert(keys[static_cast<size_t>(i)], value);
    }
    batched.InsertBatch(keys, batched_values.data(), batched_misses);
    EXPECT_EQ(single.hits(), batched.hits());
    EXPECT_EQ(single.misses(), batched.misses());
    EXPECT_EQ(single.size(), batched.size());
  }
  EXPECT_GT(batched.hits(), 0u);
  EXPECT_GT(batched.misses(), 0u);
}

TEST(PredictionMemoTest, GaugeTracksHitRatioAfterBatch) {
  obs::MetricsRegistry registry;
  PredictionMemo memo;
  memo.set_obs(obs::Obs{&registry, nullptr});
  std::vector<PredictionKey> keys;
  for (int i = 0; i < 37; ++i) keys.push_back(JobKey(i));
  std::vector<double> values(keys.size());
  std::vector<int> misses;
  memo.LookupBatch(keys, values.data(), &misses);
  EXPECT_EQ(misses.size(), keys.size());
  // Store every third key, then look all of them up again.
  std::vector<int> stored;
  for (int i = 0; i < 37; i += 3) stored.push_back(i);
  memo.InsertBatch(keys, values.data(), stored);
  misses.clear();
  memo.LookupBatch(keys, values.data(), &misses);
  EXPECT_EQ(memo.hits(), stored.size());
  EXPECT_EQ(memo.misses(), 2 * keys.size() - stored.size());
  EXPECT_EQ(registry.GetCounter("model.memo.hits")->value(), memo.hits());
  EXPECT_EQ(registry.GetCounter("model.memo.misses")->value(),
            memo.misses());
  EXPECT_EQ(registry.GetGauge("model.memo.hit_ratio")->value(),
            static_cast<double>(memo.hits()) /
                static_cast<double>(memo.hits() + memo.misses()));
}

TEST(PredictionMemoTest, ConcurrentBatchStressKeepsValuesConsistent) {
  // The batch-API variant of ConcurrentStressKeepsValuesConsistent: 8
  // threads issue 24-key LookupBatch/InsertBatch rounds over overlapping
  // keys; every hit must return the canonical value of its key. Run under
  // TSan in CI.
  PredictionMemo memo(1 << 12);
  std::atomic<int> inconsistencies{0};
  auto canonical = [](const PredictionKey& key) {
    return static_cast<double>(key.job_id * 8 + key.stage_id);
  };
  auto worker = [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 101);
    std::vector<PredictionKey> keys(24);
    std::vector<double> values(keys.size());
    std::vector<int> misses;
    for (int iter = 0; iter < 400; ++iter) {
      for (PredictionKey& key : keys) {
        key.job_id = static_cast<int32_t>(rng.UniformInt(0, 255));
        key.stage_id = static_cast<int32_t>(rng.UniformInt(0, 7));
      }
      misses.clear();
      memo.LookupBatch(keys, values.data(), &misses);
      size_t next_miss = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (next_miss < misses.size() &&
            misses[next_miss] == static_cast<int>(i)) {
          values[i] = canonical(keys[i]);
          ++next_miss;
        } else if (values[i] != canonical(keys[i])) {
          inconsistencies.fetch_add(1);
        }
      }
      memo.InsertBatch(keys, values.data(), misses);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_EQ(memo.hits() + memo.misses(), 8u * 400u * 24u);
  EXPECT_LE(memo.size(), memo.capacity());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  ParallelFor(&pool, 257, [&](int i) { touched[static_cast<size_t>(i)]++; });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
  // Null pool degrades to serial.
  std::vector<int> serial(31, 0);
  ParallelFor(nullptr, 31, [&](int i) { serial[static_cast<size_t>(i)]++; });
  for (int v : serial) EXPECT_EQ(v, 1);
}

TEST(EmbedBatchTest, MatchesPerInstanceEmbedAcrossModelKinds) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage* stage = &workload->jobs[0].stages[0];
  for (const Job& job : workload->jobs) {
    for (const Stage& s : job.stages) {
      if (s.instance_count() > stage->instance_count()) stage = &s;
    }
  }
  // Reversed, with a repeat: a row's embedding must not depend on where in
  // the batch it sits or on which other graphs share it.
  std::vector<int> ids;
  for (int i = stage->instance_count(); i-- > 0;) ids.push_back(i);
  ids.push_back(0);
  const ModelKind kinds[] = {ModelKind::kMciGtn, ModelKind::kMciTlstm,
                             ModelKind::kMciQppnet};
  for (ModelKind kind : kinds) {
    LatencyModel::Options options;
    options.kind = kind;
    LatencyModel model(options);
    Result<std::vector<LatencyModel::EmbeddedInstance>> batch =
        model.EmbedBatch(*stage, ids);
    ASSERT_TRUE(batch.ok()) << ModelKindName(kind);
    ASSERT_EQ(batch->size(), ids.size());
    for (size_t k = 0; k < ids.size(); ++k) {
      Result<LatencyModel::EmbeddedInstance> one = model.Embed(*stage, ids[k]);
      ASSERT_TRUE(one.ok());
      const LatencyModel::EmbeddedInstance& e = (*batch)[k];
      EXPECT_EQ(e.stage, stage);
      EXPECT_EQ(e.instance_idx, ids[k]);
      ASSERT_EQ(e.plan_embedding.size(), one->plan_embedding.size());
      for (size_t d = 0; d < e.plan_embedding.size(); ++d) {
        ExpectBitIdentical(e.plan_embedding[d], one->plan_embedding[d],
                           ModelKindName(kind));
      }
      ASSERT_EQ(e.ch2_features.size(), one->ch2_features.size());
      for (size_t d = 0; d < e.ch2_features.size(); ++d) {
        ExpectBitIdentical(e.ch2_features[d], one->ch2_features[d],
                           ModelKindName(kind));
      }
    }
  }
  // One invalid instance fails the whole batch.
  LatencyModel gtn(LatencyModel::Options{});
  EXPECT_FALSE(gtn.EmbedBatch(*stage, {0, stage->instance_count()}).ok());
}

// Test-only scalar reference for BuildBplMatrix: one Embed per row and one
// PredictFromEmbedding per cell, in row-major order. The bit-identity
// oracle for the batched matrix build.
std::vector<std::vector<double>> ScalarBplMatrix(
    const SchedulingContext& context, const std::vector<int>& instance_rows,
    const std::vector<int>& machine_cols) {
  const LatencyModel& model = *context.model;
  std::vector<std::vector<double>> L(
      instance_rows.size(), std::vector<double>(machine_cols.size()));
  for (size_t i = 0; i < instance_rows.size(); ++i) {
    Result<LatencyModel::EmbeddedInstance> embedded =
        model.Embed(*context.stage, instance_rows[i]);
    EXPECT_TRUE(embedded.ok());
    if (!embedded.ok()) return {};
    for (size_t j = 0; j < machine_cols.size(); ++j) {
      const Machine& machine = context.cluster->machine(machine_cols[j]);
      L[i][j] = model.PredictFromEmbedding(embedded.value(), context.theta0,
                                           machine.state(),
                                           machine.hardware().id);
    }
  }
  return L;
}

TEST(BplMatrixTest, BatchedParallelMatchesScalarSequential) {
  // The IPA latency matrix must be byte-identical between the scalar
  // sequential build and the batched build fanned across a pool, memo on.
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  LatencyModel model(LatencyModel::Options{});
  Cluster cluster(ClusterOptions{.num_machines = 12, .seed = 3});

  SchedulingContext context;
  context.stage = &stage;
  context.cluster = &cluster;
  context.model = &model;

  std::vector<int> instance_rows;
  for (int i = 0; i < stage.instance_count(); ++i) instance_rows.push_back(i);
  std::vector<int> machine_cols = cluster.AvailableMachines(context.theta0);
  ASSERT_FALSE(machine_cols.empty());

  const std::vector<std::vector<double>> scalar_matrix =
      ScalarBplMatrix(context, instance_rows, machine_cols);

  ThreadPool pool(4);
  PredictionMemo memo;
  context.worker_pool = &pool;
  context.memo = &memo;
  std::vector<std::vector<double>> batched_matrix;
  EmbeddingTable embeddings;
  ASSERT_TRUE(BuildBplMatrix(context, instance_rows, machine_cols,
                             &embeddings, &batched_matrix));
  // And once more through the memo (all hits), embedding afresh.
  std::vector<std::vector<double>> memoized_matrix;
  EmbeddingTable fresh_embeddings;
  ASSERT_TRUE(BuildBplMatrix(context, instance_rows, machine_cols,
                             &fresh_embeddings, &memoized_matrix));
  EXPECT_GT(memo.hits(), 0u);

  ASSERT_EQ(scalar_matrix.size(), batched_matrix.size());
  for (size_t i = 0; i < scalar_matrix.size(); ++i) {
    ASSERT_EQ(scalar_matrix[i].size(), batched_matrix[i].size());
    for (size_t j = 0; j < scalar_matrix[i].size(); ++j) {
      ExpectBitIdentical(scalar_matrix[i][j], batched_matrix[i][j],
                         "bpl scalar vs batched");
      ExpectBitIdentical(scalar_matrix[i][j], memoized_matrix[i][j],
                         "bpl scalar vs memoized");
    }
  }
}

TEST(LinearRangeTest, ResumedRangeMatchesForwardBatchBitwise) {
  // A prefix over columns [0, split) that starts a range over [split, in)
  // must equal the full-row ForwardBatch bit for bit: at 1 row, a padded
  // panel, a full panel, and panels plus a remainder; at the empty, one-
  // column, head-sized and all-but-one-column prefixes. Start rows are
  // handed over in reverse order, so no row resumes from its own slot.
  constexpr int kIn = 46;
  Rng rng(23);
  Linear layer(kIn, 47, &rng);  // odd: the kernel's remainder row runs
  Rng data_rng(24);
  for (int rows : {1, 15, 16, 17, 33}) {
    Mat x;
    x.Resize(rows, kIn);
    for (double& v : x.data) v = data_rng.Normal();
    Mat full;
    layer.ForwardBatch(x, &full);
    for (int split : {0, 1, 35, kIn - 1}) {
      SCOPED_TRACE(::testing::Message() << rows << " rows, split " << split);
      Mat head, tail;
      head.Resize(rows, split);
      tail.Resize(rows, kIn - split);
      for (int r = 0; r < rows; ++r) {
        std::copy(x.Row(r), x.Row(r) + split, head.Row(r));
        std::copy(x.Row(rows - 1 - r) + split, x.Row(rows - 1 - r) + kIn,
                  tail.Row(r));
      }
      Mat prefix;
      layer.ForwardRange(head, 0, {}, &prefix);
      std::vector<const double*> starts;
      for (int r = 0; r < rows; ++r) starts.push_back(prefix.Row(rows - 1 - r));
      Mat y;
      layer.ForwardRange(tail, split, starts, &y);
      ASSERT_EQ(y.rows, rows);
      ASSERT_EQ(y.cols, full.cols);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < y.cols; ++c) {
          ExpectBitIdentical(y.Row(r)[c], full.Row(rows - 1 - r)[c],
                             "resumed range");
        }
      }
    }
  }
}

TEST(MlpBatchTest, ForwardBatchFromPrefixMatchesForwardBatch) {
  Rng rng(31);
  Mlp mlp({46, 48, 48, 1}, &rng);
  Rng data_rng(32);
  Mat x;
  x.Resize(21, 46);
  for (double& v : x.data) v = data_rng.Normal();
  MlpScratch scratch;
  const Vec full = mlp.ForwardBatch(x, &scratch).data;
  Mat head, tail, prefix;
  head.Resize(x.rows, 35);
  tail.Resize(x.rows, 11);
  for (int r = 0; r < x.rows; ++r) {
    std::copy(x.Row(r), x.Row(r) + 35, head.Row(r));
    std::copy(x.Row(r) + 35, x.Row(r) + 46, tail.Row(r));
  }
  mlp.FirstLayerPrefix(head, &prefix);
  ASSERT_EQ(prefix.cols, mlp.first_layer_dim());
  std::vector<const double*> starts;
  for (int r = 0; r < x.rows; ++r) starts.push_back(prefix.Row(r));
  const Mat& y = mlp.ForwardBatchFrom(tail, starts, &scratch);
  ASSERT_EQ(y.data.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    ExpectBitIdentical(y.data[i], full[i], "mlp resumed from prefix");
  }
}

TEST(PredictBatchTest, InterleavedEmbeddingsInOnePanelMatchScalar) {
  // Three embeddings alternate row by row, so every 16-row panel resumes
  // lanes from different head prefixes. GTN and TLSTM resume from the
  // prefix; the QPPNet kinds have none and keep their per-row fallback.
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  ASSERT_GE(stage.instance_count(), 3);
  for (ModelKind kind : {ModelKind::kMciGtn, ModelKind::kMciTlstm,
                         ModelKind::kMciQppnet, ModelKind::kQppnetOriginal}) {
    SCOPED_TRACE(ModelKindName(kind));
    LatencyModel::Options options;
    options.kind = kind;
    LatencyModel model(options);
    Result<std::vector<LatencyModel::EmbeddedInstance>> embedded =
        model.EmbedBatch(stage, {0, 1, 2});
    ASSERT_TRUE(embedded.ok());
    const bool resumes =
        kind == ModelKind::kMciGtn || kind == ModelKind::kMciTlstm;
    for (const LatencyModel::EmbeddedInstance& e : embedded.value()) {
      EXPECT_EQ(e.head_prefix.empty(), !resumes);
    }
    Rng rng(61 + static_cast<uint64_t>(kind));
    std::vector<LatencyModel::PredictionCandidate> candidates =
        RandomCandidates(37, &rng);
    std::vector<LatencyModel::PredictionQuery> queries;
    for (size_t i = 0; i < candidates.size(); ++i) {
      queries.push_back({&embedded.value()[i % 3], candidates[i]});
    }
    std::vector<double> batched(queries.size());
    LatencyModel::BatchScratch scratch;
    model.PredictBatch(queries, batched.data(), &scratch);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitIdentical(
          batched[i],
          model.PredictFromEmbedding(*queries[i].embedded,
                                     candidates[i].theta, candidates[i].state,
                                     candidates[i].hardware_type),
          "interleaved embeddings");
    }
  }
}

TEST(MlpBatchTest, ForwardBatchMatchesForwardPerRow) {
  Rng rng(9);
  Mlp mlp({7, 16, 16, 3}, &rng);
  Rng data_rng(10);
  // 11 rows: one padded 16-row panel.
  Mat x;
  x.Resize(11, 7);
  for (double& v : x.data) v = data_rng.Normal();
  MlpScratch scratch;
  const Mat& y = mlp.ForwardBatch(x, &scratch);
  ASSERT_EQ(y.rows, 11);
  ASSERT_EQ(y.cols, 3);
  MlpVecScratch vec_scratch;
  for (int r = 0; r < x.rows; ++r) {
    Vec row(x.Row(r), x.Row(r) + x.cols);
    Vec expected = mlp.Forward(row);
    Vec into_out;
    mlp.ForwardInto(row, &into_out, &vec_scratch);
    for (int c = 0; c < y.cols; ++c) {
      EXPECT_EQ(y.Row(r)[c], expected[static_cast<size_t>(c)])
          << "row " << r << " col " << c;
      EXPECT_EQ(into_out[static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)]);
    }
  }
}

}  // namespace
}  // namespace fgro
