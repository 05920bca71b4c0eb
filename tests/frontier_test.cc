// Property suite for RAA frontier compression (DESIGN.md §16): the
// FrontierCache's exactness contracts (bit-verified grids, idempotent
// insert, FIFO bounds, model-tag invalidation, concurrent
// safety), the compressed solve's purity (bit-identical across cache
// warmth, cache sharing, worker pools, and service thread counts), the
// invalidation semantics (hot-swap never serves stale; a theta-grid change
// rebuilds bit-identically; a machine-state change rebuilds only the
// affected clusters), the within-solve dedup of identical (theta, state-bucket)
// sweeps, and the WUN quality bound of compressed plans against the
// per-instance oracle at shard_count 1 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "hbo/hbo.h"
#include "model/prediction_cache.h"
#include "moo/config_space.h"
#include "moo/progressive_frontier.h"
#include "moo/wun.h"
#include "obs/metrics.h"
#include "optimizer/frontier_cache.h"
#include "optimizer/fuxi.h"
#include "optimizer/ipa_clustered.h"
#include "optimizer/raa.h"
#include "optimizer/sharding.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"
#include "test_util.h"

namespace fgro {
namespace {

// ---------------------------------------------------------------------------
// FrontierCache: exactness and lifecycle contracts (no model needed)
// ---------------------------------------------------------------------------

std::vector<ResourceConfig> MakeGrid(int points, double base_cores) {
  std::vector<ResourceConfig> grid;
  for (int i = 0; i < points; ++i) {
    ResourceConfig theta;
    theta.cores = base_cores + i;
    theta.memory_gb = 2.0 * (base_cores + i);
    grid.push_back(theta);
  }
  return grid;
}

FrontierKey MakeKey(int id, const std::vector<ResourceConfig>& grid,
                    uint64_t model_tag = 1) {
  FrontierKey key;
  key.job_id = id;
  key.stage_id = id * 7;
  key.template_id = 3;
  key.instance_count = 16;
  key.hardware_type = id % 4;
  key.rows_bits = 1000 + static_cast<uint64_t>(id);
  key.cpu_bits = 42;
  key.grid_hash = FrontierGridHash(grid);
  key.model_tag = model_tag;
  return key;
}

std::shared_ptr<FrontierEntry> MakeEntry(
    const std::vector<ResourceConfig>& grid, double latency_base) {
  auto entry = std::make_shared<FrontierEntry>();
  entry->grid = grid;
  for (size_t i = 0; i < grid.size(); ++i) {
    entry->latencies.push_back(latency_base + static_cast<double>(i));
  }
  entry->lat0 = latency_base;
  return entry;
}

TEST(FrontierCacheTest, LookupReturnsExactlyWhatWasInsertedAndIsIdempotent) {
  FrontierCache cache;
  const std::vector<ResourceConfig> grid = MakeGrid(6, 1.0);
  const FrontierKey key = MakeKey(1, grid);

  std::shared_ptr<const FrontierEntry> out;
  EXPECT_FALSE(cache.Lookup(key, grid, &out));
  EXPECT_EQ(cache.misses(), 1u);

  cache.Insert(key, MakeEntry(grid, 10.0));
  ASSERT_TRUE(cache.Lookup(key, grid, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(out->latencies[0], 10.0);
  EXPECT_EQ(cache.size(), 1u);

  // Idempotent: a racing re-insert of the same key is a no-op; the first
  // entry keeps serving (both computed the same pure function anyway).
  cache.Insert(key, MakeEntry(grid, 99.0));
  ASSERT_TRUE(cache.Lookup(key, grid, &out));
  EXPECT_EQ(out->latencies[0], 10.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FrontierCacheTest, GridHashCollisionDegradesToMissNeverAliases) {
  FrontierCache cache;
  const std::vector<ResourceConfig> grid = MakeGrid(6, 1.0);
  const FrontierKey key = MakeKey(1, grid);
  cache.Insert(key, MakeEntry(grid, 10.0));

  // Same key bits, different grid content (as a 64-bit grid-hash collision
  // would produce): Lookup verifies the stored grid bit-for-bit and misses.
  std::vector<ResourceConfig> other = grid;
  other[3].cores += 0.5;
  std::shared_ptr<const FrontierEntry> out;
  EXPECT_FALSE(cache.Lookup(key, other, &out));
}

TEST(FrontierCacheTest, FifoEvictionBoundsSize) {
  FrontierCache cache(/*capacity=*/32);  // 2 per shard
  for (int i = 0; i < 300; ++i) {
    const std::vector<ResourceConfig> grid = MakeGrid(3, 1.0 + i);
    cache.Insert(MakeKey(i, grid), MakeEntry(grid, i));
  }
  EXPECT_LE(cache.size(), 32u);
  EXPECT_EQ(cache.inserts(), 300u);
}

TEST(FrontierCacheTest, EnsureModelTagDropsOnlyStaleEntries) {
  FrontierCache cache;
  const std::vector<ResourceConfig> grid = MakeGrid(5, 1.0);
  for (int i = 0; i < 8; ++i) {
    cache.Insert(MakeKey(i, grid, /*model_tag=*/1), MakeEntry(grid, i));
  }
  for (int i = 8; i < 12; ++i) {
    cache.Insert(MakeKey(i, grid, /*model_tag=*/2), MakeEntry(grid, i));
  }
  ASSERT_EQ(cache.size(), 12u);

  cache.EnsureModelTag(2);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_GT(cache.invalidations(), 0u);
  std::shared_ptr<const FrontierEntry> out;
  EXPECT_FALSE(cache.Lookup(MakeKey(0, grid, 1), grid, &out));
  EXPECT_TRUE(cache.Lookup(MakeKey(9, grid, 2), grid, &out));

  // Same tag again: nothing more to drop.
  const uint64_t invalidations = cache.invalidations();
  cache.EnsureModelTag(2);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.invalidations(), invalidations);
}

TEST(FrontierCacheTest, ConcurrentLookupInsertInvalidateIsSafe) {
  // Stress the shard locks under concurrent readers, writers, and tag
  // invalidations (run under TSan in CI). Correctness
  // assertion: every hit returns an entry whose payload matches what the
  // key's inserter wrote — values are key-pure, so no interleaving may
  // surface a mismatched entry.
  FrontierCache cache(/*capacity=*/256);
  constexpr int kThreads = 8;
  constexpr int kOps = 1500;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&cache, &mismatches, w]() {
      for (int op = 0; op < kOps; ++op) {
        const int id = (w * 37 + op) % 64;
        const std::vector<ResourceConfig> grid = MakeGrid(4, 1.0 + id);
        const FrontierKey key = MakeKey(id, grid, /*model_tag=*/7);
        std::shared_ptr<const FrontierEntry> out;
        if (cache.Lookup(key, grid, &out)) {
          if (out->latencies[0] != static_cast<double>(id)) {
            mismatches.fetch_add(1);
          }
        } else {
          cache.Insert(key, MakeEntry(grid, id));
        }
        if (op % 200 == 199) cache.EnsureModelTag(7);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cache.hits(), 0u);
}

// ---------------------------------------------------------------------------
// Compressed solves on a trained environment
// ---------------------------------------------------------------------------

class FrontierFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentEnv::Options options;
    options.workload = WorkloadId::kA;
    options.scale = 0.05;
    options.train.epochs = 3;
    options.train.max_train_samples = 4000;
    options.seed = 77;
    Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value().release();
    cluster_ = new Cluster(ClusterOptions{.num_machines = 64, .seed = 21});
  }

  SchedulingContext MakeContext(const Stage& stage,
                                const Cluster* cluster = nullptr) {
    SchedulingContext context;
    context.stage = &stage;
    context.cluster = cluster != nullptr ? cluster : cluster_;
    context.model = &env_->model();
    Hbo hbo;
    context.theta0 = hbo.Recommend(stage).theta0;
    return context;
  }

  const Stage& WideStage(int min_instances = 24) {
    for (const Job& job : env_->workload().jobs) {
      for (const Stage& stage : job.stages) {
        if (stage.instance_count() >= min_instances) return stage;
      }
    }
    return env_->workload().jobs.front().stages.front();
  }

  static void ExpectSameDecision(const StageDecision& a,
                                 const StageDecision& b) {
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_EQ(a.fallback, b.fallback);
    EXPECT_EQ(a.machine_of_instance, b.machine_of_instance);
    ASSERT_EQ(a.theta_of_instance.size(), b.theta_of_instance.size());
    for (size_t i = 0; i < a.theta_of_instance.size(); ++i) {
      EXPECT_TRUE(a.theta_of_instance[i] == b.theta_of_instance[i]);
    }
  }

  /// Model-predicted WUN ingredients of a decision: stage latency (max over
  /// instances) and monetary cost (sum of predicted seconds * rate(theta)).
  std::pair<double, double> PredictedLatencyCost(
      const SchedulingContext& context, const StageDecision& decision) {
    const LatencyModel& model = *context.model;
    const Cluster& cluster = *context.cluster;
    double latency = 0.0, cost = 0.0;
    for (int i = 0; i < context.stage->instance_count(); ++i) {
      Result<LatencyModel::EmbeddedInstance> embedded =
          model.Embed(*context.stage, i);
      EXPECT_TRUE(embedded.ok());
      const Machine& machine = cluster.machine(
          decision.machine_of_instance[static_cast<size_t>(i)]);
      const ResourceConfig& theta =
          decision.theta_of_instance[static_cast<size_t>(i)];
      double p = model.PredictFromEmbedding(
          embedded.value(), theta, machine.state(), machine.hardware().id);
      latency = std::max(latency, p);
      cost += p * context.cost_weights.Rate(theta);
    }
    return {latency, cost};
  }

  static ExperimentEnv* env_;
  static Cluster* cluster_;
};

ExperimentEnv* FrontierFixture::env_ = nullptr;
Cluster* FrontierFixture::cluster_ = nullptr;

TEST_F(FrontierFixture, CompressedSolveIsPureInCacheWarmthSharingAndPool) {
  // The determinism contract of DESIGN.md §16: a compressed decision is a
  // pure function of (stage, cluster, model, options) — never of cache
  // warmth, cache sharing, or the worker pool.
  const Stage& stage = WideStage();
  StageOptimizer so(StageOptimizer::IpaRaaPath());
  FrontierCache cache;

  SchedulingContext shared = MakeContext(stage);
  shared.frontier_cache = &cache;
  StageDecision cold = so.Optimize(shared);
  StageDecision warm = so.Optimize(shared);

  // Solve-local cache (no cross-stage reuse) and a 4-thread frontier fan.
  StageDecision local = so.Optimize(MakeContext(stage));
  ThreadPool pool(4);
  SchedulingContext pooled = MakeContext(stage);
  pooled.frontier_cache = &cache;
  pooled.worker_pool = &pool;
  StageDecision parallel = so.Optimize(pooled);

  ExpectSameDecision(cold, warm);
  ExpectSameDecision(cold, local);
  ExpectSameDecision(cold, parallel);
  EXPECT_GT(cache.hits(), 0u) << "warm solve never touched the cache";
}

TEST_F(FrontierFixture, HotSwappedModelNeverServesStaleTemplates) {
  const Stage& stage = WideStage();
  StageOptimizer so(StageOptimizer::IpaRaaPath());
  FrontierCache cache;

  SchedulingContext context = MakeContext(stage);
  context.frontier_cache = &cache;
  StageDecision before = so.Optimize(context);
  ASSERT_TRUE(before.feasible);
  ASSERT_GT(cache.size(), 0u);

  // Hot-swap: same architecture, perturbed weights, new params_tag.
  LatencyModel swapped = env_->model();
  swapped.CorruptParamForTest(0.125);
  ASSERT_NE(swapped.params_tag(), env_->model().params_tag());

  SchedulingContext swapped_ctx = MakeContext(stage);
  swapped_ctx.model = &swapped;
  swapped_ctx.frontier_cache = &cache;  // warm with the OLD model's entries
  StageDecision via_cache = so.Optimize(swapped_ctx);

  SchedulingContext fresh_ctx = MakeContext(stage);
  fresh_ctx.model = &swapped;
  FrontierCache fresh_cache;
  fresh_ctx.frontier_cache = &fresh_cache;
  StageDecision via_fresh = so.Optimize(fresh_ctx);

  // Never stale: solving under the swapped model through the warm cache is
  // bit-identical to solving through an empty one, and the swap's wholesale
  // invalidation is observable.
  ExpectSameDecision(via_cache, via_fresh);
  EXPECT_GT(cache.invalidations(), 0u);
}

TEST_F(FrontierFixture, ThetaGridChangeRebuildsBitIdentically) {
  // A capacity change moves RAA's exploration window (the theta grid) while
  // the machine bucket, theta0 and model stay put: the template rebuilt in
  // the warm cache must be bit-identical to a from-scratch build.
  Stage stage = testing_util::MakeJoinStage(8);
  Cluster cluster(ClusterOptions{.num_machines = 4, .seed = 5});
  SchedulingContext context = MakeContext(stage, &cluster);
  FrontierCache cache;
  context.frontier_cache = &cache;

  StageDecision placement;
  placement.feasible = true;
  for (int i = 0; i < stage.instance_count(); ++i) {
    placement.machine_of_instance.push_back(i % cluster.size());
    placement.theta_of_instance.push_back(context.theta0);
  }

  RaaOptions options;
  options.clustering = RaaClustering::kNone;
  RaaResult before = RunRaa(context, placement, nullptr, options);
  ASSERT_TRUE(before.ok);

  // Shrink every machine's free capacity hard enough that the per-group
  // capacity cap (available + theta0) / coresidents falls below the top of
  // the exploration window and drops grid points. Allocation does not touch
  // the observable SystemState, so only the grid part of the key moves.
  for (int j = 0; j < cluster.size(); ++j) {
    Machine& machine = cluster.machine(j);
    ResourceConfig bite;
    bite.cores = machine.available_cores() - context.theta0.cores;
    bite.memory_gb =
        machine.available_memory_gb() - 2.0 * context.theta0.memory_gb;
    ASSERT_TRUE(machine.Allocate(bite));
  }

  const uint64_t misses_before = cache.misses();
  RaaResult rebuilt = RunRaa(context, placement, nullptr, options);
  ASSERT_TRUE(rebuilt.ok);
  ASSERT_GT(cache.misses(), misses_before)
      << "capacity bite did not change any theta grid; test is vacuous";

  // Warm-cache rebuild == fresh, bit for bit.
  SchedulingContext fresh_ctx = context;
  FrontierCache fresh_cache;
  fresh_ctx.frontier_cache = &fresh_cache;
  RaaResult fresh = RunRaa(fresh_ctx, placement, nullptr, options);
  ASSERT_TRUE(fresh.ok);
  ASSERT_EQ(rebuilt.theta_of_instance.size(), fresh.theta_of_instance.size());
  for (size_t i = 0; i < fresh.theta_of_instance.size(); ++i) {
    EXPECT_TRUE(rebuilt.theta_of_instance[i] == fresh.theta_of_instance[i]);
  }
}

TEST_F(FrontierFixture, MachineStateChangeRebuildsOnlyAffectedClusters) {
  // MakeJoinStage gives every instance distinct content, so with
  // per-instance grouping each group is its own cluster signature: 8
  // groups round-robin over 4 machines = 2 groups per machine.
  Stage stage = testing_util::MakeJoinStage(8);
  Cluster cluster(ClusterOptions{.num_machines = 4, .seed = 5});
  for (int j = 0; j < cluster.size(); ++j) {
    cluster.machine(j).set_state({0.1, 0.1, 0.1});
  }
  SchedulingContext context = MakeContext(stage, &cluster);
  FrontierCache cache;
  context.frontier_cache = &cache;

  StageDecision placement;
  placement.feasible = true;
  for (int i = 0; i < stage.instance_count(); ++i) {
    placement.machine_of_instance.push_back(i % cluster.size());
    placement.theta_of_instance.push_back(context.theta0);
  }
  RaaOptions options;
  options.clustering = RaaClustering::kNone;

  ASSERT_TRUE(RunRaa(context, placement, nullptr, options).ok);
  const uint64_t cold_misses = cache.misses();

  // Warm re-run: every template serves from the cache.
  ASSERT_TRUE(RunRaa(context, placement, nullptr, options).ok);
  EXPECT_EQ(cache.misses(), cold_misses);

  // Shift one machine into a different state bucket: only ITS two groups
  // rebuild; the other six keep hitting.
  cluster.machine(0).set_state({0.9, 0.9, 0.9});
  const uint64_t hits_before = cache.hits();
  RaaResult after = RunRaa(context, placement, nullptr, options);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(cache.misses() - cold_misses, 2u);
  EXPECT_EQ(cache.hits() - hits_before, 6u);

  // And the rebuilt state is exact: bit-identical to a fresh-cache solve.
  SchedulingContext fresh_ctx = context;
  FrontierCache fresh_cache;
  fresh_ctx.frontier_cache = &fresh_cache;
  RaaResult fresh = RunRaa(fresh_ctx, placement, nullptr, options);
  ASSERT_TRUE(fresh.ok);
  ASSERT_EQ(after.theta_of_instance.size(), fresh.theta_of_instance.size());
  for (size_t i = 0; i < fresh.theta_of_instance.size(); ++i) {
    EXPECT_TRUE(after.theta_of_instance[i] == fresh.theta_of_instance[i]);
  }
}

TEST_F(FrontierFixture, IdenticalGridSweepsDedupWithinOneSolve) {
  // Satellite regression: MakeChainStage gives 8 bit-identical instances;
  // placed on one machine they share (theta grid, state bucket,
  // representative content), so with per-instance grouping only ONE owner
  // sweeps the grid and 7 followers copy its slot — with compression off as
  // much as on, and with identical decisions either way.
  Stage stage = testing_util::MakeChainStage(8);
  Cluster cluster(ClusterOptions{.num_machines = 1, .seed = 3});
  obs::MetricsRegistry registry;

  auto run = [&](bool compression) {
    SchedulingContext context = MakeContext(stage, &cluster);
    context.frontier_compression = compression;
    context.obs.metrics = &registry;
    StageDecision placement;
    placement.feasible = true;
    placement.machine_of_instance.assign(
        static_cast<size_t>(stage.instance_count()), 0);
    placement.theta_of_instance.assign(
        static_cast<size_t>(stage.instance_count()), context.theta0);
    RaaOptions options;
    options.clustering = RaaClustering::kNone;
    return RunRaa(context, placement, nullptr, options);
  };

  obs::Counter* dedup = registry.GetCounter("so.raa.dedup_groups");
  RaaResult off = run(/*compression=*/false);
  ASSERT_TRUE(off.ok);
  EXPECT_EQ(dedup->value(), 7u);
  RaaResult on = run(/*compression=*/true);
  ASSERT_TRUE(on.ok);
  EXPECT_EQ(dedup->value(), 14u);
  // so.frontier.* surfaces only on the compressed run, and the dedup means
  // one template build covers the whole solve.
  EXPECT_EQ(registry.GetCounter("so.frontier.builds")->value(), 1u);

  ASSERT_EQ(off.theta_of_instance.size(), on.theta_of_instance.size());
  for (size_t i = 0; i < off.theta_of_instance.size(); ++i) {
    EXPECT_TRUE(off.theta_of_instance[i] == on.theta_of_instance[i]);
    // All 8 identical instances end on the identical plan.
    EXPECT_TRUE(off.theta_of_instance[i] == off.theta_of_instance[0]);
  }
}

// ---------------------------------------------------------------------------
// RunRaa's flat batches against a per-group reference
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool SameBits(const ResourceConfig& a, const ResourceConfig& b) {
  return Bits(a.cores) == Bits(b.cores) &&
         Bits(a.memory_gb) == Bits(b.memory_gb);
}

struct ReferenceGroup {
  std::vector<InstanceParetoPoint> frontier;
  double lat0 = 0.0;  // predicted latency of keeping theta0
};

/// Test-only per-group reference for RunRaa: every group swept on its own,
/// one PredictBatch per sweep, the way RunRaa predicted before it batched
/// a whole solve. Compressed, the template sweep uses the cluster's
/// canonical representative and a group whose representative differs
/// re-ranks kCorrectionTopK (4) evenly spread template points plus theta0.
/// No frontier cache, memo or within-solve dedup: each only ever returns
/// what a fresh computation gives, so none may change a value.
std::vector<ReferenceGroup> ReferenceGroupFrontiers(
    const SchedulingContext& context, const StageDecision& placement,
    const std::vector<FastMciGroup>& groups, bool compressed) {
  const Cluster& cluster = *context.cluster;
  const LatencyModel& model = *context.model;
  std::vector<int> coresidents(static_cast<size_t>(cluster.size()), 0);
  for (int machine : placement.machine_of_instance) {
    ++coresidents[static_cast<size_t>(machine)];
  }
  InstanceMooSolver solver(context.cost_weights);
  // Predicts `thetas`, plus theta0 unless bit-equal to one of them.
  auto sweep = [&](int instance, const Machine& machine,
                   const std::vector<ResourceConfig>& thetas,
                   std::vector<double>* lats, double* lat0) {
    Result<LatencyModel::EmbeddedInstance> embedded =
        model.Embed(*context.stage, instance);
    ASSERT_TRUE(embedded.ok());
    std::vector<LatencyModel::PredictionCandidate> candidates;
    int theta0_at = -1;
    for (size_t t = 0; t < thetas.size(); ++t) {
      candidates.push_back(
          {thetas[t], machine.state(), machine.hardware().id});
      if (theta0_at < 0 && SameBits(thetas[t], context.theta0)) {
        theta0_at = static_cast<int>(t);
      }
    }
    if (theta0_at < 0) {
      candidates.push_back(
          {context.theta0, machine.state(), machine.hardware().id});
    }
    lats->assign(candidates.size(), 0.0);
    LatencyModel::BatchScratch scratch;
    model.PredictBatch(embedded.value(), candidates, lats->data(), &scratch);
    *lat0 = theta0_at >= 0 ? (*lats)[static_cast<size_t>(theta0_at)]
                           : lats->back();
  };
  std::vector<ReferenceGroup> out;
  for (const FastMciGroup& group : groups) {
    const Machine& machine = cluster.machine(group.representative_machine);
    const double share = static_cast<double>(
        coresidents[static_cast<size_t>(group.representative_machine)]);
    std::vector<ResourceConfig> grid;
    for (const ResourceConfig& theta : FilterByCapacity(
             Hbo::ResourcePlanCatalog(),
             (machine.available_cores() + context.theta0.cores) / share,
             (machine.available_memory_gb() + context.theta0.memory_gb) /
                 share)) {
      if (theta.cores >= context.theta0.cores * kPlanExplorationLow &&
          theta.cores <= context.theta0.cores * kPlanExplorationHigh &&
          theta.memory_gb >= context.theta0.memory_gb * kPlanExplorationLow &&
          theta.memory_gb <= context.theta0.memory_gb * kPlanExplorationHigh) {
        grid.push_back(theta);
      }
    }
    if (grid.empty()) grid.push_back(context.theta0);
    const int canonical = group.canonical_representative >= 0
                              ? group.canonical_representative
                              : group.representative;
    ReferenceGroup ref;
    std::vector<double> lats;
    sweep(compressed ? canonical : group.representative, machine, grid,
          &lats, &ref.lat0);
    ref.frontier = solver.SolveExhaustive(lats.data(), grid);
    if (compressed && group.representative != canonical) {
      const int f = static_cast<int>(ref.frontier.size());
      const int k = std::min(4, f);
      std::vector<ResourceConfig> picked;
      int last = -1;
      for (int j = 0; j < k; ++j) {
        const int idx = k == 1 ? 0
                               : static_cast<int>(
                                     (static_cast<long>(j) * (f - 1) +
                                      (k - 1) / 2) /
                                     (k - 1));
        if (idx == last) continue;
        last = idx;
        picked.push_back(ref.frontier[static_cast<size_t>(idx)].theta);
      }
      sweep(group.representative, machine, picked, &lats, &ref.lat0);
      ref.frontier = solver.SolveExhaustive(lats.data(), picked);
    }
    out.push_back(std::move(ref));
  }
  return out;
}

/// The rest of RunRaa (RAA-Path) over the reference frontiers: the stage
/// frontier, WUN anchored at the incumbent, and the per-instance plan.
std::vector<ResourceConfig> ReferencePlan(
    const SchedulingContext& context, const std::vector<FastMciGroup>& groups,
    const std::vector<ReferenceGroup>& refs, const RaaOptions& options) {
  std::vector<std::vector<InstanceParetoPoint>> sets;
  std::vector<double> multiplicity;
  double default_latency = 0.0, default_cost = 0.0;
  for (size_t g = 0; g < refs.size(); ++g) {
    sets.push_back(refs[g].frontier);
    const double members = static_cast<double>(groups[g].instances.size());
    multiplicity.push_back(members);
    default_latency = std::max(default_latency, refs[g].lat0);
    default_cost +=
        refs[g].lat0 * context.cost_weights.Rate(context.theta0) * members;
  }
  const std::vector<StageParetoPoint> stage = RaaPath(sets, multiplicity);
  std::vector<std::vector<double>> all, dominating;
  std::vector<int> dominating_index;
  for (size_t i = 0; i < stage.size(); ++i) {
    all.push_back({stage[i].latency, stage[i].cost});
    if (stage[i].latency <= default_latency + 1e-12 &&
        stage[i].cost <= default_cost + 1e-12) {
      dominating.push_back(all.back());
      dominating_index.push_back(static_cast<int>(i));
    }
  }
  const int chosen =
      dominating.empty()
          ? WeightedUtopiaNearest(all, options.wun_weights)
          : dominating_index[static_cast<size_t>(
                WeightedUtopiaNearest(dominating, options.wun_weights))];
  std::vector<ResourceConfig> plan(
      static_cast<size_t>(context.stage->instance_count()), context.theta0);
  for (size_t g = 0; g < groups.size(); ++g) {
    const ResourceConfig& theta =
        sets[g][static_cast<size_t>(
                    stage[static_cast<size_t>(chosen)].choice[g])]
            .theta;
    for (int i : groups[g].instances) plan[static_cast<size_t>(i)] = theta;
  }
  return plan;
}

TEST_F(FrontierFixture, FlatBatchedSolveMatchesPerGroupReference) {
  // RunRaa predicts a whole solve in two flat batches fanned in chunks;
  // every group's frontier and the final plan must equal the per-group
  // reference bit for bit, at any pool size, compressed or not, with no,
  // a cold or a warm shared frontier cache, and with a warm memo.
  const Stage& stage = WideStage();
  const SchedulingContext base = MakeContext(stage);
  const ClusteredIpaResult clustered = IpaClusteredSchedule(base);
  ASSERT_TRUE(clustered.decision.feasible);
  const StageDecision& placement = clustered.decision;
  int corrected = 0;
  for (const FastMciGroup& g : clustered.groups) {
    if (g.canonical_representative >= 0 &&
        g.canonical_representative != g.representative) {
      ++corrected;
    }
  }
  ASSERT_GT(corrected, 0) << "no group needs a correction; test is vacuous";
  std::vector<FastMciGroup> per_instance;  // RaaClustering::kNone's groups
  for (int i = 0; i < stage.instance_count(); ++i) {
    FastMciGroup g;
    g.instances = {i};
    g.representative = i;
    g.representative_machine =
        placement.machine_of_instance[static_cast<size_t>(i)];
    g.instance_cluster = i;
    g.canonical_representative = i;
    per_instance.push_back(std::move(g));
  }

  ThreadPool pool2(2), pool4(4);
  PredictionMemo memo;
  for (RaaClustering clustering :
       {RaaClustering::kFastMci, RaaClustering::kNone}) {
    const bool fast = clustering == RaaClustering::kFastMci;
    const std::vector<FastMciGroup>& groups =
        fast ? clustered.groups : per_instance;
    RaaOptions options;
    options.clustering = clustering;
    for (bool compression : {false, true}) {
      const std::vector<ReferenceGroup> refs =
          ReferenceGroupFrontiers(base, placement, groups, compression);
      const std::vector<ResourceConfig> plan =
          ReferencePlan(base, groups, refs, options);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                               &pool4}) {
        for (const char* cache_mode : {"none", "cold", "warm"}) {
          SCOPED_TRACE(::testing::Message()
                       << (fast ? "fast_mci" : "per_instance")
                       << " compression=" << compression << " pool="
                       << (pool == nullptr ? 0 : pool->size())
                       << " cache=" << cache_mode);
          SchedulingContext context = base;
          context.frontier_compression = compression;
          context.worker_pool = pool;
          context.memo = &memo;
          FrontierCache cache;
          if (std::string(cache_mode) != "none") {
            context.frontier_cache = &cache;
          }
          const std::vector<FastMciGroup>* given =
              fast ? &clustered.groups : nullptr;
          if (std::string(cache_mode) == "warm") {
            ASSERT_TRUE(RunRaa(context, placement, given, options).ok);
          }
          const RaaResult result = RunRaa(context, placement, given, options);
          ASSERT_TRUE(result.ok);
          ASSERT_EQ(result.group_frontiers.size(), refs.size());
          for (size_t g = 0; g < refs.size(); ++g) {
            const std::vector<InstanceParetoPoint>& got =
                result.group_frontiers[g];
            ASSERT_EQ(got.size(), refs[g].frontier.size()) << "group " << g;
            for (size_t p = 0; p < got.size(); ++p) {
              const InstanceParetoPoint& want = refs[g].frontier[p];
              EXPECT_TRUE(SameBits(got[p].theta, want.theta));
              EXPECT_EQ(Bits(got[p].latency), Bits(want.latency));
              EXPECT_EQ(Bits(got[p].cost), Bits(want.cost));
            }
          }
          ASSERT_EQ(result.theta_of_instance.size(), plan.size());
          for (size_t i = 0; i < plan.size(); ++i) {
            EXPECT_TRUE(SameBits(result.theta_of_instance[i], plan[i]))
                << "instance " << i;
          }
        }
      }
    }
  }
  EXPECT_GT(memo.hits(), 0u);
}

TEST_F(FrontierFixture, ExpiredDeadlineAbortsRaaOntoTheta0Rung) {
  // An already-expired deadline: RunRaa aborts with no plan, and the
  // ladder keeps a model-free (Fuxi) placement with every instance on
  // theta0.
  const Stage& stage = WideStage();
  const ClusteredIpaResult clustered =
      IpaClusteredSchedule(MakeContext(stage));
  ASSERT_TRUE(clustered.decision.feasible);
  SchedulingContext context = MakeContext(stage);
  context.deadline = Deadline::After(0.0, [] { return 0.0; });
  ASSERT_TRUE(context.deadline.expired());
  for (bool compression : {false, true}) {
    context.frontier_compression = compression;
    const RaaResult raa = RunRaa(context, clustered.decision,
                                 &clustered.groups, RaaOptions{});
    EXPECT_FALSE(raa.ok);
    EXPECT_TRUE(raa.theta_of_instance.empty());
    EXPECT_TRUE(raa.stage_pareto.empty());
    EXPECT_EQ(raa.recommended_index, -1);
    EXPECT_EQ(raa.num_groups, static_cast<int>(clustered.groups.size()));
  }

  StageOptimizer::Config config = StageOptimizer::IpaRaaPathWithFallback();
  config.placement = StageOptimizer::Placement::kFuxi;
  const StageDecision decision = StageOptimizer(config).Optimize(context);
  const StageDecision fuxi = FuxiSchedule(MakeContext(stage));
  ASSERT_TRUE(decision.feasible);
  EXPECT_EQ(decision.fallback, FallbackLevel::kTheta0);
  EXPECT_EQ(decision.machine_of_instance, fuxi.machine_of_instance);
  for (const ResourceConfig& theta : decision.theta_of_instance) {
    EXPECT_TRUE(SameBits(theta, context.theta0));
  }
}

TEST_F(FrontierFixture, CompressedQualityWithinBoundOfPerInstanceOracle) {
  // 5-seed WUN quality bound: compressed per-cluster plans (shard_count 1
  // and 4) against the per-instance oracle — RAA(W/O_C) with compression
  // off, the bit-identical legacy path. Quality is the 3:1 latency:cost
  // ratio under the model's own predictions. The sharded arm compounds the
  // POP partition loss (bounded at 10% in sharding_test) on top of the
  // compression loss, hence its looser tolerance.
  constexpr double kToleranceK1 = 0.05;
  constexpr double kToleranceK4 = 0.12;
  StageOptimizer oracle_so(StageOptimizer::IpaRaaWithoutClustering());
  StageOptimizer compressed_so(StageOptimizer::IpaRaaPath());
  double quality_k1 = 0.0, quality_k4 = 0.0;
  int solves = 0;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Cluster cluster(ClusterOptions{.num_machines = 96, .seed = 400 + seed});
    FrontierCache cache;
    int stages_used = 0;
    for (const Job& job : env_->workload().jobs) {
      for (const Stage& stage : job.stages) {
        if (stage.instance_count() < 16 || stages_used >= 2) continue;
        ++stages_used;
        SchedulingContext context = MakeContext(stage, &cluster);
        context.frontier_compression = false;
        StageDecision oracle = oracle_so.Optimize(context);

        context.frontier_compression = true;
        context.frontier_cache = &cache;
        StageDecision k1 = compressed_so.Optimize(context);
        context.shard_count = 4;
        context.shard_seed = seed;
        StageDecision k4 = compressed_so.Optimize(context);

        ASSERT_TRUE(oracle.feasible);
        ASSERT_TRUE(k1.feasible);
        ASSERT_TRUE(k4.feasible);
        auto [oracle_lat, oracle_cost] = PredictedLatencyCost(context, oracle);
        ASSERT_GT(oracle_lat, 0.0);
        ASSERT_GT(oracle_cost, 0.0);
        auto [k1_lat, k1_cost] = PredictedLatencyCost(context, k1);
        auto [k4_lat, k4_cost] = PredictedLatencyCost(context, k4);
        quality_k1 += (3.0 * (k1_lat / oracle_lat) +
                       1.0 * (k1_cost / oracle_cost)) /
                      4.0;
        quality_k4 += (3.0 * (k4_lat / oracle_lat) +
                       1.0 * (k4_cost / oracle_cost)) /
                      4.0;
        ++solves;
      }
    }
  }
  ASSERT_GT(solves, 5);
  const double avg_k1 = quality_k1 / solves;
  const double avg_k4 = quality_k4 / solves;
  EXPECT_LE(avg_k1, 1.0 + kToleranceK1)
      << "compressed plans degraded " << (avg_k1 - 1.0) * 100
      << "% vs the per-instance oracle across " << solves << " solves";
  EXPECT_LE(avg_k4, 1.0 + kToleranceK4)
      << "sharded compressed plans degraded " << (avg_k4 - 1.0) * 100
      << "% vs the per-instance oracle across " << solves << " solves";
}

TEST_F(FrontierFixture, OneSolveEmbedsNoInstanceTwice) {
  // One solve embeds through one table, so RAA reuses the representatives
  // clustered IPA embedded. RAA(W/O_C) sweeps every instance, so an
  // unsharded solve embeds exactly m. A sharded solve embeds each shard
  // view's instances once (the views renumber instances and change the
  // stage width the embedding sees) and the whole stage once more for
  // refinement: 2m. Counted by model.embed_instances on a model copy.
  const Stage& stage = WideStage(32);
  const int m = stage.instance_count();
  ASSERT_GE(m, 32);
  obs::MetricsRegistry metrics;
  LatencyModel model = env_->model();
  model.set_obs(obs::Obs{.metrics = &metrics});
  obs::Counter* embedded = metrics.GetCounter("model.embed_instances");
  ThreadPool pool(2);
  for (const StageOptimizer::Config& config :
       {StageOptimizer::IpaRaaWithoutClustering(),
        StageOptimizer::IpaRaaPath()}) {
    const bool per_instance =
        config.raa.clustering == RaaClustering::kNone;
    for (int shards : {1, 2}) {
      for (ThreadPool* worker_pool :
           {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(::testing::Message()
                     << StageOptimizer::ConfigName(config)
                     << " shards=" << shards << " pool="
                     << (worker_pool == nullptr ? 0 : worker_pool->size()));
        SchedulingContext context = MakeContext(stage);
        context.model = &model;
        context.shard_count = shards;
        context.worker_pool = worker_pool;
        ASSERT_EQ(EffectiveShardCount(context), shards);
        const uint64_t before = embedded->value();
        const StageDecision decision = StageOptimizer(config).Optimize(context);
        ASSERT_TRUE(decision.feasible);
        ASSERT_EQ(decision.fallback, FallbackLevel::kPrimary);
        const uint64_t count = embedded->value() - before;
        const uint64_t bound = static_cast<uint64_t>(shards == 1 ? m : 2 * m);
        if (per_instance) {
          EXPECT_EQ(count, bound);
        } else {
          EXPECT_GT(count, 0u);
          EXPECT_LE(count, bound);
        }
      }
    }
  }
}

TEST_F(FrontierFixture, CompressionOffReplayByteIdenticalAcrossThreads) {
  // The oracle-equivalence arm of the acceptance criteria: with
  // frontier_compression off, the replay is the legacy path and must keep
  // its byte-identity across service_threads {1,2,8}.
  auto run = [&](int threads) {
    SimOptions sim_options;
    sim_options.seed = 11;
    sim_options.cluster.num_machines = 64;
    sim_options.frontier_compression = false;
    sim_options.service_threads = threads;
    Result<SimResult> result =
        ServeWorkload(env_->workload(), &env_->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Summarize(result.value());
  };
  RoSummary base = run(1);
  ASSERT_GT(base.num_stages, 0);
  for (const RoSummary& s : {run(2), run(8)}) {
    EXPECT_EQ(s.num_stages, base.num_stages);
    EXPECT_EQ(s.coverage, base.coverage);
    EXPECT_EQ(s.avg_latency, base.avg_latency);
    EXPECT_EQ(s.avg_cost, base.avg_cost);
    EXPECT_EQ(s.goodput, base.goodput);
    EXPECT_EQ(s.fallback_histogram, base.fallback_histogram);
  }
}

TEST_F(FrontierFixture, CompressionOnReplaySharesCacheAcrossThreadCounts) {
  // Dual of the test above: compression ON with one cache shared across
  // every replay, so the 2- and 8-thread runs serve almost entirely from
  // templates the 1-thread run built — byte-identity here is the cache's
  // purity contract end-to-end.
  FrontierCache cache;
  auto run = [&](int threads) {
    SimOptions sim_options;
    sim_options.seed = 11;
    sim_options.cluster.num_machines = 64;
    sim_options.frontier_compression = true;
    sim_options.frontier_cache = &cache;
    sim_options.service_threads = threads;
    Result<SimResult> result =
        ServeWorkload(env_->workload(), &env_->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Summarize(result.value());
  };
  RoSummary base = run(1);
  ASSERT_GT(base.num_stages, 0);
  for (const RoSummary& s : {run(2), run(8)}) {
    EXPECT_EQ(s.num_stages, base.num_stages);
    EXPECT_EQ(s.coverage, base.coverage);
    EXPECT_EQ(s.avg_latency, base.avg_latency);
    EXPECT_EQ(s.avg_cost, base.avg_cost);
    EXPECT_EQ(s.goodput, base.goodput);
    EXPECT_EQ(s.fallback_histogram, base.fallback_histogram);
  }
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace fgro
