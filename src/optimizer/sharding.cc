#include "optimizer/sharding.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "hbo/hbo.h"
#include "moo/config_space.h"
#include "optimizer/ipa.h"

namespace fgro {
namespace {

// Distinct streams so machine, stratum-offset, and instance assignments
// never correlate by construction.
constexpr uint64_t kStratumStream = 0x9d3f8c51e2a7b406ULL;
constexpr uint64_t kInstanceStream = 0x1295a7c3b8d4f601ULL;

}  // namespace

ShardPlan ShardPlanner::Plan(int shard_count, uint64_t seed,
                             const std::vector<int>& machine_ids,
                             const std::vector<int>& machine_strata,
                             const std::vector<double>& machine_loads,
                             int num_instances,
                             const std::vector<double>& instance_sizes) {
  ShardPlan plan;
  plan.shard_count = std::max(1, shard_count);
  const auto k = static_cast<uint64_t>(plan.shard_count);
  plan.machines_of_shard.resize(static_cast<size_t>(plan.shard_count));
  plan.instances_of_shard.resize(static_cast<size_t>(plan.shard_count));

  // Machines: per-stratum descending-load snake deal with a seed-rotated
  // start, so each shard gets both an equal hardware mix and an even slice
  // of the load spectrum. std::map iterates strata in ascending key order,
  // so the walk is deterministic whatever order the caller discovered them
  // in. Positions within machine_ids are dealt (not raw ids) so strata and
  // loads stay index-aligned.
  std::map<int, std::vector<size_t>> strata;
  for (size_t j = 0; j < machine_ids.size(); ++j) {
    const int stratum = machine_strata.empty()
                            ? 0
                            : machine_strata[j];
    strata[stratum].push_back(j);
  }
  for (auto& [stratum, members] : strata) {
    std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
      const double la = machine_loads.empty() ? 0.0 : machine_loads[a];
      const double lb = machine_loads.empty() ? 0.0 : machine_loads[b];
      if (la != lb) return la > lb;
      const uint64_t ha =
          MixSeed(seed, static_cast<uint64_t>(machine_ids[a]));
      const uint64_t hb =
          MixSeed(seed, static_cast<uint64_t>(machine_ids[b]));
      return ha != hb ? ha < hb : machine_ids[a] < machine_ids[b];
    });
    const uint64_t offset =
        MixSeed(seed ^ kStratumStream, static_cast<uint64_t>(stratum));
    for (size_t rank = 0; rank < members.size(); ++rank) {
      const uint64_t round = rank / k;
      const uint64_t pos = rank % k;
      const uint64_t dealt = (round % 2 == 0) ? pos : k - 1 - pos;
      const uint64_t s = (dealt + offset) % k;
      plan.machines_of_shard[static_cast<size_t>(s)].push_back(
          machine_ids[members[rank]]);
    }
  }
  for (std::vector<int>& shard : plan.machines_of_shard) {
    std::sort(shard.begin(), shard.end());
  }

  // Instances: snake-deal in descending-size order (ties by index) with a
  // seed-rotated start, so each shard's load is balanced even when a few
  // instances dominate the stage.
  std::vector<int> order(static_cast<size_t>(num_instances));
  std::iota(order.begin(), order.end(), 0);
  if (!instance_sizes.empty()) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double sa = instance_sizes[static_cast<size_t>(a)];
      const double sb = instance_sizes[static_cast<size_t>(b)];
      return sa != sb ? sa > sb : a < b;
    });
  }
  const uint64_t instance_offset = MixSeed(seed ^ kInstanceStream, k);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const uint64_t round = rank / k;
    const uint64_t pos = rank % k;
    const uint64_t dealt = (round % 2 == 0) ? pos : k - 1 - pos;
    const uint64_t s = (dealt + instance_offset) % k;
    plan.instances_of_shard[static_cast<size_t>(s)].push_back(order[rank]);
  }
  for (std::vector<int>& shard : plan.instances_of_shard) {
    std::sort(shard.begin(), shard.end());
  }
  return plan;
}

ShardPlan PlanForContext(const SchedulingContext& context) {
  const Cluster& cluster = *context.cluster;
  const Stage& stage = *context.stage;
  std::vector<int> universe;
  if (context.machine_subset != nullptr) {
    universe = *context.machine_subset;
  } else {
    universe.resize(static_cast<size_t>(cluster.size()));
    std::iota(universe.begin(), universe.end(), 0);
  }
  std::vector<int> strata;
  std::vector<double> loads;
  strata.reserve(universe.size());
  loads.reserve(universe.size());
  for (int id : universe) {
    const Machine& machine = cluster.machine(id);
    strata.push_back(machine.hardware().id);
    const SystemState& st = machine.state();
    loads.push_back(st.cpu_util + st.mem_util + st.io_util);
  }
  std::vector<double> sizes;
  sizes.reserve(stage.instances.size());
  for (const InstanceMeta& meta : stage.instances) {
    sizes.push_back(meta.input_rows);
  }
  return ShardPlanner::Plan(EffectiveShardCount(context), context.shard_seed,
                            universe, strata, loads, stage.instance_count(),
                            sizes);
}

int EffectiveShardCount(const SchedulingContext& context) {
  if (context.shard_count <= 1 || context.stage == nullptr ||
      context.cluster == nullptr) {
    return 1;
  }
  const int m = context.stage->instance_count();
  const int n = context.machine_subset != nullptr
                    ? static_cast<int>(context.machine_subset->size())
                    : context.cluster->size();
  const int k = std::min(context.shard_count,
                         std::min(m, n / kMinMachinesPerShard));
  return std::max(1, k);
}

std::vector<int> CandidateMachines(const SchedulingContext& context) {
  const Cluster& cluster = *context.cluster;
  if (context.machine_subset == nullptr) {
    return cluster.AvailableMachines(context.theta0);
  }
  std::vector<int> out;
  out.reserve(context.machine_subset->size());
  for (int id : *context.machine_subset) {
    if (cluster.machine(id).CanFit(context.theta0)) out.push_back(id);
  }
  return out;
}

int EffectiveRefineBudget(const SchedulingContext& context) {
  if (context.shard_refine_budget <= 0 || context.stage == nullptr) return 0;
  return std::max(context.shard_refine_budget,
                  context.stage->instance_count() / 16);
}

int RefineMergedDecision(const SchedulingContext& context,
                         StageDecision* decision, bool tune_theta) {
  const int budget = EffectiveRefineBudget(context);
  if (budget <= 0 || !decision->feasible || context.model == nullptr ||
      !context.model->trained()) {
    return 0;
  }
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  const LatencyModel& model = *context.model;
  const int m = stage.instance_count();
  std::vector<int> candidates = CandidateMachines(context);
  if (m == 0 || candidates.size() < 2) return 0;
  const int alpha =
      ResolveAlpha(context.alpha, m, static_cast<int>(candidates.size()));

  // Leftover capacity under the whole-fleet view, minus what the merged
  // decision already booked — identical discipline to the merge rescue, so
  // refinement can never over-book either.
  std::vector<int> used(static_cast<size_t>(cluster.size()), 0);
  for (int id : decision->machine_of_instance) {
    if (id >= 0) used[static_cast<size_t>(id)]++;
  }

  // Embed every instance of the whole-stage view (the shard solves embedded
  // their own renumbered views), then one batched sweep for every
  // instance's latency under its current placement.
  std::vector<int> all(static_cast<size_t>(m));
  std::iota(all.begin(), all.end(), 0);
  EmbeddingTable embeddings;
  if (!embeddings.Embed(context, all)) return 0;

  LatencyModel::BatchScratch scratch;
  std::vector<double> current(static_cast<size_t>(m));
  {
    std::vector<LatencyModel::PredictionQuery> queries;
    queries.reserve(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      const Machine& machine = cluster.machine(
          decision->machine_of_instance[static_cast<size_t>(i)]);
      queries.push_back(LatencyModel::PredictionQuery{
          &embeddings.at(i),
          {decision->theta_of_instance[static_cast<size_t>(i)],
           machine.state(), machine.hardware().id}});
    }
    model.PredictBatch(queries, current.data(), &scratch, context.memo);
  }

  int moves = 0;
  std::vector<bool> visited(static_cast<size_t>(m), false);
  for (int step = 0; step < budget; ++step) {
    // The instance pinning the stage latency right now (ties: lower index).
    int worst = -1;
    double worst_latency = -1.0;
    for (int i = 0; i < m; ++i) {
      if (current[static_cast<size_t>(i)] > worst_latency) {
        worst_latency = current[static_cast<size_t>(i)];
        worst = i;
      }
    }
    // Fixed point: the bottleneck already saw the whole fleet and could not
    // improve, so no further move can lower the max.
    if (worst < 0 || visited[static_cast<size_t>(worst)]) break;
    visited[static_cast<size_t>(worst)] = true;

    const int from = decision->machine_of_instance[static_cast<size_t>(worst)];
    const ResourceConfig& theta =
        decision->theta_of_instance[static_cast<size_t>(worst)];
    std::vector<LatencyModel::PredictionQuery> queries;
    std::vector<int> targets;
    queries.reserve(candidates.size());
    targets.reserve(candidates.size());
    for (int id : candidates) {
      if (id == from) continue;
      const Machine& machine = cluster.machine(id);
      // Twice the diversity cap (still physically capped): every shard
      // fills the globally best machines to alpha with its own instances,
      // so a strict-alpha check would leave the bottleneck nowhere to go.
      // Only `budget` instances can ever use the headroom.
      if (used[static_cast<size_t>(id)] >=
          InstanceCapacity(machine, context.theta0, 2 * alpha)) {
        continue;
      }
      queries.push_back(LatencyModel::PredictionQuery{
          &embeddings.at(worst),
          {theta, machine.state(), machine.hardware().id}});
      targets.push_back(id);
    }
    int best_id = from;
    double best = worst_latency;
    if (!queries.empty()) {
      std::vector<double> predicted(queries.size());
      model.PredictBatch(queries, predicted.data(), &scratch, context.memo);
      for (size_t j = 0; j < targets.size(); ++j) {
        if (predicted[j] < best) {  // strict: ties keep the in-shard machine
          best = predicted[j];
          best_id = targets[j];
        }
      }
    }
    bool improved = false;
    if (best_id != from) {
      used[static_cast<size_t>(from)]--;
      used[static_cast<size_t>(best_id)]++;
      decision->machine_of_instance[static_cast<size_t>(worst)] = best_id;
      current[static_cast<size_t>(worst)] = best;
      improved = true;
    }

    // Theta re-tune on the (possibly unchanged) final machine. Per-shard
    // RAA picks each group's tradeoff from a shard-local WUN frontier, and
    // the whole-stage max only cares about the few critical instances —
    // re-searching RAA's own grid for just those recovers most of the theta
    // quality a shard-local frontier gives up. Mirrors raa.cc exactly: the
    // capacity-filtered catalog within the exploration window, fair share =
    // the machine's post-move co-residency.
    if (tune_theta) {
      const Machine& machine = cluster.machine(best_id);
      const double share = static_cast<double>(
          std::max(1, used[static_cast<size_t>(best_id)]));
      std::vector<ResourceConfig> grid;
      for (const ResourceConfig& t : FilterByCapacity(
               Hbo::ResourcePlanCatalog(),
               (machine.available_cores() + context.theta0.cores) / share,
               (machine.available_memory_gb() + context.theta0.memory_gb) /
                   share)) {
        if (t.cores >= context.theta0.cores * kPlanExplorationLow &&
            t.cores <= context.theta0.cores * kPlanExplorationHigh &&
            t.memory_gb >= context.theta0.memory_gb * kPlanExplorationLow &&
            t.memory_gb <= context.theta0.memory_gb * kPlanExplorationHigh) {
          grid.push_back(t);
        }
      }
      if (!grid.empty()) {
        std::vector<LatencyModel::PredictionQuery> theta_queries;
        theta_queries.reserve(grid.size());
        for (const ResourceConfig& t : grid) {
          theta_queries.push_back(LatencyModel::PredictionQuery{
              &embeddings.at(worst),
              {t, machine.state(), machine.hardware().id}});
        }
        std::vector<double> theta_predicted(theta_queries.size());
        model.PredictBatch(theta_queries, theta_predicted.data(), &scratch,
                           context.memo);
        int picked = -1;
        double theta_best = current[static_cast<size_t>(worst)];
        for (size_t g = 0; g < theta_predicted.size(); ++g) {
          if (theta_predicted[g] < theta_best) {  // strict: ties keep RAA's
            theta_best = theta_predicted[g];
            picked = static_cast<int>(g);
          }
        }
        if (picked >= 0) {
          decision->theta_of_instance[static_cast<size_t>(worst)] =
              grid[static_cast<size_t>(picked)];
          current[static_cast<size_t>(worst)] = theta_best;
          improved = true;
        }
      }
    }
    if (improved) ++moves;
  }
  return moves;
}

StageDecision MergeShardDecisions(const SchedulingContext& context,
                                  const ShardPlan& plan,
                                  const std::vector<StageDecision>& per_shard,
                                  ShardMergeStats* stats) {
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  const int m = stage.instance_count();
  StageDecision merged;
  merged.machine_of_instance.assign(static_cast<size_t>(m), -1);
  merged.theta_of_instance.assign(static_cast<size_t>(m), context.theta0);

  std::vector<int> unplaced;
  for (int s = 0; s < plan.shard_count; ++s) {
    const std::vector<int>& insts =
        plan.instances_of_shard[static_cast<size_t>(s)];
    const StageDecision& d = per_shard[static_cast<size_t>(s)];
    merged.solve_seconds += d.solve_seconds;
    if (insts.empty()) continue;
    if (!d.feasible) {
      if (stats != nullptr) stats->infeasible_shards++;
      unplaced.insert(unplaced.end(), insts.begin(), insts.end());
      continue;
    }
    FGRO_CHECK(d.machine_of_instance.size() == insts.size());
    merged.fallback = std::max(merged.fallback, d.fallback);
    for (size_t r = 0; r < insts.size(); ++r) {
      const auto inst = static_cast<size_t>(insts[r]);
      merged.machine_of_instance[inst] = d.machine_of_instance[r];
      merged.theta_of_instance[inst] = d.theta_of_instance[r];
    }
  }

  if (!unplaced.empty()) {
    // Reconciliation: shards already merged are untouched; the orphans go
    // onto leftover theta0 capacity anywhere in the context's machine view,
    // ascending instance order, round-robin over ascending candidates.
    // Capacity is recomputed minus what the merge already booked, so the
    // rescue can never push a machine past its theta0 capacity either.
    std::sort(unplaced.begin(), unplaced.end());
    std::vector<int> candidates = CandidateMachines(context);
    if (candidates.empty()) return merged;
    const int alpha = ResolveAlpha(context.alpha, m,
                                   static_cast<int>(candidates.size()));
    std::vector<int> used(static_cast<size_t>(cluster.size()), 0);
    for (int id : merged.machine_of_instance) {
      if (id >= 0) used[static_cast<size_t>(id)]++;
    }
    std::vector<int> capacity;
    capacity.reserve(candidates.size());
    for (int id : candidates) {
      capacity.push_back(std::max(
          0, InstanceCapacity(cluster.machine(id), context.theta0, alpha) -
                 used[static_cast<size_t>(id)]));
    }
    size_t cursor = 0;
    int rescued = 0;
    for (int inst : unplaced) {
      size_t scanned = 0;
      while (scanned < candidates.size() &&
             capacity[cursor % candidates.size()] <= 0) {
        ++cursor;
        ++scanned;
      }
      if (scanned >= candidates.size()) break;  // view exhausted
      size_t j = cursor % candidates.size();
      merged.machine_of_instance[static_cast<size_t>(inst)] = candidates[j];
      capacity[j]--;
      ++cursor;
      ++rescued;
    }
    if (stats != nullptr) stats->rescued_instances += rescued;
    if (rescued < static_cast<int>(unplaced.size())) return merged;
    merged.fallback = std::max(merged.fallback, FallbackLevel::kTheta0);
  }

  merged.feasible = true;
  return merged;
}

}  // namespace fgro
