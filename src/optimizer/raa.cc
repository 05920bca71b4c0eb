#include "optimizer/raa.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "clustering/dbscan.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "featurize/discretize.h"
#include "hbo/hbo.h"
#include "moo/progressive_frontier.h"
#include "moo/wun.h"
#include "optimizer/frontier_cache.h"
#include "optimizer/ipa.h"
#include "optimizer/raa_general.h"

namespace fgro {

namespace {

/// Frontier-compression correction width (DESIGN.md §16): a group whose
/// representative differs from its cluster's canonical representative
/// re-ranks this many evenly spread template-frontier points (plus theta0)
/// with its own true embedding instead of sweeping the whole grid.
constexpr int kCorrectionTopK = 4;

uint64_t DoubleBits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool SameBits(const ResourceConfig& a, const ResourceConfig& b) {
  return DoubleBits(a.cores) == DoubleBits(b.cores) &&
         DoubleBits(a.memory_gb) == DoubleBits(b.memory_gb);
}

/// Bit-for-bit equality of two theta grids.
bool SameGrid(const std::vector<ResourceConfig>& a,
              const std::vector<ResourceConfig>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameBits);
}

/// Index of the first theta in `grid` bit-equal to `theta`, or -1.
int IndexOfBits(const std::vector<ResourceConfig>& grid,
                const ResourceConfig& theta) {
  for (size_t t = 0; t < grid.size(); ++t) {
    if (SameBits(grid[t], theta)) return static_cast<int>(t);
  }
  return -1;
}

/// Builds the RAA groups for each clustering strategy. Every group carries
/// its member instances, a representative (largest input rows,
/// conservative) and the representative's assigned machine, plus the
/// instance cluster it came from and that cluster's canonical
/// representative (frontier compression builds templates from the latter).
std::vector<FastMciGroup> BuildGroups(
    const SchedulingContext& context, const StageDecision& placement,
    const std::vector<FastMciGroup>* fast_mci_groups,
    RaaClustering clustering) {
  const Stage& stage = *context.stage;
  const int m = stage.instance_count();
  auto representative_of = [&](const std::vector<int>& members) {
    int rep = members[0];
    for (int i : members) {
      if (stage.instances[static_cast<size_t>(i)].input_rows >
          stage.instances[static_cast<size_t>(rep)].input_rows) {
        rep = i;
      }
    }
    return rep;
  };

  std::vector<FastMciGroup> groups;
  switch (clustering) {
    case RaaClustering::kNone: {
      groups.reserve(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) {
        FastMciGroup g;
        g.instances = {i};
        g.representative = i;
        g.representative_machine =
            placement.machine_of_instance[static_cast<size_t>(i)];
        g.instance_cluster = i;
        g.canonical_representative = i;
        groups.push_back(std::move(g));
      }
      break;
    }
    case RaaClustering::kDbscan: {
      // Cluster on the Channel-2 features (log rows, log bytes); then split
      // by assigned machine's state bucket so one configuration per group
      // stays meaningful.
      std::vector<std::vector<double>> points;
      points.reserve(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) {
        const InstanceMeta& meta = stage.instances[static_cast<size_t>(i)];
        points.push_back(
            {Log1pSafe(meta.input_rows), Log1pSafe(meta.input_bytes)});
      }
      std::vector<int> labels = Dbscan(points, {.eps = 0.4, .min_pts = 3});
      std::map<std::pair<int, int>, std::vector<int>> by_key;
      for (int i = 0; i < m; ++i) {
        int machine = placement.machine_of_instance[static_cast<size_t>(i)];
        const Machine& mach = context.cluster->machine(machine);
        int bucket =
            mach.hardware().id * 1000 +
            DiscretizeIndex(mach.state().cpu_util,
                            context.discretization_degree) *
                10 +
            DiscretizeIndex(mach.state().io_util,
                            context.discretization_degree);
        by_key[{labels[static_cast<size_t>(i)], bucket}].push_back(i);
      }
      for (auto& [key, members] : by_key) {
        FastMciGroup g;
        g.instances = std::move(members);
        g.representative = representative_of(g.instances);
        g.representative_machine =
            placement.machine_of_instance[static_cast<size_t>(
                g.representative)];
        g.instance_cluster = key.first;
        g.canonical_representative = g.representative;
        groups.push_back(std::move(g));
      }
      break;
    }
    case RaaClustering::kFastMci: {
      if (fast_mci_groups != nullptr && !fast_mci_groups->empty()) {
        groups = *fast_mci_groups;
      } else {
        // Rebuild: KDE clusters subdivided by the assigned machine's state
        // bucket (what clustered IPA would have produced).
        std::vector<InstanceClusterGroup> kde =
            ClusterInstancesByRows(stage);
        std::map<std::tuple<int, int>, std::vector<int>> by_key;
        for (size_t c = 0; c < kde.size(); ++c) {
          for (int i : kde[c].instance_ids) {
            int machine =
                placement.machine_of_instance[static_cast<size_t>(i)];
            const Machine& mach = context.cluster->machine(machine);
            int bucket =
                mach.hardware().id * 1000 +
                DiscretizeIndex(mach.state().cpu_util,
                                context.discretization_degree) *
                    10 +
                DiscretizeIndex(mach.state().io_util,
                                context.discretization_degree);
            by_key[{static_cast<int>(c), bucket}].push_back(i);
          }
        }
        for (auto& [key, members] : by_key) {
          FastMciGroup g;
          g.instances = std::move(members);
          g.representative = representative_of(g.instances);
          g.representative_machine =
              placement.machine_of_instance[static_cast<size_t>(
                  g.representative)];
          g.instance_cluster = std::get<0>(key);
          g.canonical_representative =
              kde[static_cast<size_t>(std::get<0>(key))].representative;
          groups.push_back(std::move(g));
        }
      }
      break;
    }
  }
  return groups;
}

/// Per-group solve inputs, resolved sequentially (and model-free) before
/// the prediction batches so that identical solves can be deduplicated and
/// every group's frontier stays a pure function of them.
struct GroupPrep {
  std::vector<ResourceConfig> grid;
  int theta0_index = -1;  // index of a bit-equal theta0 in grid, or -1
  int owner = -1;         // lowest group index with identical solve inputs
  int canonical = -1;     // the cluster's canonical representative
  FrontierKey key;        // frontier-template cache key
};

}  // namespace

RaaResult RunRaa(const SchedulingContext& context,
                 const StageDecision& placement,
                 const std::vector<FastMciGroup>* fast_mci_groups,
                 const RaaOptions& options, int trace_parent,
                 EmbeddingTable* embeddings) {
  Stopwatch timer;
  EmbeddingTable local_embeddings;
  if (embeddings == nullptr) embeddings = &local_embeddings;
  RaaResult result;
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  FGRO_CHECK(context.model != nullptr);
  const int m = stage.instance_count();
  if (!placement.feasible) return result;

  std::vector<FastMciGroup> groups =
      BuildGroups(context, placement, fast_mci_groups, options.clustering);
  result.num_groups = static_cast<int>(groups.size());

  // Per-machine co-residency count: an instance may only grow its container
  // up to its fair share of the machine's free capacity, which keeps the
  // per-instance searches independent while respecting Def. 5.2's capacity
  // constraints.
  std::vector<int> coresidents(static_cast<size_t>(cluster.size()), 0);
  for (int i = 0; i < m; ++i) {
    coresidents[static_cast<size_t>(
        placement.machine_of_instance[static_cast<size_t>(i)])]++;
  }

  const uint64_t model_tag = context.model->params_tag();
  // Predictions depend on the machine state only through DiscretizeState at
  // the *model's* degree (Channel 4), so two machines in the same bucket
  // are interchangeable for every latency below.
  const int model_dd = context.model->featurizer().discretization_degree();

  // Frontier compression (DESIGN.md §16): on, the solve builds one
  // template per (instance cluster, machine bucket) keyed content-wise in
  // `cache` and corrects each group's slot from it. Without a caller-shared cache
  // the solve uses a local one (templates shared within this solve only).
  FrontierCache local_cache(1 << 8);
  FrontierCache* cache = nullptr;
  if (context.frontier_compression) {
    cache = context.frontier_cache != nullptr ? context.frontier_cache
                                              : &local_cache;
    // Wholesale invalidation on model hot-swap, before any lookup: entries
    // under the current tag survive, stale tags drop.
    cache->EnsureModelTag(model_tag);
  }

  // Phase 0 (sequential, model-free): per-group theta grid, cache key, and
  // solve-input signature. Groups with bit-identical signatures would run
  // bit-identical solves — (θ, DiscretizeState) grids re-evaluated for
  // every group sharing a machine bucket and representative content — so
  // only the lowest-indexed "owner" computes; the rest copy its slot once
  // the owners are solved. This dedup is value-exact and independent of
  // compression.
  const int ng = static_cast<int>(groups.size());
  std::vector<GroupPrep> prep(static_cast<size_t>(ng));
  // Signature: representative content, canonical content, machine bucket,
  // grid content. The stage, theta0 and model are solve-wide. The full
  // tuple is the map key (no hashing) except the grid, whose hash is
  // verified bit-for-bit against the owner's grid below.
  std::map<std::array<uint64_t, 11>, int> owner_of;
  for (int gi = 0; gi < ng; ++gi) {
    GroupPrep& gp = prep[static_cast<size_t>(gi)];
    const FastMciGroup& group = groups[static_cast<size_t>(gi)];
    const Machine& machine = cluster.machine(group.representative_machine);
    const double share = static_cast<double>(
        coresidents[static_cast<size_t>(group.representative_machine)]);
    // Search the historically observed plan space: catalog entries within
    // the exploration window around theta0. Outside it the model has never
    // seen a configuration and its extrapolation is untrustworthy
    // (Appendix F.15: "we cannot lower the cores anymore ... the searching
    // space is still in a narrow range").
    for (const ResourceConfig& theta : FilterByCapacity(
             Hbo::ResourcePlanCatalog(),
             (machine.available_cores() + context.theta0.cores) / share,
             (machine.available_memory_gb() + context.theta0.memory_gb) /
                 share)) {
      if (theta.cores >= context.theta0.cores * kPlanExplorationLow &&
          theta.cores <= context.theta0.cores * kPlanExplorationHigh &&
          theta.memory_gb >=
              context.theta0.memory_gb * kPlanExplorationLow &&
          theta.memory_gb <=
              context.theta0.memory_gb * kPlanExplorationHigh) {
        gp.grid.push_back(theta);
      }
    }
    if (gp.grid.empty()) gp.grid.push_back(context.theta0);
    gp.theta0_index = IndexOfBits(gp.grid, context.theta0);
    gp.canonical = group.canonical_representative >= 0
                       ? group.canonical_representative
                       : group.representative;

    const InstanceMeta& rep_meta =
        stage.instances[static_cast<size_t>(group.representative)];
    const InstanceMeta& canon_meta =
        stage.instances[static_cast<size_t>(gp.canonical)];
    const SystemState bucket = DiscretizeState(machine.state(), model_dd);
    const uint64_t grid_hash = FrontierGridHash(gp.grid);

    FrontierKey& key = gp.key;
    key.job_id = stage.job_id;
    key.stage_id = stage.id;
    key.template_id = stage.template_id;
    key.instance_count = m;
    key.hardware_type = machine.hardware().id;
    key.rows_bits = DoubleBits(canon_meta.input_rows);
    key.bytes_bits = DoubleBits(canon_meta.input_bytes);
    key.fraction_bits = DoubleBits(canon_meta.input_fraction);
    key.cpu_bits = DoubleBits(bucket.cpu_util);
    key.mem_bits = DoubleBits(bucket.mem_util);
    key.io_bits = DoubleBits(bucket.io_util);
    key.theta0_cores_bits = DoubleBits(context.theta0.cores);
    key.theta0_memory_bits = DoubleBits(context.theta0.memory_gb);
    key.grid_hash = grid_hash;
    key.model_tag = model_tag;

    const std::array<uint64_t, 11> signature = {
        DoubleBits(rep_meta.input_rows), DoubleBits(rep_meta.input_bytes),
        DoubleBits(rep_meta.input_fraction), key.rows_bits, key.bytes_bits,
        key.fraction_bits,
        static_cast<uint64_t>(static_cast<uint32_t>(key.hardware_type)),
        key.cpu_bits, key.mem_bits, key.io_bits, grid_hash};
    auto [it, inserted] = owner_of.emplace(signature, gi);
    gp.owner = it->second;
    if (!inserted && gp.owner != gi) {
      // The grid hash stands in for grid content inside the signature;
      // verify exactly so a 64-bit collision computes instead of aliasing.
      if (!SameGrid(prep[static_cast<size_t>(gp.owner)].grid, gp.grid)) {
        gp.owner = gi;
      }
    }
  }

  // Observability (counters resolved once; never read back, so replays are
  // byte-identical instrumented or not).
  obs::Counter* c_hits = nullptr;
  obs::Counter* c_misses = nullptr;
  obs::Counter* c_builds = nullptr;
  obs::Counter* c_corrections = nullptr;
  obs::Counter* c_dedup = nullptr;
  if (context.obs.metrics != nullptr) {
    c_dedup = context.obs.metrics->GetCounter("so.raa.dedup_groups");
    if (cache != nullptr) {
      c_hits = context.obs.metrics->GetCounter("so.frontier.hits");
      c_misses = context.obs.metrics->GetCounter("so.frontier.misses");
      c_builds = context.obs.metrics->GetCounter("so.frontier.builds");
      c_corrections =
          context.obs.metrics->GetCounter("so.frontier.corrections");
    }
  }

  // Instance-level MOO per group, on the representative's machine. Every
  // owner group's latencies come from two flat prediction batches (the
  // grid sweeps, then the compressed path's corrections), each fanned in
  // chunks by PredictQueries. Each group's frontier is then solved into its
  // own slot, and the slots are merged sequentially in group order below —
  // the incumbent accumulation (default_latency/default_cost) therefore
  // sees the exact FP operation order of the original serial loop, and the
  // result is byte-identical at any thread count. Every slot is a pure
  // function of its group's prep (and the model weights), never of batch
  // layout or cache warmth, which is what keeps compressed replays
  // byte-identical too.
  InstanceMooSolver solver(context.cost_weights);
  struct GroupFrontier {
    std::vector<InstanceParetoPoint> frontier;  // empty aborts RAA
    double lat0 = 0.0;  // predicted latency of keeping theta0
  };
  std::vector<GroupFrontier> slots(static_cast<size_t>(ng));

  // Phase 1 lookups (compressed): every owner group looks up its cluster's
  // template, and each missed template is built once, however many groups
  // share its key.
  std::vector<std::shared_ptr<const FrontierEntry>> templates(
      static_cast<size_t>(ng));
  std::vector<int> build_of(static_cast<size_t>(ng), -1);
  std::vector<int> builds;  // per template build: the group that keys it
  if (cache != nullptr) {
    std::unordered_map<FrontierKey, int, FrontierKeyHash> build_index;
    for (int gi = 0; gi < ng; ++gi) {
      const GroupPrep& gp = prep[static_cast<size_t>(gi)];
      if (gp.owner != gi) continue;
      auto pending = build_index.find(gp.key);
      if (pending != build_index.end() &&
          SameGrid(prep[static_cast<size_t>(
                            builds[static_cast<size_t>(pending->second)])]
                       .grid,
                   gp.grid)) {
        build_of[static_cast<size_t>(gi)] = pending->second;
        continue;
      }
      if (cache->Lookup(gp.key, gp.grid,
                        &templates[static_cast<size_t>(gi)])) {
        if (c_hits != nullptr) c_hits->Increment();
        continue;
      }
      if (c_misses != nullptr) c_misses->Increment();
      build_of[static_cast<size_t>(gi)] = static_cast<int>(builds.size());
      build_index.emplace(gp.key, static_cast<int>(builds.size()));
      builds.push_back(gi);
    }
  }

  // Embed, in one call, every instance the sweeps need (the table skips
  // those the placement embedded): each owner group's representative,
  // unless it is its compressed cluster's canonical one (then the template
  // is its solve), and every template build's canonical representative.
  std::vector<int> embed_ids;
  for (int gi = 0; gi < ng; ++gi) {
    const GroupPrep& gp = prep[static_cast<size_t>(gi)];
    const int representative = groups[static_cast<size_t>(gi)].representative;
    if (gp.owner == gi && (cache == nullptr || representative != gp.canonical)) {
      embed_ids.push_back(representative);
    }
  }
  for (int owner : builds) {
    embed_ids.push_back(prep[static_cast<size_t>(owner)].canonical);
  }
  if (!embeddings->Embed(context, embed_ids)) {
    if (context.deadline.expired()) {
      result.solve_seconds = timer.ElapsedSeconds();
    }
    return result;
  }

  // A sweep predicts `thetas`, plus theta0 appended when `theta0_index` <
  // 0, for one instance on one group's machine, as consecutive rows of
  // `queries`; add_sweep returns its first row.
  std::vector<LatencyModel::PredictionQuery> queries;
  std::vector<double> lats;
  auto add_sweep = [&](int instance, int gi,
                       const std::vector<ResourceConfig>& thetas,
                       int theta0_index) {
    const size_t offset = queries.size();
    const LatencyModel::EmbeddedInstance* e = &embeddings->at(instance);
    const Machine& machine = cluster.machine(
        groups[static_cast<size_t>(gi)].representative_machine);
    for (const ResourceConfig& theta : thetas) {
      queries.push_back({e, {theta, machine.state(), machine.hardware().id}});
    }
    if (theta0_index < 0) {
      queries.push_back(
          {e, {context.theta0, machine.state(), machine.hardware().id}});
    }
    return offset;
  };
  auto lat0_of = [&](size_t offset, size_t points, int theta0_index) {
    return lats[offset + (theta0_index >= 0
                              ? static_cast<size_t>(theta0_index)
                              : points)];
  };
  // Checked before each batch (PredictQueries also checks per chunk). On
  // expiry RAA aborts with ok=false and the ladder keeps the (valid)
  // placement on theta0.
  auto predict = [&] {
    if (!context.deadline.expired() &&
        PredictQueries(context, queries, &lats)) {
      return true;
    }
    result.solve_seconds = timer.ElapsedSeconds();
    return false;
  };

  // Phase 1 batch: uncompressed, every owner group's grid with its
  // representative; compressed, every template build's grid with the
  // canonical representative.
  std::vector<size_t> sweep_of(static_cast<size_t>(ng), 0);
  if (cache == nullptr) {
    for (int gi = 0; gi < ng; ++gi) {
      const GroupPrep& gp = prep[static_cast<size_t>(gi)];
      if (gp.owner != gi) continue;
      sweep_of[static_cast<size_t>(gi)] =
          add_sweep(groups[static_cast<size_t>(gi)].representative, gi,
                    gp.grid, gp.theta0_index);
    }
  }
  for (int owner : builds) {
    const GroupPrep& gp = prep[static_cast<size_t>(owner)];
    sweep_of[static_cast<size_t>(owner)] =
        add_sweep(gp.canonical, owner, gp.grid, gp.theta0_index);
  }
  if (!predict()) return result;

  // Templates are solved in parallel and inserted in build order.
  std::vector<std::shared_ptr<const FrontierEntry>> built(builds.size());
  ParallelFor(context.worker_pool, static_cast<int>(builds.size()),
              [&](int b) {
                const int owner = builds[static_cast<size_t>(b)];
                const GroupPrep& gp = prep[static_cast<size_t>(owner)];
                const size_t offset = sweep_of[static_cast<size_t>(owner)];
                auto entry = std::make_shared<FrontierEntry>();
                entry->grid = gp.grid;
                entry->latencies.assign(
                    lats.begin() + static_cast<long>(offset),
                    lats.begin() +
                        static_cast<long>(offset + gp.grid.size()));
                entry->lat0 =
                    lat0_of(offset, gp.grid.size(), gp.theta0_index);
                entry->frontier = solver.SolveExhaustive(
                    entry->latencies.data(), entry->grid);
                built[static_cast<size_t>(b)] = std::move(entry);
              });
  for (size_t b = 0; b < builds.size(); ++b) {
    cache->Insert(prep[static_cast<size_t>(builds[b])].key, built[b]);
    if (c_builds != nullptr) c_builds->Increment();
  }

  // Phase 2 (compressed): a group whose representative differs from its
  // cluster's canonical one re-ranks K evenly spread template-frontier
  // points (endpoints included) plus theta0 with its own representative
  // embedding. Bounded by kCorrectionTopK; deterministic given (template,
  // representative).
  std::vector<std::vector<ResourceConfig>> picked(static_cast<size_t>(ng));
  std::vector<int> picked_theta0(static_cast<size_t>(ng), -1);
  std::vector<bool> corrected(static_cast<size_t>(ng), false);
  if (cache != nullptr) {
    queries.clear();
    for (int gi = 0; gi < ng; ++gi) {
      const GroupPrep& gp = prep[static_cast<size_t>(gi)];
      if (gp.owner != gi) continue;
      std::shared_ptr<const FrontierEntry>& tmpl =
          templates[static_cast<size_t>(gi)];
      if (build_of[static_cast<size_t>(gi)] >= 0) {
        tmpl = built[static_cast<size_t>(build_of[static_cast<size_t>(gi)])];
      }
      const FastMciGroup& group = groups[static_cast<size_t>(gi)];
      if (group.representative == gp.canonical) continue;
      corrected[static_cast<size_t>(gi)] = true;
      const int f = static_cast<int>(tmpl->frontier.size());
      const int k = std::min(kCorrectionTopK, f);
      std::vector<ResourceConfig>& thetas = picked[static_cast<size_t>(gi)];
      thetas.reserve(static_cast<size_t>(k));
      int last = -1;
      for (int j = 0; j < k; ++j) {
        const int idx =
            k == 1 ? 0
                   : static_cast<int>((static_cast<long>(j) * (f - 1) +
                                       (k - 1) / 2) /
                                      (k - 1));
        if (idx == last) continue;
        last = idx;
        thetas.push_back(tmpl->frontier[static_cast<size_t>(idx)].theta);
      }
      picked_theta0[static_cast<size_t>(gi)] =
          IndexOfBits(thetas, context.theta0);
      sweep_of[static_cast<size_t>(gi)] =
          add_sweep(group.representative, gi, thetas,
                    picked_theta0[static_cast<size_t>(gi)]);
    }
    if (!predict()) return result;
  }

  ParallelFor(context.worker_pool, ng, [&](int gi) {
    const GroupPrep& gp = prep[static_cast<size_t>(gi)];
    if (gp.owner != gi) return;  // follower
    GroupFrontier& slot = slots[static_cast<size_t>(gi)];
    const size_t offset = sweep_of[static_cast<size_t>(gi)];
    if (cache == nullptr) {
      slot.frontier = solver.SolveExhaustive(&lats[offset], gp.grid);
      slot.lat0 = lat0_of(offset, gp.grid.size(), gp.theta0_index);
    } else if (!corrected[static_cast<size_t>(gi)]) {
      // The template IS this group's solve: share it verbatim.
      slot.frontier = templates[static_cast<size_t>(gi)]->frontier;
      slot.lat0 = templates[static_cast<size_t>(gi)]->lat0;
    } else {
      const std::vector<ResourceConfig>& thetas =
          picked[static_cast<size_t>(gi)];
      slot.frontier = solver.SolveExhaustive(&lats[offset], thetas);
      slot.lat0 = lat0_of(offset, thetas.size(),
                          picked_theta0[static_cast<size_t>(gi)]);
      if (c_corrections != nullptr) c_corrections->Increment();
    }
  });
  // Followers copy their owner's slot: same signature means the same pure
  // computation, so the copy is value-exact (and the whole point of the
  // within-solve dedup — one (θ, bucket) sweep per distinct signature).
  for (int gi = 0; gi < ng; ++gi) {
    const int owner = prep[static_cast<size_t>(gi)].owner;
    if (owner == gi) continue;
    slots[static_cast<size_t>(gi)] = slots[static_cast<size_t>(owner)];
    if (c_dedup != nullptr) c_dedup->Increment();
  }

  // Deterministic merge in group order.
  std::vector<std::vector<InstanceParetoPoint>> pareto_sets;
  std::vector<double> multiplicity;
  double default_latency = 0.0, default_cost = 0.0;
  pareto_sets.reserve(slots.size());
  for (GroupFrontier& slot : slots) {
    if (slot.frontier.empty()) return result;
    const size_t gi = pareto_sets.size();
    pareto_sets.push_back(std::move(slot.frontier));
    multiplicity.push_back(
        static_cast<double>(groups[gi].instances.size()));
    default_latency = std::max(default_latency, slot.lat0);
    default_cost += slot.lat0 * context.cost_weights.Rate(context.theta0) *
                    static_cast<double>(groups[gi].instances.size());
  }

  // Stage-level hierarchical MOO.
  std::vector<StageParetoPoint> stage_pareto;
  if (options.algorithm == RaaAlgorithm::kPath) {
    stage_pareto = RaaPath(pareto_sets, multiplicity);
  } else {
    std::vector<std::vector<std::vector<double>>> solutions(
        pareto_sets.size());
    for (size_t i = 0; i < pareto_sets.size(); ++i) {
      for (const InstanceParetoPoint& p : pareto_sets[i]) {
        solutions[i].push_back({p.latency, p.cost});
      }
    }
    std::vector<GeneralStagePoint> general = GeneralHierarchicalMoo(
        solutions, {true, false}, multiplicity);
    stage_pareto.reserve(general.size());
    for (GeneralStagePoint& g : general) {
      stage_pareto.push_back(
          {g.objectives[0], g.objectives[1], std::move(g.choice)});
    }
  }
  if (stage_pareto.empty()) return result;

  // WUN recommendation, anchored at the incumbent: prefer the frontier
  // region that dominates HBO's default plan in BOTH latency and cost, so
  // the recommendation improves the stage rather than trading one objective
  // far away (Table 13: the plan dominates the default on 68-99% of
  // stages). If no point dominates the default, WUN runs on the full set.
  obs::ScopedSpan wun_span(context.obs.tracer, "so.wun", trace_parent);
  Stopwatch wun_timer;
  result.stage_pareto.reserve(stage_pareto.size());
  for (const StageParetoPoint& p : stage_pareto) {
    result.stage_pareto.push_back({p.latency, p.cost});
  }
  std::vector<int> dominating;
  for (size_t i = 0; i < stage_pareto.size(); ++i) {
    if (stage_pareto[i].latency <= default_latency + 1e-12 &&
        stage_pareto[i].cost <= default_cost + 1e-12) {
      dominating.push_back(static_cast<int>(i));
    }
  }
  if (dominating.empty()) {
    result.recommended_index =
        WeightedUtopiaNearest(result.stage_pareto, options.wun_weights);
    // WUN returns -1 when no finite point exists (a drifted model can emit
    // NaN objectives): abort with ok=false, the ladder keeps theta0.
    if (result.recommended_index < 0) return result;
  } else {
    std::vector<std::vector<double>> candidates;
    candidates.reserve(dominating.size());
    for (int i : dominating) {
      candidates.push_back(result.stage_pareto[static_cast<size_t>(i)]);
    }
    int pick = WeightedUtopiaNearest(candidates, options.wun_weights);
    if (pick < 0) return result;
    result.recommended_index = dominating[static_cast<size_t>(pick)];
  }
  if (context.obs.metrics != nullptr) {
    context.obs.metrics->GetLatencyHistogram("so.wun_seconds")
        ->Observe(wun_timer.ElapsedSeconds());
  }
  const StageParetoPoint& chosen =
      stage_pareto[static_cast<size_t>(result.recommended_index)];

  // Expand group choices to per-instance resource plans.
  result.theta_of_instance.assign(static_cast<size_t>(m), context.theta0);
  for (size_t g = 0; g < groups.size(); ++g) {
    const ResourceConfig& theta =
        pareto_sets[g][static_cast<size_t>(chosen.choice[g])].theta;
    for (int i : groups[g].instances) {
      result.theta_of_instance[static_cast<size_t>(i)] = theta;
    }
  }
  result.ok = true;
  result.group_frontiers = std::move(pareto_sets);
  result.solve_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fgro
