#include "optimizer/ipa_clustered.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "optimizer/fuxi.h"  // InstanceCapacity / ResolveAlpha
#include "optimizer/ipa.h"   // BuildBplMatrix
#include "optimizer/sharding.h"  // CandidateMachines

namespace fgro {

ClusteredIpaResult IpaClusteredSchedule(const SchedulingContext& context,
                                        EmbeddingTable* embeddings) {
  Stopwatch timer;
  EmbeddingTable local;
  ClusteredIpaResult result;
  StageDecision& decision = result.decision;
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  FGRO_CHECK(context.model != nullptr);
  const int m = stage.instance_count();

  std::vector<int> candidates = CandidateMachines(context);
  if (candidates.empty()) return result;
  const int alpha =
      ResolveAlpha(context.alpha, m, static_cast<int>(candidates.size()));

  // Cluster instances (1-D KDE on log rows) and machines (Ch4/Ch5 buckets).
  std::vector<InstanceClusterGroup> inst_clusters =
      ClusterInstancesByRows(stage);
  std::vector<MachineClusterGroup> mach_clusters = ClusterMachines(
      cluster, candidates, context.discretization_degree);
  const int mc = static_cast<int>(inst_clusters.size());
  const int nc = static_cast<int>(mach_clusters.size());
  result.num_instance_clusters = mc;
  result.num_machine_clusters = nc;

  // Per-machine slot budget, and per-machine-cluster totals s_j.
  std::vector<int> slots_of_machine(static_cast<size_t>(cluster.size()), 0);
  std::vector<long> s(static_cast<size_t>(nc), 0);
  for (int j = 0; j < nc; ++j) {
    for (int id : mach_clusters[static_cast<size_t>(j)].machine_ids) {
      int cap = InstanceCapacity(cluster.machine(id), context.theta0, alpha);
      slots_of_machine[static_cast<size_t>(id)] = cap;
      s[static_cast<size_t>(j)] += cap;
    }
  }

  // Reduced latency matrix over representatives (one flat batch; see
  // BuildBplMatrix).
  std::vector<int> instance_rows(static_cast<size_t>(mc));
  std::vector<int> machine_cols(static_cast<size_t>(nc));
  for (int i = 0; i < mc; ++i) {
    instance_rows[static_cast<size_t>(i)] =
        inst_clusters[static_cast<size_t>(i)].representative;
  }
  for (int j = 0; j < nc; ++j) {
    machine_cols[static_cast<size_t>(j)] =
        mach_clusters[static_cast<size_t>(j)].representative;
  }
  std::vector<std::vector<double>> L;
  if (!BuildBplMatrix(context, instance_rows, machine_cols,
                      embeddings != nullptr ? embeddings : &local, &L)) {
    decision.solve_seconds = timer.ElapsedSeconds();
    return result;
  }

  // Remaining-instance cursors: instances in each cluster are sorted by
  // descending input rows, so `taken[i]` heaviest have already been sent.
  std::vector<size_t> taken(static_cast<size_t>(mc), 0);
  std::vector<bool> inst_active(static_cast<size_t>(mc), true);
  std::vector<bool> mach_active(static_cast<size_t>(nc));
  for (int j = 0; j < nc; ++j) {
    mach_active[static_cast<size_t>(j)] = s[static_cast<size_t>(j)] > 0;
  }
  // Machine dispatch cursor per cluster (round-robin over members).
  std::vector<size_t> mach_cursor(static_cast<size_t>(nc), 0);

  std::vector<double> bpl(static_cast<size_t>(mc));
  std::vector<int> bpl_machine(static_cast<size_t>(mc), -1);
  auto recompute = [&](int i) {
    double best = std::numeric_limits<double>::infinity();
    int best_j = -1;
    for (int j = 0; j < nc; ++j) {
      if (mach_active[static_cast<size_t>(j)] &&
          L[static_cast<size_t>(i)][static_cast<size_t>(j)] < best) {
        best = L[static_cast<size_t>(i)][static_cast<size_t>(j)];
        best_j = j;
      }
    }
    bpl[static_cast<size_t>(i)] = best;
    bpl_machine[static_cast<size_t>(i)] = best_j;
  };
  for (int i = 0; i < mc; ++i) recompute(i);

  decision.machine_of_instance.assign(static_cast<size_t>(m), -1);
  decision.theta_of_instance.assign(static_cast<size_t>(m), context.theta0);
  int placed = 0;

  while (placed < m) {
    if (context.deadline.expired()) {
      decision.solve_seconds = timer.ElapsedSeconds();
      return result;
    }
    int i_t = -1;
    double max_bpl = -1.0;
    for (int i = 0; i < mc; ++i) {
      if (inst_active[static_cast<size_t>(i)] &&
          bpl[static_cast<size_t>(i)] > max_bpl) {
        max_bpl = bpl[static_cast<size_t>(i)];
        i_t = i;
      }
    }
    if (i_t < 0) return result;  // instances left but nothing active
    int j_t = bpl_machine[static_cast<size_t>(i_t)];
    if (j_t < 0) return result;  // no machine cluster can take them

    InstanceClusterGroup& ic = inst_clusters[static_cast<size_t>(i_t)];
    MachineClusterGroup& mcg = mach_clusters[static_cast<size_t>(j_t)];
    long remaining_insts =
        static_cast<long>(ic.instance_ids.size() - taken[static_cast<size_t>(i_t)]);
    long delta = std::min(remaining_insts, s[static_cast<size_t>(j_t)]);
    FGRO_CHECK(delta > 0);

    FastMciGroup group;
    group.instance_cluster = i_t;
    group.canonical_representative = ic.representative;
    group.instances.reserve(static_cast<size_t>(delta));
    for (long k = 0; k < delta; ++k) {
      int inst = ic.instance_ids[taken[static_cast<size_t>(i_t)]++];
      // Next machine in the cluster with a free slot.
      size_t scanned = 0;
      while (scanned < mcg.machine_ids.size()) {
        size_t c = mach_cursor[static_cast<size_t>(j_t)] %
                   mcg.machine_ids.size();
        int mid = mcg.machine_ids[c];
        mach_cursor[static_cast<size_t>(j_t)]++;
        if (slots_of_machine[static_cast<size_t>(mid)] > 0) {
          slots_of_machine[static_cast<size_t>(mid)]--;
          decision.machine_of_instance[static_cast<size_t>(inst)] = mid;
          group.instances.push_back(inst);
          if (group.representative < 0) {
            group.representative = inst;
            group.representative_machine = mid;
          }
          break;
        }
        ++scanned;
      }
    }
    s[static_cast<size_t>(j_t)] -= delta;
    placed += static_cast<int>(delta);
    result.groups.push_back(std::move(group));

    if (taken[static_cast<size_t>(i_t)] >= ic.instance_ids.size()) {
      inst_active[static_cast<size_t>(i_t)] = false;
    }
    if (s[static_cast<size_t>(j_t)] <= 0) {
      mach_active[static_cast<size_t>(j_t)] = false;
      for (int i = 0; i < mc; ++i) {
        if (inst_active[static_cast<size_t>(i)] &&
            bpl_machine[static_cast<size_t>(i)] == j_t) {
          recompute(i);
        }
      }
    }
  }

  decision.feasible = true;
  decision.solve_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fgro
