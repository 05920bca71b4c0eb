#include "clustering/machine_clustering.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "common/math_utils.h"
#include "featurize/discretize.h"

namespace fgro {

std::vector<MachineClusterGroup> ClusterMachines(
    const Cluster& cluster, const std::vector<int>& machine_ids,
    int discretization_degree) {
  // One packed key per machine, ordered like the (hw, dcpu, dmem, dio)
  // tuple: the hardware id with its sign bit flipped in the high word, the
  // bucket indices (each in [0, dd)) in mixed radix dd in the low word.
  const uint64_t dd =
      static_cast<uint64_t>(std::max(1, discretization_degree));
  FGRO_CHECK(dd * dd * dd <= (uint64_t{1} << 32)) << "dd " << dd;
  struct Keyed {
    uint64_t key;
    int id;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(machine_ids.size());
  for (int id : machine_ids) {
    const SystemState& s = cluster.machine(id).state();
    const auto bucket = [&](double util) {
      return static_cast<uint64_t>(
          DiscretizeIndex(util, discretization_degree));
    };
    const uint64_t hw = static_cast<uint32_t>(
        cluster.machine(id).hardware().id ^ std::numeric_limits<int>::min());
    keyed.push_back(
        {(hw << 32) | ((bucket(s.cpu_util) * dd + bucket(s.mem_util)) * dd +
                       bucket(s.io_util)),
         id});
  }
  // Stable: each group keeps its members in input order.
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<MachineClusterGroup> out;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].key != keyed[i - 1].key) out.emplace_back();
    MachineClusterGroup& g = out.back();
    const int id = keyed[i].id;
    g.machine_ids.push_back(id);
    // The first member with the strictly greatest CPU utilization.
    if (g.representative < 0 ||
        cluster.machine(id).state().cpu_util >
            cluster.machine(g.representative).state().cpu_util) {
      g.representative = id;
    }
  }
  return out;
}

std::vector<InstanceClusterGroup> ClusterInstancesByRows(
    const Stage& stage, const Kde1dOptions& options) {
  const int m = stage.instance_count();
  std::vector<double> log_rows(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    log_rows[static_cast<size_t>(i)] =
        Log1pSafe(stage.instances[static_cast<size_t>(i)].input_rows);
  }
  std::vector<int> labels = Kde1dCluster(log_rows, options);

  std::vector<InstanceClusterGroup> out(
      static_cast<size_t>(NumClusters(labels)));
  for (int i = 0; i < m; ++i) {
    out[static_cast<size_t>(labels[static_cast<size_t>(i)])]
        .instance_ids.push_back(i);
  }
  for (InstanceClusterGroup& g : out) {
    std::sort(g.instance_ids.begin(), g.instance_ids.end(), [&](int a, int b) {
      return stage.instances[static_cast<size_t>(a)].input_rows >
             stage.instances[static_cast<size_t>(b)].input_rows;
    });
    g.representative = g.instance_ids.front();
  }
  return out;
}

}  // namespace fgro
