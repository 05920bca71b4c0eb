#ifndef FGRO_OPTIMIZER_RAA_H_
#define FGRO_OPTIMIZER_RAA_H_

#include <vector>

#include "optimizer/ipa_clustered.h"
#include "optimizer/raa_path.h"
#include "optimizer/scheduler_types.h"

namespace fgro {

/// Instance-clustering strategy for RAA (Appendix E.1).
enum class RaaClustering {
  kNone,     // RAA(W/O_C): per-instance Pareto sets, highest quality & cost
  kDbscan,   // RAA(DBSCAN): off-the-shelf clustering on MCI features, O(m^2)
  kFastMci,  // RAA(Fast_MCI): reuse clustered IPA's sub-clusters, free
};

/// Hierarchical MOO solver choice.
enum class RaaAlgorithm {
  kGeneral,  // Algorithm 2
  kPath,     // Algorithm 3 (default; exact & fastest for 2 objectives)
};

struct RaaOptions {
  RaaClustering clustering = RaaClustering::kFastMci;
  RaaAlgorithm algorithm = RaaAlgorithm::kPath;
  /// WUN importance weights over (latency, cost). Latency-leaning by
  /// default: the WUN distance is computed on min-max normalized
  /// objectives, and our users (like the paper's) weight the latency axis
  /// higher when picking from the dominating region of the frontier.
  std::vector<double> wun_weights = {3.0, 1.0};
};

struct RaaResult {
  bool ok = false;
  std::vector<ResourceConfig> theta_of_instance;
  double solve_seconds = 0.0;
  /// The stage-level Pareto frontier (predicted latency, predicted cost)
  /// and which of its points WUN recommended.
  std::vector<std::vector<double>> stage_pareto;
  int recommended_index = -1;
  int num_groups = 0;
  /// Per RAA group, in group order: the instance-level Pareto frontier
  /// (descending latency) the stage-level MOO combined. Empty unless ok.
  std::vector<std::vector<InstanceParetoPoint>> group_frontiers;
};

/// Resource Assignment Advisor: given a placement plan, computes
/// per-instance (or per-cluster) Pareto frontiers over the configuration
/// grid with the fine-grained model, combines them into the stage-level
/// Pareto set with hierarchical MOO, and recommends one plan by Weighted
/// Utopia Nearest. `fast_mci_groups` supplies clustered IPA's sub-clusters
/// for RaaClustering::kFastMci (pass null to rebuild them from scratch).
/// With context.obs wired, the WUN selection emits a "so.wun" span under
/// `trace_parent` (the caller's "so.raa" span) and a so.wun_seconds
/// histogram sample. Embeds the instances it sweeps into `embeddings`
/// (null: a table local to the call), reusing any the placement embedded.
RaaResult RunRaa(const SchedulingContext& context,
                 const StageDecision& placement,
                 const std::vector<FastMciGroup>* fast_mci_groups,
                 const RaaOptions& options, int trace_parent = -1,
                 EmbeddingTable* embeddings = nullptr);

}  // namespace fgro

#endif  // FGRO_OPTIMIZER_RAA_H_
