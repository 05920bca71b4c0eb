#ifndef FGRO_OPTIMIZER_IPA_CLUSTERED_H_
#define FGRO_OPTIMIZER_IPA_CLUSTERED_H_

#include <vector>

#include "clustering/machine_clustering.h"
#include "optimizer/scheduler_types.h"

namespace fgro {

/// A chunk of instances from one instance cluster that Algorithm 4 sent to
/// machines of one machine cluster. These are exactly the RAA(Fast_MCI)
/// sub-clusters of Appendix E.1 — they fall out of clustered IPA for free.
/// `instances` are sorted by descending input rows; the first one is the
/// representative (largest rows, conservative latency).
class EmbeddingTable;  // optimizer/ipa.h

struct FastMciGroup {
  std::vector<int> instances;
  int representative = -1;
  int representative_machine = -1;
  /// Index of the KDE instance cluster this group came from (-1 when the
  /// group was not derived from the KDE clustering, e.g. RAA(W/O_C)).
  int instance_cluster = -1;
  /// The *whole* instance cluster's representative (its largest-rows
  /// instance), which may live in a different group when clustered IPA
  /// split the cluster across dispatch steps. Frontier compression
  /// (DESIGN.md §16) builds one template per (instance cluster, machine
  /// bucket) from this canonical instance, so every split-off group of the
  /// same cluster shares it; -1 means "same as representative".
  int canonical_representative = -1;
};

struct ClusteredIpaResult {
  StageDecision decision;
  std::vector<FastMciGroup> groups;
  int num_instance_clusters = 0;
  int num_machine_clusters = 0;
};

/// Clustered IPA, Algorithm 4: 1-D KDE clustering of instances on input
/// rows, machine clustering on discretized state + hardware, then the BPL
/// greedy over the reduced m' x n' latency matrix, dispatching delta =
/// min(remaining instances, remaining machine-cluster slots) heaviest
/// instances at each step. O(m log m + n log n) overall. Embeds the
/// representatives into `embeddings` (null: a table local to the call).
ClusteredIpaResult IpaClusteredSchedule(const SchedulingContext& context,
                                        EmbeddingTable* embeddings = nullptr);

}  // namespace fgro

#endif  // FGRO_OPTIMIZER_IPA_CLUSTERED_H_
