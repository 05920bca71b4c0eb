#ifndef FGRO_OPTIMIZER_IPA_H_
#define FGRO_OPTIMIZER_IPA_H_

#include "optimizer/scheduler_types.h"

namespace fgro {

/// The plan embeddings (with head prefixes) of one solve, indexed by
/// instance of the stage it decides and filled on first use, so no instance
/// is embedded twice in a solve: RAA reuses the canonical representatives
/// IPA embedded. StageOptimizer's OptimizeImpl owns one per solve and hands
/// it to IPA and RAA; sharded refinement keeps its own. A shard or reduced
/// reconfiguration view renumbers instances (and changes the stage width
/// the embedding sees), so each view's solve has its own table. Entries
/// never move once filled: references from at() stay valid for the table's
/// lifetime.
class EmbeddingTable {
 public:
  /// Embeds every instance of `instance_ids` not in the table yet: one
  /// LatencyModel::EmbedBatch per chunk of missing ids, the chunks fanned
  /// across context.worker_pool when set, the deadline checked before each.
  /// An embedding does not depend on its chunk, so the table is
  /// byte-identical at any thread count. Returns false when the deadline
  /// expired or an embedding failed; entries filled so far stay valid. Every
  /// call must pass the same context.stage.
  bool Embed(const SchedulingContext& context,
             const std::vector<int>& instance_ids);
  /// The embedding of `instance`, which an Embed call must have filled.
  const LatencyModel::EmbeddedInstance& at(int instance) const;

 private:
  const Stage* stage_ = nullptr;
  std::vector<LatencyModel::EmbeddedInstance> entries_;
  std::vector<char> filled_;  // not vector<bool>: chunks write concurrently
};

/// Intelligent Placement Advisor, Algorithm 1: build the full m x n latency
/// matrix with the fine-grained model under the uniform resource plan
/// theta0, then greedily match the instance with the largest
/// best-possible-latency (BPL) to its best machine, updating BPLs whenever a
/// machine's capacity is exhausted. Optimal under the column-order
/// assumption (Theorem 5.1). This is the unclustered IPA(Org) of Expt 8 —
/// exact but with an m x n model-inference bill. Embeds into `embeddings`
/// (null: a table local to the call).
StageDecision IpaSchedule(const SchedulingContext& context,
                          EmbeddingTable* embeddings = nullptr);

/// Exposed for tests and the clustered variant: runs the BPL greedy loop on
/// an explicit latency matrix. `capacity[j]` is how many instances machine
/// column j can take. Returns the column index per row, or empty if no
/// feasible matching exists.
std::vector<int> IpaGreedyMatch(const std::vector<std::vector<double>>& L,
                                std::vector<int> capacity);

/// Predicts every query into (*out)[k] through LatencyModel::PredictBatch,
/// memoized via context.memo: 256-row chunks, fanned across
/// context.worker_pool when set, with one BatchScratch per participating
/// thread. A row's value does not depend on its chunk, so the result is
/// byte-identical at any thread count. The deadline is checked before each
/// chunk; returns false when it expired, in which case *out is
/// unspecified. Shared by BuildBplMatrix and RAA's flat batches.
bool PredictQueries(const SchedulingContext& context,
                    const std::vector<LatencyModel::PredictionQuery>& queries,
                    std::vector<double>* out);

/// Shared by IPA and its clustered variant: fills (*L)[i][j] with the
/// predicted latency of stage instance instance_rows[i] on machine
/// machine_cols[j] (a cluster machine id) under theta0. The rows are
/// embedded into `embeddings` first, and the whole matrix becomes one
/// PredictQueries call, bit-identical to per-cell PredictFromEmbedding
/// calls.
/// Returns false when the deadline expired or an embedding failed, in
/// which case *L is unspecified.
bool BuildBplMatrix(const SchedulingContext& context,
                    const std::vector<int>& instance_rows,
                    const std::vector<int>& machine_cols,
                    EmbeddingTable* embeddings,
                    std::vector<std::vector<double>>* L);

/// Empirically checks Theorem 5.1's column-order assumption on a latency
/// matrix: samples instance pairs and machines and returns the fraction of
/// (pair, machine) samples whose latency order disagrees with the
/// consensus order of the first machine column. 0 = assumption holds
/// exactly; the paper measures it holding on 88-96% of production stages.
double ColumnOrderViolationRate(const std::vector<std::vector<double>>& L,
                                int max_samples = 2048, uint64_t seed = 1);

}  // namespace fgro

#endif  // FGRO_OPTIMIZER_IPA_H_
