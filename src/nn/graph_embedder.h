#ifndef FGRO_NN_GRAPH_EMBEDDER_H_
#define FGRO_NN_GRAPH_EMBEDDER_H_

#include <vector>

#include "nn/linear.h"

namespace fgro {

/// Generic plan-graph input consumed by every embedder. For DAG models the
/// `children` lists come straight from the stage; for tree models they come
/// from the DAG-to-tree conversion. `node_types` selects QPPNet units
/// (kArtificialRoot = -1 maps to a dedicated unit).
struct PlanGraph {
  std::vector<Vec> node_features;
  std::vector<std::vector<int>> children;
  std::vector<int> node_types;

  int size() const { return static_cast<int>(node_features.size()); }
};

/// The GTN stand-in: a message-passing network over the operator DAG. Each
/// layer mixes a node's own state with the mean of its children's and
/// parents' states (so information flows both with and against the data
/// flow, which is what lets the embedding capture DAG context); the stage
/// embedding is the mean over final node states.
///
/// The network runs a batch of graphs at a time: every node of the batch
/// is one row of a stacked matrix (graph-major, node order ascending), so
/// each Linear runs once per layer through the ForwardBatch panel kernel.
/// Rows never mix across graphs and every output element keeps the
/// per-node accumulation order, so a graph's embedding is bit-identical
/// whatever batch it rides in.
class GraphEmbedder {
 public:
  GraphEmbedder() = default;
  GraphEmbedder(int in_dim, int hidden_dim, int num_layers, Rng* rng);

  /// Activations of one batch (kept for BackwardBatch) plus the backward's
  /// scratch. Reusing one cache across batches stops it allocating once
  /// warm. The graphs must outlive the BackwardBatch call.
  struct BatchCache {
    std::vector<const PlanGraph*> graphs;
    std::vector<int> offsets;  // graph g owns rows [offsets[g], offsets[g+1])
    // Adjacency over batch rows, CSR: the children of row i are
    // child_ids[child_start[i] .. child_start[i+1]), in the graph's list
    // order; parents likewise, ascending.
    std::vector<int> child_start, child_ids;
    std::vector<int> parent_start, parent_ids;
    Mat x;                         // stacked node features
    std::vector<Mat> h;            // h[0] input projection, h[l+1] layer l
    std::vector<Mat> child_means;  // per message layer
    std::vector<Mat> parent_means;
    Mat from_child, from_parent;   // forward scratch
    Mat emb;                       // one row per graph
    Mat dh, dprev, dcm, dpm;       // backward scratch
  };

  /// Embeds every graph of `graphs` (each with at least one node); row g of
  /// the returned matrix (owned by `cache`) is the embedding of graphs[g].
  const Mat& ForwardBatch(const std::vector<const PlanGraph*>& graphs,
                          BatchCache* cache) const;
  /// Accumulates parameter gradients given dL/d(embedding), one row per
  /// graph of the last ForwardBatch. Every weight element sees the same
  /// sequence of additions as backpropagating the graphs one at a time, in
  /// batch order — see DESIGN.md §11.
  void BackwardBatch(const Mat& dembedding, BatchCache* cache);

  void AppendParams(std::vector<Param*>* out);

  int out_dim() const { return hidden_dim_; }
  int in_dim() const { return input_.in_dim(); }

 private:
  struct MessageLayer {
    Linear self;
    Linear child;
    Linear parent;
  };

  int hidden_dim_ = 0;
  Linear input_;
  std::vector<MessageLayer> layers_;
};

}  // namespace fgro

#endif  // FGRO_NN_GRAPH_EMBEDDER_H_
