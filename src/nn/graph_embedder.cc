#include "nn/graph_embedder.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace fgro {

namespace {

/// out = mean of the rows `ids[0..count)` of `h` (zeros when count == 0),
/// summed in list order from zero and then divided — the per-node order
/// of the scalar embedder.
void MeanOfRows(const Mat& h, const int* ids, int count, double* out) {
  std::fill(out, out + h.cols, 0.0);
  if (count == 0) return;
  for (int j = 0; j < count; ++j) {
    const double* hj = h.Row(ids[j]);
    for (int k = 0; k < h.cols; ++k) out[k] += hj[k];
  }
  for (int k = 0; k < h.cols; ++k) out[k] /= static_cast<double>(count);
}

/// dst[c] += src / count for every row c of `ids[0..count)`: the gradient of
/// a mean splits evenly over the rows it averaged.
void ScatterMean(const double* src, const int* ids, int count, Mat* dst) {
  for (int j = 0; j < count; ++j) {
    double* d = dst->Row(ids[j]);
    for (int k = 0; k < dst->cols; ++k) {
      d[k] += src[k] / static_cast<double>(count);
    }
  }
}

}  // namespace

GraphEmbedder::GraphEmbedder(int in_dim, int hidden_dim, int num_layers,
                             Rng* rng)
    : hidden_dim_(hidden_dim), input_(in_dim, hidden_dim, rng) {
  layers_.reserve(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    layers_.push_back(MessageLayer{Linear(hidden_dim, hidden_dim, rng),
                                   Linear(hidden_dim, hidden_dim, rng),
                                   Linear(hidden_dim, hidden_dim, rng)});
  }
}

const Mat& GraphEmbedder::ForwardBatch(
    const std::vector<const PlanGraph*>& graphs, BatchCache* cache) const {
  const int ng = static_cast<int>(graphs.size());
  const int in = input_.in_dim();
  const int hd = hidden_dim_;
  cache->graphs = graphs;
  cache->offsets.resize(static_cast<size_t>(ng) + 1);
  cache->offsets[0] = 0;
  for (int g = 0; g < ng; ++g) {
    FGRO_CHECK(graphs[static_cast<size_t>(g)]->size() > 0);
    cache->offsets[static_cast<size_t>(g) + 1] =
        cache->offsets[static_cast<size_t>(g)] +
        graphs[static_cast<size_t>(g)]->size();
  }
  const int rows = cache->offsets.back();

  // Stack the node features and the adjacency over batch rows. Parent
  // lists use a shifted counting sort: count into parent_start[c + 2],
  // prefix-sum so parent_start[c + 1] is c's start, then fill by walking
  // rows ascending — each fill advances parent_start[c + 1] to c's end,
  // which is c + 1's start. Parents come out ascending, as the scalar
  // embedder built them.
  cache->x.Resize(rows, in);
  cache->child_start.resize(static_cast<size_t>(rows) + 1);
  cache->child_ids.clear();
  cache->parent_start.assign(static_cast<size_t>(rows) + 2, 0);
  for (int g = 0; g < ng; ++g) {
    const PlanGraph& graph = *graphs[static_cast<size_t>(g)];
    const int base = cache->offsets[static_cast<size_t>(g)];
    for (int i = 0; i < graph.size(); ++i) {
      const Vec& features = graph.node_features[static_cast<size_t>(i)];
      FGRO_CHECK(static_cast<int>(features.size()) == in)
          << features.size() << " vs " << in;
      std::memcpy(cache->x.Row(base + i), features.data(),
                  features.size() * sizeof(double));
      cache->child_start[static_cast<size_t>(base + i)] =
          static_cast<int>(cache->child_ids.size());
      for (int c : graph.children[static_cast<size_t>(i)]) {
        cache->child_ids.push_back(base + c);
        ++cache->parent_start[static_cast<size_t>(base + c) + 2];
      }
    }
  }
  cache->child_start[static_cast<size_t>(rows)] =
      static_cast<int>(cache->child_ids.size());
  for (size_t k = 2; k < cache->parent_start.size(); ++k) {
    cache->parent_start[k] += cache->parent_start[k - 1];
  }
  cache->parent_ids.resize(cache->child_ids.size());
  for (int i = 0; i < rows; ++i) {
    for (int e = cache->child_start[static_cast<size_t>(i)];
         e < cache->child_start[static_cast<size_t>(i) + 1]; ++e) {
      const int c = cache->child_ids[static_cast<size_t>(e)];
      cache->parent_ids[static_cast<size_t>(
          cache->parent_start[static_cast<size_t>(c) + 1]++)] = i;
    }
  }

  // Input projection.
  cache->h.resize(layers_.size() + 1);
  input_.ForwardBatch(cache->x, &cache->h[0]);
  ReluInPlace(&cache->h[0]);

  // Message layers: relu(self(h_i) + (child(mean children) +
  // parent(mean parents))), each Linear once over all rows.
  cache->child_means.resize(layers_.size());
  cache->parent_means.resize(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Mat& prev = cache->h[l];
    Mat& cm = cache->child_means[l];
    Mat& pm = cache->parent_means[l];
    cm.Resize(rows, hd);
    pm.Resize(rows, hd);
    for (int i = 0; i < rows; ++i) {
      const size_t r = static_cast<size_t>(i);
      MeanOfRows(prev, cache->child_ids.data() + cache->child_start[r],
                 cache->child_start[r + 1] - cache->child_start[r], cm.Row(i));
      MeanOfRows(prev, cache->parent_ids.data() + cache->parent_start[r],
                 cache->parent_start[r + 1] - cache->parent_start[r],
                 pm.Row(i));
    }
    Mat& next = cache->h[l + 1];
    layers_[l].self.ForwardBatch(prev, &next);
    layers_[l].child.ForwardBatch(cm, &cache->from_child);
    layers_[l].parent.ForwardBatch(pm, &cache->from_parent);
    for (size_t k = 0; k < next.data.size(); ++k) {
      const double pre = next.data[k] + (cache->from_child.data[k] +
                                         cache->from_parent.data[k]);
      next.data[k] = pre > 0.0 ? pre : 0.0;
    }
  }

  // Mean-pool readout per graph.
  const Mat& last = cache->h.back();
  cache->emb.Resize(ng, hd);
  for (int g = 0; g < ng; ++g) {
    double* e = cache->emb.Row(g);
    std::fill(e, e + hd, 0.0);
    const int begin = cache->offsets[static_cast<size_t>(g)];
    const int end = cache->offsets[static_cast<size_t>(g) + 1];
    for (int i = begin; i < end; ++i) {
      const double* hi = last.Row(i);
      for (int k = 0; k < hd; ++k) e[k] += hi[k];
    }
    for (int k = 0; k < hd; ++k) e[k] /= static_cast<double>(end - begin);
  }
  return cache->emb;
}

void GraphEmbedder::BackwardBatch(const Mat& dembedding, BatchCache* cache) {
  const int ng = static_cast<int>(cache->graphs.size());
  const int rows = cache->offsets.back();
  const int hd = hidden_dim_;
  FGRO_CHECK(dembedding.rows == ng && dembedding.cols == hd);

  // d(readout): mean-pool spreads the gradient uniformly over a graph.
  cache->dh.Resize(rows, hd);
  for (int g = 0; g < ng; ++g) {
    const double* de = dembedding.Row(g);
    const int begin = cache->offsets[static_cast<size_t>(g)];
    const int end = cache->offsets[static_cast<size_t>(g) + 1];
    for (int i = begin; i < end; ++i) {
      double* d = cache->dh.Row(i);
      for (int k = 0; k < hd; ++k) {
        d[k] = de[k] / static_cast<double>(end - begin);
      }
    }
  }

  for (size_t l = layers_.size(); l-- > 0;) {
    // Through the ReLU of layer l's output: dh becomes d(pre-activation).
    ReluBackwardInPlace(cache->h[l + 1], &cache->dh);
    MessageLayer& layer = layers_[l];
    layer.self.BackwardBatch(cache->h[l], cache->dh, nullptr);
    layer.child.BackwardBatch(cache->child_means[l], cache->dh, &cache->dcm);
    layer.parent.BackwardBatch(cache->parent_means[l], cache->dh,
                               &cache->dpm);
    // d(h[l]) row by row in node order: a row's self-path gradient lands on
    // top of the mean-scatter contributions of the rows before it, exactly
    // when the scalar embedder added it, so every sum keeps its order.
    cache->dprev.Resize(rows, hd);
    std::fill(cache->dprev.data.begin(), cache->dprev.data.end(), 0.0);
    for (int i = 0; i < rows; ++i) {
      const size_t r = static_cast<size_t>(i);
      layer.self.AccumulateInputGrad(cache->dh.Row(i), cache->dprev.Row(i));
      ScatterMean(cache->dcm.Row(i),
                  cache->child_ids.data() + cache->child_start[r],
                  cache->child_start[r + 1] - cache->child_start[r],
                  &cache->dprev);
      ScatterMean(cache->dpm.Row(i),
                  cache->parent_ids.data() + cache->parent_start[r],
                  cache->parent_start[r + 1] - cache->parent_start[r],
                  &cache->dprev);
    }
    std::swap(cache->dh, cache->dprev);
  }

  // Input projection; node features are data, their gradient is not needed.
  ReluBackwardInPlace(cache->h[0], &cache->dh);
  input_.BackwardBatch(cache->x, cache->dh, nullptr);
}

void GraphEmbedder::AppendParams(std::vector<Param*>* out) {
  input_.AppendParams(out);
  for (MessageLayer& layer : layers_) {
    layer.self.AppendParams(out);
    layer.child.AppendParams(out);
    layer.parent.AppendParams(out);
  }
}

}  // namespace fgro
