#ifndef FGRO_TESTS_SCALAR_GRAPH_EMBEDDER_H_
#define FGRO_TESTS_SCALAR_GRAPH_EMBEDDER_H_

#include <vector>

#include "nn/graph_embedder.h"

namespace fgro {
namespace testing_util {

/// Test-only scalar reference for GraphEmbedder: the row-at-a-time forward
/// and backward that the batched embedder replaced, one node and one Vec at
/// a time, in the original operation order. It runs on a GraphEmbedder's
/// own parameters (AppendParams order: input W, b, then per message layer
/// self, child and parent W, b) and accumulates into their grads, so the
/// batched path can be checked bitwise against it.
class ScalarGraphEmbedder {
 public:
  explicit ScalarGraphEmbedder(GraphEmbedder* gnn) {
    gnn->AppendParams(&params_);
    hidden_dim_ = gnn->out_dim();
  }

  struct Cache {
    // h[0] = post-input-projection states; h[l+1] = after message layer l.
    std::vector<std::vector<Vec>> h;
    std::vector<std::vector<Vec>> child_means;   // per message layer
    std::vector<std::vector<Vec>> parent_means;  // per message layer
    std::vector<std::vector<int>> parents;
    const PlanGraph* graph = nullptr;
  };

  Vec Forward(const PlanGraph& graph, Cache* cache) const {
    const int n = graph.size();
    const size_t layers = num_layers();
    cache->graph = &graph;
    cache->h.assign(layers + 1, {});
    cache->child_means.assign(layers, {});
    cache->parent_means.assign(layers, {});
    cache->parents.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      for (int c : graph.children[static_cast<size_t>(i)]) {
        cache->parents[static_cast<size_t>(c)].push_back(i);
      }
    }

    cache->h[0].resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      cache->h[0][static_cast<size_t>(i)] = Relu(
          LinearForward(0, graph.node_features[static_cast<size_t>(i)]));
    }

    const Vec zeros(static_cast<size_t>(hidden_dim_), 0.0);
    auto mean_of = [&](const std::vector<Vec>& h,
                       const std::vector<int>& ids) -> Vec {
      if (ids.empty()) return zeros;
      Vec m(static_cast<size_t>(hidden_dim_), 0.0);
      for (int j : ids) {
        for (int k = 0; k < hidden_dim_; ++k) {
          m[static_cast<size_t>(k)] +=
              h[static_cast<size_t>(j)][static_cast<size_t>(k)];
        }
      }
      for (double& x : m) x /= static_cast<double>(ids.size());
      return m;
    };

    for (size_t l = 0; l < layers; ++l) {
      const std::vector<Vec>& prev = cache->h[l];
      cache->child_means[l].resize(static_cast<size_t>(n));
      cache->parent_means[l].resize(static_cast<size_t>(n));
      cache->h[l + 1].resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(i);
        Vec cm = mean_of(prev, graph.children[r]);
        Vec pm = mean_of(prev, cache->parents[r]);
        Vec pre = LinearForward(Self(l), prev[r]);
        Vec from_child = LinearForward(Child(l), cm);
        Vec from_parent = LinearForward(Parent(l), pm);
        for (int k = 0; k < hidden_dim_; ++k) {
          pre[static_cast<size_t>(k)] += from_child[static_cast<size_t>(k)] +
                                         from_parent[static_cast<size_t>(k)];
        }
        cache->h[l + 1][r] = Relu(pre);
        cache->child_means[l][r] = std::move(cm);
        cache->parent_means[l][r] = std::move(pm);
      }
    }

    Vec emb(static_cast<size_t>(hidden_dim_), 0.0);
    for (const Vec& last : cache->h.back()) {
      for (int k = 0; k < hidden_dim_; ++k) {
        emb[static_cast<size_t>(k)] += last[static_cast<size_t>(k)];
      }
    }
    for (double& x : emb) x /= static_cast<double>(n);
    return emb;
  }

  /// Accumulates parameter gradients given dL/d(embedding).
  void Backward(const Cache& cache, const Vec& dembedding) {
    const PlanGraph& graph = *cache.graph;
    const int n = graph.size();
    std::vector<Vec> dh(static_cast<size_t>(n),
                        Vec(static_cast<size_t>(hidden_dim_), 0.0));
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < hidden_dim_; ++k) {
        dh[static_cast<size_t>(i)][static_cast<size_t>(k)] =
            dembedding[static_cast<size_t>(k)] / static_cast<double>(n);
      }
    }

    // Child/parent-mean paths: the gradient splits evenly over the rows the
    // mean averaged.
    auto scatter = [&](const Vec& d, const std::vector<int>& ids,
                       std::vector<Vec>* dprev) {
      for (int j : ids) {
        for (int k = 0; k < hidden_dim_; ++k) {
          (*dprev)[static_cast<size_t>(j)][static_cast<size_t>(k)] +=
              d[static_cast<size_t>(k)] / static_cast<double>(ids.size());
        }
      }
    };
    for (size_t l = num_layers(); l-- > 0;) {
      std::vector<Vec> dprev(static_cast<size_t>(n),
                             Vec(static_cast<size_t>(hidden_dim_), 0.0));
      for (int i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(i);
        Vec dpre = ReluBackward(cache.h[l + 1][r], dh[r]);
        LinearBackwardInto(Self(l), cache.h[l][r], dpre, &dprev[r]);
        Vec dcm(static_cast<size_t>(hidden_dim_), 0.0);
        LinearBackwardInto(Child(l), cache.child_means[l][r], dpre, &dcm);
        scatter(dcm, graph.children[r], &dprev);
        Vec dpm(static_cast<size_t>(hidden_dim_), 0.0);
        LinearBackwardInto(Parent(l), cache.parent_means[l][r], dpre, &dpm);
        scatter(dpm, cache.parents[r], &dprev);
      }
      dh = std::move(dprev);
    }

    for (int i = 0; i < n; ++i) {
      const size_t r = static_cast<size_t>(i);
      Vec dpre = ReluBackward(cache.h[0][r], dh[r]);
      Vec scratch(graph.node_features[r].size(), 0.0);
      LinearBackwardInto(0, graph.node_features[r], dpre, &scratch);
    }
  }

 private:
  size_t num_layers() const { return (params_.size() - 2) / 6; }
  // Index of a Linear's weight Param (its bias follows it).
  static size_t Self(size_t l) { return 2 + 6 * l; }
  static size_t Child(size_t l) { return 4 + 6 * l; }
  static size_t Parent(size_t l) { return 6 + 6 * l; }

  /// Linear::Forward: y[r] = b[r] + sum over ascending c of W[r][c] x[c].
  Vec LinearForward(size_t linear, const Vec& x) const {
    const Param& w = *params_[linear];
    const Param& b = *params_[linear + 1];
    Vec y(static_cast<size_t>(w.rows));
    for (int r = 0; r < w.rows; ++r) {
      double acc = b.value[static_cast<size_t>(r)];
      for (int c = 0; c < w.cols; ++c) {
        acc += w.at(r, c) * x[static_cast<size_t>(c)];
      }
      y[static_cast<size_t>(r)] = acc;
    }
    return y;
  }

  /// Linear::BackwardInto: per output row r with dy[r] != 0, dW, dx and db
  /// accumulate in ascending column order.
  void LinearBackwardInto(size_t linear, const Vec& x, const Vec& dy,
                          Vec* dx) {
    Param& w = *params_[linear];
    Param& b = *params_[linear + 1];
    for (int r = 0; r < w.rows; ++r) {
      const double g = dy[static_cast<size_t>(r)];
      if (g == 0.0) continue;
      for (int c = 0; c < w.cols; ++c) {
        w.grad_at(r, c) += g * x[static_cast<size_t>(c)];
        (*dx)[static_cast<size_t>(c)] += g * w.at(r, c);
      }
      b.grad[static_cast<size_t>(r)] += g;
    }
  }

  std::vector<Param*> params_;
  int hidden_dim_ = 0;
};

}  // namespace testing_util
}  // namespace fgro

#endif  // FGRO_TESTS_SCALAR_GRAPH_EMBEDDER_H_
