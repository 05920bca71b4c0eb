#ifndef FGRO_NN_MLP_H_
#define FGRO_NN_MLP_H_

#include <span>
#include <vector>

#include "nn/linear.h"

namespace fgro {

/// Forward-pass cache needed by Backward: the input to each layer plus each
/// layer's post-activation output.
struct MlpCache {
  std::vector<Vec> layer_inputs;   // one per layer
  std::vector<Vec> layer_outputs;  // post-activation (last layer: raw)
};

/// Caller-owned scratch for the batched forward: two activation matrices
/// ping-ponged across layers. Reusing one scratch across batches makes the
/// forward allocation-free once the buffers are warm.
struct MlpScratch {
  Mat a;
  Mat b;
};

/// Caller-owned state of one batched training step: the forward keeps each
/// layer's output (post-activation, last layer raw) for BackwardBatch, which
/// ping-pongs its row gradients through `grad_a`/`grad_b`. Reusing one cache
/// across minibatches makes the step allocation-free once warm.
struct MlpBatchCache {
  const Mat* input = nullptr;  // the forward's `x`
  std::vector<Mat> out;        // one per layer
  Mat grad_a;
  Mat grad_b;
};

/// Caller-owned scratch for the single-row inference path (same ping-pong,
/// vector-sized).
struct MlpVecScratch {
  Vec a;
  Vec b;
};

/// Multilayer perceptron with ReLU between layers and a linear final layer.
/// This is the paper's "latency predictor" head and is also reused inside
/// the QPPNet neural units.
class Mlp {
 public:
  Mlp() = default;
  /// dims = {in, hidden..., out}.
  Mlp(const std::vector<int>& dims, Rng* rng);

  Vec Forward(const Vec& x, MlpCache* cache) const;
  /// Inference-only forward. Internally ping-pongs two buffers across
  /// layers, so it no longer allocates one Vec per layer; use ForwardInto
  /// with caller scratch to drop even those.
  Vec Forward(const Vec& x) const;
  /// Single-row inference into caller buffers: no allocation once scratch
  /// is warm. `out` and `scratch` must not alias `x`. Bit-identical to
  /// Forward(x).
  void ForwardInto(const Vec& x, Vec* out, MlpVecScratch* scratch) const;
  /// Batched inference: runs every row of `x` through the network with
  /// in-place ReLU between layers, returning a reference to the scratch
  /// matrix holding the final activations (x.rows x out_dim). Row i is
  /// bit-identical to Forward(row i). No allocation once scratch is warm.
  const Mat& ForwardBatch(const Mat& x, MlpScratch* scratch) const;
  /// The first layer's partial sums over an input's leading columns: row i
  /// of `prefix` is bias + W[:, 0..head.cols) head_i, in ForwardBatch's
  /// accumulation order. For inputs whose leading columns many rows share.
  void FirstLayerPrefix(const Mat& head, Mat* prefix) const;
  /// ForwardBatch resumed after FirstLayerPrefix: `tail` holds each row's
  /// last tail.cols input columns and start[i] its first-layer prefix over
  /// the columns before them. Row i is bit-identical to ForwardBatch on the
  /// whole row. An empty `start` with a full-width `tail` is ForwardBatch.
  const Mat& ForwardBatchFrom(const Mat& tail,
                              std::span<const double* const> start,
                              MlpScratch* scratch) const;

  /// Batched training forward: ForwardBatch that keeps every layer's output
  /// in `cache` for BackwardBatch. `x` must stay alive until then.
  const Mat& ForwardBatch(const Mat& x, MlpBatchCache* cache) const;

  /// Accumulates parameter gradients; returns dL/dx.
  Vec Backward(const MlpCache& cache, const Vec& dout);
  /// Batched Backward over the rows of the last ForwardBatch(x, cache):
  /// every layer's dW/db accumulate row by row in ascending order, so a
  /// minibatch leaves the gradients bit-identical to Backward called sample
  /// by sample. Writes dL/dx (one row per sample, each from zero) to `dx`.
  void BackwardBatch(MlpBatchCache* cache, const Mat& dout, Mat* dx);

  void AppendParams(std::vector<Param*>* out);

  int in_dim() const { return layers_.empty() ? 0 : layers_.front().in_dim(); }
  int out_dim() const {
    return layers_.empty() ? 0 : layers_.back().out_dim();
  }
  /// Width of a FirstLayerPrefix row.
  int first_layer_dim() const {
    return layers_.empty() ? 0 : layers_.front().out_dim();
  }

 private:
  std::vector<Linear> layers_;
};

}  // namespace fgro

#endif  // FGRO_NN_MLP_H_
