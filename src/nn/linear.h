#ifndef FGRO_NN_LINEAR_H_
#define FGRO_NN_LINEAR_H_

#include <span>
#include <vector>

#include "nn/mat.h"
#include "nn/param.h"

namespace fgro {

/// y = W x + b with manual backprop. Forward is const; Backward accumulates
/// gradients into the Params and returns dL/dx.
class Linear {
 public:
  Linear() = default;
  Linear(int in_dim, int out_dim, Rng* rng);

  Vec Forward(const Vec& x) const;
  /// Single-row forward into a caller-owned buffer (resized to out_dim, no
  /// allocation once warm). `y` must not alias `x`. Bit-identical to
  /// Forward: same per-element accumulation order.
  void ForwardInto(const Vec& x, Vec* y) const;
  /// Batched forward: y = x W^T + b over `x.rows` candidate rows, written
  /// into the caller-provided scratch `y` (resized, capacity reused). The
  /// kernel blocks over batch rows — each output element keeps the exact
  /// ascending-k accumulation of the scalar path, so results are
  /// bit-identical to calling Forward row by row; the blocking only
  /// interleaves *independent* accumulator chains for ILP. `y` must not
  /// alias `x`.
  void ForwardBatch(const Mat& x, Mat* y) const;
  /// ForwardBatch over the input columns [c0, c0 + x.cols), for inputs
  /// whose leading columns are shared by many rows: row i's accumulators
  /// start from start[i] (out_dim doubles) instead of the bias, or from the
  /// bias when `start` is empty. Each output element continues the scalar
  /// path's ascending-column chain, so a range over [0, c) whose outputs
  /// start a range over [c, in_dim) is bit-identical to ForwardBatch over
  /// the whole row. ForwardBatch is the full range from the bias. `y` must
  /// not alias `x` or any start row.
  void ForwardRange(const Mat& x, int c0,
                    std::span<const double* const> start, Mat* y) const;
  /// `x` must be the same input passed to Forward.
  Vec Backward(const Vec& x, const Vec& dy);
  /// Accumulates into an existing dx instead of allocating (hot paths).
  void BackwardInto(const Vec& x, const Vec& dy, Vec* dx);
  /// Batched backward over the rows of `x` (the ForwardBatch input) and
  /// `dy`: accumulates dW and db row by row in ascending order — each
  /// gradient element sees the same sequence of additions as BackwardInto
  /// called row by row — and, when `dx` is non-null, writes dx = dy W with
  /// every row starting from zero (resized, capacity reused).
  void BackwardBatch(const Mat& x, const Mat& dy, Mat* dx);
  /// The input-gradient half of BackwardInto for one row: adds dy W onto
  /// `dx` (in_dim doubles) in BackwardInto's order. For callers that must
  /// add onto a row already holding other paths' contributions.
  void AccumulateInputGrad(const double* dy, double* dx) const;

  void AppendParams(std::vector<Param*>* out) {
    out->push_back(&weight_);
    out->push_back(&bias_);
  }

  int in_dim() const { return weight_.cols; }
  int out_dim() const { return weight_.rows; }

 private:
  /// The dW/db half of BackwardInto for one row.
  void AccumulateParamGrad(const double* x, const double* dy);

  Param weight_;  // out x in
  Param bias_;    // out x 1
};

/// Elementwise activations used across the models.
Vec Relu(const Vec& x);
/// dL/dx given post-activation y = relu(x) and upstream dy.
Vec ReluBackward(const Vec& y, const Vec& dy);

double Sigmoid(double x);
double Tanh(double x);

}  // namespace fgro

#endif  // FGRO_NN_LINEAR_H_
