#ifndef FGRO_NN_MAT_H_
#define FGRO_NN_MAT_H_

#include "nn/param.h"

namespace fgro {

/// Dense row-major matrix used by the batched inference engine: one row per
/// candidate, one column per feature/activation. Resize() keeps the backing
/// capacity, so a scratch Mat reused across batches stops allocating after
/// the first (largest) batch — the zero-allocation contract of the batched
/// forward paths.
struct Mat {
  int rows = 0;
  int cols = 0;
  Vec data;  // rows * cols, row-major

  void Resize(int r, int c) {
    rows = r;
    cols = c;
    data.resize(static_cast<size_t>(r) * static_cast<size_t>(c));
  }

  double* Row(int r) {
    return data.data() + static_cast<size_t>(r) * static_cast<size_t>(cols);
  }
  const double* Row(int r) const {
    return data.data() + static_cast<size_t>(r) * static_cast<size_t>(cols);
  }
};

/// In-place ReLU over a whole activation matrix (between batched layers).
inline void ReluInPlace(Mat* m) {
  for (double& v : m->data) v = v > 0.0 ? v : 0.0;
}

/// In-place ReLU backward: dy[i] = y[i] > 0 ? dy[i] : 0, where `y` is the
/// post-activation matrix of the same shape (ReluBackward, batched).
inline void ReluBackwardInPlace(const Mat& y, Mat* dy) {
  for (size_t i = 0; i < dy->data.size(); ++i) {
    if (!(y.data[i] > 0.0)) dy->data[i] = 0.0;
  }
}

}  // namespace fgro

#endif  // FGRO_NN_MAT_H_
