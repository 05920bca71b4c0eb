#include "nn/linear.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace fgro {

namespace {

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
// Runtime ISA dispatch for the GEMM kernels: the portable binary keeps
// the x86-64 baseline (SSE2) as its default clone and upgrades to AVX2 or
// AVX-512 on hosts that have them. No clone enables FMA, and the build pins
// -ffp-contract=off, so every lane computes mul-then-add in the exact
// scalar order on every ISA — dispatch can never change a prediction bit.
#define FGRO_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define FGRO_KERNEL_CLONES
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FGRO_HAVE_VEC 1
// 8 doubles per logical vector: one zmm under AVX-512, split into two ymm
// ops under AVX2 and four xmm ops at the SSE2 baseline by the compiler.
typedef double V8 __attribute__((vector_size(64)));

inline V8 LoadV8(const double* p) {
  V8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One 16-row panel block of y = x W^T + b over the weight columns
/// [c0, c0 + cols). `panel` holds the 16 input rows' slice of those columns
/// column-major (panel[c * 16 + lane] = feature c0 + c of row lane), so each
/// weight element is broadcast against 16 contiguous doubles — and each
/// weight row is streamed once per 16 batch rows. `w` points at column c0 of
/// weight row 0 and `stride` is the full row length. Lane `lane` starts from
/// b[r], or from start[lane][r] when `start` is non-null, and adds the
/// columns in ascending order — the exact scalar-path chain, resumable at any
/// column; the vector ops only run independent chains side by side: 16 lanes
/// of two weight rows at a time, so four accumulators hide the add latency.
FGRO_KERNEL_CLONES
void GemmPanelKernel(const double* panel, const double* w, int stride,
                     int cols, const double* b, const double* const* start,
                     int out, double* const* y_rows) {
  // With an odd `out`, the last pass computes the last row twice.
  for (int r = 0; r < out; r += 2) {
    const int r1 = std::min(r + 1, out - 1);
    const double* w0 =
        w + static_cast<size_t>(r) * static_cast<size_t>(stride);
    const double* w1 =
        w + static_cast<size_t>(r1) * static_cast<size_t>(stride);
    V8 a00 = {b[r], b[r], b[r], b[r], b[r], b[r], b[r], b[r]};
    V8 a01 = a00;
    V8 a10 = {b[r1], b[r1], b[r1], b[r1], b[r1], b[r1], b[r1], b[r1]};
    V8 a11 = a10;
    if (start != nullptr) {
      for (int lane = 0; lane < 8; ++lane) {
        a00[lane] = start[lane][r];
        a01[lane] = start[lane + 8][r];
        a10[lane] = start[lane][r1];
        a11[lane] = start[lane + 8][r1];
      }
    }
    const double* p = panel;
    for (int c = 0; c < cols; ++c, p += 16) {
      const V8 lo = LoadV8(p);
      const V8 hi = LoadV8(p + 8);
      const double x0 = w0[c];
      const double x1 = w1[c];
      const V8 v0 = {x0, x0, x0, x0, x0, x0, x0, x0};
      const V8 v1 = {x1, x1, x1, x1, x1, x1, x1, x1};
      a00 += v0 * lo;
      a01 += v0 * hi;
      a10 += v1 * lo;
      a11 += v1 * hi;
    }
    double lanes[4][8];
    std::memcpy(lanes[0], &a00, sizeof(a00));
    std::memcpy(lanes[1], &a01, sizeof(a01));
    std::memcpy(lanes[2], &a10, sizeof(a10));
    std::memcpy(lanes[3], &a11, sizeof(a11));
    for (int lane = 0; lane < 16; ++lane) {
      y_rows[lane][r] = lanes[lane / 8][lane % 8];
      y_rows[lane][r1] = lanes[2 + lane / 8][lane % 8];
    }
  }
}
#endif  // __GNUC__ || __clang__

/// acc[c] += g[0] v[0][c], then += g[1] v[1][c], ..., over `count` terms
/// and n elements. Each element adds its terms one at a time in order — the
/// chain of `count` separate acc += g * v passes — while its accumulator
/// stays in a register; the SIMD lanes run independent elements only.
FGRO_KERNEL_CLONES
void AddScaledTerms(double* acc, const double* const* v, const double* g,
                    int count, int n) {
  int c = 0;
#ifdef FGRO_HAVE_VEC
  for (; c + 16 <= n; c += 16) {
    V8 a0 = LoadV8(acc + c);
    V8 a1 = LoadV8(acc + c + 8);
    for (int k = 0; k < count; ++k) {
      const double gk = g[k];
      const V8 gv = {gk, gk, gk, gk, gk, gk, gk, gk};
      a0 += gv * LoadV8(v[k] + c);
      a1 += gv * LoadV8(v[k] + c + 8);
    }
    std::memcpy(acc + c, &a0, sizeof(a0));
    std::memcpy(acc + c + 8, &a1, sizeof(a1));
  }
  for (; c + 8 <= n; c += 8) {
    V8 a = LoadV8(acc + c);
    for (int k = 0; k < count; ++k) {
      const double gk = g[k];
      const V8 gv = {gk, gk, gk, gk, gk, gk, gk, gk};
      a += gv * LoadV8(v[k] + c);
    }
    std::memcpy(acc + c, &a, sizeof(a));
  }
#endif
  for (; c < n; ++c) {
    double a = acc[c];
    for (int k = 0; k < count; ++k) a += g[k] * v[k][c];
    acc[c] = a;
  }
}

/// Adds a stream of g * v terms onto one accumulator row in the order they
/// arrive, skipping g == 0 as the scalar backward does, and flushes them
/// through AddScaledTerms kCapacity at a time. When `sum_of_g` is set, the
/// kept g also add onto it in order (a bias gradient). The skip is
/// branch-free: ReLU zeroes about half the gradients in no pattern a branch
/// predictor could learn.
class ScaledRowSum {
 public:
  ScaledRowSum(double* acc, int n, double* sum_of_g = nullptr)
      : acc_(acc), sum_of_g_(sum_of_g), n_(n) {}
  ~ScaledRowSum() { Flush(); }

  void Add(double g, const double* v) {
    g_[count_] = g;
    v_[count_] = v;
    count_ += g != 0.0 ? 1 : 0;
    if (count_ == kCapacity) Flush();
  }

 private:
  static constexpr int kCapacity = 64;

  void Flush() {
    if (count_ == 0) return;
    AddScaledTerms(acc_, v_, g_, count_, n_);
    if (sum_of_g_ != nullptr) {
      for (int k = 0; k < count_; ++k) *sum_of_g_ += g_[k];
    }
    count_ = 0;
  }

  double* acc_;
  double* sum_of_g_;
  int n_;
  int count_ = 0;
  double g_[kCapacity];
  const double* v_[kCapacity];
};

}  // namespace

Linear::Linear(int in_dim, int out_dim, Rng* rng) {
  weight_.Resize(out_dim, in_dim);
  weight_.InitXavier(rng);
  bias_.Resize(out_dim, 1);
}

Vec Linear::Forward(const Vec& x) const {
  Vec y;
  ForwardInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Vec& x, Vec* y) const {
  FGRO_CHECK(static_cast<int>(x.size()) == weight_.cols)
      << x.size() << " vs " << weight_.cols;
  y->resize(static_cast<size_t>(weight_.rows));
  for (int r = 0; r < weight_.rows; ++r) {
    double acc = bias_.value[static_cast<size_t>(r)];
    const double* wr =
        &weight_.value[static_cast<size_t>(r) * static_cast<size_t>(weight_.cols)];
    for (int c = 0; c < weight_.cols; ++c) acc += wr[c] * x[static_cast<size_t>(c)];
    (*y)[static_cast<size_t>(r)] = acc;
  }
}

void Linear::ForwardBatch(const Mat& x, Mat* y) const {
  FGRO_CHECK(x.cols == weight_.cols) << x.cols << " vs " << weight_.cols;
  ForwardRange(x, 0, {}, y);
}

void Linear::ForwardRange(const Mat& x, int c0,
                          std::span<const double* const> start,
                          Mat* y) const {
  const int in = weight_.cols;
  const int out = weight_.rows;
  const int cols = x.cols;
  FGRO_CHECK(c0 >= 0 && c0 + cols <= in) << c0 << "+" << cols << " vs " << in;
  FGRO_CHECK(start.empty() || static_cast<int>(start.size()) == x.rows);
  y->Resize(x.rows, out);
  const double* w = weight_.value.data() + c0;
  const double* b = bias_.value.data();
  int i = 0;
#ifdef FGRO_HAVE_VEC
  // 16-row panels: each block's inputs are repacked column-major
  // (panel[c * 16 + lane] = row `i + lane`, feature c0 + c) so
  // GemmPanelKernel can run 16 independent accumulator chains in SIMD lanes.
  // Bit-identity constrains each chain's order, not the chains'
  // interleaving, so the lanes are legal. A short last panel is padded with
  // zero rows (resuming from the panel's first start row) whose outputs land
  // in a discard row, so every row takes the SIMD kernel.
  constexpr int kLanes = 16;
  static thread_local std::vector<double> panel;
  static thread_local std::vector<double> discard;
  panel.resize(static_cast<size_t>(kLanes) * static_cast<size_t>(cols));
  discard.resize(static_cast<size_t>(out));
  double* pd = panel.data();
  for (; i < x.rows; i += kLanes) {
    double* y_rows[kLanes];
    const double* start_rows[kLanes];
    for (int lane = 0; lane < kLanes; ++lane) {
      const bool valid = i + lane < x.rows;
      const double* xr = valid ? x.Row(i + lane) : nullptr;
      for (int c = 0; c < cols; ++c) {
        pd[static_cast<size_t>(c) * kLanes + static_cast<size_t>(lane)] =
            valid ? xr[c] : 0.0;
      }
      y_rows[lane] = valid ? y->Row(i + lane) : discard.data();
      if (!start.empty()) {
        start_rows[lane] = start[static_cast<size_t>(valid ? i + lane : i)];
      }
    }
    GemmPanelKernel(pd, w, in, cols, b, start.empty() ? nullptr : start_rows,
                    out, y_rows);
  }
#endif
  for (; i < x.rows; ++i) {
    const double* xr = x.Row(i);
    double* yr = y->Row(i);
    for (int r = 0; r < out; ++r) {
      const double* wr = w + static_cast<size_t>(r) * static_cast<size_t>(in);
      double acc = start.empty() ? b[r] : start[static_cast<size_t>(i)][r];
      for (int c = 0; c < cols; ++c) acc += wr[c] * xr[c];
      yr[r] = acc;
    }
  }
}

void Linear::BackwardInto(const Vec& x, const Vec& dy, Vec* dx) {
  AccumulateParamGrad(x.data(), dy.data());
  AccumulateInputGrad(dy.data(), dx->data());
}

void Linear::AccumulateParamGrad(const double* x, const double* dy) {
  const size_t in = static_cast<size_t>(weight_.cols);
  for (int r = 0; r < weight_.rows; ++r) {
    const double g = dy[r];
    if (g == 0.0) continue;
    AddScaledTerms(&weight_.grad[static_cast<size_t>(r) * in], &x, &g, 1,
                   weight_.cols);
    bias_.grad[static_cast<size_t>(r)] += g;
  }
}

void Linear::AccumulateInputGrad(const double* dy, double* dx) const {
  const size_t in = static_cast<size_t>(weight_.cols);
  ScaledRowSum sum(dx, weight_.cols);
  for (int r = 0; r < weight_.rows; ++r) {
    sum.Add(dy[r], &weight_.value[static_cast<size_t>(r) * in]);
  }
}

void Linear::BackwardBatch(const Mat& x, const Mat& dy, Mat* dx) {
  FGRO_CHECK(x.cols == weight_.cols && dy.cols == weight_.rows &&
             x.rows == dy.rows);
  const size_t in = static_cast<size_t>(weight_.cols);
  // Weight row r gathers the nonzero dy[i][r] x_i terms in ascending i —
  // row-by-row BackwardInto's order — in one pass over the row.
  for (int r = 0; r < weight_.rows; ++r) {
    ScaledRowSum sum(&weight_.grad[static_cast<size_t>(r) * in],
                     weight_.cols, &bias_.grad[static_cast<size_t>(r)]);
    for (int i = 0; i < x.rows; ++i) sum.Add(dy.Row(i)[r], x.Row(i));
  }
  if (dx == nullptr) return;
  dx->Resize(x.rows, weight_.cols);
  std::fill(dx->data.begin(), dx->data.end(), 0.0);
  for (int i = 0; i < x.rows; ++i) AccumulateInputGrad(dy.Row(i), dx->Row(i));
}

Vec Linear::Backward(const Vec& x, const Vec& dy) {
  Vec dx(x.size(), 0.0);
  BackwardInto(x, dy, &dx);
  return dx;
}

Vec Relu(const Vec& x) {
  Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
  return y;
}

Vec ReluBackward(const Vec& y, const Vec& dy) {
  Vec dx(y.size());
  for (size_t i = 0; i < y.size(); ++i) dx[i] = y[i] > 0.0 ? dy[i] : 0.0;
  return dx;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double Tanh(double x) { return std::tanh(x); }

}  // namespace fgro
