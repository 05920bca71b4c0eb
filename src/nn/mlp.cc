#include "nn/mlp.h"

#include "common/logging.h"

namespace fgro {

Mlp::Mlp(const std::vector<int>& dims, Rng* rng) {
  FGRO_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Vec Mlp::Forward(const Vec& x, MlpCache* cache) const {
  cache->layer_inputs.clear();
  cache->layer_outputs.clear();
  Vec h = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    cache->layer_inputs.push_back(h);
    Vec z = layers_[l].Forward(h);
    if (l + 1 < layers_.size()) z = Relu(z);
    cache->layer_outputs.push_back(z);
    h = std::move(z);
  }
  return h;
}

Vec Mlp::Forward(const Vec& x) const {
  MlpVecScratch scratch;
  Vec out;
  ForwardInto(x, &out, &scratch);
  return out;
}

void Mlp::ForwardInto(const Vec& x, Vec* out, MlpVecScratch* scratch) const {
  FGRO_CHECK(!layers_.empty());
  const Vec* in = &x;
  const size_t last = layers_.size() - 1;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Vec* dst = l == last ? out
                         : (in == &scratch->a ? &scratch->b : &scratch->a);
    layers_[l].ForwardInto(*in, dst);
    if (l != last) {
      for (double& v : *dst) v = v > 0.0 ? v : 0.0;
    }
    in = dst;
  }
}

const Mat& Mlp::ForwardBatch(const Mat& x, MlpScratch* scratch) const {
  return ForwardBatchFrom(x, {}, scratch);
}

void Mlp::FirstLayerPrefix(const Mat& head, Mat* prefix) const {
  FGRO_CHECK(!layers_.empty());
  layers_.front().ForwardRange(head, 0, {}, prefix);
}

const Mat& Mlp::ForwardBatchFrom(const Mat& tail,
                                 std::span<const double* const> start,
                                 MlpScratch* scratch) const {
  FGRO_CHECK(!layers_.empty());
  FGRO_CHECK(tail.rows == 0 || !start.empty() || tail.cols == in_dim());
  const Mat* in = &tail;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Mat* dst = in == &scratch->a ? &scratch->b : &scratch->a;
    if (l == 0) {
      layers_[0].ForwardRange(tail, in_dim() - tail.cols, start, dst);
    } else {
      layers_[l].ForwardBatch(*in, dst);
    }
    if (l + 1 < layers_.size()) ReluInPlace(dst);
    in = dst;
  }
  return *in;
}

const Mat& Mlp::ForwardBatch(const Mat& x, MlpBatchCache* cache) const {
  FGRO_CHECK(!layers_.empty());
  cache->input = &x;
  cache->out.resize(layers_.size());
  const Mat* in = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].ForwardBatch(*in, &cache->out[l]);
    if (l + 1 < layers_.size()) ReluInPlace(&cache->out[l]);
    in = &cache->out[l];
  }
  return *in;
}

void Mlp::BackwardBatch(MlpBatchCache* cache, const Mat& dout, Mat* dx) {
  const Mat* grad = &dout;
  for (size_t l = layers_.size(); l-- > 0;) {
    Mat* next = l == 0 ? dx
                       : (grad == &cache->grad_a ? &cache->grad_b
                                                 : &cache->grad_a);
    layers_[l].BackwardBatch(l == 0 ? *cache->input : cache->out[l - 1],
                             *grad, next);
    if (l > 0) ReluBackwardInPlace(cache->out[l - 1], next);
    grad = next;
  }
}

Vec Mlp::Backward(const MlpCache& cache, const Vec& dout) {
  Vec grad = dout;
  for (size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size()) {
      grad = ReluBackward(cache.layer_outputs[l], grad);
    }
    grad = layers_[l].Backward(cache.layer_inputs[l], grad);
  }
  return grad;
}

void Mlp::AppendParams(std::vector<Param*>* out) {
  for (Linear& layer : layers_) layer.AppendParams(out);
}

}  // namespace fgro
