#include "model/latency_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "featurize/discretize.h"
#include "featurize/validate.h"
#include "model/metrics.h"

namespace fgro {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMciGtn: return "MCI+GTN";
    case ModelKind::kMciTlstm: return "MCI+TLSTM";
    case ModelKind::kMciQppnet: return "MCI+QPPNet";
    case ModelKind::kTlstmOriginal: return "TLSTM";
    case ModelKind::kQppnetOriginal: return "QPPNet";
  }
  return "?";
}

void Standardizer::Fit(const std::vector<const Vec*>& rows) {
  if (rows.empty()) return;
  const size_t d = rows[0]->size();
  mean.assign(d, 0.0);
  Vec sq(d, 0.0);
  for (const Vec* row : rows) {
    for (size_t i = 0; i < d; ++i) {
      mean[i] += (*row)[i];
      sq[i] += (*row)[i] * (*row)[i];
    }
  }
  const double n = static_cast<double>(rows.size());
  inv_std.assign(d, 1.0);
  for (size_t i = 0; i < d; ++i) {
    mean[i] /= n;
    double var = std::max(0.0, sq[i] / n - mean[i] * mean[i]);
    // Floor the deviation relative to the feature's own magnitude: a
    // near-constant dimension in a small training slice must not amplify
    // out-of-slice values by orders of magnitude (the drift experiments
    // retrain on thin windows where this bites hard).
    double floor = std::max(1e-3, 0.02 * std::abs(mean[i]));
    inv_std[i] = 1.0 / std::max(floor, std::sqrt(var));
  }
}

void Standardizer::Apply(Vec* row) const {
  if (!fitted()) return;
  FGRO_CHECK(row->size() == mean.size());
  ApplyRange(row->data(), 0, row->size());
}

void Standardizer::ApplyRange(double* v, size_t first, size_t n) const {
  if (!fitted()) return;
  FGRO_CHECK(first + n <= mean.size());
  for (size_t i = 0; i < n; ++i) {
    // Clamp to a wide band: values far outside the training distribution
    // carry no usable signal and would destabilize the network.
    v[i] = std::clamp((v[i] - mean[first + i]) * inv_std[first + i], -10.0,
                      10.0);
  }
}

LatencyModel::LatencyModel(Options options) : options_(std::move(options)) {
  Rng rng(options_.seed);
  const int h = options_.mlp_hidden;
  const int e = options_.embed_dim;
  switch (options_.kind) {
    case ModelKind::kMciGtn:
      gnn_ = GraphEmbedder(kOpFeatureDim, e, options_.gnn_layers, &rng);
      predictor_ = Mlp({e + kInstanceFeatureDim, h, h, 1}, &rng);
      break;
    case ModelKind::kMciTlstm:
      tlstm_ = TreeLstm(kOpFeatureDim, e, &rng);
      predictor_ = Mlp({e + kInstanceFeatureDim, h, h, 1}, &rng);
      break;
    case ModelKind::kMciQppnet:
      qpp_ = QppNet(kNumOperatorTypes, kOpFeatureDim + kInstanceFeatureDim,
                    options_.qpp_data_dim, h, &rng);
      break;
    case ModelKind::kTlstmOriginal:
      tlstm_ = TreeLstm(kOpFeatureDim, e, &rng);
      predictor_ = Mlp({e, h, 1}, &rng);
      break;
    case ModelKind::kQppnetOriginal:
      qpp_ = QppNet(kNumOperatorTypes, kOpFeatureDim, options_.qpp_data_dim,
                    h, &rng);
      break;
  }
  RetagParams();
}

void LatencyModel::RetagParams() {
  // Process-wide monotone counter: two models whose parameters ever diverged
  // can never share a tag, so PredictionMemo keys built from the tag are
  // exact whatever mix of base/tuned/promoted models touches one memo. The
  // tag value itself never influences a prediction, so replays stay
  // byte-identical regardless of construction order across threads.
  static std::atomic<uint64_t> next_tag{1};
  params_tag_ = next_tag.fetch_add(1, std::memory_order_relaxed);
}

bool LatencyModel::HasFiniteParameters() const {
  auto all_finite = [](const Vec& v) {
    for (double x : v) {
      if (!std::isfinite(x)) return false;
    }
    return true;
  };
  std::vector<Param*> params = const_cast<LatencyModel*>(this)->AllParams();
  for (const Param* p : params) {
    if (!all_finite(p->value)) return false;
  }
  return all_finite(op_standardizer_.mean) &&
         all_finite(op_standardizer_.inv_std) &&
         all_finite(inst_standardizer_.mean) &&
         all_finite(inst_standardizer_.inv_std);
}

void LatencyModel::CorruptParamForTest(double value) {
  std::vector<Param*> params = AllParams();
  if (!params.empty() && !params[0]->value.empty()) {
    params[0]->value[0] = value;
  }
  RetagParams();
}

bool LatencyModel::UsesTree() const {
  return options_.kind != ModelKind::kMciGtn;
}

bool LatencyModel::UsesInstanceFeatures() const {
  return options_.kind == ModelKind::kMciGtn ||
         options_.kind == ModelKind::kMciTlstm ||
         options_.kind == ModelKind::kMciQppnet;
}

double LatencyModel::TargetOf(const InstanceRecord& record,
                              Target target) const {
  switch (target) {
    case Target::kInstanceLatency: return record.actual_latency;
    case Target::kActualCpuTime: return record.actual_cpu_seconds;
    case Target::kActualCpuTimeStar: return record.actual_cpu_seconds_star;
  }
  return record.actual_latency;
}

Status LatencyModel::PrepareSample(const TraceDataset& dataset,
                                   int record_idx, Target target,
                                   PreparedSample* out) const {
  const InstanceRecord& record =
      dataset.records[static_cast<size_t>(record_idx)];
  const Stage& stage = dataset.StageOf(record);
  FGRO_RETURN_IF_ERROR(PrepareForInference(stage, record.instance_idx,
                                           record.theta, record.machine_state,
                                           record.hardware_type, out));
  out->target_raw = std::max(0.005, TargetOf(record, target));
  out->target_log = std::log1p(out->target_raw);
  return Status::OK();
}

Status LatencyModel::PrepareForInference(const Stage& stage, int instance_idx,
                                         const ResourceConfig& theta,
                                         const SystemState& state,
                                         int hardware_type,
                                         PreparedSample* out) const {
  const Featurizer& fz = options_.featurizer;
  // Featurizer-boundary validation: a corrupt trace row or a bit-flipped
  // import must fail here with kInvalidArgument, not surface as a NaN
  // prediction inside IPA/RAA. (PredictFromEmbedding skips this on purpose:
  // its inputs were validated when the embedding was built.)
  FGRO_RETURN_IF_ERROR(ValidateInstanceMeta(stage, instance_idx));
  FGRO_RETURN_IF_ERROR(ValidateChannels(theta, state, hardware_type,
                                        fz.discretization_degree()));
  if (UsesTree()) {
    Result<PlanGraph> tree = fz.BuildPlanTree(stage, instance_idx,
                                              &out->tree_root);
    if (!tree.ok()) return tree.status();
    out->graph = std::move(tree).value();
  } else {
    Result<PlanGraph> graph = fz.BuildPlanGraph(stage, instance_idx);
    if (!graph.ok()) return graph.status();
    out->graph = std::move(graph).value();
  }
  out->inst_features = fz.InstanceFeatures(stage, instance_idx, theta, state,
                                           hardware_type);
  // Standardize (no-op before Fit during training preparation). The MCI
  // broadcast for QPPNet happens inside QppNet::Forward via the context
  // argument, so node rows always keep the plan-channel width here.
  for (Vec& row : out->graph.node_features) op_standardizer_.Apply(&row);
  inst_standardizer_.Apply(&out->inst_features);
  return Status::OK();
}

double LatencyModel::ForwardBackward(const PreparedSample& sample,
                                     bool backward) {
  switch (options_.kind) {
    case ModelKind::kMciGtn: {
      FGRO_CHECK(!backward) << "the GTN trains through TrainStep";
      GraphEmbedder::BatchCache cache;
      const Mat& emb = gnn_.ForwardBatch({&sample.graph}, &cache);
      Vec input = emb.data;
      input.insert(input.end(), sample.inst_features.begin(),
                   sample.inst_features.end());
      return predictor_.Forward(input)[0];
    }
    case ModelKind::kMciTlstm:
    case ModelKind::kTlstmOriginal: {
      TreeLstm::Cache cache;
      Vec emb = tlstm_.Forward(sample.graph, sample.tree_root, &cache);
      Vec input = emb;
      if (options_.kind == ModelKind::kMciTlstm) {
        input.insert(input.end(), sample.inst_features.begin(),
                     sample.inst_features.end());
      }
      MlpCache mc;
      double pred = predictor_.Forward(input, &mc)[0];
      if (backward) {
        Vec dinput = predictor_.Backward(mc, Vec{pred - sample.target_log});
        Vec demb(dinput.begin(),
                 dinput.begin() + static_cast<long>(emb.size()));
        tlstm_.Backward(cache, demb);
      }
      return pred;
    }
    case ModelKind::kMciQppnet:
    case ModelKind::kQppnetOriginal: {
      QppNet::Cache cache;
      const Vec* context = options_.kind == ModelKind::kMciQppnet
                               ? &sample.inst_features
                               : nullptr;
      double pred =
          qpp_.Forward(sample.graph, sample.tree_root, &cache, context);
      if (backward) qpp_.Backward(cache, pred - sample.target_log);
      return pred;
    }
  }
  return 0.0;
}

double LatencyModel::ForwardOnly(const PreparedSample& sample) const {
  // Forward never mutates parameters; the const_cast spares a parallel
  // const implementation of the cached forward passes.
  return const_cast<LatencyModel*>(this)->ForwardBackward(sample, false);
}

/// Reused across the minibatches of one Train/FineTune call.
struct LatencyModel::TrainScratch {
  std::vector<const PlanGraph*> graphs;
  GraphEmbedder::BatchCache gnn;
  Mat head_in;  // [embedding | instance features], one row per sample
  MlpBatchCache head;
  Mat dpred;    // one column
  Mat dhead_in;
  Mat demb;
};

void LatencyModel::TrainStep(const std::vector<PreparedSample>& samples,
                             const size_t* batch, int count,
                             const std::vector<Param*>& params, Adam* adam,
                             TrainScratch* scratch, double* loss_sum) {
  adam->ZeroGrad(params);
  if (options_.kind != ModelKind::kMciGtn) {
    for (int k = 0; k < count; ++k) {
      const PreparedSample& s = samples[batch[k]];
      const double dpred = ForwardBackward(s, true) - s.target_log;
      *loss_sum += 0.5 * dpred * dpred;
    }
    adam->Step(params, count);
    return;
  }
  // The whole minibatch as one forward and one backward. Each parameter's
  // gradient still accumulates sample by sample in batch order (see
  // DESIGN.md §11), so the step is bit-identical to per-sample backprop.
  scratch->graphs.resize(static_cast<size_t>(count));
  for (int k = 0; k < count; ++k) {
    scratch->graphs[static_cast<size_t>(k)] = &samples[batch[k]].graph;
  }
  const Mat& emb = gnn_.ForwardBatch(scratch->graphs, &scratch->gnn);
  const int e = emb.cols;
  scratch->head_in.Resize(count, predictor_.in_dim());
  for (int k = 0; k < count; ++k) {
    const Vec& inst = samples[batch[k]].inst_features;
    FGRO_CHECK(e + static_cast<int>(inst.size()) == scratch->head_in.cols);
    double* row = scratch->head_in.Row(k);
    std::memcpy(row, emb.Row(k), static_cast<size_t>(e) * sizeof(double));
    std::memcpy(row + e, inst.data(), inst.size() * sizeof(double));
  }
  const Mat& pred = predictor_.ForwardBatch(scratch->head_in, &scratch->head);
  scratch->dpred.Resize(count, 1);
  for (int k = 0; k < count; ++k) {
    const double dpred = pred.Row(k)[0] - samples[batch[k]].target_log;
    *loss_sum += 0.5 * dpred * dpred;
    scratch->dpred.Row(k)[0] = dpred;
  }
  predictor_.BackwardBatch(&scratch->head, scratch->dpred,
                           &scratch->dhead_in);
  scratch->demb.Resize(count, e);
  for (int k = 0; k < count; ++k) {
    std::memcpy(scratch->demb.Row(k), scratch->dhead_in.Row(k),
                static_cast<size_t>(e) * sizeof(double));
  }
  gnn_.BackwardBatch(scratch->demb, &scratch->gnn);
  adam->Step(params, count);
}

void LatencyModel::RunEpochs(
    const std::vector<PreparedSample>& samples, const TrainOptions& options,
    Rng* rng, Adam* adam,
    const std::function<void(int, double)>& after_epoch) {
  const std::vector<Param*> params = AllParams();
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  TrainScratch scratch;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng->engine());
    double loss_sum = 0.0;
    for (size_t pos = 0; pos < order.size();) {
      const int count = static_cast<int>(std::min(
          order.size() - pos, static_cast<size_t>(options.batch_size)));
      TrainStep(samples, order.data() + pos, count, params, adam, &scratch,
                &loss_sum);
      pos += static_cast<size_t>(count);
    }
    after_epoch(epoch, loss_sum);
  }
}

std::vector<Param*> LatencyModel::AllParams() {
  std::vector<Param*> params;
  switch (options_.kind) {
    case ModelKind::kMciGtn:
      gnn_.AppendParams(&params);
      predictor_.AppendParams(&params);
      break;
    case ModelKind::kMciTlstm:
    case ModelKind::kTlstmOriginal:
      tlstm_.AppendParams(&params);
      predictor_.AppendParams(&params);
      break;
    case ModelKind::kMciQppnet:
    case ModelKind::kQppnetOriginal:
      qpp_.AppendParams(&params);
      break;
  }
  return params;
}

namespace {

Status ValidateTrainOptions(const TrainOptions& options) {
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be at least 1, got " +
                                   std::to_string(options.batch_size));
  }
  if (options.max_train_samples < 0) {
    return Status::InvalidArgument(
        "max_train_samples must be non-negative, got " +
        std::to_string(options.max_train_samples));
  }
  return Status::OK();
}

}  // namespace

Status LatencyModel::Train(const TraceDataset& dataset,
                           const std::vector<int>& train_idx,
                           const std::vector<int>& val_idx,
                           const TrainOptions& options, Target target) {
  FGRO_RETURN_IF_ERROR(ValidateTrainOptions(options));
  target_ = target;
  Rng rng(options.seed);

  // Subsample the training set to the cap (uniformly, preserving skew).
  std::vector<int> indices = train_idx;
  std::shuffle(indices.begin(), indices.end(), rng.engine());
  if (static_cast<int>(indices.size()) > options.max_train_samples) {
    indices.resize(static_cast<size_t>(options.max_train_samples));
  }
  if (indices.empty()) return Status::InvalidArgument("empty training set");

  // Prepare with the standardizers reset (Apply is then a no-op), so the
  // samples hold raw features to fit them on.
  op_standardizer_ = Standardizer{};
  inst_standardizer_ = Standardizer{};
  std::vector<PreparedSample> samples(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    FGRO_RETURN_IF_ERROR(
        PrepareSample(dataset, indices[i], target, &samples[i]));
  }
  {
    std::vector<const Vec*> op_rows, inst_rows;
    for (const PreparedSample& s : samples) {
      for (const Vec& row : s.graph.node_features) op_rows.push_back(&row);
      inst_rows.push_back(&s.inst_features);
    }
    op_standardizer_.Fit(op_rows);
    inst_standardizer_.Fit(inst_rows);
  }
  // Standardize in place: exactly what re-preparing each sample with the
  // fitted standardizers would compute, without rebuilding every graph.
  for (PreparedSample& s : samples) {
    for (Vec& row : s.graph.node_features) op_standardizer_.Apply(&row);
    inst_standardizer_.Apply(&s.inst_features);
  }

  adam_ = Adam(Adam::Options{.lr = options.lr});
  RunEpochs(samples, options, &rng, &adam_, [&](int epoch, double loss_sum) {
    adam_.set_lr(adam_.lr() * options.lr_decay);
    if (!options.verbose) return;
    trained_ = true;
    double val_wmape = -1.0;
    if (!val_idx.empty()) {
      Result<std::vector<double>> preds = PredictRecords(dataset, val_idx);
      if (preds.ok()) {
        std::vector<double> actual;
        actual.reserve(val_idx.size());
        for (int idx : val_idx) {
          actual.push_back(
              TargetOf(dataset.records[static_cast<size_t>(idx)], target));
        }
        val_wmape = ComputeModelMetrics(actual, preds.value()).wmape;
      }
    }
    FGRO_LOG(kInfo) << ModelKindName(options_.kind) << " epoch " << epoch
                    << " train_loss=" << loss_sum / samples.size()
                    << " val_wmape=" << val_wmape;
  });
  trained_ = true;
  RetagParams();
  return Status::OK();
}

Status LatencyModel::FineTune(const TraceDataset& dataset,
                              const std::vector<int>& indices,
                              const TrainOptions& options) {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  FGRO_RETURN_IF_ERROR(ValidateTrainOptions(options));
  if (indices.empty()) return Status::OK();
  Rng rng(options.seed);

  std::vector<int> subset = indices;
  std::shuffle(subset.begin(), subset.end(), rng.engine());
  if (static_cast<int>(subset.size()) > options.max_train_samples) {
    subset.resize(static_cast<size_t>(options.max_train_samples));
  }
  std::vector<PreparedSample> samples(subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    FGRO_RETURN_IF_ERROR(
        PrepareSample(dataset, subset[i], target_, &samples[i]));
  }
  Adam tuner(Adam::Options{.lr = options.lr});
  RunEpochs(samples, options, &rng, &tuner, [](int, double) {});
  RetagParams();
  return Status::OK();
}

Result<double> LatencyModel::PredictImpl(const Stage& stage, int instance_idx,
                                         const ResourceConfig& theta,
                                         const SystemState& state,
                                         int hardware_type) const {
  PreparedSample sample;
  FGRO_RETURN_IF_ERROR(PrepareForInference(
      stage, instance_idx, theta, state, hardware_type, &sample));
  double pred_log = Clamp(ForwardOnly(sample), -2.0, 12.5);
  return std::max(0.005, std::expm1(pred_log));
}

Result<double> LatencyModel::Predict(const Stage& stage, int instance_idx,
                                     const ResourceConfig& theta,
                                     const SystemState& state,
                                     int hardware_type) const {
  const bool instrumented = hardware_type >= 0 &&
                            hardware_type < kNumHardwareTypes &&
                            obs_predict_calls_[hardware_type] != nullptr;
  if (!instrumented) {
    return PredictImpl(stage, instance_idx, theta, state, hardware_type);
  }
  Stopwatch timer;
  Result<double> out =
      PredictImpl(stage, instance_idx, theta, state, hardware_type);
  obs_predict_calls_[hardware_type]->Increment();
  obs_predict_seconds_[hardware_type]->Observe(timer.ElapsedSeconds());
  return out;
}

void LatencyModel::set_obs(const obs::Obs& obs) {
  for (int h = 0; h < kNumHardwareTypes; ++h) {
    if (obs.metrics == nullptr) {
      obs_predict_calls_[h] = nullptr;
      obs_predict_fast_calls_[h] = nullptr;
      obs_predict_seconds_[h] = nullptr;
    } else {
      const std::string suffix = ".hw" + std::to_string(h);
      obs_predict_calls_[h] =
          obs.metrics->GetCounter("model.predict_calls" + suffix);
      obs_predict_fast_calls_[h] =
          obs.metrics->GetCounter("model.predict_fast_calls" + suffix);
      obs_predict_seconds_[h] =
          obs.metrics->GetLatencyHistogram("model.predict_seconds" + suffix);
    }
  }
  if (obs.metrics == nullptr) {
    obs_predict_records_ = nullptr;
    obs_embed_instances_ = nullptr;
    obs_predict_batch_calls_ = nullptr;
    obs_predict_batch_rows_ = nullptr;
    obs_predict_batch_size_ = nullptr;
    obs_predict_batch_seconds_ = nullptr;
  } else {
    obs_predict_records_ =
        obs.metrics->GetCounter("model.predict_records_calls");
    obs_embed_instances_ = obs.metrics->GetCounter("model.embed_instances");
    obs_predict_batch_calls_ =
        obs.metrics->GetCounter("model.predict_batch_calls");
    obs_predict_batch_rows_ =
        obs.metrics->GetCounter("model.predict_batch_rows");
    // Power-of-two batch-size buckets: 1 .. 2^19 (+overflow) spans one RAA
    // grid row through the largest IPA matrices.
    obs_predict_batch_size_ = obs.metrics->GetHistogram(
        "model.predict_batch_size",
        obs::Histogram::ExponentialBounds(1.0, 2.0, 20));
    obs_predict_batch_seconds_ =
        obs.metrics->GetLatencyHistogram("model.predict_batch_seconds");
  }
}

Result<std::vector<LatencyModel::EmbeddedInstance>> LatencyModel::EmbedBatch(
    const Stage& stage, const std::vector<int>& instance_ids) const {
  std::vector<EmbeddedInstance> out(instance_ids.size());
  for (size_t k = 0; k < out.size(); ++k) {
    out[k].stage = &stage;
    out[k].instance_idx = instance_ids[k];
  }
  if (out.empty() || (options_.kind != ModelKind::kMciGtn &&
                      options_.kind != ModelKind::kMciTlstm)) {
    return out;
  }
  std::vector<PreparedSample> samples(out.size());
  for (size_t k = 0; k < out.size(); ++k) {
    // theta/state/hw are placeholders: only the plan graph matters here.
    FGRO_RETURN_IF_ERROR(PrepareForInference(stage, instance_ids[k],
                                             ResourceConfig{}, SystemState{},
                                             0, &samples[k]));
    // Standardized Channel-2 slice (first kCh2Dim entries of inst features).
    out[k].ch2_features.assign(samples[k].inst_features.begin(),
                               samples[k].inst_features.begin() + kCh2Dim);
  }
  if (options_.kind == ModelKind::kMciGtn) {
    std::vector<const PlanGraph*> graphs(samples.size());
    for (size_t k = 0; k < samples.size(); ++k) graphs[k] = &samples[k].graph;
    GraphEmbedder::BatchCache cache;
    const Mat& emb = gnn_.ForwardBatch(graphs, &cache);
    for (size_t k = 0; k < out.size(); ++k) {
      const double* row = emb.Row(static_cast<int>(k));
      out[k].plan_embedding.assign(row, row + emb.cols);
    }
  } else {
    for (size_t k = 0; k < out.size(); ++k) {
      TreeLstm::Cache cache;
      out[k].plan_embedding =
          tlstm_.Forward(samples[k].graph, samples[k].tree_root, &cache);
    }
  }
  // The head input's leading [embedding | Ch2] columns are the same for
  // every row of an instance: one panel pass sums them once per instance.
  const int rows = static_cast<int>(out.size());
  const int lead = predictor_.in_dim() - kContextDim;
  Mat head;
  head.Resize(rows, lead);
  for (int k = 0; k < rows; ++k) {
    const EmbeddedInstance& e = out[static_cast<size_t>(k)];
    FGRO_CHECK(static_cast<int>(e.plan_embedding.size() +
                                e.ch2_features.size()) == lead);
    double* row = head.Row(k);
    std::copy(e.plan_embedding.begin(), e.plan_embedding.end(), row);
    std::copy(e.ch2_features.begin(), e.ch2_features.end(),
              row + e.plan_embedding.size());
  }
  Mat prefix;
  predictor_.FirstLayerPrefix(head, &prefix);
  for (int k = 0; k < rows; ++k) {
    out[static_cast<size_t>(k)].head_prefix.assign(
        prefix.Row(k), prefix.Row(k) + prefix.cols);
  }
  if (obs_embed_instances_ != nullptr) {
    obs_embed_instances_->Increment(static_cast<uint64_t>(rows));
  }
  return out;
}

Result<LatencyModel::EmbeddedInstance> LatencyModel::Embed(
    const Stage& stage, int instance_idx) const {
  Result<std::vector<EmbeddedInstance>> batch =
      EmbedBatch(stage, {instance_idx});
  if (!batch.ok()) return batch.status();
  return std::move(batch.value()[0]);
}

double LatencyModel::PredictFromEmbedding(const EmbeddedInstance& embedded,
                                          const ResourceConfig& theta,
                                          const SystemState& state,
                                          int hardware_type) const {
  // Count-only on the fast path: this runs once per grid configuration in
  // RAA's frontier sweep, so a timer here would distort exactly the numbers
  // the breakdown is meant to explain. (The QPPNet fallback below lands in
  // Predict and is timed there.)
  if (hardware_type >= 0 && hardware_type < kNumHardwareTypes &&
      obs_predict_fast_calls_[hardware_type] != nullptr) {
    obs_predict_fast_calls_[hardware_type]->Increment();
  }
  if (options_.kind == ModelKind::kMciGtn ||
      options_.kind == ModelKind::kMciTlstm) {
    Vec context =
        options_.featurizer.ContextFeatures(theta, state, hardware_type);
    // Standardize the context slice with the tail of the instance
    // standardizer (indices kCh2Dim..), exactly as Predict does.
    inst_standardizer_.ApplyRange(context.data(), kCh2Dim, context.size());
    // Assemble [embedding | ch2 | context] with one reservation; the old
    // copy-then-insert form reallocated the vector up to twice per call,
    // which dominated the RAA sweep's allocator traffic.
    Vec input;
    input.reserve(embedded.plan_embedding.size() +
                  embedded.ch2_features.size() + context.size());
    input.insert(input.end(), embedded.plan_embedding.begin(),
                 embedded.plan_embedding.end());
    input.insert(input.end(), embedded.ch2_features.begin(),
                 embedded.ch2_features.end());
    input.insert(input.end(), context.begin(), context.end());
    double pred_log = Clamp(predictor_.Forward(input)[0], -2.0, 12.5);
    return std::max(0.005, std::expm1(pred_log));
  }
  // QPPNet-style and original models: full forward pass.
  Result<double> pred = Predict(*embedded.stage, embedded.instance_idx, theta,
                                state, hardware_type);
  return pred.ok() ? pred.value() : 1.0;
}

namespace {

/// Chunk size for batched context-matrix assembly: bounds the scratch at
/// kBatchChunk rows of context and activations so an IPA matrix with a
/// million cells never materializes as one allocation.
constexpr int kBatchChunk = 256;

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

PredictionKey MakePredictionKey(const LatencyModel::EmbeddedInstance& embedded,
                                const ResourceConfig& theta,
                                const SystemState& state, int hardware_type,
                                int discretization_degree,
                                uint64_t model_tag) {
  PredictionKey key;
  if (embedded.stage != nullptr) {
    key.job_id = embedded.stage->job_id;
    key.stage_id = embedded.stage->id;
  }
  key.instance_idx = embedded.instance_idx;
  key.hardware_type = hardware_type;
  key.theta_cores_bits = DoubleBits(theta.cores);
  key.theta_memory_bits = DoubleBits(theta.memory_gb);
  // The model sees the machine state only through its discretization, so
  // keying on the discretized bits is exact (see PredictionKey docs).
  const SystemState d = DiscretizeState(state, discretization_degree);
  key.cpu_bits = DoubleBits(d.cpu_util);
  key.mem_bits = DoubleBits(d.mem_util);
  key.io_bits = DoubleBits(d.io_util);
  key.model_tag = model_tag;
  return key;
}

}  // namespace

void LatencyModel::PredictBatch(std::span<const PredictionQuery> queries,
                                double* out, BatchScratch* scratch,
                                PredictionMemo* memo) const {
  const int n = static_cast<int>(queries.size());
  if (n == 0) return;
  Stopwatch timer;
  if (obs_predict_batch_calls_ != nullptr) {
    obs_predict_batch_calls_->Increment();
    obs_predict_batch_size_->Observe(static_cast<double>(n));
  }
  const int dd = options_.featurizer.discretization_degree();

  // Memo pass: every key built once, hits resolved up front; only misses
  // reach the forward pass, and they are inserted under the same keys.
  scratch->pending.clear();
  if (memo != nullptr) {
    scratch->keys.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const PredictionQuery& q = queries[i];
      scratch->keys[static_cast<size_t>(i)] =
          MakePredictionKey(*q.embedded, q.candidate.theta, q.candidate.state,
                            q.candidate.hardware_type, dd, params_tag_);
    }
    scratch->pending.reserve(static_cast<size_t>(n));
    memo->LookupBatch(scratch->keys, out, &scratch->pending);
  } else {
    scratch->pending.resize(static_cast<size_t>(n));
    std::iota(scratch->pending.begin(), scratch->pending.end(), 0);
  }
  if (scratch->pending.empty()) {
    if (obs_predict_batch_seconds_ != nullptr) {
      obs_predict_batch_seconds_->Observe(timer.ElapsedSeconds());
    }
    return;
  }

  const bool fast = options_.kind == ModelKind::kMciGtn ||
                    options_.kind == ModelKind::kMciTlstm;
  if (!fast) {
    // QPPNet-style kinds broadcast context into every unit, so there is no
    // reusable embedding to batch over; fall through to the scalar path
    // (these rows land in model.predict_calls, not predict_batch_rows).
    for (int i : scratch->pending) {
      const PredictionQuery& q = queries[i];
      out[i] = PredictFromEmbedding(*q.embedded, q.candidate.theta,
                                    q.candidate.state,
                                    q.candidate.hardware_type);
    }
    if (memo != nullptr) {
      memo->InsertBatch(scratch->keys, out, scratch->pending);
    }
    // No predict_batch_seconds observation here: these rows were already
    // timed inside Predict, and the breakdown rollup must not count the
    // same wall-clock twice.
    return;
  }

  const int pending_count = static_cast<int>(scratch->pending.size());
  if (obs_predict_batch_rows_ != nullptr) {
    obs_predict_batch_rows_->Increment(static_cast<uint64_t>(pending_count));
  }
  const size_t hidden = static_cast<size_t>(predictor_.first_layer_dim());
  for (int start = 0; start < pending_count; start += kBatchChunk) {
    const int m = std::min(kBatchChunk, pending_count - start);
    scratch->features.Resize(m, kContextDim);
    scratch->starts.resize(static_cast<size_t>(m));
    for (int r = 0; r < m; ++r) {
      const PredictionQuery& q = queries[scratch->pending[start + r]];
      FGRO_CHECK(q.embedded->head_prefix.size() == hidden);
      scratch->starts[static_cast<size_t>(r)] =
          q.embedded->head_prefix.data();
      double* context = scratch->features.Row(r);
      ContextFeatureRowInto(q.candidate.theta, q.candidate.state,
                            q.candidate.hardware_type,
                            options_.featurizer.mask(), dd, context);
      // Same tail standardization as PredictFromEmbedding.
      inst_standardizer_.ApplyRange(context, kCh2Dim, kContextDim);
    }
    const Mat& y = predictor_.ForwardBatchFrom(scratch->features,
                                               scratch->starts, &scratch->mlp);
    for (int r = 0; r < m; ++r) {
      const int i = scratch->pending[start + r];
      const double pred_log = Clamp(y.Row(r)[0], -2.0, 12.5);
      out[i] = std::max(0.005, std::expm1(pred_log));
    }
  }
  if (memo != nullptr) memo->InsertBatch(scratch->keys, out, scratch->pending);
  if (obs_predict_batch_seconds_ != nullptr) {
    obs_predict_batch_seconds_->Observe(timer.ElapsedSeconds());
  }
}

void LatencyModel::PredictBatch(
    const EmbeddedInstance& embedded,
    const std::vector<PredictionCandidate>& candidates, double* out,
    BatchScratch* scratch, PredictionMemo* memo) const {
  scratch->queries.clear();
  scratch->queries.reserve(candidates.size());
  for (const PredictionCandidate& c : candidates) {
    scratch->queries.push_back(PredictionQuery{&embedded, c});
  }
  PredictBatch(scratch->queries, out, scratch, memo);
}

Result<std::vector<double>> LatencyModel::PredictRecords(
    const TraceDataset& dataset, const std::vector<int>& indices) const {
  if (obs_predict_records_ != nullptr) obs_predict_records_->Increment();
  std::vector<double> out;
  if (options_.kind != ModelKind::kMciGtn &&
      options_.kind != ModelKind::kMciTlstm) {
    out.reserve(indices.size());
    for (int idx : indices) {
      const InstanceRecord& r = dataset.records[static_cast<size_t>(idx)];
      Result<double> pred = Predict(dataset.StageOf(r), r.instance_idx,
                                    r.theta, r.machine_state,
                                    r.hardware_type);
      if (!pred.ok()) return pred.status();
      out.push_back(pred.value());
    }
    return out;
  }
  // Validate first, in record order, so a bad record fails with the status
  // Predict would return for it.
  const int dd = options_.featurizer.discretization_degree();
  for (int idx : indices) {
    const InstanceRecord& r = dataset.records[static_cast<size_t>(idx)];
    FGRO_RETURN_IF_ERROR(ValidateInstanceMeta(dataset.StageOf(r),
                                              r.instance_idx));
    FGRO_RETURN_IF_ERROR(
        ValidateChannels(r.theta, r.machine_state, r.hardware_type, dd));
  }
  // Embed each (stage, instance) once, one EmbedBatch per stage.
  std::map<const Stage*, std::map<int, size_t>> slot_of;
  for (int idx : indices) {
    const InstanceRecord& r = dataset.records[static_cast<size_t>(idx)];
    slot_of[&dataset.StageOf(r)].emplace(r.instance_idx, 0);
  }
  std::vector<EmbeddedInstance> embedded;
  for (auto& [stage, slots] : slot_of) {
    std::vector<int> ids;
    ids.reserve(slots.size());
    for (auto& [instance, slot] : slots) {
      slot = embedded.size() + ids.size();
      ids.push_back(instance);
    }
    Result<std::vector<EmbeddedInstance>> batch = EmbedBatch(*stage, ids);
    if (!batch.ok()) return batch.status();
    std::move(batch.value().begin(), batch.value().end(),
              std::back_inserter(embedded));
  }
  std::vector<PredictionQuery> queries;
  queries.reserve(indices.size());
  for (int idx : indices) {
    const InstanceRecord& r = dataset.records[static_cast<size_t>(idx)];
    queries.push_back(PredictionQuery{
        &embedded[slot_of[&dataset.StageOf(r)][r.instance_idx]],
        {r.theta, r.machine_state, r.hardware_type}});
  }
  out.resize(indices.size());
  BatchScratch scratch;
  PredictBatch(queries, out.data(), &scratch);
  return out;
}

namespace {
constexpr const char* kModelMagic = "fgro-model-v2";
constexpr const char* kChecksumPrefix = "checksum ";

void WriteVec(std::FILE* f, const Vec& v) {
  std::fprintf(f, "%zu", v.size());
  for (double x : v) std::fprintf(f, " %.17g", x);
  std::fprintf(f, "\n");
}

bool ReadVec(std::FILE* f, Vec* v) {
  size_t n = 0;
  if (std::fscanf(f, "%zu", &n) != 1) return false;
  // Cap against a crafted header demanding an absurd allocation before any
  // value has been read; no real snapshot's vector comes close.
  if (n > (1u << 26)) return false;
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (std::fscanf(f, "%lg", &(*v)[i]) != 1) return false;
  }
  return true;
}

/// FNV-1a 64 over the snapshot body. The footer makes truncation, bit
/// flips, and appended junk detectable as framing damage (kDataLoss)
/// instead of surfacing as a subtly wrong model.
uint64_t SnapshotChecksum(const char* data, size_t size) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

Status LatencyModel::Save(const std::string& path) const {
  // Assemble the body in memory so the checksum footer can cover every
  // byte exactly as written.
  char* body = nullptr;
  size_t body_size = 0;
  std::FILE* f = open_memstream(&body, &body_size);
  if (f == nullptr) return Status::Internal("cannot buffer snapshot");
  const ChannelMask& mask = options_.featurizer.mask();
  std::fprintf(f, "%s\n", kModelMagic);
  std::fprintf(f, "%d %d %d %d %d %lu\n", static_cast<int>(options_.kind),
               options_.embed_dim, options_.gnn_layers, options_.mlp_hidden,
               options_.qpp_data_dim,
               static_cast<unsigned long>(options_.seed));
  std::fprintf(f, "%d %d %d %d %d %d %d\n", mask.ch1 ? 1 : 0,
               mask.ch2 ? 1 : 0, mask.ch3 ? 1 : 0, mask.ch4 ? 1 : 0,
               mask.ch5 ? 1 : 0, static_cast<int>(mask.aim),
               options_.featurizer.discretization_degree());
  std::fprintf(f, "%d %d\n", trained_ ? 1 : 0, static_cast<int>(target_));
  WriteVec(f, op_standardizer_.mean);
  WriteVec(f, op_standardizer_.inv_std);
  WriteVec(f, inst_standardizer_.mean);
  WriteVec(f, inst_standardizer_.inv_std);
  std::vector<Param*> params = const_cast<LatencyModel*>(this)->AllParams();
  std::fprintf(f, "%zu\n", params.size());
  for (const Param* p : params) {
    std::fprintf(f, "%d %d ", p->rows, p->cols);
    WriteVec(f, p->value);
  }
  std::fclose(f);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::free(body);
    return Status::Internal("cannot open " + path);
  }
  const size_t written = std::fwrite(body, 1, body_size, out);
  std::fprintf(out, "%s%016llx\n", kChecksumPrefix,
               static_cast<unsigned long long>(
                   SnapshotChecksum(body, body_size)));
  std::free(body);
  if (written != body_size || std::fclose(out) != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<LatencyModel>> LatencyModel::Load(
    const std::string& path) {
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) return Status::NotFound("cannot open " + path);
  std::string content;
  {
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), raw)) > 0) {
      content.append(buf, n);
    }
    const bool read_error = std::ferror(raw) != 0;
    std::fclose(raw);
    if (read_error) return Status::DataLoss(path + ": read error");
  }

  // Framing first: the last line must be the checksum footer and it must
  // match the body byte-for-byte. Anything else — empty file, truncation,
  // a flipped bit, appended junk — is storage damage, not a caller error.
  auto damaged = [&](const std::string& why) -> Status {
    return Status::DataLoss(path + ": " + why);
  };
  if (content.empty()) return damaged("empty snapshot");
  if (content.back() != '\n') return damaged("truncated snapshot");
  const size_t footer_start = content.rfind('\n', content.size() - 2);
  const size_t body_size = footer_start == std::string::npos
                               ? 0
                               : footer_start + 1;
  const std::string footer =
      content.substr(body_size, content.size() - body_size - 1);
  unsigned long long stored = 0;
  char trailing = '\0';
  if (footer.compare(0, std::strlen(kChecksumPrefix), kChecksumPrefix) != 0 ||
      std::sscanf(footer.c_str() + std::strlen(kChecksumPrefix), "%16llx%c",
                  &stored, &trailing) != 1) {
    return damaged("missing or malformed checksum footer");
  }
  if (SnapshotChecksum(content.data(), body_size) != stored) {
    return damaged("checksum mismatch");
  }

  // The body verified, so parse it; any structural or value-level garbage
  // past this point was *written* that way — an invalid snapshot, not a
  // damaged one.
  std::FILE* f = fmemopen(const_cast<char*>(content.data()), body_size, "r");
  if (f == nullptr) return Status::Internal("cannot buffer snapshot");
  auto fail = [&](const std::string& why) -> Status {
    std::fclose(f);
    return Status::InvalidArgument(path + ": " + why);
  };
  char magic[64] = {0};
  if (std::fscanf(f, "%63s", magic) != 1 ||
      std::string(magic) != kModelMagic) {
    return fail("bad magic");
  }
  Options options;
  int kind = 0;
  unsigned long seed = 0;
  if (std::fscanf(f, "%d %d %d %d %d %lu", &kind, &options.embed_dim,
                  &options.gnn_layers, &options.mlp_hidden,
                  &options.qpp_data_dim, &seed) != 6) {
    return fail("bad architecture header");
  }
  if (kind < 0 || kind > static_cast<int>(ModelKind::kQppnetOriginal) ||
      options.embed_dim < 1 || options.embed_dim > 4096 ||
      options.gnn_layers < 0 || options.gnn_layers > 64 ||
      options.mlp_hidden < 1 || options.mlp_hidden > 4096 ||
      options.qpp_data_dim < 1 || options.qpp_data_dim > 4096) {
    return fail("architecture header out of range");
  }
  options.kind = static_cast<ModelKind>(kind);
  options.seed = seed;
  int ch[5] = {0}, aim = 0, dd = 10;
  if (std::fscanf(f, "%d %d %d %d %d %d %d", &ch[0], &ch[1], &ch[2], &ch[3],
                  &ch[4], &aim, &dd) != 7) {
    return fail("bad channel mask");
  }
  if (dd < 1 || dd > 1024) return fail("discretization degree out of range");
  ChannelMask mask;
  mask.ch1 = ch[0] != 0;
  mask.ch2 = ch[1] != 0;
  mask.ch3 = ch[2] != 0;
  mask.ch4 = ch[3] != 0;
  mask.ch5 = ch[4] != 0;
  mask.aim = static_cast<AimMode>(aim);
  options.featurizer = Featurizer(mask, dd);

  auto model = std::make_unique<LatencyModel>(options);
  int trained = 0, target = 0;
  if (std::fscanf(f, "%d %d", &trained, &target) != 2) {
    return fail("bad state header");
  }
  if (target < 0 || target > static_cast<int>(Target::kActualCpuTimeStar)) {
    return fail("unknown training target");
  }
  model->trained_ = trained != 0;
  model->target_ = static_cast<Target>(target);
  if (!ReadVec(f, &model->op_standardizer_.mean) ||
      !ReadVec(f, &model->op_standardizer_.inv_std) ||
      !ReadVec(f, &model->inst_standardizer_.mean) ||
      !ReadVec(f, &model->inst_standardizer_.inv_std)) {
    return fail("bad standardizers");
  }
  size_t param_count = 0;
  if (std::fscanf(f, "%zu", &param_count) != 1) return fail("bad param count");
  std::vector<Param*> params = model->AllParams();
  if (params.size() != param_count) return fail("param count mismatch");
  for (Param* p : params) {
    int rows = 0, cols = 0;
    Vec value;
    if (std::fscanf(f, "%d %d", &rows, &cols) != 2 || !ReadVec(f, &value) ||
        rows != p->rows || cols != p->cols ||
        value.size() != p->value.size()) {
      return fail("param shape mismatch");
    }
    p->value = std::move(value);
  }
  char extra[2] = {0};
  if (std::fscanf(f, "%1s", extra) == 1) return fail("trailing data in body");
  std::fclose(f);
  if (!model->HasFiniteParameters()) {
    return Status::InvalidArgument(path + ": non-finite parameter");
  }
  model->RetagParams();
  return model;
}

}  // namespace fgro
