#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "model/gpr.h"
#include "model/latency_model.h"
#include "model/metrics.h"
#include "model/model_server.h"
#include "sim/experiment_env.h"

namespace fgro {
namespace {

TEST(MetricsTest, PerfectPredictionsAreZeroError) {
  std::vector<double> a = {1, 2, 3, 4};
  ModelMetrics m = ComputeModelMetrics(a, a);
  EXPECT_DOUBLE_EQ(m.wmape, 0.0);
  EXPECT_DOUBLE_EQ(m.mderr, 0.0);
  EXPECT_DOUBLE_EQ(m.p95err, 0.0);
  EXPECT_NEAR(m.corr, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.glberr, 0.0);
}

TEST(MetricsTest, WmapeWeightsByActual) {
  // One 50% error on a long instance dominates the same relative error on a
  // short one.
  std::vector<double> actual = {100.0, 1.0};
  std::vector<double> long_off = {50.0, 1.0};
  std::vector<double> short_off = {100.0, 0.5};
  EXPECT_GT(ComputeModelMetrics(actual, long_off).wmape,
            ComputeModelMetrics(actual, short_off).wmape * 10);
  // MdErr treats them the same way (median of relative errors).
  EXPECT_DOUBLE_EQ(ComputeModelMetrics(actual, long_off).mderr,
                   ComputeModelMetrics(actual, short_off).mderr);
}

TEST(MetricsTest, GlbErrCancelsOppositeErrors) {
  // +10 and -10 second errors cancel in the global cost metric.
  std::vector<double> actual = {50.0, 50.0};
  std::vector<double> predicted = {60.0, 40.0};
  ModelMetrics m = ComputeModelMetrics(actual, predicted);
  EXPECT_DOUBLE_EQ(m.glberr, 0.0);
  EXPECT_GT(m.wmape, 0.1);
}

TEST(MetricsTest, KnownValues) {
  std::vector<double> actual = {10, 20};
  std::vector<double> predicted = {12, 16};
  ModelMetrics m = ComputeModelMetrics(actual, predicted);
  EXPECT_NEAR(m.wmape, 6.0 / 30.0, 1e-12);
  EXPECT_NEAR(m.mderr, 0.2, 1e-12);
}

TEST(StandardizerTest, NormalizesToZeroMeanUnitVar) {
  Standardizer s;
  Vec a = {1, 10}, b = {3, 20}, c = {5, 30};
  s.Fit({&a, &b, &c});
  Vec x = {3, 20};
  s.Apply(&x);
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_NEAR(x[1], 0.0, 1e-9);
  Vec y = {5, 30};
  s.Apply(&y);
  EXPECT_GT(y[0], 1.0);
}

TEST(StandardizerTest, ApplyRangeMatchesApplyOnASlice) {
  Standardizer s;
  Vec a = {1.0, 10.0, -4.0, 0.5};
  Vec b = {3.0, 14.0, 2.0, 1.5};
  s.Fit({&a, &b});
  // In band, and far beyond +-10 on both sides.
  Vec row = {2.0, 1e9, -1e9, 1.0};
  Vec whole = row;
  s.Apply(&whole);
  EXPECT_EQ(whole[1], 10.0);
  EXPECT_EQ(whole[2], -10.0);
  Vec tail(row.begin() + 1, row.end());
  s.ApplyRange(tail.data(), 1, tail.size());
  for (size_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i], whole[i + 1]);
}

TEST(StandardizerTest, ConstantDimensionIsSafe) {
  Standardizer s;
  Vec a = {7, 1}, b = {7, 2};
  s.Fit({&a, &b});
  Vec x = {7, 1.5};
  s.Apply(&x);
  EXPECT_TRUE(std::isfinite(x[0]));
}

TEST(ModelKindTest, Names) {
  EXPECT_STREQ(ModelKindName(ModelKind::kMciGtn), "MCI+GTN");
  EXPECT_STREQ(ModelKindName(ModelKind::kQppnetOriginal), "QPPNet");
}

class TrainedModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentEnv::Options options;
    options.workload = WorkloadId::kA;
    options.scale = 0.05;
    options.train.epochs = 4;
    options.train.max_train_samples = 5000;
    options.seed = 55;
    Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value().release();
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* TrainedModelFixture::env_ = nullptr;

TEST_F(TrainedModelFixture, LearnsBetterThanMeanPredictor) {
  Result<std::vector<double>> preds = env_->TestPredictions();
  ASSERT_TRUE(preds.ok());
  Result<std::vector<double>> actual = env_->TestActuals();
  double mean = 0.0;
  for (double a : actual.value()) mean += a;
  mean /= static_cast<double>(actual.value().size());
  std::vector<double> constant(actual.value().size(), mean);
  ModelMetrics model_m = ComputeModelMetrics(actual.value(), preds.value());
  ModelMetrics const_m = ComputeModelMetrics(actual.value(), constant);
  EXPECT_LT(model_m.wmape, const_m.wmape * 0.6);
  EXPECT_GT(model_m.corr, 0.8);
}

TEST_F(TrainedModelFixture, PredictionsArePositiveAndFinite) {
  Result<std::vector<double>> preds = env_->TestPredictions();
  ASSERT_TRUE(preds.ok());
  for (double p : preds.value()) {
    EXPECT_GT(p, 0.0);
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST_F(TrainedModelFixture, EmbeddingFastPathMatchesFullPredict) {
  const TraceDataset& dataset = env_->dataset();
  for (int k = 0; k < 20; ++k) {
    const InstanceRecord& r =
        dataset.records[static_cast<size_t>(k * 37 % dataset.records.size())];
    const Stage& stage = dataset.StageOf(r);
    Result<double> full = env_->model().Predict(
        stage, r.instance_idx, r.theta, r.machine_state, r.hardware_type);
    Result<LatencyModel::EmbeddedInstance> embedded =
        env_->model().Embed(stage, r.instance_idx);
    ASSERT_TRUE(full.ok() && embedded.ok());
    double fast = env_->model().PredictFromEmbedding(
        embedded.value(), r.theta, r.machine_state, r.hardware_type);
    // Bitwise: both paths standardize (and clamp) the context identically.
    EXPECT_EQ(fast, full.value());
  }
}

TEST_F(TrainedModelFixture, OutOfBandContextScoresLikePredict) {
  // Plans far outside the training window standardize beyond the +-10
  // band. Every scoring path clamps the context tail as Predict's
  // Standardizer::Apply does, so all three agree bit for bit.
  const TraceDataset& dataset = env_->dataset();
  const LatencyModel& model = env_->model();
  const InstanceRecord& r = dataset.records[3];
  const Stage& stage = dataset.StageOf(r);
  Result<LatencyModel::EmbeddedInstance> embedded =
      model.Embed(stage, r.instance_idx);
  ASSERT_TRUE(embedded.ok());
  std::vector<LatencyModel::PredictionCandidate> candidates;
  for (double scale : {1e6, 2e6}) {
    candidates.push_back({{scale, 10 * scale}, r.machine_state,
                          r.hardware_type});
  }
  std::vector<double> batched(candidates.size());
  LatencyModel::BatchScratch scratch;
  model.PredictBatch(embedded.value(), candidates, batched.data(), &scratch);
  for (size_t k = 0; k < candidates.size(); ++k) {
    const LatencyModel::PredictionCandidate& c = candidates[k];
    Result<double> full = model.Predict(stage, r.instance_idx, c.theta,
                                        c.state, c.hardware_type);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(model.PredictFromEmbedding(embedded.value(), c.theta, c.state,
                                         c.hardware_type),
              full.value());
    EXPECT_EQ(batched[k], full.value());
  }
  // Both plans clamp to the band's edge, so the model cannot tell them
  // apart: the clamp really ran.
  EXPECT_EQ(batched[0], batched[1]);
}

TEST_F(TrainedModelFixture, MoreCoresNeverHugelyWorsePrediction) {
  // Within the trained window the model should broadly agree that resources
  // do not hurt dramatically (sanity of the theta response).
  const TraceDataset& dataset = env_->dataset();
  const InstanceRecord& r = dataset.records[0];
  const Stage& stage = dataset.StageOf(r);
  Result<double> lo = env_->model().Predict(stage, r.instance_idx,
                                            {1, 4}, r.machine_state,
                                            r.hardware_type);
  Result<double> hi = env_->model().Predict(stage, r.instance_idx,
                                            {2, 8}, r.machine_state,
                                            r.hardware_type);
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_LT(hi.value(), lo.value() * 1.5);
}

TEST_F(TrainedModelFixture, FineTuneRequiresTraining) {
  LatencyModel::Options options;
  options.kind = ModelKind::kMciGtn;
  LatencyModel fresh(options);
  TrainOptions train;
  EXPECT_EQ(fresh.FineTune(env_->dataset(), env_->split().val, train).code(),
            StatusCode::kFailedPrecondition);
}

// A batch size below one used to spin forever (the minibatch cursor never
// advanced); a negative sample cap used to resize the subsample to
// size_t(-1). Both are caller errors now.
TEST_F(TrainedModelFixture, TrainRejectsBatchSizeBelowOne) {
  LatencyModel fresh(LatencyModel::Options{});
  TrainOptions train;
  train.batch_size = 0;
  EXPECT_EQ(fresh
                .Train(env_->dataset(), env_->split().train, {}, train)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fresh.trained());
}

TEST_F(TrainedModelFixture, TrainRejectsNegativeSampleCap) {
  LatencyModel fresh(LatencyModel::Options{});
  TrainOptions train;
  train.max_train_samples = -1;
  EXPECT_EQ(fresh
                .Train(env_->dataset(), env_->split().train, {}, train)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fresh.trained());
}

TEST_F(TrainedModelFixture, FineTuneRejectsBatchSizeBelowOne) {
  LatencyModel copy = env_->model();
  TrainOptions tune;
  tune.batch_size = -3;
  EXPECT_EQ(copy.FineTune(env_->dataset(), env_->split().val, tune).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(copy.params_tag(), env_->model().params_tag());
}

TEST_F(TrainedModelFixture, FineTuneRejectsNegativeSampleCap) {
  LatencyModel copy = env_->model();
  TrainOptions tune;
  tune.max_train_samples = -1;
  EXPECT_EQ(copy.FineTune(env_->dataset(), env_->split().val, tune).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(copy.params_tag(), env_->model().params_tag());
}

TEST_F(TrainedModelFixture, FineTuneImprovesOnNewData) {
  // Fine-tuning on the validation slice should not blow up the error there.
  LatencyModel* model = env_->mutable_model();
  Result<std::vector<double>> before =
      model->PredictRecords(env_->dataset(), env_->split().val);
  ASSERT_TRUE(before.ok());
  TrainOptions tune;
  tune.epochs = 2;
  tune.lr = 5e-4;
  ASSERT_TRUE(model->FineTune(env_->dataset(), env_->split().val, tune).ok());
  Result<std::vector<double>> after =
      model->PredictRecords(env_->dataset(), env_->split().val);
  ASSERT_TRUE(after.ok());
  std::vector<double> actual;
  for (int idx : env_->split().val) {
    actual.push_back(
        env_->dataset().records[static_cast<size_t>(idx)].actual_latency);
  }
  EXPECT_LE(ComputeModelMetrics(actual, after.value()).wmape,
            ComputeModelMetrics(actual, before.value()).wmape * 1.2);
}

TEST(ModelVariantsTest, AllKindsTrainAndPredict) {
  ExperimentEnv::Options base;
  base.workload = WorkloadId::kA;
  base.scale = 0.03;
  base.train.epochs = 1;
  base.train.max_train_samples = 800;
  for (ModelKind kind :
       {ModelKind::kMciTlstm, ModelKind::kMciQppnet,
        ModelKind::kTlstmOriginal, ModelKind::kQppnetOriginal}) {
    ExperimentEnv::Options options = base;
    options.model_kind = kind;
    if (kind == ModelKind::kTlstmOriginal ||
        kind == ModelKind::kQppnetOriginal) {
      options.channels.aim = AimMode::kOff;
    }
    Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << ModelKindName(kind) << ": "
                          << env.status().ToString();
    Result<std::vector<double>> preds = (*env)->TestPredictions();
    ASSERT_TRUE(preds.ok()) << ModelKindName(kind);
    for (double p : preds.value()) {
      EXPECT_GT(p, 0.0);
      EXPECT_TRUE(std::isfinite(p));
    }
  }
}

// PredictRecords embeds each (stage, instance) once and predicts the GTN
// and TLSTM kinds through PredictBatch: every value must equal per-record
// Predict bit for bit, or model_wmape would move. Trained models, so the
// standardizers are fitted; the records are a slice of every split.
TEST(PredictRecordsTest, MatchesPerRecordPredictBitwiseForEveryKind) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  TraceDataset dataset = (*env)->dataset();
  std::vector<int> records = (*env)->split().test;
  records.insert(records.end(), (*env)->split().val.begin(),
                 (*env)->split().val.end());
  records.push_back(records.front());  // a repeat shares its embedding
  // A plan far outside the training range: its standardized context leaves
  // the +-10 band that Predict clamps to.
  dataset.records.push_back(dataset.records[static_cast<size_t>(records[0])]);
  dataset.records.back().theta.cores = 500.0;
  records.push_back(static_cast<int>(dataset.records.size()) - 1);
  for (ModelKind kind :
       {ModelKind::kMciGtn, ModelKind::kMciTlstm, ModelKind::kMciQppnet,
        ModelKind::kTlstmOriginal, ModelKind::kQppnetOriginal}) {
    LatencyModel::Options mo;
    mo.kind = kind;
    mo.featurizer = Featurizer(ChannelMask{}, 10);
    LatencyModel model(mo);
    TrainOptions train;
    train.epochs = 1;
    train.max_train_samples = 400;
    ASSERT_TRUE(
        model.Train(dataset, (*env)->split().train, {}, train).ok());
    Result<std::vector<double>> batched =
        model.PredictRecords(dataset, records);
    ASSERT_TRUE(batched.ok()) << ModelKindName(kind);
    ASSERT_EQ(batched->size(), records.size());
    int differing = 0;
    for (size_t k = 0; k < records.size(); ++k) {
      const InstanceRecord& r =
          dataset.records[static_cast<size_t>(records[k])];
      Result<double> one =
          model.Predict(dataset.StageOf(r), r.instance_idx, r.theta,
                        r.machine_state, r.hardware_type);
      ASSERT_TRUE(one.ok());
      if ((*batched)[k] != one.value()) ++differing;
    }
    EXPECT_EQ(differing, 0) << ModelKindName(kind) << " differs on "
                            << differing << " of " << records.size();
  }
}

// A bad record fails the whole call with the status per-record Predict
// returns for it.
TEST(PredictRecordsTest, InvalidRecordFailsLikePredict) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  TraceDataset dataset = (*env)->dataset();
  const std::vector<int>& records = (*env)->split().test;
  InstanceRecord& bad = dataset.records[static_cast<size_t>(records[1])];
  bad.machine_state.cpu_util = std::nan("");
  for (ModelKind kind : {ModelKind::kMciGtn, ModelKind::kMciTlstm,
                         ModelKind::kMciQppnet}) {
    LatencyModel::Options mo;
    mo.kind = kind;
    LatencyModel model(mo);
    Result<double> one =
        model.Predict(dataset.StageOf(bad), bad.instance_idx, bad.theta,
                      bad.machine_state, bad.hardware_type);
    ASSERT_FALSE(one.ok());
    Result<std::vector<double>> batched =
        model.PredictRecords(dataset, records);
    ASSERT_FALSE(batched.ok()) << ModelKindName(kind);
    EXPECT_EQ(batched.status().ToString(), one.status().ToString());
  }
}

TEST(ModelTargetsTest, ActTargetTrainsOnCpuSeconds) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok());
  LatencyModel::Options mo;
  mo.featurizer = Featurizer(ChannelMask{}, 10);
  LatencyModel model(mo);
  TrainOptions train;
  train.epochs = 2;
  train.max_train_samples = 1500;
  ASSERT_TRUE(model
                  .Train((*env)->dataset(), (*env)->split().train,
                         (*env)->split().val, train,
                         LatencyModel::Target::kActualCpuTime)
                  .ok());
  // ACT is a fraction of end-to-end latency, so predictions should sit
  // below the latency scale on average.
  Result<std::vector<double>> preds =
      model.PredictRecords((*env)->dataset(), (*env)->split().test);
  ASSERT_TRUE(preds.ok());
  double pred_sum = 0.0, lat_sum = 0.0;
  for (size_t i = 0; i < preds.value().size(); ++i) {
    pred_sum += preds.value()[i];
    lat_sum += (*env)->dataset()
                   .records[static_cast<size_t>((*env)->split().test[i])]
                   .actual_latency;
  }
  EXPECT_LT(pred_sum, lat_sum);
}

/// FNV-1a 64 over a model's Save() snapshot (checksum footer included):
/// covers the architecture header, both standardizers and every weight at
/// "%.17g", so equal hashes mean bit-identical parameters.
uint64_t SnapshotHash(const LatencyModel& model, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(model.Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return 0;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::fclose(f);
  return h;
}

// Pins the trained and fine-tuned GTN weights themselves (the golden replay
// hashes pin only the decisions they lead to). 790 samples at batch 32 and
// the fine-tune at batch 12 both end on a short minibatch.
TEST(GtnWeightsGoldenTest, TrainAndFineTuneMatchPinnedHash) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 2;
  options.train.max_train_samples = 790;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  LatencyModel* model = (*env)->mutable_model();
  const uint64_t trained = SnapshotHash(*model, "fgro_golden_trained.txt");
  EXPECT_EQ(trained, 0x0e5e67f3c70ae7d6ULL)
      << "trained hash is 0x" << std::hex << trained;

  TrainOptions tune;
  tune.epochs = 2;
  tune.batch_size = 12;
  tune.lr = 5e-4;
  tune.lr_decay = 1.0;
  tune.seed = 29;
  ASSERT_TRUE(
      model->FineTune((*env)->dataset(), (*env)->split().val, tune).ok());
  const uint64_t tuned = SnapshotHash(*model, "fgro_golden_tuned.txt");
  EXPECT_EQ(tuned, 0x41fed15cc3af4705ULL)
      << "fine-tuned hash is 0x" << std::hex << tuned;
}

// The tree and unit kinds train one sample at a time; pin their weights
// too, so the shared training loop cannot drift them.
TEST(ModelWeightsGoldenTest, TreeAndUnitKindsMatchPinnedHash) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const struct {
    ModelKind kind;
    uint64_t hash;
  } cases[] = {{ModelKind::kMciTlstm, 0x09a7a26822313911ULL},
               {ModelKind::kMciQppnet, 0x0db58957b1bf1834ULL},
               {ModelKind::kTlstmOriginal, 0x954ef571e6cff69eULL},
               {ModelKind::kQppnetOriginal, 0xd870f3614b2c0beaULL}};
  for (const auto& c : cases) {
    LatencyModel::Options mo;
    mo.kind = c.kind;
    mo.featurizer = Featurizer(ChannelMask{}, 10);
    LatencyModel model(mo);
    TrainOptions train;
    train.epochs = 1;
    train.max_train_samples = 300;
    train.batch_size = 16;
    ASSERT_TRUE(model
                    .Train((*env)->dataset(), (*env)->split().train, {},
                           train)
                    .ok());
    const uint64_t h = SnapshotHash(model, "fgro_golden_kind.txt");
    EXPECT_EQ(h, c.hash) << ModelKindName(c.kind) << " hash is 0x"
                         << std::hex << h;
  }
}

TEST(GprTest, FitRequiresData) {
  GprNoiseModel gpr;
  EXPECT_FALSE(gpr.Fit({}, {}).ok());
  EXPECT_FALSE(gpr.Fit({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(gpr.fitted());
}

TEST(GprTest, LearnsMultiplicativeNoiseWidth) {
  Rng rng(31);
  std::vector<double> predicted, actual_tight, actual_wide;
  for (int i = 0; i < 400; ++i) {
    double p = std::exp(rng.Uniform(0.0, 5.0));
    predicted.push_back(p);
    actual_tight.push_back(p * rng.LogNormal(0.0, 0.05));
    actual_wide.push_back(p * rng.LogNormal(0.0, 0.5));
  }
  GprNoiseModel tight, wide;
  ASSERT_TRUE(tight.Fit(predicted, actual_tight).ok());
  ASSERT_TRUE(wide.Fit(predicted, actual_wide).ok());
  double mu_t, sigma_t, mu_w, sigma_w;
  tight.PredictDistribution(20.0, &mu_t, &sigma_t);
  wide.PredictDistribution(20.0, &mu_w, &sigma_w);
  EXPECT_LT(sigma_t, sigma_w);
  EXPECT_NEAR(mu_t, std::log(20.0), 0.15);
}

TEST(GprTest, SamplesStayWithinThreeSigma) {
  Rng rng(32);
  std::vector<double> predicted, actual;
  for (int i = 0; i < 300; ++i) {
    double p = std::exp(rng.Uniform(0.0, 4.0));
    predicted.push_back(p);
    actual.push_back(p * rng.LogNormal(0.1, 0.2));
  }
  GprNoiseModel gpr;
  ASSERT_TRUE(gpr.Fit(predicted, actual).ok());
  Rng sample_rng(33);
  for (int i = 0; i < 200; ++i) {
    double s = gpr.Sample(15.0, &sample_rng);
    double mu, sigma;
    gpr.PredictDistribution(15.0, &mu, &sigma);
    EXPECT_GE(std::log(s), mu - 3 * sigma - 1e-9);
    EXPECT_LE(std::log(s), mu + 3 * sigma + 1e-9);
  }
}

TEST(GprTest, UnfittedFallbackIsIdentityish) {
  GprNoiseModel gpr;
  double mu, sigma;
  gpr.PredictDistribution(10.0, &mu, &sigma);
  EXPECT_NEAR(mu, std::log(10.0), 1e-9);
  EXPECT_GT(sigma, 0.0);
}

TEST(ModelServerTest, PolicyNames) {
  EXPECT_STREQ(ModelServer::PolicyName(ModelServer::UpdatePolicy::kStatic),
               "static");
  EXPECT_STREQ(ModelServer::PolicyName(ModelServer::UpdatePolicy::kRetrain),
               "retrain");
  EXPECT_STREQ(
      ModelServer::PolicyName(ModelServer::UpdatePolicy::kRetrainFinetune),
      "retrain+finetune");
}

TEST(ModelServerTest, DriftSimulationProducesPerBucketErrors) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.04;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok());
  std::vector<std::vector<int>> buckets =
      BucketRecordsByTime((*env)->dataset(), 24 * 3600.0);
  ModelServer::DriftOptions drift;
  drift.model.featurizer = Featurizer(ChannelMask{}, 10);
  drift.train.epochs = 1;
  drift.train.max_train_samples = 1500;
  drift.finetune.epochs = 1;
  drift.finetune.max_train_samples = 500;
  drift.bucket_hours = 24.0;
  Result<ModelServer::DriftResult> result = ModelServer::RunDriftSimulation(
      (*env)->dataset(), buckets, ModelServer::UpdatePolicy::kRetrain, drift);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One evaluation per non-empty bucket once the model is trained.
  EXPECT_GE(result->bucket_wmape.size(), 1u);
  EXPECT_LE(result->bucket_wmape.size(), buckets.size() - 1);
  for (double w : result->bucket_wmape) {
    EXPECT_GE(w, 0.0);
    EXPECT_TRUE(std::isfinite(w));
  }
}

}  // namespace
}  // namespace fgro
