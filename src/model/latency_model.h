#ifndef FGRO_MODEL_LATENCY_MODEL_H_
#define FGRO_MODEL_LATENCY_MODEL_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "featurize/featurizer.h"
#include "model/prediction_cache.h"
#include "obs/obs.h"
#include "nn/adam.h"
#include "nn/graph_embedder.h"
#include "nn/mlp.h"
#include "nn/qppnet.h"
#include "nn/tree_lstm.h"
#include "trace/trace_collector.h"

namespace fgro {

/// The five modeling tools compared in Fig. 9(c). MCI variants consume all
/// channels; the "original" variants see only the plan channel (their
/// published form predicts per-query latency on a fixed single machine).
enum class ModelKind {
  kMciGtn = 0,        // our model: DAG embedder + MLP predictor
  kMciTlstm,          // Tree-LSTM embedder retrofitted with MCI
  kMciQppnet,         // QPPNet units retrofitted with MCI (broadcast Ch2-5)
  kTlstmOriginal,     // plan-only Tree-LSTM
  kQppnetOriginal,    // plan-only QPPNet
};

const char* ModelKindName(ModelKind kind);

/// Per-dimension z-normalization fit on the training features.
struct Standardizer {
  Vec mean;
  Vec inv_std;
  void Fit(const std::vector<const Vec*>& rows);
  void Apply(Vec* row) const;
  /// Apply over a slice: standardizes v[0..n) as dimensions first..first+n
  /// of a row. Every inference path standardizes through this one function.
  void ApplyRange(double* v, size_t first, size_t n) const;
  bool fitted() const { return !mean.empty(); }
};

struct TrainOptions {
  int epochs = 10;
  int batch_size = 32;
  double lr = 1.5e-3;
  double lr_decay = 0.88;          // multiplicative, per epoch
  int max_train_samples = 40000;   // subsample cap for laptop-scale runs
  uint64_t seed = 17;
  bool verbose = false;
};

/// Instance-level latency model: the paper's model-server artifact. Trains
/// on trace records (log-latency MSE) and predicts the latency of an
/// instance on any (machine, resource plan) pair.
///
/// Thread-safety: Train() is exclusive; after training, Predict()/Embed()
/// are const, touch only the frozen weights, and keep all inference scratch
/// (feature buffers, MLP activation cache) local to the call, so a trained
/// model may be shared read-only by any number of RO-service workers.
class LatencyModel {
 public:
  struct Options {
    ModelKind kind = ModelKind::kMciGtn;
    Featurizer featurizer;
    int embed_dim = 32;
    int gnn_layers = 2;
    int mlp_hidden = 48;
    int qpp_data_dim = 8;
    uint64_t seed = 1;
  };

  /// Which trace label to learn (Table 9's modeling targets).
  enum class Target {
    kInstanceLatency,     // SiSL (default)
    kActualCpuTime,       // ACT
    kActualCpuTimeStar,   // ACT*
  };

  explicit LatencyModel(Options options);

  /// Trains from scratch on `train_idx`; `val_idx` is used for the verbose
  /// per-epoch report only (hyperparameters are fixed in this build).
  Status Train(const TraceDataset& dataset, const std::vector<int>& train_idx,
               const std::vector<int>& val_idx, const TrainOptions& options,
               Target target = Target::kInstanceLatency);

  /// Continues training the current parameters on new records (the
  /// "fine-tune" arm of Expt 7). Requires a prior Train call.
  Status FineTune(const TraceDataset& dataset,
                  const std::vector<int>& indices,
                  const TrainOptions& options);

  /// Predicted latency (seconds) of one instance on one machine context.
  Result<double> Predict(const Stage& stage, int instance_idx,
                         const ResourceConfig& theta, const SystemState& state,
                         int hardware_type) const;

  /// Two-phase inference for the optimizer hot path: the plan embedding
  /// depends only on Channels 1-2 (+AIM), so IPA can embed each instance
  /// once and sweep machines/configurations cheaply. For QPPNet-style
  /// models (which broadcast context into every unit) this transparently
  /// falls back to a full forward pass.
  struct EmbeddedInstance {
    Vec plan_embedding;       // standardized-model-space embedding
    Vec ch2_features;         // standardized Channel 2 slice
    /// The head's first-layer partial sums over [plan_embedding |
    /// ch2_features] (Mlp::FirstLayerPrefix): PredictBatch resumes every row
    /// of this instance from it. Empty for QPPNet-style kinds.
    Vec head_prefix;
    const Stage* stage = nullptr;
    int instance_idx = 0;
  };
  /// Embeds the instances `instance_ids` of one stage together: every plan
  /// graph is a block of rows in one batched GTN forward (TLSTM embeds one
  /// tree at a time), and every head prefix a row of one panel pass. out[k]
  /// is bit-identical to Embed(stage, instance_ids[k]) — a graph's rows
  /// never mix with another's — so callers may batch and chunk freely. Fails
  /// if any instance fails validation. With obs wired, counts the embedded
  /// instances in model.embed_instances.
  Result<std::vector<EmbeddedInstance>> EmbedBatch(
      const Stage& stage, const std::vector<int>& instance_ids) const;
  /// A batch of one.
  Result<EmbeddedInstance> Embed(const Stage& stage, int instance_idx) const;
  double PredictFromEmbedding(const EmbeddedInstance& embedded,
                              const ResourceConfig& theta,
                              const SystemState& state,
                              int hardware_type) const;

  /// One (resource plan, machine state, hardware) query of a batched sweep.
  struct PredictionCandidate {
    ResourceConfig theta;
    SystemState state;
    int hardware_type = 0;
  };
  /// One row of a heterogeneous batch: an embedded instance paired with a
  /// candidate. IPA's m x n placement matrix flattens to this form. The
  /// pointed-to embedding must outlive the PredictBatch call.
  struct PredictionQuery {
    const EmbeddedInstance* embedded = nullptr;
    PredictionCandidate candidate;
  };
  /// Caller-owned scratch for PredictBatch: the assembled feature matrix,
  /// the MLP activation ping-pong, and the pending-row index list. Reusing
  /// one scratch across calls makes batched inference allocation-free once
  /// the buffers are warm. Not shareable across concurrent calls.
  struct BatchScratch {
    Mat features;                      // the standardized context columns
    std::vector<const double*> starts; // each row's EmbeddedInstance prefix
    MlpScratch mlp;
    std::vector<int> pending;
    std::vector<PredictionKey> keys;       // one memo key per query
    std::vector<PredictionQuery> queries;  // used by the candidates overload
  };

  /// Batched inference for the optimizer hot path. Writes
  /// out[i] = PredictFromEmbedding(*queries[i].embedded, candidate...)
  /// bit-identically: each row assembles and standardizes only its context
  /// columns and resumes the head's first layer from its instance's
  /// head_prefix, continuing the ascending-column chain the scalar forward
  /// computes from the bias, so batching never changes a replay. The
  /// context matrix is assembled in bounded chunks, so arbitrarily large
  /// batches run in O(chunk) extra memory. QPPNet-style kinds (no reusable
  /// plan embedding) fall back to per-row PredictFromEmbedding.
  ///
  /// If `memo` is non-null every row's key (the embedding identity and the
  /// discretized candidate — exact, see PredictionKey) is built once,
  /// looked up in one LookupBatch, and the misses are inserted after the
  /// forward pass in one InsertBatch. `out` must hold queries.size()
  /// doubles.
  void PredictBatch(std::span<const PredictionQuery> queries, double* out,
                    BatchScratch* scratch,
                    PredictionMemo* memo = nullptr) const;
  /// Common special case: one embedding swept over many candidates (RAA's
  /// configuration grid, IPA's machine sweep for one instance).
  void PredictBatch(const EmbeddedInstance& embedded,
                    const std::vector<PredictionCandidate>& candidates,
                    double* out, BatchScratch* scratch,
                    PredictionMemo* memo = nullptr) const;

  /// Convenience: predict for every record index, in order.
  Result<std::vector<double>> PredictRecords(
      const TraceDataset& dataset, const std::vector<int>& indices) const;

  /// Persists the trained model (architecture, standardizers, parameters)
  /// to a version-tagged text file with a checksum footer; Load reconstructs
  /// it. This is what lets the model server hand models to schedulers across
  /// process boundaries. Load never crashes and never returns a silently
  /// wrong model: a truncated, bit-flipped, over-long, or empty snapshot is
  /// kDataLoss (the checksum or framing no longer matches what Save wrote);
  /// a well-framed file carrying garbage (unknown kind, impossible shapes,
  /// non-finite weights) is kInvalidArgument.
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<LatencyModel>> Load(const std::string& path);

  /// True when every learned parameter and fitted standardizer entry is
  /// finite. The model-registry promotion gate refuses candidates that fail
  /// this (a NaN-poisoned model would otherwise predict a constant floor).
  bool HasFiniteParameters() const;

  /// Identity of the current parameter values, unique process-wide: assigned
  /// at construction and re-assigned whenever the parameters change
  /// (Train/FineTune/Load/CorruptParamForTest). Copies share the tag —
  /// identical weights compute identical predictions — until one of them
  /// mutates. PredictionMemo keys include this tag, so a swapped or tuned
  /// model can never serve a prior model's cached prediction.
  uint64_t params_tag() const { return params_tag_; }

  /// Fault-injection hook for the rollout bench and lifecycle tests:
  /// overwrites one value of the first learned parameter (e.g. with NaN to
  /// synthesize a poisoned candidate). Re-tags the parameters. Never called
  /// on a serving path.
  void CorruptParamForTest(double value);

  ModelKind kind() const { return options_.kind; }
  const Featurizer& featurizer() const { return options_.featurizer; }
  bool trained() const { return trained_; }

  /// Wires (or, with a default Obs, unwires) inference observability:
  /// per-hardware-type Predict call counters and latency histograms, plus
  /// fast-path (PredictFromEmbedding) call counters. Handles are resolved
  /// here, once, so the per-call cost is one branch when disabled and one
  /// relaxed atomic bump when enabled — Predict stays const, lock-free, and
  /// shareable across RO-service workers. Not thread-safe against
  /// concurrent Predict calls: wire before serving, like Train().
  void set_obs(const obs::Obs& obs);

 private:
  struct PreparedSample {
    PlanGraph graph;
    int tree_root = 0;
    Vec inst_features;
    double target_log = 0.0;
    double target_raw = 0.0;
  };

  Result<double> PredictImpl(const Stage& stage, int instance_idx,
                             const ResourceConfig& theta,
                             const SystemState& state,
                             int hardware_type) const;
  bool UsesTree() const;
  bool UsesInstanceFeatures() const;
  Status PrepareSample(const TraceDataset& dataset, int record_idx,
                       Target target, PreparedSample* out) const;
  Status PrepareForInference(const Stage& stage, int instance_idx,
                             const ResourceConfig& theta,
                             const SystemState& state, int hardware_type,
                             PreparedSample* out) const;
  struct TrainScratch;
  /// One sample's forward pass. With `backward`, also backpropagates the
  /// squared-error gradient pred - target_log from that same forward
  /// (parameter grads accumulate). The GTN trains through TrainStep
  /// instead, so for it `backward` must be false.
  double ForwardBackward(const PreparedSample& sample, bool backward);
  double ForwardOnly(const PreparedSample& sample) const;
  /// One minibatch: zeroes the gradients, accumulates them over
  /// samples[batch[0..count)] in batch order (the GTN as one batched
  /// forward and backward, other kinds sample by sample), adds each
  /// sample's 0.5 * err^2 to *loss_sum, and takes one Adam step.
  void TrainStep(const std::vector<PreparedSample>& samples,
                 const size_t* batch, int count,
                 const std::vector<Param*>& params, Adam* adam,
                 TrainScratch* scratch, double* loss_sum);
  /// The epoch loop shared by Train and FineTune: per epoch, reshuffles the
  /// sample order with `rng`, runs TrainStep over it batch_size samples at
  /// a time, then calls after_epoch(epoch, loss_sum).
  void RunEpochs(const std::vector<PreparedSample>& samples,
                 const TrainOptions& options, Rng* rng, Adam* adam,
                 const std::function<void(int, double)>& after_epoch);
  std::vector<Param*> AllParams();
  double TargetOf(const InstanceRecord& record, Target target) const;

  /// Draws a fresh process-unique params_tag (see params_tag()).
  void RetagParams();

  Options options_;
  Target target_ = Target::kInstanceLatency;
  bool trained_ = false;
  uint64_t params_tag_ = 0;

  GraphEmbedder gnn_;
  TreeLstm tlstm_;
  QppNet qpp_;
  Mlp predictor_;   // head for GTN/TLSTM variants
  Adam adam_;

  Standardizer op_standardizer_;
  Standardizer inst_standardizer_;

  /// Pre-resolved observability handles (see set_obs), all null when
  /// disabled. Indexed by hardware type.
  obs::Counter* obs_predict_calls_[kNumHardwareTypes] = {};
  obs::Counter* obs_predict_fast_calls_[kNumHardwareTypes] = {};
  obs::Histogram* obs_predict_seconds_[kNumHardwareTypes] = {};
  obs::Counter* obs_predict_records_ = nullptr;
  obs::Counter* obs_embed_instances_ = nullptr;
  obs::Counter* obs_predict_batch_calls_ = nullptr;
  obs::Counter* obs_predict_batch_rows_ = nullptr;
  obs::Histogram* obs_predict_batch_size_ = nullptr;
  obs::Histogram* obs_predict_batch_seconds_ = nullptr;
};

}  // namespace fgro

#endif  // FGRO_MODEL_LATENCY_MODEL_H_
