// The repository benchmark: one binary, two workloads, one JSON line.
//
//   perfbench --workload <replay|serve> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every workload builds the pipeline of Fig. 3 from the public API —
// WorkloadGenerator -> TraceCollector -> SplitByTemplateFrequency ->
// LatencyModel::Train -> StageOptimizer inside Simulator / RoService — so
// each step is timed from outside. Nothing under src/ is instrumented for
// this file; the traced run only wires the registry the program already
// exports (SimOptions::obs, LatencyModel::set_obs, RoService::metrics()).
//
// Set-up (generate, collect, split) runs kSetupRepeats times; setup_s is
// the median. The measured phase trains the model, then runs the
// workload's decision path: one replay pass over a workload sized to fill
// --seconds, or closed-loop serve segments, each behind a fresh training.
// Training and decisions are both timed across the whole run: on a shared
// host the speed of this kind of code drifts over tens of seconds.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
// (one untraced iteration, then the same iteration with the program's
// registry wired: the two must decide identically, and the wall-time
// difference is the tracing overhead). A human-readable report goes to
// stderr; the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when a correctness gate or a serve
// validity check fails. perfbench/README.md documents every metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "model/latency_model.h"
#include "model/metrics.h"
#include "model/prediction_cache.h"
#include "obs/metrics.h"
#include "optimizer/frontier_cache.h"
#include "optimizer/fuxi.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"
#include "sim/ro_metrics.h"
#include "sim/simulator.h"
#include "trace/data_split.h"
#include "trace/trace_collector.h"
#include "trace/workload_gen.h"

namespace fgro {
namespace {

// ---------------------------------------------------------------------------
// Fixed settings. Only --seed varies the inputs (it overrides
// WorkloadProfile::seed); every other seed of the pipeline is pinned here.

constexpr uint64_t kCollectSeed = 3;         // TraceCollector stream
constexpr uint64_t kCollectClusterSeed = 7;  // cluster the trace ran on
constexpr uint64_t kSplitSeed = 3 ^ 0xabcdef;
constexpr uint64_t kModelSeed = 16;
constexpr uint64_t kReplayClusterSeed = 11;
constexpr uint64_t kSimSeed = 5;
constexpr int kSetupRepeats = 3;  // setup_s is the median of these
// Replay: a smaller training of a separate model every this many seconds
// of the pass; train_samples_per_s is their throughput.
constexpr double kSideTrainSeconds = 1.0;
constexpr int kSideTrainEpochs = 2;
constexpr int kSideTrainSamples = 2000;
constexpr int kTrainEpochs = 4;
constexpr int kTrainSamples = 4000;  // TrainOptions::max_train_samples
constexpr size_t kTrainCheckRecords = 2000;  // retrain-identity gate sample
constexpr int kEmbedProbeInstances = 2000;
// Source-table sizes are lognormal; workload A's calibrated sigma (1.2)
// makes a run's median stage width swing by a third from seed to seed.
// This narrower band keeps stages at ~35-60 instances on every seed, so
// metrics track the code, not the draw.
constexpr double kLeafRowsLogSigma = 0.4;
// HBO plans at most this many instances per cluster machine, so no stage
// is wider than the cluster can host (such a stage is infeasible for
// every scheduler, Fuxi included).
constexpr int kMaxInstancesPerMachine = 3;
constexpr int kMachines = 128;  // collection and replay cluster size

// Serve: closed loop with one job queued behind the two workers' jobs.
// The run serves kServeJobsPerSecond jobs per second of --seconds (half of
// it on the traced run), dealt to kServeSegments segments.
constexpr int kServeWorkers = 2;
constexpr long kServeInFlight = kServeWorkers + 1;
constexpr int kServeSegments = 5;
constexpr double kServeJobsPerSecond = 80.0;
constexpr double kPollIntervalSeconds = 5e-5;  // generator sleep per poll
constexpr int kServeCheckJobs = 16;     // isolated-replay gate sample
// The generator's reaction to a completion and the poll resolution must
// stay under this share of request_p50_ms.
constexpr double kValidityShare = 0.25;

struct WorkloadSpec {
  const char* name;
  int draws;           // independently seeded workloads merged into one
  // When positive, draws per second of --seconds instead of `draws`: the
  // replay pass is sized to fill the run (half of it on the traced run).
  double draws_per_second;
  double scale;      // job-count multiplier of each draw
  double templates;  // job-template-pool multiplier of each draw
  bool serve;
};

// Every workload draws from workload A's profile. Template popularity
// within one generated workload is Zipf(0.8), so a handful of head
// templates shape most of its jobs; each workload is therefore a merge of
// many independently seeded draws (replay: 5 jobs of 56 templates each),
// so its jobs are close to independent samples and the seed-to-seed spread
// of every quantile stays small.
const WorkloadSpec kWorkloads[] = {
    {"replay", 0, 11.5, 1.0 / 64, 2.0, false},
    {"serve", 20, 0.0, 0.6, 6.0, true},
};

int ServeJobs(double seconds) {
  return std::max(kServeSegments,
                  static_cast<int>(std::lround(kServeJobsPerSecond * seconds)));
}

int Draws(const WorkloadSpec& spec, double seconds) {
  if (spec.draws_per_second <= 0.0) return spec.draws;
  return std::max(
      1, static_cast<int>(std::lround(spec.draws_per_second * seconds)));
}

// Metric names, in the order BENCHMARK.json declares them.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"train_samples_per_s", "1/s"},
    {"model_wmape", "ratio"},
    {"decision_p50_ms", "ms"},
    {"decision_p99_ms", "ms"},
    {"stages_per_s", "1/s"},
    {"latency_rr", "ratio"},
    {"cost_rr", "ratio"},
    {"primary_frac", "ratio"},
    {"request_p50_ms", "ms"},
    {"request_p99_ms", "ms"},
    {"max_rate_jobs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const char* const kPerLayer[][2] = {
    {"trace.generate_s", "s"},
    {"trace.collect_s", "s"},
    {"trace.split_s", "s"},
    {"trace.records", "count"},
    {"model.train_s", "s"},
    {"model.train_epoch_s", "s"},
    {"model.infer_s", "s"},
    {"model.embed_us", "us"},
    {"model.predict_batch_rows", "count"},
    {"model.predict_batch_s", "s"},
    {"model.memo_hit_ratio", "ratio"},
    {"optimizer.decide_s", "s"},
    {"optimizer.placement_s", "s"},
    {"optimizer.raa_s", "s"},
    {"optimizer.wun_s", "s"},
    {"optimizer.frontier_hit_ratio", "ratio"},
    {"optimizer.frontier_entries", "count"},
    {"sim.replay_s", "s"},
    {"sim.self_s", "s"},
    {"sim.baseline_replay_s", "s"},
    {"sim.check_replay_s", "s"},
    {"service.serve_s", "s"},
    {"service.queue_wait_mean_ms", "ms"},
    {"service.service_mean_ms", "ms"},
    {"service.max_queue_depth", "count"},
    {"service.gen_reaction_p99_ms", "ms"},
    {"service.poll_resolution_ms", "ms"},
    {"traced_wall_s", "s"},
    {"unattributed_s", "s"},
    {"tracing_overhead_frac", "ratio"},
};

// ---------------------------------------------------------------------------
// Small helpers.

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  return obs::QuantileOfSamples(std::move(values), 0.5);
}

/// The highest percentile (at most p99) that still has at least ten
/// samples beyond it, so a tail is never read off a handful of points.
double Tail(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  const double q = std::max(0.5, std::min(0.99, 1.0 - 10.0 / n));
  return obs::QuantileOfSamples(values, q);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// FNV-1a over one 64-bit word.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HistogramSum(const obs::MetricsRegistry::Snapshot& snap,
                    const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

double CounterValue(const obs::MetricsRegistry::Snapshot& snap,
                    const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Correctness gates: every failure is recorded with a message; any one
/// makes the run incorrect (exit code 1).
struct Gates {
  std::vector<std::string> failures;
  void Require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

/// Named values of one run. Emit() prints the declared metrics only;
/// other keys are scratch accumulators.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double delta) { values_[name] += delta; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Prints the human-readable table to stderr and the JSON line to stdout.
  void Emit(const WorkloadSpec& spec, bool trace, const Gates& gates,
            long attempted, long failed) const {
    std::fprintf(stderr, "\n[perfbench] workload=%s trace=%d\n", spec.name,
                 trace ? 1 : 0);
    std::string json = "{\"correct\": ";
    json += gates.ok() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const char* name, const char* unit) {
      double value = Get(name);
      if (!std::isfinite(value)) value = 0.0;
      std::fprintf(stderr, "  %-30s %16.6f %s\n", name, value, unit);
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      if (!first) json += ", ";
      first = false;
      json += std::string("\"") + name + "\": {\"value\": " + buffer +
              ", \"unit\": \"" + unit + "\"}";
    };
    if (trace) {
      for (const auto& m : kPerLayer) emit(m[0], m[1]);
    } else {
      for (const auto& m : kEndToEnd) emit(m[0], m[1]);
    }
    json += "}}";
    std::fprintf(stderr, "  attempted=%ld failed=%ld correct=%s\n", attempted,
                 failed, gates.ok() ? "true" : "false");
    for (const std::string& failure : gates.failures) {
      std::fprintf(stderr, "  GATE FAILED: %s\n", failure.c_str());
    }
    std::fflush(stderr);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
};

/// Adds the program's own layer counters and histogram sums (exported
/// through SimOptions::obs and LatencyModel::set_obs) to the ledger.
void AddLayerSums(const obs::MetricsRegistry::Snapshot& snap,
                  Report* report) {
  report->Add("model.predict_batch_rows",
              CounterValue(snap, "model.predict_batch_rows"));
  report->Add("model.predict_batch_s",
              HistogramSum(snap, "model.predict_batch_seconds"));
  report->Add("optimizer.placement_s",
              HistogramSum(snap, "so.placement_seconds"));
  report->Add("optimizer.raa_s", HistogramSum(snap, "so.raa_seconds"));
  report->Add("optimizer.wun_s", HistogramSum(snap, "so.wun_seconds"));
  report->Add("optimizer.solve_s", HistogramSum(snap, "so.solve_seconds"));
}

/// Fills the decision-quality metrics shared by replay and serve.
void ReportQuality(const SimResult& method, const SimResult& fuxi,
                   Report* report) {
  const RoSummary ours = Summarize(method);
  const ReductionRates rr = ComputeReduction(Summarize(fuxi), ours);
  report->Set("latency_rr", rr.latency_rr);
  report->Set("cost_rr", rr.cost_rr);
  report->Set("primary_frac",
              Ratio(ours.fallback_histogram[0], ours.num_stages));
}

// ---------------------------------------------------------------------------
// Set-up (generate -> collect -> split, each step timed) and training.

struct Pipeline {
  Workload workload;
  TraceDataset dataset;  // points into `workload`: Pipeline is heap-only
  DataSplit split;
  std::unique_ptr<LatencyModel> model;
  double generate_s = 0.0;
  double collect_s = 0.0;
  double split_s = 0.0;
};

/// Template ids of draw k are offset by k * kTemplateIdStride, so merged
/// draws never share a template id.
constexpr int kTemplateIdStride = 1 << 20;

Result<std::unique_ptr<Pipeline>> BuildPipeline(const WorkloadSpec& spec,
                                                uint64_t seed, int draws) {
  auto p = std::make_unique<Pipeline>();
  double start = Now();
  for (int k = 0; k < draws; ++k) {
    WorkloadProfile profile =
        GetWorkloadProfile(WorkloadId::kA, spec.scale);
    profile.seed = MixSeed(seed, static_cast<uint64_t>(k));
    profile.plan.leaf_rows_log_sigma = kLeafRowsLogSigma;
    profile.num_job_templates = static_cast<int>(
        std::lround(profile.num_job_templates * spec.templates));
    profile.hbo.max_instances = std::min(
        profile.hbo.max_instances, kMaxInstancesPerMachine * kMachines);
    WorkloadGenerator generator(profile);
    Result<Workload> draw = generator.Generate();
    if (!draw.ok()) return draw.status();
    if (k == 0) p->workload.profile = draw->profile;
    for (Job& job : draw->jobs) {
      for (Stage& stage : job.stages) {
        stage.template_id += k * kTemplateIdStride;
      }
      p->workload.jobs.push_back(std::move(job));
    }
  }
  // One arrival-ordered workload with job ids equal to indices.
  std::vector<Job>& jobs = p->workload.jobs;
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].id = static_cast<int>(j);
    for (Stage& stage : jobs[j].stages) stage.job_id = static_cast<int>(j);
  }
  p->workload.profile.num_jobs = static_cast<int>(jobs.size());
  p->generate_s = Now() - start;

  start = Now();
  TraceCollector collector(
      ClusterOptions{.num_machines = kMachines,
                     .seed = kCollectClusterSeed},
      kCollectSeed);
  Result<TraceDataset> dataset = collector.Collect(p->workload);
  if (!dataset.ok()) return dataset.status();
  p->dataset = std::move(dataset).value();
  p->dataset.workload = &p->workload;
  p->collect_s = Now() - start;

  start = Now();
  Rng split_rng(kSplitSeed);
  p->split = SplitByTemplateFrequency(p->dataset, &split_rng);
  p->split_s = Now() - start;
  return p;
}

/// Trains a fresh model on `p` at a fixed epoch count and sample cap,
/// recording its wall time. Training is deterministic: every retrain yields
/// the same weights, so every replay the same decisions.
Result<std::unique_ptr<LatencyModel>> TrainModel(const Pipeline& p,
                                                 int epochs, int samples,
                                                 Report* report,
                                                 std::vector<double>* train_s) {
  LatencyModel::Options options;
  options.kind = ModelKind::kMciGtn;
  options.featurizer = Featurizer(ChannelMask(), 10);
  options.seed = kModelSeed;
  auto model = std::make_unique<LatencyModel>(options);
  TrainOptions train;
  train.epochs = epochs;
  train.max_train_samples = samples;
  const double start = Now();
  FGRO_RETURN_IF_ERROR(
      model->Train(p.dataset, p.split.train, p.split.val, train));
  const double seconds = Now() - start;
  train_s->push_back(seconds);
  report->Set("model.train_s", seconds);
  report->Set("model.train_epoch_s", seconds / epochs);
  report->Add("model.train_total_s", seconds);
  return model;
}

/// Samples per second over `train_s.size()` TrainModel calls at `epochs`
/// and `samples`: total work over total time, so it follows the share of
/// the run the host spent fast or slow (a median of trainings jumps
/// between the two speeds when that share is near one half).
double TrainRate(const Pipeline& p, int epochs, int samples,
                 const std::vector<double>& train_s) {
  const double per_training =
      epochs * static_cast<double>(std::min<size_t>(
                   p.split.train.size(), static_cast<size_t>(samples)));
  return Ratio(per_training * static_cast<double>(train_s.size()),
               std::accumulate(train_s.begin(), train_s.end(), 0.0));
}

/// FNV-1a over the model's predictions for the first test records: equal
/// for every retrain of a deterministic trainer.
Result<uint64_t> PredictionChecksum(const Pipeline& p,
                                    const LatencyModel& model) {
  const std::vector<int> sample(
      p.split.test.begin(),
      p.split.test.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(p.split.test.size(), kTrainCheckRecords)));
  Result<std::vector<double>> predicted =
      model.PredictRecords(p.dataset, sample);
  if (!predicted.ok()) return predicted.status();
  uint64_t h = kFnvBasis;
  for (double v : predicted.value()) h = Mix(h, Bits(v));
  return h;
}

/// Test-split WMAPE of the pipeline's model.
Result<double> TestWmape(const Pipeline& p) {
  Result<std::vector<double>> predicted =
      p.model->PredictRecords(p.dataset, p.split.test);
  if (!predicted.ok()) return predicted.status();
  std::vector<double> actual;
  actual.reserve(p.split.test.size());
  for (int idx : p.split.test) {
    actual.push_back(p.dataset.records[static_cast<size_t>(idx)]
                         .actual_latency);
  }
  return ComputeModelMetrics(actual, predicted.value()).wmape;
}

/// Mean LatencyModel::Embed time over the instances of the workload's
/// stages (the first kEmbedProbeInstances, in job/stage order), in us.
double EmbedProbeUs(const Pipeline& p) {
  double total = 0.0;
  int calls = 0;
  for (const Job& job : p.workload.jobs) {
    for (const Stage& stage : job.stages) {
      for (int i = 0; i < stage.instance_count(); ++i) {
        if (calls == kEmbedProbeInstances) return total / calls * 1e6;
        const double start = Now();
        Result<LatencyModel::EmbeddedInstance> embedded =
            p.model->Embed(stage, i);
        total += Now() - start;
        ++calls;
        if (!embedded.ok()) return 0.0;
      }
    }
  }
  return calls > 0 ? total / calls * 1e6 : 0.0;
}

SimOptions BaseSimOptions() {
  SimOptions options;
  options.cluster = ClusterOptions{.num_machines = kMachines,
                                   .seed = kReplayClusterSeed};
  options.outcome = OutcomeMode::kEnvironment;
  options.seed = kSimSeed;
  return options;
}

// ---------------------------------------------------------------------------
// Replay: sequential Simulator::Run with every Optimize call timed in the
// scheduler callback.

struct ReplayPass {
  double wall_s = 0.0;
  double decide_s = 0.0;
  std::vector<double> decision_s;
  std::vector<double> job_s;  // wall time per job, jobs back to back
  uint64_t checksum = kFnvBasis;
  int decisions = 0;
  int shape_errors = 0;
  SimResult result;
  uint64_t memo_hits = 0, memo_misses = 0;
  uint64_t frontier_hits = 0, frontier_misses = 0;
  size_t frontier_entries = 0;
};

/// One pass with fresh caches, so a traced pass and its untraced twin do
/// the same work. The
/// scheduler callback first runs `between` (side trainings); the pass's
/// wall, decision and job times leave its time out.
Result<ReplayPass> RunReplayPass(const Pipeline& p,
                                 obs::MetricsRegistry* metrics,
                                 const std::function<void()>& between) {
  PredictionMemo memo;
  FrontierCache frontier;
  SimOptions options = BaseSimOptions();
  options.memo = &memo;
  options.frontier_cache = &frontier;
  options.obs.metrics = metrics;
  const StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());

  ReplayPass pass;
  pass.decision_s.reserve(static_cast<size_t>(p.workload.TotalStages()));
  std::vector<double> job_start;  // first decision of each new job
  int last_job = -1;
  double between_s = 0.0;
  auto clock = [&] { return Now() - between_s; };
  auto scheduler = [&](const SchedulingContext& context) {
    const double before = Now();
    between();
    between_s += Now() - before;
    const double start = Now();
    StageDecision decision = optimizer.Optimize(context);
    const double seconds = Now() - start;
    pass.decision_s.push_back(seconds);
    pass.decide_s += seconds;
    ++pass.decisions;
    const Stage& stage = *context.stage;
    if (stage.job_id != last_job) {
      last_job = stage.job_id;
      job_start.push_back(start - between_s);
    }
    const size_t m = static_cast<size_t>(stage.instance_count());
    if (decision.machine_of_instance.size() != m ||
        decision.theta_of_instance.size() != m) {
      ++pass.shape_errors;
    }
    uint64_t h = Mix(pass.checksum, static_cast<uint64_t>(stage.job_id));
    h = Mix(h, static_cast<uint64_t>(stage.id));
    h = Mix(h, decision.feasible ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(decision.fallback));
    for (int machine : decision.machine_of_instance) {
      h = Mix(h, static_cast<uint64_t>(machine));
    }
    for (const ResourceConfig& theta : decision.theta_of_instance) {
      h = Mix(Mix(h, Bits(theta.cores)), Bits(theta.memory_gb));
    }
    pass.checksum = h;
    return decision;
  };

  Simulator simulator(&p.workload, p.model.get(), options);
  const double start = clock();
  Result<SimResult> result = simulator.Run(scheduler);
  const double end = clock();
  if (!result.ok()) return result.status();
  pass.wall_s = end - start;
  pass.result = std::move(result).value();
  // Jobs replay one after another, so a job's wall time runs from its
  // first decision (the run's start, for the first job) to the next job's.
  if (!job_start.empty()) job_start.front() = start;
  job_start.push_back(end);
  for (size_t j = 0; j + 1 < job_start.size(); ++j) {
    pass.job_s.push_back(job_start[j + 1] - job_start[j]);
  }
  pass.memo_hits = memo.hits();
  pass.memo_misses = memo.misses();
  pass.frontier_hits = frontier.hits();
  pass.frontier_misses = frontier.misses();
  pass.frontier_entries = frontier.size();
  return pass;
}

// ---------------------------------------------------------------------------
// Serve: closed-loop RoService. One generator thread keeps kServeInFlight
// distinct jobs in the service, submitting the next one as soon as it sees
// a completion, so both workers stay busy and the admission queue always
// holds a job. The loop is closed because on a shared host an open-loop
// rate ladder's queueing turns a 1.4x slower host into 2x request
// latencies and half the max rate, past any useful bound.

struct ServeSegment {
  std::vector<int> jobs;  // submission order, distinct
  // Measured.
  double wall_s = 0.0;
  long shed = 0;
  long failed = 0;
  std::vector<double> request_s;   // submit -> observed completion
  std::vector<double> reaction_s;  // completion seen -> next submit
  std::vector<double> poll_gap_s;
  int max_queue_depth = 0;
  double queue_wait_sum_s = 0.0;
  double service_sum_s = 0.0;
  long served = 0;            // svc.service_seconds samples
  std::vector<int> admitted;  // admission order
  SimResult result;           // outcomes in admission order
  uint64_t checksum = kFnvBasis;
  uint64_t memo_hits = 0, memo_misses = 0;
  uint64_t frontier_hits = 0, frontier_misses = 0;
  size_t frontier_entries = 0;
  std::string error;  // empty when the segment ran cleanly
};

/// Deals `total` jobs of a seeded permutation of the workload to
/// kServeSegments segments, in order. Jobs are distinct while `total` is at
/// most the workload's job count (3840: 48 s of --seconds).
std::vector<ServeSegment> PlanSegments(const Workload& workload,
                                       uint64_t seed, int total) {
  std::vector<int> order(workload.jobs.size());
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(MixSeed(seed, 0x5e72));
  for (size_t i = order.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(
        shuffle_rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  std::vector<ServeSegment> segments(kServeSegments);
  for (int k = 0; k < total; ++k) {
    segments[static_cast<size_t>(k % kServeSegments)].jobs.push_back(
        order[static_cast<size_t>(k) % order.size()]);
  }
  return segments;
}

void RunServeSegment(const Pipeline& p, obs::MetricsRegistry* metrics,
                     ServeSegment* segment) {
  PredictionMemo memo;
  FrontierCache frontier;
  SimOptions options = BaseSimOptions();
  options.memo = &memo;
  options.frontier_cache = &frontier;
  options.service_threads = kServeWorkers;
  options.obs.metrics = metrics;
  RoService service(&p.workload, p.model.get(), options,
                    StageOptimizer::IpaRaaPathWithFallback());

  const size_t n = segment->jobs.size();
  std::vector<double> submit_time(n, 0.0);
  std::vector<double> completion_time;
  completion_time.reserve(n);
  segment->reaction_s.reserve(n);
  segment->admitted.reserve(n);
  std::unordered_map<int, size_t> index_of;  // job -> submission index
  size_t next = 0;
  long seen = 0;  // completions observed so far
  double seen_at = 0.0;
  const double t0 = Now();
  double last_poll = t0;
  while (true) {
    // Top the service up to kServeInFlight jobs.
    while (next < n &&
           static_cast<long>(next) - segment->shed - seen < kServeInFlight) {
      const double now = Now();
      if (seen > 0) segment->reaction_s.push_back(now - seen_at);
      const int job = segment->jobs[next];
      submit_time[next] = now;
      index_of[job] = next;
      if (service.Submit(job).ok()) {
        segment->admitted.push_back(job);
      } else {
        ++segment->shed;
      }
      ++next;
    }
    // jobs_completed is bumped under the same lock that appends to
    // completion_order(), so the k-th completion seen here is entry k.
    const RoServiceStats stats = service.Stats();
    const double polled = Now();
    segment->poll_gap_s.push_back(polled - last_poll);
    last_poll = polled;
    while (static_cast<long>(completion_time.size()) < stats.jobs_completed) {
      completion_time.push_back(polled);
    }
    if (stats.jobs_completed > seen) {
      seen = stats.jobs_completed;
      seen_at = polled;
    }
    if (next == n && stats.jobs_completed >= stats.jobs_admitted) break;
    // Sleep between polls: a spinning generator would take a core from
    // the workers. A late poll only delays the next submission while the
    // queued job keeps both workers busy.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kPollIntervalSeconds));
  }
  segment->wall_s = Now() - t0;
  service.Stop();
  const Status first_error = service.first_error();
  const RoServiceStats stats = service.Stats();
  segment->failed = stats.jobs_failed;
  segment->max_queue_depth = stats.max_queue_depth;
  const std::vector<int> order = service.completion_order();
  const obs::MetricsRegistry::Snapshot snap = service.metrics().Snap();
  segment->queue_wait_sum_s = HistogramSum(snap, "svc.queue_wait_seconds");
  segment->service_sum_s = HistogramSum(snap, "svc.service_seconds");
  auto served = snap.histograms.find("svc.service_seconds");
  segment->served = served == snap.histograms.end()
                        ? 0
                        : static_cast<long>(served->second.count);
  segment->result = service.TakeResult();
  segment->memo_hits = memo.hits();
  segment->memo_misses = memo.misses();
  segment->frontier_hits = frontier.hits();
  segment->frontier_misses = frontier.misses();
  segment->frontier_entries = frontier.size();
  if (!first_error.ok()) segment->error = first_error.ToString();
  if (order.size() != segment->admitted.size() ||
      completion_time.size() != order.size()) {
    segment->error = "completion count mismatch";
    return;
  }
  // Jobs are distinct within a segment, so the job index names the request.
  for (size_t k = 0; k < order.size(); ++k) {
    segment->request_s.push_back(completion_time[k] -
                                 submit_time[index_of[order[k]]]);
  }
  for (const StageOutcome& o : segment->result.outcomes) {
    uint64_t h = Mix(segment->checksum, static_cast<uint64_t>(o.job_idx));
    h = Mix(h, static_cast<uint64_t>(o.stage_idx));
    h = Mix(h, o.feasible ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(o.fallback));
    h = Mix(h, static_cast<uint64_t>(o.num_instances));
    h = Mix(Mix(h, Bits(o.stage_latency)), Bits(o.stage_cost));
    segment->checksum = h;
  }
}

// ---------------------------------------------------------------------------
// The measured phase.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

struct Measured {
  long attempted = 0;
  long failed = 0;
  uint64_t checksum = kFnvBasis;  // every decision of the phase
  double wall_s = 0.0;            // the decision path's wall time
};

/// Replay: a training whose model decides the pass, then one
/// replay pass over the workload. With `side_trainings`, the pass's
/// callback also trains a smaller, separate model every kSideTrainSeconds
/// (each must equal the first), so training is timed many times across the
/// whole run, as the decisions are.
Result<Measured> MeasureReplay(Pipeline* p, bool side_trainings,
                               obs::MetricsRegistry* metrics, Report* report,
                               Gates* gates) {
  std::vector<double> train_s;
  Result<std::unique_ptr<LatencyModel>> model =
      TrainModel(*p, kTrainEpochs, kTrainSamples, report, &train_s);
  if (!model.ok()) return model.status();
  p->model = std::move(model).value();

  std::vector<double> side_train_s;
  uint64_t first_side = 0;
  Status side_status = Status::OK();
  double next_train = Now() + kSideTrainSeconds;
  auto between = [&] {
    if (!side_trainings || !side_status.ok() || Now() < next_train) return;
    Result<std::unique_ptr<LatencyModel>> side = TrainModel(
        *p, kSideTrainEpochs, kSideTrainSamples, report, &side_train_s);
    const double start = Now();
    Result<uint64_t> check =
        side.ok() ? PredictionChecksum(*p, *side.value()) : side.status();
    report->Add("model.infer_s", Now() - start);
    if (!check.ok()) {
      side_status = check.status();
    } else if (side_train_s.size() == 1) {
      first_side = check.value();
    } else {
      gates->Require(check.value() == first_side,
                     "retraining produced a different model");
    }
    next_train = Now() + kSideTrainSeconds;
  };
  obs::Obs hookup;
  hookup.metrics = metrics;
  p->model->set_obs(hookup);
  Result<ReplayPass> replayed =
      RunReplayPass(*p, metrics, between);
  p->model->set_obs(obs::Obs());
  if (!replayed.ok()) return replayed.status();
  FGRO_RETURN_IF_ERROR(side_status);
  const ReplayPass& pass = replayed.value();

  const int total_stages = p->workload.TotalStages();
  gates->Require(pass.shape_errors == 0,
                 "a decision lacks one placement and one theta per instance");
  gates->Require(pass.decisions == total_stages &&
                     static_cast<int>(pass.result.outcomes.size()) ==
                         total_stages &&
                     pass.job_s.size() == p->workload.jobs.size(),
                 "not every stage was decided and replayed exactly once");
  if (!gates->ok()) return Status::Internal(gates->failures.front());
  // The side trainings when the pass was long enough for any.
  report->Set("train_samples_per_s",
              side_train_s.empty()
                  ? TrainRate(*p, kTrainEpochs, kTrainSamples, train_s)
                  : TrainRate(*p, kSideTrainEpochs, kSideTrainSamples,
                              side_train_s));
  report->Set("decision_p50_ms", Median(pass.decision_s) * 1e3);
  report->Set("decision_p99_ms", Tail(pass.decision_s) * 1e3);
  report->Set("stages_per_s", total_stages / pass.wall_s);
  report->Set("request_p50_ms", Median(pass.job_s) * 1e3);
  report->Set("request_p99_ms", Tail(pass.job_s) * 1e3);
  report->Set("max_rate_jobs_per_s", p->workload.jobs.size() / pass.wall_s);

  // Fuxi replay of the same jobs: the reduction-rate baseline.
  const double fuxi_start = Now();
  Simulator fuxi_sim(&p->workload, p->model.get(), BaseSimOptions());
  Result<SimResult> fuxi = fuxi_sim.Run(
      [](const SchedulingContext& context) { return FuxiSchedule(context); });
  if (!fuxi.ok()) return fuxi.status();
  report->Set("sim.baseline_replay_s", Now() - fuxi_start);
  ReportQuality(pass.result, fuxi.value(), report);

  report->Set("sim.replay_s", pass.wall_s);
  report->Set("optimizer.decide_s", pass.decide_s);
  report->Set("sim.self_s", pass.wall_s - pass.decide_s);
  report->Set("model.memo_hit_ratio",
              Ratio(pass.memo_hits, pass.memo_hits + pass.memo_misses));
  report->Set("optimizer.frontier_hit_ratio",
              Ratio(pass.frontier_hits,
                    pass.frontier_hits + pass.frontier_misses));
  report->Set("optimizer.frontier_entries",
              static_cast<double>(pass.frontier_entries));

  Measured measured;
  for (const StageOutcome& o : pass.result.outcomes) {
    ++measured.attempted;
    if (!o.feasible) ++measured.failed;
  }
  measured.checksum = pass.checksum;
  measured.wall_s = pass.wall_s;
  std::fprintf(stderr,
               "  replay: %zu jobs, %d decisions, checksum %016llx, "
               "%.3f s/pass, train s:",
               p->workload.jobs.size(), pass.decisions,
               static_cast<unsigned long long>(pass.checksum), pass.wall_s);
  for (double seconds : train_s) std::fprintf(stderr, " %.3f", seconds);
  std::fprintf(stderr, "; side:");
  for (double seconds : side_train_s) std::fprintf(stderr, " %.3f", seconds);
  std::fprintf(stderr, "\n");
  return measured;
}

/// Serve: `total_jobs` jobs in kServeSegments closed-loop segments, each
/// with a freshly trained model and a fresh service; then (with `checks`)
/// the Fuxi baseline over the served jobs and the isolated-replay gate on
/// the first segment.
Result<Measured> MeasureServe(Pipeline* p, uint64_t seed, int total_jobs,
                              bool checks,
                              obs::MetricsRegistry* metrics, Report* report,
                              Gates* gates) {
  std::vector<ServeSegment> segments =
      PlanSegments(p->workload, seed, total_jobs);
  std::vector<double> train_s;
  Measured measured;
  std::vector<double> request_s, reaction_s, poll_gap_s, solve_s;
  double wall_s = 0.0, queue_wait_s = 0.0, service_s = 0.0;
  long served = 0, stages = 0;
  int max_queue_depth = 0;
  for (ServeSegment& segment : segments) {
    Result<std::unique_ptr<LatencyModel>> model =
        TrainModel(*p, kTrainEpochs, kTrainSamples, report, &train_s);
    if (!model.ok()) return model.status();
    p->model = std::move(model).value();
    obs::Obs hookup;
    hookup.metrics = metrics;
    p->model->set_obs(hookup);
    const double start = Now();
    RunServeSegment(*p, metrics, &segment);
    report->Add("service.serve_s", Now() - start);
    p->model->set_obs(obs::Obs());
    gates->Require(segment.error.empty(),
                   "serve segment failed: " + segment.error);
    // Attempted: every request and every stage decision it carried.
    measured.attempted += static_cast<long>(segment.jobs.size() +
                                            segment.result.outcomes.size());
    measured.failed += segment.shed + segment.failed;
    for (const StageOutcome& o : segment.result.outcomes) {
      if (!o.feasible) ++measured.failed;
      solve_s.push_back(o.solve_seconds);
    }
    measured.checksum = Mix(measured.checksum, segment.checksum);
    request_s.insert(request_s.end(), segment.request_s.begin(),
                     segment.request_s.end());
    reaction_s.insert(reaction_s.end(), segment.reaction_s.begin(),
                      segment.reaction_s.end());
    poll_gap_s.insert(poll_gap_s.end(), segment.poll_gap_s.begin(),
                      segment.poll_gap_s.end());
    wall_s += segment.wall_s;
    queue_wait_s += segment.queue_wait_sum_s;
    service_s += segment.service_sum_s;
    served += segment.served;
    stages += static_cast<long>(segment.result.outcomes.size());
    max_queue_depth = std::max(max_queue_depth, segment.max_queue_depth);
    std::fprintf(stderr,
                 "  serve segment: %4zu jobs in %.3f s, p50 %7.2f ms, p99 "
                 "%7.2f ms, shed %ld, max depth %d\n",
                 segment.jobs.size(), segment.wall_s,
                 Median(segment.request_s) * 1e3,
                 Tail(segment.request_s) * 1e3, segment.shed,
                 segment.max_queue_depth);
  }
  measured.wall_s = wall_s;

  const double p50_ms = Median(request_s) * 1e3;
  const double reaction_ms = Tail(reaction_s) * 1e3;
  const double poll_ms = Tail(poll_gap_s) * 1e3;
  report->Set("train_samples_per_s",
              TrainRate(*p, kTrainEpochs, kTrainSamples, train_s));
  report->Set("request_p50_ms", p50_ms);
  report->Set("request_p99_ms", Tail(request_s) * 1e3);
  report->Set("max_rate_jobs_per_s", Ratio(request_s.size(), wall_s));
  report->Set("service.queue_wait_mean_ms", Ratio(queue_wait_s, served) * 1e3);
  report->Set("service.service_mean_ms", Ratio(service_s, served) * 1e3);
  report->Set("service.max_queue_depth", max_queue_depth);
  report->Set("service.gen_reaction_p99_ms", reaction_ms);
  report->Set("service.poll_resolution_ms", poll_ms);
  std::fprintf(stderr,
               "  serve validity: generator reaction p99 %.3f ms, poll "
               "resolution p99 %.3f ms, request p50 %.3f ms\n",
               reaction_ms, poll_ms, p50_ms);
  gates->Require(reaction_ms <= kValidityShare * p50_ms,
                 "serve invalid: generator reaction is not small next to "
                 "request_p50_ms");
  gates->Require(poll_ms <= kValidityShare * p50_ms,
                 "serve invalid: completion-poll resolution is not small "
                 "next to request_p50_ms");

  // The service owns its scheduler callback, so decision times come from
  // the optimizer's own per-stage solve_seconds; throughput is per
  // worker-busy second.
  report->Set("decision_p50_ms", Median(solve_s) * 1e3);
  report->Set("decision_p99_ms", Tail(solve_s) * 1e3);
  report->Set("stages_per_s", Ratio(stages, service_s));
  const ServeSegment& first = segments.front();
  report->Set("model.memo_hit_ratio",
              Ratio(first.memo_hits, first.memo_hits + first.memo_misses));
  report->Set("optimizer.frontier_hit_ratio",
              Ratio(first.frontier_hits,
                    first.frontier_hits + first.frontier_misses));
  report->Set("optimizer.frontier_entries",
              static_cast<double>(first.frontier_entries));
  if (!checks) return measured;

  // Decision quality over every served job (decisions do not
  // depend on load), against Fuxi on each job replayed in isolation on the
  // same MixSeed stream the service gave it.
  const SimOptions base = BaseSimOptions();
  const Simulator simulator(&p->workload, p->model.get(), base);
  double start = Now();
  SimResult served_all, fuxi;
  for (const ServeSegment& segment : segments) {
    served_all.outcomes.insert(served_all.outcomes.end(),
                               segment.result.outcomes.begin(),
                               segment.result.outcomes.end());
    for (int job : segment.admitted) {
      Result<std::vector<StageOutcome>> outcomes =
          simulator.ReplayJobIsolated(
              [](const SchedulingContext& c) { return FuxiSchedule(c); },
              job, MixSeed(base.seed, static_cast<uint64_t>(job)));
      if (!outcomes.ok()) return outcomes.status();
      for (StageOutcome& o : outcomes.value()) {
        fuxi.outcomes.push_back(std::move(o));
      }
    }
  }
  report->Set("sim.baseline_replay_s", Now() - start);
  ReportQuality(served_all, fuxi, report);

  // Gate: a sample of served jobs, in admission order, equals the isolated
  // replay of the same job on its MixSeed stream with no shared caches.
  start = Now();
  const StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
  std::map<int, std::vector<const StageOutcome*>> by_job;
  for (const StageOutcome& o : first.result.outcomes) {
    by_job[o.job_idx].push_back(&o);
  }
  const size_t stride =
      std::max<size_t>(1, first.admitted.size() / kServeCheckJobs);
  for (size_t i = 0; i < first.admitted.size(); i += stride) {
    const int job = first.admitted[i];
    Result<std::vector<StageOutcome>> ref = simulator.ReplayJobIsolated(
        [&](const SchedulingContext& c) { return optimizer.Optimize(c); },
        job, MixSeed(base.seed, static_cast<uint64_t>(job)));
    if (!ref.ok()) return ref.status();
    auto it = by_job.find(job);
    bool same = it != by_job.end() && it->second.size() == ref->size();
    for (size_t s = 0; same && s < ref->size(); ++s) {
      const StageOutcome& a = *it->second[s];
      const StageOutcome& b = (*ref)[s];
      same = a.stage_idx == b.stage_idx && a.feasible == b.feasible &&
             a.fallback == b.fallback && a.num_instances == b.num_instances &&
             Bits(a.stage_latency) == Bits(b.stage_latency) &&
             Bits(a.stage_cost) == Bits(b.stage_cost);
    }
    gates->Require(same, "served job " + std::to_string(job) +
                             " differs from its isolated replay");
  }
  report->Set("sim.check_replay_s", Now() - start);
  return measured;
}

/// Runs the measured phase. `traced` wires a registry into the model and
/// the simulator/service; `one_pass` (the traced run and its untraced
/// twin) trains once, or serves the jobs of half the time.
Result<Measured> MeasurePhase(const WorkloadSpec& spec, const Args& args,
                              Pipeline* p, bool traced, bool one_pass,
                              Report* report, Gates* gates) {
  obs::MetricsRegistry layers;
  obs::MetricsRegistry* metrics = traced ? &layers : nullptr;
  Result<Measured> measured =
      spec.serve
          ? MeasureServe(p, args.seed,
                         ServeJobs(one_pass ? args.seconds / 2 : args.seconds),
                         /*checks=*/!one_pass || traced, metrics, report,
                         gates)
          : MeasureReplay(p, /*side_trainings=*/!one_pass, metrics, report,
                          gates);
  if (traced) AddLayerSums(layers.Snap(), report);
  return measured;
}

/// Untraced: setup_s over kSetupRepeats setups, then the measured phase
/// for --seconds; prints the end-to-end metrics.
/// Traced: one setup of a replay workload half the size, one untraced
/// iteration (its decision checksum and wall time), then the identical
/// iteration with the program's registry wired — obs on/off must decide
/// the same, and the wall-time difference is the tracing overhead. Prints
/// the per-layer ledger, whose named layers must account for the traced
/// run's wall time up to `unattributed_s`.
int Run(const WorkloadSpec& spec, const Args& args) {
  Report report;
  Gates gates;
  const double wall_start = Now();
  const int draws = Draws(spec, args.trace ? args.seconds / 2 : args.seconds);
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> p;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    p.reset();
    const double start = Now();
    Result<std::unique_ptr<Pipeline>> built =
        BuildPipeline(spec, args.seed, draws);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    setup_s.push_back(Now() - start);
    p = std::move(built).value();
  }
  report.Set("setup_s", Median(setup_s));
  std::fprintf(stderr, "  setup: %d draws, %zu jobs, %.3f s\n", draws,
               p->workload.jobs.size(), Median(setup_s));
  report.Set("trace.generate_s", p->generate_s);
  report.Set("trace.collect_s", p->collect_s);
  report.Set("trace.split_s", p->split_s);
  report.Set("trace.records", static_cast<double>(p->dataset.records.size()));

  Result<Measured> untraced = Status::OK();
  double untraced_s = 0.0;
  if (args.trace) {
    Report scratch;
    const double start = Now();
    untraced = MeasurePhase(spec, args, p.get(), false, true, &scratch,
                            &gates);
    untraced_s = Now() - start;
    if (!untraced.ok()) {
      std::fprintf(stderr, "untraced pass failed: %s\n",
                   untraced.status().ToString().c_str());
      return 2;
    }
  }
  Result<Measured> measured = MeasurePhase(spec, args, p.get(), args.trace,
                                           args.trace, &report, &gates);
  if (!measured.ok()) {
    std::fprintf(stderr, "measured phase failed: %s\n",
                 measured.status().ToString().c_str());
    return 2;
  }
  const double start = Now();
  Result<double> wmape = TestWmape(*p);
  if (args.trace) report.Set("model.embed_us", EmbedProbeUs(*p));
  report.Add("model.infer_s", Now() - start);
  gates.Require(wmape.ok() && std::isfinite(wmape.value()) &&
                    wmape.value() > 0.0,
                "model_wmape is not finite");
  if (wmape.ok()) report.Set("model_wmape", wmape.value());
  report.Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    gates.Require(measured->checksum == untraced->checksum,
                  "traced and untraced runs decided differently");
    if (spec.serve) {
      report.Set("optimizer.decide_s", report.Get("optimizer.solve_s"));
    }
    // Traced run = set-up + traced phase + scoring. Each step that calls
    // into a layer is attributed; what is left is the remainder.
    const double traced_wall = Now() - wall_start - untraced_s;
    const double attributed =
        report.Get("trace.generate_s") + report.Get("trace.collect_s") +
        report.Get("trace.split_s") + report.Get("model.train_total_s") +
        report.Get("model.infer_s") + report.Get("sim.baseline_replay_s") +
        report.Get("sim.check_replay_s") +
        (spec.serve ? report.Get("service.serve_s")
                    : report.Get("sim.replay_s"));
    report.Set("traced_wall_s", traced_wall);
    report.Set("unattributed_s", traced_wall - attributed);
    report.Set("tracing_overhead_frac",
               Ratio(measured->wall_s - untraced->wall_s, untraced->wall_s));
  }
  report.Emit(spec, args.trace, gates, measured->attempted, measured->failed);
  return gates.ok() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace fgro

int main(int argc, char** argv) {
  using namespace fgro;
  SetLogLevel(LogLevel::kWarning);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1>\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) return Run(spec, args);
  }
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
