// Microbenchmarks (google-benchmark) backing the complexity claims of
// Section 5: IPA's greedy matching, clustered IPA's reduced problem,
// RAA-Path's O(m p log(m p)) walk vs the O((m p)^2) general algorithm,
// 1-D KDE clustering vs O(n^2) DBSCAN. These are the solve-time mechanics
// behind Table 2's timing columns.
//
// In addition to the microbenchmarks, `--breakdown_out=PATH` replays a
// smoke-scale workload with the observability layer attached and writes the
// per-phase timing rollup (IPA / RAA / WUN / Predict) as JSON — the
// end-to-end counterpart of the per-kernel numbers above. `--breakdown_only`
// skips the microbenchmarks (what CI uses to produce the artifact).
//
// `--json_out=PATH` runs the batched-inference throughput comparison: the
// same prediction sweep through the scalar PredictFromEmbedding loop and
// through one PredictBatch GEMM call (plus a memoized pass reporting the
// PredictionMemo hit rate), reporting predictions/sec for both phases, the
// speedup, and a checksum delta that must be exactly 0.0 (the two paths are
// bit-identical by construction). `--inference_only` skips the
// microbenchmarks after it.
//
// `--frontier_sweep` runs the frontier-compression acceptance sweep
// (DESIGN.md §16): end-to-end IPA+RAA stage solves per-instance
// (RAA(W/O_C), compression off — the quality oracle) vs per-cluster
// (RAA(Fast_MCI) + FrontierCache) at stage widths x1 and x10, over
// repeated rounds so warm templates amortize the way recurring production
// stages do. Its exit code gates the >=10x amortized floor at width x10,
// the WUN-quality bound vs the oracle, decision-checksum stability across
// rounds (cold cache == warm cache), and byte-identical RoSummary across
// service_threads {1,2,8} with compression on. When combined with
// --json_out, both sections land in one JSON document.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/dbscan.h"
#include "clustering/kde1d.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "hbo/hbo.h"
#include "nn/mlp.h"
#include "obs/snapshot.h"
#include "optimizer/frontier_cache.h"
#include "optimizer/ipa.h"
#include "optimizer/raa_general.h"
#include "optimizer/raa_path.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"
#include "trace/workload_gen.h"

namespace fgro {
namespace {

void BM_IpaGreedyMatch(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Rng rng(7);
  std::vector<double> inst(static_cast<size_t>(m)), mach(static_cast<size_t>(n));
  for (double& v : inst) v = rng.Pareto(1.0, 1.3);
  for (double& v : mach) v = rng.Uniform(0.5, 2.0);
  std::vector<std::vector<double>> L(static_cast<size_t>(m),
                                     std::vector<double>(static_cast<size_t>(n)));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      L[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          inst[static_cast<size_t>(i)] * mach[static_cast<size_t>(j)];
    }
  }
  std::vector<int> capacity(static_cast<size_t>(n), (m + n - 1) / n + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IpaGreedyMatch(L, capacity));
  }
  state.SetComplexityN(static_cast<int64_t>(m));
}
BENCHMARK(BM_IpaGreedyMatch)
    ->Args({64, 64})
    ->Args({256, 128})
    ->Args({1024, 128})
    ->Args({4096, 256})
    ->Unit(benchmark::kMillisecond);

std::vector<std::vector<InstanceParetoPoint>> RandomParetoSets(int m, int p,
                                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<InstanceParetoPoint>> sets(static_cast<size_t>(m));
  for (auto& set : sets) {
    double lat = rng.Uniform(100, 500), cost = rng.Uniform(1, 3);
    for (int j = 0; j < p; ++j) {
      set.push_back({{}, lat, cost});
      lat *= rng.Uniform(0.5, 0.9);
      cost *= rng.Uniform(1.2, 2.0);
    }
  }
  return sets;
}

void BM_RaaPath(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  auto sets = RandomParetoSets(m, p, 11);
  std::vector<double> mult(static_cast<size_t>(m), 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RaaPath(sets, mult));
  }
  state.SetComplexityN(static_cast<int64_t>(m) * p);
}
BENCHMARK(BM_RaaPath)
    ->Args({16, 6})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_RaaGeneral(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  auto sets = RandomParetoSets(m, p, 13);
  std::vector<std::vector<std::vector<double>>> solutions(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    for (const InstanceParetoPoint& point : sets[i]) {
      solutions[i].push_back({point.latency, point.cost});
    }
  }
  std::vector<double> mult(static_cast<size_t>(m), 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GeneralHierarchicalMoo(solutions, {true, false}, mult));
  }
}
BENCHMARK(BM_RaaGeneral)
    ->Args({16, 6})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_Kde1dCluster(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(17);
  std::vector<double> values(static_cast<size_t>(n));
  for (double& v : values) v = rng.LogNormal(10.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Kde1dCluster(values));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Kde1dCluster)->Arg(256)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

void BM_Dbscan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(19);
  std::vector<std::vector<double>> points(static_cast<size_t>(n));
  for (auto& p : points) p = {rng.Normal(0, 1), rng.Normal(0, 1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(points, {.eps = 0.2, .min_pts = 4}));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Dbscan)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_MlpForwardRowByRow(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(23);
  Mlp mlp({46, 48, 48, 1}, &rng);  // the latency predictor head's shape
  Mat x;
  x.Resize(batch, 46);
  for (double& v : x.data) v = rng.Normal();
  MlpVecScratch scratch;
  Vec row(46), out;
  for (auto _ : state) {
    double sum = 0.0;
    for (int r = 0; r < x.rows; ++r) {
      std::memcpy(row.data(), x.Row(r), sizeof(double) * 46);
      mlp.ForwardInto(row, &out, &scratch);
      sum += out[0];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForwardRowByRow)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_MlpForwardBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(23);
  Mlp mlp({46, 48, 48, 1}, &rng);
  Mat x;
  x.Resize(batch, 46);
  for (double& v : x.data) v = rng.Normal();
  MlpScratch scratch;
  for (auto _ : state) {
    const Mat& y = mlp.ForwardBatch(x, &scratch);
    double sum = 0.0;
    for (int r = 0; r < y.rows; ++r) sum += y.Row(r)[0];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForwardBatch)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

/// Replays a smoke-scale workload with metrics wired through every layer
/// (optimizer spans/histograms, per-hardware-type model predict timing) and
/// emits the per-phase rollup. Returns nonzero on replay failure.
int RunBreakdown(const std::string& out_path) {
  SetLogLevel(LogLevel::kWarning);
  bench::PrintHeader("Per-phase solve-time breakdown (smoke-scale replay)");

  ExperimentEnv::Options options =
      bench::DefaultOptions(WorkloadId::kA, bench::BenchScale::kSmoke);
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  FGRO_CHECK_OK(env.status());

  obs::MetricsRegistry registry;
  obs::Obs obs;
  obs.metrics = &registry;
  (*env)->mutable_model()->set_obs(obs);

  SimOptions sim_options;
  sim_options.outcome = OutcomeMode::kEnvironment;
  sim_options.obs = obs;
  StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
  Result<SimResult> result = sim.Run(
      [&](const SchedulingContext& context) {
        return optimizer.Optimize(context);
      });
  FGRO_CHECK_OK(result.status());
  (*env)->mutable_model()->set_obs(obs::Obs{});  // unwire before env dies

  const std::string json = obs::PhaseBreakdownJson(registry);
  std::printf("%s\n", json.c_str());
  if (!out_path.empty()) {
    FGRO_CHECK_OK(obs::WriteJsonFile(json, out_path));
    std::printf("  wrote %s\n", out_path.c_str());
  }
  return 0;
}

/// Scalar-vs-batched prediction throughput on the optimizer's hot query
/// shape: one embedded instance swept over a candidate grid, exactly what
/// IPA's machine sweep and RAA's configuration sweep issue. The model is
/// untrained (Xavier init) — throughput does not depend on the weights.
/// Fills *json_section with the result object and returns nonzero on
/// failure or if the two paths disagree on any output bit.
int RunInferenceBench(std::string* json_section) {
  SetLogLevel(LogLevel::kWarning);
  bench::PrintHeader("Batched-inference throughput (scalar vs PredictBatch)");

  ExperimentEnv::Options options =
      bench::DefaultOptions(WorkloadId::kA, bench::BenchScale::kSmoke);
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  FGRO_CHECK_OK(env.status());
  const LatencyModel& model = (*env)->model();
  const Stage& stage = (*env)->workload().jobs[0].stages[0];
  Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
  FGRO_CHECK_OK(embedded.status());

  constexpr int kCandidates = 2048;
  constexpr int kRepeats = 50;
  Rng rng(29);
  std::vector<LatencyModel::PredictionCandidate> candidates;
  candidates.reserve(kCandidates);
  for (int i = 0; i < kCandidates; ++i) {
    LatencyModel::PredictionCandidate c;
    c.theta.cores = 0.5 * static_cast<double>(rng.UniformInt(1, 16));
    c.theta.memory_gb = static_cast<double>(rng.UniformInt(1, 64));
    c.state.cpu_util = rng.Uniform();
    c.state.mem_util = rng.Uniform();
    c.state.io_util = rng.Uniform();
    c.hardware_type = static_cast<int>(rng.UniformInt(0, 4));
    candidates.push_back(c);
  }
  const double total = static_cast<double>(kCandidates) * kRepeats;

  double scalar_sum = 0.0;
  Stopwatch scalar_timer;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const LatencyModel::PredictionCandidate& c : candidates) {
      scalar_sum += model.PredictFromEmbedding(embedded.value(), c.theta,
                                               c.state, c.hardware_type);
    }
  }
  const double scalar_seconds = scalar_timer.ElapsedSeconds();

  LatencyModel::BatchScratch scratch;
  std::vector<double> out(kCandidates);
  double batched_sum = 0.0;
  // Warm the scratch outside the timed region so the steady-state
  // (allocation-free) throughput is what gets reported.
  model.PredictBatch(embedded.value(), candidates, out.data(), &scratch);
  Stopwatch batched_timer;
  for (int rep = 0; rep < kRepeats; ++rep) {
    model.PredictBatch(embedded.value(), candidates, out.data(), &scratch);
    for (double v : out) batched_sum += v;
  }
  const double batched_seconds = batched_timer.ElapsedSeconds();

  // Memoized pass: same sweep through a PredictionMemo (cold round inserts,
  // warm rounds hit), reporting the hit rate the obs gauge
  // (model.memo.hit_ratio) would show. Hits must be bit-identical to the
  // batched values, so the checksum accumulates the same way.
  PredictionMemo memo;
  double memoized_sum = 0.0;
  Stopwatch memo_timer;
  for (int rep = 0; rep < kRepeats; ++rep) {
    model.PredictBatch(embedded.value(), candidates, out.data(), &scratch,
                       &memo);
    for (double v : out) memoized_sum += v;
  }
  const double memo_seconds = memo_timer.ElapsedSeconds();
  const double memo_total =
      static_cast<double>(memo.hits() + memo.misses());
  const double memo_hit_rate =
      memo_total > 0.0 ? static_cast<double>(memo.hits()) / memo_total : 0.0;

  const double scalar_rate = total / scalar_seconds;
  const double batched_rate = total / batched_seconds;
  const double speedup = scalar_seconds / batched_seconds;
  const double checksum_delta = batched_sum - scalar_sum;
  const double memo_checksum_delta = memoized_sum - batched_sum;

  char json[1536];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"predictions_per_phase\": %.0f,\n"
                "  \"scalar\": {\"seconds\": %.6f, "
                "\"predictions_per_sec\": %.0f},\n"
                "  \"batched\": {\"seconds\": %.6f, "
                "\"predictions_per_sec\": %.0f},\n"
                "  \"memoized\": {\"seconds\": %.6f, "
                "\"predictions_per_sec\": %.0f, \"hits\": %llu, "
                "\"misses\": %llu, \"hit_rate\": %.4f},\n"
                "  \"speedup\": %.3f,\n"
                "  \"checksum_delta\": %.17g,\n"
                "  \"memo_checksum_delta\": %.17g\n"
                "}",
                total, scalar_seconds, scalar_rate, batched_seconds,
                batched_rate, memo_seconds, total / memo_seconds,
                static_cast<unsigned long long>(memo.hits()),
                static_cast<unsigned long long>(memo.misses()),
                memo_hit_rate, speedup, checksum_delta, memo_checksum_delta);
  std::printf("%s\n", json);
  *json_section = json;
  if (checksum_delta != 0.0 || memo_checksum_delta != 0.0) {
    std::fprintf(stderr, "FAIL: batched/memoized path is not bit-identical\n");
    return 1;
  }
  return 0;
}

/// Model-predicted WUN ingredients of a decision: stage latency (max over
/// instances) and monetary cost (sum of predicted seconds * rate(theta)),
/// evaluated per instance with its OWN embedding — the compressed solve is
/// judged against the per-instance oracle on the model's own terms.
void PredictedLatencyCost(const SchedulingContext& context,
                          const StageDecision& decision, double* latency,
                          double* cost) {
  const LatencyModel& model = *context.model;
  const Cluster& cluster = *context.cluster;
  *latency = 0.0;
  *cost = 0.0;
  for (int i = 0; i < context.stage->instance_count(); ++i) {
    Result<LatencyModel::EmbeddedInstance> embedded =
        model.Embed(*context.stage, i);
    FGRO_CHECK_OK(embedded.status());
    const Machine& machine =
        cluster.machine(decision.machine_of_instance[static_cast<size_t>(i)]);
    const ResourceConfig& theta =
        decision.theta_of_instance[static_cast<size_t>(i)];
    const double p = model.PredictFromEmbedding(
        embedded.value(), theta, machine.state(), machine.hardware().id);
    *latency = std::max(*latency, p);
    *cost += p * context.cost_weights.Rate(theta);
  }
}

uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DecisionChecksum(const StageDecision& decision) {
  uint64_t h = MixBits(decision.machine_of_instance.size());
  for (int machine : decision.machine_of_instance) {
    h = MixBits(h ^ static_cast<uint64_t>(static_cast<uint32_t>(machine)));
  }
  for (const ResourceConfig& theta : decision.theta_of_instance) {
    uint64_t bits = 0;
    std::memcpy(&bits, &theta.cores, sizeof(bits));
    h = MixBits(h ^ bits);
    std::memcpy(&bits, &theta.memory_gb, sizeof(bits));
    h = MixBits(h ^ bits);
  }
  return h;
}

/// Frontier-compression acceptance sweep: per-instance oracle vs compressed
/// per-cluster solves over repeated rounds at widths x1 / x10. See the file
/// header for the gates. Fills *json_section; returns nonzero on gate fail.
int RunFrontierSweep(bool quick, std::string* json_section) {
  SetLogLevel(LogLevel::kWarning);
  bench::PrintHeader(
      "Frontier compression: per-cluster templates vs the per-instance "
      "oracle");

  ExperimentEnv::Options options =
      bench::DefaultOptions(WorkloadId::kA, bench::BenchScale::kSmoke);
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  FGRO_CHECK_OK(env.status());

  const int fleet = quick ? 256 : 1280;
  const int want_stages = quick ? 1 : 2;
  const int min_instances = quick ? 48 : 96;
  const int rounds = quick ? 3 : 5;
  const std::vector<double> widths = {1.0, 10.0};

  // Arm A: the per-instance oracle — RAA(W/O_C), compression off (the
  // bit-identical legacy path). Arm B: RAA(Fast_MCI) + frontier
  // compression. Same clustered-IPA placement on both arms, so the delta
  // is purely the RAA frontier bill. No PredictionMemo on either arm:
  // memoization (PR 5) is orthogonal and would blur the attribution.
  StageOptimizer oracle_so(StageOptimizer::IpaRaaWithoutClustering());
  StageOptimizer compressed_so(StageOptimizer::IpaRaaPath());
  Hbo hbo;

  struct WidthRow {
    double width = 1.0;
    int instances = 0;
    double oracle_cold = 0.0, oracle_total = 0.0;
    double compressed_cold = 0.0, compressed_total = 0.0;
    double cold_speedup = 0.0, amortized_speedup = 0.0;
    double wun_quality = 1.0;
    bool checksums_stable = true;
  };
  std::vector<WidthRow> table;
  FrontierCache cache;

  for (double width : widths) {
    WidthRow row;
    row.width = width;
    WorkloadProfile profile = GetWorkloadProfile(WorkloadId::kA, 0.05, width);
    Result<Workload> workload = WorkloadGenerator(profile).Generate();
    FGRO_CHECK_OK(workload.status());
    Cluster cluster(ClusterOptions{.num_machines = fleet, .seed = 17});
    auto solve = [&](const StageOptimizer& so, const Stage* stage,
                     bool compression, StageDecision* decision) {
      SchedulingContext context;
      context.stage = stage;
      context.cluster = &cluster;
      context.model = &(*env)->model();
      context.theta0 = hbo.Recommend(*stage).theta0;
      context.frontier_compression = compression;
      context.frontier_cache = compression ? &cache : nullptr;
      context.worker_pool = nullptr;  // serial: measure algorithmic work
      *decision = so.Optimize(context);
      return context;
    };

    // The widest stages this fleet can actually place (the production shape
    // frontier compression targets): probe widest-first with the cheap
    // compressed solve, then clear the warm-up templates so round 0 of the
    // timed sweep really is cold.
    std::vector<const Stage*> candidates;
    for (const Job& job : workload->jobs) {
      for (const Stage& stage : job.stages) {
        if (stage.instance_count() >= min_instances) {
          candidates.push_back(&stage);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Stage* a, const Stage* b) {
                return a->instance_count() != b->instance_count()
                           ? a->instance_count() > b->instance_count()
                           : a->id < b->id;
              });
    std::vector<const Stage*> stages;
    for (const Stage* stage : candidates) {
      if (static_cast<int>(stages.size()) == want_stages) break;
      StageDecision probe;
      solve(compressed_so, stage, /*compression=*/true, &probe);
      if (probe.feasible) stages.push_back(stage);
    }
    FGRO_CHECK(static_cast<int>(stages.size()) == want_stages)
        << "no placeable wide stages at width x" << width;
    cache.Clear();
    for (const Stage* stage : stages) row.instances += stage->instance_count();

    double quality_sum = 0.0;
    int quality_n = 0;
    for (const Stage* stage : stages) {
      std::vector<uint64_t> oracle_sums, compressed_sums;
      double oracle_latency = 0.0, oracle_cost = 0.0;
      for (int r = 0; r < rounds; ++r) {
        StageDecision decision;
        SchedulingContext context =
            solve(oracle_so, stage, /*compression=*/false, &decision);
        FGRO_CHECK(decision.feasible);
        row.oracle_total += decision.solve_seconds;
        if (r == 0) {
          row.oracle_cold += decision.solve_seconds;
          PredictedLatencyCost(context, decision, &oracle_latency,
                               &oracle_cost);
        }
        oracle_sums.push_back(DecisionChecksum(decision));
      }
      for (int r = 0; r < rounds; ++r) {
        StageDecision decision;
        SchedulingContext context =
            solve(compressed_so, stage, /*compression=*/true, &decision);
        FGRO_CHECK(decision.feasible);
        row.compressed_total += decision.solve_seconds;
        if (r == 0) {
          row.compressed_cold += decision.solve_seconds;
          double latency = 0.0, cost = 0.0;
          PredictedLatencyCost(context, decision, &latency, &cost);
          quality_sum += (3.0 * (latency / oracle_latency) +
                          1.0 * (cost / oracle_cost)) /
                         4.0;
          quality_n++;
        }
        compressed_sums.push_back(DecisionChecksum(decision));
      }
      // Stationary machine state: every round must reproduce round 0 on
      // both arms — in particular the compressed arm's warm-cache rounds
      // must equal its cold-cache round bit-for-bit.
      for (int r = 1; r < rounds; ++r) {
        row.checksums_stable = row.checksums_stable &&
                               oracle_sums[static_cast<size_t>(r)] ==
                                   oracle_sums[0] &&
                               compressed_sums[static_cast<size_t>(r)] ==
                                   compressed_sums[0];
      }
    }
    row.wun_quality = quality_sum / static_cast<double>(quality_n);
    row.cold_speedup = row.oracle_cold / row.compressed_cold;
    row.amortized_speedup = row.oracle_total / row.compressed_total;
    std::printf(
        "  width x%-3.0f m=%4d  oracle %7.3fs (cold %6.3fs)  "
        "compressed %7.3fs (cold %6.3fs)  speedup %5.1fx (cold %4.1fx)  "
        "WUN=%6.4f  stable=%s\n",
        row.width, row.instances, row.oracle_total, row.oracle_cold,
        row.compressed_total, row.compressed_cold, row.amortized_speedup,
        row.cold_speedup, row.wun_quality,
        row.checksums_stable ? "yes" : "NO");
    table.push_back(row);
  }

  const double frontier_queries =
      static_cast<double>(cache.hits() + cache.misses());
  const double frontier_hit_rate =
      frontier_queries > 0.0
          ? static_cast<double>(cache.hits()) / frontier_queries
          : 0.0;
  std::printf(
      "  frontier cache: %llu hits, %llu misses (%.0f%% hit rate), "
      "%llu builds\n",
      static_cast<unsigned long long>(cache.hits()),
      static_cast<unsigned long long>(cache.misses()), frontier_hit_rate * 100,
      static_cast<unsigned long long>(cache.inserts()));

  // Determinism: a compressed replay through the RO service must not depend
  // on the worker count, with the frontier cache shared across jobs and
  // runs (so later thread counts run warm — purity of the cached templates
  // is exactly what is under test).
  bool identical = true;
  {
    FrontierCache service_cache;
    std::vector<RoSummary> by_threads;
    for (int threads : {1, 2, 8}) {
      SimOptions sim_options;
      sim_options.seed = 11;
      sim_options.cluster.num_machines = quick ? 64 : 96;
      sim_options.service_threads = threads;
      sim_options.frontier_compression = true;
      sim_options.frontier_cache = &service_cache;
      Result<SimResult> result =
          ServeWorkload((*env)->workload(), &(*env)->model(), sim_options,
                        StageOptimizer::IpaRaaPathWithFallback());
      FGRO_CHECK_OK(result.status());
      by_threads.push_back(Summarize(result.value()));
    }
    for (size_t i = 1; i < by_threads.size(); ++i) {
      identical = identical &&
                  by_threads[i].coverage == by_threads[0].coverage &&
                  by_threads[i].avg_latency == by_threads[0].avg_latency &&
                  by_threads[i].avg_cost == by_threads[0].avg_cost &&
                  by_threads[i].goodput == by_threads[0].goodput &&
                  by_threads[i].fallback_histogram ==
                      by_threads[0].fallback_histogram;
    }
    std::printf(
        "  compressed replay, service_threads {1,2,8} byte-identical: %s\n",
        identical ? "yes" : "NO - DETERMINISM REGRESSION");
  }

  std::string json = "{\"rounds\":" + std::to_string(rounds) + ",\"rows\":[";
  for (size_t i = 0; i < table.size(); ++i) {
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"width\":%.0f,\"instances\":%d,"
        "\"oracle_seconds\":%.6f,\"oracle_cold_seconds\":%.6f,"
        "\"compressed_seconds\":%.6f,\"compressed_cold_seconds\":%.6f,"
        "\"amortized_speedup\":%.3f,\"cold_speedup\":%.3f,"
        "\"wun_quality\":%.6f,\"checksums_stable\":%s}",
        i > 0 ? "," : "", table[i].width, table[i].instances,
        table[i].oracle_total, table[i].oracle_cold,
        table[i].compressed_total, table[i].compressed_cold,
        table[i].amortized_speedup, table[i].cold_speedup,
        table[i].wun_quality, table[i].checksums_stable ? "true" : "false");
    json += buf;
  }
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "],\"frontier_cache\":{\"hits\":%llu,\"misses\":%llu,"
                "\"hit_rate\":%.4f,\"builds\":%llu},"
                "\"threads_identical\":%s}",
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()),
                frontier_hit_rate,
                static_cast<unsigned long long>(cache.inserts()),
                identical ? "true" : "false");
  json += tail;
  *json_section = json;

  // Acceptance gates (ISSUE 10): >=10x end-to-end at width x10 with
  // compression on (amortized over the recurring-stage rounds), WUN quality
  // within 5% of the per-instance oracle at every width, checksum-stable
  // decisions, thread-count identity.
  bool ok = identical;
  for (const WidthRow& row : table) {
    if (!row.checksums_stable) {
      std::printf("  GATE FAIL: width x%.0f decisions not checksum-stable\n",
                  row.width);
      ok = false;
    }
    if (row.wun_quality > 1.05) {
      std::printf("  GATE FAIL: width x%.0f WUN %.4f above 1.05\n", row.width,
                  row.wun_quality);
      ok = false;
    }
    if (row.width >= 10.0 && row.amortized_speedup < 10.0) {
      std::printf("  GATE FAIL: width x%.0f speedup %.2fx below 10x\n",
                  row.width, row.amortized_speedup);
      ok = false;
    }
  }
  std::printf("  %s\n",
              ok ? "PASS: >=10x at width x10, bounded quality, stable "
                   "decisions, thread-count independent"
                 : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fgro

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them.
  bool breakdown_only = false;
  bool inference_only = false;
  bool frontier_sweep = false;
  bool quick = false;
  std::string breakdown_out;
  std::string json_out;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--breakdown_only") == 0) {
      breakdown_only = true;
    } else if (std::strcmp(argv[i], "--inference_only") == 0) {
      inference_only = true;
    } else if (std::strcmp(argv[i], "--frontier_sweep") == 0) {
      frontier_sweep = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--breakdown_out=", 16) == 0) {
      breakdown_out = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  const bool want_inference = inference_only || !json_out.empty();
  if (want_inference || frontier_sweep) {
    // Run every requested section (even past a failure) so the JSON
    // artifact always carries whatever was measured; the exit code is the
    // OR of the section gates.
    std::string inference_json = "null";
    std::string frontier_json = "null";
    int rc = 0;
    if (want_inference) rc |= fgro::RunInferenceBench(&inference_json);
    if (frontier_sweep) rc |= fgro::RunFrontierSweep(quick, &frontier_json);
    if (!json_out.empty()) {
      const std::string combined = "{\n\"inference\": " + inference_json +
                                   ",\n\"frontier_sweep\": " + frontier_json +
                                   "\n}\n";
      FGRO_CHECK_OK(fgro::obs::WriteJsonFile(combined, json_out));
      std::printf("  wrote %s\n", json_out.c_str());
    }
    if (rc != 0 || inference_only || frontier_sweep) return rc;
  }

  if (breakdown_only || !breakdown_out.empty()) {
    const int rc = fgro::RunBreakdown(breakdown_out);
    if (rc != 0 || breakdown_only) return rc;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
