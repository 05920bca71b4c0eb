#include "optimizer/ipa.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "optimizer/sharding.h"

namespace fgro {

namespace {

/// Rows per EmbedBatch call in EmbeddingTable::Embed: large enough to fill
/// the 16-row GEMM panels with a few plan graphs' nodes, small enough that a
/// wide stage still fans across the worker pool.
constexpr int kEmbedChunk = 32;

/// Rows per PredictBatch call in PredictQueries: PredictBatch's own
/// feature-assembly chunk, a multiple of the 16-row GEMM panel.
constexpr int kPredictChunk = 256;

}  // namespace

bool EmbeddingTable::Embed(const SchedulingContext& context,
                           const std::vector<int>& instance_ids) {
  if (stage_ == nullptr) {
    stage_ = context.stage;
    entries_.resize(static_cast<size_t>(stage_->instance_count()));
    filled_.assign(entries_.size(), 0);
  }
  FGRO_CHECK(context.stage == stage_) << "one table per stage view";
  std::vector<int> missing;
  for (int id : instance_ids) {
    if (!filled_.at(static_cast<size_t>(id))) missing.push_back(id);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  const int m = static_cast<int>(missing.size());
  // Each chunk's entries are written by exactly one body and read only
  // after the fan completes.
  const int chunks = (m + kEmbedChunk - 1) / kEmbedChunk;
  std::atomic<bool> failed{false};
  ParallelFor(context.worker_pool, chunks, [&](int chunk) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (context.deadline.expired()) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    const int begin = chunk * kEmbedChunk;
    const int end = std::min(m, begin + kEmbedChunk);
    Result<std::vector<LatencyModel::EmbeddedInstance>> batch =
        context.model->EmbedBatch(
            *stage_, std::vector<int>(missing.begin() + begin,
                                      missing.begin() + end));
    if (!batch.ok()) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    for (int k = begin; k < end; ++k) {
      const size_t id = static_cast<size_t>(missing[static_cast<size_t>(k)]);
      entries_[id] = std::move(batch.value()[static_cast<size_t>(k - begin)]);
      filled_[id] = 1;
    }
  });
  return !failed.load();
}

const LatencyModel::EmbeddedInstance& EmbeddingTable::at(int instance) const {
  FGRO_CHECK(filled_.at(static_cast<size_t>(instance)))
      << "instance " << instance << " was never embedded";
  return entries_[static_cast<size_t>(instance)];
}

bool PredictQueries(const SchedulingContext& context,
                    const std::vector<LatencyModel::PredictionQuery>& queries,
                    std::vector<double>* out) {
  const int n = static_cast<int>(queries.size());
  out->resize(static_cast<size_t>(n));
  const int chunks = (n + kPredictChunk - 1) / kPredictChunk;
  // One lane per thread that can take part (the pool's workers plus the
  // caller), each reusing one scratch over the chunks it strides through.
  // Each chunk's rows are written by exactly one lane.
  const int lanes =
      context.worker_pool == nullptr
          ? 1
          : std::max(1, std::min(chunks, context.worker_pool->size() + 1));
  std::atomic<bool> expired{false};
  ParallelFor(context.worker_pool, lanes, [&](int lane) {
    LatencyModel::BatchScratch scratch;
    for (int chunk = lane; chunk < chunks; chunk += lanes) {
      if (expired.load(std::memory_order_relaxed)) return;
      if (context.deadline.expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      const int begin = chunk * kPredictChunk;
      const int count = std::min(kPredictChunk, n - begin);
      context.model->PredictBatch(
          std::span<const LatencyModel::PredictionQuery>(queries).subspan(
              static_cast<size_t>(begin), static_cast<size_t>(count)),
          out->data() + begin, &scratch, context.memo);
    }
  });
  return !expired.load();
}

bool BuildBplMatrix(const SchedulingContext& context,
                    const std::vector<int>& instance_rows,
                    const std::vector<int>& machine_cols,
                    EmbeddingTable* embeddings,
                    std::vector<std::vector<double>>* L) {
  const Cluster& cluster = *context.cluster;
  const int m = static_cast<int>(instance_rows.size());
  const int n = static_cast<int>(machine_cols.size());
  L->assign(static_cast<size_t>(m),
            std::vector<double>(static_cast<size_t>(n)));

  // Embed every row first: the plan-graph pass is the per-row cost.
  if (!embeddings->Embed(context, instance_rows)) return false;

  // The whole matrix as one flat batch.
  std::vector<LatencyModel::PredictionQuery> queries;
  queries.reserve(static_cast<size_t>(m) * static_cast<size_t>(n));
  for (int i = 0; i < m; ++i) {
    const LatencyModel::EmbeddedInstance* embedded =
        &embeddings->at(instance_rows[static_cast<size_t>(i)]);
    for (int j = 0; j < n; ++j) {
      const Machine& machine =
          cluster.machine(machine_cols[static_cast<size_t>(j)]);
      queries.push_back(LatencyModel::PredictionQuery{
          embedded,
          {context.theta0, machine.state(), machine.hardware().id}});
    }
  }
  std::vector<double> out;
  if (!PredictQueries(context, queries, &out)) return false;
  for (int i = 0; i < m; ++i) {
    std::copy(out.begin() + static_cast<long>(i) * n,
              out.begin() + static_cast<long>(i + 1) * n,
              (*L)[static_cast<size_t>(i)].begin());
  }
  return true;
}

std::vector<int> IpaGreedyMatch(const std::vector<std::vector<double>>& L,
                                std::vector<int> capacity) {
  const int m = static_cast<int>(L.size());
  const int n = m > 0 ? static_cast<int>(L[0].size()) : 0;
  std::vector<int> assignment(static_cast<size_t>(m), -1);
  if (m == 0) return assignment;

  long total_capacity = 0;
  for (int c : capacity) total_capacity += c;
  if (total_capacity < m) return {};  // no feasible solution

  std::vector<bool> machine_active(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    machine_active[static_cast<size_t>(j)] =
        capacity[static_cast<size_t>(j)] > 0;
  }

  // Per-instance BPL and the machine achieving it.
  std::vector<double> bpl(static_cast<size_t>(m));
  std::vector<int> bpl_machine(static_cast<size_t>(m), -1);
  std::vector<bool> placed(static_cast<size_t>(m), false);
  auto recompute = [&](int i) {
    double best = std::numeric_limits<double>::infinity();
    int best_j = -1;
    const std::vector<double>& row = L[static_cast<size_t>(i)];
    for (int j = 0; j < n; ++j) {
      if (machine_active[static_cast<size_t>(j)] &&
          row[static_cast<size_t>(j)] < best) {
        best = row[static_cast<size_t>(j)];
        best_j = j;
      }
    }
    bpl[static_cast<size_t>(i)] = best;
    bpl_machine[static_cast<size_t>(i)] = best_j;
  };
  for (int i = 0; i < m; ++i) recompute(i);

  for (int placed_count = 0; placed_count < m; ++placed_count) {
    // Instance with the largest BPL goes first.
    int i_t = -1;
    double max_bpl = -1.0;
    for (int i = 0; i < m; ++i) {
      if (!placed[static_cast<size_t>(i)] &&
          bpl[static_cast<size_t>(i)] > max_bpl) {
        max_bpl = bpl[static_cast<size_t>(i)];
        i_t = i;
      }
    }
    FGRO_CHECK(i_t >= 0);
    int j_t = bpl_machine[static_cast<size_t>(i_t)];
    if (j_t < 0) return {};  // all machines exhausted with instances left
    assignment[static_cast<size_t>(i_t)] = j_t;
    placed[static_cast<size_t>(i_t)] = true;
    if (--capacity[static_cast<size_t>(j_t)] == 0) {
      machine_active[static_cast<size_t>(j_t)] = false;
      // Only instances whose BPL pointed at j_t need recomputation.
      for (int i = 0; i < m; ++i) {
        if (!placed[static_cast<size_t>(i)] &&
            bpl_machine[static_cast<size_t>(i)] == j_t) {
          recompute(i);
        }
      }
    }
  }
  return assignment;
}

double ColumnOrderViolationRate(const std::vector<std::vector<double>>& L,
                                int max_samples, uint64_t seed) {
  const int m = static_cast<int>(L.size());
  const int n = m > 0 ? static_cast<int>(L[0].size()) : 0;
  if (m < 2 || n < 2) return 0.0;
  Rng rng(seed);
  int violations = 0, samples = 0;
  for (int s = 0; s < max_samples; ++s) {
    int i1 = static_cast<int>(rng.UniformInt(0, m - 1));
    int i2 = static_cast<int>(rng.UniformInt(0, m - 1));
    if (i1 == i2) continue;
    int j = static_cast<int>(rng.UniformInt(1, n - 1));
    double ref = L[static_cast<size_t>(i1)][0] - L[static_cast<size_t>(i2)][0];
    double other = L[static_cast<size_t>(i1)][static_cast<size_t>(j)] -
                   L[static_cast<size_t>(i2)][static_cast<size_t>(j)];
    ++samples;
    if (ref * other < 0.0) ++violations;
  }
  return samples > 0 ? static_cast<double>(violations) / samples : 0.0;
}

StageDecision IpaSchedule(const SchedulingContext& context,
                          EmbeddingTable* embeddings) {
  Stopwatch timer;
  EmbeddingTable local;
  StageDecision decision;
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  FGRO_CHECK(context.model != nullptr) << "IPA requires the latency model";
  const int m = stage.instance_count();

  std::vector<int> candidates = CandidateMachines(context);
  if (candidates.empty()) return decision;
  const int n = static_cast<int>(candidates.size());
  const int alpha = ResolveAlpha(context.alpha, m, n);

  std::vector<int> capacity(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    capacity[static_cast<size_t>(j)] = InstanceCapacity(
        cluster.machine(candidates[static_cast<size_t>(j)]), context.theta0,
        alpha);
  }

  // Latency matrix: one plan embedding per instance, then a predictor sweep
  // over the candidate machines (batched into one PredictBatch).
  std::vector<int> instance_rows(static_cast<size_t>(m));
  std::iota(instance_rows.begin(), instance_rows.end(), 0);
  std::vector<std::vector<double>> L;
  if (!BuildBplMatrix(context, instance_rows, candidates,
                      embeddings != nullptr ? embeddings : &local, &L)) {
    decision.solve_seconds = timer.ElapsedSeconds();
    return decision;
  }

  if (context.deadline.expired()) {
    decision.solve_seconds = timer.ElapsedSeconds();
    return decision;
  }
  std::vector<int> assignment = IpaGreedyMatch(L, std::move(capacity));
  if (assignment.empty() && m > 0) return decision;

  decision.machine_of_instance.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    decision.machine_of_instance[static_cast<size_t>(i)] =
        candidates[static_cast<size_t>(assignment[static_cast<size_t>(i)])];
  }
  decision.theta_of_instance.assign(static_cast<size_t>(m), context.theta0);
  decision.feasible = true;
  decision.solve_seconds = timer.ElapsedSeconds();
  return decision;
}

}  // namespace fgro
