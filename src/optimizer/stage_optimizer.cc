#include "optimizer/stage_optimizer.h"

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "optimizer/fuxi.h"
#include "optimizer/ipa.h"
#include "optimizer/ipa_clustered.h"
#include "optimizer/sharding.h"

namespace fgro {

StageOptimizer::Config StageOptimizer::FuxiOnly() {
  return {Placement::kFuxi, false, {}};
}
StageOptimizer::Config StageOptimizer::IpaOrg() {
  return {Placement::kIpaOrg, false, {}};
}
StageOptimizer::Config StageOptimizer::IpaCluster() {
  return {Placement::kIpaClustered, false, {}};
}
StageOptimizer::Config StageOptimizer::IpaRaaWithoutClustering() {
  return {Placement::kIpaClustered, true,
          {RaaClustering::kNone, RaaAlgorithm::kPath}};
}
StageOptimizer::Config StageOptimizer::IpaRaaDbscan() {
  return {Placement::kIpaClustered, true,
          {RaaClustering::kDbscan, RaaAlgorithm::kPath}};
}
StageOptimizer::Config StageOptimizer::IpaRaaGeneral() {
  return {Placement::kIpaClustered, true,
          {RaaClustering::kFastMci, RaaAlgorithm::kGeneral}};
}
StageOptimizer::Config StageOptimizer::IpaRaaPath() {
  return {Placement::kIpaClustered, true,
          {RaaClustering::kFastMci, RaaAlgorithm::kPath}};
}
StageOptimizer::Config StageOptimizer::IpaRaaPathWithFallback() {
  Config config = IpaRaaPath();
  config.degrade_gracefully = true;
  return config;
}

std::string StageOptimizer::ConfigName(const Config& config) {
  std::string suffix = config.degrade_gracefully ? "+FB" : "";
  switch (config.placement) {
    case Placement::kFuxi:
      return "Fuxi" + suffix;
    case Placement::kIpaOrg:
      return (config.run_raa ? "IPA(Org)+RAA" : "IPA(Org)") + suffix;
    case Placement::kIpaClustered:
      break;
  }
  if (!config.run_raa) return "IPA(Cluster)" + suffix;
  std::string raa;
  switch (config.raa.clustering) {
    case RaaClustering::kNone: raa = "W/O_C"; break;
    case RaaClustering::kDbscan: raa = "DBSCAN"; break;
    case RaaClustering::kFastMci:
      raa = config.raa.algorithm == RaaAlgorithm::kPath ? "Path" : "General";
      break;
  }
  return "IPA+RAA(" + raa + ")" + suffix;
}

StageDecision StageOptimizer::Optimize(const SchedulingContext& context) const {
  obs::ScopedSpan decide_span(context.obs.tracer, "so.decide",
                              context.trace_parent);
  StageDecision decision;
  const std::vector<int>* subset = context.instance_subset;
  if (subset != nullptr && !subset->empty() && context.stage != nullptr &&
      static_cast<int>(subset->size()) < context.stage->instance_count()) {
    // Partial re-entry (reconfiguration): solve a reduced stage holding only
    // the requested instances. Row r of the decision maps to instance
    // (*subset)[r] of the original stage — the caller owns that mapping.
    // The prediction memo keys on instance index within the stage, which a
    // reduced view renumbers, so it must not see these queries. The frontier
    // cache stays (inherited through the copy): its keys are content-based
    // (cluster signature + instance_count), so a reduced view can only ever
    // hit templates that are exact for it — reconfig partial re-plans hit
    // warm frontiers when the subset preserves the full stage's width.
    Stage reduced = *context.stage;
    reduced.instances.clear();
    reduced.instances.reserve(subset->size());
    for (int idx : *subset) {
      reduced.instances.push_back(context.stage->instances[idx]);
    }
    SchedulingContext partial = context;
    partial.stage = &reduced;
    partial.instance_subset = nullptr;
    partial.memo = nullptr;
    decision = Dispatch(partial, decide_span.id());
  } else {
    decision = Dispatch(context, decide_span.id());
  }
  decision.epoch = context.epoch;
  decision.model_epoch = context.model_epoch;
  if (obs::MetricsRegistry* metrics = context.obs.metrics) {
    metrics->GetCounter("so.decisions")->Increment();
    metrics
        ->GetCounter(std::string("so.fallback.") +
                     FallbackLevelName(decision.fallback))
        ->Increment();
    metrics->GetLatencyHistogram("so.solve_seconds")
        ->Observe(decision.solve_seconds);
  }
  return decision;
}

StageDecision StageOptimizer::Dispatch(const SchedulingContext& context,
                                       int trace_parent) const {
  if (EffectiveShardCount(context) > 1) {
    return OptimizeSharded(context, trace_parent);
  }
  return OptimizeImpl(context, trace_parent);
}

StageDecision StageOptimizer::OptimizeSharded(const SchedulingContext& context,
                                              int trace_parent) const {
  Stopwatch wall;
  obs::ScopedSpan shard_span(context.obs.tracer, "so.sharded", trace_parent);
  const Stage& stage = *context.stage;
  const int k = EffectiveShardCount(context);

  ShardPlan plan = PlanForContext(context);

  // Per-shard stage views are built up front (sequentially); the solves fan
  // across the worker pool into per-shard slots and merge in shard order —
  // the same slot discipline as RAA's group fan, so the decision is
  // byte-identical at any thread count.
  std::vector<Stage> shard_stages(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) {
    const std::vector<int>& insts =
        plan.instances_of_shard[static_cast<size_t>(s)];
    Stage& view = shard_stages[static_cast<size_t>(s)];
    view = stage;
    view.instances.clear();
    view.instances.reserve(insts.size());
    for (int idx : insts) {
      view.instances.push_back(stage.instances[static_cast<size_t>(idx)]);
    }
  }
  std::vector<StageDecision> slots(static_cast<size_t>(k));
  ParallelFor(context.worker_pool, k, [&](int s) {
    if (plan.instances_of_shard[static_cast<size_t>(s)].empty()) {
      slots[static_cast<size_t>(s)].feasible = true;  // nothing to place
      return;
    }
    SchedulingContext sub = context;
    sub.stage = &shard_stages[static_cast<size_t>(s)];
    sub.machine_subset = &plan.machines_of_shard[static_cast<size_t>(s)];
    sub.shard_count = 1;        // shards run the exact solver, never recurse
    sub.memo = nullptr;         // memo keys on instance index, which the
                                // shard view renumbers
    sub.worker_pool = nullptr;  // the shard fan IS the parallelism
    // sub.frontier_cache is inherited through the copy on purpose: frontier
    // keys are content-based (and include instance_count, which the shard
    // view changes), so shards share the cache read-side safely — every hit
    // is exact for the shard's own view, and concurrent shard inserts are
    // idempotent.
    slots[static_cast<size_t>(s)] = OptimizeImpl(sub, shard_span.id());
  });

  ShardMergeStats stats;
  StageDecision merged = MergeShardDecisions(context, plan, slots, &stats);
  // Critical-instance polish: give the few instances pinning the stage
  // latency their pick of the whole fleet again (bounded by
  // shard_refine_budget), recovering most of the partition's max-latency
  // loss for O(m + budget * n) extra predictions. Theta re-tuning only
  // makes sense on decisions that actually carry RAA-chosen plans — on the
  // theta0/fuxi rungs every instance runs theta0 by contract, and the
  // polish must not silently un-degrade them.
  const bool tune_theta = config_.run_raa && context.raa_allowed &&
                          merged.fallback == FallbackLevel::kPrimary;
  const int refined = RefineMergedDecision(context, &merged, tune_theta);
  // Wall time of the whole fan, not the per-shard sum: this is what the RO
  // budget and the coverage cutoff are charged against.
  merged.solve_seconds = wall.ElapsedSeconds();

  if (!merged.feasible && config_.degrade_gracefully) {
    // Bottom rung, whole-fleet: even reconciliation could not absorb the
    // infeasible shards, so fall back exactly like the legacy ladder.
    StageDecision fb = FuxiSchedule(context);
    fb.solve_seconds += merged.solve_seconds;
    fb.fallback = FallbackLevel::kFuxi;
    merged = std::move(fb);
  }

  if (obs::MetricsRegistry* metrics = context.obs.metrics) {
    metrics->GetCounter("so.shard.decisions")->Increment();
    metrics->GetCounter("so.shard.solves")
        ->Increment(static_cast<uint64_t>(k));
    if (stats.infeasible_shards > 0) {
      metrics->GetCounter("so.shard.infeasible_shards")
          ->Increment(static_cast<uint64_t>(stats.infeasible_shards));
    }
    if (stats.rescued_instances > 0) {
      metrics->GetCounter("so.shard.rescued_instances")
          ->Increment(static_cast<uint64_t>(stats.rescued_instances));
    }
    if (refined > 0) {
      metrics->GetCounter("so.shard.refined_moves")
          ->Increment(static_cast<uint64_t>(refined));
    }
    metrics->GetGauge("so.shard.effective_k")->Set(k);
  }
  return merged;
}

StageDecision StageOptimizer::OptimizeImpl(const SchedulingContext& context,
                                           int trace_parent) const {
  StageDecision decision;
  const std::vector<FastMciGroup>* groups = nullptr;
  ClusteredIpaResult clustered;
  // One solve's embeddings: RAA reuses the instances IPA embedded.
  EmbeddingTable embeddings;

  // Arm the propagated deadline from the RO time limit so IPA/RAA abort at
  // iteration granularity instead of discovering the overrun post-hoc.
  // Only with the ladder on: without a fallback rung, an aborted solve
  // would simply lose the stage. A caller-armed deadline is honored as-is.
  SchedulingContext ctx = context;
  if (config_.degrade_gracefully && ctx.deadline.infinite()) {
    ctx.deadline = Deadline::After(ctx.ro_time_limit_seconds);
  }

  const bool model_ok = ctx.model_available && ctx.model != nullptr &&
                        ctx.model->trained();
  const bool placement_needs_model = config_.placement != Placement::kFuxi;

  // Ladder bottom rung: the model-free Fuxi baseline, reached when the
  // model is gone, the primary placement cannot place the stage, or the
  // deadline expired mid-solve. Fuxi itself never checks the deadline —
  // the bottom rung must always produce a decision.
  auto fuxi_fallback = [&](double solve_spent) {
    StageDecision fb = FuxiSchedule(ctx);
    fb.solve_seconds += solve_spent;
    fb.fallback = FallbackLevel::kFuxi;
    return fb;
  };

  if (config_.degrade_gracefully && placement_needs_model && !model_ok) {
    return fuxi_fallback(0.0);
  }

  {
    obs::ScopedSpan placement_span(ctx.obs.tracer, "so.placement",
                                   trace_parent);
    switch (config_.placement) {
      case Placement::kFuxi:
        decision = FuxiSchedule(ctx);
        break;
      case Placement::kIpaOrg:
        decision = IpaSchedule(ctx, &embeddings);
        break;
      case Placement::kIpaClustered:
        clustered = IpaClusteredSchedule(ctx, &embeddings);
        decision = std::move(clustered.decision);
        groups = &clustered.groups;
        break;
    }
  }
  if (ctx.obs.metrics != nullptr) {
    // Solver-reported seconds, not span wall time: the histogram must agree
    // with the solve_seconds the RO time budget is charged against.
    ctx.obs.metrics->GetLatencyHistogram("so.placement_seconds")
        ->Observe(decision.solve_seconds);
  }

  if (config_.degrade_gracefully) {
    if (!decision.feasible && placement_needs_model) {
      return fuxi_fallback(decision.solve_seconds);
    }
    if (decision.solve_seconds > ctx.ro_time_limit_seconds) {
      return fuxi_fallback(decision.solve_seconds);
    }
  }
  if (!decision.feasible || !config_.run_raa) return decision;

  if (config_.degrade_gracefully && !ctx.raa_allowed) {
    // Brown-out rung: the serving layer disabled RAA under overload. The
    // placement above is valid; run every instance on HBO's theta0 and
    // report the middle ladder level so metrics attribute the demotion.
    decision.fallback = FallbackLevel::kTheta0;
    return decision;
  }

  if (config_.degrade_gracefully && !model_ok) {
    // Placement was model-free (Fuxi) but RAA still needs the model: keep
    // the placement, run every instance on HBO's theta0.
    decision.fallback = FallbackLevel::kTheta0;
    return decision;
  }

  RaaResult raa;
  {
    obs::ScopedSpan raa_span(ctx.obs.tracer, "so.raa", trace_parent);
    raa = RunRaa(ctx, decision, groups, config_.raa, raa_span.id(),
                 &embeddings);
  }
  if (ctx.obs.metrics != nullptr) {
    ctx.obs.metrics->GetLatencyHistogram("so.raa_seconds")
        ->Observe(raa.solve_seconds);
  }
  if (config_.degrade_gracefully) {
    const bool over_budget = decision.solve_seconds + raa.solve_seconds >
                             ctx.ro_time_limit_seconds;
    if (!raa.ok || over_budget) {
      // Middle rung: keep the (valid) placement, drop the per-instance
      // resource tuning and fall back to the uniform theta0 plan.
      decision.solve_seconds += raa.solve_seconds;
      decision.fallback = FallbackLevel::kTheta0;
      return decision;
    }
  }
  if (raa.ok) {
    decision.theta_of_instance = std::move(raa.theta_of_instance);
  }
  decision.solve_seconds += raa.solve_seconds;
  return decision;
}

}  // namespace fgro
