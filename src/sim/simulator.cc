#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/circuit_breaker.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "featurize/channels.h"
#include "sim/dependency_manager.h"

namespace fgro {

namespace {

/// Per-instance record of the replay of one stage.
struct InstanceRun {
  double completion = 0.0;     // elapsed since stage start, incl. backoff
  double final_run = 0.0;      // runtime of the winning attempt
  int machine = -1;            // machine the winning attempt ran on
  bool succeeded = false;
};

/// Deterministic retry placement: the up machine with the most free cores
/// that fits theta (lowest id breaks ties), excluding `exclude`. -1 when
/// the cluster has nowhere left to put the container.
int PickRetryMachine(const Cluster& cluster, const FaultInjector& injector,
                     const ResourceConfig& theta, double now, int exclude) {
  int best = -1;
  double best_cores = -1.0;
  for (const Machine& m : cluster.machines()) {
    if (m.id() == exclude) continue;
    if (!injector.MachineUp(m.id(), now)) continue;
    if (!(theta.cores <= m.available_cores() + 1e-9 &&
          theta.memory_gb <= m.available_memory_gb() + 1e-9)) {
      continue;
    }
    if (m.available_cores() > best_cores) {
      best_cores = m.available_cores();
      best = m.id();
    }
  }
  return best;
}

/// All mutable state of one replay. The sequential path builds one and
/// threads it through every job (cluster time and breaker/watchdog state
/// span jobs, exactly as before the service refactor); the concurrent
/// service builds a fresh one per job so nothing is shared across workers.
struct ReplayState {
  ReplayState(const SimOptions& options, const Workload& workload,
              const LatencyModel* model, uint64_t seed,
              bool allow_reconfig = true)
      : rng(seed),
        cluster(options.cluster),
        env(workload.profile.env),
        hbo(workload.profile.hbo),
        injector(options.faults, cluster.size()),
        breaker(options.faults.model_breaker),
        watchdog(options.drift_watchdog, kNumHardwareTypes) {
    watchdog.set_obs(options.obs);
    if (options.reconfig.enabled && allow_reconfig) {
      reconfig = std::make_unique<ReconfigurationEngine>(
          options.reconfig, model, &workload,
          MixSeed(seed, options.reconfig.seed), options.obs);
    }
    if (options.lifecycle.enabled && model != nullptr && model->trained()) {
      // The initial registry version aliases the caller-owned base model
      // (no-op deleter): the lifecycle never outlives the replay, and the
      // base model must stay the rollback target of the first promotion.
      lifecycle = std::make_unique<ModelLifecycle>(
          options.lifecycle,
          std::shared_ptr<const LatencyModel>(model,
                                              [](const LatencyModel*) {}),
          &workload, MixSeed(seed, options.lifecycle.seed), options.obs);
      if (reconfig != nullptr) reconfig->AttachLifecycle(lifecycle.get());
    }
  }

  Rng rng;
  Cluster cluster;
  GroundTruthEnv env;
  Hbo hbo;
  FaultInjector injector;
  CircuitBreaker breaker;
  DriftWatchdog watchdog;
  /// Null unless SimOptions::reconfig.enabled (and the caller allowed it):
  /// the replay then repairs in-flight work instead of only degrading.
  std::unique_ptr<ReconfigurationEngine> reconfig;
  /// Null unless SimOptions::lifecycle.enabled with a trained base model:
  /// model updates then flow through the gated promotion pipeline and the
  /// replay can roll a bad promotion back.
  std::unique_ptr<ModelLifecycle> lifecycle;
};

/// Replays one job against `st`, appending its stage outcomes to `out`.
/// This is the body shared by the sequential replay (one ReplayState for
/// the whole run) and the isolated per-job replay (one per job).
Status ReplayJobInState(const Workload& workload, const LatencyModel* model,
                        const SimOptions& options, ReplayState& st,
                        int job_idx, const Simulator::SchedulerFn& scheduler,
                        bool keep_instance_detail,
                        std::vector<StageOutcome>* out) {
  Rng& rng = st.rng;
  Cluster& cluster = st.cluster;
  GroundTruthEnv& env = st.env;
  FaultInjector& injector = st.injector;
  CircuitBreaker& breaker = st.breaker;
  DriftWatchdog& watchdog = st.watchdog;
  ReconfigurationEngine* engine = st.reconfig.get();
  ModelLifecycle* lifecycle = st.lifecycle.get();
  // Liveness oracle handed to the engine (keeps fgro_reconfig below sim in
  // the layer graph; the injector cannot be linked from there).
  const ReconfigurationEngine::MachineUpFn up_fn = [&injector](int id,
                                                              double t) {
    return injector.MachineUp(id, t);
  };

  const bool faults = injector.active();
  // Breaker over the model-server probe: only consulted when faults are on
  // AND the breaker is enabled, so the oracle probe path is untouched by
  // default and existing replays stay byte-identical.
  const bool use_breaker = faults && options.faults.model_breaker.enabled;
  // Online drift watchdog: shadow-compares predictions against simulated
  // actuals per hardware type; independent of the fault injector. The
  // model lifecycle rides the same per-completion hook (its observation
  // buffer, shadow canary, and scheduled retrains all advance there), so
  // either subsystem being on enables it.
  const bool shadow = (watchdog.enabled() || lifecycle != nullptr) &&
                      model != nullptr && model->trained();

  // Deterministic drift pulse: scales actual latencies while sim time is
  // inside the pulse window. The 1.0 fast path keeps the default replay
  // bit-identical.
  auto apply_drift = [&](double actual) {
    if (options.drift_multiplier == 1.0) return actual;
    const double now = cluster.now();
    if (now >= options.drift_start_seconds &&
        now < options.drift_end_seconds) {
      return actual * options.drift_multiplier;
    }
    return actual;
  };

  // One "actual" latency draw for an attempt of instance i on a machine.
  auto sample_actual = [&](const Stage& stage, int i, const Machine& machine,
                           const ResourceConfig& theta) -> Result<double> {
    switch (options.outcome) {
      case OutcomeMode::kNoiseFree: {
        FGRO_ASSIGN_OR_RETURN(
            double pred,
            model->Predict(stage, i, theta, machine.state(),
                           machine.hardware().id));
        return apply_drift(pred);
      }
      case OutcomeMode::kGprNoise: {
        FGRO_ASSIGN_OR_RETURN(
            double pred,
            model->Predict(stage, i, theta, machine.state(),
                           machine.hardware().id));
        return apply_drift(options.gpr->Sample(pred, &rng));
      }
      case OutcomeMode::kEnvironment:
        return apply_drift(env.SampleLatency(stage, i, machine, theta, &rng));
    }
    return Status::Internal("unknown outcome mode");
  };

  // Shadow prediction for the watchdog; never fails the replay (a failed
  // shadow predict just skips the observation). Under reconfiguration the
  // shadow uses the engine's active (possibly fine-tuned or promoted)
  // model — that is the whole point of the online update: the repaired
  // model's q-error recovers and the watchdog re-promotes early. The
  // ground-truth draw in sample_actual always stays on the base model, so
  // the tune chases a fixed target.
  //
  // With the model lifecycle on, this is also its per-completion hook:
  // the observation lands in the lifecycle buffer, the shadow candidate
  // scores it, scheduled retrains fire on it, and a promotion or a
  // probation rollback surfaces here. Either supersedes in-flight
  // decisions, so the engine's epoch is bumped. Returns true when the
  // observation promoted a candidate (the caller may want to re-plan the
  // undispatched tail with the new model).
  auto observe_drift = [&](const Stage& stage, int stage_idx, int i,
                           const Machine& machine, const ResourceConfig& theta,
                           double actual, StageOutcome* outcome) -> bool {
    const LatencyModel* shadow_model =
        engine != nullptr
            ? engine->active_model()
            : (lifecycle != nullptr ? lifecycle->active_model() : model);
    Result<double> pred = shadow_model->Predict(
        stage, i, theta, machine.state(), machine.hardware().id);
    if (pred.ok()) {
      if (watchdog.enabled()) {
        watchdog.Observe(machine.hardware().id, pred.value(), actual);
      }
      outcome->pred_abs_error += std::abs(pred.value() - actual);
      outcome->pred_actual_sum += actual;
    }
    bool promoted = false;
    if (lifecycle != nullptr) {
      promoted = lifecycle->Observe(job_idx, stage_idx, stage, i, theta,
                                    machine.id(), machine.hardware().id,
                                    machine.state(), actual, cluster.now());
      if (promoted && engine != nullptr) engine->BumpEpoch();
      if (lifecycle->NoteDriftAlarms(watchdog.alarms_raised())) {
        // Probation rollback: the promotion this observation's alarm
        // indicts is gone; decisions solved under it are stale.
        if (engine != nullptr) engine->BumpEpoch();
      }
    }
    return promoted;
  };

  obs::ScopedSpan job_span(options.obs.tracer, "sim.job");
  obs::MetricsRegistry* metrics = options.obs.metrics;
  if (metrics != nullptr) metrics->GetCounter("sim.jobs_replayed")->Increment();

  const Job& job = workload.jobs[static_cast<size_t>(job_idx)];
  cluster.AdvanceTime(job.arrival_time);
  if (faults) {
    if (engine != nullptr) {
      // Same liveness projection as below, but diffed against the last
      // view: an up/down transition supersedes the decision epoch.
      engine->NoteMachineLiveness(&cluster, up_fn, cluster.now());
    } else {
      // Project the crash/recovery schedule onto machine liveness.
      for (Machine& m : cluster.machines()) {
        m.SetUp(injector.MachineUp(m.id(), cluster.now()));
      }
    }
  }
  StageDependencyManager deps(job);
  if (!deps.ok()) return deps.status();

  while (!deps.AllCompleted()) {
    std::vector<int> ready = deps.PopReadyStages();
    if (ready.empty()) {
      return Status::Internal("dependency deadlock in job replay");
    }
    for (int s : ready) {
      const Stage& stage = job.stages[static_cast<size_t>(s)];
      obs::ScopedSpan stage_span(options.obs.tracer, "sim.stage",
                                 job_span.id());
      HboRecommendation rec = st.hbo.Recommend(stage);

      SchedulingContext context;
      context.stage = &stage;
      context.cluster = &cluster;
      context.model = model;
      context.theta0 = rec.theta0;
      context.ro_time_limit_seconds = options.ro_time_limit_seconds;
      context.obs = options.obs;
      context.trace_parent = stage_span.id();
      context.memo = options.memo;
      context.frontier_compression = options.frontier_compression;
      context.frontier_cache = options.frontier_cache;
      context.worker_pool = options.worker_pool;
      context.shard_count = options.shard_count;
      context.shard_seed = options.shard_seed;

      StageOutcome outcome;
      outcome.job_idx = job_idx;
      outcome.stage_idx = s;
      outcome.num_instances = stage.instance_count();
      outcome.default_theta_cores = rec.theta0.cores;

      if (faults) {
        if (use_breaker) {
          // Breaker-gated probe: while open, stages skip the probe
          // entirely (short circuit) and degrade immediately; a half-open
          // probe after the cooldown decides recovery vs. re-trip.
          const double now = cluster.now();
          if (!breaker.AllowRequest(now)) {
            context.model_available = false;
            outcome.model_short_circuited = true;
          } else {
            const long trips_before = breaker.trips();
            const long recoveries_before = breaker.recoveries();
            const bool up = injector.ModelAvailable(now);
            if (up) {
              breaker.RecordSuccess(now);
            } else {
              breaker.RecordFailure(now);
            }
            context.model_available = up;
            outcome.breaker_tripped = breaker.trips() > trips_before;
            outcome.breaker_recovered =
                breaker.recoveries() > recoveries_before;
          }
        } else {
          context.model_available = injector.ModelAvailable(cluster.now());
        }
      }
      // Whether the model *server* is reachable, independent of drift
      // trust — replans must not resurrect a model the breaker took away.
      const bool model_server_up = context.model_available;
      const long tunes_before =
          engine != nullptr ? engine->stats().fine_tunes : 0;
      ModelLifecycleStats lc_before;
      if (lifecycle != nullptr) {
        lc_before = lifecycle->stats();
        // A probation rollback pending from an alarm the last stage
        // raised supersedes any in-flight epoch before this solve starts.
        if (lifecycle->NoteDriftAlarms(watchdog.alarms_raised()) &&
            engine != nullptr) {
          engine->BumpEpoch();
        }
      }
      if (engine != nullptr) {
        // Alarms raised since the last look supersede the epoch; an alarm
        // is also the cue to fine-tune on the replay buffer, ideally before
        // this stage's decision so the repaired model can serve it.
        engine->NoteDriftAlarms(watchdog.alarms_raised());
        if (watchdog.enabled() && watchdog.alarmed()) {
          engine->MaybeFineTune();
        }
        // The prediction memo keys on the scoring model's params_tag, so
        // a tuned or hot-swapped model reads only its own entries — no
        // need to bypass it anymore.
        context.model = engine->active_model();
        context.epoch = engine->current_epoch();
      } else if (lifecycle != nullptr) {
        context.model = lifecycle->active_model();
      }
      if (lifecycle != nullptr) {
        context.model_epoch = lifecycle->model_epoch();
      }
      const bool model_trusted =
          engine != nullptr
              ? engine->ModelTrusted()
              : (lifecycle != nullptr && lifecycle->InProbation());
      if (watchdog.enabled() && watchdog.alarmed() && !model_trusted) {
        // Drift demotion: the model is reachable but untrustworthy; the
        // ladder treats it like an outage. Shadow evaluation continues
        // below, so the window can recover and re-promote. A fresh
        // fine-tune buys a trust window — or, under the lifecycle, a
        // fresh promotion's probation window — that overrides the alarm
        // until the q-error window catches up (or a new alarm revokes it).
        context.model_available = false;
        outcome.drift_demoted = true;
      }
      const long alarms_before = watchdog.alarms_raised();

      // Per-stage deltas of the lifecycle counters, written into the
      // outcome on every exit path below.
      auto finish_lifecycle = [&](StageOutcome* o) {
        if (lifecycle == nullptr) return;
        const ModelLifecycleStats& lc = lifecycle->stats();
        o->promotions =
            static_cast<int>(lc.promotions - lc_before.promotions);
        o->rollbacks = static_cast<int>(lc.rollbacks - lc_before.rollbacks);
        o->gate_rejects =
            static_cast<int>(lc.gate_rejects - lc_before.gate_rejects);
        o->shadow_rejects =
            static_cast<int>(lc.shadow_rejects - lc_before.shadow_rejects);
        o->lifecycle_retrains =
            static_cast<int>(lc.retrains - lc_before.retrains);
        o->wasted_decisions = lc.wasted_decisions - lc_before.wasted_decisions;
        o->wasted_solve_seconds =
            lc.wasted_solve_seconds - lc_before.wasted_solve_seconds;
      };

      StageDecision decision = scheduler(context);
      if (lifecycle != nullptr) {
        lifecycle->NoteDecision(decision.solve_seconds);
      }
      if (engine != nullptr && faults && decision.feasible &&
          engine->options().replan_on_machine_event &&
          engine->options().dispatch_hazard_seconds > 0.0) {
        // Stale-decision hazard: a machine assigned by this decision
        // crashes within the (fixed, sim-time) dispatch hazard window —
        // the event supersedes the decision's epoch, so it is dropped
        // undispatched and re-solved against the projected liveness.
        const double hazard = engine->options().dispatch_hazard_seconds;
        bool superseded = false;
        for (int i = 0; i < stage.instance_count() && !superseded; ++i) {
          double crash_at = 0.0;
          superseded = injector.MachineCrashesWithin(
              decision.machine_of_instance[static_cast<size_t>(i)],
              cluster.now(), hazard, &crash_at);
        }
        if (superseded) engine->BumpEpoch();
        if (engine->DecisionIsStale(decision.epoch)) {
          engine->CountStaleDrop();
          ++outcome.stale_decision_drops;
          const double spent = decision.solve_seconds;
          engine->NoteMachineLiveness(&cluster, up_fn,
                                      cluster.now() + hazard);
          context.epoch = engine->current_epoch();
          decision = scheduler(context);
          decision.solve_seconds += spent;
        }
      }
      outcome.solve_seconds = decision.solve_seconds;
      outcome.fallback = decision.fallback;
      if (metrics != nullptr) {
        metrics->GetCounter("sim.stages_replayed")->Increment();
        metrics->GetLatencyHistogram("sim.stage_solve_seconds")
            ->Observe(decision.solve_seconds);
        if (!decision.feasible) {
          metrics->GetCounter("sim.stages_infeasible")->Increment();
        }
      }
      // A degraded decision already paid its (abandoned) primary solve
      // time; what matters is that the fallback itself is usable.
      outcome.feasible =
          decision.feasible &&
          (decision.solve_seconds <= options.ro_time_limit_seconds ||
           decision.fallback != FallbackLevel::kPrimary);
      if (!outcome.feasible) {
        finish_lifecycle(&outcome);
        out->push_back(std::move(outcome));
        deps.MarkCompleted(s);
        continue;
      }

      // Dispatch: instances launch in index order, each through the one
      // attempt step below. With an engine attached, the engine may
      // migrate a straggler and re-plan the not-yet-dispatched tail
      // mid-stage; with no trigger firing the loop consumes the RNG in
      // exactly the order of a replay without an engine (one draw per
      // attempt, i ascending), so reconfig-on replays without faults or
      // drift stay byte-identical to reconfig-off ones.
      const int m = stage.instance_count();
      const double stage_start = cluster.now();
      const RetryPolicy& policy = options.faults.retry;
      std::vector<int> assign_machine = std::move(decision.machine_of_instance);
      std::vector<ResourceConfig> assign_theta =
          std::move(decision.theta_of_instance);
      std::vector<double> start_offset(static_cast<size_t>(m), 0.0);
      // What is actually charged per slot (replans re-point the tail).
      std::vector<int> alloc_machine = assign_machine;
      std::vector<ResourceConfig> alloc_theta = assign_theta;
      for (int i = 0; i < m; ++i) {
        cluster.machine(alloc_machine[static_cast<size_t>(i)])
            .Allocate(alloc_theta[static_cast<size_t>(i)]);
      }
      std::vector<InstanceRun> runs(static_cast<size_t>(m));
      // Extra allocations made by failovers and migrations, released at
      // stage end.
      std::vector<std::pair<int, ResourceConfig>> extra_allocs;
      double solve_total = decision.solve_seconds;
      int replans_done = 0;
      int migrations_done = 0;
      // Completed (post-rescue) run durations so far this stage; the
      // running median is the self-normalizing straggler anchor.
      std::vector<double> completed_runs;
      completed_runs.reserve(static_cast<size_t>(m));

      // Attempt step of instance i dispatched at offset t: each attempt
      // draws its runtime on its machine. With faults on, attempts fail
      // (injected failures, machine crashes) and are retried with backoff:
      // in place after a transient container failure, on a surviving
      // machine (failover) when the current one is gone. The lost work of
      // every failed attempt is wasted cost. An inactive injector reports
      // every machine up and never crashes one; its per-attempt draws read
      // the rates even when disabled, hence the `faults` guards.
      auto execute = [&](int i, const ResourceConfig& theta, double t,
                         InstanceRun& run) -> Status {
        const double rate = context.cost_weights.Rate(theta);
        // Jitter stream for this instance's retries: a pure function of
        // (job, stage, instance), so the full-jitter backoff is
        // byte-identical at any thread count yet decorrelated across the
        // instances that failed in the same machine-down epoch.
        const uint64_t retry_stream =
            MixSeed(MixSeed(static_cast<uint64_t>(job_idx),
                            static_cast<uint64_t>(s)),
                    static_cast<uint64_t>(i));
        // Moves the run to the retry machine; false (the instance failed)
        // when the cluster has nowhere left to put it.
        auto fail_over = [&] {
          const int next = PickRetryMachine(cluster, injector, theta,
                                            stage_start + t, run.machine);
          if (next < 0) {
            ++outcome.failed_instances;
            run.completion = t;
            return false;
          }
          ++outcome.failovers;
          run.machine = next;
          if (cluster.machine(next).Allocate(theta)) {
            extra_allocs.emplace_back(next, theta);
          }
          return true;
        };
        for (int attempt = 1;; ++attempt) {
          if (!injector.MachineUp(run.machine, stage_start + t)) {
            // Machine already down at dispatch (e.g. it crashed between a
            // re-plan and this launch): nothing ran, nothing is wasted;
            // route through the ordinary retry/failover path. Without an
            // engine this never fires at t = 0: the scheduler only places
            // on machines up at cluster.now().
            const Status failure =
                Status::Unavailable("machine down at dispatch");
            if (!policy.ShouldRetry(failure, attempt)) {
              ++outcome.failed_instances;
              run.completion = t;
              return Status::OK();
            }
            t += policy.BackoffSeconds(attempt, retry_stream);
            ++outcome.retries;
            if (!fail_over()) return Status::OK();
            continue;
          }
          FGRO_ASSIGN_OR_RETURN(
              double nominal,
              sample_actual(stage, i, cluster.machine(run.machine), theta));
          if (faults) {
            nominal *= injector.StragglerMultiplier(job_idx, s, i, attempt);
          }
          double crash_at = 0.0;
          const bool machine_crash = injector.MachineCrashesWithin(
              run.machine, stage_start + t, nominal, &crash_at);
          const bool inst_fail =
              faults && injector.InstanceFails(job_idx, s, i, attempt);
          if (!machine_crash && !inst_fail) {
            run.final_run = nominal;
            run.completion = t + nominal;
            run.succeeded = true;
            return Status::OK();
          }
          // Work lost at the earlier of the two failure sources.
          double ran = nominal;
          if (inst_fail) {
            ran = injector.FailurePointFraction(job_idx, s, i, attempt) *
                  nominal;
          }
          if (machine_crash) {
            ran = std::min(ran, crash_at - (stage_start + t));
          }
          ran = std::max(0.0, ran);
          outcome.wasted_cost += ran * rate;
          const Status failure =
              machine_crash
                  ? Status::Unavailable("machine crashed mid-attempt")
                  : Status::ResourceExhausted("instance attempt failed");
          if (!policy.ShouldRetry(failure, attempt)) {
            ++outcome.failed_instances;
            run.completion = t + ran;
            return Status::OK();
          }
          t += ran + policy.BackoffSeconds(attempt, retry_stream);
          ++outcome.retries;
          // Re-place when the current machine is gone; otherwise retry in
          // place (transient container failure).
          if ((machine_crash ||
               !injector.MachineUp(run.machine, stage_start + t)) &&
              !fail_over()) {
            return Status::OK();
          }
        }
      };

      for (int i = 0; i < m; ++i) {
        const ResourceConfig theta = assign_theta[static_cast<size_t>(i)];
        InstanceRun& run = runs[static_cast<size_t>(i)];
        run.machine = assign_machine[static_cast<size_t>(i)];
        FGRO_RETURN_IF_ERROR(
            execute(i, theta, start_offset[static_cast<size_t>(i)], run));
        // Without an engine nothing reacts mid-stage: speculation and the
        // shadow observations run below, once every run is final.
        if (engine == nullptr) continue;
        const double rate = context.cost_weights.Rate(theta);
        // Straggler migration: the winning attempt ran far past a
        // detection anchor, so at the detection point a replacement is
        // launched on the best healthy machine and races the original;
        // the loser is killed the moment the winner finishes and its
        // burned runtime is wasted cost. Detection trips on whichever of
        // two anchors fires first (the race makes over-eager trips cost
        // only waste, while a missed trip costs stage latency):
        //  - the active model's per-instance prediction, counted only
        //    while the model is trustworthy (no alarm, or a fresh
        //    fine-tune inside its trust window) — mid-drift a
        //    half-repaired model underpredicts uniformly and would flag
        //    every instance;
        //  - the running median of this stage's completed runs (once 3
        //    samples exist) — self-normalizing under regime shift, the
        //    same property that makes speculative execution key on it,
        //    so real stragglers are still rescued while the watchdog is
        //    alarmed with no trusted repair.
        if (run.succeeded && engine->options().migrate_stragglers &&
            migrations_done < engine->options().max_migrations_per_stage) {
          const LatencyModel* active = engine->active_model();
          if (active != nullptr && active->trained()) {
            const double threshold = engine->options().migration_threshold;
            double anchor = -1.0;  // smallest anchor the run overran
            if (completed_runs.size() >= 3) {
              std::vector<double> sorted = completed_runs;
              const std::size_t mid = sorted.size() / 2;
              std::nth_element(sorted.begin(), sorted.begin() + mid,
                               sorted.end());
              if (run.final_run > threshold * sorted[mid]) {
                anchor = sorted[mid];
              }
            }
            if (!(watchdog.enabled() && watchdog.alarmed()) ||
                engine->ModelTrusted()) {
              const Machine& current = cluster.machine(run.machine);
              Result<double> pred =
                  active->Predict(stage, i, theta, current.state(),
                                  current.hardware().id);
              if (pred.ok() && pred.value() > 0.0 &&
                  run.final_run > threshold * pred.value() &&
                  (anchor < 0.0 || pred.value() < anchor)) {
                anchor = pred.value();
              }
            }
            if (anchor > 0.0) {
              const double started = run.completion - run.final_run;
              const double detect_at = started + threshold * anchor;
              const int target = engine->PickMigrationTarget(
                  cluster, up_fn, stage, i, theta, stage_start + detect_at,
                  run.machine);
              if (target >= 0) {
                Result<double> drawn = sample_actual(
                    stage, i, cluster.machine(target), theta);
                if (!drawn.ok()) return drawn.status();
                // Attempt index 2000: a private straggler-fate stream for
                // migrated runs (speculative copies use 1000).
                const double mig_run =
                    drawn.value() *
                    injector.StragglerMultiplier(job_idx, s, i, 2000);
                const double mig_completion = detect_at + mig_run;
                ++migrations_done;
                engine->CountMigration();
                ++outcome.migrations;
                // The replacement occupied a real slot whichever way the
                // race went.
                if (cluster.machine(target).Allocate(theta)) {
                  extra_allocs.emplace_back(target, theta);
                }
                // The original keeps running while the replacement races
                // it; the first to finish wins and the loser is killed at
                // that instant, its whole burned runtime charged as
                // waste. Killing the original at detection instead would
                // gamble the stage tail on the replacement not
                // re-straggling — a lost race must never make the stage
                // slower than doing nothing.
                if (mig_completion < run.completion) {
                  engine->CountMigrationWin();
                  ++outcome.migration_wins;
                  outcome.wasted_cost +=
                      std::max(0.0, mig_completion - started) * rate;
                  run.machine = target;
                  run.final_run = mig_run;
                  run.completion = mig_completion;
                } else {
                  outcome.wasted_cost +=
                      std::max(0.0, run.completion - detect_at) * rate;
                }
              }
            }
          }
        }

        bool promoted_now = false;
        if (run.succeeded) {
          completed_runs.push_back(run.final_run);
          const Machine& machine = cluster.machine(run.machine);
          if (shadow) {
            promoted_now = observe_drift(stage, s, i, machine, theta,
                                         run.final_run, &outcome);
          }
          engine->RecordObservation(job_idx, s, stage, i, theta, machine,
                                    run.final_run);
        }

        // Mid-stage triggers: a drift alarm that a fine-tune just
        // repaired, or a remaining assignment pointing at a machine that
        // has gone down, re-plans the not-yet-dispatched tail.
        if (i + 1 >= m ||
            replans_done >= engine->options().max_replans_per_stage) {
          continue;
        }
        const double t_check = stage_start + run.completion;
        bool want_replan = false;
        // When the re-plan is repairing a machine event, the repair point
        // is the event itself (the crash a heartbeat would detect), not
        // the completion of instance i where this loop happens to look.
        double replan_at = run.completion;
        bool drift_replan = false;
        if (promoted_now && engine->options().replan_on_drift_alarm) {
          // A mid-stage promotion: the undispatched tail was planned by
          // the superseded model; re-solve it with the promoted one.
          want_replan = true;
          drift_replan = true;
        }
        if (engine->NoteDriftAlarms(watchdog.alarms_raised()) &&
            engine->options().replan_on_drift_alarm) {
          // Re-planning with the model that just proved untrustworthy
          // would reproduce the same plan: only worth it if the tune ran.
          // (Under the lifecycle the tune is only *submitted* as a gate
          // candidate — the active model is unchanged, so no re-plan
          // until a later observation promotes it.)
          if (engine->MaybeFineTune()) {
            want_replan = true;
            drift_replan = true;
          }
        }
        if (!want_replan && faults &&
            engine->options().replan_on_machine_event) {
          for (int j = i + 1; j < m; ++j) {
            const int mj = assign_machine[static_cast<size_t>(j)];
            if (injector.MachineUp(mj, t_check)) continue;
            want_replan = true;
            double crash_at = 0.0;
            // Down since before the stage started -> event time 0.
            double event = 0.0;
            if (injector.MachineCrashesWithin(mj, stage_start,
                                              run.completion, &crash_at)) {
              event = crash_at - stage_start;
            }
            replan_at = std::min(replan_at, std::max(0.0, event));
          }
        }
        if (!want_replan) continue;

        ++replans_done;
        for (int j = i + 1; j < m; ++j) {
          cluster.machine(alloc_machine[static_cast<size_t>(j)])
              .Release(alloc_theta[static_cast<size_t>(j)]);
        }
        if (faults) {
          engine->NoteMachineLiveness(&cluster, up_fn,
                                      stage_start + replan_at);
        }
        // A drift re-plan re-optimizes the whole undispatched tail (the
        // repaired model may prefer different placements everywhere). A
        // machine-event re-plan solves only the instances that actually
        // need repair — re-pointing healthy instances would charge them
        // the re-dispatch delay for no reason.
        std::vector<int> remaining;
        if (drift_replan) {
          remaining.resize(static_cast<size_t>(m - i - 1));
          std::iota(remaining.begin(), remaining.end(), i + 1);
        } else {
          for (int j = i + 1; j < m; ++j) {
            if (!injector.MachineUp(assign_machine[static_cast<size_t>(j)],
                                    t_check)) {
              remaining.push_back(j);
            }
          }
        }
        SchedulingContext sub = context;
        sub.model = engine->active_model();
        sub.model_available =
            model_server_up &&
            (!(watchdog.enabled() && watchdog.alarmed()) ||
             engine->ModelTrusted());
        sub.memo = nullptr;
        // sub.frontier_cache is inherited through the copy on purpose:
        // its content-based keys (params_tag included) stay exact under
        // the swapped model and the reduced stage view, so partial
        // re-plans hit warm frontier templates.
        sub.instance_subset = &remaining;
        sub.epoch = engine->current_epoch();
        if (lifecycle != nullptr) {
          sub.model_epoch = lifecycle->model_epoch();
        }
        sub.deadline = Deadline::After(std::max(
            0.1, options.ro_time_limit_seconds - solve_total));
        StageDecision redo;
        {
          obs::ScopedSpan replan_span(options.obs.tracer,
                                      "reconfig.replan", stage_span.id());
          redo = scheduler(sub);
        }
        if (lifecycle != nullptr) {
          lifecycle->NoteDecision(redo.solve_seconds);
        }
        solve_total += redo.solve_seconds;
        if (redo.feasible &&
            redo.machine_of_instance.size() == remaining.size()) {
          engine->CountReplan();
          ++outcome.replans;
          for (size_t r = 0; r < remaining.size(); ++r) {
            const size_t j = static_cast<size_t>(remaining[r]);
            const bool moved =
                assign_machine[j] != redo.machine_of_instance[r] ||
                !(assign_theta[j] == redo.theta_of_instance[r]);
            assign_machine[j] = redo.machine_of_instance[r];
            assign_theta[j] = redo.theta_of_instance[r];
            // Instances the re-plan actually moved re-dispatch at the
            // repair point — the delay is honestly charged to latency.
            // Instances whose assignment survived were never recalled
            // and keep their original dispatch time.
            if (moved) start_offset[j] = replan_at;
          }
        } else {
          engine->CountReplanFailure();
        }
        for (int j = i + 1; j < m; ++j) {
          alloc_machine[static_cast<size_t>(j)] =
              assign_machine[static_cast<size_t>(j)];
          alloc_theta[static_cast<size_t>(j)] =
              assign_theta[static_cast<size_t>(j)];
          cluster.machine(alloc_machine[static_cast<size_t>(j)])
              .Allocate(alloc_theta[static_cast<size_t>(j)]);
        }
      }

      // Speculative re-execution: instances lagging far behind the stage
      // median get a backup copy; first finisher wins, the loser's run is
      // killed and charged as waste. An engine migrates stragglers instead.
      if (engine == nullptr && faults &&
          options.faults.speculative_execution && m >= 3) {
        std::vector<double> completions;
        completions.reserve(static_cast<size_t>(m));
        for (const InstanceRun& run : runs) {
          if (run.succeeded) completions.push_back(run.completion);
        }
        const double median = Median(completions);
        const double detect_at = options.faults.speculative_threshold * median;
        if (!completions.empty() && median > 0.0) {
          for (int i = 0; i < m; ++i) {
            InstanceRun& run = runs[static_cast<size_t>(i)];
            if (!run.succeeded || run.completion <= detect_at) continue;
            const ResourceConfig& theta = assign_theta[static_cast<size_t>(i)];
            const double rate = context.cost_weights.Rate(theta);
            const int copy_machine = PickRetryMachine(
                cluster, injector, theta, stage_start + detect_at, run.machine);
            if (copy_machine < 0) continue;
            FGRO_ASSIGN_OR_RETURN(
                const double drawn,
                sample_actual(stage, i, cluster.machine(copy_machine), theta));
            // The copy gets its own straggler draw on a high attempt index
            // so it never collides with a retry attempt's fate.
            const double copy_run =
                drawn * injector.StragglerMultiplier(job_idx, s, i, 1000);
            const double copy_completion = detect_at + copy_run;
            ++outcome.speculative_copies;
            if (copy_completion < run.completion) {
              ++outcome.speculative_wins;
              // Original killed when the copy finishes: everything the
              // final original attempt ran is lost.
              const double original_started = run.completion - run.final_run;
              outcome.wasted_cost +=
                  std::max(0.0, copy_completion - original_started) * rate;
              run.final_run = copy_run;
              run.completion = copy_completion;
              run.machine = copy_machine;
            } else {
              // Copy killed when the original finishes.
              outcome.wasted_cost +=
                  std::max(0.0, run.completion - detect_at) * rate;
            }
          }
        }
      }
      // Without an engine the shadow observations follow speculation, so
      // every observed run is final.
      if (engine == nullptr && shadow) {
        for (int i = 0; i < m; ++i) {
          const InstanceRun& run = runs[static_cast<size_t>(i)];
          if (!run.succeeded) continue;
          // Feed the winning attempt's runtime; straggler noise is part of
          // the drift signal the watchdog is meant to see.
          observe_drift(stage, s, i, cluster.machine(run.machine),
                        assign_theta[static_cast<size_t>(i)],
                        run.final_run, &outcome);
        }
      }

      double max_latency = 0.0, useful_cost = 0.0;
      std::vector<double> latencies(static_cast<size_t>(m));
      bool all_succeeded = true;
      for (int i = 0; i < m; ++i) {
        const InstanceRun& run = runs[static_cast<size_t>(i)];
        latencies[static_cast<size_t>(i)] = run.completion;
        max_latency = std::max(max_latency, run.completion);
        if (run.succeeded) {
          useful_cost +=
              run.final_run * context.cost_weights.Rate(
                                  assign_theta[static_cast<size_t>(i)]);
        } else {
          all_succeeded = false;
        }
      }
      for (int i = 0; i < m; ++i) {
        cluster.machine(alloc_machine[static_cast<size_t>(i)])
            .Release(alloc_theta[static_cast<size_t>(i)]);
      }
      for (const auto& [machine_id, extra_theta] : extra_allocs) {
        cluster.machine(machine_id).Release(extra_theta);
      }

      // A stage that lost an instance past its retry budget did not
      // produce its output: it fails cleanly (no crash, waste recorded).
      outcome.feasible = all_succeeded;
      outcome.solve_seconds = solve_total;
      outcome.stage_latency = max_latency;
      outcome.stage_latency_in = max_latency + solve_total;
      outcome.stage_cost = useful_cost + outcome.wasted_cost;
      outcome.drift_alarm_raised = watchdog.alarms_raised() > alarms_before;
      if (engine != nullptr) {
        outcome.fine_tunes =
            static_cast<int>(engine->stats().fine_tunes - tunes_before);
      }
      finish_lifecycle(&outcome);
      if (keep_instance_detail) {
        outcome.instance_latencies = std::move(latencies);
        outcome.instance_thetas = std::move(assign_theta);
      }
      out->push_back(std::move(outcome));
      deps.MarkCompleted(s);
    }
  }
  return Status::OK();
}

Status ValidateOutcomeMode(const SimOptions& options) {
  if (options.outcome == OutcomeMode::kGprNoise &&
      (options.gpr == nullptr || !options.gpr->fitted())) {
    return Status::FailedPrecondition("GPR noise model required but missing");
  }
  return Status::OK();
}

}  // namespace

Simulator::Simulator(const Workload* workload, const LatencyModel* model,
                     SimOptions options)
    : workload_(workload), model_(model), options_(options) {}

Result<SimResult> Simulator::Run(const SchedulerFn& scheduler,
                                 bool keep_instance_detail) {
  std::vector<int> all(workload_->jobs.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return RunJobs(scheduler, all, keep_instance_detail);
}

Result<SimResult> Simulator::RunJobs(const SchedulerFn& scheduler,
                                     const std::vector<int>& job_indices,
                                     bool keep_instance_detail) {
  FGRO_RETURN_IF_ERROR(ValidateOutcomeMode(options_));
  // One shared state for the whole replay: cluster time advances across
  // jobs and breaker/watchdog/reconfig state carries over, as it always
  // has — in particular the fine-tuned model persists across jobs.
  ReplayState state(options_, *workload_, model_, options_.seed);
  SimResult result;
  for (int job_idx : job_indices) {
    FGRO_RETURN_IF_ERROR(ReplayJobInState(*workload_, model_, options_, state,
                                          job_idx, scheduler,
                                          keep_instance_detail,
                                          &result.outcomes));
  }
  return result;
}

Result<std::vector<StageOutcome>> Simulator::ReplayJobIsolated(
    const SchedulerFn& scheduler, int job_idx, uint64_t seed,
    bool keep_instance_detail, bool allow_reconfig) const {
  if (job_idx < 0 ||
      job_idx >= static_cast<int>(workload_->jobs.size())) {
    return Status::InvalidArgument("job index out of range");
  }
  FGRO_RETURN_IF_ERROR(ValidateOutcomeMode(options_));
  ReplayState state(options_, *workload_, model_, seed, allow_reconfig);
  std::vector<StageOutcome> outcomes;
  FGRO_RETURN_IF_ERROR(ReplayJobInState(*workload_, model_, options_, state,
                                        job_idx, scheduler,
                                        keep_instance_detail, &outcomes));
  return outcomes;
}

}  // namespace fgro
