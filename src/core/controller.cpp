#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "engine/partitioner.h"

namespace bohr::core {

/// One (dataset, type) ready to run: make_query_job's job, plus every
/// site's stage when building the stages drew no RNG. Such a plan keeps
/// the stages and drops the mapped inputs; without stages (round-robin
/// assignment) every run rebuilds them from the inputs.
struct Controller::QueryPlan {
  QueryJob job;  ///< inputs released once `stages` is built
  std::vector<engine::SiteStage> stages;
};

/// One plan slot per (dataset, type), filled at most once; concurrent
/// first touches of a slot build it once and all see the same plan.
class Controller::PlanCache {
 public:
  explicit PlanCache(const std::vector<DatasetState>& datasets) {
    std::size_t slots = 0;
    for (const DatasetState& d : datasets) {
      first_slot_.push_back(slots);
      slots += d.bundle().query_types.size();
    }
    slots_ = std::make_unique<Slot[]>(slots);
  }

  template <typename Build>
  std::shared_ptr<const QueryPlan> get(std::size_t a, std::size_t t,
                                       const Build& build) {
    Slot& slot = slots_[first_slot_[a] + t];
    std::call_once(slot.once, [&] { slot.plan = build(); });
    return slot.plan;
  }

 private:
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const QueryPlan> plan;
  };
  std::vector<std::size_t> first_slot_;
  std::unique_ptr<Slot[]> slots_;
};

Controller::Controller(net::WanTopology topology,
                       std::vector<DatasetState> datasets,
                       ControllerOptions options)
    : topology_(std::move(topology)),
      datasets_(std::move(datasets)),
      options_(options),
      probe_faults_(options.faults.restricted_to(net::kPhaseProbe)),
      query_faults_(options.faults.restricted_to(net::kPhaseQuery)),
      rng_(options.seed),
      plans_(std::make_unique<PlanCache>(datasets_)) {
  BOHR_EXPECTS(!datasets_.empty());
  options_.faults.validate();
  const StrategyTraits traits = traits_of(options_.strategy);
  for (const auto& d : datasets_) {
    BOHR_EXPECTS(d.site_count() == topology_.site_count());
    BOHR_EXPECTS(d.has_cubes() == traits.cubes);
    total_queries_ += d.mix().total_queries();
  }
  BOHR_EXPECTS(total_queries_ > 0);
}

Controller::Controller(Controller&&) noexcept = default;
Controller& Controller::operator=(Controller&&) noexcept = default;
Controller::~Controller() = default;

QueryJob make_query_job(const DatasetState& dataset, std::size_t type_spec,
                        const ControllerOptions& options) {
  BOHR_EXPECTS(type_spec < dataset.bundle().query_types.size());
  const StrategyTraits traits = traits_of(options.strategy);
  // One synthetic row stands for bytes_per_row/physical_record_bytes real
  // records; intermediate sizes and machine work scale by the same
  // representation factor.
  const double representation =
      dataset.bundle().bytes_per_row / options.physical_record_bytes;

  QueryJob job;
  job.spec = engine::default_spec_for(
      dataset.bundle().query_types[type_spec].kind);
  job.spec.dataset = dataset.dataset_id();
  job.spec.query_type = dataset.cube_query_type(type_spec);
  job.spec.intermediate_bytes_per_record *= representation;

  // The filter salt is fixed per (dataset, type), so every recurrence of
  // the query selects the same rows.
  const std::uint64_t salt =
      hash_combine(dataset.dataset_id(), hash_combine(type_spec, 0xABCD));
  job.inputs.reserve(dataset.site_count());
  for (std::size_t i = 0; i < dataset.site_count(); ++i) {
    job.inputs.push_back(
        dataset.map_rows(i, type_spec, job.spec.selectivity, salt));
  }

  job.config = options.job;
  job.config.partition_policy = traits.cubes
                                    ? engine::PartitionPolicy::CubeSorted
                                    : engine::PartitionPolicy::ArrivalOrder;
  job.config.executor_assignment =
      traits.rdd_similarity ? engine::ExecutorAssignment::SimilarityKMeans
                            : engine::ExecutorAssignment::RoundRobin;
  job.config.machine.record_scale = std::max(1.0, representation);
  return job;
}

double Controller::profiled_reduction_ratio(
    const DatasetState& dataset) const {
  // R^a = map-output bytes per input byte, before combining, averaged
  // over the dataset's query mix.
  const auto weights = dataset.mix().weights();
  double r = 0.0;
  double total_w = 0.0;
  for (std::size_t t = 0; t < dataset.bundle().query_types.size(); ++t) {
    if (weights[t] <= 0.0) continue;
    const engine::QuerySpec spec =
        engine::default_spec_for(dataset.bundle().query_types[t].kind);
    r += weights[t] * spec.selectivity * spec.intermediate_bytes_per_record /
         options_.physical_record_bytes;
    total_w += weights[t];
  }
  return total_w > 0.0 ? r / total_w : 0.0;
}

PlacementProblem Controller::build_placement_problem() const {
  const StrategyTraits traits = traits_of(options_.strategy);
  PlacementProblem problem;
  problem.topology = topology_;
  problem.lag_seconds = options_.lag_seconds;
  problem.datasets.reserve(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const DatasetState& d = datasets_[a];
    DatasetPlacementInput input;
    input.dataset_id = d.dataset_id();
    input.reduction_ratio = profiled_reduction_ratio(d);
    input.query_count = d.mix().total_queries();
    input.input_bytes.resize(d.site_count());
    input.self_similarity.assign(d.site_count(), 0.0);
    for (std::size_t i = 0; i < d.site_count(); ++i) {
      input.input_bytes[i] = d.input_bytes_at(i);
    }
    if (traits.cubes && !similarity_.empty()) {
      input.self_similarity = similarity_[a].self;
      // §4.3: only the joint formulation consumes the probe-measured
      // pair similarities (Bohr-Sim keeps Iridium's heuristic amounts
      // and uses similarity solely to pick WHICH records move, §8.1).
      if (traits.joint_lp) {
        input.pair_similarity = similarity_[a].pair;
      }
    } else if (traits.cubes) {
      // Cubes exist but no probe round ran: read self-similarity locally.
      const auto weights = d.cube_type_weights();
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        input.self_similarity[i] =
            similarity::self_similarity(d.cubes_at(i), weights);
      }
    }
    // Plain Iridium has no cubes; it profiles the effective per-site
    // ratio from previous runs. Approximate with the dataset-wide
    // combine-free ratio (similarity-agnostic, as in [27]).
    problem.datasets.push_back(std::move(input));
  }
  return problem;
}

const PrepareReport& Controller::prepare() {
  if (prepared_) return *prepared_;
  PrepareProgress progress = start_prepare();
  step_similarity(progress);
  step_placement(progress);
  step_plan_movement(progress);
  step_execute_movement(progress);
  return finish_prepare(std::move(progress));
}

PrepareProgress Controller::start_prepare() {
  PrepareProgress progress;
  progress.report.faults.outages_injected = options_.faults.outages.size();
  progress.report.faults.degradations_injected =
      options_.faults.degradations.size();
  progress.report.faults.kills_injected = options_.faults.kills.size();
  return progress;
}

// Step 1. Similarity checking (§4) for cube-backed similarity strategies.
void Controller::step_similarity(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 0);
  PrepareReport& report = progress.report;
  const StrategyTraits traits = traits_of(options_.strategy);
  if (traits.similarity_movement) {
    SimilarityOptions sim_options = options_.similarity;
    if (!probe_faults_.empty()) sim_options.faults = &probe_faults_;
    similarity_.clear();
    similarity_.reserve(datasets_.size());
    for (const auto& d : datasets_) {
      DatasetSimilarity sim = check_similarity(d, sim_options);
      report.similarity_seconds += sim.checking_seconds;
      report.probe_bytes += sim.probe_bytes;
      report.faults.probe_pairs_lost += sim.probe_pairs_lost;
      similarity_.push_back(std::move(sim));
    }
  }
  progress.completed_steps = 1;
}

// Step 2. Placement: joint LP (§5), the Iridium heuristic, or §1's
// ship-everything strawman. A joint LP that fails to converge (or is
// failure-injected) falls back to the Iridium heuristic — one rung
// down the degraded-mode ladder, never a crash.
void Controller::step_placement(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 1);
  PrepareReport& report = progress.report;
  const StrategyTraits traits = traits_of(options_.strategy);
  const PlacementProblem problem = build_placement_problem();
  if (centralizes(options_.strategy)) {
    report.decision = centralized_placement(problem);
  } else if (minimizes_bandwidth(options_.strategy)) {
    report.decision = geode_placement(problem);
  } else if (traits.joint_lp) {
    PlacementDecision joint;
    bool fall_back = options_.faults.lp_failure;
    if (!fall_back) {
      joint = joint_lp_placement(problem);
      fall_back = !joint.lp_converged;
    }
    if (fall_back) {
      const double lp_seconds = joint.lp_seconds;
      const std::size_t lp_iterations = joint.lp_iterations;
      report.decision = iridium_placement(problem);
      // The failed attempt's cost — both the profiled wall-clock and the
      // iterations the modeled QCT charge is derived from.
      report.decision.lp_seconds += lp_seconds;
      report.decision.lp_iterations += lp_iterations;
      report.decision.lp_converged = false;
      ++report.faults.lp_fallbacks;
    } else {
      report.decision = std::move(joint);
    }
  } else {
    report.decision = iridium_placement(problem);
  }
  progress.completed_steps = 2;
}

// Step 3. Plan movement in the lag before the next query (§3). All
// datasets move concurrently and share the WAN, so their flows are
// planned before any is simulated. This is the only step that draws
// from rng_, which is why snapshots persist the generator state.
void Controller::step_plan_movement(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 2);
  const StrategyTraits traits = traits_of(options_.strategy);
  progress.plans.clear();
  progress.plans.reserve(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const DatasetSimilarity* sim =
        similarity_.empty() ? nullptr : &similarity_[a];
    progress.plans.push_back(
        plan_movement(datasets_[a], progress.report.decision.move_bytes[a],
                      sim, traits.similarity_movement, rng_));
  }
  progress.completed_steps = 3;
}

// Step 4. Simulate the planned flows together (the lag verdict sees the
// shared-WAN contention, not each dataset in isolation), apply what
// landed, and — if the deadline or a dead flow cut the plan short —
// re-solve task placement for the data that actually arrived.
void Controller::step_execute_movement(PrepareProgress& progress) {
  BOHR_EXPECTS(progress.completed_steps == 3);
  PrepareReport& report = progress.report;
  const std::vector<MovementPlan>& plans = progress.plans;
  const net::FaultPlan move_faults =
      options_.faults.restricted_to(net::kPhaseMovement);
  // A faulted run must not pretend bytes that missed the deadline (or
  // died with their flow) arrived; a pristine run keeps the historical
  // behaviour unless truncation is explicitly requested. Crash and
  // storage faults never perturb the data plane, so they must not flip
  // this switch — recovery's byte-identity guarantee depends on it.
  const bool enforce = options_.enforce_lag_deadline ||
                       !options_.faults.data_plane_quiet();
  // Rebuilt rather than carried over from step_placement: the datasets
  // are untouched between the two steps (movement applies below), so
  // the problem is bit-identical — and a recovered process can resume
  // here without the placement step's locals.
  const PlacementProblem problem = build_placement_problem();

  std::vector<net::Flow> all_flows;
  std::vector<std::pair<std::size_t, std::size_t>> origin;  // dataset, flow
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    for (std::size_t f = 0; f < plans[a].flows.size(); ++f) {
      const PlannedFlow& pf = plans[a].flows[f];
      all_flows.push_back(net::Flow{pf.src, pf.dst, pf.bytes, 0.0});
      origin.emplace_back(a, f);
    }
  }

  std::vector<std::vector<std::size_t>> delivered(datasets_.size());
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    delivered[a].assign(plans[a].flows.size(), 0);
  }
  if (!all_flows.empty()) {
    const double deadline =
        enforce ? options_.lag_seconds
                : std::numeric_limits<double>::infinity();
    const net::FaultSimReport sim = net::simulate_flows_with_faults(
        topology_, all_flows, move_faults, deadline);
    report.faults.movement_interruptions = sim.interruptions;
    report.faults.movement_retries = sim.retries;
    report.faults.movement_flows_failed = sim.failures;
    report.movement_seconds = sim.makespan;
    for (std::size_t f = 0; f < all_flows.size(); ++f) {
      const auto [a, i] = origin[f];
      const PlannedFlow& pf = plans[a].flows[i];
      std::size_t rows = pf.row_indices.size();
      if (enforce) {
        const net::FaultyFlowResult& fr = sim.flows[f];
        const bool landed_in_time =
            fr.completed && fr.finish_time <= options_.lag_seconds + 1e-9;
        if (!landed_in_time) {
          rows = std::min(
              rows, static_cast<std::size_t>(std::floor(
                        fr.delivered_by_deadline /
                            datasets_[a].bundle().bytes_per_row +
                        1e-9)));
        }
      }
      delivered[a][i] = rows;
    }
  }

  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const AppliedMovement applied = apply_movement_plan(
        datasets_[a], plans[a], enforce ? &delivered[a] : nullptr);
    report.bytes_moved += applied.bytes_moved;
    report.rows_moved += applied.rows_moved;
    report.faults.rows_truncated += applied.rows_truncated;
    report.faults.deadline_shortfall_bytes += applied.shortfall_bytes;
  }
  plans_ = std::make_unique<PlanCache>(datasets_);
  report.movement_within_lag =
      report.movement_seconds <= options_.lag_seconds + 1e-9;

  if (report.faults.rows_truncated > 0) {
    std::vector<std::vector<std::vector<double>>> actual =
        report.decision.move_bytes;
    for (auto& per_dataset : actual) {
      for (auto& row : per_dataset) std::fill(row.begin(), row.end(), 0.0);
    }
    for (std::size_t a = 0; a < datasets_.size(); ++a) {
      for (std::size_t i = 0; i < plans[a].flows.size(); ++i) {
        const PlannedFlow& pf = plans[a].flows[i];
        actual[a][pf.src][pf.dst] +=
            static_cast<double>(delivered[a][i]) *
            datasets_[a].bundle().bytes_per_row;
      }
    }
    const TaskPlacementResult replan = solve_task_placement(problem, actual);
    report.decision.move_bytes = std::move(actual);
    if (replan.optimal) {
      report.decision.reduce_fractions = replan.reduce_fractions;
      ++report.faults.movement_replans;
    }
  }
  progress.completed_steps = 4;
}

const PrepareReport& Controller::finish_prepare(PrepareProgress&& progress) {
  BOHR_EXPECTS(progress.completed_steps == kPrepareStepCount);
  BOHR_EXPECTS(!prepared_);
  prepared_ = std::move(progress.report);
  return *prepared_;
}

void Controller::restore_similarity(std::vector<DatasetSimilarity> sims) {
  BOHR_EXPECTS(sims.empty() || sims.size() == datasets_.size());
  similarity_ = std::move(sims);
}

DatasetState& Controller::mutable_dataset(std::size_t idx) {
  BOHR_EXPECTS(idx < datasets_.size());
  plans_ = std::make_unique<PlanCache>(datasets_);
  return datasets_[idx];
}

std::shared_ptr<const Controller::QueryPlan> Controller::plan_for(
    std::size_t a, std::size_t t) const {
  BOHR_EXPECTS(prepared_.has_value());
  BOHR_EXPECTS(a < datasets_.size());
  BOHR_EXPECTS(t < datasets_[a].bundle().query_types.size());
  // A plan's stages are reusable only if building them drew no RNG: under
  // k-means executor assignment (the RDD-similarity strategies).
  const bool cacheable = traits_of(options_.strategy).rdd_similarity;
  const auto build = [&]() -> std::shared_ptr<const QueryPlan> {
    auto plan = std::make_shared<QueryPlan>();
    plan->job = make_query_job(datasets_[a], t, options_);
    if (!cacheable) return plan;
    constexpr std::uint64_t kUnusedSeed = 0;
    Rng unused(kUnusedSeed);
    for (const engine::RecordStream& input : plan->job.inputs) {
      plan->stages.push_back(engine::run_site_stage(
          input, plan->job.spec, plan->job.config, unused));
    }
    BOHR_CHECK(unused() == Rng(kUnusedSeed)());
    plan->job.inputs = {};
    return plan;
  };
  return cacheable ? plans_->get(a, t, build) : build();
}

engine::JobResult Controller::run_plan(const QueryPlan& plan,
                                       const engine::JobConfig& config,
                                       Rng& rng) const {
  const std::vector<double>& fractions = prepared_->decision.reduce_fractions;
  if (plan.stages.empty()) {
    return engine::run_job(topology_, plan.job.inputs, fractions,
                           plan.job.spec, config, rng);
  }
  return engine::run_job_from_stages(topology_, plan.stages, fractions,
                                     plan.job.spec, config, rng);
}

std::vector<QueryExecution> Controller::run_all_queries() {
  const PrepareReport& prep = prepare();
  // Query-phase faults hit the shuffle; the runner takes the pristine
  // path when the projection has no WAN events. The bucket settings are
  // the base job's.
  const QueryRound round{
      .faults = &query_faults_,
      .reduce_buckets = options_.job.reduce_buckets,
      .bucket_speculation = options_.job.bucket_speculation,
      .bucket_speculation_cap = options_.job.bucket_speculation_cap,
  };
  // §8.5: LP solving time is included in QCT, amortized across the
  // recurring queries the one placement serves. The charge is the
  // modeled per-iteration cost, not wall-clock lp_seconds — simulated
  // QCT must not vary with host speed or thread count.
  return run_mix(round, prep.decision.modeled_lp_seconds() /
                            static_cast<double>(total_queries_));
}

std::vector<QueryExecution> Controller::run_query_round(
    const QueryRound& round) {
  BOHR_EXPECTS(prepared_.has_value());
  return run_mix(round, 0.0);
}

std::vector<QueryExecution> Controller::run_mix(
    const QueryRound& round, double controller_overhead_seconds) {
  std::vector<QueryExecution> executions;
  for (std::size_t a = 0; a < datasets_.size(); ++a) {
    const DatasetState& d = datasets_[a];
    for (std::size_t t = 0; t < d.bundle().query_types.size(); ++t) {
      const std::size_t recurrences = d.mix().counts[t];
      if (recurrences == 0) continue;
      const std::shared_ptr<const QueryPlan> plan = plan_for(a, t);
      engine::JobConfig config = plan->job.config;
      config.controller_overhead_seconds = controller_overhead_seconds;
      config.faults = round.faults;
      config.reduce_buckets = round.reduce_buckets;
      config.bucket_speculation = round.bucket_speculation;
      config.bucket_speculation_cap = round.bucket_speculation_cap;

      QueryExecution exec;
      exec.dataset_id = d.dataset_id();
      exec.query_type_spec = t;
      exec.kind = plan->job.spec.kind;
      exec.recurrences = recurrences;
      if (round.degrade == nullptr) {
        exec.result = run_plan(*plan, config, rng_);
      } else {
        run_degraded_query(round, a, t, *plan, config, exec);
      }
      executions.push_back(std::move(exec));
    }
  }
  return executions;
}

engine::JobResult Controller::run_single_query(
    std::size_t dataset, std::size_t type_spec,
    const engine::ReduceBucketMap* reduce_buckets, Rng& rng) const {
  const std::shared_ptr<const QueryPlan> plan = plan_for(dataset, type_spec);
  engine::JobConfig config = plan->job.config;
  config.controller_overhead_seconds = 0.0;
  config.reduce_buckets = reduce_buckets;
  return run_plan(*plan, config, rng);
}

void Controller::run_degraded_query(const QueryRound& round, std::size_t a,
                                    std::size_t t, const QueryPlan& plan,
                                    const engine::JobConfig& config,
                                    QueryExecution& exec) {
  const DegradationService& degrade = *round.degrade;
  const DegradeOptions& opts = degrade.options();
  const std::size_t n = topology_.site_count();

  const auto shuffle_makespan = [](const engine::JobResult& jr) {
    double makespan = 0.0;
    for (const auto& s : jr.sites) {
      makespan = std::max(makespan, s.shuffle_finish_seconds);
    }
    return makespan;
  };

  DeadlineBudget budget(opts.deadline);
  // Probe phase: the modeled health sweep that establishes which sites
  // answer at all (control-plane cost, cheap by construction).
  budget.run_phase(QueryPhase::kProbe, [&](std::size_t, double) {
    return 5e-4 * static_cast<double>(n);
  });

  // Shuffle phase: run the job; a timed-out attempt retries against the
  // fault plan re-based to the time already spent, modeling waiting out
  // a fault window. With an empty plan the first attempt always fits,
  // so exactly one run_job call happens — the pristine path bit for bit.
  engine::JobResult jr;
  net::FaultPlan shifted_storage;
  const net::FaultPlan* used_plan = round.faults;
  const PhaseOutcome& sh = budget.run_phase(
      QueryPhase::kShuffle, [&](std::size_t attempt, double offset) {
        if (attempt > 0 && round.faults != nullptr) {
          shifted_storage = round.faults->shifted_by(offset);
          used_plan = &shifted_storage;
        }
        engine::JobConfig jc = config;
        jc.faults = used_plan;
        jr = run_plan(plan, jc, rng_);
        return shuffle_makespan(jr);
      });
  const double makespan = std::min(shuffle_makespan(jr), sh.window_seconds);

  // Reduce phase: charge the reduce tail of the last attempt.
  const PhaseOutcome& rd = budget.run_phase(
      QueryPhase::kReduce, [&](std::size_t, double) {
        return std::max(0.0, jr.qct_seconds - shuffle_makespan(jr));
      });

  if (budget.escalated()) {
    // The budget is gone: close the round at the deadline. Re-run the
    // last attempt with a finite reduce deadline so the engine drops
    // the buckets/shares that cannot finish — QCT is bounded by the
    // budget instead of the fault horizon.
    engine::JobConfig jc = config;
    jc.faults = used_plan;
    jc.reduce_deadline_seconds =
        std::max(1e-9, makespan + rd.window_seconds);
    jr = run_plan(plan, jc, rng_);
    jr.qct_seconds = std::min(jr.qct_seconds, budget.spent_seconds());
  }
  exec.result = jr;

  // Value plane: which sites' data is reachable this round.
  std::vector<bool> all_ok;
  const std::vector<bool>* ok = round.site_usable;
  if (ok == nullptr) {
    all_ok.assign(n, true);
    ok = &all_ok;
  }
  DegradedAnswer ans = degrade.answer(a, t, *ok);
  ans.round = round.round_index;

  // Fold the engine's partial close-out into the answer: an "exact"
  // answer whose reduce dropped work is only coverage-exact.
  const std::size_t total_partitions =
      round.reduce_buckets != nullptr
          ? round.reduce_buckets->bucket_count()
          : n;
  const double dropped = std::min(1.0, jr.reduce_dropped_fraction);
  const std::size_t dropped_parts = std::min(
      total_partitions,
      static_cast<std::size_t>(dropped * static_cast<double>(
                                             total_partitions) +
                               0.5));
  if (ans.mode == AnswerMode::kSubstituted ||
      ans.mode == AnswerMode::kPrior) {
    ans.partitions_substituted =
        static_cast<std::uint32_t>(total_partitions);
  } else {
    ans.partitions_dropped = static_cast<std::uint32_t>(dropped_parts);
    ans.partitions_exact =
        static_cast<std::uint32_t>(total_partitions - dropped_parts);
    if (jr.reduce_partial && dropped > 0.0 &&
        ans.mode == AnswerMode::kExact) {
      // The surviving buckets are an unbiased sample, so the value
      // keeps its rescaled estimate, but certainty is gone.
      ans.mode = AnswerMode::kPartial;
      ans.coverage = std::min(ans.coverage, 1.0 - dropped);
      ans.error_estimate = std::min(
          1.0, opts.error_floor +
                   dropped * (1.0 - opts.partial_skew_weight));
    }
  }

  std::size_t attempts_total = 0;
  for (const PhaseOutcome& o : budget.outcomes()) {
    attempts_total += o.attempts;
  }
  ans.retries =
      static_cast<std::uint32_t>(attempts_total - budget.outcomes().size());
  for (const PhaseOutcome& o : budget.outcomes()) {
    if (o.verdict == PhaseVerdict::kEscalated) {
      ans.escalated_phase = static_cast<std::uint8_t>(o.phase);
      break;
    }
  }
  ans.qct_seconds = exec.result.qct_seconds;
  exec.degraded = ans;
}

}  // namespace bohr::core
