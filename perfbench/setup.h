// Timed set-up shared by the workloads: make_controller plus the four
// staged prepare steps, each under its own span.
#pragma once

#include <functional>
#include <vector>

#include "bench.h"
#include "core/controller.h"
#include "core/experiment.h"

namespace perfbench {

/// The configuration every repository bench starts from (the paper's
/// 10-site topology, 125 MB/s base tier, 60 s lag, 30 probe records,
/// 24-record partitions, 4 executors), with 40 GB per site split over
/// `datasets` datasets. Input set `input` of run seed `seed` gets its own
/// generator seed.
bohr::core::ExperimentConfig paper_config(bohr::workload::WorkloadKind kind,
                                          std::size_t datasets,
                                          std::size_t rows_per_site,
                                          std::uint64_t seed,
                                          std::size_t input);

struct PreparedController {
  bohr::core::Controller controller;
  /// The completed prepare progress (what a snapshot of this state
  /// carries).
  bohr::core::PrepareProgress progress;
  /// Host seconds of make_controller and the four steps; the hooks run
  /// between the timed calls and are not counted.
  double setup_seconds = 0.0;
  /// reference_scale() measured right before the set-up.
  double host_scale = 1.0;
  /// Host seconds of the cube.add_rows and cube.columns_build phases
  /// inside those calls.
  double olap_build_seconds = 0.0;
  /// Rows inserted into cubes: every generated row, plus every moved row
  /// again at its destination.
  std::size_t rows_inserted = 0;
};

/// Untimed callbacks between the set-up calls, for the checks that need
/// the controller's state before or after a step.
struct SetupHooks {
  std::function<void(const bohr::core::Controller&)> after_make;
  std::function<void(const bohr::core::Controller&,
                     const bohr::core::PrepareProgress&)>
      after_placement;
  std::function<void(const bohr::core::Controller&,
                     const bohr::core::PrepareProgress&)>
      after_movement;
};

PreparedController timed_setup(const bohr::core::ExperimentConfig& config,
                               const SetupHooks& hooks = {});

/// Everything the set-ups of one run measured.
struct SetupStats {
  std::vector<double> seconds;
  std::vector<double> scaled_seconds;
  std::vector<double> olap_build_seconds;
  std::vector<double> rows_inserted;
  std::vector<bohr::core::PrepareReport> reports;

  void add(const PreparedController& prepared);
  /// setup_s: the median set-up time at the nominal host speed.
  double median_seconds() const { return median(scaled_seconds); }
  /// The olap, similarity, placement, lp and movement layer metrics:
  /// medians per set-up, step times as span self times.
  void add_layer_metrics(std::vector<Metric>& out) const;
};

/// Engine and net counters summed over executed queries.
struct EngineTally {
  double rows_in = 0.0;
  double shuffle_bytes = 0.0;
  double shuffle_records = 0.0;
  double exchanged_records = 0.0;
  double shuffle_retries = 0.0;
  double shuffle_interruptions = 0.0;
  double flows_failed = 0.0;
  std::vector<double> shuffle_seconds;

  void add(const bohr::engine::JobResult& result);
  void add_engine_metrics(std::vector<Metric>& out) const;
  void add_net_metrics(std::vector<Metric>& out) const;
};

/// One span per (dataset, type) of the query mix, around run_single_query
/// on the prepared state: the per-query host time of a workload whose
/// query phase runs in batch calls. Returns the queries executed.
std::size_t span_each_query_type(const bohr::core::Controller& controller);

/// query.host_us_p50 / _p99 from the self times of the per-query spans.
void add_query_span_metrics(std::vector<Metric>& out);

/// trace.host_qps, trace.untraced_qps and their difference, the tracing
/// overhead.
void add_trace_metrics(std::vector<Metric>& out, const MixThroughput& traced,
                       const MixThroughput& untraced);

/// Snapshots a prepared controller into `dir`, recovers it into a fresh
/// controller built from the same config, and checks that the recovered
/// prepare report is byte-identical. Adds the checkpoint.* metrics.
void checkpoint_round_trip(const PreparedController& prepared,
                           const bohr::core::ExperimentConfig& config,
                           const std::string& dir, CheckLog& checks,
                           std::vector<Metric>& out);

}  // namespace perfbench
