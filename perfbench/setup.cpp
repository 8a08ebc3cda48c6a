#include "setup.h"

#include <filesystem>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "core/checkpoint.h"

namespace perfbench {

namespace bc = bohr::core;

namespace {

const std::vector<std::string> kOlapBuildPhases = {"cube.add_rows",
                                                   "cube.columns_build"};

/// Runs `step` under a span and adds its host seconds to `total`.
template <typename Fn>
void timed_step(const char* span, double& total, Fn&& step) {
  ScopedSpan s(span);
  const double t0 = now_seconds();
  step();
  total += now_seconds() - t0;
}

}  // namespace

bc::ExperimentConfig paper_config(bohr::workload::WorkloadKind kind,
                                  std::size_t datasets,
                                  std::size_t rows_per_site,
                                  std::uint64_t seed, std::size_t input) {
  bc::ExperimentConfig cfg;
  cfg.workload = kind;
  cfg.n_datasets = datasets;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = rows_per_site;
  cfg.generator.gb_per_site = 40.0 / static_cast<double>(datasets);
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.probe_k = 30;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = bohr::hash_combine(seed, input + 1);
  return cfg;
}

PreparedController timed_setup(const bc::ExperimentConfig& config,
                               const SetupHooks& hooks) {
  const double scale = reference_scale();
  ScopedSpan setup_span("setup");
  const PhaseTotals before = PhaseTotals::take();
  double seconds = 0.0;
  std::optional<bc::Controller> controller;
  timed_step("core.make_controller", seconds, [&] {
    controller.emplace(bc::make_controller(config, bc::Strategy::Bohr));
  });
  if (hooks.after_make) hooks.after_make(*controller);

  bc::PrepareProgress progress = controller->start_prepare();
  timed_step("core.step_similarity", seconds,
             [&] { controller->step_similarity(progress); });
  timed_step("core.step_placement", seconds,
             [&] { controller->step_placement(progress); });
  if (hooks.after_placement) hooks.after_placement(*controller, progress);
  timed_step("core.step_plan_movement", seconds,
             [&] { controller->step_plan_movement(progress); });
  timed_step("core.step_execute_movement", seconds,
             [&] { controller->step_execute_movement(progress); });
  if (hooks.after_movement) hooks.after_movement(*controller, progress);

  bc::PrepareProgress completed = progress;
  controller->finish_prepare(std::move(progress));
  const PhaseTotals after = PhaseTotals::take();

  std::size_t rows = completed.report.rows_moved;
  for (const bc::DatasetState& d : controller->datasets()) {
    for (std::size_t s = 0; s < d.site_count(); ++s) rows += d.rows_at(s).size();
  }
  return PreparedController{
      std::move(*controller), std::move(completed), seconds, scale,
      PhaseTotals::delta(before, after, kOlapBuildPhases).first, rows};
}

void SetupStats::add(const PreparedController& prepared) {
  seconds.push_back(prepared.setup_seconds);
  scaled_seconds.push_back(prepared.setup_seconds / prepared.host_scale);
  olap_build_seconds.push_back(prepared.olap_build_seconds);
  rows_inserted.push_back(static_cast<double>(prepared.rows_inserted));
  reports.push_back(prepared.progress.report);
}

void SetupStats::add_layer_metrics(std::vector<Metric>& out) const {
  std::vector<double> probe_mb, lp_iterations, lp_rounds, lp_peak_mb,
      predicted, moved_gb, rows_moved;
  for (const bc::PrepareReport& r : reports) {
    probe_mb.push_back(r.probe_bytes / 1e6);
    lp_iterations.push_back(static_cast<double>(r.decision.lp_iterations));
    lp_rounds.push_back(
        static_cast<double>(r.decision.alternation_rounds.size()));
    lp_peak_mb.push_back(static_cast<double>(r.decision.lp_peak_bytes) / 1e6);
    predicted.push_back(r.decision.predicted_shuffle_seconds);
    moved_gb.push_back(r.bytes_moved / 1e9);
    rows_moved.push_back(static_cast<double>(r.rows_moved));
  }
  const Tracer& t = tracer();
  out.push_back({"olap.build_s", median(olap_build_seconds), "s"});
  out.push_back({"olap.rows_inserted", median(rows_inserted), "count"});
  out.push_back({"similarity.probe_s",
                 median(t.self_seconds("core.step_similarity")), "s"});
  out.push_back({"similarity.probe_mb", median(probe_mb), "MB"});
  out.push_back({"placement.solve_s",
                 median(t.self_seconds("core.step_placement")), "s"});
  out.push_back({"lp.iterations", median(lp_iterations), "count"});
  out.push_back({"lp.rounds", median(lp_rounds), "count"});
  out.push_back({"lp.peak_mb", median(lp_peak_mb), "MB"});
  out.push_back({"placement.predicted_shuffle_s", median(predicted), "s"});
  out.push_back({"movement.plan_s",
                 median(t.self_seconds("core.step_plan_movement")), "s"});
  out.push_back({"movement.execute_s",
                 median(t.self_seconds("core.step_execute_movement")), "s"});
  out.push_back({"movement.moved_gb", median(moved_gb), "GB"});
  out.push_back({"movement.rows_moved", median(rows_moved), "count"});
}

void EngineTally::add(const bohr::engine::JobResult& result) {
  for (const auto& site : result.sites) {
    rows_in += static_cast<double>(site.input_records);
    shuffle_records += static_cast<double>(site.shuffle_records);
    exchanged_records += static_cast<double>(site.exchanged_records);
  }
  shuffle_bytes += result.total_shuffle_bytes();
  shuffle_retries += static_cast<double>(result.shuffle_retries);
  shuffle_interruptions += static_cast<double>(result.shuffle_interruptions);
  flows_failed += static_cast<double>(result.shuffle_flows_failed);
  shuffle_seconds.push_back(result.shuffle_seconds);
}

void EngineTally::add_engine_metrics(std::vector<Metric>& out) const {
  out.push_back({"engine.rows_in", rows_in, "count"});
  out.push_back({"engine.shuffle_gb", shuffle_bytes / 1e9, "GB"});
  out.push_back({"engine.shuffle_records", shuffle_records, "count"});
  out.push_back({"engine.shuffle_s_p50", median(shuffle_seconds), "s"});
  out.push_back({"engine.exchanged_records", exchanged_records, "count"});
}

void EngineTally::add_net_metrics(std::vector<Metric>& out) const {
  out.push_back({"net.shuffle_retries", shuffle_retries, "count"});
  out.push_back({"net.shuffle_interruptions", shuffle_interruptions, "count"});
  out.push_back({"net.flows_failed", flows_failed, "count"});
}

std::size_t span_each_query_type(const bc::Controller& controller) {
  std::size_t executed = 0;
  for (std::size_t a = 0; a < controller.datasets().size(); ++a) {
    const auto& counts = controller.datasets()[a].mix().counts;
    for (std::size_t t = 0; t < counts.size(); ++t) {
      if (counts[t] == 0) continue;
      bohr::Rng rng(bohr::hash_combine(a, t));
      ScopedSpan span("core.run_single_query");
      controller.run_single_query(a, t, nullptr, rng);
      ++executed;
    }
  }
  return executed;
}

void add_trace_metrics(std::vector<Metric>& out, const MixThroughput& traced,
                       const MixThroughput& untraced) {
  out.push_back({"trace.host_qps", traced.qps(), "queries/s"});
  out.push_back({"trace.untraced_qps", untraced.qps(), "queries/s"});
  out.push_back(
      {"trace.overhead_qps", untraced.qps() - traced.qps(), "queries/s"});
}

void add_query_span_metrics(std::vector<Metric>& out) {
  const std::vector<double> self = tracer().self_seconds("core.run_single_query");
  out.push_back({"query.host_us_p50", 1e6 * percentile(self, 0.50), "us"});
  out.push_back({"query.host_us_p99", 1e6 * percentile(self, 0.99), "us"});
}

void checkpoint_round_trip(const PreparedController& prepared,
                           const bc::ExperimentConfig& config,
                           const std::string& dir, CheckLog& checks,
                           std::vector<Metric>& out) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  double snapshot_s = 0.0;
  {
    bc::CheckpointManager manager(dir);
    ScopedSpan span("core.CheckpointManager.snapshot");
    const double t0 = now_seconds();
    manager.snapshot(prepared.controller, prepared.progress);
    snapshot_s = now_seconds() - t0;
  }
  const std::uint64_t bytes = dir_bytes(dir);
  bc::Controller fresh = bc::make_controller(config, bc::Strategy::Bohr);
  double recover_s = 0.0;
  bc::RecoveryResult recovered;
  {
    ScopedSpan span("core.RecoveryManager.recover");
    const double t0 = now_seconds();
    recovered = bc::RecoveryManager(dir).recover(fresh);
    recover_s = now_seconds() - t0;
  }
  const bool complete =
      recovered.recovered &&
      recovered.progress.completed_steps == bc::Controller::kPrepareStepCount;
  checks.expect(complete, "checkpoint round trip: snapshot not recovered");
  if (complete) {
    fresh.finish_prepare(std::move(recovered.progress));
    checks.expect(bc::serialize_prepare_report(fresh.prepare_report()) ==
                      bc::serialize_prepare_report(prepared.progress.report),
                  "checkpoint round trip: prepare report differs");
  }
  fs::remove_all(dir);
  out.push_back({"checkpoint.snapshots", 1.0, "count"});
  out.push_back({"checkpoint.mb_written", static_cast<double>(bytes) / 1e6, "MB"});
  out.push_back({"checkpoint.snapshot_s", snapshot_s, "s"});
  out.push_back({"checkpoint.recover_s", recover_s, "s"});
}

}  // namespace perfbench
