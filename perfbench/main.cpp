// bohr_perfbench — one workload per process.
//
//   bohr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE]
//   bohr_perfbench --self-test --work-dir DIR
//
// Prints a readable report on stderr and, as the last line of stdout,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. Exit 0 when every correctness
// check passed, 1 when one failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/parallel.h"
#include "core/experiment.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using NameUnit = std::pair<const char*, const char*>;

// The metric names and units of BENCHMARK.json, in its order.
const std::vector<NameUnit> kEndToEnd = {
    {"host_qps", "queries/s"}, {"setup_s", "s"},  {"qct_p50_s", "s"},
    {"qct_p99_s", "s"},        {"wan_gb", "GB"},  {"peak_rss_mb", "MB"},
};

const std::vector<NameUnit> kPerLayer = {
    {"olap.build_s", "s"},
    {"olap.rows_inserted", "count"},
    {"similarity.probe_s", "s"},
    {"similarity.probe_mb", "MB"},
    {"similarity.rdd_s", "s"},
    {"similarity.rdd_calls", "count"},
    {"placement.solve_s", "s"},
    {"lp.iterations", "count"},
    {"lp.rounds", "count"},
    {"lp.peak_mb", "MB"},
    {"placement.predicted_shuffle_s", "s"},
    {"movement.plan_s", "s"},
    {"movement.execute_s", "s"},
    {"movement.moved_gb", "GB"},
    {"movement.rows_moved", "count"},
    {"query.host_us_p50", "us"},
    {"query.host_us_p99", "us"},
    {"engine.rows_in", "count"},
    {"engine.shuffle_gb", "GB"},
    {"engine.shuffle_records", "count"},
    {"engine.shuffle_s_p50", "s"},
    {"engine.exchanged_records", "count"},
    {"net.shuffle_retries", "count"},
    {"net.shuffle_interruptions", "count"},
    {"net.flows_failed", "count"},
    {"serve.arrivals", "count"},
    {"serve.batches", "count"},
    {"serve.repeat_share", "share"},
    {"serve.qct_p99_r1", "s"},
    {"serve.qct_p99_r2", "s"},
    {"serve.qct_p99_r3", "s"},
    {"serve.qct_p99_r4", "s"},
    {"serve.qct_p99_r5", "s"},
    {"serve.backlog_s", "s"},
    {"serve.idle_qct_p50_s", "s"},
    {"serve.slo_qps", "queries/s"},
    {"migration.moves", "count"},
    {"migration.evacuations", "count"},
    {"degrade.exact", "count"},
    {"degrade.partial", "count"},
    {"degrade.substituted", "count"},
    {"degrade.prior", "count"},
    {"degrade.escalations", "count"},
    {"degrade.retries", "count"},
    {"checkpoint.snapshots", "count"},
    {"checkpoint.mb_written", "MB"},
    {"checkpoint.snapshot_s", "s"},
    {"checkpoint.recover_s", "s"},
    {"trace.host_qps", "queries/s"},
    {"trace.untraced_qps", "queries/s"},
    {"trace.overhead_qps", "queries/s"},
    {"trace.spans", "count"},
    {"host.reference_scale", "ratio"},
};

/// Orders the measured metrics as the schema lists them. A layer the
/// workload does not exercise reads 0; a name or unit outside the
/// schema, or a value that is not finite, fails a check.
std::vector<Metric> conform(const std::vector<Metric>& measured,
                            const std::vector<NameUnit>& schema,
                            CheckLog& checks) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : measured) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const auto& [name, unit] : schema) {
    Metric m{name, 0.0, unit};
    if (const auto it = by_name.find(name); it != by_name.end()) {
      checks.expect(it->second.unit == unit, "unit of " + m.name);
      checks.expect(std::isfinite(it->second.value), "finite " + m.name);
      if (std::isfinite(it->second.value)) m.value = it->second.value;
      by_name.erase(it);
    }
    out.push_back(m);
  }
  for (const auto& [name, m] : by_name) {
    checks.expect(false, "metric outside the schema: " + name);
  }
  return out;
}

void print_result(const RunArgs& args, RunResult& res) {
  const auto& schema = args.trace ? kPerLayer : kEndToEnd;
  const std::vector<Metric> metrics = conform(res.metrics, schema, res.checks);
  std::fprintf(stderr, "workload %s seed %llu trace %d: %zu queries, %zu/%zu "
               "checks failed\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, res.queries, res.checks.failed,
               res.checks.attempted);
  for (const std::string& f : res.checks.failures) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              res.checks.failed == 0 ? "true" : "false",
              res.queries + res.checks.attempted, res.checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

using WorkloadFn = RunResult (*)(const RunArgs&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "serve-recurring") return run_serve_recurring;
  if (name == "prepare-bulk") return run_prepare_bulk;
  if (name == "churn-faults") return run_churn_faults;
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: bohr_perfbench --workload "
               "serve-recurring|prepare-bulk|churn-faults --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n"
               "       bohr_perfbench --self-test --work-dir DIR\n",
               why);
  return 2;
}

// --- self-test: every check rejects a perturbed input -----------------

int run_self_test(const std::string& work_dir) {
  namespace bc = bohr::core;
  namespace bs = bohr::serve;
  CheckLog log;
  const auto accept = [&](bool ok, const char* what) {
    log.expect(ok, std::string("accepts ") + what);
  };
  const auto reject = [&](bool ok, const char* what) {
    log.expect(!ok, std::string("rejects ") + what);
  };

  bc::ExperimentConfig cfg;
  cfg.n_datasets = 3;
  cfg.generator.rows_per_site = 40;
  cfg.seed = 11;
  bc::Controller c = bc::make_controller(cfg, bc::Strategy::Bohr);

  // Totals: a raw total off by one row.
  const std::vector<double> raw = raw_totals(c);
  accept(totals_equal(cube_totals(c), raw), "matching cube totals");
  bohr::workload::DatasetBundle short_bundle = c.datasets()[0].bundle();
  for (auto& rows : short_bundle.site_rows) {
    if (!rows.empty()) {
      rows.pop_back();
      break;
    }
  }
  std::vector<double> off = raw;
  off[0] = raw_measure_total(short_bundle);
  reject(totals_equal(cube_totals(c), off), "a total off by one row");
  std::vector<std::size_t> rows = row_counts(c);
  accept(rows_conserved(rows, row_counts(c)), "conserved rows");
  std::vector<std::size_t> lost = rows;
  --lost[0];
  reject(rows_conserved(rows, lost), "a dataset that lost a row");

  // Fractions and placement.
  accept(fractions_valid({0.25, 0.75}), "fractions summing to 1");
  reject(fractions_valid({0.5, 0.4}), "fractions summing to 0.9");
  reject(fractions_valid({1.1, -0.1}), "a negative fraction");
  accept(joint_no_worse(1.0, 1.0), "a joint placement as good as staying");
  reject(joint_no_worse(1.01, 1.0), "a joint placement worse than staying");

  // Serving: a digest and a trace from another seed, a lost arrival.
  c.prepare();
  const auto serve_with = [&](std::uint64_t seed) {
    bs::ServeOptions o;
    o.arrivals.tenants = 3;
    o.arrivals.arrival_rate_qps = 0.5;
    o.arrivals.duration_seconds = 60.0;
    o.arrivals.seed = seed;
    o.migration_period_seconds = 0.0;
    return o;
  };
  std::vector<std::size_t> types;
  for (const auto& d : c.datasets()) types.push_back(d.bundle().query_types.size());
  const bs::ServeOptions o1 = serve_with(1);
  const auto arrivals = bs::generate_arrivals(o1.arrivals, types.size(), types);
  auto batches = bs::form_batches(arrivals, 3, o1.batching);
  const bs::ServeReport r1 = bs::run_serving(c, o1);
  const bs::ServeReport r2 = bs::run_serving(c, serve_with(2));
  accept(served_exactly_once(arrivals, batches, r1, 3), "a complete serving run");
  reject(served_exactly_once(arrivals, batches, r2, 3),
         "a serving report of another seed");
  reject(r1.qct.digest() == r2.qct.digest(), "a digest from another seed");
  accept(percentiles_ordered(r1.summary), "ordered percentiles");
  bohr::LatencySummary bad = r1.summary;
  bad.p50_seconds = bad.p99_seconds * 2.0 + 1.0;
  reject(percentiles_ordered(bad), "a p50 above the p99");
  for (auto& b : batches) {
    if (!b.queries.empty()) {
      b.queries.pop_back();
      break;
    }
  }
  reject(served_exactly_once(arrivals, batches, r1, 3), "a dropped arrival");

  // Degraded answers against the raw total.
  bc::DegradedAnswer exact;
  exact.value = raw[1];
  accept(answer_within_bound(exact, raw[1]), "an exact answer");
  const double one_row = raw[0] - off[0];  // measure of the dropped row
  reject(answer_within_bound(exact, raw[1] + one_row),
         "an exact answer off by one row");
  bc::DegradedAnswer partial;
  partial.mode = bc::AnswerMode::kPartial;
  partial.error_estimate = 0.1;
  partial.value = raw[1] * 1.05;
  accept(answer_within_bound(partial, raw[1]), "a partial answer inside its bound");
  partial.value = raw[1] * 1.2;
  reject(answer_within_bound(partial, raw[1]), "a partial answer outside its bound");

  // Every workload at a reduced size, traced and untraced.
  for (const char* w : {"serve-recurring", "prepare-bulk", "churn-faults"}) {
    for (const bool trace : {false, true}) {
      RunArgs args;
      args.workload = w;
      args.seed = 5;
      args.seconds = 0.0;
      args.trace = trace;
      args.reduced = true;
      args.work_dir = work_dir;
      tracer() = Tracer();
      tracer().set_enabled(trace);
      RunResult res = find_workload(w)(args);
      conform(res.metrics, trace ? kPerLayer : kEndToEnd, res.checks);
      log.expect(res.checks.failed == 0 && res.checks.attempted > 0,
                 std::string("reduced ") + w + (trace ? " traced" : "") +
                     " runs to its end with every check passing");
      for (const std::string& f : res.checks.failures) {
        std::fprintf(stderr, "  %s: %s\n", w, f.c_str());
      }
    }
  }

  for (const std::string& f : log.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::fprintf(stderr, "self-test: %zu of %zu checks passed\n",
               log.attempted - log.failed, log.attempted);
  return log.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool self_test = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed must be an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 0.0) || args.seconds > 3600.0) {
        return usage("--seconds must be in [0, 3600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(args.work_dir);
  bohr::set_thread_count(1);
  try {
    if (self_test) return run_self_test(args.work_dir);
    if (!have_seed || !have_seconds || !have_trace) {
      return usage("--seed, --seconds and --trace are required");
    }
    const WorkloadFn workload = find_workload(args.workload);
    if (workload == nullptr) {
      return usage(("unknown workload " + args.workload).c_str());
    }
    tracer().set_enabled(args.trace);
    RunResult res = workload(args);
    const double host_scale = median(reference_scales());
    std::fprintf(stderr, "host reference scale (median of %zu): %.4f\n",
                 reference_scales().size(), host_scale);
    if (args.trace) {
      res.metrics.push_back({"host.reference_scale", host_scale, "ratio"});
      res.metrics.push_back({"trace.spans",
                             static_cast<double>(tracer().spans().size()),
                             "count"});
      if (!args.trace_out.empty()) {
        res.checks.expect(tracer().write_chrome_json(args.trace_out),
                          "writing the trace to " + args.trace_out);
      }
    } else {
      res.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    }
    print_result(args, res);
    return res.checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
