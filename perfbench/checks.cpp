#include "checks.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <variant>

#include "core/placement.h"
#include "olap/cube_algebra.h"

namespace perfbench {

namespace bc = bohr::core;

namespace {

/// Relative tolerance for totals the program sums in another order.
constexpr double kRelTol = 1e-9;

bool close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max(1.0, std::abs(b));
}

}  // namespace

double raw_measure_total(const bohr::workload::DatasetBundle& bundle) {
  const auto& measure = bundle.cube_spec.measure_attr;
  double total = 0.0;
  for (const auto& rows : bundle.site_rows) {
    for (const bohr::olap::Row& row : rows) {
      if (!measure) {
        total += 1.0;
        continue;
      }
      const auto& v = row.at(*measure);
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        total += static_cast<double>(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        total += *d;
      } else {
        return std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return total;
}

std::vector<double> raw_totals(const bc::Controller& controller) {
  std::vector<double> out;
  for (const bc::DatasetState& d : controller.datasets()) {
    out.push_back(raw_measure_total(d.bundle()));
  }
  return out;
}

std::vector<double> cube_totals(const bc::Controller& controller) {
  std::vector<double> out;
  for (const bc::DatasetState& d : controller.datasets()) {
    double sum = 0.0;
    for (std::size_t s = 0; s < d.site_count(); ++s) {
      sum += bohr::olap::cube_totals(d.cubes_at(s).base_cube()).sum;
    }
    out.push_back(sum);
  }
  return out;
}

std::vector<std::size_t> row_counts(const bc::Controller& controller) {
  std::vector<std::size_t> out;
  for (const bc::DatasetState& d : controller.datasets()) {
    std::size_t rows = 0;
    for (std::size_t s = 0; s < d.site_count(); ++s) rows += d.rows_at(s).size();
    out.push_back(rows);
  }
  return out;
}

double no_move_shuffle_seconds(const bc::Controller& controller) {
  const bc::PlacementProblem problem = controller.build_placement_problem();
  const std::size_t sites = problem.topology.site_count();
  bc::PlacementDecision stay;
  stay.move_bytes.assign(
      problem.datasets.size(),
      std::vector<std::vector<double>>(sites, std::vector<double>(sites, 0.0)));
  stay.reduce_fractions =
      bc::solve_task_placement(problem, stay.move_bytes).reduce_fractions;
  return bc::predicted_shuffle_seconds(problem, stay);
}

bool totals_equal(const std::vector<double>& program,
                  const std::vector<double>& raw) {
  if (program.size() != raw.size()) return false;
  for (std::size_t a = 0; a < raw.size(); ++a) {
    if (!std::isfinite(raw[a]) || !close(program[a], raw[a])) return false;
  }
  return true;
}

bool rows_conserved(const std::vector<std::size_t>& before,
                    const std::vector<std::size_t>& after) {
  return before == after;
}

bool fractions_valid(const std::vector<double>& fractions) {
  double sum = 0.0;
  for (const double f : fractions) {
    if (!(f >= 0.0)) return false;
    sum += f;
  }
  return !fractions.empty() && std::abs(sum - 1.0) <= 1e-9;
}

bool joint_no_worse(double joint_seconds, double no_move_seconds) {
  return joint_seconds <= no_move_seconds * (1.0 + kRelTol);
}

bool served_exactly_once(const std::vector<bohr::serve::QueryArrival>& arrivals,
                         const std::vector<bohr::serve::QueryBatch>& batches,
                         const bohr::serve::ServeReport& report,
                         std::size_t tenants) {
  std::vector<std::size_t> seen(arrivals.size(), 0);
  for (const auto& batch : batches) {
    for (const std::size_t qi : batch.queries) {
      if (qi >= arrivals.size() || arrivals[qi].tenant != batch.tenant) {
        return false;
      }
      ++seen[qi];
    }
  }
  for (const std::size_t n : seen) {
    if (n != 1) return false;
  }
  std::vector<std::size_t> per_tenant(tenants, 0);
  for (const auto& q : arrivals) {
    if (q.tenant >= tenants) return false;
    ++per_tenant[q.tenant];
  }
  if (report.tenant_summary.size() != tenants ||
      report.queries != arrivals.size() ||
      report.qct.count() != arrivals.size() ||
      report.batches != batches.size()) {
    return false;
  }
  for (std::size_t t = 0; t < tenants; ++t) {
    if (report.tenant_summary[t].count != per_tenant[t]) return false;
  }
  return true;
}

bool percentiles_ordered(const bohr::LatencySummary& s) {
  return s.count > 0 && s.p50_seconds <= s.p99_seconds &&
         s.p99_seconds <= s.max_seconds;
}

bool answer_within_bound(const bc::DegradedAnswer& answer, double raw_total) {
  if (!std::isfinite(raw_total)) return false;
  switch (answer.mode) {
    case bc::AnswerMode::kExact:
      return close(answer.value, raw_total);
    case bc::AnswerMode::kPartial:
    case bc::AnswerMode::kSubstituted:
      return std::abs(answer.value - raw_total) <=
             answer.error_estimate * std::abs(raw_total) +
                 kRelTol * std::max(1.0, std::abs(raw_total));
    case bc::AnswerMode::kPrior:
      return true;  // metadata-only estimate, error bound 1 by definition
  }
  return false;
}

}  // namespace perfbench
