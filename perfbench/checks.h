// Correctness checks of the benchmark. Each takes plain values so the
// self-test can feed it a deliberately perturbed input; the expected
// values are computed here, apart from the layer under test, or are
// properties the method must have.
#pragma once

#include <cstddef>
#include <vector>

#include "common/latency.h"
#include "core/controller.h"
#include "core/degrade.h"
#include "serve/server.h"
#include "workload/dataset.h"

namespace perfbench {

/// Sum of the cube measure over every raw row of a dataset (1 per row
/// when the cube counts records), read straight from the row values —
/// no cube code involved. NaN if a measure is not numeric.
double raw_measure_total(const bohr::workload::DatasetBundle& bundle);
std::vector<double> raw_totals(const bohr::core::Controller& controller);

/// Grand total of each dataset's base cubes, summed over sites.
std::vector<double> cube_totals(const bohr::core::Controller& controller);

/// Rows of each dataset, summed over sites.
std::vector<std::size_t> row_counts(const bohr::core::Controller& controller);

/// Predicted shuffle seconds of moving nothing, with the best reduce
/// placement `solve_task_placement` finds for the unmoved data.
double no_move_shuffle_seconds(const bohr::core::Controller& controller);

bool totals_equal(const std::vector<double>& program,
                  const std::vector<double>& raw);
bool rows_conserved(const std::vector<std::size_t>& before,
                    const std::vector<std::size_t>& after);
bool fractions_valid(const std::vector<double>& fractions);
bool joint_no_worse(double joint_seconds, double no_move_seconds);

/// Every arrival lands in exactly one admission batch and every tenant
/// gets exactly as many latency samples as it had arrivals.
bool served_exactly_once(const std::vector<bohr::serve::QueryArrival>& arrivals,
                         const std::vector<bohr::serve::QueryBatch>& batches,
                         const bohr::serve::ServeReport& report,
                         std::size_t tenants);
bool percentiles_ordered(const bohr::LatencySummary& summary);

/// Exact answers equal the raw total; partial and substituted answers
/// lie within their reported relative error bound of it.
bool answer_within_bound(const bohr::core::DegradedAnswer& answer,
                         double raw_total);

}  // namespace perfbench
