// Reusable latency recording for percentile + throughput reporting.
//
// The experiment harness historically reported only means (avg QCT), which
// hides exactly the behaviour a serving system is judged on: the tail.
// LatencyRecorder keeps every per-query sample so reports can state
// p50/p95/p99/max and a throughput, pools exactly across runs of unequal
// size (a 1000-query run outweighs a 10-query run by its count, not 1:1),
// and digests the sample stream byte for byte so same-seed runs — at any
// thread count — can be compared for bit-identity.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace bohr {

/// One latency distribution, summarized. All fields are 0 for an empty
/// recorder (and throughput is 0 whenever the duration is not positive).
struct LatencySummary {
  std::size_t count = 0;
  double duration_seconds = 0.0;
  double throughput_qps = 0.0;  ///< count / duration
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Accumulates per-query latency samples in insertion order.
///
/// Determinism contract: callers add samples in a canonical order (query
/// sequence, never thread completion order), so digest() is bit-identical
/// across same-seed runs at any thread count. merge() appends the other
/// recorder's samples in their insertion order.
class LatencyRecorder {
 public:
  void add(double seconds);
  void merge(const LatencyRecorder& other);

  std::size_t count() const { return samples_.size(); }
  const std::vector<double>& samples() const { return samples_; }
  const RunningStats& stats() const { return stats_; }
  double mean() const { return stats_.mean(); }

  /// Percentiles over all samples plus throughput against `duration`.
  LatencySummary summarize(double duration_seconds) const;

  /// CRC-32 over the samples' IEEE-754 bit patterns in insertion order.
  std::uint32_t digest() const;

  /// Flat byte image (u64 count + f64 samples) and its inverse;
  /// round-trips digest() exactly. Used by the churn checkpoint image.
  /// deserialize throws DecodeError (a ContractViolation) on a malformed
  /// image.
  std::string serialize() const;
  static LatencyRecorder deserialize(std::string_view image);

 private:
  std::vector<double> samples_;
  RunningStats stats_;
};

}  // namespace bohr
