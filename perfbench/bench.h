// Repository benchmark: shared declarations.
//
// One binary runs one workload per process (serve-recurring,
// prepare-bulk, churn-faults) against the program's public API, with all
// timed work on one worker thread. Host-time metrics come from
// std::chrono::steady_clock around calls into the program; modeled-time
// metrics come from the program's own deterministic reports. Spans are
// recorded by this benchmark's code only, around the public calls, and
// only in the traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- metrics ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness bookkeeping: every check is one attempted operation, a
/// failed check one failed operation.
struct CheckLog {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what);
};

struct RunResult {
  CheckLog checks;
  std::size_t queries = 0;  ///< simulated queries executed
  std::vector<Metric> metrics;
};

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch space for checkpoints
  std::string trace_out;   ///< Chrome trace JSON path (traced run)
  bool reduced = false;    ///< smoke-test sizes
};

RunResult run_serve_recurring(const RunArgs& args);
RunResult run_prepare_bulk(const RunArgs& args);
RunResult run_churn_faults(const RunArgs& args);


// --- tracing ---------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
};

/// In-memory span recorder. Single-threaded by design: every timed call
/// runs on the benchmark's one worker thread.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  int begin(std::string_view name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (seconds) of every span with this name: its duration
  /// minus the part its direct children cover.
  std::vector<double> self_seconds(std::string_view name) const;
  /// Chrome trace-event JSON ("X" complete events, one thread).
  bool write_chrome_json(const std::string& path) const;

 private:
  double now_us() const;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span; records nothing while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : id_(tracer().begin(name)) {}
  ~ScopedSpan() { tracer().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// --- small statistics helpers ----------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Host throughput over a fixed mix of input sets: each input's median
/// time (at the nominal host speed) over its repetitions, so neither one
/// slow repetition nor the number of repetitions that fit in the run
/// shifts the mix.
class MixThroughput {
 public:
  explicit MixThroughput(std::size_t inputs)
      : queries_(inputs, 0.0), seconds_(inputs) {}
  void add(std::size_t input, double queries, double scaled_seconds);
  /// Every input has at least one repetition.
  bool complete() const;
  /// Sum of queries over the sum of median seconds (0 when incomplete).
  double qps() const;

 private:
  std::vector<double> queries_;
  std::vector<std::vector<double>> seconds_;
};

/// Seconds since an arbitrary steady origin.
double now_seconds();

/// Wall seconds and call counts per phase_snapshot() name, so a layer's
/// share of a call can be read as the difference of two snapshots.
struct PhaseTotals {
  std::map<std::string, std::pair<double, std::uint64_t>> by_name;
  static PhaseTotals take();
  /// Sum over names starting with any of `prefixes` of (after - before).
  static std::pair<double, std::uint64_t> delta(
      const PhaseTotals& before, const PhaseTotals& after,
      const std::vector<std::string>& prefixes);
};

/// Host-speed reference. A shared host drifts in speed by tens of
/// percent over minutes, uniformly across workloads. Each timed sample
/// is therefore paired with one run of a fixed kernel that uses nothing
/// of the program (sorting, hashing and arithmetic over ~1 MB), timed
/// right before the sample. reference_scale() returns that kernel's time
/// over its nominal time: > 1 on a slow host. Host metrics report raw
/// time / scale, i.e. time at the nominal host speed; a change to the
/// program moves them as it moves raw time.
double reference_scale();
/// Every scale measured so far in this process.
const std::vector<double>& reference_scales();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Total bytes of regular files under `dir` (0 if absent).
std::uint64_t dir_bytes(const std::string& dir);

}  // namespace perfbench
