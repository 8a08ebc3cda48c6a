// Span recorder, Chrome trace writer and small measurement helpers.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <unordered_map>

#include "bench.h"
#include "common/phase_timer.h"

namespace perfbench {

void CheckLog::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 32) failures.push_back(what);
  }
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double Tracer::now_us() const { return now_seconds() * 1e6; }

int Tracer::begin(std::string_view name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Spans close in LIFO order on the single benchmark thread.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> Tracer::self_seconds(std::string_view name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const double self = spans_[i].end_us - spans_[i].start_us - child_us[i];
    out.push_back(std::max(0.0, self) * 1e-6);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_us - origin,
                 s.end_us - s.start_us, i, s.parent);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

namespace {

/// Median kernel time on the machine the benchmark was tuned on
/// (Intel Xeon, 2.1 GHz, 4 vCPU); any constant would do.
constexpr double kNominalReferenceSeconds = 0.021;

std::vector<double>& scales() {
  static std::vector<double> all;
  return all;
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

volatile double g_reference_sink = 0.0;

void reference_kernel() {
  std::uint64_t x = 42;
  std::vector<std::uint64_t> v(1 << 17);
  for (auto& e : v) e = splitmix(x);
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1 << 16);
  for (std::size_t i = 0; i < v.size(); i += 2) table[v[i] >> 20] += i;
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += static_cast<double>(v[i] & 0xFFFF) * 1e-3 /
           (1.0 + static_cast<double>(i & 7));
  }
  g_reference_sink = g_reference_sink + acc + static_cast<double>(table.size());
}

}  // namespace

double reference_scale() {
  const double t0 = now_seconds();
  reference_kernel();
  const double scale = (now_seconds() - t0) / kNominalReferenceSeconds;
  scales().push_back(scale);
  return scale;
}

const std::vector<double>& reference_scales() { return scales(); }

void MixThroughput::add(std::size_t input, double queries,
                        double scaled_seconds) {
  queries_.at(input) = queries;
  seconds_.at(input).push_back(scaled_seconds);
}

bool MixThroughput::complete() const {
  return std::none_of(seconds_.begin(), seconds_.end(),
                      [](const std::vector<double>& s) { return s.empty(); });
}

double MixThroughput::qps() const {
  if (!complete()) return 0.0;
  double queries = 0.0, seconds = 0.0;
  for (std::size_t j = 0; j < seconds_.size(); ++j) {
    queries += queries_[j];
    seconds += median(seconds_[j]);
  }
  return queries / seconds;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

PhaseTotals PhaseTotals::take() {
  PhaseTotals t;
  for (const bohr::PhaseTotal& p : bohr::phase_snapshot()) {
    t.by_name[p.name] = {p.seconds, p.samples};
  }
  return t;
}

std::pair<double, std::uint64_t> PhaseTotals::delta(
    const PhaseTotals& before, const PhaseTotals& after,
    const std::vector<std::string>& prefixes) {
  double seconds = 0.0;
  std::uint64_t samples = 0;
  for (const auto& [name, total] : after.by_name) {
    const bool wanted = std::any_of(
        prefixes.begin(), prefixes.end(),
        [&](const std::string& p) { return name.rfind(p, 0) == 0; });
    if (!wanted) continue;
    double s0 = 0.0;
    std::uint64_t n0 = 0;
    if (const auto it = before.by_name.find(name); it != before.by_name.end()) {
      s0 = it->second.first;
      n0 = it->second.second;
    }
    seconds += total.first - s0;
    samples += total.second - n0;
  }
  return {seconds, samples};
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::uint64_t total = 0;
  if (!fs::exists(dir, ec)) return 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
