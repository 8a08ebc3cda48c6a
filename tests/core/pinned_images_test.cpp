// Pinned byte images: every durable image, built from fixed inputs, must
// keep the exact size and CRC32 it had when these values were recorded.
// Round-trip tests cannot see a layout change that the writer and the
// reader make together; these can. A deliberate format change updates
// the pins (and bumps the module's version).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/crc32.h"
#include "common/latency.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/degrade.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "net/faults.h"
#include "net/site_health.h"
#include "olap/cube_io.h"

namespace bohr::core {
namespace {

namespace fs = std::filesystem;

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

void expect_pinned(const std::string& image, Pin pin) {
  EXPECT_EQ(image.size(), pin.size);
  EXPECT_EQ(crc32(image), pin.crc)
      << std::hex << "crc32 is 0x" << crc32(image);
}

DegradedAnswer answer(std::uint64_t round, AnswerMode mode, double value) {
  DegradedAnswer a;
  a.round = round;
  a.dataset = 2;
  a.spec = 5;
  a.mode = mode;
  a.value = value;
  a.exact_value = 100.0;
  a.error_estimate = 0.125;
  a.coverage = 0.625;
  a.similarity = mode == AnswerMode::kSubstituted ? 0.75 : 0.0;
  a.substitute_dataset =
      mode == AnswerMode::kSubstituted ? 1u : DegradedAnswer::kNoSubstitute;
  a.sites_usable = 7;
  a.sites_lost = 3;
  a.partitions_exact = 40;
  a.partitions_substituted = mode == AnswerMode::kSubstituted ? 9u : 0u;
  a.partitions_dropped = 2;
  a.escalated_phase = 1;
  a.retries = 4;
  a.qct_seconds = 31.25;
  return a;
}

TEST(PinnedImageTest, DegradedReport) {
  DegradedReport report;
  report.add(answer(0, AnswerMode::kPartial, 93.5));
  report.add(answer(1, AnswerMode::kSubstituted, 88.0));
  expect_pinned(report.serialize(), {260, 0x18dc5ebfu});
}

TEST(PinnedImageTest, LatencyRecorder) {
  LatencyRecorder rec;
  for (const double x : {0.5, 1.25, -3.0, 1e-9, 42.0}) rec.add(x);
  expect_pinned(rec.serialize(), {48, 0xbf040d67u});
}

TEST(PinnedImageTest, SiteHealthMonitor) {
  net::HealthOptions opts;
  opts.dead_after_misses = 2;
  net::SiteHealthMonitor monitor(3, opts);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{1, 0.0, 2.5});
  plan.slowdowns.push_back(net::SiteSlowdown{2, 0.0, 100.0, 4.0});
  for (int t = 0; t < 6; ++t) monitor.observe(plan, static_cast<double>(t));
  expect_pinned(monitor.serialize(), {168, 0x38fb1b59u});
}

TEST(PinnedImageTest, MigrationController) {
  std::vector<net::Site> sites;
  for (int i = 0; i < 4; ++i) {
    sites.push_back(
        net::Site{std::string(1, static_cast<char>('A' + i)), 100.0, 100.0});
  }
  const net::WanTopology topo(sites);
  net::FaultPlan plan;
  plan.outages.push_back(net::OutageWindow{2, 0.0, 25.0});
  plan.slowdowns.push_back(net::SiteSlowdown{1, 15.0, 1000.0, 5.0});
  MigrationController ctl(topo, std::vector<double>(4, 0.25));
  for (int r = 0; r < 5; ++r) ctl.step(plan, 10.0 * r);
  expect_pinned(ctl.serialize(), {1253, 0x9ee1c692u});
}

TEST(PinnedImageTest, CubeFile) {
  const olap::Dimension date("date", {{"day", 1}, {"month", 30}}, false);
  const olap::Dimension bucket("bucket", {{"base", 1}, {"b16", 16}}, true);
  olap::OlapCube cube({date, bucket, olap::Dimension("plain")});
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    cube.insert({rng.below(60), rng.below(256), rng.below(40)},
                rng.uniform(-5.0, 5.0));
  }
  std::ostringstream out;
  olap::write_cube(out, cube);
  expect_pinned(out.str(), {11406, 0x8cef4f1fu});
}

TEST(PinnedImageTest, PrepareReport) {
  PrepareReport report;
  report.similarity_seconds = 9.0;  // wall clock: canonicalized to zero
  report.probe_bytes = 4096.5;
  report.decision.move_bytes = {{{0.0, 1.5}, {2.5, 0.0}}, {{0.0, 3.0}}};
  report.decision.reduce_fractions = {0.25, 0.75};
  report.decision.predicted_shuffle_seconds = 12.75;
  report.decision.lp_seconds = 3.0;  // wall clock: canonicalized to zero
  report.decision.lp_iterations = 17;
  report.decision.lp_converged = true;
  report.movement_seconds = 8.5;
  report.bytes_moved = 1e9;
  report.rows_moved = 321;
  report.movement_within_lag = false;
  report.faults.outages_injected = 1;
  report.faults.degradations_injected = 2;
  report.faults.kills_injected = 3;
  report.faults.probe_pairs_lost = 4;
  report.faults.lp_fallbacks = 5;
  report.faults.movement_interruptions = 6;
  report.faults.movement_retries = 7;
  report.faults.movement_flows_failed = 8;
  report.faults.movement_replans = 9;
  report.faults.rows_truncated = 10;
  report.faults.deadline_shortfall_bytes = 2048.25;
  expect_pinned(serialize_prepare_report(report), {246, 0xb844da08u});
}

/// The newest snapshot's migration.bin of a small faulted churn run
/// that checkpoints after each of its three rounds.
std::string churn_image(bool migration) {
  ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 2;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 120;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 7;
  cfg.faults = net::parse_fault_plan(
      "outage:site=6,start=100,end=400;"
      "slow-site:site=2,start=150,end=520,factor=6");
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (migration ? "pinned-churn-mig" : "pinned-churn-own");
  fs::remove_all(dir);
  ChurnOptions churn;
  churn.rounds = 3;
  churn.migration = migration;
  churn.degrade = true;
  churn.checkpoint_dir = dir.string();
  const ChurnRunResult result = run_churn_experiment(cfg, churn);
  EXPECT_EQ(result.snapshots_written, 3u);
  std::ifstream in(dir / "snapshot-3" / "migration.bin", std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(PinnedImageTest, ChurnImageWithMigration) {
  expect_pinned(churn_image(true), {3258, 0xd2a8fe6eu});
}

TEST(PinnedImageTest, ChurnImageWithOwnHealthMonitor) {
  expect_pinned(churn_image(false), {2358, 0xb85f6bbfu});
}

}  // namespace
}  // namespace bohr::core
