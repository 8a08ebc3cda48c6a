// Crash-safe checkpointing and recovery (ISSUE 4): a run killed at any
// phase boundary and restarted with recovery must produce a
// PrepareReport byte-identical to an uninterrupted run, corrupt
// snapshots must be rejected in favour of older intact ones, and a
// checkpoint directory with nothing usable must degrade to preparing
// from scratch — never to a wrong answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "sealed_snapshot.h"

namespace bohr::core {
namespace {

namespace fs = std::filesystem;

ExperimentConfig small_config() {
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
  cfg.seed = 5;
  return cfg;
}

/// Fresh directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string plain_prepare_image(const ExperimentConfig& cfg,
                                Strategy strategy = Strategy::Bohr) {
  Controller controller = make_controller(cfg, strategy);
  return serialize_prepare_report(controller.prepare());
}

/// Runs a checkpointed prepare that crashes after `phase`.
void crash_at(ExperimentConfig cfg, const std::string& phase,
              const std::string& dir, Strategy strategy = Strategy::Bohr) {
  cfg.faults.crash_after_phase = phase;
  Controller controller = make_controller(cfg, strategy);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints), CrashInjected);
}

/// Simulates the restarted process: recover what the checkpoint
/// directory holds, resume (or prepare from scratch), return the image.
std::string recover_and_finish(const ExperimentConfig& cfg,
                               const std::string& dir,
                               RecoveryResult* details = nullptr,
                               Strategy strategy = Strategy::Bohr) {
  Controller controller = make_controller(cfg, strategy);
  RecoveryManager recovery(dir);
  RecoveryResult found = recovery.recover(controller);
  if (details != nullptr) {
    details->recovered = found.recovered;
    details->snapshot_seq = found.snapshot_seq;
    details->snapshots_rejected = found.snapshots_rejected;
  }
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  const PrepareReport& report =
      found.recovered
          ? resume_prepare(controller, std::move(found.progress), checkpoints)
          : checkpointed_prepare(controller, checkpoints);
  return serialize_prepare_report(report);
}

TEST(RecoveryTest, CheckpointedPrepareMatchesPlainPrepare) {
  const ExperimentConfig cfg = small_config();
  const std::string dir = fresh_dir("ck-plain");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  const std::string staged =
      serialize_prepare_report(checkpointed_prepare(controller, checkpoints));
  EXPECT_EQ(staged, plain_prepare_image(cfg));
  EXPECT_EQ(checkpoints.snapshots_written(), Controller::kPrepareStepCount);
}

TEST(RecoveryTest, CrashAtEveryPhaseBoundaryRecoversByteIdentical) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::vector<std::string>& phases = prepare_phase_names();
  ASSERT_EQ(phases.size(), Controller::kPrepareStepCount);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE(phases[i]);
    const std::string dir = fresh_dir("ck-crash-" + phases[i]);
    crash_at(cfg, phases[i], dir);
    RecoveryResult details;
    EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
    EXPECT_TRUE(details.recovered);
    EXPECT_EQ(details.snapshot_seq, i + 1);  // newest = crash phase's
    EXPECT_EQ(details.snapshots_rejected, 0u);
  }
}

TEST(RecoveryTest, MidMovementRecoveryUnderTightLagTruncation) {
  // A tight deadline forces truncation and a reduce re-plan inside
  // step_execute_movement; a crash after movement_plan resumes straight
  // into that degraded path and must still match the fresh run.
  ExperimentConfig cfg = small_config();
  cfg.lag_seconds = 0.5;
  cfg.enforce_lag_deadline = true;
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-tight-lag");
  crash_at(cfg, "movement_plan", dir);
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 3u);
}

TEST(RecoveryTest, RecoveryWorksForCubelessStrategies) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg, Strategy::Iridium);
  const std::string dir = fresh_dir("ck-iridium");
  crash_at(cfg, "placement", dir, Strategy::Iridium);
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details, Strategy::Iridium),
            expected);
  EXPECT_TRUE(details.recovered);
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackToOlderIntactOne) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-fallback");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  // Flip one byte of the newest snapshot's state image on disk.
  const fs::path victim = fs::path(dir) / "snapshot-2" / "state.bin";
  ASSERT_TRUE(fs::exists(victim));
  std::fstream file(victim, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(100);
  char byte = 0;
  file.seekg(100);
  file.get(byte);
  file.seekp(100);
  file.put(static_cast<char>(byte ^ 0x20));
  file.close();

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, InjectedBitFlipRejectsSnapshotAndFallsBackToScratch) {
  ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-bitflip");
  // File 0 of the run is snapshot-1's state.bin; flipping a bit in it
  // while the manifest keeps the intended checksum models a lying disk.
  cfg.faults = net::parse_fault_plan("crash:phase=similarity;bit-flip:file=0");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints), CrashInjected);

  ExperimentConfig clean = small_config();
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(clean, dir, &details), expected);
  EXPECT_FALSE(details.recovered);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, TornManifestMeansTheSnapshotWasNeverCommitted) {
  ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);

  // Count the files one snapshot holds so the torn write can target the
  // manifest (the last file written) without hardcoding the layout.
  std::size_t files_per_snapshot = 0;
  {
    ExperimentConfig probe_cfg = cfg;
    probe_cfg.faults = net::parse_fault_plan("crash:phase=similarity");
    const std::string probe_dir = fresh_dir("ck-torn-probe");
    Controller controller = make_controller(probe_cfg, Strategy::Bohr);
    CheckpointManager checkpoints(probe_dir, 2, &controller.options().faults);
    EXPECT_THROW(checkpointed_prepare(controller, checkpoints),
                 CrashInjected);
    files_per_snapshot = checkpoints.files_written();
    ASSERT_GT(files_per_snapshot, 1u);
  }

  const std::string dir = fresh_dir("ck-torn");
  cfg.faults = net::parse_fault_plan(
      "crash:phase=similarity;torn-write:file=" +
      std::to_string(files_per_snapshot - 1) + ",fraction=0.5");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints), CrashInjected);

  ExperimentConfig clean = small_config();
  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(clean, dir, &details), expected);
  EXPECT_FALSE(details.recovered);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, PruningKeepsOnlyTheNewestSnapshots) {
  const ExperimentConfig cfg = small_config();
  const std::string dir = fresh_dir("ck-prune");
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(dir, 2, &controller.options().faults);
  checkpointed_prepare(controller, checkpoints);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot-1"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot-2"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-3" / "MANIFEST"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-4" / "MANIFEST"));
}

/// Offset of the retired bandwidth-estimate presence byte in state.bin:
/// magic, version, completed steps, four RNG words, the spare normal
/// and its flag.
constexpr std::size_t kBandwidthByteAt = 8 + 4 + 4 + 4 * 8 + 8 + 1;

TEST(RecoveryTest, StateImageWithBandwidthEstimatesIsRejected) {
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-bandwidth-byte");
  crash_at(cfg, "placement", dir);  // leaves snapshots 1 and 2

  const fs::path snap = fs::path(dir) / "snapshot-2";
  std::string image = sealed_snapshot::read_file(snap / "state.bin");
  ASSERT_EQ(image[kBandwidthByteAt], 0);
  image[kBandwidthByteAt] = 1;
  sealed_snapshot::rewrite(snap, "state.bin", image);

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_TRUE(details.recovered);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, CountBeyondTheStateImageRejectsTheSnapshot) {
  // The report's move_bytes count follows the presence byte and two
  // doubles. A sealed image claiming 2^32 - 1 entries must be rejected
  // as corrupt before anything is sized with the count.
  const ExperimentConfig cfg = small_config();
  const std::string expected = plain_prepare_image(cfg);
  const std::string dir = fresh_dir("ck-huge-count");
  crash_at(cfg, "placement", dir);

  const fs::path snap = fs::path(dir) / "snapshot-2";
  std::string image = sealed_snapshot::read_file(snap / "state.bin");
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(image.data() + kBandwidthByteAt + 1 + 2 * 8, &huge, 4);
  sealed_snapshot::rewrite(snap, "state.bin", image);

  RecoveryResult details;
  EXPECT_EQ(recover_and_finish(cfg, dir, &details), expected);
  EXPECT_EQ(details.snapshot_seq, 1u);
  EXPECT_EQ(details.snapshots_rejected, 1u);
}

TEST(RecoveryTest, EmptyDirectoryRecoversNothing) {
  const std::string dir = fresh_dir("ck-empty");
  fs::create_directories(dir);
  const ExperimentConfig cfg = small_config();
  Controller controller = make_controller(cfg, Strategy::Bohr);
  RecoveryManager recovery(dir);
  const RecoveryResult found = recovery.recover(controller);
  EXPECT_FALSE(found.recovered);
  EXPECT_EQ(found.snapshots_rejected, 0u);
}

TEST(RecoveryTest, UnknownCrashPhaseIsACallerError) {
  ExperimentConfig cfg = small_config();
  cfg.faults.crash_after_phase = "lunch";
  Controller controller = make_controller(cfg, Strategy::Bohr);
  CheckpointManager checkpoints(fresh_dir("ck-bad-phase"), 2,
                                &controller.options().faults);
  EXPECT_THROW(checkpointed_prepare(controller, checkpoints),
               ContractViolation);
}

}  // namespace
}  // namespace bohr::core
