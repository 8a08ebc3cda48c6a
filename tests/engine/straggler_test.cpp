#include <gtest/gtest.h>

#include "engine/machine.h"

namespace bohr::engine {
namespace {

std::vector<RecordStream> big_parts(std::size_t n_parts,
                                    std::size_t records) {
  std::vector<RecordStream> parts(n_parts);
  std::uint64_t key = 0;
  for (auto& p : parts) {
    for (std::size_t r = 0; r < records; ++r) p.push_back({key++, 1.0});
  }
  return parts;
}

MachineConfig machine() {
  MachineConfig cfg;
  cfg.executors = 4;
  cfg.map_records_per_sec = 1000.0;
  cfg.merge_records_per_sec = 1e9;
  return cfg;
}

/// The local stage followed by this run's straggler draw, as the job
/// runner composes them.
struct StragglerRun {
  LocalStageResult local;
  StragglerDraw draw;
};

StragglerRun run_with_stragglers(const std::vector<RecordStream>& parts,
                                 const MachineConfig& cfg, Rng& rng) {
  StragglerRun run;
  run.local = run_local_stage(parts, cfg, ExecutorAssignment::RoundRobin,
                              AggregateOp::Sum, 1.0, {}, rng);
  run.draw = draw_stragglers(run.local.executor_seconds, cfg, rng);
  return run;
}

double stage_seconds(const MachineConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  const StragglerRun run = run_with_stragglers(big_parts(8, 100), cfg, rng);
  return run.local.rdd_check_seconds + run.draw.slowest_seconds;
}

TEST(StragglerTest, NoStragglersByDefault) {
  Rng rng(1);
  const StragglerDraw draw =
      run_with_stragglers(big_parts(8, 100), machine(), rng).draw;
  EXPECT_EQ(draw.stragglers, 0u);
  EXPECT_EQ(draw.speculations, 0u);
}

TEST(StragglerTest, CertainStragglerSlowsStage) {
  MachineConfig clean = machine();
  MachineConfig slow = machine();
  slow.straggler_probability = 1.0;
  slow.straggler_slowdown = 5.0;
  const double base = stage_seconds(clean, 7);
  const double straggled = stage_seconds(slow, 7);
  EXPECT_NEAR(straggled, base * 5.0, base * 0.01);
}

TEST(StragglerTest, SpeculationCapsTheDamage) {
  MachineConfig slow = machine();
  slow.straggler_probability = 0.5;
  slow.straggler_slowdown = 10.0;
  MachineConfig spec = slow;
  spec.speculative_execution = true;
  spec.speculation_cap = 1.5;

  // Average over seeds: speculation must never be slower and should be
  // clearly faster when stragglers hit.
  double slow_total = 0.0;
  double spec_total = 0.0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const double a = stage_seconds(slow, seed);
    const double b = stage_seconds(spec, seed);
    EXPECT_LE(b, a + 1e-12) << "seed " << seed;
    slow_total += a;
    spec_total += b;
  }
  EXPECT_LT(spec_total, slow_total * 0.6);
}

TEST(StragglerTest, CountsReported) {
  MachineConfig cfg = machine();
  cfg.straggler_probability = 1.0;
  cfg.straggler_slowdown = 10.0;
  cfg.speculative_execution = true;
  Rng rng(3);
  const StragglerDraw draw = run_with_stragglers(big_parts(8, 100), cfg, rng).draw;
  EXPECT_EQ(draw.stragglers, 4u);  // every executor straggled
  EXPECT_GT(draw.speculations, 0u);
}

TEST(StragglerTest, ShuffleVolumeUnaffected) {
  MachineConfig clean = machine();
  MachineConfig slow = machine();
  slow.straggler_probability = 1.0;
  Rng rng_a(5);
  Rng rng_b(5);
  const auto a = run_with_stragglers(big_parts(4, 50), clean, rng_a).local;
  const auto b = run_with_stragglers(big_parts(4, 50), slow, rng_b).local;
  EXPECT_EQ(a.shuffle_records, b.shuffle_records);
}

// ---- Metamorphic properties, over many seeds --------------------------

/// One heavily loaded partition among light ones: the executor that gets
/// it is slow without being a straggler.
std::vector<RecordStream> skewed_parts() {
  std::vector<RecordStream> parts = big_parts(7, 100);
  RecordStream heavy;
  for (std::uint64_t r = 0; r < 4000; ++r) heavy.push_back({100000 + r, 1.0});
  parts.insert(parts.begin(), std::move(heavy));
  return parts;
}

double straggled_stage(const std::vector<RecordStream>& parts,
                       const MachineConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  const StragglerRun run = run_with_stragglers(parts, cfg, rng);
  return run.local.rdd_check_seconds + run.draw.slowest_seconds;
}

TEST(StragglerTest, UnitSlowdownNeverChangesStageTime) {
  for (const auto& parts : {big_parts(8, 100), skewed_parts()}) {
    for (const bool speculate : {false, true}) {
      MachineConfig free_stragglers = machine();
      free_stragglers.straggler_probability = 0.5;
      free_stragglers.straggler_slowdown = 1.0;
      free_stragglers.speculative_execution = speculate;
      for (std::uint64_t seed = 0; seed < 32; ++seed) {
        EXPECT_EQ(straggled_stage(parts, free_stragglers, seed),
                  straggled_stage(parts, machine(), seed))
            << "seed " << seed << " speculation " << speculate;
      }
    }
  }
}

TEST(StragglerTest, StragglersNeverLowerStageTime) {
  for (const auto& parts : {big_parts(8, 100), skewed_parts()}) {
    for (const double p : {0.1, 0.3, 1.0}) {
      for (const double slowdown : {1.0, 2.0, 6.0}) {
        for (const bool speculate : {false, true}) {
          MachineConfig cfg = machine();
          cfg.straggler_probability = p;
          cfg.straggler_slowdown = slowdown;
          cfg.speculative_execution = speculate;
          for (std::uint64_t seed = 0; seed < 16; ++seed) {
            EXPECT_GE(straggled_stage(parts, cfg, seed),
                      straggled_stage(parts, machine(), seed))
                << "seed " << seed << " p " << p << " slowdown " << slowdown
                << " speculation " << speculate;
          }
        }
      }
    }
  }
}

TEST(StragglerTest, LoadedNonStragglerIsNeverClamped) {
  // Executor 0 has 40x the others' work. Whether or not it straggles,
  // speculation cannot finish it before its own healthy time, and the
  // light stragglers are capped well below it.
  const std::vector<double> healthy{40.0, 1.0, 1.0, 1.0};
  MachineConfig cfg = machine();
  cfg.straggler_probability = 0.5;
  cfg.straggler_slowdown = 4.0;
  cfg.speculative_execution = true;
  cfg.speculation_cap = 1.5;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    const StragglerDraw draw = draw_stragglers(healthy, cfg, rng);
    EXPECT_EQ(draw.slowest_seconds, 40.0) << "seed " << seed;
  }
}

TEST(StragglerTest, InvalidSlowdownThrows) {
  MachineConfig cfg = machine();
  cfg.straggler_probability = 0.5;
  cfg.straggler_slowdown = 0.5;  // < 1 makes no sense
  Rng rng(1);
  EXPECT_THROW(run_local_stage(big_parts(2, 10), cfg,
                               ExecutorAssignment::RoundRobin,
                               AggregateOp::Sum, 1.0, {}, rng),
               bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::engine
