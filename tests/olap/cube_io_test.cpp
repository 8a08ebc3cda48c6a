#include "olap/cube_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace bohr::olap {
namespace {

OlapCube sample_cube() {
  const Dimension date("date", {{"day", 1}, {"month", 30}}, false);
  const Dimension bucket("bucket", {{"base", 1}, {"b16", 16}}, true);
  OlapCube cube({date, bucket, Dimension("plain")});
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    cube.insert({rng.below(60), rng.below(256), rng.below(40)},
                rng.uniform(-5.0, 5.0));
  }
  return cube;
}

bool cubes_equal(const OlapCube& a, const OlapCube& b) {
  if (a.dimension_count() != b.dimension_count()) return false;
  if (a.total_records() != b.total_records()) return false;
  if (a.cell_count() != b.cell_count()) return false;
  for (const auto& [coords, agg] : a.cells()) {
    const CellAggregate* other = b.find(coords);
    if (other == nullptr) return false;
    if (other->count != agg.count || other->sum != agg.sum ||
        other->min != agg.min || other->max != agg.max) {
      return false;
    }
  }
  return true;
}

std::string serialize_v2(const OlapCube& cube) {
  std::ostringstream buffer;
  write_cube(buffer, cube);
  return buffer.str();
}

TEST(CubeIoTest, RoundTripPreservesEverything) {
  const OlapCube original = sample_cube();
  std::stringstream buffer;
  write_cube(buffer, original);
  const OlapCube loaded = read_cube(buffer);
  EXPECT_TRUE(cubes_equal(original, loaded));
}

TEST(CubeIoTest, RoundTripPreservesDimensions) {
  const OlapCube original = sample_cube();
  std::stringstream buffer;
  write_cube(buffer, original);
  const OlapCube loaded = read_cube(buffer);
  ASSERT_EQ(loaded.dimension_count(), 3u);
  EXPECT_EQ(loaded.dimension(0).name(), "date");
  EXPECT_EQ(loaded.dimension(0).level(1).granularity, 30u);
  EXPECT_FALSE(loaded.dimension(0).is_hashed());
  EXPECT_TRUE(loaded.dimension(1).is_hashed());
  // Hashed coarsening must behave identically after the round trip.
  EXPECT_EQ(loaded.dimension(1).coarsen(35, 1),
            original.dimension(1).coarsen(35, 1));
}

TEST(CubeIoTest, RoundTrippedCubeStillQueries) {
  const OlapCube original = sample_cube();
  std::stringstream buffer;
  write_cube(buffer, original);
  const OlapCube loaded = read_cube(buffer);
  // Roll-up on the loaded cube matches roll-up on the original.
  const OlapCube a = original.roll_up(0, 1);
  const OlapCube b = loaded.roll_up(0, 1);
  EXPECT_TRUE(cubes_equal(a, b));
}

TEST(CubeIoTest, EmptyCubeRoundTrips) {
  OlapCube empty({Dimension("k")});
  std::stringstream buffer;
  write_cube(buffer, empty);
  const OlapCube loaded = read_cube(buffer);
  EXPECT_EQ(loaded.cell_count(), 0u);
  EXPECT_EQ(loaded.total_records(), 0u);
}

TEST(CubeIoTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTACUBExxxxxxxxxxxxxxxxxxxxxxxx";
  EXPECT_THROW(read_cube(buffer), CubeIoError);
}

TEST(CubeIoTest, RejectsUnsupportedVersion) {
  // Version 1, the unchecksummed original, is no longer read either.
  for (const std::uint32_t bogus : {1u, 99u}) {
    std::string bytes = serialize_v2(sample_cube());
    std::memcpy(bytes.data() + 8, &bogus, 4);
    std::stringstream buffer(bytes);
    EXPECT_THROW(read_cube(buffer), CubeIoError) << "version " << bogus;
  }
}

TEST(CubeIoTest, RejectsTruncatedStream) {
  const std::string full = serialize_v2(sample_cube());
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_cube(truncated), CubeIoError);
}

/// The v2 layout carved into its framing sections, by byte range.
struct SectionSpan {
  const char* name;
  std::size_t begin;
  std::size_t end;
};

std::vector<SectionSpan> v2_sections(const std::string& bytes) {
  // Parse the length prefixes the same way the reader does, so the
  // matrix below stays correct if the sample cube changes size.
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
  };
  std::vector<SectionSpan> spans;
  spans.push_back({"magic", 0, 8});
  spans.push_back({"version", 8, 12});
  std::size_t off = 12;
  const std::size_t dims_len = static_cast<std::size_t>(u64_at(off));
  spans.push_back({"dims-frame", off, off + 8 + dims_len + 4});
  off += 8 + dims_len + 4;
  const std::size_t cells_len = static_cast<std::size_t>(u64_at(off));
  spans.push_back({"cells-frame", off, off + 8 + cells_len + 4});
  off += 8 + cells_len + 4;
  spans.push_back({"footer", off, off + 8 + 4 + 8});
  EXPECT_EQ(off + 8 + 4 + 8, bytes.size());
  return spans;
}

TEST(CubeIoCorruptionTest, TruncationAtEverySectionBoundaryThrows) {
  const std::string full = serialize_v2(sample_cube());
  for (const SectionSpan& span : v2_sections(full)) {
    // Cut right at the section start, mid-section, and one byte short
    // of its end — a crash can stop a write anywhere.
    for (const std::size_t cut :
         {span.begin, (span.begin + span.end) / 2, span.end - 1}) {
      SCOPED_TRACE(std::string(span.name) + " cut at byte " +
                   std::to_string(cut));
      std::stringstream truncated(full.substr(0, cut));
      EXPECT_THROW(read_cube(truncated), CubeIoError);
    }
  }
}

TEST(CubeIoCorruptionTest, BitFlipInEverySectionThrows) {
  const std::string full = serialize_v2(sample_cube());
  for (const SectionSpan& span : v2_sections(full)) {
    // One flipped bit per section, planted mid-section so it lands in
    // the payload (not just the framing) where only the CRC can see it.
    const std::size_t victim = (span.begin + span.end) / 2;
    for (const int bit : {0, 7}) {
      SCOPED_TRACE(std::string(span.name) + " bit " + std::to_string(bit) +
                   " at byte " + std::to_string(victim));
      std::string corrupted = full;
      corrupted[victim] = static_cast<char>(
          static_cast<unsigned char>(corrupted[victim]) ^ (1u << bit));
      std::stringstream buffer(corrupted);
      EXPECT_THROW(read_cube(buffer), CubeIoError);
    }
  }
}

TEST(CubeIoCorruptionTest, LyingCellCountThrows) {
  // Corrupt the cell count *and* fix up the section CRC, so only the
  // fixed-width length consistency check can catch it.
  const OlapCube original = sample_cube();
  std::string bytes = serialize_v2(original);
  const std::vector<SectionSpan> spans = v2_sections(bytes);
  const SectionSpan& cells = spans[3];
  // CELLS payload starts after the u64 length prefix; cell_count is the
  // second u64 of the payload.
  const std::size_t count_off = cells.begin + 8 + 8;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_off, 8);
  count += 1;
  std::memcpy(bytes.data() + count_off, &count, 8);
  // Re-seal the CRC over the corrupted payload so the checksum passes.
  {
    std::uint64_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + cells.begin, 8);
    const std::uint32_t patched =
        bohr::crc32(bytes.data() + cells.begin + 8,
                    static_cast<std::size_t>(payload_len));
    std::memcpy(bytes.data() + cells.begin + 8 + payload_len, &patched, 4);
  }
  std::stringstream buffer(bytes);
  EXPECT_THROW(read_cube(buffer), CubeIoError);
}

TEST(CubeIoTest, FileRoundTrip) {
  const OlapCube original = sample_cube();
  const std::string path = "/tmp/bohr_cube_io_test.cube";
  save_cube(path, original);
  const OlapCube loaded = load_cube(path);
  EXPECT_TRUE(cubes_equal(original, loaded));
  std::remove(path.c_str());
}

TEST(CubeIoTest, SaveLeavesNoTempFileBehind) {
  const std::string path = "/tmp/bohr_cube_io_atomic_test.cube";
  save_cube(path, sample_cube());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.is_open());
  std::remove(path.c_str());
}

TEST(CubeIoTest, FailedSavePreservesExistingFile) {
  // A save into an uncreatable temp file must throw and leave any
  // previously saved cube untouched.
  const std::string dir = "/tmp/bohr-no-such-dir-xyzzy";
  EXPECT_THROW(save_cube(dir + "/cube", sample_cube()), CubeIoError);

  const std::string path = "/tmp/bohr_cube_io_keep_test.cube";
  const OlapCube original = sample_cube();
  save_cube(path, original);
  // Second save succeeds by atomically replacing — never truncating —
  // so a reader opening `path` at any moment sees a complete cube.
  save_cube(path, original);
  EXPECT_TRUE(cubes_equal(original, load_cube(path)));
  std::remove(path.c_str());
}

TEST(CubeIoTest, MissingFileThrows) {
  EXPECT_THROW(load_cube("/tmp/definitely-not-a-file.cube"), CubeIoError);
}

}  // namespace
}  // namespace bohr::olap
