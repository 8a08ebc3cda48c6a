#include "olap/cube_io.h"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"

namespace bohr::olap {

namespace {

constexpr char kMagic[8] = {'B', 'O', 'H', 'R', 'C', 'U', 'B', 'E'};
constexpr char kEndMagic[8] = {'B', 'O', 'H', 'R', 'E', 'N', 'D', '!'};
constexpr std::uint32_t kVersion = 2;

[[noreturn]] void corrupt(const std::string& why) {
  throw CubeIoError("cube file corrupt: " + why);
}

/// Checks Dimension's construction invariants up front so corrupted
/// input surfaces as CubeIoError, never as a ContractViolation from
/// inside the Dimension constructor.
void validate_dimension(const std::string& name,
                        const std::vector<HierarchyLevel>& levels) {
  if (name.empty()) corrupt("dimension with empty name");
  if (levels.empty() || levels.front().granularity != 1) {
    corrupt("dimension '" + name + "' missing granularity-1 base level");
  }
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i].granularity <= levels[i - 1].granularity) {
      corrupt("dimension '" + name + "' has non-increasing granularities");
    }
  }
}

/// Encoded bytes of one cell: dim_count member ids, count, sum/min/max.
std::uint64_t cell_bytes(std::size_t dim_count) {
  return 8ull * dim_count + 8 + 3 * 8;
}

void encode_dimensions(ByteWriter& w, const OlapCube& cube) {
  w.u32(static_cast<std::uint32_t>(cube.dimension_count()));
  for (std::size_t d = 0; d < cube.dimension_count(); ++d) {
    const Dimension& dim = cube.dimension(d);
    w.blob32(dim.name());
    w.u32(dim.is_hashed() ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(dim.level_count()));
    for (std::size_t l = 0; l < dim.level_count(); ++l) {
      w.blob32(dim.level(l).name);
      w.u64(dim.level(l).granularity);
    }
  }
}

void encode_cells(ByteWriter& w, const OlapCube& cube) {
  w.u64(cube.total_records());
  w.u64(cube.cell_count());
  for (const auto& [coords, agg] : cube.cells()) {
    for (const MemberId m : coords) w.u64(m);
    w.u64(agg.count);
    w.f64(agg.sum);
    w.f64(agg.min);
    w.f64(agg.max);
  }
}

std::vector<Dimension> decode_dimensions(ByteReader& r) {
  const std::uint32_t dim_count = r.u32();
  if (dim_count == 0 || dim_count >= 1024) {
    corrupt("dimension count " + std::to_string(dim_count) +
            " outside (0, 1024)");
  }
  std::vector<Dimension> dims;
  dims.reserve(dim_count);
  for (std::uint32_t d = 0; d < dim_count; ++d) {
    const std::string name(r.blob32());
    const bool hashed = r.u32() != 0;
    const std::uint32_t level_count = r.u32();
    if (level_count == 0 || level_count >= 64) {
      corrupt("level count " + std::to_string(level_count) +
              " outside (0, 64)");
    }
    std::vector<HierarchyLevel> levels;
    levels.reserve(level_count);
    for (std::uint32_t l = 0; l < level_count; ++l) {
      HierarchyLevel level;
      level.name = std::string(r.blob32());
      level.granularity = r.u64();
      levels.push_back(std::move(level));
    }
    validate_dimension(name, levels);
    dims.emplace_back(name, std::move(levels), hashed);
  }
  return dims;
}

OlapCube decode_cells(ByteReader& r, std::vector<Dimension> dims) {
  const std::size_t dim_count = dims.size();
  OlapCube cube(std::move(dims));
  const std::uint64_t total_records = r.u64();
  // Every cell is fixed-width, so the section length pins the cell
  // count exactly: a corrupted count cannot over- or under-read.
  const std::uint64_t bytes_per_cell = cell_bytes(dim_count);
  const std::size_t cell_count = r.count64(bytes_per_cell);
  if (cell_count * bytes_per_cell != r.remaining()) {
    corrupt("cell count " + std::to_string(cell_count) +
            " disagrees with section length");
  }
  cube.reserve_cells(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    CellCoords coords(dim_count);
    for (auto& m : coords) m = r.u64();
    CellAggregate agg;
    agg.count = r.u64();
    agg.sum = r.f64();
    agg.min = r.f64();
    agg.max = r.f64();
    cube.insert_aggregate(coords, agg);
  }
  if (cube.total_records() != total_records) {
    corrupt("recorded total_records disagrees with summed cell counts");
  }
  return cube;
}

/// Reads one framed section (u64 length | payload | u32 crc), verifies
/// its checksum and returns the payload.
std::string_view read_section(ByteReader& r, const char* name) {
  const std::string_view payload = r.blob64();
  if (r.u32() != crc32(payload)) {
    corrupt(std::string(name) + " section checksum mismatch");
  }
  return payload;
}

}  // namespace

std::string encode_cube(const OlapCube& cube) {
  ByteWriter dims;
  encode_dimensions(dims, cube);
  const std::uint64_t cells_size =
      8 + 8 + cube.cell_count() * cell_bytes(cube.dimension_count());

  ByteWriter w;
  w.reserve(sizeof(kMagic) + 4 + (8 + dims.size() + 4) +
            (8 + cells_size + 4) + (8 + 4 + sizeof(kEndMagic)));
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kVersion);
  w.blob64(dims.view());
  w.u32(crc32(dims.view()));
  // The CELLS payload is encoded in place: its length is known up front.
  w.u64(cells_size);
  const std::size_t cells_begin = w.size();
  encode_cells(w, cube);
  BOHR_ENSURES(w.size() - cells_begin == cells_size);
  w.u32(crc32(w.view().substr(cells_begin)));

  // Length-prefixed footer sealing everything written so far.
  const std::uint64_t body_bytes = w.size();
  w.u64(body_bytes);
  w.u32(crc32(&body_bytes, sizeof(body_bytes)));
  w.raw(kEndMagic, sizeof(kEndMagic));
  return std::move(w).take();
}

OlapCube decode_cube(std::string_view bytes) {
  try {
    ByteReader r(bytes);
    if (r.take(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
      corrupt("bad magic (not a cube file)");
    }
    const std::uint32_t version = r.u32();
    if (version != kVersion) {
      corrupt("unsupported format version " + std::to_string(version));
    }

    ByteReader dims_section(read_section(r, "DIMS"));
    std::vector<Dimension> dims = decode_dimensions(dims_section);
    dims_section.expect_end();
    ByteReader cells_section(read_section(r, "CELLS"));
    OlapCube cube = decode_cells(cells_section, std::move(dims));

    // Footer: the length seal must match every byte before it.
    const std::uint64_t body_bytes = r.position();
    const std::uint64_t stored_body = r.u64();
    const std::uint32_t stored_crc = r.u32();
    if (r.take(sizeof(kEndMagic)) !=
        std::string_view(kEndMagic, sizeof(kEndMagic))) {
      corrupt("footer end-magic missing");
    }
    if (stored_crc != crc32(&stored_body, sizeof(stored_body))) {
      corrupt("footer checksum mismatch");
    }
    if (stored_body != body_bytes) {
      corrupt("footer length seal " + std::to_string(stored_body) +
              " != body bytes " + std::to_string(body_bytes));
    }
    r.expect_end();
    return cube;
  } catch (const DecodeError& e) {
    corrupt(e.what());
  }
}

void write_cube(std::ostream& out, const OlapCube& cube) {
  BOHR_EXPECTS(out.good());
  const std::string bytes = encode_cube(cube);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) throw CubeIoError("write failed (stream went bad)");
}

OlapCube read_cube(std::istream& in) {
  BOHR_EXPECTS(in.good());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (in.bad()) throw CubeIoError("read failed (stream went bad)");
  return decode_cube(std::move(bytes).str());
}

void save_cube(const std::string& path, const OlapCube& cube) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    throw CubeIoError("save_cube: cannot create " + tmp);
  }
  try {
    write_cube(out, cube);
    // A short write on a full disk may only surface at flush time:
    // verify the flush instead of silently leaving a truncated file.
    out.flush();
    if (!out.good()) throw CubeIoError("save_cube: flush failed for " + tmp);
    out.close();
    if (out.fail()) throw CubeIoError("save_cube: close failed for " + tmp);
  } catch (...) {
    out.close();
    std::remove(tmp.c_str());
    throw;
  }
  // Atomic publish: readers see either the old cube or the new one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CubeIoError("save_cube: rename to " + path + " failed");
  }
}

OlapCube load_cube(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw CubeIoError("load_cube: cannot open " + path);
  }
  return read_cube(in);
}

}  // namespace bohr::olap
