// Binary serialization of OLAP cubes.
//
// Pre-processed cubes outlive the raw data (§8.5 notes raw data can go
// to cold storage once cubes exist), so they need a durable on-disk
// format that a process crash or a lying disk cannot silently break.
// The format (version 2) is section-framed and checksummed:
//
//   magic "BOHRCUBE" | u32 version = 2
//   DIMS  section: u64 length | payload | u32 crc32(payload)
//   CELLS section: u64 length | payload | u32 crc32(payload)
//   footer: u64 body_bytes | u32 crc32(body_bytes field) | "BOHREND!"
//
// where DIMS carries u32 dim_count followed by each dimension (name,
// hashed flag, level list of name + granularity), CELLS carries
// u64 total_records, u64 cell_count and the fixed-width cell array
// (dim_count x u64 members | u64 count | f64 sum/min/max), and the
// footer's body_bytes counts every byte before the footer — a
// length-prefixed seal that catches truncation even at a section
// boundary, and the file ends at the footer. Strings are u32-length
// prefixed; fields are encoded with common/bytes.h (little-endian
// integers, doubles as IEEE-754 bit patterns). Version 1, the
// unchecksummed original, is rejected like any unknown version: nothing
// writes it, and no caller reads files from before version 2.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "olap/cube.h"

namespace bohr::olap {

/// Recoverable cube-I/O failure: truncated or corrupted input, checksum
/// or magic/version mismatch, bound-violating contents, or a failed
/// write/flush/rename. Distinct from ContractViolation (programmer
/// error, e.g. handing write_cube an unopened stream) so callers such
/// as checkpoint recovery can catch corruption without masking bugs:
/// the decoder turns exactly the codec's DecodeError into CubeIoError,
/// never a ContractViolation in general.
class CubeIoError : public std::runtime_error {
 public:
  explicit CubeIoError(const std::string& what) : std::runtime_error(what) {}
};

/// The byte image of `cube` in the format above.
std::string encode_cube(const OlapCube& cube);

/// Parses one whole cube image. Throws CubeIoError on truncated,
/// corrupted, bound-violating or trailing input and on version/magic
/// mismatches.
OlapCube decode_cube(std::string_view bytes);

/// Writes encode_cube(cube) to a binary stream. Throws
/// ContractViolation when handed a stream already in a failed state and
/// CubeIoError when the stream fails mid-write.
void write_cube(std::ostream& out, const OlapCube& cube);

/// Reads the rest of the stream and decodes it as one cube image
/// (decode_cube's errors); ContractViolation only for caller misuse (a
/// stream already in a failed state).
OlapCube read_cube(std::istream& in);

/// Crash-atomic file save: writes to `path + ".tmp"`, flushes, verifies
/// the stream, then renames over `path`. Readers never observe a
/// partially-written cube at `path`; a crash leaves at worst a stale
/// .tmp file. Throws CubeIoError when the file cannot be created, the
/// flush fails (e.g. disk full), or the rename fails.
void save_cube(const std::string& path, const OlapCube& cube);

/// Loads a cube saved by save_cube. Throws CubeIoError when the file
/// cannot be opened or its contents fail read_cube's checks.
OlapCube load_cube(const std::string& path);

}  // namespace bohr::olap
