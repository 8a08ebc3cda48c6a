// The one binary codec behind every durable image: checkpoint state,
// prepare reports, cube files, and the migration, site-health,
// degraded-report, latency and churn images.
//
// The encoding is fixed-width little-endian integers, doubles as their
// IEEE-754 bit patterns, and length-prefixed blobs with a u32 or u64
// prefix. Each image owns its own layout (magic, version, field order);
// this module owns only how a field becomes bytes and back.
//
// ByteReader never reads past its input and never trusts a count it has
// not checked against the bytes that remain, so a corrupted length or
// count cannot turn into an overread or a giant allocation. Every
// malformed input surfaces as one exception type, DecodeError.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace bohr {

static_assert(std::endian::native == std::endian::little,
              "images are stored little-endian; a big-endian host needs "
              "byte swaps in ByteWriter and ByteReader");

/// Malformed input: truncated, a count or length larger than the bytes
/// that remain, or trailing bytes. A ContractViolation, so callers that
/// treat a bad image as a broken precondition need no extra handler;
/// readers of untrusted files (cube files, checkpoints) catch exactly
/// this type and rethrow their own error.
class DecodeError : public ContractViolation {
 public:
  explicit DecodeError(const std::string& what) : ContractViolation(what) {}
};

/// Appends fields to a byte string.
class ByteWriter {
 public:
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  void raw(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// u32 length, then the bytes.
  void blob32(std::string_view blob) {
    BOHR_EXPECTS(blob.size() <= UINT32_MAX);
    u32(static_cast<std::uint32_t>(blob.size()));
    raw(blob.data(), blob.size());
  }
  /// u64 length, then the bytes.
  void blob64(std::string_view blob) {
    u64(blob.size());
    raw(blob.data(), blob.size());
  }

  std::size_t size() const { return bytes_.size(); }
  std::string_view view() const { return bytes_; }
  std::string take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Reads fields from a byte range it does not own. Every getter checks
/// the remaining bytes first and throws DecodeError instead of reading
/// past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  /// The next `size` bytes, as a view into the input.
  std::string_view take(std::size_t size) {
    if (size > remaining()) fail_truncated(size);
    const std::string_view out = bytes_.substr(at_, size);
    at_ += size;
    return out;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// A u32- or u64-length-prefixed blob, as a view into the input.
  std::string_view blob32() { return take(u32()); }
  std::string_view blob64() {
    const std::uint64_t size = u64();
    if (size > remaining()) fail_truncated(size);
    return take(static_cast<std::size_t>(size));
  }

  /// A u32 or u64 element count, checked against the bytes that remain:
  /// each element takes at least `element_bytes`, so a count that could
  /// not fit is rejected before anyone sizes a container with it.
  std::size_t count32(std::size_t element_bytes) {
    return checked_count(u32(), element_bytes);
  }
  std::size_t count64(std::size_t element_bytes) {
    return checked_count(u64(), element_bytes);
  }

  std::size_t position() const { return at_; }
  std::size_t remaining() const { return bytes_.size() - at_; }
  /// Throws DecodeError unless every byte was read.
  void expect_end() const {
    if (remaining() != 0) fail_trailing();
  }

 private:
  template <typename T>
  T fixed() {
    T v = 0;
    std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
    return v;
  }
  std::size_t checked_count(std::uint64_t count, std::size_t element_bytes) {
    BOHR_EXPECTS(element_bytes > 0);
    if (count > remaining() / element_bytes) {
      fail_count(count, element_bytes);
    }
    return static_cast<std::size_t>(count);
  }

  [[noreturn]] void fail_truncated(std::uint64_t wanted) const;
  [[noreturn]] void fail_count(std::uint64_t count,
                               std::size_t element_bytes) const;
  [[noreturn]] void fail_trailing() const;

  std::string_view bytes_;
  std::size_t at_ = 0;
};

}  // namespace bohr
