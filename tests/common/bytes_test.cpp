#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace bohr {
namespace {

TEST(ByteCodecTest, FieldsRoundTripLittleEndian) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0x01020304u);
  w.u64(0x1122334455667788ull);
  w.f64(-2.5);
  const std::string bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x04);  // low byte first
  EXPECT_EQ(static_cast<unsigned char>(bytes[5]), 0x88);

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.remaining(), 0u);
  r.expect_end();
}

TEST(ByteCodecTest, BlobsCarryTheirPrefixWidth) {
  ByteWriter w;
  w.blob32("abc");
  w.blob64("de");
  const std::string bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), 4u + 3 + 8 + 2);
  ByteReader r(bytes);
  EXPECT_EQ(r.blob32(), "abc");
  EXPECT_EQ(r.blob64(), "de");
  r.expect_end();
}

TEST(ByteCodecTest, EmptyBlobIsJustItsPrefix) {
  ByteWriter w;
  w.blob32("");
  w.blob64("");
  const std::string bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), 4u + 8);
  ByteReader r(bytes);
  EXPECT_TRUE(r.blob32().empty());
  EXPECT_TRUE(r.blob64().empty());
  r.expect_end();
}

TEST(ByteCodecTest, ReadEndingExactlyAtTheEndSucceeds) {
  ByteWriter w;
  w.u64(7);
  w.blob32("xyz");
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_EQ(r.blob32(), "xyz");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.position(), bytes.size());
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(ByteCodecTest, ReadOneByteShortThrows) {
  const std::string seven(7, '\0');
  ByteReader r(seven);
  EXPECT_THROW(r.u64(), DecodeError);

  ByteWriter w;
  w.blob32("abcd");
  std::string blob = std::move(w).take();
  blob.pop_back();
  ByteReader short_blob(blob);
  EXPECT_THROW(short_blob.blob32(), DecodeError);
}

TEST(ByteCodecTest, BlobLengthNearTheTopOfTheRangeThrows) {
  // A length that would wrap an `at + size <= n` check.
  ByteWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max() - 3);
  w.raw("abcd", 4);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(r.blob64(), DecodeError);
}

TEST(ByteCodecTest, CountIsCheckedAgainstRemainingBytes) {
  ByteWriter w;
  w.u64(2);
  w.f64(1.0);
  w.f64(2.0);
  const std::string fits = std::move(w).take();
  ByteReader ok(fits);
  EXPECT_EQ(ok.count64(8), 2u);

  // One element more than the bytes hold.
  ByteWriter over;
  over.u64(3);
  over.f64(1.0);
  over.f64(2.0);
  const std::string short_by_one = std::move(over).take();
  ByteReader r(short_by_one);
  EXPECT_THROW(r.count64(8), DecodeError);
}

TEST(ByteCodecTest, CountWhoseByteSizeOverflowsThrows) {
  // (2^61 + 1) * 8 wraps to 8, which is exactly what remains.
  ByteWriter w;
  w.u64((std::uint64_t{1} << 61) + 1);
  w.f64(1.0);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(r.count64(8), DecodeError);

  ByteWriter w32;
  w32.u32(std::numeric_limits<std::uint32_t>::max());
  const std::string bytes32 = std::move(w32).take();
  ByteReader r32(bytes32);
  EXPECT_THROW(r32.count32(1), DecodeError);
}

TEST(ByteCodecTest, TrailingBytesFailTheEndCheck) {
  const std::string bytes(5, 'x');
  ByteReader r(bytes);
  r.u32();
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(ByteCodecTest, DecodeErrorIsAContractViolation) {
  ByteReader r("");
  EXPECT_THROW(r.u32(), ContractViolation);
}

}  // namespace
}  // namespace bohr
