#include "common/bytes.h"

namespace bohr {

void ByteReader::fail_truncated(std::uint64_t wanted) const {
  throw DecodeError("image truncated: wanted " + std::to_string(wanted) +
                    " bytes at offset " + std::to_string(at_) + " of " +
                    std::to_string(bytes_.size()));
}

void ByteReader::fail_count(std::uint64_t count,
                            std::size_t element_bytes) const {
  throw DecodeError("image count " + std::to_string(count) + " of " +
                    std::to_string(element_bytes) +
                    "-byte elements exceeds the " +
                    std::to_string(remaining()) + " bytes left at offset " +
                    std::to_string(at_));
}

void ByteReader::fail_trailing() const {
  throw DecodeError("image has " + std::to_string(remaining()) +
                    " trailing bytes at offset " + std::to_string(at_));
}

}  // namespace bohr
