// Test helpers that edit one file of a committed snapshot and re-seal
// the snapshot's MANIFEST, so a planted corruption passes the size and
// checksum checks and reaches the image decoders.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/crc32.h"

namespace bohr::core::sealed_snapshot {

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

inline std::string hex8(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Replaces `name` in the snapshot directory `snap` with `bytes` and
/// rewrites the manifest's entry for it and its self-checksum line.
inline void rewrite(const std::filesystem::path& snap, const std::string& name,
                    const std::string& bytes) {
  std::ofstream(snap / name, std::ios::binary | std::ios::trunc) << bytes;
  std::istringstream lines(read_file(snap / "MANIFEST"));
  std::string text;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("self ", 0) == 0) break;
    if (line.size() > name.size() + 1 &&
        line.compare(line.size() - name.size() - 1, name.size() + 1,
                     " " + name) == 0) {
      line = "file " + std::to_string(bytes.size()) + " " +
             hex8(crc32(bytes)) + " " + name;
    }
    text += line + "\n";
  }
  text += "self " + hex8(crc32(text)) + "\n";
  std::ofstream(snap / "MANIFEST", std::ios::binary | std::ios::trunc)
      << text;
}

}  // namespace bohr::core::sealed_snapshot
