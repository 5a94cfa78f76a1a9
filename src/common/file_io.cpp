#include "common/file_io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace snap::common {

std::optional<std::vector<std::byte>> read_file(const std::string& path) {
  // file_size refuses a directory (where ifstream opens, and tellg
  // reports 2^63 − 1) and anything else that is not a regular file.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return std::nullopt;
  std::ifstream file(path, std::ios::binary);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
  if (!file) return std::nullopt;
  return bytes;
}

bool write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return false;
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace snap::common
