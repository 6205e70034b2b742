#include "util/file_io.hpp"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <system_error>

namespace iobts {

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    bytes.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) return std::nullopt;
  return bytes;
}

bool publishFile(const std::string& path, std::string_view bytes,
                 std::string* error) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& why) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = why;
    return false;
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return fail(tmp + ": cannot open for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) return fail(tmp + ": short write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(path + ": cannot publish: " +
                std::generic_category().message(errno));
  }
  return true;
}

}  // namespace iobts
