#include "pfs/file_store.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace iobts::pfs {

bool FileStore::create(const std::string& path) {
  return files_.try_emplace(path).second;
}

bool FileStore::remove(const std::string& path) {
  return files_.erase(path) > 0;
}

bool FileStore::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

Bytes FileStore::size(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end() || it->second.empty()) return 0;
  return std::prev(it->second.end())->second.end();
}

void FileStore::write(const std::string& path, Bytes offset, Bytes length,
                      ContentTag tag) {
  if (length == 0) {
    files_.try_emplace(path);
    return;
  }
  ExtentMap& extents = files_[path];
  const Bytes write_end = offset + length;
  IOBTS_CHECK(write_end > offset, "extent overflow");

  auto it = extents.lower_bound(offset);
  if (it != extents.end() && it->first == offset &&
      it->second.length == length) {
    // Exact overwrite (e.g. a loop rewriting its own extent): retag in
    // place. The carve-out below would erase and re-emplace the same extent.
    it->second.tag = tag;
    return;
  }

  // Find the first extent that could overlap: the one before `offset` may
  // reach into the window.
  if (it != extents.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end() > offset) it = prev;
  }

  // Carve out the overlapped region.
  while (it != extents.end() && it->second.offset < write_end) {
    Extent old = it->second;
    it = extents.erase(it);
    if (old.offset < offset) {
      // Left remainder survives.
      Extent left{old.offset, offset - old.offset, old.tag};
      extents.emplace(left.offset, left);
    }
    if (old.end() > write_end) {
      // Right remainder survives.
      Extent right{write_end, old.end() - write_end, old.tag};
      it = extents.emplace(right.offset, right).first;
    }
  }
  extents.emplace(offset, Extent{offset, length, tag});
}

std::vector<Extent> FileStore::read(const std::string& path, Bytes offset,
                                    Bytes length) const {
  std::vector<Extent> out;
  const auto file_it = files_.find(path);
  if (file_it == files_.end() || length == 0) return out;
  const ExtentMap& extents = file_it->second;
  const Bytes read_end = offset + length;

  auto it = extents.lower_bound(offset);
  if (it != extents.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end() > offset) it = prev;
  }
  for (; it != extents.end() && it->second.offset < read_end; ++it) {
    const Extent& e = it->second;
    const Bytes lo = std::max(e.offset, offset);
    const Bytes hi = std::min(e.end(), read_end);
    if (hi > lo) out.push_back(Extent{lo, hi - lo, e.tag});
  }
  return out;
}

bool FileStore::verify(const std::string& path, Bytes offset, Bytes length,
                       ContentTag tag) const {
  if (length == 0) return true;
  const auto pieces = read(path, offset, length);
  Bytes cursor = offset;
  for (const Extent& e : pieces) {
    if (e.offset != cursor) return false;  // hole
    if (e.tag != tag) return false;        // stale or foreign data
    cursor = e.end();
  }
  return cursor == offset + length;
}

Bytes FileStore::totalBytes() const noexcept {
  Bytes total = 0;
  for (const auto& [path, extents] : files_) {
    (void)path;
    for (const auto& [off, e] : extents) {
      (void)off;
      total += e.length;
    }
  }
  return total;
}

}  // namespace iobts::pfs
