#include "pfs/file_store.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace iobts::pfs {

namespace {

// The first extent that can overlap a window starting at `offset`: the one
// before `offset` if it reaches into the window, else the first at or after
// it.
template <typename Map>
auto firstOverlap(Map& extents, Bytes offset) {
  auto it = extents.lower_bound(offset);
  if (it != extents.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end() > offset) return prev;
  }
  return it;
}

// Calls visit(piece) for each extent overlapping [offset, offset+length),
// clipped to that window, in offset order, until visit returns false.
template <typename Map, typename Visit>
void walk(const Map& extents, Bytes offset, Bytes length, Visit&& visit) {
  const Bytes window_end = offset + length;
  for (auto it = firstOverlap(extents, offset);
       it != extents.end() && it->second.offset < window_end; ++it) {
    const Extent& e = it->second;
    const Bytes lo = std::max(e.offset, offset);
    const Bytes hi = std::min(e.end(), window_end);
    if (hi > lo && !visit(Extent{lo, hi - lo, e.tag})) return;
  }
}

}  // namespace

bool FileStore::create(const std::string& path) {
  return files_.try_emplace(path).second;
}

FileStore::Handle FileStore::open(const std::string& path) {
  return Handle(files_.try_emplace(path).first->second);
}

bool FileStore::remove(const std::string& path) {
  return files_.erase(path) > 0;
}

bool FileStore::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

const FileStore::ExtentMap* FileStore::find(const std::string& path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

Bytes FileStore::sizeOf(const ExtentMap* extents) {
  if (extents == nullptr || extents->empty()) return 0;
  return std::prev(extents->end())->second.end();
}

Bytes FileStore::size(Handle file) const { return sizeOf(file.extents_); }

Bytes FileStore::size(const std::string& path) const {
  return sizeOf(find(path));
}

void FileStore::write(const std::string& path, Bytes offset, Bytes length,
                      ContentTag tag) {
  write(open(path), offset, length, tag);
}

void FileStore::write(Handle file, Bytes offset, Bytes length,
                      ContentTag tag) {
  IOBTS_CHECK(file.extents_ != nullptr, "write through a null file handle");
  if (length == 0) return;
  ExtentMap& extents = *file.extents_;
  const Bytes write_end = offset + length;
  IOBTS_CHECK(write_end > offset, "extent overflow");

  auto it = firstOverlap(extents, offset);
  if (it != extents.end() && it->first == offset &&
      it->second.length == length) {
    // Exact overwrite (e.g. a loop rewriting its own extent): retag in
    // place. The carve-out below would erase and re-emplace the same extent.
    it->second.tag = tag;
    return;
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
  const ExtentMap* extents = find(path);
  if (extents == nullptr || length == 0) return out;
  walk(*extents, offset, length, [&out](const Extent& piece) {
    out.push_back(piece);
    return true;
  });
  return out;
}

bool FileStore::covers(const ExtentMap* extents, Bytes offset, Bytes length,
                       ContentTag tag) {
  if (length == 0) return true;
  if (extents == nullptr) return false;
  Bytes cursor = offset;
  bool matched = true;
  walk(*extents, offset, length, [&](const Extent& piece) {
    // A gap is a hole; another tag is stale or foreign data.
    matched = piece.offset == cursor && piece.tag == tag;
    cursor = piece.end();
    return matched;
  });
  return matched && cursor == offset + length;
}

bool FileStore::verify(Handle file, Bytes offset, Bytes length,
                       ContentTag tag) const {
  return covers(file.extents_, offset, length, tag);
}

bool FileStore::verify(const std::string& path, Bytes offset, Bytes length,
                       ContentTag tag) const {
  return covers(find(path), offset, length, tag);
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
