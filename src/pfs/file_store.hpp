// Metadata-only file store for the simulated PFS.
//
// Workloads at cluster scale write hundreds of gigabytes of synthetic data;
// holding the bytes is impossible and unnecessary. Instead every write
// records an extent [offset, offset+len) carrying a 64-bit content tag the
// writer derives from whatever it "wrote". A read returns the extents it
// covers, so HACC-IO's verify block can check that the data it reads back is
// exactly the data it wrote (tag equality over the full range) -- real
// verification semantics without the bytes.
//
// open(path) resolves a path once and returns a Handle to that file's extent
// map, creating the (empty) file if it is missing; mpisim::RankCtx::open does
// this, so every open file has a store entry. The request path then writes
// and verifies through the handle with no string lookup. Files live in a
// std::map whose nodes never move, so a handle stays valid while other files
// are created or removed; remove() of its own file invalidates it. The
// path-keyed write/verify/size forward to the same code; a path query of an
// unknown file does not create it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace iobts::pfs {

using ContentTag = std::uint64_t;

struct Extent {
  Bytes offset = 0;
  Bytes length = 0;
  ContentTag tag = 0;

  Bytes end() const noexcept { return offset + length; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

class FileStore {
  // Key = extent start offset; extents never overlap and never touch with
  // equal tags only by coincidence (no merging needed for correctness).
  using ExtentMap = std::map<Bytes, Extent>;

 public:
  /// One open file. A default-constructed handle names no file: queries
  /// see an empty file, and writing through it is an error.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class FileStore;
    explicit Handle(ExtentMap& extents) noexcept : extents_(&extents) {}
    ExtentMap* extents_ = nullptr;
  };

  /// Create an empty file; returns false if it already exists.
  bool create(const std::string& path);

  /// Resolve `path`, creating an empty file if it does not exist.
  Handle open(const std::string& path);

  /// Delete a file; returns false if it does not exist. Invalidates the
  /// file's handles.
  bool remove(const std::string& path);

  bool exists(const std::string& path) const;
  std::size_t fileCount() const noexcept { return files_.size(); }

  /// Logical size = end of the furthest extent (0 for empty/unknown files).
  Bytes size(Handle file) const;
  Bytes size(const std::string& path) const;

  /// Record a write. Overlapping older extents are split/overwritten, exactly
  /// like bytes in a real file. The path overload auto-creates the file.
  void write(Handle file, Bytes offset, Bytes length, ContentTag tag);
  void write(const std::string& path, Bytes offset, Bytes length,
             ContentTag tag);

  /// Extents overlapping [offset, offset+length), clipped to that window and
  /// ordered by offset. Gaps (never-written holes) are simply absent.
  std::vector<Extent> read(const std::string& path, Bytes offset,
                           Bytes length) const;

  /// True iff [offset, offset+length) is fully covered by extents carrying
  /// exactly `tag` -- the verify-block primitive. Allocates nothing.
  bool verify(Handle file, Bytes offset, Bytes length, ContentTag tag) const;
  bool verify(const std::string& path, Bytes offset, Bytes length,
              ContentTag tag) const;

  /// Total bytes currently recorded across all files.
  Bytes totalBytes() const noexcept;

 private:
  /// The file's extents, or null for an unknown file.
  const ExtentMap* find(const std::string& path) const;

  static Bytes sizeOf(const ExtentMap* extents);
  static bool covers(const ExtentMap* extents, Bytes offset, Bytes length,
                     ContentTag tag);

  std::map<std::string, ExtentMap> files_;
};

}  // namespace iobts::pfs
