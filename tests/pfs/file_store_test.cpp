#include "pfs/file_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace iobts::pfs {
namespace {

TEST(FileStore, CreateRemoveExists) {
  FileStore fs;
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_TRUE(fs.create("/a"));
  EXPECT_FALSE(fs.create("/a"));  // already there
  EXPECT_TRUE(fs.exists("/a"));
  EXPECT_TRUE(fs.remove("/a"));
  EXPECT_FALSE(fs.remove("/a"));
  EXPECT_FALSE(fs.exists("/a"));
}

TEST(FileStore, WriteAutoCreates) {
  FileStore fs;
  fs.write("/f", 0, 100, 0xAB);
  EXPECT_TRUE(fs.exists("/f"));
  EXPECT_EQ(fs.size("/f"), 100u);
}

TEST(FileStore, SizeIsFurthestExtentEnd) {
  FileStore fs;
  fs.write("/f", 1000, 24, 1);
  EXPECT_EQ(fs.size("/f"), 1024u);
  EXPECT_EQ(fs.size("/missing"), 0u);
}

TEST(FileStore, ReadReturnsClippedExtents) {
  FileStore fs;
  fs.write("/f", 0, 100, 7);
  const auto r = fs.read("/f", 40, 20);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (Extent{40, 20, 7}));
}

TEST(FileStore, ReadAcrossHoleSkipsIt) {
  FileStore fs;
  fs.write("/f", 0, 10, 1);
  fs.write("/f", 20, 10, 2);
  const auto r = fs.read("/f", 0, 30);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (Extent{0, 10, 1}));
  EXPECT_EQ(r[1], (Extent{20, 10, 2}));
}

TEST(FileStore, OverwriteSplitsOldExtent) {
  FileStore fs;
  fs.write("/f", 0, 100, 1);
  fs.write("/f", 30, 40, 2);  // middle overwrite
  const auto r = fs.read("/f", 0, 100);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (Extent{0, 30, 1}));
  EXPECT_EQ(r[1], (Extent{30, 40, 2}));
  EXPECT_EQ(r[2], (Extent{70, 30, 1}));
}

TEST(FileStore, OverwriteSpanningMultipleExtents) {
  FileStore fs;
  fs.write("/f", 0, 10, 1);
  fs.write("/f", 10, 10, 2);
  fs.write("/f", 20, 10, 3);
  fs.write("/f", 5, 20, 9);  // covers tail of 1, all of 2, head of 3
  const auto r = fs.read("/f", 0, 30);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (Extent{0, 5, 1}));
  EXPECT_EQ(r[1], (Extent{5, 20, 9}));
  EXPECT_EQ(r[2], (Extent{25, 5, 3}));
}

TEST(FileStore, ExactOverwriteReplaces) {
  FileStore fs;
  fs.write("/f", 0, 10, 1);
  fs.write("/f", 0, 10, 2);
  const auto r = fs.read("/f", 0, 10);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].tag, 2u);
}

TEST(FileStore, VerifyFullCoverage) {
  FileStore fs;
  fs.write("/f", 0, 64, 0xFEED);
  EXPECT_TRUE(fs.verify("/f", 0, 64, 0xFEED));
  EXPECT_TRUE(fs.verify("/f", 10, 20, 0xFEED));
  EXPECT_FALSE(fs.verify("/f", 0, 65, 0xFEED));   // beyond the end
  EXPECT_FALSE(fs.verify("/f", 0, 64, 0xBEEF));   // wrong tag
}

TEST(FileStore, VerifyDetectsHole) {
  FileStore fs;
  fs.write("/f", 0, 10, 1);
  fs.write("/f", 20, 10, 1);
  EXPECT_FALSE(fs.verify("/f", 0, 30, 1));
  EXPECT_TRUE(fs.verify("/f", 0, 10, 1));
  EXPECT_TRUE(fs.verify("/f", 20, 10, 1));
}

TEST(FileStore, VerifyDetectsPartialOverwrite) {
  FileStore fs;
  fs.write("/f", 0, 100, 1);
  fs.write("/f", 50, 10, 2);
  EXPECT_FALSE(fs.verify("/f", 0, 100, 1));
  EXPECT_TRUE(fs.verify("/f", 50, 10, 2));
  EXPECT_TRUE(fs.verify("/f", 0, 50, 1));
}

TEST(FileStore, VerifyZeroLengthAlwaysTrue) {
  FileStore fs;
  EXPECT_TRUE(fs.verify("/missing", 0, 0, 1));
}

TEST(FileStore, ZeroLengthWriteOnlyCreates) {
  FileStore fs;
  fs.write("/f", 100, 0, 1);
  EXPECT_TRUE(fs.exists("/f"));
  EXPECT_EQ(fs.size("/f"), 0u);
}

TEST(FileStore, TotalBytesSumsLiveExtents) {
  FileStore fs;
  fs.write("/a", 0, 100, 1);
  fs.write("/b", 0, 50, 1);
  EXPECT_EQ(fs.totalBytes(), 150u);
  fs.write("/a", 0, 100, 2);  // overwrite, not duplicate
  EXPECT_EQ(fs.totalBytes(), 150u);
}

TEST(FileStore, AdjacentWritesDontInterfere) {
  FileStore fs;
  fs.write("/f", 0, 10, 1);
  fs.write("/f", 10, 10, 2);  // exactly adjacent
  EXPECT_TRUE(fs.verify("/f", 0, 10, 1));
  EXPECT_TRUE(fs.verify("/f", 10, 10, 2));
}

TEST(FileStore, OpenCreatesButPathQueriesDoNot) {
  FileStore fs;
  EXPECT_EQ(fs.size("/q"), 0u);
  EXPECT_FALSE(fs.verify("/q", 0, 8, 5));
  EXPECT_TRUE(fs.read("/q", 0, 8).empty());
  EXPECT_FALSE(fs.exists("/q"));
  const FileStore::Handle file = fs.open("/q");
  EXPECT_TRUE(fs.exists("/q"));
  EXPECT_EQ(fs.size(file), 0u);
  fs.write(file, 0, 8, 5);
  EXPECT_TRUE(fs.verify(fs.open("/q"), 0, 8, 5));  // same file, same extents
  EXPECT_EQ(fs.fileCount(), 1u);

  const FileStore::Handle none;  // names no file: reads as empty
  EXPECT_EQ(fs.size(none), 0u);
  EXPECT_FALSE(fs.verify(none, 0, 8, 5));
  EXPECT_TRUE(fs.verify(none, 0, 0, 5));
  EXPECT_THROW(fs.write(none, 0, 8, 5), CheckError);
}

TEST(FileStore, HandleStaysValidWhileOtherFilesAreCreated) {
  // Each file's extents live in a std::map node, which never moves: a
  // handle resolved before 10,000 other files exist still names its file.
  FileStore fs;
  const FileStore::Handle kept = fs.open("/keep");
  fs.write(kept, 0, 100, 1);
  for (int i = 0; i < 10'000; ++i) {
    const std::string path = std::string("/other.").append(std::to_string(i));
    fs.write(fs.open(path), 0, 10, 2);
  }
  fs.write(kept, 50, 50, 3);
  EXPECT_EQ(fs.fileCount(), 10'001u);
  EXPECT_TRUE(fs.verify(kept, 0, 50, 1));
  EXPECT_TRUE(fs.verify(kept, 50, 50, 3));
  EXPECT_EQ(fs.size(kept), 100u);
  EXPECT_EQ(fs.read("/keep", 0, 100),
            (std::vector<Extent>{{0, 50, 1}, {50, 50, 3}}));
  EXPECT_TRUE(fs.verify("/other.9999", 0, 10, 2));
  EXPECT_EQ(fs.totalBytes(), 100u + 10'000u * 10u);
}

TEST(FileStore, ManyRanksDistinctFiles) {
  // HACC-IO pattern: one file per rank, header + arrays.
  FileStore fs;
  for (int rank = 0; rank < 64; ++rank) {
    const std::string path = "/scratch/hacc." + std::to_string(rank);
    fs.write(path, 0, 64, 0x4ead);                      // header
    fs.write(path, 64, 38'000'000, 1000u + rank);        // particle arrays
  }
  EXPECT_EQ(fs.fileCount(), 64u);
  EXPECT_TRUE(fs.verify("/scratch/hacc.7", 64, 38'000'000, 1007u));
  EXPECT_FALSE(fs.verify("/scratch/hacc.7", 64, 38'000'000, 1008u));
}

// Differential check of write() against a per-byte model. Every byte
// remembers which write last covered it; because the store neither merges
// extents nor splits them except where a later write cuts in, its extents
// are exactly the model's maximal runs of one write. The generator favours
// the shapes write() special-cases or carves differently: exact overwrites
// of an existing extent (retagged in place), partial overlaps, writes
// adjacent to an extent, and writes spanning several extents. Writes go
// through a handle; size and verify are checked through the handle and
// through the path forwards.
class FileStoreModel {
 public:
  static constexpr Bytes kSize = 256;

  void write(Bytes offset, Bytes length, ContentTag tag) {
    ++writes_;
    for (Bytes b = offset; b < offset + length; ++b) {
      writer_[b] = writes_;
      tag_[b] = tag;
    }
  }

  std::vector<Extent> extents() const {
    std::vector<Extent> out;
    for (Bytes b = 0; b < kSize; ++b) {
      if (writer_[b] == 0) continue;
      if (!out.empty() && out.back().end() == b &&
          writer_[b] == writer_[b - 1]) {
        ++out.back().length;
      } else {
        out.push_back(Extent{b, 1, tag_[b]});
      }
    }
    return out;
  }

  ContentTag tagAt(Bytes b) const { return tag_[b]; }

  bool verify(Bytes offset, Bytes length, ContentTag tag) const {
    for (Bytes b = offset; b < offset + length; ++b) {
      if (writer_[b] == 0 || tag_[b] != tag) return false;
    }
    return true;
  }

  Bytes size() const {
    for (Bytes b = kSize; b > 0; --b) {
      if (writer_[b - 1] != 0) return b;
    }
    return 0;
  }

  Bytes totalBytes() const {
    Bytes total = 0;
    for (const std::uint32_t w : writer_) total += w != 0 ? 1 : 0;
    return total;
  }

 private:
  std::uint32_t writes_ = 0;
  std::array<std::uint32_t, kSize> writer_{};  // 0 = never written
  std::array<ContentTag, kSize> tag_{};
};

TEST(FileStore, MatchesPerByteModelUnderRandomWrites) {
  constexpr Bytes kSize = FileStoreModel::kSize;
  int exact_overwrites = 0;
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed, "file-store-differential");
    FileStore fs;
    const FileStore::Handle file = fs.open("/f");
    FileStoreModel model;
    const auto pick = [&rng](Bytes n) { return rng.uniformInt(n); };
    for (int step = 0; step < 200; ++step) {
      const std::vector<Extent> current = fs.read("/f", 0, kSize);
      Bytes offset = pick(kSize);
      Bytes length = 1 + pick(kSize - offset);
      if (!current.empty()) {
        const Extent& e = current[pick(current.size())];
        const Extent& other = current[pick(current.size())];
        switch (pick(5)) {
          case 0:  // exact overwrite
            offset = e.offset;
            length = e.length;
            ++exact_overwrites;
            break;
          case 1:  // partial overlap: starts inside e, any length
            offset = e.offset + pick(e.length);
            length = 1 + pick(kSize - offset);
            break;
          case 2:  // adjacent: starts at e's end, or ends at e's start
            if (e.end() < kSize && pick(2) == 0) {
              offset = e.end();
              length = 1 + pick(kSize - offset);
            } else if (e.offset > 0) {
              length = 1 + pick(e.offset);
              offset = e.offset - length;
            }
            break;
          case 3: {  // spanning: from e's start to other's end (or back)
            const Bytes lo = std::min(e.offset, other.offset);
            const Bytes hi = std::max(e.end(), other.end());
            offset = lo;
            length = hi - lo;
            break;
          }
          default:  // anywhere
            break;
        }
      }
      const ContentTag tag = 1 + pick(4);  // few tags: equal neighbours occur
      fs.write(file, offset, length, tag);
      model.write(offset, length, tag);

      ASSERT_EQ(fs.read("/f", 0, kSize), model.extents())
          << "seed " << seed << " step " << step << " wrote [" << offset
          << ", " << offset + length << ") tag " << tag;
      ASSERT_EQ(fs.size(file), model.size());
      ASSERT_EQ(fs.size("/f"), model.size());
      ASSERT_EQ(fs.totalBytes(), model.totalBytes());
      for (int probe = 0; probe < 4; ++probe) {
        const Bytes at = pick(kSize);
        const Bytes len = 1 + pick(std::min<Bytes>(kSize - at, 32));
        const ContentTag want = model.tagAt(at);
        const bool expected = model.verify(at, len, want);
        ASSERT_EQ(fs.verify(file, at, len, want), expected)
            << "seed " << seed << " step " << step << " verify [" << at
            << ", " << at + len << ") tag " << want;
        ASSERT_EQ(fs.verify("/f", at, len, want), expected);
        verified += expected ? 1 : 0;
      }
    }
  }
  EXPECT_GT(exact_overwrites, 1000);  // the in-place path ran plenty
  EXPECT_GT(verified, 1000);          // verify() saw matches, not only misses
}

}  // namespace
}  // namespace iobts::pfs
