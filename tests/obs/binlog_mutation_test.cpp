// Seeded mutation sweep over binlog containers. Each mutant -- bit flips,
// extreme u32/u64 overwrites, truncations, chunk-length inflation, chunk
// duplication -- has its chunk checksums and trailer digest repaired (most
// of the time) so it reaches the structural decoder instead of stopping at
// a checksum. The contract, for every mutant:
//
//   * the strict, windowed and tail readers each either succeed or throw
//     BinlogError -- never another exception, a crash, or a sanitizer
//     report (obs_test runs under ASan+UBSan in the sanitize leg);
//   * whenever the strict reader accepts a mutant, the full-range windowed
//     read and the tail reader accept it too, with the same events.
//
// The mutants come from fixed seeds, so a failure names a reproducible
// (seed, index) pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "../support/mutation.hpp"
#include "obs/binlog.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"

namespace iobts::obs {
namespace {

constexpr int kMutantsPerContainer = 4000;

using Rng = testsupport::SplitMix64;
using testsupport::extremeU32;
using testsupport::extremeU64;
using testsupport::loadU64;
using testsupport::storeU32;
using testsupport::storeU64;

/// Step `i` of a varied event stream: every phase over the steps, several
/// tracks and names, wall times, values and journey ids.
void recordStep(TraceSink& sink, int i, double ts) {
  static const char* const kNames[] = {"transfer.write", "transfer.read",
                                       "adio.queue", "adio.pace", "resolve"};
  const auto tid = static_cast<std::uint32_t>(i % 4);
  sink.complete("pfs", kNames[i % 5], track::kStreams, tid, ts,
                0.005 * (i % 3), 1024.0 * i,
                i % 7 == 0 ? 1000 + static_cast<std::uint64_t>(i) : 0);
  if (i % 10 == 0) {
    const std::uint64_t journey = (static_cast<std::uint64_t>(i) + 1) << 40;
    sink.flowStart("journey", "io", track::kAdio, tid, ts, journey);
    sink.flowStep("journey", "io", track::kStreams, tid, ts + 0.001,
                  journey);
    sink.flowEnd("journey", "io", track::kStreams, tid, ts + 0.002, journey);
  }
  if (i % 13 == 0) sink.instant("adio", "adio.retry", track::kAdio, 0, ts);
  if (i % 17 == 0) {
    sink.counter("tmio", "tmio.app.breq.write", track::kTmio, 1, ts,
                 1.0e9 + i);
  }
}

/// One writer, a small ring and a small seal threshold: many chunks.
std::string singleWriterContainer() {
  TraceSinkConfig ring;
  ring.capacity = 64;
  TraceSink sink(ring);
  sink.setProcessName(track::kStreams, "pfs streams");
  sink.setThreadName(track::kStreams, 0, "stream 0");
  BinaryTraceWriterConfig config;
  config.flush_bytes = 256;
  std::string bytes;
  BinaryTraceWriter writer(sink, &bytes, config);
  for (int i = 0; i < 120; ++i) recordStep(sink, i, 0.01 * i);
  writer.close();
  return bytes;
}

/// A two-shard run recorded through the global sink: each shard's events
/// interleave with the kernel's dispatch spans and counters.
std::string shardedContainer() {
  TraceSinkConfig ring;
  ring.capacity = 64;
  TraceSink sink(ring);
  sink.setProcessName(track::kAdio, "adio");
  BinaryTraceWriterConfig config;
  config.flush_bytes = 256;
  std::string bytes;
  BinaryTraceWriter writer(sink, &bytes, config);
  {
    ScopedTraceSink scoped(sink);
    sim::ShardedSimulation sharded({.shards = 2, .threads = 2});
    for (sim::ShardId s = 0; s < 2; ++s) {
      for (int i = 0; i < 60; ++i) {
        const double ts = 0.3 * s + 0.01 * i;
        sharded.shard(s).post(ts,
                              [i, ts] { recordStep(*traceSink(), i, ts); });
      }
    }
    sharded.run();
  }
  writer.close();
  return bytes;
}

struct Chunk {
  std::size_t offset = 0;  ///< of the kind word
  std::uint64_t len = 0;
};

/// The chunk sequence as far as it is well-formed (mutants stop early).
std::vector<Chunk> walkChunks(const std::string& s, std::size_t body) {
  std::vector<Chunk> chunks;
  std::size_t pos = sizeof(kBinlogMagic) + 4;
  while (pos <= body && body - pos >= 12) {
    const std::uint64_t len = loadU64(s, pos + 4);
    if (len > body - pos - 12 || body - pos - 12 - len < 8) break;
    chunks.push_back({pos, len});
    pos += 12 + static_cast<std::size_t>(len) + 8;
  }
  return chunks;
}

/// Recompute every walkable chunk checksum and the trailer digest, so only
/// the structural damage remains.
void repair(std::string& s) {
  if (s.size() < sizeof(kBinlogMagic) + 4 + 8) return;
  const std::size_t body = s.size() - 8;
  for (const Chunk& c : walkChunks(s, body)) {
    const std::size_t payload = c.offset + 12;
    storeU64(s, payload + c.len,
             binlogChecksum(s.data() + payload, c.len));
  }
  try {
    storeU64(s, body, binlogTrailerDigest(s.data(), body));
  } catch (const BinlogError&) {
    // The body is no longer a whole number of chunks; leave the trailer.
  }
}

/// A position worth overwriting: anywhere, or a chunk's structural fields
/// (kind, length, payload prologue, first index/footer words).
std::size_t targetOffset(Rng& rng, const std::string& s,
                         const std::vector<Chunk>& chunks, std::size_t width) {
  if (chunks.empty() || rng.below(2) == 0) {
    return rng.below(s.size() - width + 1);
  }
  const Chunk& c = chunks[rng.below(chunks.size())];
  const std::size_t spots[] = {c.offset,      c.offset + 4,  c.offset + 12,
                               c.offset + 16, c.offset + 20, c.offset + 28,
                               c.offset + 36, c.offset + 44, c.offset + 52};
  const std::size_t at = spots[rng.below(std::size(spots))];
  return at + width <= s.size() ? at : s.size() - width;
}

/// One mutant of `base`; `what` says how it was made.
std::string mutate(const std::string& base, Rng& rng, std::string& what) {
  std::string s = base;
  const std::vector<Chunk> chunks = walkChunks(s, s.size() - 8);
  switch (rng.below(6)) {
    case 0: {  // 1-3 bit flips anywhere
      const std::size_t flips = 1 + rng.below(3);
      what = "bit flips";
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at = rng.below(s.size());
        const unsigned bit = static_cast<unsigned>(rng.below(8));
        s[at] = static_cast<char>(s[at] ^ (1 << bit));
        what += ' ';
        what += std::to_string(at) + ":" + std::to_string(bit);
      }
      break;
    }
    case 1: {
      const std::size_t at = targetOffset(rng, s, chunks, 4);
      const std::uint32_t v = extremeU32(rng);
      storeU32(s, at, v);
      what = "u32 " + std::to_string(v) + " at " + std::to_string(at);
      break;
    }
    case 2: {
      const std::size_t at = targetOffset(rng, s, chunks, 8);
      const std::uint64_t v = extremeU64(rng, s.size());
      storeU64(s, at, v);
      what = "u64 " + std::to_string(v) + " at " + std::to_string(at);
      break;
    }
    case 3: {
      const std::size_t keep = rng.below(s.size());
      s.resize(keep);
      what = "truncate to " + std::to_string(keep);
      break;
    }
    case 4: {  // inflate one chunk's declared length
      const Chunk& c = chunks[rng.below(chunks.size())];
      const std::uint64_t grown[] = {c.len + 1, c.len + 8, c.len * 2 + 1,
                                     std::uint64_t{1} << 40,
                                     0xffffffffffffffffULL - 11};
      const std::uint64_t v = grown[rng.below(std::size(grown))];
      storeU64(s, c.offset + 4, v);
      what = "chunk at " + std::to_string(c.offset) + " length " +
             std::to_string(v);
      break;
    }
    default: {  // duplicate one chunk in place
      const Chunk& c = chunks[rng.below(chunks.size())];
      const std::size_t span = 12 + static_cast<std::size_t>(c.len) + 8;
      s.insert(c.offset, base, c.offset, span);
      what = "duplicate chunk at " + std::to_string(c.offset);
      break;
    }
  }
  // Most mutants get valid checksums so the structural decoder sees them;
  // the rest keep exercising the checksum gates.
  if (rng.below(8) != 0) {
    repair(s);
  } else {
    what += " (unrepaired)";
  }
  return s;
}

/// What one reader made of a mutant: a decoded trace, or the error kind.
struct Outcome {
  std::optional<BinaryTrace> trace;
  std::string kind;
};

template <typename Read>
Outcome attempt(const Read& read, const std::string& reader,
                const std::string& what) {
  Outcome out;
  try {
    out.trace = read();
  } catch (const BinlogError& e) {
    out.kind = e.kindName();
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader << " threw a non-BinlogError on mutant [" << what
                  << "]: " << e.what();
    out.kind = "foreign";
  }
  return out;
}

Outcome readTail(const std::string& bytes, const std::string& what) {
  return attempt(
      [&]() -> BinaryTrace {
        BinlogTailReader tail("mutant");
        // Awkward 97-byte slices: unit boundaries land mid-read.
        for (std::size_t pos = 0; pos < bytes.size(); pos += 97) {
          tail.feed(bytes.data() + pos,
                    std::min<std::size_t>(97, bytes.size() - pos));
        }
        if (!tail.finished()) {
          throw BinlogError(BinlogErrorKind::Truncated, "unfinished");
        }
        return tail.snapshot();
      },
      "tail reader", what);
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool sameEvents(const BinaryTrace& a, const BinaryTrace& b) {
  if (a.strings != b.strings || a.events.size() != b.events.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const BinEvent& x = a.events[i];
    const BinEvent& y = b.events[i];
    if (bits(x.ts) != bits(y.ts) || bits(x.dur) != bits(y.dur) ||
        bits(x.value) != bits(y.value) || x.category != y.category ||
        x.name != y.name || x.pid != y.pid || x.tid != y.tid ||
        x.phase != y.phase || x.wall_ns != y.wall_ns || x.flow != y.flow) {
      return false;
    }
  }
  return true;
}

/// Run the sweep over one container; returns how many mutants each error
/// kind rejected under the strict reader ("ok" = accepted).
std::map<std::string, int> sweep(const std::string& base, std::uint64_t seed) {
  std::map<std::string, int> verdicts;
  Rng rng{seed};
  for (int i = 0; i < kMutantsPerContainer; ++i) {
    std::string what;
    const std::string mutant = mutate(base, rng, what);
    what = "seed " + std::to_string(seed) + " #" + std::to_string(i) + ": " +
           what;
    const Outcome strict = attempt(
        [&] { return decodeBinaryTrace(mutant, "mutant"); }, "strict reader",
        what);
    const Outcome window = attempt(
        [&] { return decodeBinaryTraceWindow(mutant, "mutant", {}); },
        "windowed reader", what);
    const Outcome tail = readTail(mutant, what);
    ++verdicts[strict.trace ? "ok" : strict.kind];
    if (!strict.trace) continue;
    if (!window.trace) {
      ADD_FAILURE() << "windowed reader rejected (" << window.kind
                    << ") what the strict reader accepted: " << what;
    } else {
      EXPECT_TRUE(sameEvents(*strict.trace, *window.trace))
          << "windowed events differ: " << what;
    }
    if (!tail.trace) {
      ADD_FAILURE() << "tail reader rejected (" << tail.kind
                    << ") what the strict reader accepted: " << what;
    } else {
      EXPECT_TRUE(sameEvents(*strict.trace, *tail.trace))
          << "tail events differ: " << what;
    }
  }
  return verdicts;
}

void expectSweepBitesAndHolds(const std::string& base, std::uint64_t seed) {
  // The unmutated container is accepted everywhere, identically.
  const BinaryTrace clean = decodeBinaryTrace(base, "clean");
  ASSERT_GT(clean.events.size(), 100u);
  ASSERT_GT(clean.index.size(), 8u);  // many chunks to mutate
  EXPECT_TRUE(sameEvents(clean, decodeBinaryTraceWindow(base, "clean", {})));

  const std::map<std::string, int> verdicts = sweep(base, seed);
  // A sweep that never reaches the structural checks proves nothing: the
  // repaired mutants must trip several distinct defect kinds.
  EXPECT_GE(verdicts.size(), 6u);
  for (const char* kind : {"malformed", "bad_index", "truncated"}) {
    EXPECT_GT(verdicts.count(kind), 0u) << "no mutant rejected as " << kind;
  }
}

TEST(BinlogMutation, SingleWriterMutantsDecodeOrFailTyped) {
  expectSweepBitesAndHolds(singleWriterContainer(), 0x5eed0001);
}

TEST(BinlogMutation, ShardedMutantsDecodeOrFailTyped) {
  expectSweepBitesAndHolds(shardedContainer(), 0x5eed0002);
}

}  // namespace
}  // namespace iobts::obs
