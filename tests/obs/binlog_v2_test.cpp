// Binlog v2 container tests: the footer index lets the windowed reader
// skip chunks it proves irrelevant (counters assert the skipping actually
// happened), and the tail reader buffers a mid-chunk cut while still
// snapshotting every complete chunk before it.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "obs/binlog.hpp"
#include "obs/trace.hpp"

namespace iobts::obs {
namespace {

/// Enough events to seal several chunks under a tiny flush threshold,
/// spread over [0.5 s, ~21 s] so time windows can select subsets.
void recordSpread(TraceSink& sink) {
  sink.setProcessName(track::kStreams, "pfs streams");
  for (int i = 0; i < 200; ++i) {
    const double ts = 0.5 + 0.1 * i;
    sink.complete("pfs", (i % 2) ? "transfer.read" : "transfer.write",
                  track::kStreams, std::uint32_t(i % 4), ts, 0.05,
                  4096.0 * (1 + i % 8));
  }
}

std::string writtenWith(std::size_t flush_bytes) {
  TraceSink sink;
  std::string bytes;
  BinaryTraceWriterConfig config;
  config.flush_bytes = flush_bytes;
  BinaryTraceWriter writer(sink, &bytes, config);
  recordSpread(sink);
  writer.close();
  return bytes;
}

TEST(BinlogV2, WindowedReadDecodesOnlyIndexSelectedChunks) {
  // Tiny flush threshold -> many small, time-local event chunks.
  const std::string bytes = writtenWith(256);
  const BinaryTrace full = decodeBinaryTrace(bytes, "<full>");
  ASSERT_GT(full.stats.events_chunks_decoded, 4u);

  TraceWindow window;
  window.from = 5.0;
  window.to = 8.0;
  const BinaryTrace part = decodeBinaryTraceWindow(bytes, "<win>", window);

  // The acceptance gate: the index was consulted and chunks outside the
  // window were never decoded -- their payload bytes stayed unread.
  EXPECT_TRUE(part.stats.used_index);
  EXPECT_GT(part.stats.events_chunks_skipped, 0u);
  EXPECT_GT(part.stats.payload_bytes_skipped, 0u);
  EXPECT_EQ(part.stats.events_chunks_decoded +
                part.stats.events_chunks_skipped,
            full.stats.events_chunks_decoded);
  EXPECT_LT(part.stats.events_decoded, full.events.size());

  // Exactly the events whose [ts, ts+dur] span intersects the window, in
  // the same canonical order the full decode yields.
  std::vector<const BinEvent*> expected;
  for (const BinEvent& e : full.events) {
    if (e.ts + e.dur >= window.from && e.ts <= window.to) {
      expected.push_back(&e);
    }
  }
  ASSERT_GT(expected.size(), 0u);
  ASSERT_EQ(part.events.size(), expected.size());
  EXPECT_EQ(part.stats.events_in_window, expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(part.events[i].ts, expected[i]->ts) << i;
    EXPECT_EQ(part.strings[part.events[i].name],
              full.strings[expected[i]->name])
        << i;
  }
}

TEST(BinlogV2, TailReaderBuffersAMidChunkCutAndSnapshotsThePrefix) {
  const std::string bytes = writtenWith(256);
  const BinaryTrace full = decodeBinaryTrace(bytes, "<full>");
  ASSERT_GT(full.index.size(), 4u);

  // Cut inside the middle events chunk: everything before it is complete,
  // the cut chunk itself can only sit in the buffer.
  const BinlogIndexEntry& cut_entry = full.index[full.index.size() / 2];
  const std::size_t cut = static_cast<std::size_t>(cut_entry.offset) + 15;
  ASSERT_LT(cut, bytes.size());

  BinlogTailReader reader("<tail>");
  // Feed in deliberately awkward 7-byte slices: every unit boundary lands
  // mid-read at some point.
  for (std::size_t pos = 0; pos < cut; pos += 7) {
    reader.feed(bytes.data() + pos, std::min<std::size_t>(7, cut - pos));
  }
  EXPECT_TRUE(reader.headerSeen());
  EXPECT_FALSE(reader.finished());
  EXPECT_GT(reader.bufferedBytes(), 0u);
  EXPECT_LT(reader.bufferedBytes(), cut);

  const BinaryTrace prefix = reader.snapshot();
  EXPECT_GT(prefix.events.size(), 0u);
  EXPECT_LT(prefix.events.size(), full.events.size());
  // Whatever decoded so far is a true prefix of the canonical order.
  for (std::size_t i = 0; i < prefix.events.size(); ++i) {
    EXPECT_EQ(prefix.events[i].ts, full.events[i].ts) << i;
  }

  // Feeding the rest converges on the offline decode.
  reader.feed(bytes.data() + cut, bytes.size() - cut);
  EXPECT_TRUE(reader.finished());
  EXPECT_EQ(reader.bufferedBytes(), 0u);
  const BinaryTrace done = reader.snapshot();
  EXPECT_EQ(done.events.size(), full.events.size());
  EXPECT_EQ(done.totals.recorded, full.totals.recorded);
  EXPECT_EQ(done.strings, full.strings);
}

}  // namespace
}  // namespace iobts::obs
