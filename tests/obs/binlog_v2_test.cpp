// Binlog v2 container tests: the footer index lets the windowed reader
// skip chunks it proves irrelevant (counters assert the skipping actually
// happened), shard-tagged recording through ShardedBinaryWriter runs the
// same encoder as the single-sink writer and merges canonically including
// degenerate zero-event shards, and the tail reader buffers a mid-chunk
// cut while still snapshotting every complete chunk before it.
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
void recordSpread(TraceSink& sink, double t0 = 0.0, int events = 200) {
  sink.setProcessName(track::kStreams, "pfs streams");
  for (int i = 0; i < events; ++i) {
    const double ts = t0 + 0.5 + 0.1 * i;
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

TEST(BinlogV2, OneShardShardedWriterMatchesTheSingleSinkWriter) {
  // Both writers run the same encoder: the same events through one shard
  // of a ShardedBinaryWriter (names from the same kind of sink) must give
  // the single-sink writer's file byte for byte -- across many chunk seals
  // and ring drains.
  for (const std::size_t flush_bytes : {std::size_t{256}, std::size_t{1} << 20}) {
    SCOPED_TRACE(flush_bytes);
    TraceSinkConfig ring;
    ring.capacity = 64;
    BinaryTraceWriterConfig config;
    config.flush_bytes = flush_bytes;
    std::string single;
    {
      TraceSink sink(ring);
      BinaryTraceWriter writer(sink, &single, config);
      recordSpread(sink);
      ASSERT_TRUE(writer.close());
    }
    std::string sharded;
    {
      TraceSink sink(ring);
      ShardedBinaryWriter recorder(&sharded, config);
      recorder.attachShard(0, sink);
      recorder.setNameSource(sink);
      recordSpread(sink);
      ASSERT_TRUE(recorder.close());
    }
    ASSERT_GT(single.size(), 100u);
    EXPECT_EQ(single, sharded);
  }
}

TEST(BinlogV2, ShardEntirelyOutsideTheWindowIsSkipped) {
  // Shard 0 lives around t=1s, shard 1 around t=100s. A [95, 105] window
  // must decode shard 1's chunks only.
  std::string bytes;
  {
    ShardedBinaryWriter recorder(&bytes);
    TraceSink early, late;
    recorder.attachShard(0, early);
    recorder.attachShard(1, late);
    recordSpread(early, 0.0, 40);   // [0.5, 4.4]
    recordSpread(late, 99.0, 40);   // [99.5, 103.4]
    recorder.close();
  }
  TraceWindow window;
  window.from = 95.0;
  window.to = 105.0;
  const BinaryTrace part = decodeBinaryTraceWindow(bytes, "<shardwin>",
                                                   window);
  EXPECT_TRUE(part.stats.used_index);
  EXPECT_GT(part.stats.events_chunks_skipped, 0u);
  ASSERT_EQ(part.events.size(), 40u);
  for (const BinEvent& e : part.events) EXPECT_EQ(e.shard, 1u);

  const BinaryTrace full = decodeBinaryTrace(bytes, "<shardfull>");
  EXPECT_EQ(full.shard_count, 2u);
  EXPECT_EQ(full.events.size(), 80u);
}

TEST(BinlogV2, ZeroEventShardContributesNothingButDecodesCleanly) {
  std::string bytes;
  {
    ShardedBinaryWriter recorder(&bytes);
    TraceSink busy, idle;
    recorder.attachShard(0, busy);
    recorder.attachShard(1, idle);  // never records a single event
    recordSpread(busy, 0.0, 10);
    recorder.close();
    EXPECT_EQ(recorder.events(), 10u);
  }
  const BinaryTrace trace = decodeBinaryTrace(bytes, "<zeroshard>");
  EXPECT_EQ(trace.events.size(), 10u);
  for (const BinEvent& e : trace.events) EXPECT_EQ(e.shard, 0u);
  EXPECT_EQ(trace.totals.recorded, 10u);
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
