// iobts_profile -- offline I/O profiler for binary flight-recorder traces.
//
// Reads a trace written by obs::BinaryTraceWriter (iobts_run --trace) and
// prints deterministic reports:
//
//   iobts_profile TRACE.bin                   # header + top spans
//   iobts_profile TRACE.bin --critical-path   # per-journey queue|pace|link|
//                                             # fault split (Perfetto-style
//                                             # flow binding)
//   iobts_profile TRACE.bin --link-csv        # per-channel bandwidth
//                                             # timeline (CSV)
//   iobts_profile TRACE.bin --breq            # fig10/fig13-style B_req
//                                             # table + per-channel minimum
//   iobts_profile TRACE.bin --breq-csv        # the same series as CSV
//   iobts_profile TRACE.bin --to-chrome OUT   # lossless conversion to a
//                                             # Perfetto-loadable Chrome
//                                             # trace JSON
//   iobts_profile TRACE.bin --from 2 --to 8   # only events overlapping the
//                                             # window; seeks via the footer
//                                             # index and decodes only the
//                                             # selected chunks
//   iobts_profile TRACE.bin --follow          # tail a growing trace:
//                                             # periodic refreshes, then the
//                                             # normal reports once the
//                                             # footer lands
//
// Report flags compose (each report prints once, in the order above).
// Exit codes: 0 ok, 1 unreadable/corrupt trace (the message names the
// defect and its BinlogErrorKind) or follow timeout, 2 usage (including a
// numeric flag value that is not a number in the flag's range).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "number_flag.hpp"
#include "obs/binlog.hpp"
#include "obs/profile.hpp"
#include "util/file_io.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s TRACE.bin [--critical-path] [--link-csv]\n"
               "          [--breq] [--breq-csv] [--to-chrome OUT.json]\n"
               "          [--top N] [--bins N] [--from T] [--to T]\n"
               "          [--follow] [--follow-poll-ms N] [--follow-max-s N]\n"
               "          [--follow-bytes-per-poll N]\n"
               "       (no report flag: header + top spans)\n",
               argv0);
  std::exit(2);
}

void appendTime(std::string& out, double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", t);
  out += buf;
}

/// Incrementally consume the growing file at `path`: feed every new byte to
/// the tail reader, print a refresh line whenever fresh chunks arrive, and
/// return the fully-merged trace once the footer and trailer land. Reads
/// are sliced to `bytes_per_poll` so partial-chunk buffering is exercised
/// even on files that are already complete.
iobts::obs::BinaryTrace followTrace(const std::string& path, int poll_ms,
                                    double max_s,
                                    std::size_t bytes_per_poll) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(max_s);
  iobts::obs::BinlogTailReader reader(path);
  std::ifstream in;
  std::uint64_t consumed = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t last_chunks = 0;
  std::vector<char> buf(bytes_per_poll);
  for (;;) {
    if (!in.is_open()) {
      in.open(path, std::ios::binary);
      if (!in.is_open()) in.clear();
    }
    bool progressed = false;
    if (in.is_open()) {
      // Re-seek every poll: the writer appends, and a previous read left
      // the stream at EOF (which sticks until cleared).
      in.clear();
      in.seekg(static_cast<std::streamoff>(consumed), std::ios::beg);
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      const std::streamsize got = in.gcount();
      if (got > 0) {
        reader.feed(buf.data(), static_cast<std::size_t>(got));
        consumed += static_cast<std::uint64_t>(got);
        progressed = true;
      }
    }
    if (reader.chunksConsumed() > last_chunks) {
      last_chunks = reader.chunksConsumed();
      ++refreshes;
      // Cheap live view: the rebuilt index carries the event count and
      // time cover of every sealed chunk, no decode pass needed.
      std::uint64_t indexed_events = 0;
      double t_hi = 0.0;
      for (const iobts::obs::BinlogIndexEntry& e : reader.liveIndex()) {
        if (e.kind != iobts::obs::binchunk::kEvents) continue;
        indexed_events += e.event_count;
        if (e.t_max > t_hi) t_hi = e.t_max;
      }
      std::printf("refresh %llu: %llu chunks, %llu events, t <= %.3f s, "
                  "%llu byte(s) buffered\n",
                  static_cast<unsigned long long>(refreshes),
                  static_cast<unsigned long long>(last_chunks),
                  static_cast<unsigned long long>(indexed_events),
                  t_hi,
                  static_cast<unsigned long long>(reader.bufferedBytes()));
      std::fflush(stdout);
    }
    if (reader.finished()) {
      std::printf("follow: converged after %llu refreshes (%llu chunks, "
                  "%llu events)\n",
                  static_cast<unsigned long long>(refreshes),
                  static_cast<unsigned long long>(reader.chunksConsumed()),
                  static_cast<unsigned long long>(reader.eventsDecoded()));
      std::fflush(stdout);
      return reader.snapshot();
    }
    if (Clock::now() >= deadline) {
      throw iobts::obs::BinlogError(
          iobts::obs::BinlogErrorKind::Truncated,
          path + ": --follow timed out without a footer (" +
              std::to_string(reader.chunksConsumed()) + " chunk(s), " +
              std::to_string(reader.bufferedBytes()) +
              " byte(s) of an unfinished chunk buffered)");
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string to_chrome;
  bool critical_path = false;
  bool link_csv = false;
  bool breq = false;
  bool breq_csv = false;
  bool follow = false;
  bool windowed = false;
  iobts::obs::TraceWindow window;
  std::size_t top = 20;
  std::size_t bins = 64;
  int poll_ms = 100;
  double follow_max_s = 30.0;
  std::size_t follow_bytes_per_poll = std::size_t{1} << 20;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto number = [&](int& i, auto lo, auto hi) {
    const char* flag = argv[i];
    return numberFlag("iobts_profile", flag, next(i), lo, hi);
  };
  // Numeric bounds. --top only bounds loops over the ranked spans, so any
  // count goes (0 prints the header and the "more" line). --bins sizes the
  // link CSV's rate table (three doubles per bin) and its text (up to three
  // lines per bin), both built whole in memory, and every transfer walks
  // every bin: 2^20 bins over a two-channel trace of 18,760 events peak at
  // 107 MiB and take 4 s on one Xeon core (RelWithDebInfo, GCC 12).
  // --follow-max-s stops at the longest wait the steady clock's duration
  // type holds (about 292 years). The follow read buffer is allocated at
  // --follow-bytes-per-poll, capped at the writer's largest flush threshold.
  constexpr double kMaxTime = std::numeric_limits<double>::max();
  constexpr double kMaxFollowS =
      std::chrono::duration<double>(
          std::chrono::steady_clock::duration::max())
          .count();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--critical-path") critical_path = true;
    else if (arg == "--link-csv") link_csv = true;
    else if (arg == "--breq") breq = true;
    else if (arg == "--breq-csv") breq_csv = true;
    else if (arg == "--to-chrome") to_chrome = next(i);
    else if (arg == "--top") {
      top = number(i, std::size_t{0}, std::numeric_limits<std::size_t>::max());
    } else if (arg == "--bins") {
      bins = number(i, std::size_t{0}, std::size_t{1} << 20);
    } else if (arg == "--from") {
      window.from = number(i, -kMaxTime, kMaxTime);
      windowed = true;
    } else if (arg == "--to") {
      window.to = number(i, -kMaxTime, kMaxTime);
      windowed = true;
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--follow-poll-ms") {
      poll_ms = number(i, 1, std::numeric_limits<int>::max());
    } else if (arg == "--follow-max-s") {
      follow_max_s = number(i, 0.0, kMaxFollowS);
    } else if (arg == "--follow-bytes-per-poll") {
      follow_bytes_per_poll =
          number(i, std::size_t{1},
                 iobts::obs::BinaryTraceWriterConfig::kMaxFlushBytes);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (path.empty()) usage(argv[0]);
  if (follow && windowed) {
    std::fprintf(stderr,
                 "--follow tails the whole file; it cannot combine with "
                 "--from/--to (the index is only final at the footer)\n");
    usage(argv[0]);
  }
  if (window.from > window.to) {
    std::fprintf(stderr, "--from must not exceed --to\n");
    usage(argv[0]);
  }

  iobts::obs::BinaryTrace trace;
  try {
    if (follow) {
      trace = followTrace(path, poll_ms, follow_max_s, follow_bytes_per_poll);
    } else if (windowed) {
      trace = iobts::obs::readBinaryTraceWindow(path, window);
    } else {
      trace = iobts::obs::readBinaryTrace(path);
    }
  } catch (const iobts::obs::BinlogError& e) {
    std::fprintf(stderr, "iobts_profile: error (%s): %s\n", e.kindName(),
                 e.what());
    return 1;
  }

  if (windowed) {
    std::string line = "window: [";
    appendTime(line, window.from);
    line += " s, ";
    appendTime(line, window.to);
    line += " s]";
    std::printf("%s -- decoded %llu/%llu event chunks (skipped %llu, "
                "%llu payload byte(s) unread), %llu event(s) in window\n",
                line.c_str(),
                static_cast<unsigned long long>(
                    trace.stats.events_chunks_decoded),
                static_cast<unsigned long long>(
                    trace.stats.events_chunks_decoded +
                    trace.stats.events_chunks_skipped),
                static_cast<unsigned long long>(
                    trace.stats.events_chunks_skipped),
                static_cast<unsigned long long>(
                    trace.stats.payload_bytes_skipped),
                static_cast<unsigned long long>(trace.stats.events_in_window));
  }

  const bool any_report = critical_path || link_csv || breq || breq_csv ||
                          !to_chrome.empty();
  if (!any_report) {
    std::printf("%s: ", path.c_str());
    std::fputs(iobts::obs::profileSummaryText(trace, top).c_str(), stdout);
  }
  if (critical_path) {
    std::fputs(iobts::obs::criticalPathText(trace, top).c_str(), stdout);
  }
  if (link_csv) {
    std::fputs(iobts::obs::linkTimelineCsv(trace, bins).c_str(), stdout);
  }
  if (breq) {
    std::fputs(iobts::obs::breqTableText(trace).c_str(), stdout);
  }
  if (breq_csv) {
    std::fputs(iobts::obs::breqTableCsv(trace).c_str(), stdout);
  }
  if (!to_chrome.empty()) {
    std::string error;
    if (!iobts::publishFile(to_chrome,
                            iobts::obs::chromeJsonFromBinaryTrace(trace),
                            &error)) {
      std::fprintf(stderr, "iobts_profile: %s\n", error.c_str());
      return 1;
    }
    std::printf("chrome trace: %zu events -> %s\n", trace.events.size(),
                to_chrome.c_str());
  }
  return 0;
}
