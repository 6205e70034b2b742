#include "scenario/generator.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/rng.hpp"

namespace iobts::scenario {
namespace {

/// Self-contained splitmix64 chain; the generator's only entropy source.
class Dice {
 public:
  explicit Dice(std::uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ULL) {
    // Warm up so close seeds diverge immediately.
    splitmix64(state_);
  }

  std::uint64_t next() { return splitmix64(state_); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  bool chance(int percent) {
    return static_cast<int>(next() % 100) < percent;
  }

 private:
  std::uint64_t state_;
};

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

/// "<units>.<cents>" -- all generated durations/factors are exact decimal
/// strings, so the document round-trips through strtod identically forever.
std::string decimal(std::int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

class Gen {
 public:
  Gen(const GeneratorConfig& config, std::uint64_t seed)
      : cfg_(config), seed_(seed), dice_(seed) {}

  std::string run() {
    appendf(out_, "# generated scenario, seed %llu\n",
            static_cast<unsigned long long>(seed_));
    appendf(out_, "scenario \"gen-%llu\"\n",
            static_cast<unsigned long long>(seed_));
    emitLink();
    if (cfg_.allow_faults && seed_ % 3 == 0) emitFaults();
    if (cfg_.allow_streaming && seed_ % 4 == 0) {
      emitStreaming();
    } else {
      emitPhased();
    }
    return std::move(out_);
  }

 private:
  void emitLink() {
    // Small capacities relative to the generated transfer sizes, so
    // scenarios actually contend for the link.
    appendf(out_, "link { write = %llde9  read = %llde9",
            static_cast<long long>(dice_.range(1, 8)),
            static_cast<long long>(dice_.range(1, 8)));
    if (dice_.chance(40)) {
      appendf(out_, "  client_cap = %llde8",
              static_cast<long long>(dice_.range(2, 9)));
    }
    if (dice_.chance(25)) {
      appendf(out_, "  congestion = %llde-4",
              static_cast<long long>(dice_.range(1, 5)));
    }
    appendf(out_, "  seed = %llu }\n",
            static_cast<unsigned long long>(seed_ % 1000 + 1));
  }

  void emitFaults() {
    // Degradations and one blackout only: transfers may slow down or stall
    // but never fail, so conservation-of-bytes stays exact (see header).
    appendf(out_, "faults { seed = %llu\n",
            static_cast<unsigned long long>(seed_ % 997 + 1));
    const int degrades = static_cast<int>(dice_.range(1, 2));
    for (int i = 0; i < degrades; ++i) {
      const std::int64_t begin = dice_.range(0, 200);   // cents of a second
      const std::int64_t len = dice_.range(20, 150);
      appendf(out_, "  degrade %s 0.%lld from %s to %s\n",
              dice_.chance(50) ? "write" : "read",
              static_cast<long long>(dice_.range(3, 9)),
              decimal(begin).c_str(), decimal(begin + len).c_str());
    }
    if (dice_.chance(50)) {
      const std::int64_t begin = dice_.range(50, 300);
      const std::int64_t len = dice_.range(5, 40);
      appendf(out_, "  blackout from %s to %s\n", decimal(begin).c_str(),
              decimal(begin + len).c_str());
    }
    out_ += "}\n";
  }

  const char* pickStrategy() {
    switch (dice_.next() % 5) {
      case 0: return "none";
      case 1: return "direct";
      case 2: return "up-only";
      case 3: return "adaptive";
      default: return "mfu";
    }
  }

  std::string pickBytes() {
    // Between 4 KiB and max_bytes, in whole KiB.
    const std::int64_t max_kib =
        std::max<std::int64_t>(4, static_cast<std::int64_t>(
                                      cfg_.max_bytes / kKiB));
    return std::to_string(dice_.range(4, max_kib)) + "KiB";
  }

  void emitWorldHeader(const char* name, int ranks) {
    appendf(out_, "world %s { ranks = %d  seed = %llu  strategy = \"%s\"",
            name, ranks,
            static_cast<unsigned long long>(dice_.range(1, 1 << 20)),
            pickStrategy());
    if (dice_.chance(20)) out_ += "  jitter = 0.02";
    if (dice_.chance(30)) out_ += "  tolerance = 1.30";
    // Chosen by seed, not by a dice draw, so every other document keeps its
    // bytes.
    if (seed_ % 5 == 2) out_ += "  burst_buffer = 1";
    out_ += " }\n";
  }

  // --- streaming pipeline: producer writes + signals, consumer recvs + reads
  void emitStreaming() {
    const int ranks = static_cast<int>(dice_.range(1, cfg_.max_ranks));
    const int iters = static_cast<int>(dice_.range(1, 4));
    const std::string chunk = pickBytes();
    const std::string produce = decimal(dice_.range(1, 40));
    const std::string consume = decimal(dice_.range(1, 40));

    emitWorldHeader("producer", ranks);
    emitWorldHeader("consumer", ranks);

    appendf(out_, "program producer {\n  loop i : %d {\n", iters);
    appendf(out_, "    compute %s\n", produce.c_str());
    appendf(out_,
            "    write file \"/pfs/stream.{rank}\" at i * %s bytes %s "
            "tag splitmix((rank << 16) ^ i)\n",
            chunk.c_str(), chunk.c_str());
    out_ += "    signal chunk_ready\n  }\n}\n";

    appendf(out_, "program consumer {\n  loop i : %d {\n", iters);
    out_ += "    recv chunk_ready\n";
    appendf(out_, "    read file \"/pfs/stream.{rank}\" at i * %s bytes %s\n",
            chunk.c_str(), chunk.c_str());
    appendf(out_, "    compute %s\n  }\n}\n", consume.c_str());
  }

  // --- phased single-world scenario ----------------------------------------
  void emitStmt(int phase, bool has_loop_var, bool* used_async, int depth) {
    const int kind = static_cast<int>(dice_.next() % 8);
    const std::string indent(static_cast<std::size_t>(4 + 2 * depth), ' ');
    switch (kind) {
      case 0:
        appendf(out_, "%scompute %s\n", indent.c_str(),
                decimal(dice_.range(1, 30)).c_str());
        break;
      case 1: {
        const int c = static_cast<int>(dice_.next() % 3);
        if (c == 0) {
          appendf(out_, "%sbarrier\n", indent.c_str());
        } else {
          appendf(out_, "%s%s %lld\n", indent.c_str(),
                  c == 1 ? "bcast" : "allreduce",
                  static_cast<long long>(dice_.range(8, 64)));
        }
        break;
      }
      case 2: {
        const std::string bytes = pickBytes();
        const long long block = static_cast<long long>(dice_.range(0, 3));
        const long long salt = static_cast<long long>(dice_.range(0, 1 << 20));
        appendf(out_,
                "%swrite file \"/pfs/gen%d.{rank}\" at %lld * %s bytes %s "
                "tag splitmix((rank << 12) ^ %lld)\n",
                indent.c_str(), phase, block, bytes.c_str(), bytes.c_str(),
                salt);
        if (dice_.chance(50)) {
          // Re-check the write just made: same region, same tag. No await
          // sits between the blocking write and the verify, so the verdict
          // is always clean (the fuzz suite asserts verify_failures == 0).
          appendf(out_,
                  "%sverify file \"/pfs/gen%d.{rank}\" at %lld * %s bytes %s "
                  "tag splitmix((rank << 12) ^ %lld)\n",
                  indent.c_str(), phase, block, bytes.c_str(), bytes.c_str(),
                  salt);
        }
        break;
      }
      case 3:
        appendf(out_, "%sread file \"/pfs/gen%d.{rank}\" at 0 bytes %s\n",
                indent.c_str(), phase, pickBytes().c_str());
        break;
      case 4:
        appendf(out_,
                "%siwrite file \"/pfs/gen%d.{rank}\" at %lld * %s bytes %s "
                "tag splitmix(rank ^ %lld) -> pend%d\n",
                indent.c_str(), phase,
                static_cast<long long>(dice_.range(4, 7)), pickBytes().c_str(),
                pickBytes().c_str(),
                static_cast<long long>(dice_.range(0, 1 << 20)), phase);
        *used_async = true;
        break;
      case 5:
        appendf(out_,
                "%siread file \"/pfs/gen%d.{rank}\" at 0 bytes %s -> pend%d\n",
                indent.c_str(), phase, pickBytes().c_str(), phase);
        *used_async = true;
        break;
      case 6: {
        if (depth >= 1) {
          appendf(out_, "%scompute %s\n", indent.c_str(),
                  decimal(dice_.range(1, 30)).c_str());
          break;
        }
        appendf(out_, "%sloop j%d : %lld {\n", indent.c_str(), phase,
                static_cast<long long>(dice_.range(1, 3)));
        emitStmt(phase, has_loop_var, used_async, depth + 1);
        appendf(out_, "%s}\n", indent.c_str());
        break;
      }
      default: {
        if (depth >= 1) {
          appendf(out_, "%sbcast 8\n", indent.c_str());
          break;
        }
        // Rank-independent condition only (collectives may sit inside).
        const std::string cond =
            has_loop_var ? "r % 2 == 0" : "ranks > 1";
        appendf(out_, "%sif %s {\n", indent.c_str(), cond.c_str());
        emitStmt(phase, has_loop_var, used_async, depth + 1);
        appendf(out_, "%s} else {\n", indent.c_str());
        emitStmt(phase, has_loop_var, used_async, depth + 1);
        appendf(out_, "%s}\n", indent.c_str());
        break;
      }
    }
  }

  void emitPhased() {
    const int ranks = static_cast<int>(dice_.range(1, cfg_.max_ranks));
    emitWorldHeader("main", ranks);
    appendf(out_, "let unit = %s\n", pickBytes().c_str());

    const int phases = static_cast<int>(dice_.range(1, cfg_.max_phases));
    out_ += "program main {\n";
    for (int p = 0; p < phases; ++p) {
      const bool repeat = dice_.chance(60);
      if (repeat) {
        appendf(out_, "  phase p%d repeat r : %lld {\n", p,
                static_cast<long long>(dice_.range(1, cfg_.max_repeat)));
      } else {
        appendf(out_, "  phase p%d {\n", p);
      }
      bool used_async = false;
      const int stmts = static_cast<int>(dice_.range(1, cfg_.max_stmts));
      for (int s = 0; s < stmts; ++s) {
        emitStmt(p, repeat, &used_async, 0);
      }
      if (used_async) appendf(out_, "    waitall pend%d\n", p);
      out_ += "  }";
      // Exercise the explicit-successor syntax now and then (still linear).
      if (p + 1 < phases && dice_.chance(30)) {
        appendf(out_, " -> p%d", p + 1);
      }
      out_ += "\n";
    }
    out_ += "}\n";
  }

  GeneratorConfig cfg_;
  std::uint64_t seed_;
  Dice dice_;
  std::string out_;
};

}  // namespace

std::string generateScenario(const GeneratorConfig& config,
                             std::uint64_t seed) {
  return Gen(config, seed).run();
}

}  // namespace iobts::scenario
