// Shared vocabulary of the mini-MPI runtime.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "pfs/shared_link.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace iobts::mpisim {

/// MPI-IO operations we model (the non-collective explicit-offset family the
/// paper's modified HACC-IO uses, plus their blocking counterparts).
enum class IoOp : int {
  WriteAt,   // MPI_File_write_at
  ReadAt,    // MPI_File_read_at
  IWriteAt,  // MPI_File_iwrite_at
  IReadAt,   // MPI_File_iread_at
};

const char* ioOpName(IoOp op) noexcept;
bool isAsync(IoOp op) noexcept;
bool isWrite(IoOp op) noexcept;
pfs::Channel channelOf(IoOp op) noexcept;

/// MPI-style error class of a finished operation. Mirrors the
/// error-in-status convention: a failed async request still *completes*
/// (MPI_Wait/Test return), and the caller reads the error from the request.
enum class IoError : int {
  Ok = 0,
  /// Every attempt drew a transfer fault and the retry budget/deadline ran
  /// out (the EIO the application finally sees).
  RetriesExhausted = 1,
  /// The operation was still queued when AdioEngine::abort() tore the I/O
  /// thread down (failed-job teardown in the cluster sim).
  Cancelled = 2,
};

const char* ioErrorName(IoError error) noexcept;

/// Stable journey id of one MPI-IO request. Every flow event the request
/// leaves behind -- the ADIO queue/subrequest/pacing spans, the PFS
/// transfer settles, retry backoffs -- carries this id, so an exported
/// trace reconstructs the request end-to-end (and Perfetto draws the arrow
/// chain). Derived purely from (rank, per-rank request id): deterministic
/// across identical runs even within one OS process, and nonzero by
/// construction (0 means "no journey" at the instrumentation sites).
inline constexpr std::uint64_t journeyOf(int rank,
                                         std::uint64_t request_id) noexcept {
  return (static_cast<std::uint64_t>(rank + 1) << 32) ^ (request_id + 1);
}

/// Rounds of a binomial-tree collective over `ranks` ranks: ceil(log2),
/// 0 for one rank. Collective latency and TMIO's finalize cost scale by it.
inline constexpr int treeStages(int ranks) noexcept {
  int stages = 0;
  for (int reach = 1; reach < ranks; reach *= 2) ++stages;
  return stages;
}

/// Everything an interception library (TMIO) learns about one I/O request
/// through the PMPI-style hooks.
struct RequestInfo {
  std::uint64_t id = 0;       // unique per rank
  int rank = -1;
  IoOp op = IoOp::WriteAt;
  Bytes bytes = 0;
  Bytes offset = 0;
  sim::Time submit_time = sim::kNoTime;  // MPI call entered (ts)
  sim::Time io_start = sim::kNoTime;     // I/O thread began the transfer
  sim::Time io_end = sim::kNoTime;       // I/O thread finished (gives dt^o)
  bool completed = false;
  IoError error = IoError::Ok;
  /// Transfer retries the I/O thread performed for this request.
  std::uint32_t retries = 0;

  bool ok() const noexcept { return error == IoError::Ok; }
};

/// Thrown by the *blocking* MPI-IO calls (write_at/read_at) when the
/// operation ultimately fails -- blocking MPI has nowhere to park an error
/// status the caller would reliably read. Async operations never throw;
/// they report through Request::error().
class IoFailure : public std::runtime_error {
 public:
  explicit IoFailure(const RequestInfo& info)
      : std::runtime_error(std::string(ioOpName(info.op)) + " failed: " +
                           ioErrorName(info.error) + " (rank " +
                           std::to_string(info.rank) + ", " +
                           std::to_string(info.retries) + " retries)"),
        info_(info) {}

  const RequestInfo& info() const noexcept { return info_; }

 private:
  RequestInfo info_;
};

}  // namespace iobts::mpisim
