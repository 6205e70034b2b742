// MPI_Request analog for the simulated runtime.
//
// A Request is returned by the non-blocking MPI-IO calls; completion is
// signalled by the per-rank I/O thread through a generalized-request-style
// trigger (the paper's MPI_Grequest_complete). Requests are cheap shared
// handles; Wait/Test semantics follow the MPI standard: Wait blocks until
// complete, Test polls.
#pragma once

#include <memory>

#include "mpisim/types.hpp"
#include "sim/frame_cache.hpp"
#include "sim/simulation.hpp"

namespace iobts::mpisim {

class RankCtx;

namespace detail {
struct RequestState {
  explicit RequestState(sim::Simulation& simulation) : done(simulation) {}
  RequestInfo info;
  sim::Trigger done;  // the generalized request's completion event
};

/// A fresh request state, control block included, from the FrameCache.
inline std::shared_ptr<RequestState> makeRequestState(
    sim::Simulation& simulation) {
  return std::allocate_shared<RequestState>(
      sim::CacheAllocator<RequestState>(), simulation);
}
}  // namespace detail

class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return static_cast<bool>(state_); }

  /// MPI_Test analog: non-blocking completion check.
  bool test() const noexcept { return state_ && state_->info.completed; }

  /// MPI-style error-in-status: valid once completed. A failed request
  /// (retries exhausted, or cancelled by an engine abort) still completes --
  /// wait()/test() return normally and the caller inspects this.
  IoError error() const noexcept { return state_->info.error; }
  bool failed() const noexcept {
    return state_ && state_->info.completed &&
           state_->info.error != IoError::Ok;
  }

  const RequestInfo& info() const { return state_->info; }

  /// For the runtime/engine only.
  detail::RequestState& state() { return *state_; }

 private:
  std::shared_ptr<detail::RequestState> state_;
};

}  // namespace iobts::mpisim
