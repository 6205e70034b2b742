// Per-thread recycling cache for the small objects of the request path.
//
// Every simulated MPI-IO request creates and destroys a handful of
// short-lived blocks: coroutine frames (the submit/wait/engine/transfer
// tasks; the link's transfer record lives in the transfer frame) and the
// request's shared state. Sent through the global allocator they cost more
// than the simulated work itself. The FrameCache keeps freed blocks on
// per-thread, size-classed free lists instead, so a steady-state request
// allocates nothing:
//
//   * size classes are multiples of kClassBytes up to kMaxBytes; larger
//     blocks go straight to the global allocator;
//   * no locks: a block freed on a thread joins *that* thread's list, no
//     matter which thread allocated it (every block of a class has the same
//     size, so any thread may reuse or free it);
//   * destroying a Simulation trims the destroying thread's lists back to
//     the global allocator, so finished runs do not pin memory (and do not
//     fragment the heap the next run's setup allocates from);
//   * a thread's lists drain when the thread exits; a release after that
//     drain goes straight to the global allocator;
//   * under AddressSanitizer a cached block is poisoned except for its
//     free-list link, so a use-after-free of a recycled object is still
//     reported.
//
// Three entry points share the one cache: sim::Task's promise (coroutine
// frames), CacheAllocated<T> (class-level operator new/delete) and
// CacheAllocator<T> (for std::allocate_shared).
#pragma once

#include <cstddef>
#include <new>

namespace iobts::sim {

class FrameCache {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxBytes = 1024;

  /// A block of at least `bytes` bytes, aligned for any type whose alignment
  /// does not exceed __STDCPP_DEFAULT_NEW_ALIGNMENT__.
  static void* allocate(std::size_t bytes);

  /// Return a block from allocate(); `bytes` must be the size it was
  /// allocated with.
  static void release(void* block, std::size_t bytes) noexcept;

  /// Hand this thread's cached blocks back to the global allocator.
  static void trim() noexcept;

  /// Number of blocks cached on this thread (tests).
  static std::size_t cachedBlocks() noexcept;
};

/// Rejects types the cache cannot align.
template <class T>
constexpr bool kCacheAlignable =
    alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__;

/// Mixin giving T class-level operator new/delete through the FrameCache:
/// `struct Node : sim::CacheAllocated<Node> { ... };`.
template <class T>
struct CacheAllocated {
  static void* operator new(std::size_t bytes) {
    static_assert(kCacheAlignable<T>, "over-aligned type in the FrameCache");
    return FrameCache::allocate(bytes);
  }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    FrameCache::release(block, bytes);
  }
};

/// Standard allocator over the FrameCache (std::allocate_shared etc.).
template <class T>
struct CacheAllocator {
  using value_type = T;

  CacheAllocator() noexcept = default;
  template <class U>
  CacheAllocator(const CacheAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    static_assert(kCacheAlignable<T>, "over-aligned type in the FrameCache");
    return static_cast<T*>(FrameCache::allocate(n * sizeof(T)));
  }
  void deallocate(T* block, std::size_t n) noexcept {
    FrameCache::release(block, n * sizeof(T));
  }

  template <class U>
  bool operator==(const CacheAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace iobts::sim
