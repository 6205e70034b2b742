#include "sim/frame_cache.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define IOBTS_FRAME_CACHE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IOBTS_FRAME_CACHE_ASAN 1
#endif
#endif

#ifdef IOBTS_FRAME_CACHE_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace iobts::sim {

namespace {

constexpr std::size_t kClasses =
    FrameCache::kMaxBytes / FrameCache::kClassBytes;

/// Size class of a cached request (bytes <= kMaxBytes).
constexpr std::size_t classOf(std::size_t bytes) noexcept {
  return bytes == 0 ? 0 : (bytes - 1) / FrameCache::kClassBytes;
}

constexpr std::size_t classBytes(std::size_t cls) noexcept {
  return (cls + 1) * FrameCache::kClassBytes;
}

/// A cached block's first word links it to the next one; the rest of the
/// block is poisoned while it sits in the cache.
struct FreeBlock {
  FreeBlock* next;
};

/// Trivially destructible on purpose: it stays readable while other
/// thread_local objects are torn down, which is when `drained` matters.
struct ThreadLists {
  FreeBlock* heads[kClasses];
  bool exit_hook_armed;
  bool drained;
};
constinit thread_local ThreadLists t_lists{};

/// Drains the thread's lists at thread exit. Armed (constructed) by the
/// thread's first cached release, so threads that never cache pay nothing.
struct ExitDrain {
  ExitDrain() noexcept { t_lists.exit_hook_armed = true; }
  ~ExitDrain() {
    FrameCache::trim();
    t_lists.drained = true;
  }
};

void armExitDrain() noexcept {
  static thread_local ExitDrain drain;
  (void)drain;
}

}  // namespace

void* FrameCache::allocate(std::size_t bytes) {
  if (bytes > kMaxBytes) return ::operator new(bytes);
  const std::size_t cls = classOf(bytes);
  FreeBlock* const block = t_lists.heads[cls];
  if (block == nullptr) return ::operator new(classBytes(cls));
  t_lists.heads[cls] = block->next;
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  return block;
}

void FrameCache::release(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (bytes > kMaxBytes) {
    ::operator delete(block, bytes);
    return;
  }
  const std::size_t cls = classOf(bytes);
  if (t_lists.drained) {
    ASAN_UNPOISON_MEMORY_REGION(block, classBytes(cls));
    ::operator delete(block, classBytes(cls));
    return;
  }
  if (!t_lists.exit_hook_armed) armExitDrain();
  FreeBlock* const link = static_cast<FreeBlock*>(block);
  ASAN_UNPOISON_MEMORY_REGION(link, sizeof(FreeBlock));
  link->next = t_lists.heads[cls];
  ASAN_POISON_MEMORY_REGION(reinterpret_cast<char*>(block) + sizeof(FreeBlock),
                            classBytes(cls) - sizeof(FreeBlock));
  t_lists.heads[cls] = link;
}

void FrameCache::trim() noexcept {
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    FreeBlock* block = t_lists.heads[cls];
    t_lists.heads[cls] = nullptr;
    while (block != nullptr) {
      FreeBlock* const next = block->next;
      ASAN_UNPOISON_MEMORY_REGION(block, classBytes(cls));
      ::operator delete(block, classBytes(cls));
      block = next;
    }
  }
}

std::size_t FrameCache::cachedBlocks() noexcept {
  std::size_t count = 0;
  for (const FreeBlock* head : t_lists.heads) {
    for (const FreeBlock* block = head; block != nullptr; block = block->next) {
      ++count;
    }
  }
  return count;
}

}  // namespace iobts::sim
