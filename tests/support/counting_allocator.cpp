#include "counting_allocator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

// The helpers are kept out of line so the compiler never sees an inlined
// malloc in operator new meet an inlined free in operator delete (GCC's
// -Wmismatched-new-delete would flag every such pair).
namespace {
std::atomic<std::uint64_t> g_allocations{0};

[[gnu::noinline]] void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

std::uint64_t iobts::testsupport::allocationCount() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  void* p = countedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t alignment =
      std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, alignment, size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}
