#include "sim/frame_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/simulation.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define IOBTS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IOBTS_TEST_ASAN 1
#endif
#endif
#ifdef IOBTS_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace iobts::sim {
namespace {

TEST(FrameCache, ReusesABlockWithinItsSizeClass) {
  FrameCache::trim();
  void* const first = FrameCache::allocate(100);
  FrameCache::release(first, 100);
  EXPECT_EQ(FrameCache::cachedBlocks(), 1u);
  // 100 and 120 bytes share the 128-byte class; 200 bytes does not.
  void* const other_class = FrameCache::allocate(200);
  EXPECT_NE(other_class, first);
  void* const same_class = FrameCache::allocate(120);
  EXPECT_EQ(same_class, first);
  FrameCache::release(same_class, 120);
  FrameCache::release(other_class, 200);
  EXPECT_EQ(FrameCache::cachedBlocks(), 2u);
  FrameCache::trim();
  EXPECT_EQ(FrameCache::cachedBlocks(), 0u);
}

TEST(FrameCache, LargeBlocksBypassTheCache) {
  FrameCache::trim();
  void* const block = FrameCache::allocate(FrameCache::kMaxBytes + 1);
  FrameCache::release(block, FrameCache::kMaxBytes + 1);
  EXPECT_EQ(FrameCache::cachedBlocks(), 0u);
}

TEST(FrameCache, SimulationTeardownTrimsTheThreadCache) {
  {
    Simulation sim;
    auto leaf = [&]() -> Task<void> { co_await sim.delay(1.0); };
    auto root = [&]() -> Task<void> {
      for (int i = 0; i < 8; ++i) co_await leaf();
    };
    for (int i = 0; i < 4; ++i) sim.spawn(root());
    sim.run();
    EXPECT_GT(FrameCache::cachedBlocks(), 0u);  // finished frames recycled
  }
  EXPECT_EQ(FrameCache::cachedBlocks(), 0u);
}

#ifdef IOBTS_TEST_ASAN
TEST(FrameCache, CachedBlocksArePoisonedExceptTheLink) {
  FrameCache::trim();
  char* const block = static_cast<char*>(FrameCache::allocate(256));
  EXPECT_EQ(__asan_region_is_poisoned(block, 256), nullptr);
  FrameCache::release(block, 256);
  EXPECT_EQ(__asan_region_is_poisoned(block, sizeof(void*)), nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(block + sizeof(void*)));
  EXPECT_TRUE(__asan_address_is_poisoned(block + 255));
  // A smaller request from the same class: the bytes past it stay poisoned.
  char* const again = static_cast<char*>(FrameCache::allocate(200));
  ASSERT_EQ(again, block);
  EXPECT_EQ(__asan_region_is_poisoned(again, 200), nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(again + 200));
  FrameCache::release(again, 200);
  FrameCache::trim();
}
#endif

}  // namespace
}  // namespace iobts::sim
