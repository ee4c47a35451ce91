#include "util/mem.h"

#include <gtest/gtest.h>

namespace gesall {
namespace {

TEST(MemTest, PeakRssIsPositiveAndMonotone) {
  int64_t peak = PeakRssBytes();
  EXPECT_GT(peak, 0);
  EXPECT_GE(PeakRssBytes(), peak);
}

TEST(MemTest, CurrentRssIsSane) {
  // /proc may be unavailable on exotic platforms; when present, the
  // reading should be plausibly sized for a test process. (statm and
  // ru_maxrss use different page accounting under some kernels, so no
  // ordering between them is asserted.)
  int64_t cur = CurrentRssBytes();
  if (cur > 0) {
    EXPECT_GT(cur, 1 << 20);          // > 1 MiB
    EXPECT_LT(cur, 1LL << 40);        // < 1 TiB
  }
}

TEST(MemTest, AllocCounterTracksRecordCalls) {
  // The operator-new hooks are opt-in per binary and not linked into
  // tests; drive the counter API directly.
  ResetPeakAllocBytes();
  int64_t base_live = LiveAllocBytes();
  int64_t base_peak = PeakAllocBytes();
  memhooks::RecordAlloc(1 << 20);
  EXPECT_EQ(LiveAllocBytes(), base_live + (1 << 20));
  EXPECT_GE(PeakAllocBytes(), base_peak + (1 << 20));
  memhooks::RecordFree(1 << 20);
  EXPECT_EQ(LiveAllocBytes(), base_live);
  // The high-water mark survives the free until reset.
  EXPECT_GE(PeakAllocBytes(), base_peak + (1 << 20));
  ResetPeakAllocBytes();
  EXPECT_EQ(PeakAllocBytes(), LiveAllocBytes());
}

TEST(MemTest, AllocCountCountsEveryRecordedAllocation) {
  const int64_t before = AllocCount();
  memhooks::RecordAlloc(64);
  memhooks::RecordAlloc(1 << 20);
  EXPECT_EQ(AllocCount(), before + 2);
  // Frees leave the count alone: it is a number of allocations, not a
  // live total.
  memhooks::RecordFree(64);
  memhooks::RecordFree(1 << 20);
  EXPECT_EQ(AllocCount(), before + 2);
}

TEST(MemTest, SampleMemoryCombinesAllReadings) {
  MemorySample s = SampleMemory();
  EXPECT_GT(s.peak_rss_bytes, 0);
  EXPECT_EQ(s.live_alloc_bytes, LiveAllocBytes());
}

}  // namespace
}  // namespace gesall
