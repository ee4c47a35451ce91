#include "util/mem.h"

#include <atomic>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace gesall {

namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_alloc_count{0};
std::atomic<bool> g_tracking_active{false};
}  // namespace

int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

int64_t CurrentRssBytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long total = 0, resident = 0;
  int n = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) *
         static_cast<int64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

namespace memhooks {

void RecordAlloc(size_t bytes) {
  g_tracking_active.store(true, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  int64_t live = g_live_bytes.fetch_add(static_cast<int64_t>(bytes),
                                        std::memory_order_relaxed) +
                 static_cast<int64_t>(bytes);
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
}

void RecordFree(size_t bytes) {
  g_live_bytes.fetch_sub(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
}

}  // namespace memhooks

int64_t LiveAllocBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

int64_t PeakAllocBytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

void ResetPeakAllocBytes() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

int64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

bool AllocTrackingActive() {
  return g_tracking_active.load(std::memory_order_relaxed);
}

MemorySample SampleMemory() {
  MemorySample s;
  s.peak_rss_bytes = PeakRssBytes();
  s.current_rss_bytes = CurrentRssBytes();
  s.live_alloc_bytes = LiveAllocBytes();
  s.peak_alloc_bytes = PeakAllocBytes();
  return s;
}

}  // namespace gesall
