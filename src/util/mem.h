// Process memory telemetry for the streaming pipeline's bounded-RSS
// story: the OS peak RSS (getrusage high-water mark, never resettable)
// plus in-process allocation counters fed by operator-new hooks — live
// bytes, their high-water mark, and the number of allocations.
//
// The allocation counters are deterministic (no page-cache or allocator
// slack): the BENCH_pipeline bounded-memory gate compares the byte
// high-water mark, and the align and shuffle benches count allocations;
// ru_maxrss is reported alongside as the ground truth. The operator
// new/delete overrides live in the separate opt-in TU mem_hooks.cc —
// link it into a binary's own sources to activate tracking. It must NOT
// go into a library: every binary linking that library would then
// replace the global operator new, tracked or not.

#ifndef GESALL_UTIL_MEM_H_
#define GESALL_UTIL_MEM_H_

#include <cstddef>
#include <cstdint>

namespace gesall {

/// \brief Lifetime peak resident set size of this process in bytes
/// (ru_maxrss). Monotone: the OS never lowers it.
int64_t PeakRssBytes();

/// \brief Current resident set size in bytes (/proc/self/statm), or 0
/// when unavailable on this platform.
int64_t CurrentRssBytes();

namespace memhooks {
/// Called by the opt-in operator-new/delete overrides (mem_hooks.cc).
/// Safe to call from any thread; relaxed atomics on the hot path.
void RecordAlloc(size_t bytes);
void RecordFree(size_t bytes);
}  // namespace memhooks

/// \brief Bytes currently allocated through the hooks (0 when the hook
/// TU is not linked).
int64_t LiveAllocBytes();

/// \brief High-water mark of LiveAllocBytes() since the last reset.
int64_t PeakAllocBytes();

/// \brief Restarts the allocation high-water mark from the current live
/// count, so a caller can measure the peak of one phase.
void ResetPeakAllocBytes();

/// \brief Allocations observed through the hooks since process start
/// (0 when the hook TU is not linked). Monotone: diff two readings to
/// count the allocations of one phase.
int64_t AllocCount();

/// \brief True when the operator-new hooks are linked into this binary
/// and have observed at least one allocation.
bool AllocTrackingActive();

/// \brief One point-in-time reading of all memory telemetry.
struct MemorySample {
  int64_t peak_rss_bytes = 0;
  int64_t current_rss_bytes = 0;
  int64_t live_alloc_bytes = 0;   // 0 unless hooks linked
  int64_t peak_alloc_bytes = 0;   // 0 unless hooks linked
};

MemorySample SampleMemory();

}  // namespace gesall

#endif  // GESALL_UTIL_MEM_H_
