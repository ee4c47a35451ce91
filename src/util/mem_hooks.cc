// Opt-in global operator new/delete overrides feeding the util/mem
// allocation counters (live bytes, their high-water mark, allocation
// count). Add this FILE to a binary's own source list to activate
// tracking there — never to a library target, or every binary linking
// the library would replace the global operator new.
//
// Accounting invariant: whatever size a block records at allocation it
// records again at free, so LiveAllocBytes is exact and PeakAllocBytes
// meaningful. With malloc_usable_size that size is the usable block
// size read from the allocator; without it, every block carries a
// small header storing the size (unsized deletes would otherwise free
// 0 bytes and the live counter would drift upward forever).
// Over-aligned (align_val_t) allocations always use a headered shim so
// they are tracked too.

#include <cstdint>
#include <cstdlib>
#include <new>

#include "util/mem.h"

#if defined(__GLIBC__) || __has_include(<malloc.h>)
#include <malloc.h>
#define GESALL_MEM_USABLE_SIZE 1
#endif

namespace {

// malloc that honors the std::new_handler protocol required of a
// conforming operator-new replacement: on failure, invoke the handler
// (which may free memory) and retry; only throw once no handler is set.
void* MallocOrHandler(size_t size) {
  for (;;) {
    void* p = std::malloc(size);
    if (p != nullptr) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

#if defined(GESALL_MEM_USABLE_SIZE)

void* TrackedAlloc(size_t size) {
  void* p = MallocOrHandler(size);
  gesall::memhooks::RecordAlloc(malloc_usable_size(p));
  return p;
}

void TrackedFree(void* p) noexcept {
  if (p == nullptr) return;
  gesall::memhooks::RecordFree(malloc_usable_size(p));
  std::free(p);
}

#else  // no malloc_usable_size: prefix every block with its size

struct alignas(alignof(std::max_align_t)) SizeHeader {
  size_t size;
};

void* TrackedAlloc(size_t size) {
  auto* h = static_cast<SizeHeader*>(MallocOrHandler(sizeof(SizeHeader) + size));
  h->size = size;
  gesall::memhooks::RecordAlloc(size);
  return h + 1;
}

void TrackedFree(void* p) noexcept {
  if (p == nullptr) return;
  SizeHeader* h = static_cast<SizeHeader*>(p) - 1;
  gesall::memhooks::RecordFree(h->size);
  std::free(h);
}

#endif  // GESALL_MEM_USABLE_SIZE

// Over-aligned allocations: malloc a padded block and place the user
// pointer at the requested alignment, with {raw, size} stored directly
// below it so free can recover both without malloc_usable_size.
struct AlignedHeader {
  void* raw;
  size_t size;
};

void* TrackedAllocAligned(size_t size, size_t align) {
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  void* raw = MallocOrHandler(sizeof(AlignedHeader) + align + size);
  uintptr_t user =
      (reinterpret_cast<uintptr_t>(raw) + sizeof(AlignedHeader) + align - 1) &
      ~(static_cast<uintptr_t>(align) - 1);
  auto* h = reinterpret_cast<AlignedHeader*>(user) - 1;
  h->raw = raw;
  h->size = size;
  gesall::memhooks::RecordAlloc(size);
  return reinterpret_cast<void*>(user);
}

void TrackedFreeAligned(void* p) noexcept {
  if (p == nullptr) return;
  AlignedHeader* h = static_cast<AlignedHeader*>(p) - 1;
  gesall::memhooks::RecordFree(h->size);
  std::free(h->raw);
}

}  // namespace

void* operator new(size_t size) { return TrackedAlloc(size); }
void* operator new[](size_t size) { return TrackedAlloc(size); }
void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, size_t) noexcept { TrackedFree(p); }

void* operator new(size_t size, std::align_val_t align) {
  return TrackedAllocAligned(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return TrackedAllocAligned(size, static_cast<size_t>(align));
}
void operator delete(void* p, std::align_val_t) noexcept {
  TrackedFreeAligned(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  TrackedFreeAligned(p);
}
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  TrackedFreeAligned(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  TrackedFreeAligned(p);
}
