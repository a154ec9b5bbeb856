#include "src/util/alloc_counter.h"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace invfs {
namespace {

constinit thread_local uint64_t allocations = 0;
constinit thread_local uint64_t bytes = 0;

void* Allocate(size_t n) {
  ++allocations;
  bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(size_t n, std::align_val_t align) {
  ++allocations;
  bytes += n;
  const auto a = static_cast<size_t>(align);
  // aligned_alloc takes a nonzero multiple of the alignment.
  void* p = std::aligned_alloc(a, (std::max<size_t>(n, 1) + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

uint64_t ThreadHeapAllocations() { return allocations; }
uint64_t ThreadHeapBytes() { return bytes; }

}  // namespace invfs

// Every replaceable form, so no allocation escapes the count and no block
// is released by an operator that did not allocate it (sanitizer runtimes
// bring their own operators and check that pairing).
void* operator new(size_t n) { return invfs::Allocate(n); }
void* operator new[](size_t n) { return invfs::Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return invfs::Allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void* operator new(size_t n, std::align_val_t a) { return invfs::AllocateAligned(n, a); }
void* operator new[](size_t n, std::align_val_t a) {
  return invfs::AllocateAligned(n, a);
}
void* operator new(size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return invfs::AllocateAligned(n, a);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t n, std::align_val_t a, const std::nothrow_t& tag) noexcept {
  return operator new(n, a, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
