// Heap allocation counting for tests and benchmarks that assert or report
// how often a path allocates. Linking the inv_alloc_counter object library
// into a binary replaces its global operator new and delete with a pair that
// counts every operator new call per thread, and the bytes it asked for,
// then defers to malloc and free.
// Engine libraries never link it.

#pragma once

#include <cstdint>

namespace invfs {

// Calls of any operator new the calling thread has made so far.
uint64_t ThreadHeapAllocations();
// Bytes those calls requested, as asked (before any rounding by the
// allocator).
uint64_t ThreadHeapBytes();

}  // namespace invfs
