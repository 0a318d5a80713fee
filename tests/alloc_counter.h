#ifndef POLYDAB_TESTS_ALLOC_COUNTER_H_
#define POLYDAB_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

/// \file alloc_counter.h
/// Heap-allocation counting for the allocation guards. A test binary that
/// links alloc_counter.cc replaces the global operator new with one that
/// counts the calls of each thread.

namespace polydab::testing_util {

/// operator new calls made so far by the calling thread.
int64_t ThreadNews();

}  // namespace polydab::testing_util

#endif  // POLYDAB_TESTS_ALLOC_COUNTER_H_
