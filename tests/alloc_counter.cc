#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local int64_t t_news = 0;
}  // namespace

// Counting replacement of the global allocator.
void* operator new(std::size_t size) {
  ++t_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace polydab::testing_util {

int64_t ThreadNews() { return t_news; }

}  // namespace polydab::testing_util
