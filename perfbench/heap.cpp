// Live-heap accounting behind reset_heap_peak()/heap_peak_bytes()
// (spans.hpp): the replaceable global operator new/delete count the usable
// size of every block.  The array and nothrow forms of libstdc++ forward to
// these.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "spans.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void released(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return counted(std::aligned_alloc(a, rounded));
}

void operator delete(void* p) noexcept { released(p); }

void operator delete(void* p, std::size_t) noexcept { released(p); }

void operator delete(void* p, std::align_val_t) noexcept { released(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  released(p);
}

namespace perfbench {

std::int64_t reset_heap_peak() {
  const std::int64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

std::int64_t heap_peak_bytes() {
  return g_peak.load(std::memory_order_relaxed);
}

}  // namespace perfbench
