// Measurement probes of the benchmark: clocks, spans and heap accounting.
//
// The benchmark times calls into each layer's public functions from its
// own code: nothing inside src/ is instrumented.  Every span lands in one
// in-memory log that keeps it until the run ends.  The
// min-plus kernels are hooked through SemiringKernels' plain function
// pointers: traced_kernels() returns kernels that time each call and then
// delegate to the kernels they wrap, so the solver runs its ordinary code.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "semiring/semirings.hpp"

namespace perfbench {

/// Steady-clock time in nanoseconds.
std::int64_t wall_ns();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
std::int64_t thread_cpu_ns();
/// User + system CPU of the whole process (getrusage), seconds.
double process_cpu_s();
/// CPU time of every thread of the process except the calling one,
/// seconds: with the load generator calling, the service's own CPU.
double other_threads_cpu_s();

/// One timed call.  `parent` is the id of the span that caused it (0 for
/// a root span).  `cpu_ns` is the calling thread's CPU time over the span
/// when it was measured (-1 otherwise); `count` is the work the call
/// reported (scalar ⊗ operations for a kernel).
struct Span {
  const char* name = "";  ///< a string literal
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = -1;
  std::int64_t count = 0;

  double seconds() const {
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
  }
};

/// Process-wide span store; thread-safe.
class SpanLog {
 public:
  std::uint32_t next_id();
  void add(Span span);
  /// Every span recorded so far whose parent is `parent`.
  std::vector<Span> children(std::uint32_t parent) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

SpanLog& span_log();

/// Times its own lifetime as a span of the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }
  void set_count(std::int64_t count) { span_.count = count; }

 private:
  Span span_;
};

/// Live heap bytes: every operator new/delete in the process is counted
/// (by malloc_usable_size), so the figure is what the program holds, not
/// what the allocator keeps cached.  reset_heap_peak() sets the peak to
/// the current level and returns it.
std::int64_t reset_heap_peak();
std::int64_t heap_peak_bytes();

/// Kernels that record a span per call — wall time, thread CPU time and
/// the ops the call returned — under the span id given to
/// set_kernel_parent(), then delegate to `inner`.  Only one set of inner
/// kernels is live at a time (the pointers are plain functions).
capsp::SemiringKernels traced_kernels(const capsp::SemiringKernels& inner);
void set_kernel_parent(std::uint32_t parent);

/// Kernel span names, as recorded by traced_kernels().
inline constexpr const char* kFwSpan = "semiring.fw";
inline constexpr const char* kAccumulateSpan = "semiring.accumulate";
inline constexpr const char* kCombineSpan = "semiring.combine";

}  // namespace perfbench
