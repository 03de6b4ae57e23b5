#include "spans.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <utility>

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double other_threads_cpu_s() {
  const auto self = static_cast<long>(syscall(SYS_gettid));
  double total = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const long tid = std::strtol(entry.path().filename().c_str(), nullptr, 10);
    if (tid == self) continue;
    // The per-thread CPU clock id of thread `tid`, as glibc's
    // pthread_getcpuclockid builds it: ~tid << 3 | CPUCLOCK_PERTHREAD |
    // CPUCLOCK_SCHED.  A thread that exited meanwhile just fails here.
    const auto clock = static_cast<clockid_t>((~tid << 3) | 4 | 2);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0)
      total += static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  return total;
}

std::uint32_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::children(std::uint32_t parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_)
    if (span.parent == parent) out.push_back(span);
  return out;
}

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t parent) {
  span_.name = name;
  span_.id = span_log().next_id();
  span_.parent = parent;
  span_.begin_ns = wall_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = wall_ns();
  span_log().add(span_);
}

namespace {

capsp::SemiringKernels g_inner;
std::atomic<std::uint32_t> g_kernel_parent{0};

/// Runs `call` as one kernel span: wall and thread-CPU time around it,
/// and the ops it returned.
template <typename Call>
std::int64_t kernel_span(const char* name, Call&& call) {
  Span span;
  span.name = name;
  span.parent = g_kernel_parent.load(std::memory_order_relaxed);
  span.begin_ns = wall_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  span.count = call();
  span.cpu_ns = thread_cpu_ns() - cpu0;
  span.end_ns = wall_ns();
  span_log().add(span);
  return span.count;
}

std::int64_t traced_fw(capsp::DistBlock& a) {
  return kernel_span(kFwSpan, [&] { return g_inner.fw(a); });
}

std::int64_t traced_accumulate(capsp::DistBlock& c, const capsp::DistBlock& a,
                               const capsp::DistBlock& b) {
  return kernel_span(kAccumulateSpan,
                     [&] { return g_inner.accumulate(c, a, b); });
}

void traced_combine(capsp::DistBlock& c, const capsp::DistBlock& other) {
  kernel_span(kCombineSpan, [&] {
    g_inner.combine(c, other);
    return std::int64_t{0};
  });
}

}  // namespace

capsp::SemiringKernels traced_kernels(const capsp::SemiringKernels& inner) {
  g_inner = inner;
  return {&traced_fw, &traced_accumulate, &traced_combine, inner.zero,
          inner.one};
}

void set_kernel_parent(std::uint32_t parent) {
  g_kernel_parent.store(parent, std::memory_order_relaxed);
}

}  // namespace perfbench
