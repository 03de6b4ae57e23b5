// Bounded exponential backoff: the one doubling ladder under both retry
// loops, ReliableComm's simulated backoff charge (machine/reliable) and
// the serving layer's tile-read retry sleep (serve/resilience).
#pragma once

#include <algorithm>

namespace capsp {

/// `base`·2^`retry`, capped at `cap`.  Doubling is exact in binary
/// floating point, so the ladder equals repeated min(2·b, cap) bit for
/// bit; the loop stops at the cap, so a huge `retry` cannot overflow.
inline double capped_doubling(double base, int retry, double cap) {
  double backoff = base;
  for (int i = 0; i < retry && backoff < cap; ++i) backoff *= 2;
  return std::min(backoff, cap);
}

}  // namespace capsp
