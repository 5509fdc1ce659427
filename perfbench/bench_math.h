#ifndef TOUCH_PERFBENCH_BENCH_MATH_H_
#define TOUCH_PERFBENCH_BENCH_MATH_H_

// The arithmetic the engine benchmark reports with: result-set checksums,
// percentile selection, span self time, planner q-error and regret. Kept
// free of engine headers so bench_math_test.cc can pin it down on its own.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace touch::perfbench {

/// SplitMix64's finalizer over the packed pair: a well-mixed 64-bit hash,
/// so distinct pair sets almost never share a sum.
inline uint64_t PairHash(uint32_t a, uint32_t b) {
  uint64_t z = (static_cast<uint64_t>(a) << 32) | b;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-independent fold of a pair multiset: a count plus the wrapping sum
/// of pair hashes. Removing a pair subtracts exactly what adding it added,
/// so folding a kAdded/kRemoved delta stream lands on the same value as
/// folding the final result set once.
struct PairFold {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint32_t a, uint32_t b) {
    ++count;
    sum += PairHash(a, b);
  }
  void Remove(uint32_t a, uint32_t b) {
    --count;
    sum -= PairHash(a, b);
  }
  bool operator==(const PairFold&) const = default;
};

/// Nearest-rank percentile index: the smallest 0-based index i of the sorted
/// samples such that at least p * n samples are <= sorted[i]. Requires n > 0
/// and p in (0, 1].
inline size_t PercentileIndex(size_t n, double p) {
  // The slack keeps p * n from rounding just above an integer (0.9 * 100).
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly after the percentile's index: the tail a reported
/// percentile rests on.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, p);
}

/// A percentile is only reported when at least `min_beyond` samples lie
/// beyond it (p90 needs n >= 100).
inline bool PercentileSupported(size_t n, double p, size_t min_beyond = 10) {
  return n > 0 && SamplesBeyond(n, p) >= min_beyond;
}

/// Nearest-rank percentile of `samples` (copied and sorted); 0 when empty.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[PercentileIndex(samples.size(), p)];
}

/// A half-open time interval [start, end), nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi). Overlapping
/// children (parallel shard pairs on other threads) count once.
inline int64_t UnionLength(std::vector<Interval> intervals, int64_t lo,
                           int64_t hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& x, const Interval& y) {
              return x.start < y.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = std::numeric_limits<int64_t>::min();
  for (const Interval& interval : intervals) {
    const int64_t start = std::max(interval.start, lo);
    const int64_t end = std::min(interval.end, hi);
    if (end <= start) continue;
    if (start > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = start;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return covered;
}

/// Self time of a span [start, start + duration): its duration minus the
/// part of it that the union of its children covers. Never negative, also
/// when children overlap each other or outlive the parent.
inline int64_t SelfTimeNs(int64_t start, int64_t duration,
                          std::span<const Interval> children) {
  const int64_t covered = UnionLength(
      std::vector<Interval>(children.begin(), children.end()), start,
      start + duration);
  return duration - covered;
}

/// Planner q-error: the factor by which the estimate misses the actual
/// result count, >= 1. Both sides are floored at 1 so empty results stay
/// finite.
inline double QError(double estimate, double actual) {
  const double e = std::max(estimate, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

/// Planner regret: the planned (auto) time over the best fixed algorithm's
/// time on the same request. 1 means the planner picked the fastest; 0 when
/// no fixed time was measured.
inline double Regret(double auto_seconds, std::span<const double> fixed) {
  if (fixed.empty()) return 0;
  const double best = *std::min_element(fixed.begin(), fixed.end());
  return best > 0 ? auto_seconds / best : 0;
}

}  // namespace touch::perfbench

#endif  // TOUCH_PERFBENCH_BENCH_MATH_H_
