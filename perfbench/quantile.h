// Exact order statistics for the benchmark's latency samples.
//
// Percentiles are nearest-rank over the full sample set, never
// interpolated and never read from histogram buckets. A tail percentile
// is only reported where at least kTailSamples samples lie beyond it, so
// small runs fall back from p99 to the highest percentile they support.
#ifndef PERFBENCH_QUANTILE_H_
#define PERFBENCH_QUANTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailSamples = 10;

// Nearest-rank percentile (0 < pct <= 100) of ascending `sorted`; 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  size_t k = std::clamp<size_t>(static_cast<size_t>(rank), 1, sorted.size());
  return sorted[k - 1];
}

// The highest whole percentile, at most 99, with at least kTailSamples
// samples above its nearest rank. Below 2 * kTailSamples samples no
// percentile above the median qualifies, and 50 is returned.
inline int TailPercentile(size_t n) {
  for (int pct = 99; pct > 50; --pct) {
    size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n >= rank + kTailSamples) {
      return pct;
    }
  }
  return 50;
}

// Median and tail of a sample set, in the samples' unit.
struct Quantiles {
  size_t n = 0;
  double p50 = 0;
  int tail_pct = 50;
  double tail = 0;
};

inline Quantiles Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Quantiles q;
  q.n = samples.size();
  q.p50 = Percentile(samples, 50);
  q.tail_pct = TailPercentile(samples.size());
  q.tail = Percentile(samples, q.tail_pct);
  return q;
}

}  // namespace perfbench

#endif  // PERFBENCH_QUANTILE_H_
