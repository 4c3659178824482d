// Pure helpers of the benchmark: the percentile rule, the
// exactly-once tally and the seeded open-loop schedule. Kept free of any
// falkon runtime type so tests/selftest.cpp can check them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Samples a reported tail percentile must leave beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// The quantile to report for a tail named `wanted` (0.99 for a p99) over
/// `n` samples: `wanted` itself when at least kTailSamples samples lie
/// beyond it, otherwise the highest quantile that still leaves that many,
/// and never less than the median.
inline double supported_quantile(std::size_t n, double wanted) {
  if (n <= 2 * kTailSamples) return 0.5;
  const double highest = 1.0 - static_cast<double>(kTailSamples) /
                                   static_cast<double>(n);
  return std::max(0.5, std::min(wanted, highest));
}

/// Nearest-rank quantile: the smallest sample with at least q * n samples
/// at or below it. 0 for an empty set.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

/// Quantile `wanted`, lowered by supported_quantile when samples are few.
inline double tail(const std::vector<double>& values, double wanted) {
  return quantile(values, supported_quantile(values.size(), wanted));
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// tail(chunk, wanted) of each consecutive full chunk of `chunk` samples;
/// the whole set counts as one chunk when it holds no full chunk.
inline std::vector<double> chunk_tails(const std::vector<double>& values,
                                       std::size_t chunk, double wanted) {
  if (chunk == 0 || values.size() < chunk) return {tail(values, wanted)};
  std::vector<double> tails;
  for (std::size_t at = 0; at + chunk <= values.size(); at += chunk) {
    const auto from = values.begin() + static_cast<std::ptrdiff_t>(at);
    tails.push_back(tail({from, from + static_cast<std::ptrdiff_t>(chunk)}, wanted));
  }
  return tails;
}

/// Exactly-once check over a contiguous range of task ids starting at
/// `base`: every id must come back once, successfully. Anything else —
/// a missing id, a repeat, an unsuccessful result, an id never submitted —
/// counts as failed.
class Tally {
 public:
  explicit Tally(std::uint64_t base) : base_(base) {}

  /// Expect the next `n` ids of the range.
  void extend(std::size_t n) { seen_.resize(seen_.size() + n, 0); }

  /// Record one returned result. True on the first sighting of an
  /// expected id, which is what completes that task.
  bool record(std::uint64_t id, bool success) {
    if (id < base_ || id - base_ >= seen_.size()) {
      ++unexpected_;
      return false;
    }
    auto& count = seen_[id - base_];
    if (count != 0) {
      ++duplicates_;
      return false;
    }
    count = 1;
    if (!success) ++unsuccessful_;
    return true;
  }

  [[nodiscard]] std::uint64_t expected() const { return seen_.size(); }
  [[nodiscard]] std::uint64_t missing() const {
    return static_cast<std::uint64_t>(
        std::count(seen_.begin(), seen_.end(), 0));
  }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t unsuccessful() const { return unsuccessful_; }
  [[nodiscard]] std::uint64_t unexpected() const { return unexpected_; }
  [[nodiscard]] std::uint64_t failed() const {
    return missing() + duplicates_ + unsuccessful_ + unexpected_;
  }

 private:
  std::uint64_t base_;
  std::vector<std::uint8_t> seen_;
  std::uint64_t duplicates_{0};
  std::uint64_t unsuccessful_{0};
  std::uint64_t unexpected_{0};
};

/// Send times of `arrivals` submits of a Poisson process on [0, span_s),
/// conditioned on its count: sorted uniform points. Conditioning fixes the
/// offered rate exactly while keeping Poisson burstiness. Same seed, same
/// schedule.
inline std::vector<double> poisson_schedule(std::uint64_t seed,
                                            std::size_t arrivals,
                                            double span_s) {
  falkon::Rng rng(seed ^ 0x5eed5c4ed011eULL);
  std::vector<double> times(arrivals);
  for (auto& t : times) t = rng.uniform(0.0, span_s);
  std::sort(times.begin(), times.end());
  return times;
}

/// First task id of a run, drawn from the seed so ids differ across seeds
/// but never collide with 0 (the invalid id) or wrap.
inline std::uint64_t first_task_id(std::uint64_t seed) {
  falkon::Rng rng(seed ^ 0x1dba5e0000000001ULL);
  return 1 + rng.uniform_int(0, 1ULL << 40);
}

}  // namespace perfbench
