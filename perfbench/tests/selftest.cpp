// Self-tests of the benchmark's helpers (stats.h): the percentile rule,
// exactly-once accounting and schedule reproducibility. Exits non-zero if
// any check fails.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

void percentile_rule() {
  using perfbench::supported_quantile;
  // Enough samples: the named percentile itself.
  CHECK(supported_quantile(1000, 0.99) == 0.99);
  CHECK(supported_quantile(100000, 0.99) == 0.99);
  // Too few for a p99: the highest percentile with 10 samples beyond it.
  CHECK(supported_quantile(500, 0.99) == 1.0 - 10.0 / 500.0);
  CHECK(supported_quantile(100, 0.99) == 0.9);
  // Never below the median, even for tiny samples.
  CHECK(supported_quantile(15, 0.99) == 0.5);
  CHECK(supported_quantile(0, 0.99) == 0.5);

  // Exactly 10 samples lie beyond the reported value.
  for (std::size_t n : {100u, 500u, 1000u, 5000u}) {
    const auto values = one_to(n);
    const double reported = perfbench::tail(values, 0.99);
    std::size_t beyond = 0;
    for (double v : values) beyond += v > reported ? 1 : 0;
    CHECK(beyond >= perfbench::kTailSamples);
  }
  CHECK(perfbench::tail(one_to(100), 0.99) == 90.0);
  CHECK(perfbench::tail(one_to(1000), 0.99) == 990.0);
  CHECK(perfbench::median(one_to(101)) == 51.0);
  CHECK(perfbench::median({}) == 0.0);

  // Per-chunk tails: one per full chunk, or the whole set when too short.
  std::vector<double> two_chunks = one_to(2000);
  const auto tails = perfbench::chunk_tails(two_chunks, 1000, 0.99);
  CHECK(tails.size() == 2);
  CHECK(tails[0] == 990.0 && tails[1] == 1990.0);
  CHECK(perfbench::chunk_tails(one_to(500), 1000, 0.5).size() == 1);
}

void exactly_once() {
  perfbench::Tally clean(100);
  clean.extend(3);
  CHECK(clean.record(100, true));
  CHECK(clean.record(101, true));
  CHECK(clean.record(102, true));
  CHECK(clean.failed() == 0);

  perfbench::Tally tally(100);
  tally.extend(5);
  CHECK(tally.record(100, true));
  CHECK(!tally.record(100, true));   // duplicate
  CHECK(tally.record(101, false));   // came back, but failed
  CHECK(!tally.record(99, true));    // never submitted
  CHECK(!tally.record(105, true));   // past the range
  CHECK(tally.record(104, true));
  // 102 and 103 never return.
  CHECK(tally.expected() == 5);
  CHECK(tally.missing() == 2);
  CHECK(tally.duplicates() == 1);
  CHECK(tally.unsuccessful() == 1);
  CHECK(tally.unexpected() == 2);
  CHECK(tally.failed() == 6);

  // Extending continues the id range.
  tally.extend(1);
  CHECK(tally.record(105, true));
  CHECK(tally.missing() == 2);
}

void schedule_reproducible() {
  const auto a = perfbench::poisson_schedule(7, 5000, 2.0);
  const auto b = perfbench::poisson_schedule(7, 5000, 2.0);
  const auto c = perfbench::poisson_schedule(8, 5000, 2.0);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() == 5000);
  bool sorted_in_span = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0.0 || a[i] >= 2.0 || (i > 0 && a[i] < a[i - 1])) {
      sorted_in_span = false;
    }
  }
  CHECK(sorted_in_span);
  // Poisson: exponential gaps, so the mean gap is span / n and the gaps'
  // coefficient of variation is about 1.
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  CHECK(std::abs(mean - 2.0 / 5000.0) < 0.05 * 2.0 / 5000.0);
  CHECK(cv > 0.9 && cv < 1.1);

  CHECK(perfbench::first_task_id(7) == perfbench::first_task_id(7));
  CHECK(perfbench::first_task_id(7) != perfbench::first_task_id(8));
  CHECK(perfbench::first_task_id(0) >= 1);
}

}  // namespace

int main() {
  percentile_rule();
  exactly_once();
  schedule_reproducible();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
