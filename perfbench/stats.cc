#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// Rank (1-based) of the nearest-rank p-th percentile among n samples.
int64_t NearestRank(int64_t n, double p) {
  const int64_t rank =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  return samples[static_cast<size_t>(NearestRank(n, p) - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

int64_t SamplesBeyond(int64_t n, double p) {
  return n <= 0 ? 0 : n - NearestRank(n, p);
}

double TailPercentile(int64_t n) {
  static constexpr int64_t kBeyond = 10;
  static constexpr double kCandidates[] = {99.9, 99.5, 99, 98, 95,
                                           90,   80,   75, 50};
  for (double p : kCandidates) {
    if (SamplesBeyond(n, p) >= kBeyond) return p;
  }
  return -1.0;
}

int64_t PhaseClock::bucket_sum_ns() const {
  int64_t sum = 0;
  for (int64_t ns : ns_) sum += ns;
  return sum;
}

void CountTotals::Add(const QueryCounts& q) {
  sum_.tasks += q.tasks;
  sum_.micro_dollars += q.micro_dollars;
  sum_.rounds += q.rounds;
  sum_.answers += q.answers;
  sum_.steps += q.steps;
  sum_.edges += q.edges;
  sum_.crowd_edges += q.crowd_edges;
  f1_sum_ += q.f1;
  ++queries_;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g round-trips a double: every digit as measured.
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
