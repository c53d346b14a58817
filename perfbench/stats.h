// Statistics used by the end-to-end benchmark (perfbench.cc): tail
// percentile selection, per-phase wall-time attribution and per-query count
// aggregation. Kept apart from perfbench.cc so perfbench_test.cc can pin them.
#ifndef CDB_PERFBENCH_STATS_H_
#define CDB_PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of the
// sorted samples (rank 1 for p = 0). `samples` need not be sorted.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

// Number of samples strictly beyond the nearest-rank p-th percentile of n
// samples: n - ceil(p/100 * n).
int64_t SamplesBeyond(int64_t n, double p);

// The highest of the candidate percentiles (50, 75, 80, 90, 95, 98, 99, 99.5,
// 99.9) that keeps at least ten samples past it at n samples, or -1 if even
// the median does not.
double TailPercentile(int64_t n);

// Attributes one query's wall time to buckets from a chain of timestamps:
// Start(t0), then Mark(bucket, t) after each piece of work, then the last Mark
// closes the query. Each Mark charges t - (previous timestamp) to its bucket,
// so the buckets sum to the query's wall time exactly, in integer ns.
class PhaseClock {
 public:
  explicit PhaseClock(int num_buckets) : ns_(num_buckets, 0) {}

  void Start(int64_t now_ns) {
    start_ns_ = now_ns;
    last_ns_ = now_ns;
  }
  void Mark(int bucket, int64_t now_ns) {
    ns_[static_cast<size_t>(bucket)] += now_ns - last_ns_;
    last_ns_ = now_ns;
  }

  int64_t wall_ns() const { return last_ns_ - start_ns_; }
  int64_t bucket_sum_ns() const;
  const std::vector<int64_t>& buckets() const { return ns_; }

 private:
  std::vector<int64_t> ns_;
  int64_t start_ns_ = 0;
  int64_t last_ns_ = 0;
};

// The crowd-side outcome of one query: the paper's cost, latency and quality.
struct QueryCounts {
  int64_t tasks = 0;
  int64_t micro_dollars = 0;
  int64_t rounds = 0;
  int64_t answers = 0;
  int64_t steps = 0;
  int64_t edges = 0;
  int64_t crowd_edges = 0;
  double f1 = 0.0;
};

// Sums QueryCounts over queries and reports per-query means and ratios.
// Integer counts are summed exactly, so equal query sets give equal output.
class CountTotals {
 public:
  void Add(const QueryCounts& q);

  int64_t queries() const { return queries_; }
  double TasksPerQuery() const { return PerQuery(sum_.tasks); }
  double DollarsPerQuery() const {
    return PerQuery(sum_.micro_dollars) * 1e-6;
  }
  double RoundsPerQuery() const { return PerQuery(sum_.rounds); }
  double StepsPerQuery() const { return PerQuery(sum_.steps); }
  double EdgesPerQuery() const { return PerQuery(sum_.edges); }
  double MeanF1() const {
    return queries_ > 0 ? f1_sum_ / static_cast<double>(queries_) : 0.0;
  }
  // Useful-work ratio of cost control: tasks asked / crowd candidate edges.
  double AskedFraction() const { return Ratio(sum_.tasks, sum_.crowd_edges); }
  double AnswersPerTask() const { return Ratio(sum_.answers, sum_.tasks); }

 private:
  double PerQuery(int64_t total) const { return Ratio(total, queries_); }
  static double Ratio(int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  }

  QueryCounts sum_;
  double f1_sum_ = 0.0;
  int64_t queries_ = 0;
};

// One metric of the result object: {"name": {"value": v, "unit": u}}.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result object the benchmark prints as its last line.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // CDB_PERFBENCH_STATS_H_
