// Self-test of the benchmark's statistics and checker:
//   perfbench_test
// The truth-oracle identity check runs one whole pass of each session
// workload: the paper queries at the paper_cdb scale and the award queries at
// the award_cdbplus scale, with the workloads' own crowd settings.
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "cql/parser.h"
#include "datagen/award_dataset.h"
#include "datagen/paper_dataset.h"
#include "oracle.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      ++failures;                                                  \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                               \
    }                                                              \
  } while (0)

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestPercentiles() {
  EXPECT(Percentile(Iota(100), 50) == 50);
  EXPECT(Percentile(Iota(100), 99) == 99);
  EXPECT(Percentile(Iota(100), 100) == 100);
  EXPECT(Percentile(Iota(40), 75) == 30);
  EXPECT(Percentile(Iota(3), 0) == 1);
  EXPECT(Median(Iota(5)) == 3);
  EXPECT(Median(Iota(4)) == 2.5);
  EXPECT(Median({}) == 0);
}

void TestTailSelection() {
  // The tail is the highest percentile with at least ten samples past it.
  EXPECT(SamplesBeyond(40, 75) == 10);
  EXPECT(SamplesBeyond(40, 80) == 8);
  EXPECT(TailPercentile(19) == -1);
  EXPECT(TailPercentile(20) == 50);
  EXPECT(TailPercentile(40) == 75);
  EXPECT(TailPercentile(49) == 75);
  EXPECT(TailPercentile(50) == 80);
  EXPECT(TailPercentile(1000) == 99);
  EXPECT(TailPercentile(10000) == 99.9);
  // The value reported really has that many larger samples behind it.
  for (int n : {20, 40, 60, 1000}) {
    const double p = TailPercentile(n);
    const std::vector<double> v = Iota(n);
    int64_t larger = 0;
    for (double x : v) larger += x > Percentile(v, p) ? 1 : 0;
    EXPECT(larger == SamplesBeyond(n, p));
    EXPECT(larger >= 10);
  }
}

void TestPhaseAttribution() {
  PhaseClock clock(4);
  clock.Start(1000);
  clock.Mark(3, 1010);  // Construction.
  clock.Mark(0, 1500);
  clock.Mark(1, 1507);
  clock.Mark(0, 1600);
  clock.Mark(2, 1601);
  clock.Mark(3, 1650);  // Result.
  EXPECT(clock.wall_ns() == 650);
  EXPECT(clock.bucket_sum_ns() == clock.wall_ns());
  EXPECT(clock.buckets()[0] == 490 + 93);
  EXPECT(clock.buckets()[1] == 7);
  EXPECT(clock.buckets()[2] == 1);
  EXPECT(clock.buckets()[3] == 10 + 49);

  // An untraced query marks only its end: all time in one bucket.
  PhaseClock untraced(2);
  untraced.Start(5);
  untraced.Mark(1, 905);
  EXPECT(untraced.wall_ns() == 900);
  EXPECT(untraced.bucket_sum_ns() == 900);
}

void TestCountAggregation() {
  CountTotals totals;
  EXPECT(totals.TasksPerQuery() == 0);
  EXPECT(totals.AskedFraction() == 0);
  QueryCounts a;
  a.tasks = 10;
  a.micro_dollars = 1'500'000;
  a.rounds = 3;
  a.answers = 50;
  a.steps = 20;
  a.edges = 40;
  a.crowd_edges = 30;
  a.f1 = 0.5;
  QueryCounts b = a;
  b.tasks = 20;
  b.micro_dollars = 2'500'000;
  b.rounds = 4;
  b.answers = 100;
  b.crowd_edges = 50;
  b.f1 = 1.0;
  totals.Add(a);
  totals.Add(b);
  EXPECT(totals.queries() == 2);
  EXPECT(totals.TasksPerQuery() == 15);
  EXPECT(totals.DollarsPerQuery() == 2.0);
  EXPECT(totals.RoundsPerQuery() == 3.5);
  EXPECT(totals.StepsPerQuery() == 20);
  EXPECT(totals.EdgesPerQuery() == 40);
  EXPECT(totals.MeanF1() == 0.75);
  EXPECT(totals.AskedFraction() == 30.0 / 80.0);  // Ratio of sums.
  EXPECT(totals.AnswersPerTask() == 5);
}

void TestResultJson() {
  const std::string json =
      ResultJson(true, 3, 0, {{"setup_s", 0.25, "s"}, {"f1", 1, "ratio"}});
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"f1\": "
         "{\"value\": 1, \"unit\": \"ratio\"}}}");
}

void TestOutcomeSignature() {
  cdb::ExecutionResult a;
  a.answers.push_back(cdb::QueryAnswer{{1, 2}});
  a.stats.tasks_asked = 7;
  a.stats.round_sizes = {4, 3};
  cdb::ExecutionResult b = a;
  EXPECT(OutcomeSignature(a) == OutcomeSignature(b));
  b.stats.round_sizes = {3, 4};
  EXPECT(OutcomeSignature(a) != OutcomeSignature(b));
  b = a;
  b.answers[0].rows = {1, 3};
  EXPECT(OutcomeSignature(a) != OutcomeSignature(b));
  b = a;
  b.stats.platform.micro_dollars_spent = 1;
  EXPECT(OutcomeSignature(a) != OutcomeSignature(b));
}

cdb::ResolvedQuery Resolve(const cdb::GeneratedDataset& ds,
                           const std::string& cql) {
  cdb::Statement stmt = cdb::ParseStatement(cql).value();
  return cdb::AnalyzeSelect(std::get<cdb::SelectStatement>(stmt), ds.catalog)
      .value();
}

// The resolved truth oracle must answer like cdb::MakeEdgeTruth on every
// edge, and a whole pass run with each must ask the same tasks, get the same
// answers and score the same F1.
void TestOracleIdentity(const cdb::GeneratedDataset& ds,
                        const std::vector<cdb::BenchmarkQuery>& queries,
                        bool cdb_plus) {
  for (const cdb::BenchmarkQuery& bq : queries) {
    const cdb::ResolvedQuery query = Resolve(ds, bq.cql);
    const cdb::EdgeTruthFn fast = MakeResolvedEdgeTruth(ds, query);
    const cdb::EdgeTruthFn slow = cdb::MakeEdgeTruth(&ds, &query);
    const cdb::ExecutorOptions options = SessionOptions(cdb_plus, 7);
    const cdb::QueryGraph graph =
        cdb::QueryGraph::Build(query, options.graph).value();
    int64_t mismatches = 0;
    for (cdb::EdgeId e = 0; e < graph.num_edges(); ++e) {
      mismatches += fast(graph, e) != slow(graph, e) ? 1 : 0;
    }
    EXPECT(mismatches == 0);

    cdb::ExecutionResult with_fast =
        cdb::QuerySession(&query, options, fast).RunToCompletion().value();
    cdb::ExecutionResult with_slow =
        cdb::QuerySession(&query, options, slow).RunToCompletion().value();
    EXPECT(OutcomeSignature(with_fast) == OutcomeSignature(with_slow));
    const std::vector<cdb::QueryAnswer> truth = cdb::TrueAnswers(ds, query);
    EXPECT(cdb::ComputeF1(with_fast.answers, truth).f1 ==
           cdb::ComputeF1(with_slow.answers, truth).f1);
    std::printf("oracle identity %s: %d edges, %lld tasks, F1 %.3f\n",
                bq.label.c_str(), graph.num_edges(),
                static_cast<long long>(with_fast.stats.tasks_asked),
                cdb::ComputeF1(with_fast.answers, truth).f1);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestTailSelection();
  perfbench::TestPhaseAttribution();
  perfbench::TestCountAggregation();
  perfbench::TestResultJson();
  perfbench::TestOutcomeSignature();

  cdb::PaperDatasetOptions paper;
  paper.scale = perfbench::kPaperCdbScale;
  perfbench::TestOracleIdentity(cdb::GeneratePaperDataset(paper),
                                cdb::PaperQueries(), /*cdb_plus=*/false);
  cdb::AwardDatasetOptions award;
  award.scale = perfbench::kAwardCdbPlusScale;
  perfbench::TestOracleIdentity(cdb::GenerateAwardDataset(award),
                                cdb::AwardQueries(), /*cdb_plus=*/true);

  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
