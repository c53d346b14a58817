// Identity and safety of the process-wide similarity result cache
// (graph/sim_cache.h, `ctest -L simcache`):
//
//   * a warm QueryGraph::Build equals a cold one — vertices, edge ids,
//     weights, colors, incidence — and leaves the same simjoin.* MetricsDump
//     bytes, and both equal the uncached kernels run directly,
//   * a warm QuerySession equals a cold one step for step: colors,
//     snapshots, stats and MetricsDump,
//   * a one-byte change in any cell, or another fn, epsilon, kernel or
//     signature-filter setting, misses and returns the fresh result,
//   * results stay right across eviction, and an entry over the byte budget
//     is returned but never stored,
//   * 8 threads building over shared and distinct columns agree with the
//     oracle (the TSan leg runs this label).
//
// The cache lives for the whole process and has no reset hook, so every test
// works on table content no other test uses (a paper dataset with its own
// generator seed, or cells given unique bytes): its first lookup misses.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "cql/parser.h"
#include "datagen/paper_dataset.h"
#include "exec/session.h"
#include "graph/query_graph.h"
#include "graph/sim_cache.h"
#include "similarity/sim_join.h"

namespace cdb {
namespace {

GeneratedDataset FreshPaper(uint64_t seed) {
  PaperDatasetOptions options;
  options.scale = 0.1;
  options.seed = seed;
  return GeneratePaperDataset(options);
}

ResolvedQuery Resolve(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

std::vector<std::string> Column(const ResolvedQuery& query, int rel,
                                size_t col) {
  const Table* table = query.tables[static_cast<size_t>(rel)];
  return table->StringColumn(table->schema().column(col).name).value();
}

int CrowdPredicates(const ResolvedQuery& query) {
  int n = 0;
  for (const ResolvedJoin& join : query.joins) n += join.is_crowd ? 1 : 0;
  for (const ResolvedSelection& sel : query.selections) {
    n += sel.is_crowd ? 1 : 0;
  }
  return n;
}

std::string EdgeLine(int pred, int64_t left, int64_t right, double sim) {
  return StrPrintf(
      "%d %lld %lld %016llx\n", pred, static_cast<long long>(left),
      static_cast<long long>(right),
      static_cast<unsigned long long>(std::bit_cast<uint64_t>(sim)));
}

// Everything a built graph holds, as one comparable byte string: vertices in
// id order, every edge column (weights bit for bit) and the incidence lists.
std::string GraphDump(const QueryGraph& graph) {
  std::string out;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out += StrPrintf("v%d %d %lld\n", v, graph.vertex(v).rel,
                     static_cast<long long>(graph.vertex(v).row));
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out += StrPrintf("e%d %d %d %d %016llx %d %d\n", e, graph.edge_u(e),
                     graph.edge_v(e), graph.edge_pred(e),
                     static_cast<unsigned long long>(
                         std::bit_cast<uint64_t>(graph.edge_weight(e))),
                     static_cast<int>(graph.edge_color(e)),
                     graph.edge_is_crowd(e) ? 1 : 0);
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (int p = 0; p < graph.num_predicates(); ++p) {
      out += StrPrintf("i%d.%d:", v, p);
      for (EdgeId e : graph.IncidentEdges(v, p)) out += StrPrintf(" %d", e);
      out += "\n";
    }
  }
  return out;
}

// The crowd edges of `graph` in id order, as EdgeLine()s.
std::string CrowdEdges(const QueryGraph& graph) {
  std::string out;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!graph.edge_is_crowd(e)) continue;
    out += EdgeLine(graph.edge_pred(e), graph.vertex(graph.edge_u(e)).row,
                    graph.vertex(graph.edge_v(e)).row, graph.edge_weight(e));
  }
  return out;
}

// What Build must produce for the crowd predicates, from the uncached
// kernels: the edge lines in emission order and the simjoin.* dump.
struct Oracle {
  std::string edges;
  std::string funnel;
};

Oracle UncachedOracle(const ResolvedQuery& query, const GraphOptions& options) {
  MetricsRegistry registry;
  Oracle oracle;
  for (size_t j = 0; j < query.joins.size(); ++j) {
    const ResolvedJoin& join = query.joins[j];
    if (!join.is_crowd) continue;
    SimJoinOptions join_options;
    join_options.num_threads = options.num_threads;
    join_options.kernel = options.sim_kernel;
    join_options.signature_filter = options.sim_signature_filter;
    join_options.metrics = &registry;
    for (const SimPair& pair : SimilarityJoin(
             Column(query, join.left_rel, join.left_col),
             Column(query, join.right_rel, join.right_col), options.sim_fn,
             options.epsilon, join_options)) {
      oracle.edges +=
          EdgeLine(static_cast<int>(j), pair.left, pair.right, pair.sim);
    }
  }
  for (size_t s = 0; s < query.selections.size(); ++s) {
    const ResolvedSelection& sel = query.selections[s];
    if (!sel.is_crowd) continue;
    for (const SimPair& match :
         SimilaritySearch(Column(query, sel.rel, sel.col), sel.value,
                          options.sim_fn, options.epsilon)) {
      oracle.edges += EdgeLine(static_cast<int>(query.joins.size() + s),
                               match.left, 0, match.sim);
    }
  }
  oracle.funnel = MetricsDump(registry);
  return oracle;
}

void ExpectSamePairs(const std::vector<SimPair>& got,
                     const std::vector<SimPair>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(EdgeLine(0, got[k].left, got[k].right, got[k].sim),
              EdgeLine(0, want[k].left, want[k].right, want[k].sim))
        << context << " pair " << k;
  }
}

TEST(SimCacheTest, WarmBuildEqualsColdBuildAndTheUncachedKernels) {
  const GeneratedDataset dataset = FreshPaper(9101);
  bool first = true;
  for (const BenchmarkQuery& q : PaperQueries()) {
    const ResolvedQuery query = Resolve(dataset, q.cql);
    GraphOptions options;
    options.num_threads = 2;
    const Oracle oracle = UncachedOracle(query, options);

    MetricsRegistry cold_metrics;
    options.sim_metrics = &cold_metrics;
    const SimCacheStats before_cold = GetSimCacheStats();
    const QueryGraph cold = QueryGraph::Build(query, options).value();
    const SimCacheStats after_cold = GetSimCacheStats();
    if (first) {
      // Nothing over this dataset was cached yet.
      EXPECT_EQ(after_cold.misses - before_cold.misses, CrowdPredicates(query))
          << q.label;
      EXPECT_EQ(after_cold.hits, before_cold.hits) << q.label;
      first = false;
    }

    MetricsRegistry warm_metrics;
    options.sim_metrics = &warm_metrics;
    const QueryGraph warm = QueryGraph::Build(query, options).value();
    const SimCacheStats after_warm = GetSimCacheStats();
    EXPECT_EQ(after_warm.hits - after_cold.hits, CrowdPredicates(query))
        << q.label;
    EXPECT_EQ(after_warm.misses, after_cold.misses) << q.label;

    EXPECT_EQ(GraphDump(cold), GraphDump(warm)) << q.label;
    EXPECT_EQ(CrowdEdges(cold), oracle.edges) << q.label;
    EXPECT_EQ(MetricsDump(cold_metrics), oracle.funnel) << q.label;
    EXPECT_EQ(MetricsDump(warm_metrics), oracle.funnel) << q.label;
    EXPECT_NE(oracle.funnel.find("simjoin.pairs="), std::string::npos);
  }
}

// The session-visible bytes of one run, one entry per step (phase, colors,
// snapshot), then the final stats and metrics dump.
std::vector<std::string> SessionTranscript(const ResolvedQuery& query,
                                           const EdgeTruthFn& truth) {
  MetricsRegistry metrics;
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.85;
  options.platform.redundancy = 3;
  options.platform.seed = 77;
  options.num_threads = 1;
  options.graph.num_threads = 1;
  options.metrics = &metrics;
  QuerySession session(&query, options, truth);
  std::vector<std::string> out;
  while (true) {
    Result<bool> more = session.Step();
    EXPECT_TRUE(more.ok());
    if (!more.ok()) return out;
    std::string step =
        StrPrintf("phase %d colors ", static_cast<int>(session.phase()));
    for (EdgeId e = 0; e < session.graph().num_edges(); ++e) {
      step += static_cast<char>('0' + static_cast<int>(
                                          session.graph().edge_color(e)));
    }
    out.push_back(step + "\nsnapshot " + session.Snapshot());
    if (!more.value()) break;
  }
  const ExecutionResult result = session.TakeResult();
  std::ostringstream stats;
  stats << "tasks=" << result.stats.tasks_asked
        << " rounds=" << result.stats.rounds
        << " answers=" << result.stats.worker_answers
        << " hits=" << result.stats.hits_published << " round_sizes=";
  for (int64_t size : result.stats.round_sizes) stats << size << ",";
  stats << "\n" << PlatformStatsDump(result.stats.platform)
        << "\nrows=" << result.answers.size();
  out.push_back(stats.str());
  out.push_back(MetricsDump(metrics));
  return out;
}

TEST(SimCacheTest, WarmSessionEqualsColdSession) {
  GeneratedDataset dataset = FreshPaper(9102);
  const ResolvedQuery query = Resolve(dataset, PaperQueries()[3].cql);  // 3J1S
  const EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);

  const SimCacheStats before = GetSimCacheStats();
  const std::vector<std::string> cold = SessionTranscript(query, truth);
  const SimCacheStats middle = GetSimCacheStats();
  const std::vector<std::string> warm = SessionTranscript(query, truth);
  const SimCacheStats after = GetSimCacheStats();

  EXPECT_EQ(middle.misses - before.misses, CrowdPredicates(query));
  EXPECT_EQ(after.misses, middle.misses);
  EXPECT_EQ(after.hits - middle.hits, CrowdPredicates(query));
  ASSERT_FALSE(cold.empty());
  EXPECT_NE(cold.back().find("simjoin.pairs="), std::string::npos);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(cold[i] == warm[i]) << "transcript entry " << i;
  }
}

TEST(SimCacheTest, RestoreRebuildsTheSameGraphFromTheCache) {
  GeneratedDataset dataset = FreshPaper(9103);
  const ResolvedQuery query = Resolve(dataset, PaperQueries()[1].cql);  // 2J1S
  const EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  ExecutorOptions options;
  options.platform.seed = 5;
  options.num_threads = 1;
  options.graph.num_threads = 1;

  QuerySession straight(&query, options, truth);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(straight.Step().value());
  const std::string blob = straight.Snapshot();
  const std::string graph_at_snapshot = GraphDump(straight.graph());
  const ExecutionResult expected = straight.RunToCompletion().value();

  const SimCacheStats before = GetSimCacheStats();
  QuerySession restored(&query, options, truth);
  ASSERT_TRUE(restored.Restore(blob).ok());
  const SimCacheStats after = GetSimCacheStats();
  EXPECT_EQ(after.hits - before.hits, CrowdPredicates(query));
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(GraphDump(restored.graph()), graph_at_snapshot);
  const ExecutionResult resumed = restored.RunToCompletion().value();
  EXPECT_EQ(resumed.answers, expected.answers);
  EXPECT_EQ(resumed.stats.tasks_asked, expected.stats.tasks_asked);
  EXPECT_EQ(resumed.stats.round_sizes, expected.stats.round_sizes);
}

// A cached join's pairs and funnel dump against the kernel run directly.
void ExpectJoinMatchesKernel(const std::vector<std::string>& left,
                             const std::vector<std::string>& right,
                             SimilarityFunction fn, double threshold,
                             SimJoinOptions options, bool expect_hit,
                             const std::string& context) {
  MetricsRegistry direct_metrics;
  options.metrics = &direct_metrics;
  const std::vector<SimPair> direct =
      SimilarityJoin(left, right, fn, threshold, options);
  MetricsRegistry cached_metrics;
  options.metrics = &cached_metrics;
  const SimCacheStats before = GetSimCacheStats();
  const std::shared_ptr<const std::vector<SimPair>> cached =
      CachedSimilarityJoin(left, right, fn, threshold, options);
  const SimCacheStats after = GetSimCacheStats();
  EXPECT_EQ(after.hits - before.hits, expect_hit ? 1 : 0) << context;
  EXPECT_EQ(after.misses - before.misses, expect_hit ? 0 : 1) << context;
  ExpectSamePairs(*cached, direct, context);
  EXPECT_EQ(MetricsDump(cached_metrics), MetricsDump(direct_metrics))
      << context;
}

TEST(SimCacheTest, EveryKeyChangeMissesAndReturnsTheFreshResult) {
  const GeneratedDataset dataset = FreshPaper(9104);
  const ResolvedQuery query = Resolve(dataset, PaperQueries()[0].cql);
  const ResolvedJoin& join = query.joins[0];  // Paper.title ~ Citation.title
  const std::vector<std::string> left =
      Column(query, join.left_rel, join.left_col);
  const std::vector<std::string> right =
      Column(query, join.right_rel, join.right_col);
  const SimilarityFunction fn = SimilarityFunction::kQGramJaccard;
  SimJoinOptions options;
  options.num_threads = 1;

  ExpectJoinMatchesKernel(left, right, fn, 0.3, options, false, "cold");
  ExpectJoinMatchesKernel(left, right, fn, 0.3, options, true, "warm");

  // One byte of one cell, for every cell on either side.
  for (int side = 0; side < 2; ++side) {
    const std::vector<std::string>& base = side == 0 ? left : right;
    for (size_t r = 0; r < base.size(); ++r) {
      std::vector<std::string> edited = base;
      std::string& cell = edited[r];
      if (cell.empty()) {
        cell.push_back('x');
      } else {
        cell[r % cell.size()] = static_cast<char>(cell[r % cell.size()] ^ 0x01);
      }
      const std::string context =
          StrPrintf("side %d cell %zu", side, r);
      if (side == 0) {
        ExpectJoinMatchesKernel(edited, right, fn, 0.3, options, false,
                                context);
      } else {
        ExpectJoinMatchesKernel(left, edited, fn, 0.3, options, false,
                                context);
      }
    }
  }

  // Settings: every other function, a threshold one ulp away, the legacy
  // kernel, the signature filter off. Each is its own entry.
  for (SimilarityFunction other :
       {SimilarityFunction::kNoSim, SimilarityFunction::kEditDistance,
        SimilarityFunction::kWordJaccard, SimilarityFunction::kQGramCosine}) {
    ExpectJoinMatchesKernel(left, right, other, 0.3, options, false,
                            SimilarityFunctionName(other));
  }
  ExpectJoinMatchesKernel(left, right, fn, std::nextafter(0.3, 1.0), options,
                          false, "epsilon + 1ulp");
  ExpectJoinMatchesKernel(left, right, fn, 0.6, options, false, "epsilon 0.6");
  SimJoinOptions legacy = options;
  legacy.kernel = SimJoinKernel::kLegacy;
  ExpectJoinMatchesKernel(left, right, fn, 0.3, legacy, false, "legacy");
  SimJoinOptions unfiltered = options;
  unfiltered.signature_filter = false;
  ExpectJoinMatchesKernel(left, right, fn, 0.3, unfiltered, false,
                          "no signature filter");
  // The thread count is not part of the key: output and funnel are the same.
  SimJoinOptions threaded = options;
  threaded.num_threads = 4;
  ExpectJoinMatchesKernel(left, right, fn, 0.3, threaded, true, "4 threads");
}

TEST(SimCacheTest, SearchKeyCoversColumnAndConstant) {
  const GeneratedDataset dataset = FreshPaper(9105);
  const ResolvedQuery query = Resolve(dataset, PaperQueries()[1].cql);
  const ResolvedSelection& sel = query.selections[0];
  const std::vector<std::string> values = Column(query, sel.rel, sel.col);
  const SimilarityFunction fn = SimilarityFunction::kQGramJaccard;

  auto expect = [&](const std::vector<std::string>& column,
                    const std::string& constant, double threshold,
                    bool expect_hit, const std::string& context) {
    const SimCacheStats before = GetSimCacheStats();
    const std::shared_ptr<const std::vector<SimPair>> cached =
        CachedSimilaritySearch(column, constant, fn, threshold);
    const SimCacheStats after = GetSimCacheStats();
    EXPECT_EQ(after.hits - before.hits, expect_hit ? 1 : 0) << context;
    ExpectSamePairs(*cached, SimilaritySearch(column, constant, fn, threshold),
                    context);
  };
  expect(values, sel.value, 0.3, false, "cold");
  expect(values, sel.value, 0.3, true, "warm");
  expect(values, sel.value + "!", 0.3, false, "constant");
  expect(values, sel.value, 0.4, false, "epsilon");
  std::vector<std::string> edited = values;
  edited.back() += "!";
  expect(edited, sel.value, 0.3, false, "cell");
}

TEST(SimCacheTest, EditedTableMissesAndRebuildsCorrectly) {
  GeneratedDataset dataset = FreshPaper(9106);
  const ResolvedQuery query = Resolve(dataset, PaperQueries()[0].cql);
  GraphOptions options;
  options.num_threads = 1;
  const std::string before_edit =
      CrowdEdges(QueryGraph::Build(query, options).value());

  // The same Table object, one cell changed: a pointer- or version-keyed
  // cache would serve the stale graph here.
  Table* paper = dataset.catalog.GetMutableTable("Paper").value();
  const Table* citation = dataset.catalog.GetTable("Citation").value();
  ASSERT_TRUE(paper->SetCell(0, "title",
                             Value::Str(citation->StringColumn("title")
                                            .value()[0]))
                  .ok());
  const SimCacheStats before = GetSimCacheStats();
  const QueryGraph edited = QueryGraph::Build(query, options).value();
  const SimCacheStats after = GetSimCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1);  // Only the title join changed.
  EXPECT_EQ(after.hits - before.hits, 1);      // The author join did not.
  EXPECT_EQ(CrowdEdges(edited), UncachedOracle(query, options).edges);
  EXPECT_NE(CrowdEdges(edited), before_edit);
}

// kNoSim at threshold 0.5 joins the full cross product: a cheap way to make
// entries of a chosen size. `tag` makes the column content unique.
std::vector<std::string> TaggedColumn(const std::string& tag, size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(tag + std::to_string(i));
  return out;
}

void ExpectCrossProduct(const std::vector<SimPair>& pairs, size_t n) {
  ASSERT_EQ(pairs.size(), n * n);
  for (size_t k = 0; k < pairs.size(); ++k) {
    ASSERT_EQ(pairs[k].left, static_cast<int32_t>(k / n));
    ASSERT_EQ(pairs[k].right, static_cast<int32_t>(k % n));
    ASSERT_EQ(pairs[k].sim, 0.5);
  }
}

TEST(SimCacheTest, EvictsLeastRecentlyUsedAndStaysCorrect) {
  // Each entry holds about a quarter of the budget in pairs.
  const size_t n = static_cast<size_t>(std::sqrt(
      static_cast<double>(kSimCacheByteBudget) / 4.0 / sizeof(SimPair)));
  const SimilarityFunction fn = SimilarityFunction::kNoSim;
  auto join = [&](const std::string& tag) {
    const std::vector<std::string> column = TaggedColumn(tag, n);
    return CachedSimilarityJoin(column, column, fn, 0.5, SimJoinOptions{});
  };

  const SimCacheStats start = GetSimCacheStats();
  for (int k = 0; k < 6; ++k) {
    ExpectCrossProduct(*join(StrPrintf("evict-%d-", k)), n);
    const SimCacheStats now = GetSimCacheStats();
    EXPECT_LE(now.bytes, kSimCacheByteBudget);
  }
  const SimCacheStats filled = GetSimCacheStats();
  EXPECT_EQ(filled.misses - start.misses, 6);
  EXPECT_GE(filled.evictions - start.evictions, 2);

  // The newest entry is still held; the oldest was evicted and recomputes.
  {
    const SimCacheStats before = GetSimCacheStats();
    ExpectCrossProduct(*join("evict-5-"), n);
    EXPECT_EQ(GetSimCacheStats().hits - before.hits, 1);
  }
  {
    const SimCacheStats before = GetSimCacheStats();
    ExpectCrossProduct(*join("evict-0-"), n);
    EXPECT_EQ(GetSimCacheStats().misses - before.misses, 1);
  }

  // An entry over the whole budget is returned but not stored.
  const size_t big = static_cast<size_t>(std::sqrt(
                         static_cast<double>(kSimCacheByteBudget) /
                         sizeof(SimPair))) +
                     1;
  const SimCacheStats before_big = GetSimCacheStats();
  for (int k = 0; k < 2; ++k) {
    const std::vector<std::string> column = TaggedColumn("oversized-", big);
    ExpectCrossProduct(
        *CachedSimilarityJoin(column, column, fn, 0.5, SimJoinOptions{}), big);
  }
  const SimCacheStats after_big = GetSimCacheStats();
  EXPECT_EQ(after_big.misses - before_big.misses, 2);
  EXPECT_EQ(after_big.entries, before_big.entries);
  EXPECT_EQ(after_big.bytes, before_big.bytes);
}

TEST(SimCacheTest, ConcurrentBuildsOverSharedAndDistinctColumns) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  // Even threads share one dataset; odd threads each own one.
  std::vector<GeneratedDataset> datasets;
  datasets.push_back(FreshPaper(9200));
  for (int t = 1; t < kThreads; t += 2) {
    datasets.push_back(FreshPaper(9200 + static_cast<uint64_t>(t)));
  }
  auto dataset_of = [](int t) { return t % 2 == 0 ? 0 : 1 + t / 2; };
  const std::vector<BenchmarkQuery> queries = PaperQueries();
  GraphOptions options;
  options.num_threads = 1;
  // Oracles per (dataset, query), computed before any thread starts.
  std::vector<std::vector<ResolvedQuery>> resolved(datasets.size());
  std::vector<std::vector<Oracle>> oracles(datasets.size());
  for (size_t d = 0; d < datasets.size(); ++d) {
    for (const BenchmarkQuery& q : queries) {
      resolved[d].push_back(Resolve(datasets[d], q.cql));
      oracles[d].push_back(UncachedOracle(resolved[d].back(), options));
    }
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t d = static_cast<size_t>(dataset_of(t));
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const size_t qi = (q + static_cast<size_t>(t)) % queries.size();
          MetricsRegistry metrics;
          GraphOptions build_options = options;
          build_options.sim_metrics = &metrics;
          const QueryGraph graph =
              QueryGraph::Build(resolved[d][qi], build_options).value();
          if (CrowdEdges(graph) != oracles[d][qi].edges ||
              MetricsDump(metrics) != oracles[d][qi].funnel) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_LE(GetSimCacheStats().bytes, kSimCacheByteBudget);
}

}  // namespace
}  // namespace cdb
