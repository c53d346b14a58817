#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/candidates.h"
#include "graph/pruning.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

// The incident edges of (v, p) as an owned cut list.
std::vector<EdgeId> CutAt(const QueryGraph& graph, VertexId v, int p) {
  const EdgeSpan edges = graph.IncidentEdges(v, p);
  return std::vector<EdgeId>(edges.begin(), edges.end());
}

TEST(PrunerTest, AllValidInitially) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  EXPECT_TRUE(pruner.group_graph_acyclic());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_TRUE(pruner.EdgeValid(e)) << "edge " << e;
  }
  EXPECT_EQ(pruner.RemainingTasks().size(), static_cast<size_t>(graph.num_edges()));
}

TEST(PrunerTest, RedEdgeCascades) {
  // The paper's running example: asking (p1, c1) RED invalidates all eight
  // edges upstream of p1 (Section 4.1).
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  EdgeId p1c1 = kNoEdge;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (graph.edge(e).pred == 2) p1c1 = e;
  }
  ASSERT_NE(p1c1, kNoEdge);
  graph.SetColor(p1c1, EdgeColor::kRed);
  Pruner pruner(&graph);
  pruner.Recompute();
  // Every edge is now invalid: the chain cannot reach relation 3.
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_FALSE(pruner.EdgeValid(e)) << "edge " << e;
  }
  EXPECT_TRUE(pruner.RemainingTasks().empty());
}

TEST(PrunerTest, BlueEdgesStayValidButAreNotTasks) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  graph.SetColor(0, EdgeColor::kBlue);
  Pruner pruner(&graph);
  pruner.Recompute();
  EXPECT_TRUE(pruner.EdgeValid(0));
  for (EdgeId e : pruner.RemainingTasks()) EXPECT_NE(e, 0);
}

TEST(PrunerTest, SimulateCutMatchesPaperAlphaBeta) {
  // Worked example of Section 5.1.2: for edge (p1, r1), cutting r1's single
  // R-P edge invalidates alpha = 2 edges; cutting p1's three R-P edges
  // invalidates beta = 6 edges.
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  VertexId r1 = graph.FindVertex(1, 1);
  VertexId p1 = graph.FindVertex(2, 1);
  ASSERT_NE(r1, kNoVertex);
  ASSERT_NE(p1, kNoVertex);

  const std::vector<EdgeId> r1_cut = CutAt(graph, r1, 1);
  ASSERT_EQ(r1_cut.size(), 1u);
  EXPECT_EQ(pruner.SimulateCutInvalidation(r1_cut), 2);

  const std::vector<EdgeId> p1_cut = CutAt(graph, p1, 1);
  ASSERT_EQ(p1_cut.size(), 3u);
  EXPECT_EQ(pruner.SimulateCutInvalidation(p1_cut), 6);
}

TEST(PrunerTest, SimulationRollsBack) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  VertexId p1 = graph.FindVertex(2, 1);
  const std::vector<EdgeId> cut = CutAt(graph, p1, 1);
  size_t before = pruner.RemainingTasks().size();
  // Run the simulation multiple times; results must be stable and state
  // restored each time.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pruner.SimulateCutInvalidation(cut), 6);
    EXPECT_EQ(pruner.RemainingTasks().size(), before);
  }
}

TEST(PrunerTest, SimulateCutOfEverythingIsZeroExtra) {
  // Cutting an edge that disconnects nothing extra reports 0.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.5}, {0, 0, 1, 0.5}, {0, 1, 0, 0.5}};
  QueryGraph graph = QueryGraph::MakeSynthetic(2, preds, edges);
  Pruner pruner(&graph);
  EXPECT_EQ(pruner.SimulateCutInvalidation({0}), 0);
}

TEST(PrunerTest, ParallelPredicatesRequireBothEdges) {
  // Two predicates between the same relations: a tuple pair lacking one of
  // the two edges can never be in a candidate, so its lone edge is invalid.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 0, 1}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.5},  // pair (0,0) has pred-0 edge...
      {1, 0, 0, 0.5},  // ...and pred-1 edge: complete.
      {0, 1, 1, 0.5},  // pair (1,1) has only the pred-0 edge: invalid.
  };
  QueryGraph graph = QueryGraph::MakeSynthetic(2, preds, edges);
  Pruner pruner(&graph);
  EXPECT_TRUE(pruner.EdgeValid(0));
  EXPECT_TRUE(pruner.EdgeValid(1));
  EXPECT_FALSE(pruner.EdgeValid(2));
}

// Property: on random acyclic (chain) graphs with random colorings, the
// pruner's arc-consistency validity agrees exactly with the brute-force
// Definition-3 check.
class PrunerExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunerExactnessTest, MatchesExactValidityOnChains) {
  Rng rng(GetParam());
  // Random 3-relation chain with 4 rows per relation.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 1, 2}};
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (int p = 0; p < 2; ++p) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (rng.Bernoulli(0.45)) {
          edges.push_back({p, a, b, rng.Uniform(0.3, 1.0)});
        }
      }
    }
  }
  if (edges.empty()) return;
  QueryGraph graph = QueryGraph::MakeSynthetic(3, preds, edges);
  // Random partial coloring.
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    double roll = rng.Uniform();
    if (roll < 0.25) {
      graph.SetColor(e, EdgeColor::kRed);
    } else if (roll < 0.5) {
      graph.SetColor(e, EdgeColor::kBlue);
    }
  }
  Pruner pruner(&graph);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_EQ(pruner.EdgeValid(e), EdgeValidExact(graph, e)) << "edge " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChains, PrunerExactnessTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace cdb
