#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "similarity/sim_join.h"

namespace cdb {
namespace {

std::set<std::pair<int32_t, int32_t>> PairSet(const std::vector<SimPair>& pairs) {
  std::set<std::pair<int32_t, int32_t>> out;
  for (const SimPair& p : pairs) out.insert({p.left, p.right});
  return out;
}

// Reference implementation: brute-force all pairs.
std::set<std::pair<int32_t, int32_t>> BruteForce(
    const std::vector<std::string>& left, const std::vector<std::string>& right,
    SimilarityFunction fn, double threshold) {
  std::set<std::pair<int32_t, int32_t>> out;
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (ComputeSimilarity(fn, left[i], right[j]) >= threshold) {
        out.insert({static_cast<int32_t>(i), static_cast<int32_t>(j)});
      }
    }
  }
  return out;
}

std::vector<std::string> RandomStrings(Rng& rng, size_t count) {
  const std::vector<std::string> words = {
      "query", "crowd", "join",  "data",  "clean", "entity", "match",
      "graph", "cost",  "task",  "worker", "tuple", "select", "optimize",
  };
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    int64_t n = rng.UniformInt(1, 4);
    for (int64_t w = 0; w < n; ++w) {
      if (w > 0) s += ' ';
      s += words[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(words.size()) - 1))];
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(BoundedEditDistanceTest, MatchesUnbounded) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 10), 3u);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
}

TEST(BoundedEditDistanceTest, EarlyAbandon) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 2), 3u);  // max + 1.
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 1), 2u);
}

TEST(BoundedEditDistanceTest, EmptyStrings) {
  EXPECT_EQ(BoundedEditDistance("", "", 0), 0u);
  EXPECT_EQ(BoundedEditDistance("abc", "", 3), 3u);
  EXPECT_EQ(BoundedEditDistance("abc", "", 2), 3u);  // max + 1.
}

// The banded kernel must agree with the full dynamic program whenever the
// distance is within the band, and report max_dist + 1 otherwise.
TEST(BoundedEditDistanceTest, MatchesFullDynamicProgram) {
  Rng rng(2024);
  const std::string alphabet = "abcA ";
  auto random_string = [&]() {
    std::string s(static_cast<size_t>(rng.UniformInt(0, 12)), ' ');
    for (char& c : s) {
      c = alphabet[static_cast<size_t>(rng.UniformInt(0, 4))];
    }
    return s;
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::string a = random_string();
    std::string b = random_string();
    size_t full = EditDistance(a, b);
    for (size_t max_dist = 0; max_dist <= 8; ++max_dist) {
      EXPECT_EQ(BoundedEditDistance(a, b, max_dist),
                std::min(full, max_dist + 1))
          << "a='" << a << "' b='" << b << "' max_dist=" << max_dist;
    }
  }
}

TEST(SimilarityJoinTest, NoSimIsCrossProductBelowHalf) {
  std::vector<std::string> left = {"a", "b"};
  std::vector<std::string> right = {"x", "y", "z"};
  EXPECT_EQ(SimilarityJoin(left, right, SimilarityFunction::kNoSim, 0.5).size(), 6u);
  EXPECT_TRUE(SimilarityJoin(left, right, SimilarityFunction::kNoSim, 0.6).empty());
}

TEST(SimilarityJoinTest, ExactDuplicatesFound) {
  std::vector<std::string> left = {"University of California", "Duke Univ."};
  std::vector<std::string> right = {"Duke Univ.", "MIT"};
  std::vector<SimPair> pairs =
      SimilarityJoin(left, right, SimilarityFunction::kQGramJaccard, 0.99);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].left, 1);
  EXPECT_EQ(pairs[0].right, 0);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 1.0);
}

TEST(SimilaritySearchTest, MatchesBruteForce) {
  std::vector<std::string> values = {"USA", "US", "United States", "UK",
                                     "Deutschland"};
  std::vector<SimPair> hits =
      SimilaritySearch(values, "USA", SimilarityFunction::kQGramJaccard, 0.3);
  std::set<int32_t> found;
  for (const SimPair& hit : hits) found.insert(hit.left);
  EXPECT_TRUE(found.count(0));   // USA
  EXPECT_FALSE(found.count(4));  // Deutschland
}

struct JoinCase {
  SimilarityFunction fn;
  double threshold;
};

class SimJoinPropertyTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(SimJoinPropertyTest, MatchesBruteForceOnRandomData) {
  const JoinCase test_case = GetParam();
  Rng rng(1234 + static_cast<uint64_t>(test_case.threshold * 100) +
          static_cast<uint64_t>(test_case.fn));
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::string> left = RandomStrings(rng, 40);
    std::vector<std::string> right = RandomStrings(rng, 40);
    auto fast = PairSet(
        SimilarityJoin(left, right, test_case.fn, test_case.threshold));
    auto brute = BruteForce(left, right, test_case.fn, test_case.threshold);
    EXPECT_EQ(fast, brute) << SimilarityFunctionName(test_case.fn)
                           << " t=" << test_case.threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FunctionsAndThresholds, SimJoinPropertyTest,
    ::testing::Values(
        JoinCase{SimilarityFunction::kQGramJaccard, 0.3},
        JoinCase{SimilarityFunction::kQGramJaccard, 0.5},
        JoinCase{SimilarityFunction::kQGramJaccard, 0.8},
        JoinCase{SimilarityFunction::kWordJaccard, 0.3},
        JoinCase{SimilarityFunction::kWordJaccard, 0.6},
        JoinCase{SimilarityFunction::kQGramCosine, 0.4},
        JoinCase{SimilarityFunction::kQGramCosine, 0.7},
        JoinCase{SimilarityFunction::kEditDistance, 0.3},
        JoinCase{SimilarityFunction::kEditDistance, 0.6}));

TEST(SimilarityJoinTest, ReportedSimilaritiesAreExact) {
  Rng rng(77);
  std::vector<std::string> left = RandomStrings(rng, 30);
  std::vector<std::string> right = RandomStrings(rng, 30);
  for (const SimPair& pair :
       SimilarityJoin(left, right, SimilarityFunction::kQGramJaccard, 0.3)) {
    double expected = ComputeSimilarity(SimilarityFunction::kQGramJaccard,
                                        left[static_cast<size_t>(pair.left)],
                                        right[static_cast<size_t>(pair.right)]);
    EXPECT_DOUBLE_EQ(pair.sim, expected);
  }
}

}  // namespace
}  // namespace cdb
