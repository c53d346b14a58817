// Bit-identity and admissibility proofs for the flat sim-join kernels
// (`ctest -L simjoin`):
//
//   * legacy vs flat produce byte-identical SimPair vectors across every
//     similarity function x threshold x thread count,
//   * the signature pre-filter never changes the output (it may only skip
//     work), and its bounds never reject a pair whose exact similarity
//     reaches the threshold,
//   * the same holds on the paper dataset's crowd-join columns and on a
//     corpus of tokenizer edge cases,
//   * token joins emit a left row's partners in prefix-posting order, which
//     is not ascending right order, identically in both kernels,
//   * CSR / arena building blocks preserve emission order,
//   * the funnel counters obey candidates == signature_rejects + verified.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "datagen/paper_dataset.h"
#include "datagen/perturb.h"
#include "datagen/string_corpus.h"
#include "similarity/csr_index.h"
#include "similarity/signature.h"
#include "similarity/sim_join.h"
#include "similarity/tokenizer.h"

namespace cdb {
namespace {

// Byte-level equality: indexes must match exactly and the sim doubles must
// match bit for bit (== would also accept -0.0 vs 0.0).
void ExpectBitIdentical(const std::vector<SimPair>& a,
                        const std::vector<SimPair>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].left, b[k].left) << context << " pair " << k;
    EXPECT_EQ(a[k].right, b[k].right) << context << " pair " << k;
    EXPECT_EQ(std::memcmp(&a[k].sim, &b[k].sim, sizeof(double)), 0)
        << context << " pair " << k << ": " << a[k].sim << " vs " << b[k].sim;
  }
}

StringCorpus SmallCorpus() {
  StringCorpusOptions options;
  options.num_left = 220;
  options.num_right = 220;
  options.match_fraction = 0.35;
  options.vocabulary = 120;  // Dense enough that prefixes actually collide.
  options.seed = 4242;
  return GenerateStringCorpus(options);
}

struct IdentityCase {
  SimilarityFunction fn;
  double threshold;
  int threads;
};

class SimJoinIdentityTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(SimJoinIdentityTest, FlatMatchesLegacyBitForBit) {
  const IdentityCase test_case = GetParam();
  StringCorpus corpus = SmallCorpus();

  SimJoinOptions legacy;
  legacy.kernel = SimJoinKernel::kLegacy;
  legacy.num_threads = 1;
  std::vector<SimPair> oracle = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, legacy);

  SimJoinOptions flat;
  flat.kernel = SimJoinKernel::kFlat;
  flat.num_threads = test_case.threads;
  std::vector<SimPair> got = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, flat);

  std::string context = std::string(SimilarityFunctionName(test_case.fn)) +
                        " t=" + std::to_string(test_case.threshold) +
                        " threads=" + std::to_string(test_case.threads);
  ExpectBitIdentical(oracle, got, context);

  // The signature filter must be output-invisible.
  flat.signature_filter = false;
  std::vector<SimPair> unfiltered = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, flat);
  ExpectBitIdentical(got, unfiltered, context + " (filter off)");
}

INSTANTIATE_TEST_SUITE_P(
    FunctionsThresholdsThreads, SimJoinIdentityTest,
    ::testing::Values(
        IdentityCase{SimilarityFunction::kWordJaccard, 0.5, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.5, 8},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.8, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.8, 8},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.95, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.95, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.5, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.5, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.8, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.8, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.95, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.95, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.5, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.5, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.8, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.8, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.95, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.95, 8},
        IdentityCase{SimilarityFunction::kEditDistance, 0.5, 1},
        IdentityCase{SimilarityFunction::kEditDistance, 0.5, 8},
        IdentityCase{SimilarityFunction::kEditDistance, 0.8, 1},
        IdentityCase{SimilarityFunction::kEditDistance, 0.8, 8},
        IdentityCase{SimilarityFunction::kEditDistance, 0.95, 1},
        IdentityCase{SimilarityFunction::kEditDistance, 0.95, 8}));

// --- Identity on real columns and tokenizer edge cases ---------------------

// Legacy at 1 thread against flat at 1 and 4 threads: the same pairs bit for
// bit, the same candidates and pairs counted by both kernels, a balanced
// flat funnel, and flat counters that do not depend on the thread count.
void ExpectKernelsAgree(const std::vector<std::string>& left,
                        const std::vector<std::string>& right,
                        SimilarityFunction fn, double threshold,
                        const std::string& context) {
  MetricsRegistry legacy_metrics;
  SimJoinOptions legacy;
  legacy.kernel = SimJoinKernel::kLegacy;
  legacy.num_threads = 1;
  legacy.metrics = &legacy_metrics;
  std::vector<SimPair> oracle =
      SimilarityJoin(left, right, fn, threshold, legacy);
  std::string serial_dump;
  for (int threads : {1, 4}) {
    MetricsRegistry metrics;
    SimJoinOptions flat;
    flat.num_threads = threads;
    flat.metrics = &metrics;
    std::vector<SimPair> got = SimilarityJoin(left, right, fn, threshold, flat);
    const std::string where = context + " " + SimilarityFunctionName(fn) +
                              " t=" + std::to_string(threshold) +
                              " threads=" + std::to_string(threads);
    ExpectBitIdentical(oracle, got, where);
    const int64_t candidates = metrics.counter("simjoin.candidates").Value();
    EXPECT_EQ(candidates, legacy_metrics.counter("simjoin.candidates").Value())
        << where;
    EXPECT_EQ(metrics.counter("simjoin.pairs").Value(),
              legacy_metrics.counter("simjoin.pairs").Value())
        << where;
    EXPECT_EQ(candidates,
              metrics.counter("simjoin.signature_rejects").Value() +
                  metrics.counter("simjoin.verified").Value())
        << where;
    if (threads == 1) {
      serial_dump = MetricsDump(metrics);
    } else {
      EXPECT_EQ(serial_dump, MetricsDump(metrics)) << where;
    }
  }
}

struct PaperJoinCase {
  const char* left_table;
  const char* left_column;
  const char* right_table;
  const char* right_column;
  SimilarityFunction fn;
};

// Names the case in test listings (the default would print raw pointers).
void PrintTo(const PaperJoinCase& c, std::ostream* os) {
  *os << c.left_table << "." << c.left_column << " x " << c.right_table << "."
      << c.right_column << " " << SimilarityFunctionName(c.fn);
}

class PaperColumnsIdentityTest
    : public ::testing::TestWithParam<PaperJoinCase> {};

// The three crowd joins of the Table-4 queries, at the paper's cardinalities
// (scale 1.0) and the graph's default epsilon.
TEST_P(PaperColumnsIdentityTest, FlatMatchesLegacyAtEpsilon) {
  const PaperJoinCase c = GetParam();
  GeneratedDataset ds = GeneratePaperDataset(PaperDatasetOptions{});
  std::vector<std::string> left = ds.catalog.GetTable(c.left_table)
                                      .value()
                                      ->StringColumn(c.left_column)
                                      .value();
  std::vector<std::string> right = ds.catalog.GetTable(c.right_table)
                                       .value()
                                       ->StringColumn(c.right_column)
                                       .value();
  ExpectKernelsAgree(left, right, c.fn, 0.3,
                     std::string(c.left_table) + "." + c.left_column + " x " +
                         c.right_table + "." + c.right_column);
}

INSTANTIATE_TEST_SUITE_P(
    CrowdJoinColumns, PaperColumnsIdentityTest,
    ::testing::Values(
        PaperJoinCase{"Paper", "title", "Citation", "title",
                      SimilarityFunction::kQGramJaccard},
        PaperJoinCase{"Paper", "title", "Citation", "title",
                      SimilarityFunction::kQGramCosine},
        PaperJoinCase{"Paper", "title", "Citation", "title",
                      SimilarityFunction::kWordJaccard},
        PaperJoinCase{"Paper", "author", "Researcher", "name",
                      SimilarityFunction::kQGramJaccard},
        PaperJoinCase{"Paper", "author", "Researcher", "name",
                      SimilarityFunction::kQGramCosine},
        PaperJoinCase{"Paper", "author", "Researcher", "name",
                      SimilarityFunction::kWordJaccard},
        PaperJoinCase{"University", "name", "Researcher", "affiliation",
                      SimilarityFunction::kQGramJaccard},
        PaperJoinCase{"University", "name", "Researcher", "affiliation",
                      SimilarityFunction::kQGramCosine},
        PaperJoinCase{"University", "name", "Researcher", "affiliation",
                      SimilarityFunction::kWordJaccard}));

// Empty and whitespace-only strings, 1-char strings (the one-token rule),
// mixed case, bytes >= 0x80, repeated grams, punctuation-only words, and
// words of equal frequency where one is a prefix of the other (shorter than,
// exactly, and beyond the 8 bytes a word token packs, and with a NUL byte),
// whose id order sets the probe order.
std::vector<std::string> EdgeCaseStrings() {
  return {"",
          " ",
          "\t \n",
          "a",
          "A",
          " b ",
          "\xC3",
          "aa",
          "aaaa",
          "abab",
          "ABab",
          "ab",
          "ba",
          "  ab  ",
          "Mixed CASE words",
          "mixed case WORDS",
          "\xC3\xA9t\xC3\xA9",
          "\xC3\x89T\xC3\x89",
          "\x80\x81 \xFF\xFE",
          "\xFF\xFE\xFF\xFE",
          "!!! ... ???",
          "-- x --",
          "x",
          "a.b a.b (a.b)",
          "hello, world!",
          "HELLO world",
          "world hello hello",
          "za",
          "z\x80",
          "pre prefix",
          "pre",
          "prefix",
          "abcdefgh abcdefghij",
          "abcdefgh",
          "abcdefghij",
          std::string("nul nul\0", 8),
          "nul",
          std::string("nul\0", 4),
          "overlapping overlappingly",
          "overlapping",
          "overlappingly"};
}

TEST(SimJoinEdgeCaseTest, FlatMatchesLegacyOnTokenizerEdgeCases) {
  const std::vector<std::string> left = EdgeCaseStrings();
  std::vector<std::string> right(left.rbegin(), left.rend());
  right.push_back("aA");
  right.push_back("...");
  for (SimilarityFunction fn :
       {SimilarityFunction::kWordJaccard, SimilarityFunction::kQGramJaccard,
        SimilarityFunction::kQGramCosine, SimilarityFunction::kEditDistance}) {
    for (double threshold : {0.1, 0.3, 0.5, 0.8, 1.0}) {
      ExpectKernelsAgree(left, right, fn, threshold, "edge cases");
    }
  }
}

// The edit-distance kernel reuses its verifier rows across candidates; every
// pair it reports must carry the sim of an independent full dynamic program,
// bit for bit. Completeness is the next test's job.
TEST(SimJoinEdgeCaseTest, EditDistanceSimsMatchFullDynamicProgram) {
  const std::vector<std::string> left = EdgeCaseStrings();
  const std::vector<std::string> right(left.rbegin(), left.rend());
  for (double threshold : {0.1, 0.5, 0.8}) {
    std::vector<SimPair> pairs = SimilarityJoin(
        left, right, SimilarityFunction::kEditDistance, threshold);
    EXPECT_FALSE(pairs.empty());
    for (const SimPair& p : pairs) {
      const double expected = ComputeSimilarity(
          SimilarityFunction::kEditDistance, left[static_cast<size_t>(p.left)],
          right[static_cast<size_t>(p.right)]);
      EXPECT_EQ(std::memcmp(&p.sim, &expected, sizeof(double)), 0)
          << "t=" << threshold << " pair " << p.left << "," << p.right;
      EXPECT_GE(p.sim, threshold);
    }
  }
}

// Both edit-distance kernels equal a brute-force scan of the cross product:
// no filter may drop a pair within the distance bound. The shared-2-gram
// filter once counted trimmed grams, so whitespace-only strings ("\t \n"
// against itself at 0.8) and whitespace-edged ones went missing.
TEST(SimJoinEdgeCaseTest, EditDistanceJoinEqualsBruteForce) {
  const std::vector<std::string> left = EdgeCaseStrings();
  std::vector<std::string> right(left.rbegin(), left.rend());
  right.push_back("  ");
  right.push_back("\t  \n");
  right.push_back(" ab");
  for (double threshold : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    std::vector<SimPair> expected;
    for (size_t i = 0; i < left.size(); ++i) {
      for (size_t j = 0; j < right.size(); ++j) {
        const double sim = ComputeSimilarity(SimilarityFunction::kEditDistance,
                                             left[i], right[j]);
        if (sim >= threshold) {
          expected.push_back(
              {static_cast<int32_t>(i), static_cast<int32_t>(j), sim});
        }
      }
    }
    for (SimJoinKernel kernel :
         {SimJoinKernel::kFlat, SimJoinKernel::kLegacy}) {
      for (bool signature_filter : {true, false}) {
        SimJoinOptions options;
        options.kernel = kernel;
        options.signature_filter = signature_filter;
        ExpectBitIdentical(
            SimilarityJoin(left, right, SimilarityFunction::kEditDistance,
                           threshold, options),
            expected,
            std::string(SimJoinKernelName(kernel)) + " filter=" +
                (signature_filter ? "on" : "off") +
                " t=" + std::to_string(threshold));
      }
    }
  }
}

// A left row's partners come in first-appearance order over its prefix
// postings. Frequencies: "rare" 2, "common" 3, so "rare" is probed first and
// reaches right row 1 before "common" reaches right row 0.
TEST(SimJoinOrderTest, TokenJoinEmitsInPrefixPostingOrder) {
  const std::vector<std::string> left = {"rare common"};
  const std::vector<std::string> right = {"common", "rare common"};
  for (SimJoinKernel kernel : {SimJoinKernel::kFlat, SimJoinKernel::kLegacy}) {
    SimJoinOptions options;
    options.kernel = kernel;
    std::vector<SimPair> pairs = SimilarityJoin(
        left, right, SimilarityFunction::kWordJaccard, 0.5, options);
    ASSERT_EQ(pairs.size(), 2u) << SimJoinKernelName(kernel);
    EXPECT_EQ(pairs[0].right, 1) << SimJoinKernelName(kernel);
    EXPECT_EQ(pairs[0].sim, 1.0) << SimJoinKernelName(kernel);
    EXPECT_EQ(pairs[1].right, 0) << SimJoinKernelName(kernel);
    EXPECT_EQ(pairs[1].sim, 0.5) << SimJoinKernelName(kernel);
  }
}

// --- Signature admissibility ------------------------------------------------

std::vector<int32_t> RandomIdSet(Rng& rng, int max_size, int universe) {
  std::set<int32_t> ids;
  int n = static_cast<int>(rng.UniformInt(0, max_size));
  for (int k = 0; k < n; ++k) {
    ids.insert(static_cast<int32_t>(rng.UniformInt(0, universe - 1)));
  }
  return {ids.begin(), ids.end()};
}

size_t SymmetricDifference(const std::vector<int32_t>& a,
                           const std::vector<int32_t>& b) {
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return a.size() + b.size() - 2 * inter;
}

TEST(SignatureTest, HammingLowerBoundsSymmetricDifference) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> a = RandomIdSet(rng, 30, 200);
    std::vector<int32_t> b = RandomIdSet(rng, 30, 200);
    TokenSignature sa = SignatureOfIds(a.data(), a.size());
    TokenSignature sb = SignatureOfIds(b.data(), b.size());
    EXPECT_LE(static_cast<size_t>(SignatureHamming(sa, sb)),
              SymmetricDifference(a, b));
  }
}

TEST(SignatureTest, JaccardFilterNeverDropsTruePositive) {
  Rng rng(123);
  const double thresholds[] = {0.3, 0.5, 0.8, 0.95};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> a = RandomIdSet(rng, 25, 120);
    std::vector<int32_t> b = RandomIdSet(rng, 25, 120);
    size_t delta = SymmetricDifference(a, b);
    size_t inter = (a.size() + b.size() - delta) / 2;
    size_t uni = a.size() + b.size() - inter;
    double jaccard =
        uni == 0 ? 1.0
                 : static_cast<double>(inter) / static_cast<double>(uni);
    TokenSignature sa = SignatureOfIds(a.data(), a.size());
    TokenSignature sb = SignatureOfIds(b.data(), b.size());
    for (double t : thresholds) {
      if (jaccard >= t) {
        EXPECT_FALSE(SignatureRejectsJaccard(sa, sb, a.size(), b.size(), t))
            << "jaccard=" << jaccard << " t=" << t;
      }
    }
  }
}

TEST(SignatureTest, CosineFilterNeverDropsTruePositive) {
  Rng rng(321);
  const double thresholds[] = {0.3, 0.5, 0.8, 0.95};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> a = RandomIdSet(rng, 25, 120);
    std::vector<int32_t> b = RandomIdSet(rng, 25, 120);
    if (a.empty() || b.empty()) continue;
    size_t delta = SymmetricDifference(a, b);
    size_t inter = (a.size() + b.size() - delta) / 2;
    double cosine = static_cast<double>(inter) /
                    std::sqrt(static_cast<double>(a.size()) *
                              static_cast<double>(b.size()));
    TokenSignature sa = SignatureOfIds(a.data(), a.size());
    TokenSignature sb = SignatureOfIds(b.data(), b.size());
    for (double t : thresholds) {
      if (cosine >= t) {
        EXPECT_FALSE(SignatureRejectsCosine(sa, sb, a.size(), b.size(), t))
            << "cosine=" << cosine << " t=" << t;
      }
    }
  }
}

std::string RandomWordString(Rng& rng) {
  static const char* const kWords[] = {"crowd", "query", "join", "data",
                                       "graph", "tuple", "match", "cost"};
  std::string s;
  int n = static_cast<int>(rng.UniformInt(1, 3));
  for (int w = 0; w < n; ++w) {
    if (w > 0) s += ' ';
    s += kWords[rng.UniformInt(0, 7)];
  }
  return s;
}

TEST(SignatureTest, EditDistanceFilterNeverDropsTruePositive) {
  Rng rng(555);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string a = RandomWordString(rng);
    std::string b = a;
    int edits = static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < edits; ++e) b = IntroduceTypo(b, rng);
    size_t dist = BoundedEditDistance(a, b, a.size() + b.size());
    TokenSignature sa = SignatureOfGrams(a);
    TokenSignature sb = SignatureOfGrams(b);
    // Any tau >= the true distance must not be rejected.
    for (size_t tau = dist; tau <= dist + 2; ++tau) {
      EXPECT_FALSE(SignatureRejectsEditDistance(sa, sb, tau))
          << "a=" << a << " b=" << b << " dist=" << dist << " tau=" << tau;
    }
  }
}

// --- CSR / arena building blocks -------------------------------------------

TEST(CsrIndexTest, PostingsPreserveEmissionOrder) {
  // Emission order per key is the order the sink saw the (key, value) pairs.
  CsrIndex index = CsrIndex::Build(3, [](const auto& sink) {
    sink(2, 10);
    sink(0, 11);
    sink(2, 12);
    sink(2, 13);
    sink(0, 14);
  });
  EXPECT_EQ(index.num_keys(), 3u);
  EXPECT_EQ(index.num_postings(), 5u);
  auto [p0, p0_end] = index.Postings(0);
  EXPECT_EQ(std::vector<int32_t>(p0, p0_end), (std::vector<int32_t>{11, 14}));
  auto [p1, p1_end] = index.Postings(1);
  EXPECT_EQ(p1, p1_end);
  auto [p2, p2_end] = index.Postings(2);
  EXPECT_EQ(std::vector<int32_t>(p2, p2_end),
            (std::vector<int32_t>{10, 12, 13}));
}

TEST(TokenArenaTest, SpansAreDisjointAndSized) {
  TokenArena arena(std::vector<int32_t>{2, 0, 3});
  EXPECT_EQ(arena.num_records(), 3u);
  EXPECT_EQ(arena.size(0), 2u);
  EXPECT_EQ(arena.size(1), 0u);
  EXPECT_EQ(arena.size(2), 3u);
  arena.MutableSpan(0)[0] = 7;
  arena.MutableSpan(0)[1] = 8;
  arena.MutableSpan(2)[0] = 1;
  arena.MutableSpan(2)[1] = 2;
  arena.MutableSpan(2)[2] = 3;
  EXPECT_EQ(std::vector<int32_t>(arena.begin(0), arena.end(0)),
            (std::vector<int32_t>{7, 8}));
  EXPECT_EQ(arena.begin(1), arena.end(1));
  EXPECT_EQ(std::vector<int32_t>(arena.begin(2), arena.end(2)),
            (std::vector<int32_t>{1, 2, 3}));
}

// --- Funnel accounting ------------------------------------------------------

TEST(SimJoinFunnelTest, CandidatesSplitIntoRejectsPlusVerified) {
  StringCorpus corpus = SmallCorpus();
  const SimilarityFunction fns[] = {
      SimilarityFunction::kWordJaccard, SimilarityFunction::kQGramJaccard,
      SimilarityFunction::kQGramCosine, SimilarityFunction::kEditDistance};
  for (SimilarityFunction fn : fns) {
    for (int threads : {1, 8}) {
      MetricsRegistry metrics;
      SimJoinOptions options;
      options.kernel = SimJoinKernel::kFlat;
      options.num_threads = threads;
      options.metrics = &metrics;
      std::vector<SimPair> pairs =
          SimilarityJoin(corpus.left, corpus.right, fn, 0.6, options);
      int64_t candidates = metrics.counter("simjoin.candidates").Value();
      int64_t rejects = metrics.counter("simjoin.signature_rejects").Value();
      int64_t verified = metrics.counter("simjoin.verified").Value();
      int64_t emitted = metrics.counter("simjoin.pairs").Value();
      EXPECT_EQ(candidates, rejects + verified)
          << SimilarityFunctionName(fn) << " threads=" << threads;
      EXPECT_EQ(emitted, static_cast<int64_t>(pairs.size()))
          << SimilarityFunctionName(fn) << " threads=" << threads;
      EXPECT_GT(candidates, 0) << SimilarityFunctionName(fn);
    }
  }
}

TEST(SimJoinFunnelTest, FunnelCountsAreThreadCountInvariant) {
  StringCorpus corpus = SmallCorpus();
  std::string serial_dump;
  {
    MetricsRegistry metrics;
    SimJoinOptions options;
    options.num_threads = 1;
    options.metrics = &metrics;
    (void)SimilarityJoin(corpus.left, corpus.right,
                         SimilarityFunction::kWordJaccard, 0.6, options);
    serial_dump = MetricsDump(metrics);
  }
  MetricsRegistry metrics;
  SimJoinOptions options;
  options.num_threads = 8;
  options.metrics = &metrics;
  (void)SimilarityJoin(corpus.left, corpus.right,
                       SimilarityFunction::kWordJaccard, 0.6, options);
  EXPECT_EQ(serial_dump, MetricsDump(metrics));
}

TEST(SimJoinFunnelTest, SignatureFilterOnlySkipsVerification) {
  StringCorpus corpus = SmallCorpus();
  MetricsRegistry with_filter;
  MetricsRegistry without_filter;
  SimJoinOptions options;
  options.num_threads = 1;
  options.metrics = &with_filter;
  std::vector<SimPair> filtered = SimilarityJoin(
      corpus.left, corpus.right, SimilarityFunction::kWordJaccard, 0.8,
      options);
  options.signature_filter = false;
  options.metrics = &without_filter;
  std::vector<SimPair> unfiltered = SimilarityJoin(
      corpus.left, corpus.right, SimilarityFunction::kWordJaccard, 0.8,
      options);
  ExpectBitIdentical(filtered, unfiltered, "filter on/off");
  // Same candidates either way; the filter moves work from verified to
  // rejected, never changes what is emitted.
  EXPECT_EQ(with_filter.counter("simjoin.candidates").Value(),
            without_filter.counter("simjoin.candidates").Value());
  EXPECT_EQ(without_filter.counter("simjoin.signature_rejects").Value(), 0);
  EXPECT_LE(with_filter.counter("simjoin.verified").Value(),
            without_filter.counter("simjoin.verified").Value());
  EXPECT_EQ(with_filter.counter("simjoin.pairs").Value(),
            without_filter.counter("simjoin.pairs").Value());
}

}  // namespace
}  // namespace cdb
