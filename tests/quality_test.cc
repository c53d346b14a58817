#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "quality/task_assignment.h"
#include "quality/truth_inference.h"

namespace cdb {
namespace {

// ------------------------------------------------------ Bayesian voting ---

TEST(BayesianVoteTest, SingleConfidentAnswer) {
  std::vector<double> p = BayesianVote({{0.9, 0}}, 2);
  EXPECT_NEAR(p[0], 0.9, 1e-9);
  EXPECT_NEAR(p[1], 0.1, 1e-9);
}

TEST(BayesianVoteTest, AgreementCompounds) {
  std::vector<double> p = BayesianVote({{0.8, 0}, {0.8, 0}, {0.8, 0}}, 2);
  // 0.8^3 / (0.8^3 + 0.2^3).
  EXPECT_NEAR(p[0], 0.512 / (0.512 + 0.008), 1e-9);
}

TEST(BayesianVoteTest, HighQualityOutvotesLowQuality) {
  // Eq. 2: a 0.95 worker saying "0" beats two 0.6 workers saying "1".
  std::vector<double> p = BayesianVote({{0.95, 0}, {0.6, 1}, {0.6, 1}}, 2);
  EXPECT_GT(p[0], p[1]);
}

TEST(BayesianVoteTest, MultiwayWrongMassSplits) {
  // With 4 choices, a wrong answer has probability (1-q)/3 per choice.
  std::vector<double> p = BayesianVote({{0.7, 2}}, 4);
  EXPECT_NEAR(p[2], 0.7, 1e-9);
  EXPECT_NEAR(p[0], 0.1, 1e-9);
  EXPECT_NEAR(p[1], 0.1, 1e-9);
  EXPECT_NEAR(p[3], 0.1, 1e-9);
}

TEST(BayesianVoteTest, SumsToOne) {
  std::vector<double> p =
      BayesianVote({{0.9, 0}, {0.2, 1}, {0.55, 2}, {0.7, 0}}, 3);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
}

// ----------------------------------------------------------------- EM ---

std::vector<ChoiceObservation> SimulateAnswers(int num_tasks, int num_workers,
                                               const std::vector<double>& quality,
                                               Rng& rng,
                                               std::vector<int>* truths) {
  std::vector<ChoiceObservation> obs;
  truths->clear();
  for (int t = 0; t < num_tasks; ++t) {
    int truth = static_cast<int>(rng.UniformInt(0, 1));
    truths->push_back(truth);
    for (int w = 0; w < num_workers; ++w) {
      int answer = rng.Bernoulli(quality[static_cast<size_t>(w)]) ? truth : 1 - truth;
      obs.push_back({t, w, answer});
    }
  }
  return obs;
}

TEST(EmTest, RecoversWorkerQualities) {
  Rng rng(42);
  std::vector<double> quality = {0.95, 0.9, 0.85, 0.6, 0.55};
  std::vector<int> truths;
  std::vector<ChoiceObservation> obs =
      SimulateAnswers(400, 5, quality, rng, &truths);
  InferenceResult result = InferSingleChoiceEm(obs, EmOptions{});
  for (int w = 0; w < 5; ++w) {
    EXPECT_NEAR(result.worker_quality.at(w), quality[static_cast<size_t>(w)], 0.07)
        << "worker " << w;
  }
}

TEST(EmTest, BeatsMajorityVotingWithHeterogeneousWorkers) {
  // The CDB+ claim (Figures 9, 20): with mixed-quality workers, EM +
  // Bayesian voting recovers more truths than majority voting.
  Rng rng(7);
  std::vector<double> quality = {0.95, 0.95, 0.45, 0.45, 0.45};
  std::vector<int> truths;
  std::vector<ChoiceObservation> obs =
      SimulateAnswers(600, 5, quality, rng, &truths);
  InferenceResult em = InferSingleChoiceEm(obs, EmOptions{});
  InferenceResult mv = InferSingleChoiceMajority(obs, 2);
  int em_correct = 0;
  int mv_correct = 0;
  for (size_t t = 0; t < truths.size(); ++t) {
    TaskId id = static_cast<TaskId>(t);
    em_correct += em.Truth(id) == truths[t] ? 1 : 0;
    mv_correct += mv.Truth(id) == truths[t] ? 1 : 0;
  }
  EXPECT_GT(em_correct, mv_correct);
  EXPECT_GT(em_correct, static_cast<int>(truths.size() * 9) / 10);
}

TEST(EmTest, QualityPriorsSeedNewRound) {
  std::vector<ChoiceObservation> obs = {{0, 7, 0}};
  EmOptions options;
  options.quality_priors[7] = 0.95;
  options.max_iterations = 0;  // No updates: posterior reflects the prior.
  InferenceResult result = InferSingleChoiceEm(obs, options);
  // With zero iterations there are no posteriors; run one E-step instead.
  options.max_iterations = 1;
  result = InferSingleChoiceEm(obs, options);
  EXPECT_NEAR(result.posteriors.at(0)[0], 0.95, 0.05);
}

TEST(EmTest, EmptyObservations) {
  InferenceResult result = InferSingleChoiceEm({}, EmOptions{});
  EXPECT_TRUE(result.posteriors.empty());
  EXPECT_EQ(result.Truth(0), -1);
  EXPECT_EQ(result.Confidence(0), 0.0);
}

TEST(MajorityVoteTest, Basic) {
  std::vector<ChoiceObservation> obs = {
      {0, 0, 1}, {0, 1, 1}, {0, 2, 0}, {1, 0, 0}};
  InferenceResult result = InferSingleChoiceMajority(obs, 2);
  EXPECT_EQ(result.Truth(0), 1);
  EXPECT_NEAR(result.Confidence(0), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(result.Truth(1), 0);
}

// -------------------------------------------------------- Multi-choice ---

TEST(MultiChoiceTest, DecomposesPerChoice) {
  // Three workers; choices {0, 2} are the truth; worker 2 is confused.
  std::vector<Answer> answers(3);
  answers[0].worker = 0;
  answers[0].choice_set = {0, 2};
  answers[1].worker = 1;
  answers[1].choice_set = {0, 2};
  answers[2].worker = 2;
  answers[2].choice_set = {1};
  std::map<int, double> quality = {{0, 0.9}, {1, 0.9}, {2, 0.6}};
  std::vector<int> truth = InferMultiChoice(answers, 3, quality);
  EXPECT_EQ(truth, (std::vector<int>{0, 2}));
}

// ------------------------------------------------------- Fill-in-blank ---

TEST(FillInBlankTest, PivotIsClosestToOthers) {
  std::vector<Answer> answers(4);
  answers[0].text = "Massachusetts";
  answers[1].text = "Massachusets";   // Typo, still close.
  answers[2].text = "massachusetts";  // Case variant.
  answers[3].text = "California";     // Outlier.
  std::string truth =
      InferFillInBlank(answers, SimilarityFunction::kQGramJaccard);
  EXPECT_NE(truth, "California");
}

TEST(FillInBlankTest, SingleAnswerWins) {
  std::vector<Answer> answers(1);
  answers[0].text = "only";
  EXPECT_EQ(InferFillInBlank(answers, SimilarityFunction::kQGramJaccard), "only");
}

// ------------------------------------------------------------ Entropy ---

TEST(EntropyTest, KnownValues) {
  EXPECT_NEAR(Entropy({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_NEAR(Entropy({1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(Entropy({}), 0.0, 1e-12);
}

TEST(PosteriorAfterAnswerTest, BayesUpdate) {
  std::vector<double> post = PosteriorAfterAnswer({0.5, 0.5}, 0.8, 0);
  EXPECT_NEAR(post[0], 0.8, 1e-9);
  EXPECT_NEAR(post[1], 0.2, 1e-9);
  // A 0.5-quality worker on binary tasks adds no information.
  post = PosteriorAfterAnswer({0.7, 0.3}, 0.5, 1);
  EXPECT_NEAR(post[0], 0.7, 1e-9);
}

TEST(ExpectedImprovementTest, UncertainTasksGainMore) {
  // Eq. 3: a uniform task has more to gain than a near-settled one.
  double uncertain = ExpectedQualityImprovement({0.5, 0.5}, 0.8);
  double settled = ExpectedQualityImprovement({0.98, 0.02}, 0.8);
  EXPECT_GT(uncertain, settled);
  EXPECT_GE(uncertain, 0.0);
}

TEST(ExpectedImprovementTest, BetterWorkersGainMore) {
  double good = ExpectedQualityImprovement({0.5, 0.5}, 0.95);
  double mediocre = ExpectedQualityImprovement({0.5, 0.5}, 0.6);
  EXPECT_GT(good, mediocre);
}

TEST(ExpectedImprovementTest, UninformativeWorkerGainsNothing) {
  EXPECT_NEAR(ExpectedQualityImprovement({0.5, 0.5}, 0.5), 0.0, 1e-9);
}

// -------------------------------------------------------- Consistency ---

TEST(FillConsistencyTest, Eq4) {
  std::vector<Answer> answers(3);
  answers[0].text = "abc";
  answers[1].text = "abc";
  answers[2].text = "abc";
  EXPECT_NEAR(FillConsistency(answers, SimilarityFunction::kQGramJaccard), 1.0, 1e-9);
  answers[2].text = "zzzzz";
  double mixed = FillConsistency(answers, SimilarityFunction::kQGramJaccard);
  EXPECT_LT(mixed, 1.0);
  EXPECT_NEAR(mixed, 1.0 / 3.0, 1e-9);  // One identical pair out of three.
  EXPECT_EQ(FillConsistency({}, SimilarityFunction::kQGramJaccard), 1.0);
}

TEST(CompletenessScoreTest, Bounds) {
  EXPECT_NEAR(CompletenessScore(20, 100), 0.8, 1e-12);
  EXPECT_NEAR(CompletenessScore(100, 100), 0.0, 1e-12);
  EXPECT_NEAR(CompletenessScore(0, 100), 1.0, 1e-12);
  EXPECT_EQ(CompletenessScore(5, 0), 0.0);
  EXPECT_NEAR(CompletenessScore(120, 100), 0.0, 1e-12);  // Clamped.
}

// ----------------------------------------------------- EntropyAssigner ---

TEST(EntropyAssignerTest, PicksMostUncertainTasks) {
  BinaryPosteriors posteriors;
  posteriors.Reset(13);
  posteriors.Set(10, 0.99, 0.01);
  posteriors.Set(11, 0.55, 0.45);
  posteriors.Set(12, 0.80, 0.20);
  WorkerQualities worker_quality({{0, 0.9}});
  EntropyAssigner assigner(&posteriors, &worker_quality);
  SimulatedWorker worker(0, 0.9);
  std::vector<size_t> picks = assigner(worker, {10, 11, 12}, 2);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 1u);  // Task 11 (most uncertain).
  EXPECT_EQ(picks[1], 2u);  // Task 12.
}

TEST(EntropyAssignerTest, UnknownTasksGetUniformPrior) {
  BinaryPosteriors posteriors;
  WorkerQualities worker_quality;
  EntropyAssigner assigner(&posteriors, &worker_quality);
  SimulatedWorker worker(5, 0.8);
  std::vector<size_t> picks = assigner(worker, {1, 2, 3}, 5);
  EXPECT_EQ(picks.size(), 3u);  // Capped at available.
}

}  // namespace
}  // namespace cdb
