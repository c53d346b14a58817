// The flat answer path against from-scratch oracles. The oracles below are
// the ordered-map implementations the session used before its answer state
// went flat (Group() + per-task BayesianVote EM, grouped majority voting, and
// the map-backed Eq. 3 assigner), kept verbatim. After every session step
// the session's own inference must equal the oracle's run from scratch over
// the session's observation log -- posteriors, worker qualities and the
// quality.em.* metrics, as equal doubles -- for CDB and CDB+, clean and
// hostile crowds (late answers included), at 1 and 8 threads. The two-choice
// Eq. 3 kernel and the in-place posterior update are checked against
// ExpectedQualityImprovement / PosteriorAfterAnswer over a grid of priors and
// qualities, and answers with an out-of-range choice or task id are shown to
// be dropped before they reach inference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "datagen/paper_dataset.h"
#include "exec/session.h"
#include "quality/task_assignment.h"
#include "quality/truth_inference.h"

namespace cdb {
namespace {

// ----------------------------------------------------------- Oracles ---

// Groups observations per task and per worker.
struct Grouped {
  std::map<TaskId, std::vector<const ChoiceObservation*>> by_task;
  std::map<int, std::vector<const ChoiceObservation*>> by_worker;
};

Grouped Group(const std::vector<ChoiceObservation>& obs) {
  Grouped g;
  for (const ChoiceObservation& o : obs) {
    g.by_task[o.task].push_back(&o);
    g.by_worker[o.worker].push_back(&o);
  }
  return g;
}


InferenceResult OracleEm(const std::vector<ChoiceObservation>& obs,
                         const EmOptions& options) {
  InferenceResult result;
  if (obs.empty()) return result;
  Grouped grouped = Group(obs);

  // Flatten the task map into an indexable form so the E-step can write
  // per-task posteriors into disjoint slots from the pool, and give every
  // observation its dense task row + worker row up front.
  std::vector<TaskId> task_ids;
  std::vector<const std::vector<const ChoiceObservation*>*> task_answers;
  std::map<TaskId, int> task_row;
  for (const auto& [task, answers] : grouped.by_task) {
    task_row[task] = static_cast<int>(task_ids.size());
    task_ids.push_back(task);
    task_answers.push_back(&answers);
  }
  std::vector<int> worker_ids;
  // Per worker: that worker's answers as (task row, choice), in observation
  // order — the same order the serial M-step summed in.
  std::vector<std::vector<std::pair<int, int>>> worker_answers;
  for (const auto& [worker, answers] : grouped.by_worker) {
    worker_ids.push_back(worker);
    std::vector<std::pair<int, int>> rows;
    rows.reserve(answers.size());
    for (const ChoiceObservation* o : answers) {
      rows.emplace_back(task_row.at(o->task), o->choice);
    }
    worker_answers.push_back(std::move(rows));
  }

  // Initialize qualities from the priors (or the default), indexed like
  // worker_ids.
  std::vector<double> quality(worker_ids.size());
  std::vector<double> prior(worker_ids.size());
  std::map<int, int> worker_row;
  for (size_t w = 0; w < worker_ids.size(); ++w) {
    worker_row[worker_ids[w]] = static_cast<int>(w);
    auto it = options.quality_priors.find(worker_ids[w]);
    double q = it != options.quality_priors.end() ? it->second
                                                  : options.initial_quality;
    quality[w] = q;
    prior[w] = q;
  }

  std::vector<std::vector<double>> posteriors(task_ids.size());
  std::vector<double> updated_quality(worker_ids.size());
  int iterations_run = 0;
  double last_max_delta = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // E-step: task posteriors from current qualities (Eq. 2). Tasks are
    // independent given the qualities, so they fan out across the pool.
    ParallelFor(
        0, static_cast<int64_t>(task_ids.size()), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          std::vector<std::pair<double, int>> qc;
          for (int64_t t = begin; t < end; ++t) {
            const auto& answers = *task_answers[static_cast<size_t>(t)];
            qc.clear();
            qc.reserve(answers.size());
            for (const ChoiceObservation* o : answers) {
              qc.emplace_back(
                  quality[static_cast<size_t>(worker_row.at(o->worker))],
                  o->choice);
            }
            posteriors[static_cast<size_t>(t)] =
                BayesianVote(qc, options.num_choices);
          }
        },
        options.num_threads);
    // M-step: worker quality = expected fraction of correct answers. The
    // per-worker sums run in parallel (each walks only its own answers, in
    // the serial order); the max_delta reduction stays serial so the
    // convergence test is exactly the single-thread one.
    ParallelFor(
        0, static_cast<int64_t>(worker_ids.size()), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (int64_t w = begin; w < end; ++w) {
            const auto& answers = worker_answers[static_cast<size_t>(w)];
            double expected_correct = 0.0;
            for (const auto& [row, choice] : answers) {
              expected_correct +=
                  posteriors[static_cast<size_t>(row)][static_cast<size_t>(choice)];
            }
            // MAP estimate with a Beta pseudo-count prior centered on the
            // worker's incoming quality.
            double updated = (options.prior_strength * prior[static_cast<size_t>(w)] +
                              expected_correct) /
                             (options.prior_strength +
                              static_cast<double>(answers.size()));
            // Keep qualities interior so Eq. 2 stays well defined.
            updated_quality[static_cast<size_t>(w)] =
                std::clamp(updated, 0.05, 0.99);
          }
        },
        options.num_threads);
    double max_delta = 0.0;
    for (size_t w = 0; w < worker_ids.size(); ++w) {
      max_delta = std::max(max_delta, std::abs(updated_quality[w] - quality[w]));
      quality[w] = updated_quality[w];
    }
    ++iterations_run;
    last_max_delta = max_delta;
    if (max_delta < options.tolerance) break;
  }
  if (options.metrics != nullptr) {
    MetricsRegistry& reg = *options.metrics;
    reg.counter("quality.em.runs").Increment();
    reg.counter("quality.em.iterations").Increment(iterations_run);
    // Convergence delta in integer micro-units; deterministic because EM is
    // bit-identical across thread counts.
    reg.gauge("quality.em.last_delta_micro")
        .Set(static_cast<int64_t>(std::llround(last_max_delta * 1e6)));
    reg.histogram("quality.em.iterations_per_run").Observe(iterations_run);
  }

  for (size_t t = 0; t < task_ids.size(); ++t) {
    result.posteriors[task_ids[t]] = std::move(posteriors[t]);
  }
  for (size_t w = 0; w < worker_ids.size(); ++w) {
    result.worker_quality[worker_ids[w]] = quality[w];
  }
  return result;
}

InferenceResult OracleMajority(const std::vector<ChoiceObservation>& obs,
                               int num_choices) {
  InferenceResult result;
  Grouped grouped = Group(obs);
  for (const auto& [task, answers] : grouped.by_task) {
    std::vector<double> votes(num_choices, 0.0);
    for (const ChoiceObservation* o : answers) {
      if (o->choice >= 0 && o->choice < num_choices) votes[o->choice] += 1.0;
    }
    double total = 0.0;
    for (double v : votes) total += v;
    if (total > 0) {
      for (double& v : votes) v /= total;
    }
    result.posteriors[task] = std::move(votes);
  }
  for (const auto& [worker, answers] : grouped.by_worker) {
    result.worker_quality[worker] = 0.5;  // Not modeled by majority voting.
    (void)answers;
  }
  return result;
}

std::vector<size_t> OracleAssign(
    const std::map<TaskId, std::vector<double>>* posteriors_,
    const std::map<int, double>* worker_quality_, int num_choices_,
    double default_quality_, const SimulatedWorker& worker,
    const std::vector<TaskId>& available, int count) {
  double q = default_quality_;
  auto wq = worker_quality_->find(worker.id());
  if (wq != worker_quality_->end()) q = wq->second;

  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(available.size());
  std::vector<double> uniform(num_choices_, 1.0 / num_choices_);
  for (size_t i = 0; i < available.size(); ++i) {
    auto it = posteriors_->find(available[i]);
    const std::vector<double>& prior =
        it != posteriors_->end() && !it->second.empty() ? it->second : uniform;
    scored.emplace_back(ExpectedQualityImprovement(prior, q), i);
  }
  size_t k = std::min<size_t>(static_cast<size_t>(count), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<int64_t>(k),
                    scored.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<size_t> picks;
  picks.reserve(k);
  for (size_t i = 0; i < k; ++i) picks.push_back(scored[i].second);
  return picks;
}


// ------------------------------------------------------------ Helpers ---

ResolvedQuery Resolve(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSamePosteriors(const std::map<TaskId, std::vector<double>>& got,
                          const std::map<TaskId, std::vector<double>>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (const auto& [task, p] : want) {
    auto it = got.find(task);
    ASSERT_NE(it, got.end()) << where << " task " << task;
    ASSERT_EQ(it->second.size(), p.size()) << where << " task " << task;
    for (size_t i = 0; i < p.size(); ++i) {
      ASSERT_TRUE(SameBits(it->second[i], p[i]))
          << where << " task " << task << " choice " << i << ": "
          << it->second[i] << " vs " << p[i];
    }
  }
}

void ExpectSameQualities(const std::map<int, double>& got,
                         const std::map<int, double>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (const auto& [worker, q] : want) {
    auto it = got.find(worker);
    ASSERT_NE(it, got.end()) << where << " worker " << worker;
    ASSERT_TRUE(SameBits(it->second, q))
        << where << " worker " << worker << ": " << it->second << " vs " << q;
  }
}

struct EmMetrics {
  int64_t runs = 0;
  int64_t iterations = 0;
  int64_t last_delta_micro = 0;
};

EmMetrics ReadEmMetrics(MetricsRegistry& reg) {
  return {reg.counter("quality.em.runs").Value(),
          reg.counter("quality.em.iterations").Value(),
          reg.gauge("quality.em.last_delta_micro").Value()};
}

struct SweepCounts {
  int64_t infer_checks = 0;
  int64_t em_checks = 0;
  int64_t late_answers = 0;
  int64_t golden_observations = 0;
};

// Steps `session` to completion, checking its inference against the oracles
// after every step.
SweepCounts SweepAgainstOracles(QuerySession& session, MetricsRegistry& reg,
                                const ExecutorOptions& options) {
  SweepCounts counts;
  while (!session.done()) {
    const SessionPhase phase = session.phase();
    const std::map<int, double> carried = session.worker_qualities();
    const EmMetrics before = ReadEmMetrics(reg);
    Result<bool> more = session.Step();
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok()) return counts;
    const EmMetrics after = ReadEmMetrics(reg);
    const std::string where = std::string("after ") + SessionPhaseName(phase);
    const std::vector<ChoiceObservation>& obs = session.observations();

    if (options.quality_control) {
      const int64_t runs = after.runs - before.runs;
      EXPECT_LE(runs, 1) << where;
      // EM runs in Infer, and in late-answer reconciliation when late
      // answers added observations.
      if (runs == 1 || phase == SessionPhase::kInfer) {
        MetricsRegistry oracle_reg;
        EmOptions em;
        em.num_choices = 2;
        em.quality_priors = carried;
        em.num_threads = options.num_threads;
        em.metrics = &oracle_reg;
        InferenceResult oracle = OracleEm(obs, em);
        ExpectSameQualities(session.worker_qualities(), oracle.worker_quality,
                            where);
        const EmMetrics want = ReadEmMetrics(oracle_reg);
        EXPECT_EQ(runs, want.runs) << where;
        EXPECT_EQ(after.iterations - before.iterations, want.iterations)
            << where;
        if (want.runs > 0) {
          EXPECT_EQ(after.last_delta_micro, want.last_delta_micro) << where;
        }
        if (phase == SessionPhase::kInfer) {
          InferenceResult got = session.last_inference();
          ExpectSamePosteriors(got.posteriors, oracle.posteriors, where);
          ExpectSameQualities(got.worker_quality, oracle.worker_quality, where);
          ++counts.infer_checks;
        }
        ++counts.em_checks;
      }
    } else {
      EXPECT_EQ(after.runs, before.runs) << where;
      if (phase == SessionPhase::kInfer) {
        InferenceResult oracle = OracleMajority(obs, 2);
        InferenceResult got = session.last_inference();
        ExpectSamePosteriors(got.posteriors, oracle.posteriors, where);
        ExpectSameQualities(got.worker_quality, oracle.worker_quality, where);
        ++counts.infer_checks;
      }
    }
    if (::testing::Test::HasFatalFailure()) return counts;
  }
  counts.late_answers = session.stats().late_answers;
  for (const ChoiceObservation& o : session.observations()) {
    if (o.task < 0) ++counts.golden_observations;
  }
  return counts;
}

ExecutorOptions CleanCrowd(uint64_t seed, int threads, bool quality_control) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.75;
  options.platform.redundancy = 3;
  options.platform.seed = seed;
  options.num_threads = threads;
  options.graph.num_threads = threads;
  options.quality_control = quality_control;
  if (quality_control) options.golden_tasks = 4;
  return options;
}

ExecutorOptions HostileCrowd(uint64_t seed, int threads, bool quality_control) {
  ExecutorOptions options = CleanCrowd(seed, threads, quality_control);
  FaultProfile& fault = options.platform.fault;
  fault.abandon_prob = 0.25;
  fault.straggler_prob = 0.3;
  fault.straggler_delay_ticks = 6;
  fault.duplicate_prob = 0.1;
  fault.no_show_prob = 0.15;
  fault.task_deadline_ticks = 8;
  return options;
}

class AnswerPathTest : public ::testing::Test {
 protected:
  AnswerPathTest()
      : mini_(MakeMiniPaperExample()),
        mini_query_(Resolve(mini_, kMiniExampleQuery)),
        mini_truth_(MakeEdgeTruth(&mini_, &mini_query_)) {
    PaperDatasetOptions paper_options;
    paper_options.scale = 0.05;
    paper_ = GeneratePaperDataset(paper_options);
    paper_query_ = Resolve(paper_, PaperQueries().front().cql);
    paper_truth_ = MakeEdgeTruth(&paper_, &paper_query_);
  }

  GeneratedDataset mini_;
  ResolvedQuery mini_query_;
  EdgeTruthFn mini_truth_;
  GeneratedDataset paper_;
  ResolvedQuery paper_query_;
  EdgeTruthFn paper_truth_;
};

// --------------------------------------------- Session vs the oracles ---

TEST_F(AnswerPathTest, SessionInferenceEqualsOraclesEveryStep) {
  SweepCounts total;
  for (bool quality_control : {false, true}) {
    for (bool hostile : {false, true}) {
      for (int threads : {1, 8}) {
        for (uint64_t seed : {3u, 11u}) {
          for (bool paper : {false, true}) {
            SCOPED_TRACE(std::string(quality_control ? "CDB+" : "CDB") +
                         (hostile ? " hostile" : " clean") + " threads=" +
                         std::to_string(threads) + " seed=" +
                         std::to_string(seed) + (paper ? " paper" : " mini"));
            ExecutorOptions options =
                hostile ? HostileCrowd(seed, threads, quality_control)
                        : CleanCrowd(seed, threads, quality_control);
            MetricsRegistry reg;
            options.metrics = &reg;
            QuerySession session(paper ? &paper_query_ : &mini_query_, options,
                                 paper ? paper_truth_ : mini_truth_);
            SweepCounts counts = SweepAgainstOracles(session, reg, options);
            if (HasFatalFailure()) return;
            EXPECT_GT(counts.infer_checks, 0);
            total.infer_checks += counts.infer_checks;
            total.em_checks += counts.em_checks;
            total.late_answers += hostile ? counts.late_answers : 0;
            total.golden_observations += counts.golden_observations;
          }
        }
      }
    }
  }
  // The hostile runs must actually exercise late-answer reconciliation.
  EXPECT_GT(total.late_answers, 0);
  EXPECT_GT(total.em_checks, total.infer_checks / 2);
  // Late golden warm-up answers land in the log under negative task ids.
  EXPECT_GT(total.golden_observations, 0);
}

// Many small rounds over a larger graph and worker pool: EM sees more than
// one 64-task and 64-worker ParallelFor chunk, so at 8 threads its E- and
// M-steps really fan out across the pool.
TEST(AnswerPathWideTest, ManyRoundsAndChunksEqualOracles) {
  PaperDatasetOptions paper_options;
  paper_options.scale = 0.2;
  GeneratedDataset paper = GeneratePaperDataset(paper_options);
  ResolvedQuery query = Resolve(paper, PaperQueries().front().cql);
  EdgeTruthFn truth = MakeEdgeTruth(&paper, &query);
  for (bool quality_control : {false, true}) {
    for (bool hostile : {false, true}) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE(std::string(quality_control ? "CDB+" : "CDB") +
                     (hostile ? " hostile" : " clean") +
                     " threads=" + std::to_string(threads));
        ExecutorOptions options = hostile
                                      ? HostileCrowd(7, threads, quality_control)
                                      : CleanCrowd(7, threads, quality_control);
        options.platform.num_workers = 150;
        options.greedy_round_fraction = 0.05;
        MetricsRegistry reg;
        options.metrics = &reg;
        QuerySession session(&query, options, truth);
        SweepCounts counts = SweepAgainstOracles(session, reg, options);
        if (HasFatalFailure()) return;
        EXPECT_GE(counts.infer_checks, 4);
        InferenceResult last = session.last_inference();
        EXPECT_GT(last.posteriors.size(), 128u);
        EXPECT_GT(last.worker_quality.size(), 64u);
      }
    }
  }
}

TEST_F(AnswerPathTest, RestoredDerivedStateMatchesAtEveryStep) {
  for (bool quality_control : {false, true}) {
    SCOPED_TRACE(quality_control ? "CDB+" : "CDB");
    ExecutorOptions options = HostileCrowd(5, 1, quality_control);
    QuerySession session(&paper_query_, options, paper_truth_);
    while (!session.done()) {
      std::string blob = session.Snapshot();
      QuerySession restored(&paper_query_, options, paper_truth_);
      ASSERT_TRUE(restored.Restore(blob).ok());
      // The rebuilt tallies, slots and dense posteriors serialize to the
      // same bytes and report the same inference.
      ASSERT_EQ(restored.Snapshot(), blob) << SessionPhaseName(session.phase());
      ExpectSamePosteriors(restored.last_inference().posteriors,
                           session.last_inference().posteriors, "restore");
      ExpectSameQualities(restored.worker_qualities(),
                          session.worker_qualities(), "restore");
      ASSERT_TRUE(session.Step().ok());
    }
  }
}

// ------------------------------------------- Eq. 3 kernel vs reference ---

std::vector<std::pair<double, double>> PriorGrid() {
  std::vector<std::pair<double, double>> grid = {
      {0.0, 1.0}, {1.0, 0.0}, {0.5, 0.5}, {0.0, 0.0}};
  for (double p : {1e-300, 1e-12, 1e-3, 0.01, 0.1, 0.25, 0.3, 0.41, 0.42,
                   0.6, 0.7, 0.83, 0.9, 0.999, 1.0 - 1e-12}) {
    grid.push_back({p, 1.0 - p});
  }
  // Distributions the observer produces: chains of in-place updates.
  std::vector<std::pair<double, double>> chained;
  for (const auto& [yes, no] : grid) {
    std::vector<double> p = {yes, no};
    for (int step = 0; step < 4; ++step) {
      p = PosteriorAfterAnswer(p, 0.65 + 0.1 * step, step % 2);
      chained.push_back({p[0], p[1]});
    }
  }
  grid.insert(grid.end(), chained.begin(), chained.end());
  return grid;
}

std::vector<double> QualityGrid() {
  const double lo = 1e-3;
  const double hi = 1.0 - 1e-3;
  return {0.0,
          std::nextafter(lo, 0.0),
          lo,
          std::nextafter(lo, 1.0),
          0.05,
          0.5,
          0.7,
          0.9,
          0.99,
          std::nextafter(hi, 0.0),
          hi,
          std::nextafter(hi, 1.0),
          1.0};
}

TEST(BinaryKernelTest, ExpectedImprovementEqualsReference) {
  for (const auto& [yes, no] : PriorGrid()) {
    const double entropy = BinaryEntropy(yes, no);
    ASSERT_TRUE(SameBits(entropy, Entropy({yes, no}))) << yes << "," << no;
    for (double q : QualityGrid()) {
      double want = ExpectedQualityImprovement({yes, no}, q);
      double got = BinaryExpectedQualityImprovement(yes, no, entropy, q);
      ASSERT_TRUE(SameBits(got, want))
          << "prior {" << yes << ", " << no << "} q=" << q << ": " << got
          << " vs " << want;
    }
  }
}

TEST(BinaryKernelTest, InPlaceUpdateEqualsPosteriorAfterAnswer) {
  const std::vector<std::pair<double, double>> grid = PriorGrid();
  for (const auto& [yes, no] : grid) {
    for (double q : QualityGrid()) {
      for (int answer : {0, 1}) {
        BinaryPosteriors posteriors;
        posteriors.Reset(1);
        posteriors.Set(0, yes, no);
        posteriors.Observe(0, q, answer);
        std::vector<double> want = PosteriorAfterAnswer({yes, no}, q, answer);
        const BinaryPosteriors::Entry* got = posteriors.Find(0);
        ASSERT_NE(got, nullptr);
        ASSERT_TRUE(SameBits(got->p_yes, want[0]) &&
                    SameBits(got->p_no, want[1]))
            << "prior {" << yes << ", " << no << "} q=" << q << " answer "
            << answer;
        ASSERT_TRUE(SameBits(got->entropy, Entropy(want)));
      }
    }
  }
  // Unknown tasks and non-yes/no answers leave the table untouched.
  BinaryPosteriors posteriors;
  posteriors.Reset(2);
  posteriors.Set(0, 0.3, 0.7);
  posteriors.Observe(0, 0.9, 2);
  posteriors.Observe(0, 0.9, -1);
  posteriors.Observe(1, 0.9, 0);
  posteriors.Observe(-3, 0.9, 0);
  posteriors.Observe(99, 0.9, 0);
  EXPECT_EQ(posteriors.Find(0)->p_yes, 0.3);
  EXPECT_EQ(posteriors.Find(1), nullptr);
  EXPECT_EQ(posteriors.Find(-3), nullptr);
  EXPECT_EQ(posteriors.Find(99), nullptr);
}

TEST(BinaryKernelTest, AssignerPicksEqualMapBasedAssigner) {
  const std::vector<std::pair<double, double>> grid = PriorGrid();
  const TaskId num_tasks = static_cast<TaskId>(grid.size()) + 5;
  BinaryPosteriors posteriors;
  posteriors.Reset(static_cast<size_t>(num_tasks));
  std::map<TaskId, std::vector<double>> oracle_posteriors;
  // Every third task has no posterior (the uniform fallback).
  for (TaskId t = 0; t < static_cast<TaskId>(grid.size()); ++t) {
    if (t % 3 == 2) continue;
    posteriors.Set(t, grid[static_cast<size_t>(t)].first,
                   grid[static_cast<size_t>(t)].second);
    oracle_posteriors[t] = {grid[static_cast<size_t>(t)].first,
                            grid[static_cast<size_t>(t)].second};
  }
  std::vector<TaskId> available;
  for (TaskId t = 0; t < num_tasks; ++t) available.push_back(t);
  available.push_back(-4);  // Not a task of the table: uniform too.
  std::map<int, double> oracle_quality;
  WorkerQualities quality;
  std::vector<double> qualities = QualityGrid();
  for (size_t w = 0; w < qualities.size(); ++w) {
    oracle_quality[static_cast<int>(w)] = qualities[w];
    quality.Set(static_cast<int>(w), qualities[w]);
  }
  EntropyAssigner assigner(&posteriors, &quality);
  // Workers without a quality (ids past the grid) use the default.
  for (int w = 0; w < static_cast<int>(qualities.size()) + 2; ++w) {
    SimulatedWorker worker(w, 0.8);
    for (int count : {1, 5, 1000}) {
      std::vector<size_t> want =
          OracleAssign(&oracle_posteriors, &oracle_quality, 2, 0.7, worker,
                       available, count);
      EXPECT_EQ(assigner(worker, available, count), want)
          << "worker " << w << " count " << count;
    }
  }
}

// ------------------------------------------------ Library entry points ---

TEST(FlatInferenceTest, LibraryEntryPointsEqualOracles) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ChoiceObservation> obs;
    const int tasks = 1 + static_cast<int>(rng.UniformInt(0, 60));
    const int workers = 1 + static_cast<int>(rng.UniformInt(0, 12));
    const int num_choices = trial % 4 == 3 ? 3 : 2;
    for (int k = 0; k < tasks * 4; ++k) {
      obs.push_back({rng.UniformInt(-3, tasks),
                     static_cast<int>(rng.UniformInt(0, workers)) * 7 - 5,
                     static_cast<int>(rng.UniformInt(0, num_choices - 1))});
    }
    for (int threads : {1, 8}) {
      EmOptions options;
      options.num_choices = num_choices;
      options.num_threads = threads;
      options.quality_priors[2] = 0.9;
      options.quality_priors[9] = 0.3;
      MetricsRegistry got_reg;
      MetricsRegistry want_reg;
      options.metrics = &got_reg;
      InferenceResult got = InferSingleChoiceEm(obs, options);
      options.metrics = &want_reg;
      InferenceResult want = OracleEm(obs, options);
      ExpectSamePosteriors(got.posteriors, want.posteriors, "em");
      ExpectSameQualities(got.worker_quality, want.worker_quality, "em");
      EXPECT_EQ(MetricsDump(got_reg), MetricsDump(want_reg));
    }
    InferenceResult got = InferSingleChoiceMajority(obs, num_choices);
    InferenceResult want = OracleMajority(obs, num_choices);
    ExpectSamePosteriors(got.posteriors, want.posteriors, "majority");
    ExpectSameQualities(got.worker_quality, want.worker_quality, "majority");
  }
}

TEST(FlatInferenceTest, OutOfRangeChoicesCarryNoVote) {
  // Task 0's only answers are garbage; task 1 has one real vote among them.
  std::vector<ChoiceObservation> obs = {
      {0, 1, 5}, {0, 2, -1}, {1, 1, 7}, {1, 2, 1}};
  InferenceResult majority = InferSingleChoiceMajority(obs, 2);
  EXPECT_EQ(majority.Truth(0), -1);
  EXPECT_EQ(majority.Truth(1), 1);
  EXPECT_EQ(majority.worker_quality.count(1), 0u);
  InferenceResult em = InferSingleChoiceEm(obs, EmOptions{});
  EXPECT_EQ(em.Truth(0), -1);
  EXPECT_EQ(em.Truth(1), 1);
  EXPECT_EQ(em.worker_quality.count(1), 0u);
}

// ------------------------------------------ Garbage through the session ---

// A scheduler-side channel that delivers nothing on its own: the test hands
// the session its answers through DeliverAnswers().
class SilentPublisher : public TaskPublisher {
 public:
  Result<std::vector<Answer>> Publish(const std::vector<Task>&,
                                      const AssignmentPolicy*,
                                      const AnswerObserver*) override {
    return std::vector<Answer>{};
  }
  std::vector<Answer> TakeLateAnswers() override { return {}; }
  std::vector<TaskId> TakeDeadLetters() override { return {}; }
  void AdvanceTicks(int64_t) override {}
  int effective_redundancy() const override { return 1; }
  PlatformStats stats() const override { return {}; }
};

Answer MakeAnswer(TaskId task, int worker, int choice) {
  Answer answer;
  answer.task = task;
  answer.worker = worker;
  answer.choice = choice;
  return answer;
}

TEST_F(AnswerPathTest, GarbageAnswersNeverReachInference) {
  for (bool quality_control : {false, true}) {
    SCOPED_TRACE(quality_control ? "CDB+" : "CDB");
    ExecutorOptions options = CleanCrowd(7, 1, quality_control);
    SilentPublisher publisher;
    QuerySession session(&mini_query_, options, mini_truth_, &publisher);
    while (!session.waiting_for_answers()) ASSERT_TRUE(session.Step().ok());
    const std::vector<Task>& tasks = session.pending_tasks();
    ASSERT_GE(tasks.size(), 2u);
    const EdgeId garbage_edge = static_cast<EdgeId>(tasks[0].id);
    const EdgeId mixed_edge = static_cast<EdgeId>(tasks[1].id);
    const TaskId num_edges = session.graph().num_edges();
    std::vector<Answer> answers = {
        // Every answer for the first task has a choice outside {0, 1}.
        MakeAnswer(garbage_edge, 1, 7),
        MakeAnswer(garbage_edge, 2, -1),
        MakeAnswer(garbage_edge, 3, std::numeric_limits<int>::max()),
        // The second task gets garbage plus one real "no" vote.
        MakeAnswer(mixed_edge, 1, 2),
        MakeAnswer(mixed_edge, 2, 1),
        // Task ids that are not this session's tasks.
        MakeAnswer(num_edges, 1, 0),
        MakeAnswer(num_edges + 1000, 1, 0),
        MakeAnswer(std::numeric_limits<TaskId>::max(), 1, 0),
        MakeAnswer(std::numeric_limits<TaskId>::min(), 1, 0),
        MakeAnswer(-(options.golden_tasks + 1), 1, 0),
        // A golden warm-up task id is one of the session's tasks.
        MakeAnswer(-1, 4, 1),
    };
    session.DeliverAnswers(answers);
    std::vector<ChoiceObservation> want = {{mixed_edge, 2, 1}};
    if (quality_control) want.push_back({-1, 4, 1});
    ASSERT_EQ(session.observations().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(session.observations()[i].task, want[i].task);
      EXPECT_EQ(session.observations()[i].worker, want[i].worker);
      EXPECT_EQ(session.observations()[i].choice, want[i].choice);
    }
    // Collect -> Infer -> Color.
    while (session.phase() != SessionPhase::kPrune && !session.done()) {
      ASSERT_TRUE(session.Step().ok());
    }
    InferenceResult inference = session.last_inference();
    EXPECT_EQ(inference.Truth(garbage_edge), -1);
    EXPECT_EQ(inference.Truth(mixed_edge), 1);
    // The all-garbage task is colored by the fallback, not as crowd evidence.
    EXPECT_EQ(session.edge_provenance(garbage_edge), EdgeProvenance::kFallback);
    EXPECT_EQ(session.edge_provenance(mixed_edge), EdgeProvenance::kAsked);
    EXPECT_EQ(session.graph().edge(mixed_edge).color, EdgeColor::kRed);
    EXPECT_GE(session.stats().fallback_colored, 1);
  }
}

}  // namespace
}  // namespace cdb
