#include "quality/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace cdb {

int InferenceResult::Truth(TaskId task) const {
  auto it = posteriors.find(task);
  if (it == posteriors.end() || it->second.empty()) return -1;
  return static_cast<int>(std::max_element(it->second.begin(), it->second.end()) -
                          it->second.begin());
}

double InferenceResult::Confidence(TaskId task) const {
  auto it = posteriors.find(task);
  if (it == posteriors.end() || it->second.empty()) return 0.0;
  return *std::max_element(it->second.begin(), it->second.end());
}

std::vector<double> BayesianVote(
    const std::vector<std::pair<double, int>>& quality_and_choice,
    int num_choices) {
  CDB_CHECK(num_choices >= 2);
  // Work in log space for numeric stability on many answers.
  std::vector<double> log_p(num_choices, 0.0);
  for (const auto& [quality, choice] : quality_and_choice) {
    double q = std::clamp(quality, 1e-3, 1.0 - 1e-3);
    double wrong = (1.0 - q) / static_cast<double>(num_choices - 1);
    for (int i = 0; i < num_choices; ++i) {
      log_p[i] += std::log(i == choice ? q : wrong);
    }
  }
  double max_log = *std::max_element(log_p.begin(), log_p.end());
  double norm = 0.0;
  std::vector<double> p(num_choices);
  for (int i = 0; i < num_choices; ++i) {
    p[i] = std::exp(log_p[i] - max_log);
    norm += p[i];
  }
  for (double& v : p) v /= norm;
  return p;
}

namespace {

// The observations with a valid choice, mapped onto dense task / worker
// indexes in ascending id order (so results come back id-sorted).
struct IndexedLog {
  std::vector<TaskId> task_ids;
  std::vector<int> worker_ids;
  std::vector<IndexedObservation> obs;
};

IndexedLog IndexLog(const std::vector<ChoiceObservation>& obs,
                    int num_choices) {
  IndexedLog log;
  for (const ChoiceObservation& o : obs) {
    if (o.choice < 0 || o.choice >= num_choices) continue;
    log.task_ids.push_back(o.task);
    log.worker_ids.push_back(o.worker);
  }
  std::sort(log.task_ids.begin(), log.task_ids.end());
  log.task_ids.erase(std::unique(log.task_ids.begin(), log.task_ids.end()),
                     log.task_ids.end());
  std::sort(log.worker_ids.begin(), log.worker_ids.end());
  log.worker_ids.erase(
      std::unique(log.worker_ids.begin(), log.worker_ids.end()),
      log.worker_ids.end());
  log.obs.reserve(obs.size());
  for (const ChoiceObservation& o : obs) {
    if (o.choice < 0 || o.choice >= num_choices) continue;
    auto t = std::lower_bound(log.task_ids.begin(), log.task_ids.end(), o.task);
    auto w = std::lower_bound(log.worker_ids.begin(), log.worker_ids.end(),
                              o.worker);
    log.obs.push_back(IndexedObservation{
        static_cast<int32_t>(t - log.task_ids.begin()),
        static_cast<int32_t>(w - log.worker_ids.begin()), o.choice});
  }
  return log;
}

// One CSR row entry: the other side's index and the answered choice.
struct RowEntry {
  int32_t index;
  int32_t choice;
};

// Groups `obs` into CSR rows keyed by `key` (task or worker), each row in log
// order (a stable counting sort); `other` names the entry's partner index.
template <typename KeyFn, typename OtherFn>
void BuildRows(const std::vector<IndexedObservation>& obs, size_t num_rows,
               KeyFn key, OtherFn other, std::vector<int32_t>* begin,
               std::vector<RowEntry>* entries) {
  begin->assign(num_rows + 1, 0);
  for (const IndexedObservation& o : obs) {
    ++(*begin)[static_cast<size_t>(key(o)) + 1];
  }
  for (size_t r = 0; r < num_rows; ++r) (*begin)[r + 1] += (*begin)[r];
  std::vector<int32_t> cursor(begin->begin(), begin->end() - 1);
  entries->resize(obs.size());
  for (const IndexedObservation& o : obs) {
    (*entries)[static_cast<size_t>(cursor[static_cast<size_t>(key(o))]++)] =
        RowEntry{other(o), o.choice};
  }
}

}  // namespace

void SolveEm(const std::vector<IndexedObservation>& obs, int num_tasks,
             const std::vector<double>& prior, const EmOptions& options,
             EmSolution* solution) {
  const int num_choices = options.num_choices;
  CDB_CHECK(num_choices >= 2);
  const size_t choices = static_cast<size_t>(num_choices);
  const size_t tasks = static_cast<size_t>(num_tasks);
  const size_t workers = prior.size();
  std::vector<int32_t> task_begin;
  std::vector<RowEntry> task_rows;  // (worker, choice) per task.
  BuildRows(obs, tasks, [](const IndexedObservation& o) { return o.task; },
            [](const IndexedObservation& o) { return o.worker; }, &task_begin,
            &task_rows);
  std::vector<int32_t> worker_begin;
  std::vector<RowEntry> worker_rows;  // (task, choice) per worker.
  BuildRows(obs, workers, [](const IndexedObservation& o) { return o.worker; },
            [](const IndexedObservation& o) { return o.task; }, &worker_begin,
            &worker_rows);

  std::vector<double>& quality = solution->quality;
  quality.assign(prior.begin(), prior.end());
  std::vector<double>& posteriors = solution->posteriors;
  posteriors.assign(options.max_iterations > 0 ? tasks * choices : 0, 0.0);
  std::vector<double> updated_quality(workers);
  std::vector<double> log_right(workers);
  std::vector<double> log_wrong(workers);
  int iterations_run = 0;
  double last_max_delta = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Eq. 2's per-answer factors, once per worker (BayesianVote's clamp and
    // wrong-choice split, so the logs are the same doubles).
    for (size_t w = 0; w < workers; ++w) {
      double q = std::clamp(quality[w], 1e-3, 1.0 - 1e-3);
      double wrong = (1.0 - q) / static_cast<double>(num_choices - 1);
      log_right[w] = std::log(q);
      log_wrong[w] = std::log(wrong);
    }
    // E-step: task posteriors from current qualities (Eq. 2). Tasks are
    // independent given the qualities, so they fan out across the pool; each
    // task's log sums accumulate in its posterior slot, in log order.
    ParallelFor(
        0, static_cast<int64_t>(tasks), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (size_t t = static_cast<size_t>(begin);
               t < static_cast<size_t>(end); ++t) {
            double* p = posteriors.data() + t * choices;
            std::fill(p, p + choices, 0.0);
            for (int32_t k = task_begin[t]; k < task_begin[t + 1]; ++k) {
              const RowEntry& entry = task_rows[static_cast<size_t>(k)];
              const size_t w = static_cast<size_t>(entry.index);
              for (size_t i = 0; i < choices; ++i) {
                p[i] += static_cast<int32_t>(i) == entry.choice ? log_right[w]
                                                                : log_wrong[w];
              }
            }
            double max_log = *std::max_element(p, p + choices);
            double norm = 0.0;
            for (size_t i = 0; i < choices; ++i) {
              p[i] = std::exp(p[i] - max_log);
              norm += p[i];
            }
            for (size_t i = 0; i < choices; ++i) p[i] /= norm;
          }
        },
        options.num_threads);
    // M-step: worker quality = expected fraction of correct answers. The
    // per-worker sums run in parallel (each walks only its own answers, in
    // log order); the max_delta reduction stays serial so the convergence
    // test is exactly the single-thread one.
    ParallelFor(
        0, static_cast<int64_t>(workers), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (size_t w = static_cast<size_t>(begin);
               w < static_cast<size_t>(end); ++w) {
            double expected_correct = 0.0;
            for (int32_t k = worker_begin[w]; k < worker_begin[w + 1]; ++k) {
              const RowEntry& entry = worker_rows[static_cast<size_t>(k)];
              expected_correct +=
                  posteriors[static_cast<size_t>(entry.index) * choices +
                             static_cast<size_t>(entry.choice)];
            }
            const int32_t answered = worker_begin[w + 1] - worker_begin[w];
            // MAP estimate with a Beta pseudo-count prior centered on the
            // worker's incoming quality.
            double updated =
                (options.prior_strength * prior[w] + expected_correct) /
                (options.prior_strength + static_cast<double>(answered));
            // Keep qualities interior so Eq. 2 stays well defined.
            updated_quality[w] = std::clamp(updated, 0.05, 0.99);
          }
        },
        options.num_threads);
    double max_delta = 0.0;
    for (size_t w = 0; w < workers; ++w) {
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
}

void MajorityPosterior(const int32_t* votes, int num_choices,
                       double* posterior) {
  double total = 0.0;
  for (int i = 0; i < num_choices; ++i) {
    posterior[i] = static_cast<double>(votes[i]);
    total += posterior[i];
  }
  if (total > 0) {
    for (int i = 0; i < num_choices; ++i) posterior[i] /= total;
  }
}

InferenceResult InferSingleChoiceEm(const std::vector<ChoiceObservation>& obs,
                                    const EmOptions& options) {
  InferenceResult result;
  IndexedLog log = IndexLog(obs, options.num_choices);
  if (log.obs.empty()) return result;
  std::vector<double> prior(log.worker_ids.size());
  for (size_t w = 0; w < prior.size(); ++w) {
    auto it = options.quality_priors.find(log.worker_ids[w]);
    prior[w] = it != options.quality_priors.end() ? it->second
                                                  : options.initial_quality;
  }
  EmSolution solution;
  SolveEm(log.obs, static_cast<int>(log.task_ids.size()), prior, options,
          &solution);
  const size_t choices = static_cast<size_t>(options.num_choices);
  for (size_t t = 0; t < log.task_ids.size(); ++t) {
    std::vector<double> posterior;
    if (!solution.posteriors.empty()) {
      auto first =
          solution.posteriors.begin() + static_cast<int64_t>(t * choices);
      posterior.assign(first, first + static_cast<int64_t>(choices));
    }
    result.posteriors.emplace_hint(result.posteriors.end(), log.task_ids[t],
                                   std::move(posterior));
  }
  for (size_t w = 0; w < log.worker_ids.size(); ++w) {
    result.worker_quality.emplace_hint(result.worker_quality.end(),
                                       log.worker_ids[w], solution.quality[w]);
  }
  return result;
}

InferenceResult InferSingleChoiceMajority(
    const std::vector<ChoiceObservation>& obs, int num_choices) {
  InferenceResult result;
  IndexedLog log = IndexLog(obs, num_choices);
  const size_t choices = static_cast<size_t>(num_choices);
  std::vector<int32_t> votes(log.task_ids.size() * choices, 0);
  for (const IndexedObservation& o : log.obs) {
    ++votes[static_cast<size_t>(o.task) * choices +
            static_cast<size_t>(o.choice)];
  }
  for (size_t t = 0; t < log.task_ids.size(); ++t) {
    std::vector<double> posterior(choices);
    MajorityPosterior(votes.data() + t * choices, num_choices,
                      posterior.data());
    result.posteriors.emplace_hint(result.posteriors.end(), log.task_ids[t],
                                   std::move(posterior));
  }
  for (int worker : log.worker_ids) {
    // Not modeled by majority voting.
    result.worker_quality.emplace_hint(result.worker_quality.end(), worker,
                                       0.5);
  }
  return result;
}

WorkerQualities::WorkerQualities(const std::map<int, double>& qualities)
    : entries_(qualities.begin(), qualities.end()) {}

const double* WorkerQualities::Find(int worker) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), worker,
      [](const std::pair<int, double>& e, int id) { return e.first < id; });
  return it != entries_.end() && it->first == worker ? &it->second : nullptr;
}

void WorkerQualities::Set(int worker, double quality) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), worker,
      [](const std::pair<int, double>& e, int id) { return e.first < id; });
  if (it != entries_.end() && it->first == worker) {
    it->second = quality;
  } else {
    entries_.insert(it, {worker, quality});
  }
}

std::map<int, double> WorkerQualities::ToMap() const {
  return std::map<int, double>(entries_.begin(), entries_.end());
}

std::vector<int> InferMultiChoice(const std::vector<Answer>& answers,
                                  int num_choices,
                                  const std::map<int, double>& worker_quality,
                                  double default_quality) {
  // Decompose: choice i is its own yes/no question; worker w voted "yes" iff
  // i is in w's choice set.
  std::vector<int> truth_set;
  for (int i = 0; i < num_choices; ++i) {
    std::vector<std::pair<double, int>> qc;
    for (const Answer& a : answers) {
      auto it = worker_quality.find(a.worker);
      double q = it != worker_quality.end() ? it->second : default_quality;
      bool yes = std::find(a.choice_set.begin(), a.choice_set.end(), i) !=
                 a.choice_set.end();
      qc.emplace_back(q, yes ? 0 : 1);
    }
    std::vector<double> p = BayesianVote(qc, 2);
    if (p[0] > p[1]) truth_set.push_back(i);
  }
  return truth_set;
}

std::map<int, double> QualityFromGoldenTasks(
    const std::vector<ChoiceObservation>& golden_answers,
    const std::map<TaskId, int>& golden_truths, double default_quality,
    double prior_strength) {
  std::map<int, std::pair<double, double>> correct_and_total;
  for (const ChoiceObservation& obs : golden_answers) {
    auto it = golden_truths.find(obs.task);
    if (it == golden_truths.end()) continue;
    auto& [correct, total] = correct_and_total[obs.worker];
    total += 1.0;
    if (obs.choice == it->second) correct += 1.0;
  }
  std::map<int, double> quality;
  for (const auto& [worker, counts] : correct_and_total) {
    double q = (prior_strength * default_quality + counts.first) /
               (prior_strength + counts.second);
    quality[worker] = std::clamp(q, 0.05, 0.99);
  }
  return quality;
}

std::string InferFillInBlank(const std::vector<Answer>& answers,
                             SimilarityFunction sim_fn) {
  if (answers.empty()) return "";
  double best_score = -1.0;
  const std::string* best = nullptr;
  for (const Answer& a : answers) {
    double score = 0.0;
    for (const Answer& b : answers) {
      if (&a == &b) continue;
      score += ComputeSimilarity(sim_fn, a.text, b.text);
    }
    if (score > best_score) {
      best_score = score;
      best = &a.text;
    }
  }
  return *best;
}

}  // namespace cdb
