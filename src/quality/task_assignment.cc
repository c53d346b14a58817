#include "quality/task_assignment.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cdb {

double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

std::vector<double> PosteriorAfterAnswer(const std::vector<double>& prior,
                                         double worker_quality, int answer) {
  const int num_choices = static_cast<int>(prior.size());
  CDB_CHECK(num_choices >= 2);
  CDB_CHECK(answer >= 0 && answer < num_choices);
  double q = std::clamp(worker_quality, 1e-3, 1.0 - 1e-3);
  double wrong = (1.0 - q) / static_cast<double>(num_choices - 1);
  std::vector<double> post(prior.size());
  double norm = 0.0;
  for (int i = 0; i < num_choices; ++i) {
    post[i] = prior[i] * (i == answer ? q : wrong);
    norm += post[i];
  }
  if (norm <= 0.0) return prior;
  for (double& v : post) v /= norm;
  return post;
}

double ExpectedQualityImprovement(const std::vector<double>& prior,
                                  double worker_quality) {
  const int num_choices = static_cast<int>(prior.size());
  double q = std::clamp(worker_quality, 1e-3, 1.0 - 1e-3);
  double wrong = (1.0 - q) / static_cast<double>(num_choices - 1);
  double expected_entropy = 0.0;
  for (int i = 0; i < num_choices; ++i) {
    // Probability the worker answers choice i (Eq. 3's mixture term).
    double p_answer = prior[i] * q + (1.0 - prior[i]) * wrong;
    if (p_answer <= 0.0) continue;
    expected_entropy +=
        p_answer * Entropy(PosteriorAfterAnswer(prior, q, i));
  }
  return Entropy(prior) - expected_entropy;
}

double FillConsistency(const std::vector<Answer>& answers,
                       SimilarityFunction sim_fn) {
  if (answers.size() < 2) return 1.0;
  double total = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    for (size_t j = i + 1; j < answers.size(); ++j) {
      total += ComputeSimilarity(sim_fn, answers[i].text, answers[j].text);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

double CompletenessScore(int64_t distinct_collected, int64_t estimated_total) {
  if (estimated_total <= 0) return 0.0;
  double score = static_cast<double>(estimated_total - distinct_collected) /
                 static_cast<double>(estimated_total);
  return std::clamp(score, 0.0, 1.0);
}

double BinaryEntropy(double p_yes, double p_no) {
  double h = 0.0;
  if (p_yes > 0.0) h -= p_yes * std::log(p_yes);
  if (p_no > 0.0) h -= p_no * std::log(p_no);
  return h;
}

namespace {

// PosteriorAfterAnswer({p_yes, p_no}, q, answer) for an already-clamped q;
// `wrong` is the two-choice wrong-answer likelihood 1 - q.
inline void BinaryBayesUpdate(double p_yes, double p_no, double q, double wrong,
                              int answer, double* post_yes, double* post_no) {
  double yes = p_yes * (answer == 0 ? q : wrong);
  double no = p_no * (answer == 1 ? q : wrong);
  double norm = 0.0;
  norm += yes;
  norm += no;
  if (norm <= 0.0) {
    *post_yes = p_yes;
    *post_no = p_no;
    return;
  }
  *post_yes = yes / norm;
  *post_no = no / norm;
}

}  // namespace

double BinaryExpectedQualityImprovement(double p_yes, double p_no,
                                        double prior_entropy,
                                        double worker_quality) {
  const double q = std::clamp(worker_quality, 1e-3, 1.0 - 1e-3);
  // (1 - q) / (num_choices - 1); the division by 1 is exact.
  const double wrong = 1.0 - q;
  const double prior[2] = {p_yes, p_no};
  double expected_entropy = 0.0;
  for (int i = 0; i < 2; ++i) {
    double p_answer = prior[i] * q + (1.0 - prior[i]) * wrong;
    if (p_answer <= 0.0) continue;
    double post_yes = 0.0;
    double post_no = 0.0;
    BinaryBayesUpdate(p_yes, p_no, q, wrong, i, &post_yes, &post_no);
    expected_entropy += p_answer * BinaryEntropy(post_yes, post_no);
  }
  return prior_entropy - expected_entropy;
}

void BinaryPosteriors::Reset(size_t num_tasks) {
  entries_.assign(num_tasks, Entry{});
}

void BinaryPosteriors::Set(TaskId task, double p_yes, double p_no) {
  CDB_CHECK(task >= 0 && static_cast<size_t>(task) < entries_.size());
  Entry& entry = entries_[static_cast<size_t>(task)];
  entry.p_yes = p_yes;
  entry.p_no = p_no;
  entry.entropy = BinaryEntropy(p_yes, p_no);
  entry.known = true;
}

void BinaryPosteriors::Observe(TaskId task, double worker_quality, int answer) {
  if (answer < 0 || answer > 1 || Find(task) == nullptr) return;
  Entry& entry = entries_[static_cast<size_t>(task)];
  const double q = std::clamp(worker_quality, 1e-3, 1.0 - 1e-3);
  BinaryBayesUpdate(entry.p_yes, entry.p_no, q, 1.0 - q, answer, &entry.p_yes,
                    &entry.p_no);
  entry.entropy = BinaryEntropy(entry.p_yes, entry.p_no);
}

std::vector<size_t> EntropyAssigner::operator()(
    const SimulatedWorker& worker, const std::vector<TaskId>& available,
    int count) const {
  const double q = worker_quality_->QualityOr(worker.id(), default_quality_);
  const double uniform_score =
      BinaryExpectedQualityImprovement(0.5, 0.5, BinaryEntropy(0.5, 0.5), q);
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(available.size());
  for (size_t i = 0; i < available.size(); ++i) {
    const BinaryPosteriors::Entry* prior = posteriors_->Find(available[i]);
    scored.emplace_back(
        prior != nullptr ? BinaryExpectedQualityImprovement(
                               prior->p_yes, prior->p_no, prior->entropy, q)
                         : uniform_score,
        i);
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

AssignmentPolicy EntropyAssigner::AsPolicy() const {
  EntropyAssigner copy = *this;
  return [copy](const SimulatedWorker& worker,
                const std::vector<TaskId>& available,
                int count) { return copy(worker, available, count); };
}

}  // namespace cdb
