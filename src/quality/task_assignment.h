// Online task assignment (Section 5.3.2).
//
// When a worker requests tasks, CDB+ assigns the k tasks whose answers are
// expected to improve quality the most: for single-choice tasks the expected
// entropy decrease of the task's truth distribution (Equation 3); for
// fill-in-blank tasks the least-consistent tasks (Equation 4); for collection
// tasks the lowest completeness score.
#ifndef CDB_QUALITY_TASK_ASSIGNMENT_H_
#define CDB_QUALITY_TASK_ASSIGNMENT_H_

#include <vector>

#include "crowd/platform.h"
#include "crowd/task.h"
#include "quality/truth_inference.h"
#include "similarity/similarity.h"

namespace cdb {

// Shannon entropy of a distribution (natural log); 0 for degenerate input.
double Entropy(const std::vector<double>& p);

// The posterior after worker (quality q) answers choice i (Bayes update used
// inside Eq. 3). Exposed for tests.
std::vector<double> PosteriorAfterAnswer(const std::vector<double>& prior,
                                         double worker_quality, int answer);

// Eq. 3: expected decrease in entropy if a worker of quality q answers a
// task whose current truth distribution is `prior`.
double ExpectedQualityImprovement(const std::vector<double>& prior,
                                  double worker_quality);

// Eq. 4: consistency of a fill-in-blank task's answers — mean pairwise
// similarity (1.0 when fewer than two answers).
double FillConsistency(const std::vector<Answer>& answers,
                       SimilarityFunction sim_fn);

// Completeness score (N - M) / N for a collection task with M distinct
// collected tuples out of an estimated cardinality N.
double CompletenessScore(int64_t distinct_collected, int64_t estimated_total);

// --- Two-choice (yes/no) specializations on flat state ------------------
//
// The same floating-point operations, in the same order, as the general
// functions above applied to a two-element distribution, so results are
// equal doubles; they take and return plain doubles and allocate nothing.

// Entropy({p_yes, p_no}).
double BinaryEntropy(double p_yes, double p_no);

// ExpectedQualityImprovement({p_yes, p_no}, worker_quality), given the
// prior's entropy (BinaryEntropy(p_yes, p_no)).
double BinaryExpectedQualityImprovement(double p_yes, double p_no,
                                        double prior_entropy,
                                        double worker_quality);

// Live yes/no truth distributions for Eq. 3, dense by task id in
// [0, size()): Set() stores a distribution, Observe() folds one answer in
// place (PosteriorAfterAnswer's Bayes update), and each entry caches its
// entropy. Ids outside [0, size()) are never known.
class BinaryPosteriors {
 public:
  struct Entry {
    double p_yes = 0.0;
    double p_no = 0.0;
    double entropy = 0.0;  // BinaryEntropy(p_yes, p_no).
    bool known = false;
  };

  // Forgets every distribution and sizes the table for ids [0, num_tasks).
  void Reset(size_t num_tasks);
  // Requires 0 <= task < size().
  void Set(TaskId task, double p_yes, double p_no);
  // PosteriorAfterAnswer(p, worker_quality, answer) in place; a no-op for an
  // unknown task or an answer outside {0, 1}.
  void Observe(TaskId task, double worker_quality, int answer);
  // The task's entry, or null when it has none.
  const Entry* Find(TaskId task) const {
    if (task < 0 || static_cast<size_t>(task) >= entries_.size()) {
      return nullptr;
    }
    const Entry& entry = entries_[static_cast<size_t>(task)];
    return entry.known ? &entry : nullptr;
  }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

// An AssignmentPolicy implementation for yes/no tasks: assigns the top-k
// available tasks by Eq. 3 using the current posteriors (a task without one
// scores as the uniform prior) and the worker's estimated quality. Both
// tables are borrowed and read at call time, so the executor can update them
// between arrivals.
class EntropyAssigner {
 public:
  EntropyAssigner(const BinaryPosteriors* posteriors,
                  const WorkerQualities* worker_quality,
                  double default_quality = 0.7)
      : posteriors_(posteriors),
        worker_quality_(worker_quality),
        default_quality_(default_quality) {}

  std::vector<size_t> operator()(const SimulatedWorker& worker,
                                 const std::vector<TaskId>& available,
                                 int count) const;

  // Adapts to the crowd-platform callback type.
  AssignmentPolicy AsPolicy() const;

 private:
  const BinaryPosteriors* posteriors_;
  const WorkerQualities* worker_quality_;
  double default_quality_;
};

}  // namespace cdb

#endif  // CDB_QUALITY_TASK_ASSIGNMENT_H_
