// Truth inference (Section 5.3.1).
//
// Single-choice tasks: worker qualities q_w are estimated with EM, and the
// per-task truth distribution follows Bayesian voting (Equation 2).
// Multi-choice tasks decompose into per-choice yes/no tasks. Fill-in-blank
// tasks take the "pivot" answer — the one with the highest aggregated string
// similarity to the others. Majority voting is provided as the baseline the
// existing systems (CrowdDB / Qurk / Deco / CrowdOP) use.
#ifndef CDB_QUALITY_TRUTH_INFERENCE_H_
#define CDB_QUALITY_TRUTH_INFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crowd/task.h"
#include "similarity/similarity.h"

namespace cdb {

class MetricsRegistry;

// One single-choice observation.
struct ChoiceObservation {
  TaskId task = -1;
  int worker = -1;
  int choice = -1;
};

struct InferenceResult {
  // Posterior distribution over choices per task (Eq. 2).
  std::map<TaskId, std::vector<double>> posteriors;
  // Estimated quality per worker id.
  std::map<int, double> worker_quality;

  // argmax choice for a task (ties to the lowest index); -1 if unknown task.
  int Truth(TaskId task) const;
  // max posterior probability for a task; 0 if unknown.
  double Confidence(TaskId task) const;
};

struct EmOptions {
  int num_choices = 2;
  double initial_quality = 0.7;  // The paper's default prior for new workers.
  int max_iterations = 50;
  double tolerance = 1e-6;
  // Beta-prior pseudo-count regularizing the M-step: a worker's quality is
  // (prior_strength * prior + expected_correct) / (prior_strength + n).
  // Keeps early rounds (few answers per worker) from over-fitting, where
  // unregularized EM can fall below majority voting.
  double prior_strength = 8.0;
  // Optional fixed priors per worker (e.g. qualities carried over from
  // earlier rounds); missing workers start at initial_quality.
  std::map<int, double> quality_priors;
  // Threads for the E-step (per-task posteriors are independent) and the
  // M-step per-worker sums: <= 0 uses all hardware threads, 1 runs serially.
  // Posteriors and qualities are bit-identical at every thread count — each
  // task/worker is a unit of work whose floating-point accumulation order
  // never changes, and cross-unit reductions happen serially.
  int num_threads = 0;
  // Observability sink (borrowed, may be null = disabled): EM mirrors runs,
  // iterations, and the final convergence delta (in micro-units, since the
  // registry is integer-only) under `quality.em.*`.
  MetricsRegistry* metrics = nullptr;
};

// Expectation-Maximization over worker qualities + Bayesian voting truths.
// Observations whose choice lies outside [0, num_choices) carry no vote and
// are ignored.
InferenceResult InferSingleChoiceEm(const std::vector<ChoiceObservation>& obs,
                                    const EmOptions& options);

// Majority voting (the baseline): posterior mass split by vote counts,
// worker quality not modeled. Out-of-range choices are ignored, so a task
// appears only once it has at least one counted vote.
InferenceResult InferSingleChoiceMajority(
    const std::vector<ChoiceObservation>& obs, int num_choices);

// --- The flat kernels behind both entry points ---------------------------
//
// One observation with its task and worker already mapped onto dense
// indexes [0, num_tasks) and [0, num_workers); `choice` lies in
// [0, num_choices).
struct IndexedObservation {
  int32_t task = -1;
  int32_t worker = -1;
  int32_t choice = -1;
};

// SolveEm's output, indexed like its input.
struct EmSolution {
  // Task t's posterior over choices at [t * num_choices, (t+1) * num_choices);
  // empty when no E-step ran (max_iterations <= 0).
  std::vector<double> posteriors;
  std::vector<double> quality;  // Per worker.
};

// EM over a flat observation log. `prior[w]` is worker w's incoming quality
// and the center of its Beta prior (options.quality_priors and
// options.initial_quality are not read; the caller resolved them into
// `prior`); every worker must have at least one observation. The kernel
// regroups the log into CSR rows by task and by worker, each row in log
// order, so Eq. 2's log sums and the M-step's expected-correct sums fold in
// exactly the order of the original per-task / per-worker lists; a worker's
// log(q) and log(wrong) are computed once per iteration. The E- and M-steps
// allocate nothing.
void SolveEm(const std::vector<IndexedObservation>& obs, int num_tasks,
             const std::vector<double>& prior, const EmOptions& options,
             EmSolution* solution);

// Majority posterior of one task from its vote counts: the mass split by
// count (all zero when nothing was counted).
void MajorityPosterior(const int32_t* votes, int num_choices,
                       double* posterior);

// Worker id -> quality, kept as a vector sorted by worker id: a lookup is a
// binary search that allocates nothing, and iteration runs in ascending id
// order (the order snapshots and InferenceResult list workers in).
class WorkerQualities {
 public:
  WorkerQualities() = default;
  explicit WorkerQualities(const std::map<int, double>& qualities);

  // The worker's quality, or null when it has none.
  const double* Find(int worker) const;
  double QualityOr(int worker, double fallback) const {
    const double* q = Find(worker);
    return q != nullptr ? *q : fallback;
  }
  // Inserts or overwrites.
  void Set(int worker, double quality);
  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  // (worker id, quality) in ascending id order.
  const std::vector<std::pair<int, double>>& entries() const {
    return entries_;
  }
  std::map<int, double> ToMap() const;

 private:
  std::vector<std::pair<int, double>> entries_;
};

// Eq. 2 applied directly with known worker qualities; used by
// InferMultiChoice. SolveEm's E-step performs the same operations per task.
std::vector<double> BayesianVote(const std::vector<std::pair<double, int>>&
                                     quality_and_choice,
                                 int num_choices);

// Multi-choice truth: decompose into per-choice yes/no and return the set of
// choices inferred true. `obs` holds the full choice sets.
std::vector<int> InferMultiChoice(const std::vector<Answer>& answers,
                                  int num_choices,
                                  const std::map<int, double>& worker_quality,
                                  double default_quality = 0.7);

// Fill-in-blank pivot: the answer maximizing aggregated similarity to the
// other answers.
std::string InferFillInBlank(const std::vector<Answer>& answers,
                             SimilarityFunction sim_fn);

// Golden-task initialization (Appendix E): workers answer tasks with known
// truth on first contact, and their initial quality is their smoothed
// accuracy on them — (prior_strength * default + correct) /
// (prior_strength + answered). Feed the result into EmOptions::quality_priors.
std::map<int, double> QualityFromGoldenTasks(
    const std::vector<ChoiceObservation>& golden_answers,
    const std::map<TaskId, int>& golden_truths, double default_quality = 0.7,
    double prior_strength = 2.0);

}  // namespace cdb

#endif  // CDB_QUALITY_TRUTH_INFERENCE_H_
