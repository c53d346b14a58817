#include "quality/answer_index.h"

#include <algorithm>

namespace cdb {

void AnswerIndex::Reset(int64_t num_edge_tasks, int64_t num_golden_tasks) {
  num_edge_tasks_ = std::max<int64_t>(num_edge_tasks, 0);
  num_golden_tasks_ = std::max<int64_t>(num_golden_tasks, 0);
  slot_of_row_.assign(
      static_cast<size_t>(num_edge_tasks_ + num_golden_tasks_), -1);
  task_ids_.clear();
  votes_.clear();
  newest_.clear();
  older_.clear();
  log_.clear();
  worker_ids_.clear();
  worker_lookup_.clear();
}

bool AnswerIndex::Add(const ChoiceObservation& o) {
  if (o.choice < 0 || o.choice >= kChoices) return false;
  const int64_t row = Row(o.task);
  if (row < 0) return false;
  auto worker_it = std::lower_bound(
      worker_lookup_.begin(), worker_lookup_.end(), o.worker,
      [](const std::pair<int, int32_t>& e, int id) { return e.first < id; });
  const bool known_worker =
      worker_it != worker_lookup_.end() && worker_it->first == o.worker;
  int32_t& task_slot = slot_of_row_[static_cast<size_t>(row)];
  if (task_slot >= 0 && known_worker) {
    for (int32_t k = newest_[static_cast<size_t>(task_slot)]; k >= 0;
         k = older_[static_cast<size_t>(k)]) {
      if (log_[static_cast<size_t>(k)].worker == worker_it->second) {
        return false;
      }
    }
  }
  if (task_slot < 0) {
    task_slot = num_tasks();
    task_ids_.push_back(o.task);
    votes_.insert(votes_.end(), kChoices, 0);
    newest_.push_back(-1);
  }
  int32_t worker_slot;
  if (known_worker) {
    worker_slot = worker_it->second;
  } else {
    worker_slot = num_workers();
    worker_ids_.push_back(o.worker);
    worker_lookup_.insert(worker_it, {o.worker, worker_slot});
  }
  const int32_t k = static_cast<int32_t>(log_.size());
  log_.push_back(IndexedObservation{task_slot, worker_slot, o.choice});
  older_.push_back(newest_[static_cast<size_t>(task_slot)]);
  newest_[static_cast<size_t>(task_slot)] = k;
  ++votes_[static_cast<size_t>(task_slot) * kChoices +
           static_cast<size_t>(o.choice)];
  return true;
}

}  // namespace cdb
