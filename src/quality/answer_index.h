// The flat per-task answer index behind a query session's answer path
// (Section 5.3's quality control, kept in arrays instead of ordered maps).
//
// Task ids are dense: a session's query tasks are its graph edges
// (TaskId == EdgeId, ids [0, num_edge_tasks)) and its golden warm-up tasks
// take ids -1 .. -num_golden_tasks. Each observed task and each observed
// worker gets a slot in first-answer order; per task slot the index keeps the
// yes/no vote tally and a chain through its observations for (task, worker)
// dedup, and it mirrors the observation log onto slots so EM (SolveEm) can
// run over it without any lookup. Adding an observation allocates only when
// a vector grows.
#ifndef CDB_QUALITY_ANSWER_INDEX_H_
#define CDB_QUALITY_ANSWER_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "quality/truth_inference.h"

namespace cdb {

class AnswerIndex {
 public:
  // Yes/no tasks: choice 0 ("yes") or 1 ("no").
  static constexpr int kChoices = 2;

  // Empties the index and sizes it for task ids [0, num_edge_tasks) and
  // -1 .. -num_golden_tasks.
  void Reset(int64_t num_edge_tasks, int64_t num_golden_tasks);

  // Adds `o` unless its task id is outside the index, its choice is outside
  // {0, 1}, or the index already holds an observation of the same task by
  // the same worker. Returns true when added.
  bool Add(const ChoiceObservation& o);

  // The task's slot, or -1 when it has no observation (or is outside the
  // index).
  int32_t TaskSlot(TaskId task) const {
    int64_t row = Row(task);
    return row < 0 ? -1 : slot_of_row_[static_cast<size_t>(row)];
  }
  int32_t num_tasks() const { return static_cast<int32_t>(task_ids_.size()); }
  // The slot's kChoices vote counts.
  const int32_t* votes(int32_t slot) const {
    return votes_.data() + static_cast<size_t>(slot) * kChoices;
  }
  // Unique observations of `task` (0 for a task without any).
  int64_t AnswerCount(TaskId task) const {
    int32_t slot = TaskSlot(task);
    return slot < 0 ? 0 : int64_t{votes(slot)[0]} + votes(slot)[1];
  }

  int32_t num_workers() const {
    return static_cast<int32_t>(worker_ids_.size());
  }
  int worker_id(int32_t slot) const {
    return worker_ids_[static_cast<size_t>(slot)];
  }

  // The observations on task and worker slots, in Add() order.
  const std::vector<IndexedObservation>& log() const { return log_; }

  // fn(task id, slot) for every observed task, in ascending task id order.
  template <typename Fn>
  void ForEachTaskById(Fn fn) const {
    for (int64_t g = num_golden_tasks_; g >= 1; --g) {
      int32_t slot = slot_of_row_[static_cast<size_t>(num_edge_tasks_ + g - 1)];
      if (slot >= 0) fn(task_ids_[static_cast<size_t>(slot)], slot);
    }
    for (int64_t row = 0; row < num_edge_tasks_; ++row) {
      int32_t slot = slot_of_row_[static_cast<size_t>(row)];
      if (slot >= 0) fn(task_ids_[static_cast<size_t>(slot)], slot);
    }
  }

  // fn(worker id, slot) for every observed worker, in ascending id order.
  template <typename Fn>
  void ForEachWorkerById(Fn fn) const {
    for (const auto& [worker, slot] : worker_lookup_) fn(worker, slot);
  }

 private:
  // Edge ids map to rows [0, num_edge_tasks), golden id -g to row
  // num_edge_tasks + g - 1; -1 for anything else.
  int64_t Row(TaskId task) const {
    if (task >= 0) return task < num_edge_tasks_ ? task : -1;
    return task >= -num_golden_tasks_ ? num_edge_tasks_ - task - 1 : -1;
  }

  int64_t num_edge_tasks_ = 0;
  int64_t num_golden_tasks_ = 0;
  std::vector<int32_t> slot_of_row_;  // Per row: task slot, or -1.
  std::vector<TaskId> task_ids_;      // Per task slot.
  std::vector<int32_t> votes_;        // kChoices per task slot.
  // Dedup chains: per task slot its newest observation, per observation the
  // previous one of the same task (-1 ends the chain).
  std::vector<int32_t> newest_;
  std::vector<int32_t> older_;
  std::vector<IndexedObservation> log_;
  std::vector<int> worker_ids_;  // Per worker slot.
  // (worker id, slot), sorted by id: a binary-searched lookup.
  std::vector<std::pair<int, int32_t>> worker_lookup_;
};

}  // namespace cdb

#endif  // CDB_QUALITY_ANSWER_INDEX_H_
