#include "oracle.h"

#include <memory>
#include <vector>

namespace perfbench {

cdb::ExecutorOptions SessionOptions(bool cdb_plus, uint64_t crowd_seed) {
  cdb::ExecutorOptions options;
  options.quality_control = cdb_plus;
  options.platform.num_workers = 50;
  options.platform.worker_quality_mean = 0.8;
  options.platform.worker_quality_stddev = 0.1;
  options.platform.redundancy = 5;
  options.platform.seed = crowd_seed;
  options.num_threads = 1;
  options.graph.num_threads = 1;
  return options;
}

cdb::EdgeTruthFn MakeResolvedEdgeTruth(const cdb::GeneratedDataset& dataset,
                                       const cdb::ResolvedQuery& query) {
  // Per predicate: the entity vector of each side; a selection compares its
  // left side against a constant entity instead of a right vector.
  struct Side {
    const std::vector<int64_t>* left = nullptr;
    const std::vector<int64_t>* right = nullptr;
    int64_t constant = cdb::kNoEntity;
  };
  auto entities = [&](int rel, size_t col) {
    const cdb::Table* table = query.tables[static_cast<size_t>(rel)];
    return &dataset.Entities(table->name(), table->schema().column(col).name);
  };
  auto preds = std::make_shared<std::vector<Side>>();
  for (const cdb::ResolvedJoin& join : query.joins) {
    preds->push_back(Side{entities(join.left_rel, join.left_col),
                          entities(join.right_rel, join.right_col),
                          cdb::kNoEntity});
  }
  for (const cdb::ResolvedSelection& sel : query.selections) {
    const cdb::Table* table = query.tables[static_cast<size_t>(sel.rel)];
    preds->push_back(Side{
        entities(sel.rel, sel.col), nullptr,
        dataset.ConstantEntity(table->name(),
                               table->schema().column(sel.col).name,
                               sel.value)});
  }
  return [preds](const cdb::QueryGraph& graph, cdb::EdgeId e) -> bool {
    const Side& side = (*preds)[static_cast<size_t>(graph.edge_pred(e))];
    const int64_t a =
        (*side.left)[static_cast<size_t>(graph.vertex(graph.edge_u(e)).row)];
    if (side.right == nullptr) {
      return side.constant != cdb::kNoEntity && a == side.constant;
    }
    const int64_t b =
        (*side.right)[static_cast<size_t>(graph.vertex(graph.edge_v(e)).row)];
    return a != cdb::kNoEntity && a == b;
  };
}

std::string OutcomeSignature(const cdb::ExecutionResult& result) {
  const cdb::ExecutionStats& s = result.stats;
  std::string out;
  auto put = [&](int64_t v) {
    out += std::to_string(v);
    out += ',';
  };
  put(static_cast<int64_t>(result.answers.size()));
  for (const cdb::QueryAnswer& answer : result.answers) {
    for (int64_t row : answer.rows) put(row);
    out += ';';
  }
  out += '|';
  put(s.tasks_asked);
  put(s.rounds);
  put(s.worker_answers);
  put(s.hits_published);
  put(s.platform.micro_dollars_spent);
  put(s.platform.tasks_published);
  put(s.platform.answers_collected);
  for (int64_t size : s.round_sizes) put(size);
  return out;
}

}  // namespace perfbench
