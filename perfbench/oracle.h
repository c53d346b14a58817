// Benchmark-side checking: the crowd simulator's truth oracle and a byte
// signature of a query's outcome, both used outside every timed region; and
// the session workloads' sizes and crowd settings, shared with perfbench_test
// so that it checks the oracle on exactly the passes the workloads run.
#ifndef CDB_PERFBENCH_ORACLE_H_
#define CDB_PERFBENCH_ORACLE_H_

#include <string>

#include "cql/analyzer.h"
#include "datagen/dataset.h"
#include "exec/session.h"

namespace perfbench {

// Dataset scales of the session workloads.
constexpr double kPaperCdbScale = 1.0;       // 676/1239/911/830 rows.
constexpr double kAwardCdbPlusScale = 0.07;  // 104/225/186/83 rows.

// Crowd and optimizer settings of the session workloads: worker quality 0.8
// (stddev 0.1), 50 workers, redundancy 5, serial optimizer. CDB+ adds quality
// control (EM inference plus entropy task assignment).
cdb::ExecutorOptions SessionOptions(bool cdb_plus, uint64_t crowd_seed);

// Edge truth for the simulated crowd, equal to cdb::MakeEdgeTruth but with
// each predicate's entity vectors (and a selection's constant entity)
// resolved once, so an answer costs two vector reads instead of string-keyed
// map lookups. `dataset` and `query` must outlive the returned function.
cdb::EdgeTruthFn MakeResolvedEdgeTruth(const cdb::GeneratedDataset& dataset,
                                       const cdb::ResolvedQuery& query);

// Canonical bytes of a query outcome: sorted answer rows plus every crowd
// count (tasks, answers, HITs, micro-dollars, rounds and round sizes). Equal
// outcomes give equal strings.
std::string OutcomeSignature(const cdb::ExecutionResult& result);

}  // namespace perfbench

#endif  // CDB_PERFBENCH_ORACLE_H_
